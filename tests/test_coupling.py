"""Greedy one-step coupling and the variable-length coupled walk."""

import itertools
from fractions import Fraction
from unittest.mock import ANY

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from flipdyn import (
    CapacityError,
    Coloring,
    ConstructionSpec,
    FlipDynError,
    FlipProbabilities,
    Graph,
    InputError,
    InvariantError,
    NeighboringPair,
    StateLabel,
    alt_vector,
    alternating_component,
    build_construction,
    classify_color,
    expected_distance_change,
    flip_step_distribution,
    greedy_coupling_distribution,
    mixed_vector,
    signature,
    state_counts,
    terminating_mass,
    variable_length_coupling,
    vigoda_vector,
)
import flipdyn.coupling as coupling
from flipdyn.classify import Stage, walk_stages
from flipdyn.coupling import CoupledWalk, TerminationRecord, _difference_raw, start_walk
import flipdyn.experiments as experiments
from flipdyn.experiments import ExperimentConfig, _replica_rng
from flipdyn.graphs import flip, hamming, is_proper

import reference_blocks
import reference_masses
from reference_masses import is_terminating
from conftest import neighboring_pairs, nonisomorphic_graphs, small_graph_corpus

F = Fraction


def star_pair(d, k, leaf_colors):
    """Disagreement at the center of a d-star with prescribed leaf colors."""
    g = Graph(d + 1, [(0, i) for i in range(1, d + 1)])
    sigma = Coloring((0,) + tuple(leaf_colors), k)
    return NeighboringPair(g, sigma, sigma.recolor({0: 1}))


def flips_only(dist):
    return {key: m for key, m in dist.items() if key is not None and m != 0}


class TestMarginals:
    @pytest.mark.parametrize("vec", ["vigoda", "alt", "mixed"])
    def test_exact_on_sample_pairs(self, vec, paper_vectors):
        probs = {**paper_vectors, "mixed": mixed_vector()}[vec]
        cases = [
            star_pair(3, 5, (2, 2, 3)),
            star_pair(2, 4, (0, 1)),  # improper on both sides
            star_pair(4, 6, (2, 2, 3, 3)),
        ]
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sigma = Coloring((0, 2, 0, 2), 4)
        cases.append(NeighboringPair(g, sigma, sigma.recolor({0: 1})))
        for pair in cases:
            dist = greedy_coupling_distribution(pair, probs)
            assert dist.noop_num >= 0
            assert flips_only(dist.sigma_marginal()) == flips_only(
                flip_step_distribution(pair.graph, pair.sigma, probs)
            )
            assert flips_only(dist.tau_marginal()) == flips_only(
                flip_step_distribution(pair.graph, pair.tau, probs)
            )

    def test_exact_on_full_k3_enumeration(self, paper_vectors):
        # Every neighboring pair of the triangle with k = 3: marginals of
        # the coupled distribution equal the single-chain kernels exactly.
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        for probs in paper_vectors.values():
            for pair in neighboring_pairs(g, 3):
                dist = greedy_coupling_distribution(pair, probs)
                assert dist.noop_num >= 0
                assert flips_only(dist.sigma_marginal()) == flips_only(
                    flip_step_distribution(g, pair.sigma, probs)
                )
                assert flips_only(dist.tau_marginal()) == flips_only(
                    flip_step_distribution(g, pair.tau, probs)
                )


def test_marginals_exhaustive_n5(paper_vectors):
    # Criterion 6 past its n <= 4 corpus: on every isomorphism class of
    # graphs with 5 vertices, every unordered neighboring pair with k = 2
    # or 3, and both published vectors, each marginal of the coupled
    # one-step distribution equals the single-chain law exactly, and every
    # move's terminating flag matches is_terminating (the reference in
    # tests/reference_masses.py).  No color or vertex permutation is
    # quotiented out: the coupling breaks ties by lowest index, so it is
    # not known to be equivariant.
    graphs = nonisomorphic_graphs(5)
    assert len(graphs) == 34
    checked = 0
    for g in graphs:
        for k in (2, 3):
            pairs = list(neighboring_pairs(g, k, ordered=False))
            for probs in paper_vectors.values():
                single: dict[tuple, dict] = {}
                for pair in pairs:
                    coupled = greedy_coupling_distribution(pair, probs)
                    assert coupled.noop_num >= 0
                    assert all(m.terminating == is_terminating(pair, m) for m in coupled.moves)
                    for side in (pair.sigma, pair.tau):
                        if side.colors not in single:
                            single[side.colors] = flips_only(
                                flip_step_distribution(g, side, probs))
                    assert flips_only(coupled.sigma_marginal()) == single[pair.sigma.colors]
                    assert flips_only(coupled.tau_marginal()) == single[pair.tau.colors]
                    checked += 1
    assert checked == 88060


class TestSignature:
    def test_isolated_disagreement(self):
        # Star with leaves colored 2, 2, 3 and disagreement 0 vs 1 at the
        # center.  For color 2: the v-rooted components have sizes
        # A = B = 3 (center plus both 2-leaves).  The per-neighbor entries
        # are the leaf-rooted components toward the opposite disagreement
        # color, and no leaf has a neighbor colored 1 (sigma side) or 0
        # (tau side), so every entry is the singleton leaf itself.
        pair = star_pair(3, 5, (2, 2, 3))
        sig = signature(pair, 2)
        assert (sig.c, sig.delta) == (2, 2)
        assert sig.A == 3 and sig.B == 3
        assert sig.a == (1, 1) and sig.b == (1, 1)
        sig3 = signature(pair, 3)
        assert sig3.delta == 1
        assert sig3.A == 2 and sig3.B == 2
        assert sig3.a == (1,) and sig3.b == (1,)
        # Colors absent from the neighborhood have no block to summarize.
        from flipdyn import InputError

        with pytest.raises(InputError):
            signature(pair, 4)


class TestTerminatingMass:
    def test_isolated_vertex_exact(self):
        # Single vertex, no edges: every same-flip pair (v: s->c and
        # v: t->c) coalesces, mass 1/k each for c outside {s,t}; flips to
        # s or t relocate... with n = 1, k = 4: terminating moves are all
        # moves that touch v, which is every move.
        g = Graph(1, [])
        pair = NeighboringPair(g, Coloring((0,), 4), Coloring((1,), 4))
        tm = terminating_mass(pair, vigoda_vector())
        # Draws: (v, c) for c != current color, p_1/nk = 1/4 each; the
        # coupling pairs sigma's flip to c with tau's flip to c.
        assert tm == 1

    def test_star_mass_interval(self, paper_vectors):
        for d, k, leaves in [(2, 6, (2, 3)), (3, 7, (2, 2, 3)), (2, 5, (2, 2))]:
            pair = star_pair(d, k, leaves)
            n = pair.graph.n
            for probs in paper_vectors.values():
                tm = terminating_mass(pair, probs)
                lo = F(k - d - 2, n * k)
                hi = F(k + 2 * probs.mass(2) * d, n * k)
                assert lo <= tm <= hi

    def test_matches_distribution_sum(self, paper_vectors):
        pair = star_pair(3, 5, (2, 2, 3))
        for probs in paper_vectors.values():
            dist = greedy_coupling_distribution(pair, probs)
            assert terminating_mass(pair, probs) == dist.terminating_mass()


class TestExpectedDistanceChange:
    def test_coalescing_only_when_k_large(self):
        # Isolated edge u-v, disagreement at v, k = 5: plenty of free
        # colors, contraction strictly negative.
        g = Graph(2, [(0, 1)])
        sigma = Coloring((0, 2), 5)
        pair = NeighboringPair(g, sigma, sigma.recolor({0: 1}))
        for probs in (vigoda_vector(), alt_vector(), mixed_vector()):
            assert expected_distance_change(pair, probs) < 0

    def test_exact_against_brute_force(self, paper_vectors):
        # E[distance change] recomputed from the full coupled
        # distribution by applying every move.
        pair = star_pair(3, 5, (2, 2, 3))
        for probs in paper_vectors.values():
            dist = greedy_coupling_distribution(pair, probs)
            total = F(0)
            for move in dist.moves:
                sig2, tau2 = move.apply(pair)
                total += move.mass * (hamming(sig2, tau2) - 1)
            assert expected_distance_change(pair, probs) == total


class TestVariableLengthCoupling:
    def test_reproducible(self):
        pair = star_pair(3, 6, (2, 2, 3))
        probs = mixed_vector()
        recs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            recs.append(
                [
                    (r.t_stop, r.final_distance)
                    for r in (
                        variable_length_coupling(pair, probs, rng) for _ in range(30)
                    )
                ]
            )
        assert recs[0] == recs[1]

    def test_final_distance_leaves_one(self):
        pair = star_pair(2, 5, (2, 3))
        probs = vigoda_vector()
        rng = np.random.default_rng(5)
        for _ in range(100):
            rec = variable_length_coupling(pair, probs, rng)
            assert rec.final_distance != 1
            assert rec.final_distance == hamming(rec.final_sigma, rec.final_tau)
            assert hamming(rec.pre_stop_sigma, rec.pre_stop_tau) == 1
            assert rec.t_stop >= 1

    def test_step_cap_raises(self):
        pair = star_pair(3, 6, (2, 2, 3))
        rng = np.random.default_rng(1)
        with pytest.raises(CapacityError):
            # Cap of 0 steps: the first step already exceeds it.
            variable_length_coupling(pair, mixed_vector(), rng, step_cap=0)

    def test_degenerate_single_vertex_coalesces_immediately(self):
        # n = 1, k = 2: the only draws are sigma: 0->1 and tau: 1->0,
        # each coupled as a coalescing move of mass 1/2; T_stop = 1 and
        # final distance 0 always.
        g = Graph(1, [])
        pair = NeighboringPair(g, Coloring((0,), 2), Coloring((1,), 2))
        rng = np.random.default_rng(9)
        for _ in range(20):
            rec = variable_length_coupling(pair, mixed_vector(), rng)
            assert rec.t_stop == 1
            assert rec.final_distance == 0


class _OneDraw:
    """Stand-in generator whose every draw is (x, c) with coin u = 0."""

    def __init__(self, x, c):
        self.queue = [x, c]

    def integers(self, high, size):
        return np.full(size, self.queue.pop(0))

    def random(self, size):
        return np.zeros(size)


def assert_walk_d_test_matches_labels(pair):
    """For every sigma draw (x, c != sigma(x)), the walk treats the drawn
    flip as part of D exactly when _difference_raw lists it among the
    sigma-side flips of D.

    Under p_alpha = 1/alpha every flip up to size n is accepted, so a
    zero coin returns the identity-coupled flip for a draw outside D and
    the first (terminating) move of D for a draw inside it.
    """
    probs = FlipProbabilities.from_values([F(1, a) for a in range(1, pair.graph.n + 1)])
    _, labels = _difference_raw(pair, probs)
    cols = pair.sigma.colors
    for x in range(pair.graph.n):
        for c in range(pair.k):
            if c == cols[x]:
                continue
            comp = alternating_component(pair.graph, pair.sigma, x, c)
            drawn = (comp, min(cols[x], c), max(cols[x], c))
            move = CoupledWalk(pair, probs, _OneDraw(x, c)).step()
            assert move is not None
            assert move.terminating == (drawn in labels), (pair, x, c)
            if not move.terminating:
                assert move.sigma_flip == move.tau_flip == drawn


class TestWalkDTest:
    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_matches_difference_labels_on_constructions(self, index):
        for d, k in ((2, 6) if index in (1, 4) else (3, 6), (6, 11)):
            pair = build_construction(ConstructionSpec(index, d, k))
            for p in (pair, NeighboringPair(pair.graph, pair.tau, pair.sigma)):
                assert_walk_d_test_matches_labels(p)


VECTORS = {"vigoda": vigoda_vector(), "alt": alt_vector(), "mixed": mixed_vector()}


@st.composite
def bounded_degree_pairs(draw, proper: bool, n_max: int = 10, k_max: int = 8):
    """A neighboring pair on a random graph with n <= n_max, max degree
    <= 4 and k <= k_max; proper pairs get k >= max degree + 2 so v has a
    free color."""
    n = draw(st.integers(1, n_max))
    max_deg = draw(st.integers(1, min(4, k_max - 2)))
    k = draw(st.integers(max_deg + 2 if proper else 2, k_max))
    candidates = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(candidates), unique=True,
                           min_size=min(len(candidates), 2 * n))) if candidates else []
    deg = [0] * n
    edges = []
    for u, w in chosen:
        if deg[u] < max_deg and deg[w] < max_deg:
            edges.append((u, w))
            deg[u] += 1
            deg[w] += 1
    g = Graph(n, edges)
    if proper:
        colors: list[int] = []
        for w in range(n):
            used = {colors[z] for z in g.adj[w] if z < w}
            colors.append(draw(st.sampled_from([c for c in range(k) if c not in used])))
    else:
        colors = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    v = draw(st.integers(0, n - 1))
    blocked = {colors[v]} | ({colors[z] for z in g.adj[v]} if proper else set())
    t = draw(st.sampled_from([c for c in range(k) if c not in blocked]))
    sigma = Coloring(tuple(colors), k)
    return NeighboringPair(g, sigma, sigma.recolor({v: t}))


def blocks_of(pair):
    """The library's blocks of pair, one per _block_keys color."""
    return [coupling._block(pair, c) for c in coupling._block_keys(pair)]


def generic_component_mismatches(pair):
    """The generic blocks of pair whose v-rooted components, built from
    their entries, differ from a fresh search: S_sigma(v,c) on the sigma
    side and S_tau(v,c) on the tau side."""
    g, v = pair.graph, pair.v
    return sum((blk.sv_sigma, blk.sv_tau) != (alternating_component(g, pair.sigma, v, blk.c),
                                              alternating_component(g, pair.tau, v, blk.c))
               for blk in blocks_of(pair) if isinstance(blk, coupling._GenericBlock))


def check_block_properties(pair, probs):
    """Moves that fit in mass 1 (a no-op mass >= 0), every move of
    positive mass (so no block emits a negative residual), exact
    marginals, the terminating oracle, each generic
    block's two big components against a fresh search, and each block's
    draw count against its distinct sigma flips."""
    assert generic_component_mismatches(pair) == 0
    den = probs.scale * pair.graph.n * pair.k
    for blk in blocks_of(pair):
        cached = coupling._CachedBlock(blk, probs, den)
        assert cached.draws == sum(len(f[0]) for f in set(blk.sigma_flips()))
    dist = greedy_coupling_distribution(pair, probs)
    assert dist.noop_num >= 0
    assert all(m.mass > 0 for m in dist.moves)
    assert flips_only(dist.sigma_marginal()) == flips_only(
        flip_step_distribution(pair.graph, pair.sigma, probs)
    )
    assert flips_only(dist.tau_marginal()) == flips_only(
        flip_step_distribution(pair.graph, pair.tau, probs)
    )
    for m in dist.moves:
        assert m.terminating == is_terminating(pair, m)
    assert set(reference_blocks.difference_sets(pair)) == set(range(pair.k))
    for c in range(pair.k):
        try:
            signature(pair, c)
        except InputError:
            assert pair.delta(c) == 0 and c not in (pair.s, pair.t)


PROPERTY_SETTINGS = settings(max_examples=200)


class TestBlockProperties:
    @PROPERTY_SETTINGS
    @given(pair=bounded_degree_pairs(proper=True), vec=st.sampled_from(sorted(VECTORS)))
    def test_proper_pairs(self, pair, vec):
        assert is_proper(pair.graph, pair.sigma) and is_proper(pair.graph, pair.tau)
        check_block_properties(pair, VECTORS[vec])

    @PROPERTY_SETTINGS
    @given(pair=bounded_degree_pairs(proper=False), vec=st.sampled_from(sorted(VECTORS)))
    def test_improper_pairs(self, pair, vec):
        check_block_properties(pair, VECTORS[vec])

    @settings(max_examples=40)
    @given(pair=bounded_degree_pairs(proper=False))
    def test_walk_d_test(self, pair):
        assert_walk_d_test_matches_labels(pair)

    @PROPERTY_SETTINGS
    @given(pair=bounded_degree_pairs(proper=False))
    def test_disagreement_entries_are_alternating_components(self, pair):
        """The disagreement block's components are the generic block's
        formulas at c = s and c = t: lam = S_sigma(v,t), m = S_tau(v,s),
        S_sigma(x,t) for each s-colored neighbor x and S_tau(y,s) for each
        t-colored neighbor y, in vertex order."""
        g, sig, tau, v, s, t = pair.graph, pair.sigma, pair.tau, pair.v, pair.s, pair.t
        blk = coupling._block(pair, s)
        xs = [u for u in g.adj[v] if sig.colors[u] == s]
        ys = [u for u in g.adj[v] if sig.colors[u] == t]
        assert blk.lam == alternating_component(g, sig, v, t)
        assert blk.m == alternating_component(g, tau, v, s)
        assert blk.x_sets == [alternating_component(g, sig, x, t) for x in xs]
        assert blk.y_sets == [alternating_component(g, tau, y, s) for y in ys]

    def test_a_tau_side_built_from_the_a_entries_is_caught(self, monkeypatch):
        build = coupling._GenericBlock.__init__

        def mutant(self, pair, c):
            build(self, pair, c)
            self.sv_tau = frozenset((pair.v,)).union(*self.a_sets)

        monkeypatch.setattr(coupling._GenericBlock, "__init__", mutant)
        pairs = [build_construction(ConstructionSpec(index, 6, 11)) for index in (1, 2, 3, 4)]
        assert sum(map(generic_component_mismatches, pairs)) > 0


class TestIntegerMasses:
    """Every mass is an integer num over L * n * k until it is read, and
    the integer sums give exactly the Fraction sums of the reference."""

    @PROPERTY_SETTINGS
    @given(proper=st.booleans(), data=st.data(), vec=st.sampled_from(sorted(VECTORS)))
    def test_sums_match_the_fraction_reference(self, proper, data, vec):
        pair = data.draw(bounded_degree_pairs(proper=proper, n_max=8, k_max=5))
        probs = VECTORS[vec]
        den = probs.scale * pair.graph.n * pair.k
        dist = greedy_coupling_distribution(pair, probs)
        assert dist.den == den
        for m in dist.moves:
            assert m.den == den and m.mass == F(m.num, m.den)
        ref = reference_masses.coupled_sums(dist, pair)
        assert dist.sigma_marginal() == ref["sigma_marginal"]
        assert dist.tau_marginal() == ref["tau_marginal"]
        assert type(dist.noop_mass) is F
        for name in ("total_mass", "terminating_mass"):
            assert getattr(dist, name)() == ref[name]
        assert dist.noop_mass == ref["noop_mass"]
        assert expected_distance_change(pair, probs) == ref["expected_distance_change"]
        for side in (pair.sigma, pair.tau):
            law = flip_step_distribution(pair.graph, side, probs)
            assert law == reference_masses.flip_step_law(pair.graph, side, probs)
            for key, mass in law.items():
                if key is not None:
                    assert mass == probs.mass(len(key[0])) / (pair.graph.n * pair.k)


def flip_cache_mismatches(runs):
    """Run greedy_coupling_distribution on each (pair, probs) of runs in
    turn and count the runs whose sigma marginal is not the single-chain
    law."""
    bad = 0
    for pair, probs in runs:
        try:
            dist = greedy_coupling_distribution(pair, probs)
        except InvariantError:
            bad += 1
            continue
        bad += flips_only(dist.sigma_marginal()) != flips_only(
            flip_step_distribution(pair.graph, pair.sigma, probs))
    return bad


def equal_colors_runs(probs):
    """Pairs whose sigma colors are equal but whose graph or k differ."""
    sigma = (0, 1, 0)
    return [(NeighboringPair(g, Coloring(sigma, k), Coloring(sigma, k).recolor({1: 2})), probs)
            for g, k in ((Graph(3, [(0, 1), (1, 2)]), 3), (Graph(3, [(0, 1)]), 3),
                         (Graph(3, [(0, 1), (1, 2)]), 4))]


def two_vector_runs():
    """One pair under vigoda and then alt.  Its isolated vertex 3 gives
    sigma flips outside D, so the pair has identity moves; every sigma
    flip of the equal_colors_runs pairs is in D."""
    sigma = Coloring((0, 1, 0, 2), 3)
    pair = NeighboringPair(Graph(4, [(0, 1), (1, 2)]), sigma, sigma.recolor({1: 2}))
    return [(pair, vigoda_vector()), (pair, alt_vector())]


class TestSigmaFlipCache:
    """The one-entry cache of identity moves is keyed by value on
    (graph, sigma, probs)."""

    def test_equal_colors_on_other_graphs_get_their_own_flips(self, monkeypatch):
        monkeypatch.setattr(coupling, "_FLIPS", [None, ()])
        assert flip_cache_mismatches(equal_colors_runs(vigoda_vector())) == 0

    def test_a_key_on_colors_alone_is_caught(self, monkeypatch):
        monkeypatch.setattr(coupling, "_flips_key", lambda pair, probs: pair.sigma.colors)
        monkeypatch.setattr(coupling, "_FLIPS", [None, ()])
        assert flip_cache_mismatches(equal_colors_runs(vigoda_vector())) > 0

    def test_another_vector_gets_its_own_moves(self, monkeypatch):
        monkeypatch.setattr(coupling, "_FLIPS", [None, ()])
        assert flip_cache_mismatches(two_vector_runs()) == 0

    def test_a_key_without_the_vector_is_caught(self, monkeypatch):
        monkeypatch.setattr(coupling, "_flips_key", lambda pair, probs: (pair.graph, pair.sigma))
        monkeypatch.setattr(coupling, "_FLIPS", [None, ()])
        assert flip_cache_mismatches(two_vector_runs()) > 0


def assert_pair_is_fresh(pair):
    """pair, however the walk made it, is the NeighboringPair validated
    from scratch from its two colorings: same v, s, t and delta."""
    k = pair.k
    fresh = NeighboringPair(pair.graph, Coloring(pair.sigma.colors, k),
                            Coloring(pair.tau.colors, k))
    assert (pair.v, pair.s, pair.t) == (fresh.v, fresh.s, fresh.t)
    assert [pair.delta(c) for c in range(k)] == [fresh.delta(c) for c in range(k)]


def walk_cache_mismatches(pair, probs, seed, step_cap=300):
    """Drive a seeded walk and, after every step, compare its sampling
    table (rebuilt from the kept blocks where some were dropped) with a
    fresh one built from scratch for its current pair: the moves as
    (flips, exact mass), the draw budget _q, and the cumulative floats
    with ==.  Returns the number of states checked and whether one
    differed; the walk stops at the first that does.  The walk's pair
    itself must equal a freshly validated one after every step."""
    walk = CoupledWalk(pair, probs, np.random.default_rng(seed))
    checked = 0
    while True:
        assert_pair_is_fresh(walk.pair)
        if walk._cache is None or None in walk._cache:
            walk._rebuild()
        raw, labels = _difference_raw(walk.pair, probs)
        den = probs.scale * walk.pair.graph.n * walk.pair.k
        fresh = [(sf, tf, F(num, den)) for sf, tf, num in raw]
        cached = [(sf, tf, F(num, walk._den)) for sf, tf, num in walk._moves]
        q = (walk.n + sum(len(f[0]) for f in labels)) / walk.nk
        cum = list(itertools.accumulate(float(mass) for *_, mass in fresh))
        checked += 1
        if cached != fresh or walk._q != q or walk._move_cum != cum:
            return checked, True
        if walk.steps >= step_cap:
            return checked, False
        walk.step()
        if walk._final is not None:
            return checked, False


CACHE_CONSTRUCTIONS = [(i, d, k) for i in (1, 2, 3, 4) for d, k in ((4, 8), (6, 11))]


class TestWalkBlockCache:
    """The walk's kept blocks always give the table a full rebuild gives."""

    @settings(max_examples=100)
    @given(pair=bounded_degree_pairs(proper=True), vec=st.sampled_from(sorted(VECTORS)),
           seed=st.integers(0, 2**32 - 1))
    def test_proper_pairs(self, pair, vec, seed):
        for i in range(10):
            assert not walk_cache_mismatches(pair, VECTORS[vec], seed + i)[1]

    @settings(max_examples=100)
    @given(pair=bounded_degree_pairs(proper=False), vec=st.sampled_from(sorted(VECTORS)),
           seed=st.integers(0, 2**32 - 1))
    def test_improper_pairs(self, pair, vec, seed):
        for i in range(10):
            assert not walk_cache_mismatches(pair, VECTORS[vec], seed + i)[1]

    @pytest.mark.parametrize("vec", sorted(VECTORS))
    @pytest.mark.parametrize("index,d,k", CACHE_CONSTRUCTIONS)
    def test_constructions(self, index, d, k, vec):
        pair = build_construction(ConstructionSpec(index, d, k))
        total = 0
        for seed in range(40):
            checked, differ = walk_cache_mismatches(pair, VECTORS[vec], seed)
            assert not differ, seed
            total += checked
        assert total >= 200

    @staticmethod
    def _own_color_only(walk, x, comp, lo, hi):
        # the drop rule with its color test narrowed to each block's own
        # color: c for a generic block, t for the disagreement block
        cache = walk._cache
        if cache is None:
            return
        near = frozenset().union(*[walk._closed[w] for w in comp])
        for i, entry in enumerate(cache):
            blk = entry.block if entry is not None else None
            own = blk.c if isinstance(blk, coupling._GenericBlock) else walk._t
            if entry is not None and own in (lo, hi) and not near.isdisjoint(entry.visited):
                cache[i] = None

    @staticmethod
    def _construction_mismatches():
        """Walks on constructions 1-4 at d=6, k=11, four seeds each, whose
        kept blocks ever give another table than a full rebuild."""
        differ = 0
        for index in (1, 2, 3, 4):
            pair = build_construction(ConstructionSpec(index, 6, 11))
            for seed in range(4):
                differ += walk_cache_mismatches(pair, mixed_vector(), seed)[1]
        return differ

    @pytest.mark.parametrize("mutant", ["colors", "reads"])
    def test_a_narrowed_drop_rule_is_caught(self, mutant, monkeypatch):
        # Leaving out either test of the drop rule only drops more blocks,
        # which stays correct; narrowing one keeps blocks that changed.
        if mutant == "colors":
            monkeypatch.setattr(CoupledWalk, "_drop", self._own_color_only)
        else:
            # comp tested in place of N[comp]: no vertex's closed
            # neighborhood holds its neighbors
            monkeypatch.setattr(coupling, "_closed_neighborhoods",
                                lambda g: tuple(frozenset((w,)) for w in range(g.n)))
        assert self._construction_mismatches() >= 2

    def test_a_block_index_without_the_t_shift_is_caught(self, monkeypatch):
        # an identity flip then tests the block of the next color instead
        # of its own whenever the color lies above t
        monkeypatch.setattr(coupling, "_generic_index", lambda c, s, t: c - (c > s))
        assert self._construction_mismatches() >= 2


class _PairCheck(CoupledWalk):
    """A walk that reads its pair after every step and compares it with
    the NeighboringPair validated afresh from the colorings its moves
    give, applied to a copy: colors, v, s, t and delta.  stale counts
    the steps whose pair differs, and moved those whose delta changed."""

    def __init__(self, pair, probs, rng):
        super().__init__(pair, probs, rng)
        self.sides, self.stale, self.moved = (pair.sigma, pair.tau), 0, 0

    def step(self):
        before = self.pair._delta
        move = super().step()
        if move is not None:
            sig, tau = self.sides
            if move.sigma_flip is not None:
                sig = flip(sig, *move.sigma_flip)
            if move.tau_flip is not None:
                tau = flip(tau, *move.tau_flip)
            self.sides = sig, tau
        if self._final is None:
            p, fresh = self.pair, NeighboringPair(self.g, *self.sides)
            self.stale += ((p.sigma, p.tau, p.v, p.s, p.t, p._delta)
                           != (fresh.sigma, fresh.tau, fresh.v, fresh.s, fresh.t, fresh._delta))
            self.moved += p._delta != before
        return move


def lazy_pair_mismatches(pair, probs, seeds, step_cap=3000):
    """Run each seeded walk from pair twice, as a _PairCheck and as a walk
    whose pair nothing reads before its record.  Returns the steps whose
    pair was stale, the walks whose two runs differ in their outcome
    (record, or the error raised), counters or final colorings, and the
    steps whose delta changed."""
    stale = differ = moved = 0
    for seed in seeds:
        read = _PairCheck(pair, probs, np.random.default_rng(seed))
        unread = CoupledWalk(pair, probs, np.random.default_rng(seed))
        got = outcome(read.run_until_distance_change, step_cap)
        want = outcome(unread.run_until_distance_change, step_cap)
        stale += read.stale
        moved += read.moved
        counters = [(w.steps, w.rebuilds, w.blocks_built, w.blocks_reused)
                    for w in (read, unread)]
        ends = got == want and (got is CapacityError
                                or (got.final_sigma, got.final_tau) == read.sides)
        differ += not ends or counters[0] != counters[1]
    return stale, differ, moved


class TestLazyPair:
    """The pair a walk builds from its lists when read is the pair its
    moves give, and reading it changes nothing in the walk."""

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_constructions(self, index):
        pair = build_construction(ConstructionSpec(index, 6, 11))
        for vec in sorted(VECTORS):
            stale, differ, moved = lazy_pair_mismatches(pair, VECTORS[vec], range(20))
            assert (stale, differ) == (0, 0), vec
            assert moved > 0, vec

    @settings(max_examples=200, derandomize=True)
    @given(proper=st.booleans(), data=st.data(), vec=st.sampled_from(sorted(VECTORS)))
    def test_bounded_degree_pairs(self, proper, data, vec):
        pair = data.draw(bounded_degree_pairs(proper=proper))
        assert lazy_pair_mismatches(pair, VECTORS[vec], range(3))[:2] == (0, 0)


def retargeted(pair):
    """pair with tau(v) moved to the lowest color free at v: the same
    graph and sigma, another tau."""
    t = next(c for c in range(pair.k) if c not in (pair.s, pair.t) and not pair.delta(c))
    return NeighboringPair(pair.graph, pair.sigma, pair.sigma.recolor({pair.v: t}))


def outcome(fn, *args, **kwargs):
    """fn's record, or the class of the package error it raised."""
    try:
        return fn(*args, **kwargs)
    except FlipDynError as e:
        return type(e)


def start_pairs():
    """Constructions 1-4 at d=6, k=11 and their retargeted pairs, each
    with its Bad colors."""
    out = []
    for index in (1, 2, 3, 4):
        pair = build_construction(ConstructionSpec(index, 6, 11))
        for p in (pair, retargeted(pair)):
            out.append((p, [c for c in range(p.k) if classify_color(p, c) == StateLabel.BAD]))
    assert sum(len(bad) for _, bad in out) >= 3
    return out


def shared_start_mismatches(seeds):
    """Compare variable_length_coupling and walk_stages on walks that copy
    one start walk per (pair, vector) with the same calls on lazily built
    walks.  Each construction at d=6, k=11 and its retargeted pair (same
    graph and sigma) run with every vector, and every seed copies the same
    start walk.  Returns the number of calls whose records differ (a call
    that raises differs)."""
    differ = 0
    for pair, bad in start_pairs():
        cap = 100 * pair.graph.n * pair.k
        for vec in sorted(VECTORS):
            probs = VECTORS[vec]
            start = start_walk(pair, probs)
            for seed in seeds:
                lazy = variable_length_coupling(pair, probs, np.random.default_rng(seed))
                shared = outcome(variable_length_coupling, pair, probs,
                                 np.random.default_rng(seed), start=start)
                differ += shared != lazy
                for c in bad:
                    lazy = walk_stages(CoupledWalk(pair, probs, np.random.default_rng(seed)),
                                       c, cap)
                    walk = CoupledWalk(pair, probs, np.random.default_rng(seed), start)
                    differ += outcome(walk_stages, walk, c, cap) != lazy
    return differ


def context_mismatches(replicas=4):
    """Run the couple and stage harnesses (_replicas) on every start pair,
    each with every vector in turn (the retargeted pairs in reverse), so
    each experiment differs from the one before only in the vector, only
    in tau, or in the whole pair.  Returns the number of experiments whose
    rows differ from rows of lazily built walks (one that raises differs);
    the context must be cleared after each."""
    config = ExperimentConfig(seed=5, replicas=replicas,
                              construction=ConstructionSpec(1, 6, 11), workers=1)
    vecs = sorted(VECTORS)
    differ = 0
    for i, (pair, bad) in enumerate(start_pairs()):
        cap = 100 * pair.graph.n * pair.k
        for vec in vecs if i % 2 == 0 else vecs[::-1]:
            probs = VECTORS[vec]
            want = []
            for r in range(replicas):
                rec = variable_length_coupling(pair, probs, _replica_rng(5, r), cap)
                counts = state_counts(NeighboringPair(pair.graph, rec.pre_stop_sigma,
                                                      rec.pre_stop_tau))
                want.append((rec.t_stop, rec.final_distance, 0, counts.n_bad, counts.n_good))
            got = outcome(experiments._replicas, config, pair, probs,
                          experiments._couple_replica, experiments._COUPLE_HEADER, None)
            differ += got != (want, 0, ANY)
            for c in bad:
                want = []
                for r in range(replicas):
                    res = walk_stages(CoupledWalk(pair, probs, _replica_rng(5, r)), c, cap)
                    want.append((int(res.outcome == Stage.GOOD_END), res.steps, 0))
                got = outcome(experiments._replicas, config, pair, probs,
                              experiments._stage_replica, (), None, c)
                differ += got != (want, 0, ANY)
            assert experiments._CONTEXT is None
    return differ


class TestSharedStart:
    """A walk that copies a start walk runs exactly as a lazy one, and
    each experiment's replicas copy a start walk of their own pair and
    vector."""

    def test_same_records_as_lazy_walks(self):
        assert shared_start_mismatches(range(50)) == 0

    def test_a_start_walk_at_another_pair_or_vector_is_refused(self):
        pair, probs = build_construction(ConstructionSpec(1, 6, 11)), mixed_vector()
        start = start_walk(pair, probs)
        for other in (build_construction(ConstructionSpec(1, 6, 11)), retargeted(pair)):
            with pytest.raises(InputError, match="start walk"):
                variable_length_coupling(other, probs, np.random.default_rng(0), start=start)
        with pytest.raises(InputError, match="start walk"):
            CoupledWalk(pair, mixed_vector(), np.random.default_rng(0), start)

    def test_a_start_walk_with_no_table_is_refused(self):
        # a walk at the same pair and vector that never rebuilt has no
        # table to copy
        pair, probs = build_construction(ConstructionSpec(1, 6, 11)), mixed_vector()
        unbuilt = CoupledWalk(pair, probs, np.random.default_rng(0))
        with pytest.raises(InputError, match="no table"):
            CoupledWalk(pair, probs, np.random.default_rng(1), unbuilt)
        with pytest.raises(InputError, match="no table"):
            variable_length_coupling(pair, probs, np.random.default_rng(1), start=unbuilt)

    def test_each_experiment_gets_its_own_context(self):
        assert context_mismatches() == 0

    @pytest.mark.parametrize("mutant", ["probs", "tau"])
    def test_a_context_reused_with_another_vector_or_tau_is_caught(self, mutant,
                                                                   monkeypatch):
        # a harness that keeps the context of an earlier experiment with
        # the same color whose pair and vector agree by value, ignoring the
        # vector or tau
        if mutant == "probs":
            key = lambda pair, probs: (pair.graph, pair.sigma, pair.tau)
        else:
            key = lambda pair, probs: (pair.graph, pair.sigma, probs)
        made = {}

        def kept(pair, probs, seed, step_cap, color, start):
            return made.setdefault((key(pair, probs), color),
                                   context(pair, probs, seed, step_cap, color, start))

        context = experiments._Context
        monkeypatch.setattr(experiments, "_Context", kept)
        assert context_mismatches() > 0


class TestWalkCounters:
    def test_blocks_built_and_reused_are_pinned(self):
        pair = build_construction(ConstructionSpec(1, 6, 11))
        walk = CoupledWalk(pair, mixed_vector(), np.random.default_rng(10))
        rec = walk.run_until_distance_change(10**5)
        assert (rec.t_stop, rec.final_distance) == (35, 0)
        # one full rebuild of 10 blocks: every other draw that finds a
        # dropped block lands past every move of D, and _past_d tells
        assert (walk.blocks_built, walk.blocks_reused) == (10, 0)

    def test_a_shared_start_skips_the_full_build(self):
        pair, probs = build_construction(ConstructionSpec(1, 6, 11)), mixed_vector()
        walk = CoupledWalk(pair, probs, np.random.default_rng(10), start_walk(pair, probs))
        rec = walk.run_until_distance_change(10**5)
        assert (rec.t_stop, rec.final_distance) == (35, 0)
        # the same one rebuild, which builds only the 7 blocks the
        # identity flips before it dropped from the start table
        assert (walk.blocks_built, walk.blocks_reused) == (7, 3)

    def test_the_record_carries_the_counters(self):
        pair, probs = build_construction(ConstructionSpec(1, 6, 11)), mixed_vector()
        for start in (None, start_walk(pair, probs)):
            walk = CoupledWalk(pair, probs, np.random.default_rng(10), start)
            rec = walk.run_until_distance_change(10**5)
            assert (rec.t_stop, rec.rebuilds, rec.blocks_built, rec.blocks_reused) == (
                walk.steps, walk.rebuilds, walk.blocks_built, walk.blocks_reused)
            assert rec.rebuilds == 1


class _SegmentLog(CoupledWalk):
    """A walk that counts its moves of D."""

    segment = 0

    def step(self):
        move = super().step()
        if move is not None and move.terminating:
            self.segment += 1
        return move


class TestAbsentEntries:
    """An absent color's entry depends on v, s, t and the color alone: the
    start walk builds one per color outside {s, t}, and a walk builds
    each other one at most once between two moves of D."""

    def test_built_once_per_start_and_per_move_of_d(self, monkeypatch):
        built = []
        real = CoupledWalk._absent_entry

        def logged(walk, c):
            if isinstance(walk, _SegmentLog):
                built.append((walk, walk.segment, c))
            return real(walk, c)

        monkeypatch.setattr(CoupledWalk, "_absent_entry", logged)
        probs = mixed_vector()
        for index in (1, 2, 3, 4):
            pair = build_construction(ConstructionSpec(index, 6, 11))
            start = start_walk(pair, probs)
            assert None not in start._absent
            for seed in range(50):
                walk = _SegmentLog(pair, probs, np.random.default_rng(seed), start)
                walk.run_until_distance_change(10**5)
        # none before the first move of D, none twice in one segment
        assert built and all(segment > 0 for _, segment, _ in built)
        assert len({(id(walk), segment, c) for walk, segment, c in built}) == len(built)


_GENERIC_MOVES = coupling._GenericBlock.moves


def _inflate_first_block(monkeypatch, extra):
    """Add extra to the integer mass of the first move of the first
    generic block built."""
    done = []

    def inflated(self, probs):
        out = _GENERIC_MOVES(self, probs)
        if out and not done:
            done.append(self.c)
            sf, tf, num = out[0]
            out[0] = (sf, tf, num + extra)
        return out

    monkeypatch.setattr(coupling._GenericBlock, "moves", inflated)


class TestExactBudgets:
    """Both mass budgets are checked exactly: one unit over L * n * k
    beyond the budget raises, the budget itself does not."""

    def test_walk_draw_budget(self, monkeypatch):
        pair, probs = build_construction(ConstructionSpec(1, 6, 11)), mixed_vector()
        raw, labels = _difference_raw(pair, probs)
        q_draws = pair.graph.n + sum(len(f[0]) for f in labels)
        slack = probs.scale * q_draws - sum(num for _, _, num in raw)
        assert slack > 0
        _inflate_first_block(monkeypatch, slack)
        CoupledWalk(pair, probs, np.random.default_rng(0))._rebuild()
        _inflate_first_block(monkeypatch, slack + 1)
        with pytest.raises(InvariantError, match="draw budget"):
            CoupledWalk(pair, probs, np.random.default_rng(0))._rebuild()

    def test_distribution_total(self, monkeypatch):
        pair, probs = build_construction(ConstructionSpec(1, 6, 11)), mixed_vector()
        den = probs.scale * pair.graph.n * pair.k
        slack = greedy_coupling_distribution(pair, probs).noop_mass * den
        assert slack.denominator == 1 and slack > 0
        _inflate_first_block(monkeypatch, int(slack))
        assert greedy_coupling_distribution(pair, probs).noop_mass == 0
        _inflate_first_block(monkeypatch, int(slack) + 1)
        with pytest.raises(InvariantError, match="exceed 1"):
            greedy_coupling_distribution(pair, probs)


def walk_pairs(pair, probs, seeds, step_cap=300):
    """pair and every pair the seeded walks from it pass through."""
    out = [pair]
    for seed in seeds:
        walk = CoupledWalk(pair, probs, np.random.default_rng(seed))
        while walk._final is None and walk.steps < step_cap:
            if walk.step() is not None and walk._final is None:
                out.append(walk.pair)
    return out


def block_mismatches(pair, probs):
    """The colors whose block differs from the two-pass reference in
    anything it reports: moves (order, flips and num), sigma flips, draws,
    visited and the signature of each color it holds (or the
    error that raises), and, as the walk keeps it, visited, moves, floats,
    total and draws."""
    g = pair.graph
    den = probs.scale * g.n * pair.k
    differ = []
    for c in coupling._block_keys(pair):
        blk, ref = coupling._block(pair, c), reference_blocks.block(pair, c)
        held = (pair.s, pair.t) if c == pair.s else (c,)
        moves = ref.moves(probs)
        vis = ref.visited()
        cached = coupling._CachedBlock(blk, probs, den)
        got = (blk.moves(probs), blk.sigma_flips(), blk.draws(), blk.visited(),
               [outcome(blk.signature, h) for h in held],
               cached.visited, cached.moves, cached.floats, cached.total, cached.draws)
        want = (moves, ref.sigma_flips(), ref.draws(), vis,
                [outcome(ref.signature, h) for h in held],
                vis, moves, [num / den for *_, num in moves],
                sum(num for *_, num in moves), ref.draws())
        if got != want or cached.block is not blk:
            differ.append(c)
    return differ


class TestOnePassBlocks:
    """Every block, built in one pass, reports exactly what the two-pass
    reference (tests/reference_blocks.py) reports."""

    @settings(max_examples=300, derandomize=True)
    @given(pair=bounded_degree_pairs(proper=True), vec=st.sampled_from(sorted(VECTORS)))
    def test_proper_pairs(self, pair, vec):
        assert block_mismatches(pair, VECTORS[vec]) == []

    @settings(max_examples=300, derandomize=True)
    @given(pair=bounded_degree_pairs(proper=False), vec=st.sampled_from(sorted(VECTORS)))
    def test_improper_pairs(self, pair, vec):
        assert block_mismatches(pair, VECTORS[vec]) == []

    @pytest.mark.parametrize("index,d,k", CACHE_CONSTRUCTIONS)
    def test_constructions_and_their_walks(self, index, d, k):
        pair = build_construction(ConstructionSpec(index, d, k))
        pairs = walk_pairs(pair, mixed_vector(), range(3))
        assert len(pairs) >= 10
        for p in pairs:
            for vec in sorted(VECTORS):
                assert block_mismatches(p, VECTORS[vec]) == [], vec


def fresh_signatures(pair):
    """Each color's signature (or the error it raises) from the two-pass
    reference blocks."""
    return [outcome(reference_blocks.block(pair, c).signature, c) for c in range(pair.k)]


class _PairLog(CoupledWalk):
    """A walk that keeps its pair after every identity flip since its last
    move of D."""

    def step(self):
        move = super().step()
        if move is not None:
            self.after_d = [] if move.terminating else self.after_d + [self.pair]
        return move


def pre_table_mismatches(seeds):
    """Walk from constructions 1-4 at d=6, k=11, copying one start walk
    each.  Returns how many of the pre-stop pair's k signatures read from
    the record's table agree with the reference (k per walk), and how
    many signatures of other pairs, searched right after the walk,
    disagree with it: the retargeted pre-stop pair (the same graph and
    sigma, another tau) and the walk's pair after every identity flip
    that follows a move of D."""
    own = other = 0
    probs = mixed_vector()
    for index in (1, 2, 3, 4):
        pair = build_construction(ConstructionSpec(index, 6, 11))
        start = start_walk(pair, probs)
        for seed in seeds:
            walk = _PairLog(pair, probs, np.random.default_rng(seed), start)
            walk.after_d = []
            rec = walk.run_until_distance_change(10**5)
            pre = rec.pre_stop
            table = [outcome(signature, pre, c, rec.pre_stop_blocks) for c in range(pre.k)]
            own += sum(a == b for a, b in zip(table, fresh_signatures(pre)))
            for p in [retargeted(pre)] + walk.after_d:
                other += [outcome(signature, p, c) for c in range(p.k)] != fresh_signatures(p)
    return own, other


class TestPreStopTable:
    """A walk's record carries the table its last move of D was drawn
    from, at the pre-stop pair, and signature reads a table only when
    handed one."""

    def test_pre_stop_counts_match_a_fresh_search(self):
        probs = mixed_vector()
        n_bad = 0
        for index in (1, 2, 3, 4):
            pair = build_construction(ConstructionSpec(index, 6, 11))
            start = start_walk(pair, probs)
            for r in range(200):
                rec = variable_length_coupling(pair, probs, _replica_rng(1000 + index, r),
                                               start=start)
                pre = rec.pre_stop
                assert (pre.sigma, pre.tau) == (rec.pre_stop_sigma, rec.pre_stop_tau)
                counts = state_counts(pre, rec.pre_stop_blocks)
                fresh = NeighboringPair(pair.graph, rec.pre_stop_sigma, rec.pre_stop_tau)
                assert counts == state_counts(fresh), (index, r)
                n_bad += counts.n_bad
        assert n_bad > 0

    def test_only_the_pair_it_was_built_for_reads_it(self):
        own, other = pre_table_mismatches(range(20))
        assert (own, other) == (4 * 20 * 11, 0)


class _AlwaysRebuild(CoupledWalk):
    """The reference walk: its early test never fires, so a draw of the
    combined class that finds a dropped block always rebuilds first."""

    def _past_d(self, u):
        return False


def _move_key(move):
    return None if move is None else (move.sigma_flip, move.tau_flip, move.num,
                                      move.terminating)


class _Shadowed(CoupledWalk):
    """A walk that steps an _AlwaysRebuild reference with the same seed
    beside it and counts the steps whose moves differ (flips, num and
    terminating, or None on one side only)."""

    def __init__(self, pair, probs, seed):
        super().__init__(pair, probs, np.random.default_rng(seed))
        self.ref = _AlwaysRebuild(pair, probs, np.random.default_rng(seed))
        self.differ = 0

    def step(self):
        move = super().step()
        self.differ += _move_key(move) != _move_key(self.ref.step())
        return move


def early_noop_mismatches(pair, probs, seeds, step_cap=3000):
    """Run each seeded walk from pair beside an _AlwaysRebuild reference.
    Returns the steps whose moves differ, the walks whose outcome (record
    with its pre-stop table's moves, or the error raised) differs from a
    reference run on its own, and the rebuilds the walks skipped."""
    steps = records = skipped = 0
    for seed in seeds:
        walk = _Shadowed(pair, probs, seed)
        got = outcome(walk.run_until_distance_change, step_cap)
        want = outcome(_AlwaysRebuild(pair, probs, np.random.default_rng(seed))
                       .run_until_distance_change, step_cap)
        steps += walk.differ
        if isinstance(got, TerminationRecord) and isinstance(want, TerminationRecord):
            records += (got != want or [e.moves for e in got.pre_stop_blocks]
                        != [e.moves for e in want.pre_stop_blocks])
        else:
            records += got != want
        skipped += walk.ref.rebuilds - walk.rebuilds
    return steps, records, skipped


def construction_noop_mismatches(seeds):
    """early_noop_mismatches summed over constructions 1-4 at d=6, k=11
    and every vector."""
    total = [0, 0, 0]
    for index in (1, 2, 3, 4):
        pair = build_construction(ConstructionSpec(index, 6, 11))
        for vec in sorted(VECTORS):
            for i, n in enumerate(early_noop_mismatches(pair, VECTORS[vec], seeds)):
                total[i] += n
    return tuple(total)


_DROPPED_BOUNDS = coupling._dropped_bounds


def _mass_zero(c, counts, s, t, scale, two_p2):
    return _DROPPED_BOUNDS(c, counts, s, t, scale, two_p2)[0], 0


def _no_p2_term(c, counts, s, t, scale, two_p2):
    draws, total = _DROPPED_BOUNDS(c, counts, s, t, scale, two_p2)
    return draws, total - (two_p2 if c != s and counts[c] else 0)


def _three_draws_per_neighbor(c, counts, s, t, scale, two_p2):
    draws, total = _DROPPED_BOUNDS(c, counts, s, t, scale, two_p2)
    return draws + (counts[c] if c != s else 0), total


class TestEarlyNoop:
    """A draw that _past_d sends past every move of D without a rebuild
    is one the rebuilt table sends there too: every step returns the move
    the always-rebuilding reference returns, and every walk ends with its
    record."""

    def test_constructions(self):
        steps, records, skipped = construction_noop_mismatches(range(150))
        assert (steps, records) == (0, 0)
        assert skipped > 1000

    @settings(max_examples=200, derandomize=True)
    @given(proper=st.booleans(), data=st.data(), vec=st.sampled_from(sorted(VECTORS)))
    def test_bounded_degree_pairs(self, proper, data, vec):
        pair = data.draw(bounded_degree_pairs(proper=proper))
        assert early_noop_mismatches(pair, VECTORS[vec], range(5))[:2] == (0, 0)

    @pytest.mark.parametrize("proper", [True, False])
    def test_bounded_degree_pairs_reach_the_skip(self, proper):
        # the property test above exercises the skip, not only the rebuild
        pair = find(bounded_degree_pairs(proper=proper),
                    lambda p: early_noop_mismatches(p, mixed_vector(), range(20))[2] > 0,
                    settings=settings(derandomize=True, database=None))
        assert early_noop_mismatches(pair, mixed_vector(), range(20))[:2] == (0, 0)

    @pytest.mark.parametrize("mutant,seeds", [(_mass_zero, 10), (_no_p2_term, 150),
                                              (_three_draws_per_neighbor, 150)])
    def test_a_loose_bound_is_caught(self, mutant, seeds, monkeypatch):
        # each mutant bound overstates a dropped block's draws or
        # understates its total, so some draw that lands on a move of D
        # is skipped as a no-op (walks that never stop make the first
        # mutant slow, and it is caught at every seed)
        monkeypatch.setattr(coupling, "_dropped_bounds", mutant)
        assert sum(construction_noop_mismatches(range(seeds))[:2]) > 0


def bound_violations(pair, vectors):
    """The (color, vector) blocks of pair that break _dropped_bounds at
    pair's neighbor counts: draws below its lower bound, total above its
    upper bound, a negative num, or an absent color's block off the exact
    values.  Each block is built once and read under every vector."""
    s, t = pair.s, pair.t
    den = pair.graph.n * pair.k
    out = []
    for c in coupling._block_keys(pair):
        blk = coupling._block(pair, c)
        exact = c != s and not pair.delta(c)
        for vec in vectors:
            probs = VECTORS[vec]
            entry = coupling._CachedBlock(blk, probs, probs.scale * den)
            lo, hi = coupling._dropped_bounds(c, pair._delta, s, t, probs.scale,
                                              2 * probs.mass_scaled(2))
            negative = any(n < 0 for *_, n in entry.moves)
            if (entry.draws < lo or entry.total > hi or negative
                    or exact and (entry.draws, entry.total) != (lo, hi)):
                out.append((c, vec))
    return out


class TestDroppedBounds:
    """Every block meets the bounds _past_d reads for a dropped one, under
    every vector, and no block keeps a move of negative mass."""

    def test_criterion_6_corpus(self):
        checked = 0
        for g in small_graph_corpus():
            for k in (2, 3, 4):
                for pair in neighboring_pairs(g, k, ordered=False):
                    assert bound_violations(pair, sorted(VECTORS)) == [], pair
                    checked += 1
        assert checked == 22486

    @settings(max_examples=300, derandomize=True)
    @given(proper=st.booleans(), data=st.data())
    def test_bounded_degree_pairs(self, proper, data):
        pair = data.draw(bounded_degree_pairs(proper=proper))
        assert bound_violations(pair, sorted(VECTORS)) == []

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_constructions_and_their_walks(self, index):
        pair = build_construction(ConstructionSpec(index, 6, 11))
        pairs = [p for vec in sorted(VECTORS) for p in walk_pairs(pair, VECTORS[vec], range(5))]
        assert len(pairs) >= 30
        for p in pairs:
            assert bound_violations(p, sorted(VECTORS)) == []

    def test_a_negative_move_raises(self, monkeypatch):
        pair, probs = build_construction(ConstructionSpec(1, 6, 11)), mixed_vector()
        # no move exceeds L, so this leaves the first move of the first
        # generic block built below zero
        _inflate_first_block(monkeypatch, -probs.scale - 1)
        with pytest.raises(InvariantError, match="negative"):
            CoupledWalk(pair, probs, np.random.default_rng(0))._rebuild()
