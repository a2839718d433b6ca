"""Greedy one-step coupling and the variable-length coupled walk."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipdyn import (
    CapacityError,
    Coloring,
    ConstructionSpec,
    FlipProbabilities,
    Graph,
    InputError,
    InvariantError,
    NeighboringPair,
    alt_vector,
    alternating_component,
    build_construction,
    expected_distance_change,
    flip_step_distribution,
    greedy_coupling_distribution,
    mixed_vector,
    signature,
    terminating_mass,
    variable_length_coupling,
    vigoda_vector,
)
import flipdyn.coupling as coupling
from flipdyn.coupling import (
    CoupledWalk,
    _difference_moves,
    _difference_raw,
    difference_sets,
    is_terminating,
)
from flipdyn.graphs import hamming

from conftest import neighboring_pairs

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
            assert dist.total_mass() == 1
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
                assert dist.total_mass() == 1
                assert flips_only(dist.sigma_marginal()) == flips_only(
                    flip_step_distribution(g, pair.sigma, probs)
                )
                assert flips_only(dist.tau_marginal()) == flips_only(
                    flip_step_distribution(g, pair.tau, probs)
                )


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

    def test_difference_sets_partition(self):
        pair = star_pair(3, 5, (2, 2, 3))
        blocks = difference_sets(pair)
        assert set(blocks) <= set(range(5))
        # Every sigma-side flip identity in some block touches the
        # disagreement structure; block keys are colors.
        for c, entries in blocks.items():
            assert entries, f"empty block for color {c}"


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
    flip as part of D exactly when _difference_moves lists it among the
    sigma-side flips of D.

    Under p_alpha = 1/alpha every flip up to size n is accepted, so a
    zero coin returns the identity-coupled flip for a draw outside D and
    the first (terminating) move of D for a draw inside it.
    """
    probs = FlipProbabilities.from_values([F(1, a) for a in range(1, pair.graph.n + 1)])
    _, labels = _difference_moves(pair, probs)
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
def bounded_degree_pairs(draw, proper: bool):
    """A neighboring pair on a random graph with n <= 10, max degree <= 4
    and k <= 8; proper pairs get k >= max degree + 2 so v has a free
    color."""
    n = draw(st.integers(1, 10))
    max_deg = draw(st.integers(1, 4))
    k = draw(st.integers(max_deg + 2 if proper else 2, 8))
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


def check_block_properties(pair, probs):
    """Mass 1, exact marginals, the terminating oracle, and every block
    built without an InvariantError: the generic blocks' decomposition
    checks and the residual checks of every block's moves."""
    dist = greedy_coupling_distribution(pair, probs)
    assert dist.total_mass() == 1
    assert all(m.mass > 0 for m in dist.moves)
    assert flips_only(dist.sigma_marginal()) == flips_only(
        flip_step_distribution(pair.graph, pair.sigma, probs)
    )
    assert flips_only(dist.tau_marginal()) == flips_only(
        flip_step_distribution(pair.graph, pair.tau, probs)
    )
    for m in dist.moves:
        assert m.terminating == is_terminating(pair, m)
    assert set(difference_sets(pair)) == set(range(pair.k))
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
        assert pair.is_proper_pair()
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
        """The disagreement block's entries are the generic block's
        formulas at c = s and c = t: S_tau(v,s) and S_sigma(x,t) for the
        s-colored neighbors x on the s side, S_sigma(v,t) and S_tau(y,s)
        for the t-colored neighbors y on the t side, None opposite."""
        g, sig, tau, v, s, t = pair.graph, pair.sigma, pair.tau, pair.v, pair.s, pair.t

        def fl(comp):
            return coupling._mk_flip(comp, s, t)

        d = difference_sets(pair)
        want_s = [("sigma:v", None), ("tau:v", fl(alternating_component(g, tau, v, s)))]
        for x in pair.neighbors_colored(s):
            want_s += [(f"tau:u{x}", None),
                       (f"sigma:u{x}", fl(alternating_component(g, sig, x, t)))]
        want_t = [("sigma:v", fl(alternating_component(g, sig, v, t))), ("tau:v", None)]
        for y in pair.neighbors_colored(t):
            want_t += [(f"tau:u{y}", fl(alternating_component(g, tau, y, s))),
                       (f"sigma:u{y}", None)]
        assert d[s] == want_s
        assert d[t] == want_t


def walk_cache_mismatches(pair, probs, seed, step_cap=300):
    """Drive a seeded walk and, after every step, compare its sampling
    table (rebuilt from the kept blocks where some were dropped) with a
    fresh one built from scratch for its current pair: the moves as
    (flips, exact mass), the draw budget _q, and the cumulative floats
    with ==.  Returns the number of states checked and whether one
    differed; the walk stops at the first that does."""
    walk = CoupledWalk(pair, probs, np.random.default_rng(seed))
    checked = 0
    while True:
        if walk._dirty:
            walk._rebuild()
        fresh, labels = _difference_moves(walk.pair, probs)
        cached = [(sf, tf, F(num, walk._den)) for sf, tf, num in walk._moves]
        q = (walk.n + sum(len(f[0]) for f in labels)) / walk.nk
        cum = list(itertools.accumulate(float(m.mass) for m in fresh))
        checked += 1
        if (cached != [(m.sigma_flip, m.tau_flip, m.mass) for m in fresh]
                or walk._q != q or walk._move_cum != cum):
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
    def _own_color_only(entry, comp, lo, hi):
        # the color test narrowed to the block's last color: c for a
        # generic block, t for the disagreement block
        own = entry.colors[-1:]
        return (lo in own or hi in own) and not comp.isdisjoint(entry.reads)

    @pytest.mark.parametrize("mutant", ["colors", "reads"])
    def test_a_narrowed_drop_rule_is_caught(self, mutant, monkeypatch):
        # Leaving out either test of the drop rule only drops more blocks,
        # which stays correct; narrowing one keeps blocks that changed.
        if mutant == "colors":
            monkeypatch.setattr(coupling._CachedBlock, "stale_after", self._own_color_only)
        else:
            # the read set without the neighbors of the visited vertices
            monkeypatch.setattr(coupling, "_closed_neighborhood", lambda g, vs: frozenset(vs))
        differ = 0
        for index in (1, 2, 3, 4):
            pair = build_construction(ConstructionSpec(index, 6, 11))
            for seed in range(4):
                differ += walk_cache_mismatches(pair, mixed_vector(), seed)[1]
        assert differ >= 2


class TestWalkCounters:
    def test_blocks_built_and_reused_are_pinned(self):
        pair = build_construction(ConstructionSpec(1, 6, 11))
        walk = CoupledWalk(pair, mixed_vector(), np.random.default_rng(10))
        rec = walk.run_until_distance_change(10**5)
        assert (rec.t_stop, rec.final_distance) == (35, 0)
        # 8 rebuilds of 10 blocks; the first is a full build
        assert (walk.blocks_built, walk.blocks_reused) == (29, 51)


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
