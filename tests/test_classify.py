"""Per-color state classification and the staged walk machinery."""

from fractions import Fraction

import numpy as np
import pytest

from flipdyn import (
    ConstructionSpec,
    InputError,
    Stage,
    StateLabel,
    build_construction,
    classify_color,
    gamma_bound,
    greedy_coupling_distribution,
    mixed_vector,
    stage_step_masses,
    state_counts,
)
import flipdyn.coupling as coupling
from flipdyn.classify import StateCounts, stage_update, walk_stages
from flipdyn.coupling import CoupledWalk, start_walk, variable_length_coupling
from flipdyn.experiments import ExperimentConfig, _replica_rng, run_stage_experiment

from conftest import neighboring_pairs, small_graph_corpus

F = Fraction


def tree_pair(d, k):
    return build_construction(ConstructionSpec(1, d, k))


def path_pair(a, d, k):
    return build_construction(ConstructionSpec(a, d, k))


class TestClassifyColor:
    def test_disagreement_colors_good(self):
        pair = tree_pair(2, 5)
        assert classify_color(pair, pair.s) == StateLabel.GOOD
        assert classify_color(pair, pair.t) == StateLabel.GOOD

    def test_tree_doubled_color_is_bad(self):
        # The tree pairs its root children by color; each doubled color
        # carries the brittle (7, 3, (3,3), (1,1)) block.
        pair = tree_pair(2, 5)
        assert classify_color(pair, 2) == StateLabel.BAD

    def test_path_start_color_is_sing(self):
        pair = path_pair(2, 3, 5)  # three alternating paths of length 2
        for c in (2, 3, 4):
            assert classify_color(pair, c) == StateLabel.SING

    def test_absent_color(self):
        pair = tree_pair(2, 6)
        assert classify_color(pair, 5) == StateLabel.ABSENT

    def test_out_of_range(self):
        pair = tree_pair(2, 5)
        with pytest.raises(InputError):
            classify_color(pair, 5)

    def test_delta2_not_bad_signature_is_good(self):
        # A star with two same-colored leaves gives delta = 2 with block
        # (3, 3, (1,1), (1,1)) which is not the brittle signature.
        from flipdyn import Coloring, Graph, NeighboringPair

        g = Graph(3, [(0, 1), (0, 2)])
        sigma = Coloring((0, 2, 2), 5)
        pair = NeighboringPair(g, sigma, sigma.recolor({0: 1}))
        assert classify_color(pair, 2) == StateLabel.GOOD


class TestStateCounts:
    def test_tree_counts(self):
        # G_1 at d = 4, k = 8: two doubled colors are Bad, s and t are
        # Good, the remaining 8 - 2 - 2 = 4 colors are absent.
        pair = tree_pair(4, 8)
        counts = state_counts(pair)
        assert counts.n_bad == 2
        assert counts.n_good == 2
        assert counts.n_sing == 0
        assert counts.n_absent == 4

    def test_path_counts(self):
        # G_3 at d = 3, k = 6: each of the three path colors is Sing.
        pair = path_pair(3, 3, 6)
        counts = state_counts(pair)
        assert counts.n_sing == 3
        assert counts.n_good == 2
        assert counts.n_bad == 0
        assert counts.n_absent == 1


def counted_labels(pair, blocks=None):
    """state_counts as a count of classify_color's label per color."""
    labels = [classify_color(pair, c, blocks) for c in range(pair.k)]
    return StateCounts(n_sing=labels.count(StateLabel.SING), n_bad=labels.count(StateLabel.BAD),
                       n_good=labels.count(StateLabel.GOOD),
                       n_absent=labels.count(StateLabel.ABSENT))


class TestStateCountsOnePass:
    """state_counts, one pass over the neighbor counts, gives the counts
    of classify_color's labels."""

    def test_small_corpus(self):
        checked = 0
        for g in small_graph_corpus():
            for k in (2, 3, 4):
                for pair in neighboring_pairs(g, k, ordered=False):
                    assert state_counts(pair) == counted_labels(pair), pair
                    checked += 1
        assert checked == 22486

    def test_pre_stop_records(self):
        probs = mixed_vector()
        n_bad = 0
        for index in (1, 2, 3, 4):
            pair = build_construction(ConstructionSpec(index, 6, 11))
            start = start_walk(pair, probs)
            for r in range(200):
                rec = variable_length_coupling(pair, probs, _replica_rng(1000 + index, r),
                                               start=start)
                pre, table = rec.pre_stop, rec.pre_stop_blocks
                counts = state_counts(pre, table)
                assert counts == counted_labels(pre, table) == counted_labels(pre), (index, r)
                assert state_counts(pre) == counts
                n_bad += counts.n_bad
        assert n_bad > 0


def kept_block_labels(seeds):
    """Walk from constructions 1-4 at d=6, k=11 and, after every step that
    is not a move of D, compare each color's label read from the blocks
    the walk keeps with a fresh search.  Returns how many labels differ
    and how many generic blocks the kept table held for a color two
    neighbors carry (which classify_color then reads instead of
    searching)."""
    probs = mixed_vector()
    differ = read = 0
    for index in (1, 2, 3, 4):
        pair = build_construction(ConstructionSpec(index, 6, 11))
        start = start_walk(pair, probs)
        for seed in seeds:
            walk = CoupledWalk(pair, probs, np.random.default_rng(seed), start)
            while walk._final is None and walk.steps < 2000:
                move = walk.step()
                if move is not None and move.terminating:
                    continue
                p, kept = walk.pair, walk._cache
                for c in range(p.k):
                    differ += classify_color(p, c, kept) != classify_color(p, c)
                    if kept is not None and c not in (p.s, p.t) and p.delta(c) == 2:
                        read += kept[coupling._generic_index(c, p.s, p.t)] is not None
    return differ, read


class TestStageWalkReadsKeptBlocks:
    def test_kept_blocks_classify_as_a_fresh_search(self):
        differ, read = kept_block_labels(range(20))
        assert differ == 0 and read > 100

    def test_a_stage_experiment_reuses_the_kept_block(self, monkeypatch):
        # Generic blocks built by a stage experiment: the start walk's,
        # every rebuild's, and the stage rule's searches where the walk
        # dropped the tracked color's block.  Classifying by a fresh search
        # after every step builds 139 more here (579).
        built = []
        real = coupling._GenericBlock.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(coupling._GenericBlock, "__init__", counted)
        config = ExperimentConfig(seed=3, replicas=200, construction=ConstructionSpec(1, 6, 11),
                                  workers=1)
        run_stage_experiment(config, 2)
        assert len(built) == 440


class TestStageStepMasses:
    def test_masses_partition_unity(self):
        pair = tree_pair(2, 6)
        masses = stage_step_masses(pair, 2, mixed_vector())
        assert masses.to_good + masses.terminating + masses.leave_good == 1

    def test_bad_to_good_floor_small_tree(self):
        # Frozen from an exact enumeration of G_1 (d=2, k=6), color 2:
        # mass into Good exceeds the analytic floor 4(k-d-1)/nk = 2/7.
        pair = tree_pair(2, 6)
        masses = stage_step_masses(pair, 2, mixed_vector())
        assert masses.to_good == F(8, 21)
        assert masses.terminating == F(1, 6)
        assert masses.to_good >= F(4 * (6 - 2 - 1), 7 * 6)


class TestStageUpdate:
    def test_ends(self):
        # BadEnd absorbs every step; no step may follow GoodEnd.
        pair = tree_pair(2, 6)
        dist = greedy_coupling_distribution(pair, mixed_vector())
        term = next(m for m in dist.moves if m.terminating)
        ident = next(m for m in dist.moves if not m.terminating)
        for move in (None, term, ident):
            assert stage_update(Stage.BAD_END, pair, move, 2) is Stage.BAD_END
            with pytest.raises(InputError):
                stage_update(Stage.GOOD_END, pair, move, 2)


class TestStageWalk:
    def test_outcomes_and_determinism(self):
        pair = tree_pair(2, 6)
        cap = 100 * pair.graph.n * pair.k
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            runs.append(
                [
                    (r.outcome, r.steps)
                    for r in (
                        walk_stages(CoupledWalk(pair, mixed_vector(), rng), 2, cap)
                        for _ in range(50)
                    )
                ]
            )
        assert runs[0] == runs[1]
        outcomes = {o for o, _ in runs[0]}
        assert outcomes <= {Stage.GOOD_END, Stage.BAD_END}
        assert Stage.GOOD_END in outcomes and Stage.BAD_END in outcomes

    def test_step_cap_of_one_never_reaches_good_end(self):
        # GoodEnd needs at least a Bad->Good step followed by a
        # termination, so with a one-step cap the walk either ends Bad
        # or hits the cap.
        from flipdyn import CapacityError

        pair = tree_pair(2, 6)
        rng = np.random.default_rng(3)
        good_end = 0
        for _ in range(80):
            try:
                r = walk_stages(CoupledWalk(pair, mixed_vector(), rng), 2, 1)
                good_end += r.outcome == Stage.GOOD_END
            except CapacityError:
                pass
        assert good_end == 0


class TestGammaBound:
    def test_formula(self):
        # gamma = (6k-d-2)(k+2 p2 d) / (4(k-d-2)(k-d-1)) at k=11, d=6.
        p2 = mixed_vector().mass(2)
        gamma, c_const = gamma_bound(11, 6, p2)
        assert gamma == F(6 * 11 - 6 - 2) * (11 + 2 * p2 * 6) / (4 * 3 * 4)
        assert c_const == (11 + 2 * p2 * 6) / 3
        assert gamma == F(324110697521, 18421764312)

    def test_validation(self):
        with pytest.raises(InputError):
            gamma_bound(8, 6, F(1, 4))  # k = d + 2
        with pytest.raises(InputError):
            gamma_bound(11, 0, F(1, 4))
        with pytest.raises(InputError):
            gamma_bound(11, 6, F(3, 2))  # p2 > 1
