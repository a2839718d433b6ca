"""Acceptance gate: the twelve release criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Every exact claim is checked in rational arithmetic; the two
Monte Carlo claims (criterion 11) are checked at 95% confidence.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, str(__file__).rsplit("/", 1)[0])
from conftest import neighboring_pairs, small_graph_corpus  # noqa: E402
from reference_masses import is_terminating  # noqa: E402

from flipdyn import (
    ConstructionSpec,
    ExperimentConfig,
    FlipProbabilities,
    NeighboringPair,
    StateLabel,
    alt_vector,
    build_construction,
    build_mixed_lp,
    build_tight_lp,
    build_vigoda_lp,
    classify_color,
    estimate_gamma_empirical,
    expected_distance_change,
    extend_assignment,
    flip_step_distribution,
    greedy_coupling_distribution,
    h_value,
    mixed_vector,
    mixing_time_bound,
    slack_report,
    solve,
    solve_float,
    stage_step_masses,
    vigoda_vector,
)
from flipdyn.cli import main as cli_main
from flipdyn.experiments import MetricSummary

F = Fraction


@pytest.fixture(scope="module")
def lp_n7():
    return build_vigoda_lp(7, 3)


@pytest.fixture(scope="module")
def both_vectors():
    return (vigoda_vector(), alt_vector())


def test_criterion_01_one_step_lp_value(tmp_path, lp_n7, capsys):
    # CLI build of the full one-step program, then an exact solve:
    # objective is 11/6 on the nose, and an independent floating-point
    # solve lands within 1e-9.
    out = str(tmp_path / "one-step.lp")
    assert (
        cli_main(["lp", "build", "--kind", "vigoda", "--nmax", "7",
                  "--mstar", "3", "--out", out]) == 0
    )
    sol = solve(lp_n7)
    assert sol.status == "optimal"
    assert sol.objective_value == F(11, 6)
    status, fval = solve_float(lp_n7)
    assert status == "optimal"
    assert abs(fval - float(F(11, 6))) <= 1e-9


def test_criterion_02_published_vectors_feasible(lp_n7, both_vectors):
    # Both published probability vectors are feasible for the one-step
    # program at rate 11/6, for truncation sizes 6 and 7, by exact slacks.
    for inst in (build_vigoda_lp(6, 3), lp_n7):
        for probs in both_vectors:
            report = slack_report(inst, extend_assignment(inst, probs, F(11, 6)))
            assert report.feasible
            assert not report.violated


def test_criterion_03_observation_tight_set(capsys):
    # `check observation` reproduces the classical tight constraint set
    # exactly: no missing labels, no extra labels.
    assert cli_main(["check", "observation"]) == 0
    out = capsys.readouterr().out
    assert "reproduced exactly" in out


def test_criterion_04_reduced_lp_value_and_redundancy():
    # The five-constraint reduced program solves to exactly 11/6, and
    # dropping the constraint involving p_6 leaves the optimum unchanged.
    full = build_tight_lp()
    assert solve(full).objective_value == F(11, 6)
    assert solve(full.without("tight/4")).objective_value == F(11, 6)


def test_criterion_05_mixed_lp_threshold():
    # The gamma-mixed program at gamma = 25.597784, truncation 6, with the
    # shifted cap rows enabled, solves below 1.833239 in exact rationals.
    inst = build_mixed_lp(6, 3, F("25.597784"), cap3=True)
    sol = solve(inst)
    assert sol.status == "optimal"
    assert sol.objective_value < F(1833239, 10**6)


def test_criterion_06_coupling_marginals_exhaustive(both_vectors):
    # The load-bearing coupling property: on every isomorphism class of
    # graphs with at most 4 vertices, every neighboring pair with at most
    # 4 colors, and both published vectors, each marginal of the coupled
    # one-step distribution equals the single-chain distribution exactly,
    # and every move's terminating flag matches is_terminating
    # (tests/reference_masses.py), which recomputes it from the move's
    # flips.
    def flips_only(dist):
        return {key: m for key, m in dist.items() if key is not None and m != 0}

    checked = 0
    for g in small_graph_corpus():
        for k in (2, 3, 4):
            single_cache: dict[tuple, dict] = {}
            for probs_idx, probs in enumerate(both_vectors):
                for pair in neighboring_pairs(g, k, ordered=False):
                    coupled = greedy_coupling_distribution(pair, probs)
                    assert coupled.noop_num >= 0
                    assert all(m.terminating == is_terminating(pair, m) for m in coupled.moves)
                    for side in (pair.sigma, pair.tau):
                        key = (probs_idx, side.colors)
                        if key not in single_cache:
                            single_cache[key] = flips_only(
                                flip_step_distribution(g, side, probs)
                            )
                    assert flips_only(coupled.sigma_marginal()) == single_cache[
                        (probs_idx, pair.sigma.colors)
                    ]
                    assert flips_only(coupled.tau_marginal()) == single_cache[
                        (probs_idx, pair.tau.colors)
                    ]
                    checked += 1
    # 18 isomorphism classes; every unordered pair in both orientations of
    # the marginal check, for both vectors: exactly 44,972 checks, so a
    # graph class or a k dropped from the corpus or the loop shows.
    assert checked == 44972


def test_criterion_07_terminating_mass_interval(both_vectors):
    # Exact terminating mass lies in [(k-d-2)/nk, (k + 2 p_2 d)/nk] with
    # d the disagreement vertex's degree, over (a) every criterion-6 pair
    # with k > d + 2 and (b) the worst-case constructions with d <= 6 and
    # k <= 12.
    def check(pair, probs):
        n, k, d = pair.graph.n, pair.k, pair.graph.degree(pair.v)
        mass = greedy_coupling_distribution(pair, probs).terminating_mass()
        assert mass >= F(k - d - 2, n * k)
        assert mass <= (k + 2 * probs.mass(2) * d) / (n * k)

    checked = 0
    for g in small_graph_corpus():
        for k in (2, 3, 4):
            for pair in neighboring_pairs(g, k, ordered=False):
                if k > pair.graph.degree(pair.v) + 2:
                    for probs in both_vectors:
                        check(pair, probs)
                        checked += 1
    # every criterion-6 pair with k > d + 2, for both vectors
    assert checked == 20190

    for index in (1, 2, 3, 4):
        for d in (2, 4, 6) if index == 1 else (2, 3, 4, 5, 6):
            for k in range(d + 3, 13):
                pair = build_construction(ConstructionSpec(index, d, k))
                for probs in both_vectors:
                    check(pair, probs)


def test_criterion_08_construction_drift_identity(both_vectors):
    # nk * E[one-step distance change] on each construction equals the
    # closed form: minus the number of colors absent from the disagreement
    # vertex's neighborhood, plus (d/2) H(7,3,(3,3),(1,1)) for the paired
    # tree and d H(a+1,2,(a),(1)) for the length-a paths.  Anchor values:
    # H(7,3,(3,3),(1,1)) = 8/3 and H(3,2,(2),(1)) = 5/6 for both vectors.
    for probs in both_vectors:
        assert h_value(probs, 7, 3, (3, 3), (1, 1)) == F(8, 3)
        assert h_value(probs, 3, 2, (2,), (1,)) == F(5, 6)
        for d in (2, 4):
            for k in (d + 3, 2 * d):
                for index in (1, 2, 3, 4):
                    pair = build_construction(ConstructionSpec(index, d, k))
                    n = pair.graph.n
                    lhs = n * k * expected_distance_change(pair, probs)
                    if index == 1:
                        rhs = -(k - d // 2) + F(d, 2) * h_value(
                            probs, 7, 3, (3, 3), (1, 1)
                        )
                    else:
                        a = index
                        rhs = -(k - d) + d * h_value(probs, a + 1, 2, (a,), (1,))
                    assert lhs == rhs


def _seeded_vectors(count: int, length: int = 6, denom: int = 64):
    """Probability vectors satisfying the constructor invariants
    (p_1 = 1, non-increasing, alpha * p_alpha <= 1), seeded for
    reproducibility."""
    rng = random.Random(90210)
    out = []
    for _ in range(count):
        entries = [F(1)]
        for alpha in range(2, length + 1):
            cap = min(entries[-1], F(1, alpha))
            entries.append(cap * F(rng.randint(0, denom), denom))
        out.append(FlipProbabilities(tuple(entries)))
    return out


def test_criterion_09_barrier_witness_grid(both_vectors):
    # At d = 6 and k = ceil((11/6) d) - 1 = 10, no probability vector in a
    # 50-vector grid (the two published vectors plus 48 seeded ones)
    # contracts on every construction: some construction always has
    # nonnegative expected one-step distance change, in exact rationals.
    assert math.ceil(F(11, 6) * 6) - 1 == 10
    pairs = [build_construction(ConstructionSpec(i, 6, 10)) for i in (1, 2, 3, 4)]
    vectors = list(both_vectors) + _seeded_vectors(48)
    assert len(vectors) == 50
    for probs in vectors:
        assert max(expected_distance_change(p, probs) for p in pairs) >= 0


def test_criterion_10_stage_transition_bounds():
    # On the paired tree at d in {2,4,6} with the smallest k above both
    # 1.833 d and d + 2 (k = 5, 8, 11): for every brittle color c, the
    # exact first-step mass into Good(c) is at least 4(k-d-1)/nk; and from
    # every Good(c) state reachable by one non-terminating move, the exact
    # terminating mass is at least (k-d-2)/nk while the mass leaving
    # Good(c) is at most 5/n.
    probs = mixed_vector()
    for d, k in ((2, 5), (4, 8), (6, 11)):
        assert k == max(d + 3, int(F(1833, 1000) * d) + 1)
        pair = build_construction(ConstructionSpec(1, d, k))
        n = pair.graph.n
        bad = [c for c in range(k) if classify_color(pair, c) == StateLabel.BAD]
        assert bad == list(range(2, 2 + d // 2))
        coupled = greedy_coupling_distribution(pair, probs)
        landings = []
        seen = set()
        for move in coupled.moves:
            if move.terminating:
                continue
            sig, tau = move.apply(pair)
            key = (sig.colors, tau.colors)
            if key not in seen:
                seen.add(key)
                landings.append(NeighboringPair(pair.graph, sig, tau))
        for c in bad:
            start = stage_step_masses(pair, c, probs)
            assert start.to_good >= F(4 * (k - d - 1), n * k)
            good_states = 0
            for nxt in landings:
                if classify_color(nxt, c) != StateLabel.GOOD:
                    continue
                good_states += 1
                masses = stage_step_masses(nxt, c, probs)
                assert masses.terminating >= F(k - d - 2, n * k)
                assert masses.leave_good <= F(5, n)
            assert good_states > 0


def test_criterion_11_monte_carlo_contraction(tmp_path):
    # Variable-length coupling on all four constructions at d = 6, k = 11
    # with the mixed-program vector, 1e5 replicas each: the mean distance
    # at the stopping time is below 1 at 95% confidence, and the empirical
    # occupation ratio E[N_bad]/E[N_good] respects the exact gamma bound
    # within its confidence interval.
    for index in (1, 2, 3, 4):
        path = tmp_path / f"gamma-{index}.csv"
        config = ExperimentConfig(
            seed=1000 + index,
            replicas=100_000,
            construction=ConstructionSpec(index, 6, 11),
            probs="mixed",
        )
        report = estimate_gamma_empirical(config, csv_path=str(path))
        assert report.checks["ratio_below_gamma_bound"], f"construction {index}"
        with open(path, newline="") as fh:
            final = [float(row["final_distance"]) for row in csv.DictReader(fh)]
        assert len(final) == 100_000
        summary = MetricSummary.from_values(final)
        assert summary.ci_high < 1, f"construction {index}: {summary}"


def test_criterion_12_mixing_time_arithmetic():
    # The bound calculator reproduces the headline arithmetic exactly for
    # (d, k) = (119, 221), window width W = 2*6 + 1 = 13 and rate
    # 1.833239: twice the product of the two ceilinged factors built from
    # alpha = (k - rate*d)/100.
    lam = F("1.833239")
    alpha = (221 - lam * 119) / 100
    assert alpha > 0
    for n in (2, 10, 50, 1000, 10**4, 10**6):
        expected = 2 * math.ceil(F(26 * 221 * n, 100) / alpha) * math.ceil(
            math.log(n) / float(alpha)
        )
        assert mixing_time_bound(n, 221, 119, lam, 6) == expected
    assert 2 * 6 + 1 == 13
