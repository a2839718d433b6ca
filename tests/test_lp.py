"""Linear programs: block costs, builders, exact solver, mixing bound."""

import decimal
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import simplex_calls

import flipdyn.lp as lp_mod
from flipdyn import (
    InputError,
    alt_vector,
    build_mixed_lp,
    build_tight_lp,
    build_vigoda_lp,
    h_value,
    mixed_vector,
    mixing_time_bound,
    slack_report,
    solve,
    solve_float,
    vigoda_vector,
)
from flipdyn.dynamics import MIXED_VECTOR_VALUES
from flipdyn.lp import (
    LinearConstraint,
    LPInstance,
    extend_assignment,
    g_surrogate,
    write_lp_file,
    write_solution,
)

F = Fraction

# Exact tight sets of the one-step program at lambda = 11/6, frozen from
# the slack analysis; regression-checked below for both optimizers.
ALT_TIGHT = {
    "H/m=1/a=1/b=2/A=2/B=3",
    "H/m=1/a=1/b=3/A=2/B=4",
    "H/m=1/a=1/b=4/A=2/B=5",
    "H/m=1/a=2/b=1/A=3/B=2",
    "H/m=1/a=3/b=1/A=4/B=2",
    "H/m=1/a=4/b=1/A=5/B=2",
    "H/m=2/a=1,1/b=3,3/A=3/B=6",
    "H/m=2/a=1,1/b=3,3/A=3/B=7",
    "H/m=2/a=3,3/b=1,1/A=6/B=3",
    "H/m=2/a=3,3/b=1,1/A=7/B=3",
    "base/p1",
    "cap/1",
    "sur/x/A=4",
    "sur/y/a=1/b=3/br=b",
}
VIGODA_TIGHT = ALT_TIGHT | {
    "H/m=1/a=1/b=5/A=2/B=6",
    "H/m=1/a=5/b=1/A=6/B=2",
    "H/m=2/a=1,1/b=2,2/A=3/B=5",
    "H/m=2/a=2,2/b=1,1/A=5/B=3",
}

MIXED_OPTIMUM = F(402041483, 219306718)
GAMMA_PAPER = F(25597784, 10**6)


class TestHValue:
    def test_anchors(self):
        for probs in (vigoda_vector(), alt_vector()):
            assert h_value(probs, 2, 3, (1,), (2,)) == F(5, 6)
            assert h_value(probs, 7, 3, (3, 3), (1, 1)) == F(8, 3)

    def test_accepts_raw_sequences(self):
        seq = [F(1), F(13, 42), F(1, 6), F(2, 21), F(1, 21), F(1, 84)]
        assert h_value(seq, 7, 3, (3, 3), (1, 1)) == F(8, 3)

    def test_validation(self):
        with pytest.raises(InputError):
            h_value(vigoda_vector(), 2, 2, (), ())
        with pytest.raises(InputError):
            h_value(vigoda_vector(), 2, 2, (1, 1), (1,))

    def test_equals_max_over_branches(self):
        # H resolves each min(q_i, q'_i) to whichever side is smaller, so
        # it must equal the maximum over all sign-pattern branches of the
        # linearized form -- for any entries, not only realizable ones.
        vectors = [vigoda_vector(), alt_vector(), mixed_vector()]
        tuples = [
            ((1,), (2,), 2, 3),
            ((3,), (1,), 4, 2),
            ((2, 2), (1, 1), 5, 3),
            ((1, 1), (3, 3), 3, 7),
            ((0, 2), (1, 1), 3, 3),
            ((3, 3), (1, 1), 7, 3),
        ]
        for probs in vectors:
            for a, b, A, B in tuples:
                i_max = max(range(len(a)), key=lambda i: (a[i], -i))
                j_max = max(range(len(b)), key=lambda i: (b[i], -i))
                pA, pB = probs.mass(A), probs.mass(B)
                base = (A - a[i_max] - 1) * pA + (B - b[j_max] - 1) * pB
                best = None
                for picks in itertools.product((0, 1), repeat=len(a)):
                    val = base
                    for i, pick in enumerate(picks):
                        q = probs.mass(a[i]) - (pA if i == i_max else 0)
                        qp = probs.mass(b[i]) - (pB if i == j_max else 0)
                        val += a[i] * q + b[i] * qp - (q if pick == 0 else qp)
                    best = val if best is None else max(best, val)
                assert h_value(probs, A, B, a, b) == best

    def test_g_surrogate(self):
        v = vigoda_vector()
        assert g_surrogate(v, 1, 3) == 1 + 3 * F(1, 6) - F(1, 6)
        # The y anchor: (1,3) maximizes the surrogate for both paper
        # vectors at value 4/3.
        for probs in (vigoda_vector(), alt_vector()):
            best = max(
                g_surrogate(probs, a, b)
                for a in range(0, 8)
                for b in range(a + 1, 8)
            )
            assert best == F(4, 3)


class TestOneStepProgram:
    def test_builder_validation(self):
        with pytest.raises(InputError):
            build_vigoda_lp(1, 3)
        with pytest.raises(InputError):
            build_vigoda_lp(6, 1)

    def test_constraint_counts_n6(self):
        # Independent enumeration of the program shape at support 6,
        # m* = 3.  Structural rows: the p_1 pin, 5 monotonicity rows,
        # 6 caps, the size-2 own-cluster rows (multisets of {0..6}^2
        # minus the all-zero one), 8 x-surrogate rows (A = 0..7),
        # 21 entry pairs * 2 branches for y, and the closing row.
        inst = build_vigoda_lp(6, 3)
        n_own = 7 * 8 // 2 - 1
        assert len(inst.constraints) == 1 + 5 + 6 + n_own + 8 + 42 + 1
        # Family rows: blocks are size-m multisets of per-neighbor entry
        # pairs (a_i, b_i) over {0..6}^2 with neither side all zero; each
        # block ranges A over [1+max a, min(1+sum a, 7)], B likewise, and
        # splits into 2^m branches.
        expected = 0
        for m in (1, 2):
            for entries in itertools.combinations_with_replacement(
                itertools.product(range(7), repeat=2), m
            ):
                a = tuple(e[0] for e in entries)
                b = tuple(e[1] for e in entries)
                if not any(a) or not any(b):
                    continue
                n_A = min(1 + sum(a), 7) - max(a)
                n_B = min(1 + sum(b), 7) - max(b)
                expected += n_A * n_B * (1 << m)
        got = sum(1 for _ in inst.all_constraints()) - len(inst.constraints)
        assert got == expected == 14300

    def test_paper_vectors_feasible_with_frozen_tight_sets(self):
        lam = F(11, 6)
        for n_max in (6, 7):
            inst = build_vigoda_lp(n_max, 3)
            for probs, frozen, x_anchor in (
                (alt_vector(), ALT_TIGHT, F(287, 1500)),
                (vigoda_vector(), VIGODA_TIGHT, F(4, 21)),
            ):
                assignment = extend_assignment(inst, probs, lam)
                assert assignment["x"] == x_anchor
                assert assignment["y"] == F(4, 3)
                report = slack_report(inst, assignment)
                assert report.feasible
                assert not report.violated
                if n_max == 7:
                    assert set(report.tight) == frozen

    def test_interior_point_has_no_tight_blocks(self):
        # At lambda well above threshold with slack surrogates, no block
        # or surrogate row can bind.
        inst = build_vigoda_lp(6, 3)
        assignment = extend_assignment(inst, vigoda_vector(), F(2))
        assignment["x"] += F(1, 100)
        assignment["y"] += F(1, 100)
        report = slack_report(inst, assignment)
        assert report.feasible
        assert not any(
            lab.startswith("H/") or lab.startswith("sur/") for lab in report.tight
        )

    def test_slack_report_flags_equality_and_bound_rows(self):
        # base/p1 (p_1 = 1) fails on either side of 1; cap/1 (p_1 <= 1)
        # only above it.
        inst = build_vigoda_lp(6, 3)
        for p1, cap_violated in ((F(2), True), (F(1, 2), False)):
            assignment = extend_assignment(inst, vigoda_vector(), F(11, 6))
            assignment["p1"] = p1
            report = slack_report(inst, assignment)
            assert not report.feasible
            assert "base/p1" in report.violated and "base/p1" not in report.tight
            assert report.slacks["base/p1"] == 1 - p1 == report.slacks["cap/1"]
            assert ("cap/1" in report.violated) == cap_violated

    def test_exact_optimum_n6(self):
        sol = solve(build_vigoda_lp(6, 3))
        assert sol.status == "optimal"
        assert sol.objective_value == F(11, 6)
        # Deterministic solver regression: at support 6 the optimizer
        # agrees with the classical vector except in the free tail entry.
        for i, val in enumerate(["1", "13/42", "1/6", "2/21", "1/21", "1/35"], 1):
            assert sol.assignment[f"p{i}"] == F(val)
        assert sol.assignment["x"] == F(1, 4)
        assert sol.assignment["y"] == F(4, 3)

    def test_m_star_two_gives_15_8(self):
        # With only single-entry blocks the closing row trades off
        # differently and the program relaxes to exactly 15/8.
        sol = solve(build_vigoda_lp(6, 2))
        assert sol.objective_value == F(15, 8)

    def test_round_stats(self):
        # One record per round: rows handed to the simplex, float
        # candidates, exactly confirmed violations and the pivot counts.
        with simplex_calls() as calls:
            sol = solve(build_vigoda_lp(6, 2))
        stats = sol.round_stats
        assert len(stats) == sol.rounds == len(calls) == 2
        assert stats[-1].active_rows == sol.active_constraints
        assert [(r.active_rows, r.phase1_pivots, r.phase2_pivots) for r in stats] == [
            (len(c["args"][1]), c["result"].phase1_pivots, c["result"].phase2_pivots)
            for c in calls
        ]
        assert stats[0].candidates >= stats[0].confirmed > 0
        assert stats[-1].confirmed == 0

    def test_infeasible_program_stops_in_its_first_round(self):
        # Every variable is >= 0, so x <= -1 has no solution.
        neg = LinearConstraint("neg", (("x", F(1)),), "<=", F(-1))
        inst = LPInstance(name="infeasible", variables=("lam", "x"), constraints=(neg,),
                          families=(), objective_var="lam")
        sol = solve(inst)
        assert (sol.status, sol.objective_value, sol.assignment) == ("infeasible", None, {})
        assert sol.rounds == 1 and sol.active_constraints == 1
        assert [(r.active_rows, r.candidates, r.confirmed) for r in sol.round_stats] == [
            (1, 0, 0)
        ]

    def test_m_star_four_stays_11_6(self):
        # Adding all size-3 blocks does not move the optimum: the
        # brittle size-2 blocks stay the binding ones.
        sol = solve(build_vigoda_lp(6, 4))
        assert sol.objective_value == F(11, 6)

    def test_float_cross_check(self):
        inst = build_vigoda_lp(6, 3)
        status, value = solve_float(inst)
        assert status == "optimal"
        assert abs(value - 11 / 6) <= 1e-9

    def test_without_unknown_prefix(self):
        with pytest.raises(InputError):
            build_vigoda_lp(6, 3).without("nonexistent/")


class TestTightProgram:
    def test_value_and_vector(self):
        sol = solve(build_tight_lp())
        assert sol.objective_value == F(11, 6)
        expect = {
            "p1": F(1),
            "p2": F(7, 12),
            "p3": F(1, 6),
            "p4": F(1, 6),
            "p5": F(1, 36),
            "p6": F(0),
            "p7": F(0),
        }
        for var, val in expect.items():
            assert sol.assignment[var] == val

    def test_dropping_p6_row_keeps_value(self):
        reduced = build_tight_lp().without("tight/4")
        n_all = sum(1 for _ in build_tight_lp().all_constraints())
        n_red = sum(1 for _ in reduced.all_constraints())
        assert n_red < n_all
        assert solve(reduced).objective_value == F(11, 6)


class TestMixedProgram:
    def test_builder_validation(self):
        with pytest.raises(InputError):
            build_mixed_lp(3, 3, GAMMA_PAPER)
        with pytest.raises(InputError):
            build_mixed_lp(6, 2, GAMMA_PAPER)
        with pytest.raises(InputError):
            build_mixed_lp(6, 3, F(0))

    def test_threshold_and_frozen_vector(self):
        sol = solve(build_mixed_lp(6, 3, GAMMA_PAPER, cap3=True))
        assert sol.status == "optimal"
        assert sol.objective_value == MIXED_OPTIMUM
        assert sol.objective_value < F("1.833239")
        # The frozen preset must equal the solver's vector exactly, so
        # the two can never drift apart.
        for i, frozen in enumerate(MIXED_VECTOR_VALUES, 1):
            assert sol.assignment[f"p{i}"] == F(frozen)
        assert sol.assignment["lam_bad"] == F(402103983, 219306718)
        assert sol.assignment["lam_good"] == F(800883243, 438613436)
        assert sol.assignment["lam_sing"] == MIXED_OPTIMUM

    def test_gamma_grid_monotone(self):
        # Heavier gamma weakens the bad-block discount; the optimum
        # climbs toward 11/6 from below but never reaches it.
        frozen = {
            1: F(240, 131),
            10**9: F(121000000119, 66000000065),
        }
        values = []
        for gamma, expect in frozen.items():
            obj = solve(build_mixed_lp(6, 3, F(gamma), cap3=True)).objective_value
            assert obj == expect
            values.append(obj)
        assert values[0] < MIXED_OPTIMUM < values[1] < F(11, 6)
        # The huge-gamma value sits within 1e-6 below 11/6.
        assert F(11, 6) - values[1] < F(1, 10**6)


EXACT_PROGRAMS = {
    "vigoda6": (lambda: build_vigoda_lp(6, 3), F(11, 6)),
    "mixed6": (lambda: build_mixed_lp(6, 3, GAMMA_PAPER, cap3=True), MIXED_OPTIMUM),
}


class TestIntegersDecide:
    """solve takes every round's violations from the integer slacks; the
    float scan only ranks them."""

    @pytest.mark.parametrize("name", EXACT_PROGRAMS)
    def test_solve_calls_no_reference(self, monkeypatch, name):
        def reference(*args):
            raise AssertionError("solve evaluated a tuple through the reference")

        monkeypatch.setattr(lp_mod.HFamily, "tuple_slack", reference)
        monkeypatch.setattr(lp_mod, "h_value", reference)
        build, value = EXACT_PROGRAMS[name]
        assert solve(build()).objective_value == value

    @pytest.mark.parametrize("name", EXACT_PROGRAMS)
    def test_exact_violations_alone_reach_the_optimum(self, monkeypatch, name):
        # With no float candidates each round adds the first exact
        # violations in tuple order, and only the exact pass can stop.
        monkeypatch.setattr(lp_mod.HFamily, "scan", lambda self, pf, lam_of, tol: [])
        build, value = EXACT_PROGRAMS[name]
        sol = solve(build())
        assert (sol.objective_value, sol.rounds) == (value, 5)
        assert [r.candidates for r in sol.round_stats] == [0] * 5
        assert all(r.confirmed > 0 for r in sol.round_stats[:-1])
        assert sol.round_stats[-1].confirmed == 0


class TestExport:
    def test_lp_file_and_sidecar(self, tmp_path):
        inst = build_vigoda_lp(4, 3)
        path = str(tmp_path / "prog.lp")
        write_lp_file(inst, path)
        text = Path(path).read_text()
        assert text.startswith("\\ one-step-n4-m3") or "Minimize" in text
        assert "base_p1" in text
        side = json.loads(Path(path + ".json").read_text())
        assert side["name"] == inst.name
        assert side["objective"] == "lam"
        # Every serialized coefficient re-parses to the exact original.
        by_label = {c.label: c for c in inst.all_constraints()}
        assert len(side["constraints"]) == len(by_label)
        for row in side["constraints"][:50]:
            orig = by_label[row["label"]]
            assert {v: F(s) for v, s in row["coeffs"].items()} == dict(orig.coeffs)
            assert F(row["rhs"]) == orig.rhs

    def test_solution_file(self, tmp_path):
        sol = solve(build_tight_lp())
        path = str(tmp_path / "sol.json")
        write_solution(sol, path)
        data = json.loads(Path(path).read_text())
        assert data["status"] == "optimal"
        assert F(data["objective"]) == F(11, 6)
        assert F(data["assignment"]["p2"]) == F(7, 12)


class TestMixingTimeBound:
    LAM = F("1.833239")

    def test_validation(self):
        with pytest.raises(InputError):
            mixing_time_bound(1, 221, 119, self.LAM, 6)
        with pytest.raises(InputError):
            mixing_time_bound(100, 121, 119, self.LAM, 6)  # k <= d + 2
        with pytest.raises(InputError):
            mixing_time_bound(100, 218, 119, self.LAM, 6)  # k <= lam * d

    def test_formula_identity(self):
        # d = 119, k = 221 makes beta = nk/(k-d-2) exactly 2.21 n, and
        # support 6 makes the excursion width 13; the bound must equal
        # 2 * ceil(26 * 2.21 n / alpha) * ceil(ln n / alpha) with
        # alpha = (k - lam d)/(k - d - 2), recomputed here from scratch.
        alpha = (221 - self.LAM * 119) / (221 - 119 - 2)
        for n in (50, 100, 1000, 10**6):
            first = math.ceil(F(26 * 221 * n, 100) / alpha)
            second = math.ceil(math.log(n) / float(alpha))
            expected = 2 * first * second
            assert mixing_time_bound(n, 221, 119, self.LAM, 6) == expected

    def test_ceiling_just_above_an_integer(self):
        # This rate puts ln(1000)/alpha about 1e-12 above 243, where a
        # float ratio cannot tell it from 243 itself; the ceiling is 244.
        lam = F("1.833254641633011348")
        alpha = (221 - lam * 119) / 100
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            excess = decimal.Decimal(1000).ln() * alpha.denominator / alpha.numerator - 243
        assert decimal.Decimal("1e-13") < excess < decimal.Decimal("1e-11")
        assert abs(math.log(1000) / float(alpha) - 243) < 1e-9
        first = math.ceil(F(26 * 221 * 1000, 100) / alpha)
        assert mixing_time_bound(1000, 221, 119, lam, 6) == 2 * first * 244

    def test_monotone_in_n(self):
        vals = [mixing_time_bound(n, 221, 119, self.LAM, 6) for n in range(2, 400, 7)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))
