"""The integer simplex against the dense rational oracle.

tests/reference_simplex.py is the earlier dense Fraction solver.  Both
apply Bland's rule to the same column layout, so on every program they
must agree on more than the optimum: the status, the assignment, the
final basis, the pivot counts and every single pivot.
"""

from __future__ import annotations

import collections
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flipdyn.lp as lp_mod
import reference_simplex
from conftest import simplex_calls
from flipdyn import InputError, build_tight_lp, build_vigoda_lp, solve
import flipdyn.simplex as simplex
from flipdyn.simplex import solve_simplex

F = Fraction

# Zero is drawn often so that degenerate vertices and ratio-test ties are common.
SMALL = st.one_of(st.just(0), st.integers(-3, 3))


@st.composite
def small_programs(draw):
    """(variables, constraints, objective) with <= 8 variables and <= 12 rows.

    Coefficients are integers in [-3, 3], each row divided by a drawn
    denominator in 1..3; relations mix <= and ==.  A row's rhs is drawn
    from [-3, 3] too, or, in programs anchored at a drawn point x0 >= 0,
    set to a.x0 for == and a.x0 + 0..2 for <=, so that about half the
    programs are feasible and reach phase 2.
    """
    n = draw(st.integers(1, 8))
    variables = [f"v{i}" for i in range(n)]
    x0 = draw(st.one_of(st.none(), st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    constraints = []
    for _ in range(draw(st.integers(0, 12))):
        den = draw(st.integers(1, 3))
        used = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
        coeffs = {variables[j]: F(draw(SMALL), den) for j in used}
        rel = draw(st.sampled_from(["<=", "=="]))
        if x0 is None:
            rhs = F(draw(SMALL), den)
        else:
            rhs = sum((c * x0[j] for j, c in zip(used, coeffs.values())), F(0))
            if rel == "<=":
                rhs += draw(st.integers(0, 2))
        constraints.append((coeffs, rel, rhs))
        if draw(st.integers(0, 5)) == 0:
            # a redundant copy of the row, scaled
            k = draw(st.integers(1, 2))
            constraints.append(({v: k * c for v, c in coeffs.items()}, rel, k * rhs))
    used = draw(st.lists(st.sampled_from(variables), max_size=n, unique=True))
    objective = {v: F(draw(SMALL)) for v in used}
    return variables, constraints, objective


def solve_traced(variables, constraints, objective):
    """The integer solver's result and its pivots, through lp's entry point."""
    with simplex_calls() as calls:
        lp_mod.solve_simplex(variables, constraints, objective)
    return calls[0]["result"], calls[0]["pivots"]


def test_matches_reference_on_small_degenerate_programs():
    seen = collections.Counter()

    @settings(max_examples=400)
    @given(prog=small_programs())
    def check(prog):
        variables, constraints, objective = prog
        trace: list[tuple[int, int]] = []
        expected = reference_simplex.solve_simplex(variables, constraints, objective,
                                                   trace=trace)
        got, pivots = solve_traced(variables, constraints, objective)
        assert got == expected
        assert pivots == trace
        seen[got.status] += 1
        # an artificial still basic at the optimum marks a redundant == row
        art_start = len(variables) + sum(1 for _, rel, _ in constraints if rel == "<=")
        if got.status == "optimal" and any(b >= art_start for b in got.basis):
            seen["redundant"] += 1
        if got.phase1_pivots and got.phase2_pivots:
            seen["both phases"] += 1

    check()
    for outcome in ("optimal", "infeasible", "unbounded", "redundant", "both phases"):
        assert seen[outcome] >= 10, seen


# Positive factors up to 2**70, about uniform in their bit length.
FACTORS = st.integers(0, 69).flatmap(lambda b: st.integers(1 << b, 2 << b))


@st.composite
def scaled_programs(draw):
    """small_programs with every row, its rhs and the objective multiplied
    by a drawn factor, so that some tableaus start beyond int64's bound and
    others cross it partway."""
    variables, constraints, objective = draw(small_programs())
    scaled = []
    for coeffs, rel, rhs in constraints:
        f = draw(FACTORS)
        scaled.append(({v: f * c for v, c in coeffs.items()}, rel, f * rhs))
    f = draw(FACTORS)
    return variables, scaled, {v: f * c for v, c in objective.items()}


def test_matches_reference_on_large_coefficients(pivot_dtypes):
    seen = collections.Counter()

    @settings(max_examples=300)
    @given(prog=scaled_programs())
    def check(prog):
        variables, constraints, objective = prog
        trace: list[tuple[int, int]] = []
        expected = reference_simplex.solve_simplex(variables, constraints, objective,
                                                   trace=trace)
        pivot_dtypes.clear()
        got, pivots = solve_traced(variables, constraints, objective)
        assert got == expected
        assert pivots == trace
        if pivot_dtypes:
            first, last = pivot_dtypes[0][0], pivot_dtypes[-1][1]
            seen["python ints" if first == object else
                 "switched" if last == object else "int64"] += 1

    check()
    for path in ("int64", "switched", "python ints"):
        assert seen[path] >= 10, seen


def test_rows_stay_reduced(reduced_rows):
    # the fixture checks every row after every pivot, int64 or Python ints
    @settings(max_examples=300)
    @given(prog=st.one_of(small_programs(), scaled_programs()))
    def check(prog):
        solve_simplex(*prog)

    check()
    assert {np.dtype(np.int64), np.dtype(object)} <= set(reduced_rows)


def one_pass_bound(block, s, t, prow) -> bool:
    top = float(max(prow.max(), -prow.min()))
    return (float(max(block.max(), -block.min())) * float(s.max())
            + float(max(t.max(), -t.min())) * top) >= simplex._INT64_BOUND


def per_row_bound(block, s, t, prow) -> bool:
    """The overflow rule the one-pass bound must not change: does some
    updated row's own float bound reach _INT64_BOUND?"""
    top = float(max(prow.max(), -prow.min()))
    return bool((np.maximum(block.max(axis=1), -block.min(axis=1)) * s.astype(float)
                 + np.abs(t) * top).max() >= simplex._INT64_BOUND)


@pytest.mark.parametrize("rhs, tiers, dtypes", [
    # x enters on the row x >= 1, written with coefficient 2**40, so the
    # pivot multiplies the row -3x <= rhs by s = 2**40.  With rhs 1 that
    # row's update stays near 2**42 and the cost row's near 2**41, while
    # the one-pass bound pairs the cost row's 2**40 with that s.
    (1, [(True, False), (False, False)], [(np.int64, np.int64)] * 2),
    # rhs 2**30 takes the row's own update to 2**70
    (2**30, [(True, True)], [(np.int64, object), (object, object)]),
], ids=["one-pass-only", "both"])
def test_overflow_guard_tiers(rhs, tiers, dtypes, pivot_dtypes, monkeypatch):
    program = (["x", "y"],
               [({"x": F(-3)}, "<=", F(rhs)), ({"x": F(-2**40)}, "<=", F(-2**40)),
                ({"x": F(1), "y": F(1)}, "<=", F(3))],
               {"x": F(1), "y": F(-1)})
    guard, seen = simplex._may_overflow, []

    def spied(*args):
        seen.append((one_pass_bound(*args), per_row_bound(*args)))
        return guard(*args)

    monkeypatch.setattr(simplex, "_may_overflow", spied)
    got = solve_simplex(*program)
    assert (got.status, got.assignment) == ("optimal", {"x": 1, "y": 2})
    assert seen == tiers
    assert pivot_dtypes == [tuple(map(np.dtype, d)) for d in dtypes]
    # the per-row rule alone switches at the same pivots
    by_rule = list(pivot_dtypes)
    pivot_dtypes.clear()
    monkeypatch.setattr(simplex, "_may_overflow", per_row_bound)
    assert solve_simplex(*program) == got
    assert pivot_dtypes == by_rule


@pytest.mark.parametrize("build", [build_tight_lp, lambda: build_vigoda_lp(6, 2)],
                         ids=["tight", "vigoda-n6-m2"])
def test_replays_lp_solve_calls(build):
    with simplex_calls() as calls:
        solve(build())
    assert calls
    for call in calls:
        trace: list[tuple[int, int]] = []
        assert reference_simplex.solve_simplex(*call["args"], trace=trace) == call["result"]
        assert trace == call["pivots"]


def test_phase_one_lets_an_artificial_reenter():
    # Bland's rule in phase 1 ranges over every column, the artificials
    # included: artificial 5 leaves on the first pivot and enters again on
    # the third.  About 1% of random small programs take such a pivot.
    constraints = [
        ({"v0": F(-1)}, "==", F(0)),
        ({"v0": F(-2), "v1": F(-2)}, "==", F(-3)),
        ({"v0": F(-1), "v1": F(2)}, "==", F(2)),
        ({"v0": F(-2)}, "==", F(-2)),
        ({"v1": F(1)}, "==", F(2)),
    ]
    objective = {"v0": F(-2), "v1": F(-3)}
    got, pivots = solve_traced(["v0", "v1"], constraints, objective)
    assert pivots == [(0, 5), (1, 3), (5, 4)]
    assert (got.status, got.phase1_pivots, got.basis) == ("infeasible", 3, (2, 1, 5, 0, 6))
    trace: list[tuple[int, int]] = []
    assert reference_simplex.solve_simplex(["v0", "v1"], constraints, objective,
                                           trace=trace) == got
    assert trace == pivots


def test_no_constraints():
    assert solve_simplex(["a"], [], {"a": F(-1)}).status == "unbounded"
    res = solve_simplex(["a", "b"], [], {"a": F(1)})
    assert (res.status, res.objective, res.assignment) == ("optimal", 0, {"a": 0, "b": 0})


def test_fractional_input_stays_exact():
    # minimize -a - b with a/3 + b/7 <= 1/2 and a <= 1/5: b is the cheaper
    # use of the first row, so a = 0 and b = 7/2
    res = solve_simplex(
        ["a", "b"],
        [({"a": F(1, 3), "b": F(1, 7)}, "<=", F(1, 2)), ({"a": F(1)}, "<=", F(1, 5))],
        {"a": F(-1), "b": F(-1)},
    )
    assert res.status == "optimal"
    assert res.assignment == {"a": F(0), "b": F(7, 2)}
    assert res.objective == F(-7, 2)


def test_input_errors():
    with pytest.raises(InputError):
        solve_simplex(["a", "a"], [], {})
    with pytest.raises(InputError):
        solve_simplex(["a"], [({"a": F(1)}, ">=", F(0))], {})
    with pytest.raises(InputError):
        solve_simplex(["a"], [({"b": F(1)}, "<=", F(0))], {})
    with pytest.raises(InputError):
        solve_simplex(["a"], [], {"b": F(1)})
