"""The H families' tuple table and branch rows against the per-tuple references.

HFamily.scan must return exactly what the loop in
tests/reference_families.py returns, floats compared with ==, and
HFamily.scaled_slacks must give every tuple's HFamily.tuple_slack
exactly: in int64 when the magnitudes fit, in Python ints when the
denominators are too large for that.  HFamily.branch_constraints must
linearize the same H: at every tuple the largest lhs - rhs over its rows
is minus tuple_slack.
"""

from __future__ import annotations

import collections
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flipdyn.lp as lp_mod
import reference_families
from flipdyn import (alt_vector, build_mixed_lp, build_tight_lp, build_vigoda_lp,
                     mixed_vector, slack_report, solve, vigoda_vector)
from flipdyn.coupling import _argmax_lowest
from flipdyn.lp import HFamily, extend_assignment
from reference_families import lhs_value, slack

F = Fraction

LAM_VARS = ("lam", "lam_sing", "lam_bad", "lam_good")
LAM_MAPS = {
    "vigoda": build_vigoda_lp(2, 2).families[0].lam_var_for,
    "mixed": build_mixed_lp(4, 3).families[0].lam_var_for,
}


@st.composite
def family_points(draw, max_n=(7, 7, 4)):
    """(family, assignment, big) for m = 1..3 with supports n <= max_n[m - 1].

    p_i is a rational in [0, 1/i] and every lam one in [0, 3].  In big
    cases one p has a denominator that d above 2**40 divides and every lam
    has denominator d + 1, so the common denominator exceeds 2**80; the
    other cases use denominators up to 50 (times i for p_i).
    """
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n[m - 1]))
    fam = HFamily(m, n, LAM_MAPS[draw(st.sampled_from(sorted(LAM_MAPS)))])
    big = draw(st.booleans())

    def value(den: int, top: int) -> Fraction:
        return F(draw(st.integers(0, top * den)), den)

    if big:
        den = draw(st.integers(2**40 + 1, 2**41))
        p = [value(draw(st.sampled_from([den, den + 7, 10**13])), 1) / i
             for i in range(1, n + 1)]
        j = draw(st.integers(0, n - 1))
        p[j] = F(den - 1, den * (j + 1))
        lams = [F(draw(st.integers(0, 2)) * (den + 1) + 1, den + 1) for _ in LAM_VARS]
    else:
        p = [value(draw(st.integers(1, 50)), 1) / i for i in range(1, n + 1)]
        lams = [value(draw(st.integers(1, 50)), 3) for _ in LAM_VARS]
    assignment = {f"p{i}": x for i, x in enumerate(p, 1)}
    assignment.update(zip(LAM_VARS, lams))
    return fam, assignment, big


def test_scan_and_integer_slacks_match_the_references():
    seen = collections.Counter()

    @settings(max_examples=50)
    @given(point=family_points(), tol=st.sampled_from([1e-12, 0.0, -1.0, 1.0]))
    def check(point, tol):
        fam, assignment, big = point
        pf = [0.0] + [float(assignment[f"p{i}"]) for i in range(1, fam.n_max + 1)] + [0.0]
        lam_of = {v: float(assignment[v]) for v in LAM_VARS}
        got = fam.scan(pf, lam_of, tol)
        assert got == reference_families.scan(fam, pf, lam_of, tol)
        assert all(type(v) is float for v, _ in got)

        L, scaled = fam.scaled_slacks(assignment)
        assert scaled.dtype == (object if big else np.int64)
        assert len(scaled) == sum(1 for _ in fam.tuples())
        for t, s in zip(fam.tuples(), scaled.tolist()):
            assert Fraction(s, L) == fam.tuple_slack(*t, assignment)
        seen[f"m={fam.m}"] += 1
        seen["big" if big else "int64"] += 1
        seen["some violated" if (scaled < 0).any() else "none violated"] += 1
        seen["scan hits" if got else "scan empty"] += 1

    check()
    for outcome in ("m=1", "m=2", "m=3", "big", "int64", "some violated",
                    "none violated", "scan hits", "scan empty"):
        assert seen[outcome] >= 5, seen


def test_branch_rows_linearize_h():
    seen = collections.Counter()

    @settings(max_examples=40)
    @given(point=family_points(max_n=(7, 4, 3)))
    def check(point):
        fam, assignment, big = point
        for t in fam.tuples():
            rows = fam.branch_constraints(*t)
            assert [c.label for c in rows] == [
                f"{fam.label_for(*t)}/br={''.join(br)}"
                for br in itertools.product("ab", repeat=fam.m)
            ]
            worst = max(lhs_value(c, assignment) - c.rhs for c in rows)
            assert worst == -fam.tuple_slack(*t, assignment)
        seen[f"m={fam.m}"] += 1
        seen["big" if big else "small"] += 1

    check()
    for outcome in ("m=1", "m=2", "m=3", "big", "small"):
        assert seen[outcome] >= 5, seen


def test_table_is_cached_and_follows_tuples():
    fam = build_mixed_lp(6, 3).families[1]
    table = fam.table
    assert fam.table is table
    assert table.a.dtype == np.int8 and table.a.shape == (len(table.A), 2)
    assert table.lam_names == ("lam_good", "lam_bad")
    assert [table.tuple_at(k) for k in range(len(table.A))] == list(fam.tuples())
    assert [table.lam_names[k] for k in table.lam.tolist()] == [
        fam.lam_var_for(*t) for t in fam.tuples()
    ]


def test_scan_of_the_size_three_family():
    # The 77,562-tuple family that build_vigoda_lp(6, 4) scans.
    fam = build_vigoda_lp(6, 4).families[2]
    probs = vigoda_vector()
    pf = [0.0] + [float(probs.mass(i)) for i in range(1, 7)] + [0.0]
    for lam in (11 / 6, 1.5):
        got = fam.scan(pf, {"lam": lam}, 1e-12)
        assert got == reference_families.scan(fam, pf, {"lam": lam}, 1e-12)
    assert got


def picked_by_rows(rows, assignment) -> str:
    """The branch of the first of a tuple's rows (branch_constraints, in
    product("ab") order) with the largest lhs - rhs: the row solve added
    before it read max_branch."""
    best = max(rows, key=lambda c: lhs_value(c, assignment) - c.rhs)
    return best.label.rsplit("/br=", 1)[1]


def has_tie(pv, t) -> bool:
    """Whether q_i = q'_i for some i of tuple t: two rows then tie."""
    a, b, A, B = t
    i_max, j_max = _argmax_lowest(a), _argmax_lowest(b)
    return any(pv[x] - pv[A] * (i == i_max) == pv[y] - pv[B] * (i == j_max)
               for i, (x, y) in enumerate(zip(a, b)))


def branch_points(inst, assignment):
    """max_branch's p vector for inst at assignment, as Fractions and as
    integers over their common denominator."""
    pv = [F(0)] + [assignment.get(f"p{i}", F(0)) for i in range(1, inst.meta["n_max"] + 1)]
    pv.append(F(0))
    _, nums = lp_mod._over_lcm(pv)
    return pv, nums


@pytest.mark.parametrize("build", [lambda: build_vigoda_lp(7, 3), lambda: build_mixed_lp(6, 3)],
                         ids=["vigoda-n7", "mixed-n6"])
def test_max_branch_is_the_first_maximizing_row(build):
    # at the program's optimum and at the three preset vectors, every tuple
    inst = build()
    points = [solve(inst).assignment] + [
        extend_assignment(inst, probs, F(11, 6))
        for probs in (vigoda_vector(), alt_vector(), mixed_vector())]
    pvs = [branch_points(inst, assignment) for assignment in points]
    ties = 0
    for fam in inst.families:
        for t in fam.tuples():
            rows = fam.branch_constraints(*t)
            for assignment, (fractions, integers) in zip(points, pvs):
                want = picked_by_rows(rows, assignment)
                assert lp_mod.max_branch(integers, *t) == want == lp_mod.max_branch(fractions, *t)
                ties += has_tie(fractions, t)
    assert ties


@st.composite
def tied_points(draw):
    """(family, assignment) for m = 1..3, every p drawn from {0, 1/4, 1/2},
    so that q_i = q'_i is frequent, and the lam variables from [0, 3]."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, (7, 4, 3)[m - 1]))
    fam = HFamily(m, n, LAM_MAPS[draw(st.sampled_from(sorted(LAM_MAPS)))])
    assignment = {f"p{i}": draw(st.sampled_from([F(0), F(1, 4), F(1, 2)]))
                  for i in range(1, n + 1)}
    assignment.update((v, F(draw(st.integers(0, 12)), 4)) for v in LAM_VARS)
    return fam, assignment


def test_max_branch_breaks_ties_like_the_rows():
    seen = collections.Counter()

    @settings(max_examples=40)
    @given(point=tied_points())
    def check(point):
        fam, assignment = point
        pv = [F(0)] + [assignment[f"p{i}"] for i in range(1, fam.n_max + 1)] + [F(0)]
        for t in fam.tuples():
            assert lp_mod.max_branch(pv, *t) == picked_by_rows(fam.branch_constraints(*t),
                                                                assignment)
            seen["ties"] += has_tie(pv, t)
            seen["tuples"] += 1
        seen[f"m={fam.m}"] += 1

    check()
    assert seen["ties"] >= 1000 and seen["tuples"] > seen["ties"], seen
    for m in (1, 2, 3):
        assert seen[f"m={m}"] >= 5, seen


BUILDERS = {
    "tight": build_tight_lp,
    "tight-without-tight/4": lambda: build_tight_lp().without("tight/4"),
    "vigoda-n3-m3": lambda: build_vigoda_lp(3, 3),
    "vigoda-n4-m4": lambda: build_vigoda_lp(4, 4),
    "mixed-n4-m3": lambda: build_mixed_lp(4, 3),
    "mixed-n4-m4-gamma7/3": lambda: build_mixed_lp(4, 4, F(7, 3), cap3=False),
}


def assignments(variables):
    """Every variable, or most of them (a missing one reads 0), a rational
    of either sign with a denominator up to 60, or in big cases above 2**40."""
    dens = st.one_of(st.integers(1, 60), st.integers(2**40, 2**41))
    value = st.builds(F, st.integers(-100, 100), dens)
    return st.fixed_dictionaries({}, optional={v: value for v in variables})


@pytest.mark.parametrize("name", BUILDERS)
def test_integer_slacks_match_the_fraction_slacks(name):
    # the integer form each row keeps, over one common denominator of the
    # assignment, gives every structural row's exact slack: in the prune
    # of solve (the added branch rows, checked here on the small families)
    # and in slack_report
    inst = BUILDERS[name]()
    rows = list(inst.constraints)
    if name in ("tight", "vigoda-n3-m3", "mixed-n4-m3"):
        rows = list(inst.all_constraints())
    seen = collections.Counter()

    @settings(max_examples=15)
    @given(assignment=assignments(inst.variables))
    def check(assignment):
        D, X = lp_mod._scaled_assignment(assignment)
        for c in rows:
            want = slack(c, assignment)
            assert F(*lp_mod._slack_over(c, D, X)) == want
            seen["negative" if want < 0 else "zero" if want == 0 else "positive"] += 1
        report = slack_report(inst, assignment)
        for c in inst.constraints:
            assert report.slacks[c.label] == slack(c, assignment)

    check()
    for outcome in ("negative", "zero", "positive"):
        assert seen[outcome] >= 5, seen
