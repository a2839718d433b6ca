"""Exact two-phase primal simplex on a short integer tableau.

Small implementation for the linear programs in this package: all
variables are nonnegative, constraints are <= or ==, and the objective is
minimized.  A row with a negative rhs is negated first, so every rhs is
nonnegative and such a "<=" row becomes ">=".  The column layout is
structural | slack/surplus | artificial: one slack (+1) or surplus (-1)
per inequality row and one artificial per ">=" or "==" row, each in row
order.  The starting basis holds a row's artificial if it has one and its
slack otherwise.

The input rows are read once per row, not once per solve: a row's integer
form (its numerators and rhs over one positive denominator, negated when
the rhs is negative, keyed by variable name) is kept on the Row that
carries it, so a caller that passes the same Row to every solve, as
lp.solve does across its rounds, derives it once.  A plain (coeffs,
relation, rhs) triple takes the same path through a throwaway Row.

The tableau is short (Tucker's form): one numpy row per constraint that
holds only the nonbasic columns, then the rhs, then the row's positive
denominator.  The basic column of a row is implicit, with the value of
the denominator, and every other basic column is 0 in it.  `cols` names
the nonbasic column at each position; a pivot swaps the entering column
id for the leaving one at that position.  All entries are integer
numerators over the row's denominator, and after every update a row is
divided by the gcd of its entries and its denominator, so each row is the
unique reduced form of its rational row.  The reduced-cost row is the
last row and has the same form.  It is built once per phase from the
cost vector and the basis, then updated with the pivot row on every
pivot like any other row.

A pivot updates the tableau in place, in one form: row i becomes
row_i * s_i - t_i * prow, where c_i is its entry in the pivot column,
pden the pivot row's, s_i = pden / gcd(c_i, pden) and t_i = c_i /
gcd(c_i, pden).  A row with c_i = 0, the pivot row included, has s_i = 1
and t_i = 0 and is left as it is.  Only the rows with s_i != 1 are
scaled (none when pden divides every c_i), and t * prow is then
subtracted on prow's nonzero columns, for every row at once.

Only a factor of D, the pivot row's denominator before the pivot (old_den
in _pivot), can divide an updated row.  In the long tableau, with every
column, row i != r becomes s_i R_i - t_i R_r, and it holds -t_i D at the
leaving column, where R_i is 0 and R_r is D.  A prime p that divides the
new row divides neither s_i nor t_i: s_i and t_i are coprime, so if p
divided s_i it would divide t_i R_r but not t_i, hence all of R_r, and if
it divided t_i it would divide all of R_i, and both rows were reduced.  So
p^k divides t_i D only if p^k divides D: the new row's gcd divides D, and
it divides the row's rhs and den too.  When D is 1 no row can need
dividing and the gcd pass is skipped (two pivots in three on the
programs of lp); otherwise only the updated rows where
gcd(rhs, den, D) != 1 take the full gcd.  The reduced-cost row is reduced
and 0 at the leaving column too, so the same holds for it.

The tableau is int64 while that is exact.  Before each update a float64
bound max(|row|, den) * s + |t| * max(|prow|, pden) is compared with
_INT64_BOUND (2**61, a margin of 4 below int64's range, which float
rounding cannot cross); if any row could reach it, the tableau turns into
dtype=object (Python ints) in place and the same update runs on it.  The
guard, _may_overflow(block, s, t, prow), is given the whole tableau as
the block with the whole columns s and t; a row the pivot leaves alone
bounds itself by its own largest entry, which an int64 tableau keeps
below 2**61, so it decides nothing (short of float rounding lifting an
entry within 2**7 of 2**61 to 2**61, which turns the tableau one pivot
early and changes no value).  One bound over the whole block, max|block|
* max s + max|t| * max|prow|, is computed first; it is never below the
per-row bound, so only when it reaches _INT64_BOUND does the per-row
bound run, and the tableau turns at the same pivots either way.  A
program whose input already reaches the bound starts in Python ints.
Fractions appear only when reading the input and in the returned
assignment, and no float decides a pivot, so the optimum is exact.

Bland's rule picks both the entering column (the lowest index with a
negative reduced cost, one masked argmin over `cols`) and the leaving row
(the minimum ratio, ties to the lowest basic column), so the method
terminates without cycling, and every pivot is the one a dense rational
tableau with the same rule takes.  Most pivots here are degenerate: when
a row with a positive pivot-column entry has rhs 0, the minimum ratio is
0 and the leaving row is the one of those rows with the lowest basic
column.  Only the other pivots compare ratios, by cross-multiplying
Python ints.  Phase 1 minimizes the sum of the artificials, then pivots
each artificial still basic out of its row on the row's first nonzero
non-artificial column; a row with no such column is redundant and keeps
its artificial basic at zero.  Phase 2 never lets an artificial enter.

This is not a general-purpose LP code: problem sizes stay in the hundreds
of rows because the callers do constraint generation and prune inactive
rows between solves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError

ZERO = Fraction(0)

# Entries and every float bound on an update stay below this while the
# tableau is int64.
_INT64_BOUND = 2**61


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Optional[Fraction]
    assignment: dict[str, Fraction]
    phase1_pivots: int = 0  # includes pivoting the artificials out
    phase2_pivots: int = 0
    basis: tuple[int, ...] = ()  # basic column of each row when the solve stopped


@dataclass
class _Tableau:
    """Rows [nonbasic numerators | rhs | den], the reduced costs last.

    a is int64 until an update could leave int64's range, then object.
    """

    a: np.ndarray


def _integer_row(values: dict) -> tuple[dict, int]:
    """Rationals as nonzero integer numerators over their common denominator."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return {j: v.numerator * (den // v.denominator) for j, v in values.items() if v}, den


class _Form(NamedTuple):
    """A constraint row in integers: nums and rhs over den, all negated
    when the rhs was negative (negated), so that rhs >= 0."""

    nums: dict[str, int]  # the nonzero coefficients, by variable name
    rhs: int
    den: int
    negated: bool
    top: int  # the largest magnitude among nums, rhs and den


class Row(tuple):
    """A (coeffs, relation, rhs) constraint that keeps its integer form.

    form is derived from the row's rationals on first read and kept.  It
    is keyed by variable name, not column, so one Row serves programs
    with any variable order.  A caller that passes the same Row to several
    solves derives its form once (lp.solve passes each working row as its
    LinearConstraint.simplex_row in every round).  coeffs must not change
    once form was read.
    """

    @functools.cached_property
    def form(self) -> _Form:
        coeffs, _, rhs = self
        vals = {v: Fraction(c) for v, c in coeffs.items()}
        vals[None] = b = Fraction(rhs)
        if b < 0:
            vals = {v: -c for v, c in vals.items()}
        nums, den = _integer_row(vals)
        rhs_num = nums.pop(None, 0)
        return _Form(nums, rhs_num, den, b < 0, max(den, rhs_num, *map(abs, nums.values())))


def _form(row) -> _Form:
    """A constraint's integer form: kept on a Row, and derived through a
    throwaway Row for any other (coeffs, relation, rhs) triple."""
    return (row if isinstance(row, Row) else Row(row)).form


def _may_overflow(block: np.ndarray, s: np.ndarray, t: np.ndarray, prow: np.ndarray) -> bool:
    """Whether some row of block * s - t * prow could reach _INT64_BOUND.

    The per-row float bound max|row| * s + |t| * max|prow| decides.  One
    pass over the whole block bounds every row's term from above (float
    rounding is monotone), so the per-row bound runs only when that
    cheaper one reaches _INT64_BOUND.
    """
    top = float(max(prow.max(), -prow.min()))
    if (float(max(block.max(), -block.min())) * float(s.max())
            + float(max(t.max(), -t.min())) * top) < _INT64_BOUND:
        return False
    return (np.maximum(block.max(axis=1), -block.min(axis=1)) * s.astype(float)
            + np.abs(t) * top).max() >= _INT64_BOUND


def _pivot(tab: _Tableau, cols: np.ndarray, basis: list[int], r: int, e: int) -> None:
    """Make column e basic in row r and eliminate it from every other row,
    the reduced-cost row (the last one) included, in place."""
    a = tab.a
    q = int((cols == e).nonzero()[0][0])
    prow = a[r]
    if prow[q] < 0:  # rows stay reduced, so only the sign needs normalizing
        prow *= -1
    # the leaving column takes position q; its entry in row r is the old den
    prow[q], prow[-1] = prow[-1], prow[q]
    pden = prow[-1]
    # row i becomes row_i * s_i - t_i * prow; a row with c_i = 0, row r
    # included, has s_i = 1 and t_i = 0 and stays as it is
    c = a[:, q].copy()
    c[r] = 0
    g = np.gcd(c, pden)
    s, t = pden // g, c // g
    if a.dtype != object and _may_overflow(a, s, t, prow):
        tab.a = a = a.astype(object)
        prow, s, t = a[r], s.astype(object), t.astype(object)
    old_den = prow[q]
    a[:, q] = 0
    prow[q] = old_den
    # scale the rows whose s is not 1, then subtract t * prow where prow
    # is nonzero (its den excluded)
    scaled = (s != 1).nonzero()[0]
    if scaled.size:
        a[scaled] *= s[scaled, None]
    nz = prow[:-1].nonzero()[0]
    a[:, nz] -= np.multiply.outer(t, prow[nz])
    # an updated row's gcd divides the pivot row's old den, and its rhs and
    # den, so with old_den 1 no row can need dividing
    if old_den != 1:
        rest = ((np.gcd(np.gcd(a[:, -2], a[:, -1]), old_den) != 1) & (c != 0)).nonzero()[0]
        if rest.size:
            g = np.gcd.reduce(a[rest], axis=1)
            big = g != 1
            if big.any():
                rest, g = rest[big], g[big]
                a[rest] //= g[:, None]
    cols[q] = basis[r]
    basis[r] = e


def _set_costs(tab: _Tableau, cols: np.ndarray, basis: list[int],
               cost: dict[int, Fraction | int]) -> None:
    """Write the reduced costs of cost at the current basis as the last row."""
    c, dc = _integer_row(cost)
    a = tab.a
    m = len(basis)
    rows = [i for i in range(m) if basis[i] in c]
    dens = a[rows, -1].tolist()
    d = math.lcm(*dens)
    # z = (c_N - sum_i c_B(i) * row_i / den_i) * d, over dc * d
    z = np.array([c.get(j, 0) * d for j in cols.tolist()] + [0, dc * d], dtype=object)
    if rows:
        f = np.array([c[basis[i]] * (d // den) for i, den in zip(rows, dens)], dtype=object)
        z[:-1] -= f @ a[rows, :-1].astype(object)
    z //= np.gcd.reduce(z)
    if a.dtype != object and max(map(abs, z.tolist())) >= _INT64_BOUND:
        tab.a = a.astype(object)
    tab.a[m] = z


def solve_simplex(
    variables: Sequence[str],
    constraints: Sequence[tuple[dict[str, Fraction], str, Fraction]],
    objective: dict[str, Fraction],
) -> SimplexResult:
    """Minimize objective subject to constraints, all variables >= 0.

    constraints is a sequence of (coeffs, relation, rhs) with relation
    "<=" or "==".  Variables absent from a coeffs map have coefficient 0.
    """
    var_index = {v: i for i, v in enumerate(variables)}
    if len(var_index) != len(variables):
        raise InputError("duplicate variable names")
    for coeffs, rel, _ in constraints:
        if rel not in ("<=", "=="):
            raise InputError(f"unsupported relation {rel!r}")
        for v in coeffs:
            if v not in var_index:
                raise InputError(f"unknown variable {v!r} in constraint")
    for v in objective:
        if v not in var_index:
            raise InputError(f"unknown variable {v!r} in objective")

    forms = [_form(row) for row in constraints]
    n_struct = len(variables)
    m = len(constraints)
    # slack sign per row: +1 for "<=", -1 for a negated "<=", 0 for "=="
    signs = [0 if rel == "==" else -1 if f.negated else 1
             for (_, rel, _), f in zip(constraints, forms)]
    art_start = n_struct + sum(1 for s in signs if s)
    n_total = art_start + sum(1 for s in signs if s != 1)

    # nonbasic at the start: the structurals, each at its own index, and
    # the surplus columns
    slack_signs = [s for s in signs if s]
    surplus = [n_struct + k for k, s in enumerate(slack_signs) if s == -1]
    cols = np.array(list(range(n_struct)) + surplus, dtype=np.int64)
    w = len(cols)
    pos = {j: p for p, j in enumerate(surplus, n_struct)}

    rows: list[list[int]] = []
    basis: list[int] = []
    slack, art = n_struct, art_start
    for f, s in zip(forms, signs):
        row = [0] * (w + 2)
        for v, x in f.nums.items():
            row[var_index[v]] = x
        row[w] = f.rhs
        row[-1] = f.den
        if s == -1:
            row[pos[slack]] = -f.den  # the surplus starts nonbasic
        if s == 1:
            basis.append(slack)
        else:
            basis.append(art)
            art += 1
        if s:
            slack += 1
        rows.append(row)
    rows.append([0] * (w + 1) + [1])  # reduced costs, set per phase
    top = max((f.top for f in forms), default=1)  # the largest input magnitude
    tab = _Tableau(np.array(rows, dtype=object if top >= _INT64_BOUND else np.int64))
    del rows

    def run_phase(cost: dict[int, Fraction | int], limit: int) -> tuple[str, int]:
        """Bland pivots until optimal or unbounded; columns >= limit never enter."""
        _set_costs(tab, cols, basis, cost)
        pivots = 0
        while True:
            a = tab.a
            # Bland: the lowest column with a negative reduced cost
            masked = np.where((a[m, :w] < 0) & (cols < limit), cols, limit)
            q = int(masked.argmin()) if w else 0
            if not w or masked[q] == limit:
                return "optimal", pivots
            entering = int(cols[q])
            positive = (a[:m, q] > 0).nonzero()[0]
            if not positive.size:
                return "unbounded", pivots
            zero = positive[a[positive, w] == 0]
            if zero.size:
                # the minimum ratio is 0: the lowest basic column among them
                leaving = min(zero.tolist(), key=basis.__getitem__)
            else:
                leaving, best_a, best_b = -1, 0, 0
                for i, ai, bi in zip(positive.tolist(), a[positive, q].tolist(),
                                     a[positive, w].tolist()):
                    # ratio rhs_i / a_i; the row denominator cancels
                    if leaving < 0 or bi * best_a < best_b * ai or (
                        bi * best_a == best_b * ai and basis[i] < basis[leaving]
                    ):
                        leaving, best_a, best_b = i, ai, bi
            _pivot(tab, cols, basis, leaving, entering)
            pivots += 1

    phase1 = 0
    if n_total > art_start:
        status, phase1 = run_phase(dict.fromkeys(range(art_start, n_total), 1), n_total)
        # phase 1 with artificials cannot be unbounded below 0
        if status != "optimal" or any(
            tab.a[i, w] for i in range(m) if basis[i] >= art_start
        ):
            return SimplexResult("infeasible", None, {}, phase1, 0, tuple(basis))
        # pivot remaining artificials out of the basis where possible; a row
        # with no nonzero non-artificial entry is redundant (rhs is 0 after
        # phase 1) and leaves its artificial basic at 0
        for i in range(m):
            if basis[i] >= art_start:
                nonzero = cols[(tab.a[i, :w] != 0) & (cols < art_start)]
                if nonzero.size:
                    _pivot(tab, cols, basis, i, int(nonzero.min()))
                    phase1 += 1

    cost = {var_index[v]: Fraction(c) for v, c in objective.items()}
    status, phase2 = run_phase(cost, art_start)
    if status == "unbounded":
        return SimplexResult("unbounded", None, {}, phase1, phase2, tuple(basis))

    assignment = {v: ZERO for v in variables}
    for i, b in enumerate(basis):
        if b < n_struct:
            assignment[variables[b]] = Fraction(int(tab.a[i, w]), int(tab.a[i, -1]))
    value = sum((Fraction(c) * assignment[v] for v, c in objective.items()), ZERO)
    return SimplexResult("optimal", value, assignment, phase1, phase2, tuple(basis))
