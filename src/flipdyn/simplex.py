"""Exact two-phase primal simplex on sparse integer rows.

Small implementation for the linear programs in this package: all
variables are nonnegative, constraints are <= or ==, and the objective is
minimized.  A row with a negative rhs is negated first, so every rhs is
nonnegative and such a "<=" row becomes ">=".  The column layout is
structural | slack/surplus | artificial: one slack (+1) or surplus (-1)
per inequality row and one artificial per ">=" or "==" row, each in row
order.  The starting basis holds a row's artificial if it has one and its
slack otherwise.

Each tableau row is a dict col -> int of its nonzero numerators over one
positive per-row denominator; the rhs is column n_total.  After every
update a row is divided by the gcd of its denominator and its entries.
The reduced-cost row has the same integer form.  It is built once per
phase from the cost vector and the basis, then updated with the pivot row
on every pivot like any other row.  The ratio test cross-multiplies
integers.  Fractions appear only when reading the input and in the
returned assignment, so the optimum is exact.

Bland's rule picks both the entering column (the lowest index with a
negative reduced cost) and the leaving row (the minimum ratio, ties to
the lowest basic column), so the method terminates without cycling, and
every pivot is the one a dense rational tableau with the same rule
takes.  Phase 1 minimizes the sum of the artificials, then pivots each
artificial still basic out of its row on the row's first nonzero
non-artificial column; a row with no such column is redundant and keeps
its artificial basic at zero.  Phase 2 never lets an artificial enter.

This is not a general-purpose LP code: problem sizes stay in the hundreds
of rows because the callers do constraint generation and prune inactive
rows between solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError

ZERO = Fraction(0)


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Optional[Fraction]
    assignment: dict[str, Fraction]
    phase1_pivots: int = 0  # includes pivoting the artificials out
    phase2_pivots: int = 0
    basis: tuple[int, ...] = ()  # basic column of each row when the solve stopped


def _integer_row(values: dict[int, Fraction | int]) -> tuple[dict[int, int], int]:
    """Rationals as nonzero integer numerators over their common denominator."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return {j: v.numerator * (den // v.denominator) for j, v in values.items() if v}, den


def _eliminate(row: dict[int, int], den: int, prow: dict[int, int], pden: int, e: int) -> int:
    """row -= (row[e] / pden) * prow in place, where prow[e] == pden.

    Returns the row's new denominator; the row leaves reduced by the gcd.
    """
    g = math.gcd(row[e], pden)
    s, t = pden // g, row[e] // g
    if s != 1:
        for j in row:
            row[j] *= s
    for j, v in prow.items():
        w = row.get(j, 0) - t * v
        if w:
            row[j] = w
        else:
            del row[j]
    den *= s
    g = math.gcd(den, *row.values())
    if g != 1:
        for j in row:
            row[j] //= g
    return den // g


def _pivot(rows: list[dict[int, int]], dens: list[int], basis: list[int], r: int, e: int) -> None:
    """Make column e basic in row r and eliminate it from every other row,
    the reduced-cost row (the last one) included."""
    prow = rows[r]
    p = prow[e]
    g = math.gcd(*prow.values()) * (1 if p > 0 else -1)
    for j in prow:
        prow[j] //= g
    dens[r] = prow[e]
    for i, row in enumerate(rows):
        if i != r and e in row:
            dens[i] = _eliminate(row, dens[i], prow, dens[r], e)
    basis[r] = e


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

    n_struct = len(variables)
    m = len(constraints)
    # slack sign per row: +1 for "<=", -1 for a negated "<=", 0 for "=="
    signs = [0 if rel == "==" else -1 if Fraction(b) < 0 else 1 for _, rel, b in constraints]
    art_start = n_struct + sum(1 for s in signs if s)
    n_total = art_start + sum(1 for s in signs if s != 1)
    rhs = n_total

    rows: list[dict[int, int]] = []
    dens: list[int] = []
    basis: list[int] = []
    slack, art = n_struct, art_start
    for (coeffs, _, b), s in zip(constraints, signs):
        vals = {var_index[v]: Fraction(c) for v, c in coeffs.items()}
        vals[rhs] = Fraction(b)
        if vals[rhs] < 0:
            vals = {j: -c for j, c in vals.items()}
        row, den = _integer_row(vals)
        if s:
            row[slack] = s * den
            slack += 1
        if s == 1:
            basis.append(slack - 1)
        else:
            row[art] = den
            basis.append(art)
            art += 1
        rows.append(row)
        dens.append(den)

    def run_phase(cost: dict[int, Fraction | int], limit: int) -> tuple[str, int]:
        """Bland pivots until optimal or unbounded; columns >= limit never enter."""
        z, dz = _integer_row(cost)
        for i, b in enumerate(basis):
            if b in z:
                dz = _eliminate(z, dz, rows[i], dens[i], b)
        rows[m:] = [z]
        dens[m:] = [dz]
        pivots = 0
        while True:
            entering = min((j for j, v in z.items() if v < 0 and j < limit), default=-1)
            if entering < 0:
                return "optimal", pivots
            leaving, best_a, best_b = -1, 0, 0
            for i in range(m):
                a = rows[i].get(entering, 0)
                if a > 0:
                    # ratio rhs_i / a_i; the row denominator cancels
                    b = rows[i].get(rhs, 0)
                    if leaving < 0 or b * best_a < best_b * a or (
                        b * best_a == best_b * a and basis[i] < basis[leaving]
                    ):
                        leaving, best_a, best_b = i, a, b
            if leaving < 0:
                return "unbounded", pivots
            _pivot(rows, dens, basis, leaving, entering)
            pivots += 1

    phase1 = 0
    if n_total > art_start:
        status, phase1 = run_phase(dict.fromkeys(range(art_start, n_total), 1), n_total)
        # phase 1 with artificials cannot be unbounded below 0
        if status != "optimal" or any(
            rows[i].get(rhs) for i in range(m) if basis[i] >= art_start
        ):
            return SimplexResult("infeasible", None, {}, phase1, 0, tuple(basis))
        # pivot remaining artificials out of the basis where possible; a row
        # with no nonzero non-artificial entry is redundant (rhs is 0 after
        # phase 1) and leaves its artificial basic at 0
        for i in range(m):
            if basis[i] >= art_start:
                j = min((j for j in rows[i] if j < art_start), default=-1)
                if j >= 0:
                    _pivot(rows, dens, basis, i, j)
                    phase1 += 1

    cost = {var_index[v]: Fraction(c) for v, c in objective.items()}
    status, phase2 = run_phase(cost, art_start)
    if status == "unbounded":
        return SimplexResult("unbounded", None, {}, phase1, phase2, tuple(basis))

    assignment = {v: ZERO for v in variables}
    for i, b in enumerate(basis):
        if b < n_struct:
            assignment[variables[b]] = Fraction(rows[i].get(rhs, 0), dens[i])
    value = sum((Fraction(c) * assignment[v] for v, c in objective.items()), ZERO)
    return SimplexResult("optimal", value, assignment, phase1, phase2, tuple(basis))
