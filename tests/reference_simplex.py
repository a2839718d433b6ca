"""Dense rational simplex: the test oracle for flipdyn.simplex.

This is the package's earlier solver, a dense Fraction tableau that
recomputes every reduced cost from the tableau on each pivot.  It is
slow and plain, which is what an oracle should be.  It follows the same
rules as flipdyn.simplex: the column layout structural | slack/surplus |
artificial, Bland's rule for the entering column and for the leaving row
(ties to the lowest basic column), and phase 1 followed by the drive-out
of basic artificials.  It reports its pivot counts and final basis in
the same SimplexResult, and appends every pivot as (entering column,
leaving basic column) to `trace` when one is given.  Only tests import
it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from flipdyn.errors import InputError
from flipdyn.simplex import SimplexResult

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_simplex(
    variables: Sequence[str],
    constraints: Sequence[tuple[dict[str, Fraction], str, Fraction]],
    objective: dict[str, Fraction],
    trace: Optional[list[tuple[int, int]]] = None,
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
    rows: list[list[Fraction]] = []
    rels: list[str] = []
    rhs: list[Fraction] = []
    for coeffs, rel, b in constraints:
        row = [ZERO] * n_struct
        for v, coef in coeffs.items():
            row[var_index[v]] += Fraction(coef)
        b = Fraction(b)
        if b < 0:
            # normalize to nonnegative rhs; "<=" becomes ">=", encoded by
            # a negated slack below
            row = [-x for x in row]
            b = -b
            rel = {"<=": ">=", "==": "=="}[rel]
        rows.append(row)
        rels.append(rel)
        rhs.append(b)

    m = len(rows)
    # column layout: structural | slack/surplus | artificial
    slack_cols = []
    art_cols = []
    n_cols = n_struct
    for i, rel in enumerate(rels):
        if rel == "<=":
            slack_cols.append((i, ONE))
            n_cols += 1
        elif rel == ">=":
            slack_cols.append((i, -ONE))
            n_cols += 1
        else:
            slack_cols.append(None)
    slack_start = n_struct
    k = 0
    slack_of_row: list[Optional[int]] = [None] * m
    for i, sc in enumerate(slack_cols):
        if sc is not None:
            slack_of_row[i] = slack_start + k
            k += 1
    n_slack = k
    art_start = n_struct + n_slack
    art_of_row: list[Optional[int]] = [None] * m
    k = 0
    for i, rel in enumerate(rels):
        # ">=" rows and "==" rows need an artificial to start feasible
        if rel in (">=", "=="):
            art_of_row[i] = art_start + k
            art_cols.append(i)
            k += 1
    n_art = k
    n_total = n_struct + n_slack + n_art

    # tableau: m rows of n_total coefficients plus rhs
    tab = []
    for i in range(m):
        row = rows[i] + [ZERO] * (n_slack + n_art)
        if slack_of_row[i] is not None:
            sign = ONE if rels[i] == "<=" else -ONE
            row[slack_of_row[i]] = sign
        if art_of_row[i] is not None:
            row[art_of_row[i]] = ONE
        row.append(rhs[i])
        tab.append(row)

    basis: list[int] = []
    for i in range(m):
        if art_of_row[i] is not None:
            basis.append(art_of_row[i])
        else:
            basis.append(slack_of_row[i])

    # phase objectives as cost vectors over all columns
    cost2 = [ZERO] * n_total
    for v, coef in objective.items():
        cost2[var_index[v]] += Fraction(coef)
    cost1 = [ZERO] * n_total
    for j in range(art_start, art_start + n_art):
        cost1[j] = ONE

    trace = [] if trace is None else trace
    counts = [0, 0]  # phase-1 and phase-2 pivots

    def result(status, objective=None, assignment=None):
        return SimplexResult(status, objective, assignment or {}, counts[0], counts[1],
                             tuple(basis))

    def run_phase(cost: list[Fraction], forbid: set[int], phase: int) -> str:
        while True:
            # reduced costs: c_j - c_B . B^{-1} A_j, computed from tableau
            cb = [cost[b] for b in basis]
            entering = -1
            for j in range(n_total):
                if j in forbid or j in basis:
                    continue
                rc = cost[j]
                for i in range(m):
                    if cb[i] != 0 and tab[i][j] != 0:
                        rc -= cb[i] * tab[i][j]
                if rc < 0:
                    entering = j
                    break  # Bland: lowest index
            if entering < 0:
                return "optimal"
            leaving = -1
            best: Optional[Fraction] = None
            for i in range(m):
                a = tab[i][entering]
                if a > 0:
                    ratio = tab[i][-1] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]
                    ):
                        best = ratio
                        leaving = i
            if leaving < 0:
                return "unbounded"
            pivot = tab[leaving][entering]
            prow = tab[leaving]
            inv = ONE / pivot
            for j in range(n_total + 1):
                if prow[j] != 0:
                    prow[j] *= inv
            for i in range(m):
                if i == leaving:
                    continue
                f = tab[i][entering]
                if f != 0:
                    ri = tab[i]
                    for j in range(n_total + 1):
                        if prow[j] != 0:
                            ri[j] -= f * prow[j]
            trace.append((entering, basis[leaving]))
            counts[phase] += 1
            basis[leaving] = entering

    if n_art > 0:
        status = run_phase(cost1, forbid=set(), phase=0)
        if status != "optimal":
            # phase 1 with artificials cannot be unbounded below 0
            return result("infeasible")
        infeas = sum(
            (tab[i][-1] for i in range(m) if basis[i] >= art_start), ZERO
        )
        if infeas != 0:
            return result("infeasible")
        # pivot remaining artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= art_start:
                piv_j = -1
                for j in range(art_start):
                    if tab[i][j] != 0:
                        piv_j = j
                        break
                if piv_j >= 0:
                    pivot = tab[i][piv_j]
                    inv = ONE / pivot
                    for j in range(n_total + 1):
                        if tab[i][j] != 0:
                            tab[i][j] *= inv
                    for i2 in range(m):
                        if i2 != i and tab[i2][piv_j] != 0:
                            f = tab[i2][piv_j]
                            for j in range(n_total + 1):
                                if tab[i][j] != 0:
                                    tab[i2][j] -= f * tab[i][j]
                    trace.append((piv_j, basis[i]))
                    counts[0] += 1
                    basis[i] = piv_j
                # a row with no nonzero non-artificial entry is redundant
                # (rhs is 0 after phase 1); leave the artificial basic at 0

    forbid = set(range(art_start, art_start + n_art))
    status = run_phase(cost2, forbid=forbid, phase=1)
    if status == "unbounded":
        return result("unbounded")

    assignment = {v: ZERO for v in variables}
    for i, b in enumerate(basis):
        if b < n_struct:
            assignment[variables[b]] = tab[i][-1]
    value = sum((Fraction(c) * assignment[v] for v, c in objective.items()), ZERO)
    return result("optimal", value, assignment)
