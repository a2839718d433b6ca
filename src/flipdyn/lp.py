"""Linear programs bounding the one-step distance change of the coupling.

The decision variables are the flip probabilities p_1..p_N (N = n_max),
the contraction rate lam, and two surrogate variables x, y that cap the
per-block cost once a block has at least m_star entries.  Constraint
families:

  base/mono/cap   p_1 = 1, monotonicity, alpha * p_alpha <= 1
  H/...           exact per-block cost for blocks with m < m_star entries,
                  over all entry vectors a, b in {0..N}^m (not both sides
                  all zero), big-component sizes A in [1 + max a,
                  min(1 + sum a, N + 1)] and B likewise; each min() is
                  expanded into its 2^m linear branches
  own/...         blocks of the disagreement colors with m >= 2 entries
  sur/...         definitions of x and y plus the closing constraint
                  2x + m_star * y <= -1 + m_star * lam
  cap3/...        optional shifted cap alpha * p_{alpha-2} <= 3
  mix/...         (mixed kind) lam dominates lam_sing, lam_good and the
                  gamma-weighted mix of lam_bad and lam_good

Every row is a list of (variable, weight) terms, an int variable alpha
standing for p_alpha (zero outside 1..n_max); _row turns one into a
LinearConstraint.  Each min() is linearized by _min_rows: terms minus a
sum of min(x_i, y_i) is at most rhs exactly when each of the 2^m rows
that subtract one argument of every min() is, labelled /br=<a|b ...>.
The H branch rows, sur/y and tight/* are all built that way.

The mixed kind splits the rate into lam_sing (single-entry blocks),
lam_bad (the two extremal two-entry shapes at the support edge) and
lam_good (everything else), reflecting that Bad states are rare along a
burned-in trajectory.

The H families are huge (tens of thousands of tuples), so LPInstance
keeps them symbolically: solving works by constraint generation against
an exact rational simplex, and each round's exact feasibility pass over
every tuple either finds the violations to add or certifies the optimum.
A float cross-check against scipy's linprog on the fully expanded
program is available separately.

Each HFamily builds, on first use, one TupleTable: its tuples in
enumeration order as int8 numpy columns (a, b, A, B, the argmax indices
and an index into the family's lam variables).  Three passes read it,
evaluating the min-form of H column by column in the operation order of
h_value.  The float scan does so in float64, so its violations are
bit-identical to a per-tuple float loop.  Floats only rank: their order
decides which violations enter the working set and hence the simplex's
pivot path.  scaled_slacks does so exactly in integers: p and the lam
variables are scaled to L, the lcm of their denominators, and each
tuple's slack is an integer over L, computed in int64 when a bound on
every intermediate fits and in Python ints otherwise.  Every round of
solve takes its violations, and its final certification, from that
integer pass, as does slack_report.  h_value and HFamily.tuple_slack
stay the per-tuple reference the tests compare against; solve calls
neither.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import json
import math
import re
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

from .coupling import _argmax_lowest
from .dynamics import FlipProbabilities, fraction_str
from .errors import InputError, InvariantError, output_file
from .simplex import Row, SimplexResult, solve_simplex

ZERO = Fraction(0)


def _mass_fn(probs) -> Callable[[int], Fraction]:
    """alpha -> p_alpha for a FlipProbabilities or a 0-indexable sequence
    giving p_1.., zero outside 1..len."""
    if isinstance(probs, FlipProbabilities):
        return probs.mass
    vals = list(probs)
    return lambda alpha: Fraction(vals[alpha - 1]) if 1 <= alpha <= len(vals) else ZERO


def h_value(
    probs,
    A: int,
    B: int,
    a: tuple[int, ...],
    b: tuple[int, ...],
) -> Fraction:
    """Exact per-block cost H(A, B, a, b) under a flip vector.

    probs may be a FlipProbabilities or a 0-indexable sequence of
    Fractions giving p_1.. (entries beyond the sequence are zero).
    H = (A - max a - 1) p_A + (B - max b - 1) p_B + sum_i f_i with
    f_i = a_i q_i + b_i q'_i - min(q_i, q'_i), q_i = p_{a_i} minus p_A on
    the lowest index attaining max a, and q'_i symmetrically.
    """
    if len(a) != len(b) or not a:
        raise InputError("entry vectors must be nonempty and equal length")
    pm = _mass_fn(probs)
    i_max, j_max = _argmax_lowest(a), _argmax_lowest(b)
    pA = pm(A)
    pB = pm(B)
    total = (A - a[i_max] - 1) * pA + (B - b[j_max] - 1) * pB
    for i in range(len(a)):
        q = pm(a[i]) - (pA if i == i_max else ZERO)
        qp = pm(b[i]) - (pB if i == j_max else ZERO)
        total += a[i] * q + b[i] * qp - min(q, qp)
    return total


def g_surrogate(probs, a: int, b: int) -> Fraction:
    """a p_a + b p_b - min(p_a, p_b), the two-entry surrogate cost."""
    pm = _mass_fn(probs)
    pa, pb = pm(a), pm(b)
    return a * pa + b * pb - min(pa, pb)


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . vars <= rhs (or == rhs), with a stable label."""

    label: str
    coeffs: tuple[tuple[str, Fraction], ...]
    rel: str
    rhs: Fraction

    def lhs_value(self, assignment: dict[str, Fraction]) -> Fraction:
        return sum((c * assignment.get(v, ZERO) for v, c in self.coeffs), ZERO)

    def slack(self, assignment: dict[str, Fraction]) -> Fraction:
        return self.rhs - self.lhs_value(assignment)

    @functools.cached_property
    def simplex_row(self) -> Row:
        """This row as solve_simplex's (coeffs, rel, rhs) triple, made once:
        every solve that passes it reuses the integer form kept on it."""
        return Row((dict(self.coeffs), self.rel, self.rhs))


def _mk_constraint(label: str, coeffs: dict[str, Fraction], rel: str, rhs) -> LinearConstraint:
    items = tuple(sorted((v, Fraction(c)) for v, c in coeffs.items() if c != 0))
    return LinearConstraint(label=label, coeffs=items, rel=rel, rhs=Fraction(rhs))


def _pvar(alpha: int) -> str:
    return f"p{alpha}"


def _row(label: str, terms, rel: str, rhs, n_max: int) -> LinearConstraint:
    """One row from (variable, weight) terms, weights of a repeated variable
    summed.  An int variable alpha stands for p_alpha and is dropped
    outside 1..n_max, where p_alpha is zero."""
    coeffs: dict[str, int] = {}
    for var, w in terms:
        if isinstance(var, int):
            if not 1 <= var <= n_max:
                continue
            var = _pvar(var)
        coeffs[var] = coeffs.get(var, 0) + w
    return _mk_constraint(label, coeffs, rel, rhs)


def _min_rows(label: str, terms, mins, rhs, n_max: int) -> list[LinearConstraint]:
    """terms - sum_i min(x_i, y_i) <= rhs as its 2^len(mins) linear rows.

    mins holds (x_i, y_i) pairs of term lists.  Row label/br=<s> subtracts
    x_i where s[i] is 'a' and y_i where it is 'b'; the rows come in
    itertools.product order, and their conjunction is the min() form.
    """
    return [
        _row(f"{label}/br={''.join(branch)}",
             [*terms, *((v, -w) for pick, (x, y) in zip(branch, mins)
                        for v, w in (x if pick == "a" else y))],
             "<=", rhs, n_max)
        for branch in itertools.product("ab", repeat=len(mins))
    ]


def _h_label(a, b, A: int, B: int) -> str:
    return f"H/m={len(a)}/a={','.join(map(str, a))}/b={','.join(map(str, b))}/A={A}/B={B}"


class HFamily:
    """All exact block constraints for one entry count m, kept symbolic."""

    def __init__(
        self,
        m: int,
        n_max: int,
        lam_var_for: Callable[[tuple, tuple, int, int], str],
        label_for: Optional[Callable[[tuple, tuple, int, int], str]] = None,
    ):
        self.m = m
        self.n_max = n_max
        self.lam_var_for = lam_var_for
        self.label_for = label_for or _h_label

    def tuples(self) -> Iterator[tuple[tuple, tuple, int, int]]:
        n, m = self.n_max, self.m
        pairs = list(itertools.product(range(n + 1), repeat=2))
        for combo in itertools.combinations_with_replacement(pairs, m):
            a = tuple(p[0] for p in combo)
            b = tuple(p[1] for p in combo)
            if all(x == 0 for x in a) or all(x == 0 for x in b):
                continue
            a_lo, a_hi = 1 + max(a), min(1 + sum(a), n + 1)
            b_lo, b_hi = 1 + max(b), min(1 + sum(b), n + 1)
            for A in range(a_lo, a_hi + 1):
                for B in range(b_lo, b_hi + 1):
                    yield a, b, A, B

    def branch_constraints(self, a, b, A, B) -> list[LinearConstraint]:
        """The 2^m linear forms whose conjunction is H(A,B,a,b) <= rhs.

        H is h_value's min-form: q_i = p_{a_i} - [i = i_max] p_A and q'_i
        likewise, each a term list for _min_rows.
        """
        i_max, j_max = _argmax_lowest(a), _argmax_lowest(b)
        q = [[(x, 1)] + [(A, -1)] * (i == i_max) for i, x in enumerate(a)]
        qp = [[(y, 1)] + [(B, -1)] * (i == j_max) for i, y in enumerate(b)]
        terms = [(A, A - a[i_max] - 1), (B, B - b[j_max] - 1),
                 *((v, x * w) for x, qi in zip(a, q) for v, w in qi),
                 *((v, y * w) for y, qi in zip(b, qp) for v, w in qi),
                 (self.lam_var_for(a, b, A, B), -self.m)]
        return _min_rows(self.label_for(a, b, A, B), terms, list(zip(q, qp)), -1, self.n_max)

    def tuple_slack(self, a, b, A, B, assignment: dict[str, Fraction]) -> Fraction:
        """Exact slack of one tuple through h_value: the reference that
        scaled_slacks is tested against; solve does not call it."""
        pvals = [assignment.get(_pvar(i), ZERO) for i in range(1, self.n_max + 1)]
        lam = assignment.get(self.lam_var_for(a, b, A, B), ZERO)
        return (-1 + self.m * lam) - h_value(pvals, A, B, a, b)

    @functools.cached_property
    def table(self) -> "TupleTable":
        """The family's tuples as compact columns, built on first use."""
        return TupleTable.build(self)

    def _h_columns(self, pv, work):
        """H at every tuple of the table, as a column of dtype work.

        pv[alpha] is p_alpha for alpha in 0..n_max + 1 (zero at both
        ends).  The operations are those of h_value, elementwise and in
        the same order, so a float64 column repeats the per-tuple float
        loop bit for bit and an integer column is exact.
        """
        t = self.table
        pA, pB = pv[t.A], pv[t.B]
        h = (t.A.astype(work) - t.a.max(axis=1).astype(work) - 1) * pA
        h += (t.B.astype(work) - t.b.max(axis=1).astype(work) - 1) * pB
        for i in range(self.m):
            q = pv[t.a[:, i]]
            q -= np.where(t.i_max == i, pA, 0)
            qp = pv[t.b[:, i]]
            qp -= np.where(t.j_max == i, pB, 0)
            term = t.a[:, i].astype(work) * q
            term += t.b[:, i].astype(work) * qp
            term -= np.where(qp < q, qp, q)  # min(q, qp), ties to q
            h += term
        return h

    def scaled_slacks(self, assignment: dict[str, Fraction]):
        """(L, s) with s[k] = L * the exact slack of tuple k, in table order.

        L is the lcm of the denominators of p_1..p_n and the family's lam
        variables, so every slack is an integer over L.  The column is
        int64 when a bound on every intermediate fits, Python ints in an
        object array otherwise.
        """
        t, m, n = self.table, self.m, self.n_max
        pvals = [Fraction(assignment.get(_pvar(i), ZERO)) for i in range(1, n + 1)]
        lams = [Fraction(assignment.get(v, ZERO)) for v in t.lam_names]
        L = math.lcm(*(x.denominator for x in pvals + lams))
        P = [0] + [x.numerator * (L // x.denominator) for x in pvals] + [0]
        lam_L = [x.numerator * (L // x.denominator) for x in lams]
        bound = (L + m * max(map(abs, lam_L), default=0)
                 + (2 * (n + 1) + m * (4 * n + 2)) * max(map(abs, P)))
        work = np.int64 if bound < 2**62 else object
        s = np.array(lam_L, dtype=work)[t.lam]
        s *= m
        s -= L
        s -= self._h_columns(np.array(P, dtype=work), work)
        return L, s

    def scan(
        self, pf: list[float], lam_of: dict[str, float], tol: float
    ) -> list[tuple[float, tuple]]:
        """Float pre-scan; returns (violation, tuple) with violation > tol.

        pf[alpha] is p_alpha (zero beyond the list); violations are
        bit-identical to the per-tuple float loop and come in tuple order.
        """
        t, n = self.table, self.n_max
        pv = np.zeros(n + 2)
        size = min(len(pf), n + 2)
        pv[:size] = pf[:size]
        viol = self._h_columns(pv, np.float64)
        viol -= np.array([-1.0 + self.m * lam_of[v] for v in t.lam_names])[t.lam]
        hits = np.flatnonzero(viol > tol)
        return [(v, t.tuple_at(k)) for k, v in zip(hits.tolist(), viol[hits].tolist())]


@dataclass(frozen=True, eq=False)
class TupleTable:
    """One family's tuples (a, b, A, B) as numpy columns, in tuples() order.

    a and b are (T, m); A, B, the argmax indices i_max, j_max (lowest
    index attaining the max) and lam, an index into lam_names, are (T,).
    All are int8 (int16 beyond support 126).
    """

    a: "np.ndarray"
    b: "np.ndarray"
    A: "np.ndarray"
    B: "np.ndarray"
    i_max: "np.ndarray"
    j_max: "np.ndarray"
    lam: "np.ndarray"
    lam_names: tuple[str, ...]

    @classmethod
    def build(cls, fam: HFamily) -> "TupleTable":
        from array import array

        m = fam.m
        code, dtype = ("b", np.int8) if fam.n_max < 127 else ("h", np.int16)
        flat = array(code)
        lam_index: dict[str, int] = {}
        for a, b, A, B in fam.tuples():
            i_max, j_max = _argmax_lowest(a), _argmax_lowest(b)
            lam = lam_index.setdefault(fam.lam_var_for(a, b, A, B), len(lam_index))
            flat.extend(a)
            flat.extend(b)
            flat.extend((A, B, i_max, j_max, lam))
        rows = np.frombuffer(flat, dtype=dtype).reshape(-1, 2 * m + 5)
        cols = [np.ascontiguousarray(rows[:, j]) for j in range(2 * m, 2 * m + 5)]
        return cls(np.ascontiguousarray(rows[:, :m]), np.ascontiguousarray(rows[:, m:2 * m]),
                   *cols, lam_names=tuple(lam_index))

    def tuple_at(self, k: int) -> tuple[tuple, tuple, int, int]:
        return (tuple(self.a[k].tolist()), tuple(self.b[k].tolist()),
                int(self.A[k]), int(self.B[k]))


@dataclass
class LPInstance:
    """A program with explicit structural constraints and symbolic families."""

    name: str
    variables: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...]
    families: tuple[HFamily, ...]
    objective_var: str
    meta: dict = field(default_factory=dict)

    def without(self, label_prefix: str) -> "LPInstance":
        kept = tuple(c for c in self.constraints if not c.label.startswith(label_prefix))
        if len(kept) == len(self.constraints):
            raise InputError(f"no constraint labeled {label_prefix}*")
        return LPInstance(
            name=f"{self.name}-without-{label_prefix}",
            variables=self.variables,
            constraints=kept,
            families=self.families,
            objective_var=self.objective_var,
            meta=dict(self.meta),
        )

    def all_constraints(self) -> Iterator[LinearConstraint]:
        """Every constraint fully expanded (large for the H families)."""
        yield from self.constraints
        for fam in self.families:
            for a, b, A, B in fam.tuples():
                yield from fam.branch_constraints(a, b, A, B)


@dataclass(frozen=True)
class RoundStats:
    """The work of one constraint-generation round, as counts only.

    confirmed counts the family tuples violated in exact arithmetic: the
    float candidates among them, or all of them when that is none.
    """

    active_rows: int
    candidates: int
    confirmed: int
    phase1_pivots: int
    phase2_pivots: int


@dataclass(frozen=True)
class RoundTimes:
    """Where one round's time went, in seconds: the exact simplex, the
    float scan and the integer certification (scaled_slacks)."""

    simplex_s: float
    scan_s: float = 0.0
    certify_s: float = 0.0


@dataclass(frozen=True)
class LPSolution:
    """A solve's result.  round_times varies from run to run, so it takes
    no part in equality or repr, and no report but `lp solve --stats`
    reads it."""

    status: str
    objective_value: Optional[Fraction]
    assignment: dict[str, Fraction]
    rounds: int = 0
    active_constraints: int = 0
    round_stats: tuple[RoundStats, ...] = ()
    round_times: tuple[RoundTimes, ...] = field(default=(), compare=False, repr=False)


def _monotone(n_max: int) -> list[LinearConstraint]:
    """base/p1 (p_1 = 1) and mono/alpha (p_alpha <= p_{alpha-1})."""
    return [_row("base/p1", [(1, 1)], "==", 1, n_max)] + [
        _row(f"mono/{alpha}", [(alpha, 1), (alpha - 1, -1)], "<=", 0, n_max)
        for alpha in range(2, n_max + 1)
    ]


def _structural(n_max: int, m_star: int, lam: str, cap3: bool) -> list[LinearConstraint]:
    cons = _monotone(n_max)
    cons += [_row(f"cap/{alpha}", [(alpha, alpha)], "<=", 1, n_max)
             for alpha in range(1, n_max + 1)]
    if cap3:
        cons += [_row(f"cap3/{j + 2}", [(j, j + 2)], "<=", 3, n_max)
                 for j in range(1, n_max + 1)]
    for m in range(2, m_star):
        for bvec in itertools.combinations_with_replacement(range(n_max + 1), m):
            if bvec[-1] == 0:
                continue
            big = sum(bvec)
            terms = [(big, big - bvec[-1]), *((bi, bi) for bi in bvec), (lam, -m)]
            cons.append(_row(f"own/m={m}/b={','.join(map(str, bvec))}", terms, "<=", -1, n_max))
    cons += [_row(f"sur/x/A={A}", [("x", -1), (A, A - 2)], "<=", 0, n_max)
             for A in range(0, n_max + 2)]
    for a in range(0, n_max + 1):
        for b in range(a + 1, n_max + 1):
            cons += _min_rows(f"sur/y/a={a}/b={b}", [("y", -1), (a, a), (b, b)],
                              [([(a, 1)], [(b, 1)])], 0, n_max)
    cons.append(_row("sur/close", [("x", 2), ("y", m_star), (lam, -m_star)],
                     "<=", -1, n_max))
    return cons


def build_vigoda_lp(n_max: int = 7, m_star: int = 3) -> LPInstance:
    """The one-step program whose optimum is the classical 11/6 barrier."""
    if n_max < 2 or m_star < 2:
        raise InputError("need n_max >= 2 and m_star >= 2")
    variables = tuple(_pvar(i) for i in range(1, n_max + 1)) + ("lam", "x", "y")
    cons = _structural(n_max, m_star, lam="lam", cap3=False)
    fams = tuple(
        HFamily(m, n_max, lam_var_for=lambda a, b, A, B: "lam")
        for m in range(1, m_star)
    )
    return LPInstance(
        name=f"one-step-n{n_max}-m{m_star}",
        variables=variables,
        constraints=tuple(cons),
        families=fams,
        objective_var="lam",
        meta={"kind": "vigoda", "n_max": n_max, "m_star": m_star},
    )


def build_tight_lp() -> LPInstance:
    """The five-constraint reduced program over p_1..p_7.

    Its optimum equals the full program's 11/6, and the constraint
    involving p_6 (tight/4) is redundant: dropping it leaves the optimum
    unchanged.
    """
    n_max = 7
    variables = tuple(_pvar(i) for i in range(1, n_max + 1)) + ("lam",)
    cons = _monotone(n_max)
    # each entry: (label, p terms, the two min() arguments, lam weight)
    specs = [
        ("tight/1", [(1, 1), (2, 1), (3, -2)], [(1, 1), (2, -1)], [(2, 1), (3, -1)], 1),
        ("tight/2", [(1, 1), (2, -1), (3, 3), (4, -3)], [(1, 1), (2, -1)], [(3, 1), (4, -1)], 1),
        ("tight/3", [(1, 1), (2, -1), (4, 4), (5, -4)], [(1, 1), (2, -1)], [(4, 1), (5, -1)], 1),
        ("tight/4", [(1, 2), (3, 5)], [(1, 1), (3, -1)], [(3, 1), (6, -1)], 2),
        ("tight/5", [(1, 2), (3, 5)], [(1, 1), (3, -1)], [(3, 1), (7, -1)], 2),
    ]
    for label, terms, arg_a, arg_b, lam_w in specs:
        cons += _min_rows(label, terms + [("lam", -lam_w)], [(arg_a, arg_b)], -1, n_max)
    return LPInstance(
        name="reduced-tight",
        variables=variables,
        constraints=tuple(cons),
        families=(),
        objective_var="lam",
        meta={"kind": "tight", "n_max": n_max},
    )


def build_mixed_lp(
    n_max: int = 6,
    m_star: int = 3,
    gamma: Fraction = Fraction(25597784, 10**6),
    cap3: bool = True,
) -> LPInstance:
    """The program with Bad shapes discounted by their occupation ratio.

    gamma weighs lam_bad against lam_good: lam must dominate lam_sing,
    lam_good, and (gamma lam_bad + lam_good)/(gamma + 1); there is no
    direct lam >= lam_bad constraint.
    """
    if n_max < 4 or m_star < 3:
        raise InputError("mixed program needs n_max >= 4 and m_star >= 3")
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise InputError("gamma must be positive")
    variables = tuple(_pvar(i) for i in range(1, n_max + 1)) + (
        "lam",
        "lam_sing",
        "lam_bad",
        "lam_good",
        "x",
        "y",
    )
    cons = _structural(n_max, m_star, lam="lam_good", cap3=cap3)
    cons += [
        _row("mix/sing", [("lam_sing", 1), ("lam", -1)], "<=", 0, n_max),
        _row("mix/good", [("lam_good", 1), ("lam", -1)], "<=", 0, n_max),
        _row("mix/bad", [("lam_bad", gamma / (gamma + 1)), ("lam_good", 1 / (gamma + 1)),
                         ("lam", -1)], "<=", 0, n_max),
    ]

    def lam_for(a, b, A, B) -> str:
        m = len(a)
        if m == 1:
            return "lam_sing"
        if m == 2:
            # The Bad configuration has entries (1,1) against (3,3) with the
            # big side realizable at 7; its relaxation copies at B = 6 carry an
            # identical linear form (p_7 = 0 and the min() always selects the
            # small side's argument), so the lam_bad rating must cover the
            # whole tight range B in {6,7} or the discount is vacuous.
            if a == (1, 1) and b == (3, 3) and B >= 6:
                return "lam_bad"
            if a == (3, 3) and b == (1, 1) and A >= 6:
                return "lam_bad"
        return "lam_good"

    def label_for(a, b, A, B) -> str:
        if lam_for(a, b, A, B) != "lam_bad":
            return _h_label(a, b, A, B)
        if b == (3, 3):
            return f"bad/(1,1,3,3,B={B})/A={A}"
        return f"bad/(3,3,1,1,A={A})/B={B}"

    fams = tuple(
        HFamily(m, n_max, lam_var_for=lam_for, label_for=label_for) for m in range(1, m_star)
    )
    return LPInstance(
        name=f"mixed-n{n_max}-m{m_star}",
        variables=variables,
        constraints=tuple(cons),
        families=fams,
        objective_var="lam",
        meta={
            "kind": "mixed",
            "n_max": n_max,
            "m_star": m_star,
            "gamma": gamma,
            "cap3": cap3,
        },
    )


# Constraint-generation rounds after which solve gives up; every program
# built here converges in a handful.
_MAX_ROUNDS = 200


def solve(lp: LPInstance) -> LPSolution:
    """Exact optimum by constraint generation over the symbolic families.

    Each round solves the working set exactly, then evaluates every
    family twice at the optimum: in floats, whose violations rank the
    candidates, and in integers (scaled_slacks), which decide them.  With
    no exact violation the working set's optimum is feasible for the whole
    program, hence optimal for it.  Otherwise the round adds the
    maximizing branch of up to 50 violated tuples: the float candidates
    that are exactly violated, largest float violation first, or the
    first exact violations when the floats confirm none.

    Every round hands solve_simplex its working set as (coeffs, rel, rhs)
    triples, each row's LinearConstraint.simplex_row: the same object in
    every round (and every solve, for the structural rows), so the
    simplex derives a row's integer form once.  round_stats counts each
    round's work; round_times times its simplex, float scan and exact
    certification, for `lp solve --stats` alone.
    """
    active: list[LinearConstraint] = list(lp.constraints)
    added_labels: set[str] = set()
    objective = {lp.objective_var: Fraction(1)}
    n_max = lp.meta.get("n_max", 0)
    stats: list[RoundStats] = []
    times: list[RoundTimes] = []
    for rounds in range(1, _MAX_ROUNDS + 1):
        t0 = time.perf_counter()
        res: SimplexResult = solve_simplex(
            lp.variables, [c.simplex_row for c in active], objective
        )
        t1 = time.perf_counter()
        if res.status != "optimal":
            stats.append(RoundStats(len(active), 0, 0, res.phase1_pivots, res.phase2_pivots))
            times.append(RoundTimes(t1 - t0))
            return LPSolution(status=res.status, objective_value=None, assignment={},
                              rounds=rounds, active_constraints=len(active),
                              round_stats=tuple(stats), round_times=tuple(times))
        assignment = res.assignment
        pf = [0.0, *(float(assignment.get(_pvar(i), ZERO)) for i in range(1, n_max + 1)), 0.0]
        lam_of = {v: float(assignment.get(v, ZERO)) for v in lp.variables if v.startswith("lam")}
        candidates = [(viol, fam, t) for fam in lp.families
                      for viol, t in fam.scan(pf, lam_of, tol=1e-12)]
        t2 = time.perf_counter()
        exact: list[tuple[HFamily, tuple]] = []
        for fam in lp.families:
            _, s = fam.scaled_slacks(assignment)
            exact += [(fam, fam.table.tuple_at(k)) for k in np.flatnonzero(s < 0).tolist()]
        times.append(RoundTimes(t1 - t0, t2 - t1, time.perf_counter() - t2))
        violated = set(exact)
        confirmed = sorted((e for e in candidates if e[1:] in violated), key=lambda e: -e[0])
        stats.append(RoundStats(len(active), len(candidates), len(confirmed) or len(exact),
                                res.phase1_pivots, res.phase2_pivots))
        if not exact:
            return LPSolution(status="optimal",
                              objective_value=assignment.get(lp.objective_var, ZERO),
                              assignment=assignment, rounds=rounds,
                              active_constraints=len(active), round_stats=tuple(stats),
                              round_times=tuple(times))
        to_add = [e[1:] for e in confirmed[:50]] or exact[:50]

        # prune inactive previously-added family branches to keep the
        # working set small; structural constraints always stay
        active = [c for c in active if c.label not in added_labels or c.slack(assignment) <= 0]
        labels = {c.label for c in active}
        for fam, t in to_add:
            c = max(fam.branch_constraints(*t), key=lambda r: r.lhs_value(assignment) - r.rhs)
            if c.label not in labels:
                active.append(c)
                labels.add(c.label)
                added_labels.add(c.label)
    raise InvariantError("constraint generation did not converge")


class _Slacks(Mapping):
    """Exact slack per label, built on first read: the structural slacks,
    then each family's tuples in enumeration order, labelled by label_for,
    as Fraction(s, L) from its integer slacks."""

    def __init__(self, structural: dict[str, Fraction],
                 families: list[tuple[HFamily, int, np.ndarray]]):
        self._structural = structural
        self._families = families

    @functools.cached_property
    def _dict(self) -> dict[str, Fraction]:
        slacks = dict(self._structural)
        for fam, L, scaled in self._families:
            for t, s in zip(fam.tuples(), scaled.tolist()):
                slacks[fam.label_for(*t)] = Fraction(s, L)
        return slacks

    def __getitem__(self, label: str) -> Fraction:
        return self._dict[label]

    def __iter__(self) -> Iterator[str]:
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._dict)


@dataclass(frozen=True)
class SlackReport:
    """Exact slacks per label; family labels are at tuple granularity.

    slacks is read-only and built on first read; tight and violated are
    computed up front.
    """

    slacks: Mapping[str, Fraction]
    tight: tuple[str, ...]
    violated: tuple[str, ...]

    @property
    def feasible(self) -> bool:
        return not self.violated


def slack_report(lp: LPInstance, assignment: dict[str, Fraction]) -> SlackReport:
    """Evaluate every constraint exactly at the given assignment.

    Structural constraints report their own slack.  Family constraints
    are reported per tuple: the slack is rhs minus the exact block cost
    h_value, i.e. the minimum over the tuple's branches, taken from the
    family's integer slacks over L.  Only the tuples with slack <= 0 are
    labelled up front, for tight and violated; the per-tuple slacks are
    labelled when the report's slacks are first read.
    """
    structural: dict[str, Fraction] = {}
    tight: list[str] = []
    violated: list[str] = []
    for c in lp.constraints:
        s = c.slack(assignment)
        structural[c.label] = s
        if c.rel == "==":
            if s != 0:
                violated.append(c.label)
            else:
                tight.append(c.label)
        else:
            if s < 0:
                violated.append(c.label)
            elif s == 0:
                tight.append(c.label)
    families = []
    for fam in lp.families:
        L, scaled = fam.scaled_slacks(assignment)
        families.append((fam, L, scaled))
        hits = np.flatnonzero(scaled <= 0)
        for k, s in zip(hits.tolist(), scaled[hits].tolist()):
            (violated if s < 0 else tight).append(fam.label_for(*fam.table.tuple_at(k)))
    return SlackReport(slacks=_Slacks(structural, families),
                       tight=tuple(sorted(tight)), violated=tuple(sorted(violated)))


def extend_assignment(
    lp: LPInstance, probs: FlipProbabilities, lam: Fraction
) -> dict[str, Fraction]:
    """Assignment from a flip vector: p from probs, every lam variable set
    to lam, and x, y set to their smallest feasible values."""
    n_max = lp.meta.get("n_max")
    assignment: dict[str, Fraction] = {}
    for i in range(1, n_max + 1):
        assignment[_pvar(i)] = probs.mass(i)
    for v in lp.variables:
        if v.startswith("lam"):
            assignment[v] = Fraction(lam)
    if "x" in lp.variables:
        assignment["x"] = max(
            (A - 2) * probs.mass(A) for A in range(0, n_max + 2)
        )
    if "y" in lp.variables:
        best = ZERO
        for a in range(0, n_max + 1):
            for b in range(a + 1, n_max + 1):
                best = max(best, g_surrogate(probs, a, b))
        assignment["y"] = best
    return assignment


def solve_float(lp: LPInstance):
    """Cross-check: solve the fully expanded program with scipy (floats).

    Returns (status, objective) where objective is a float.  Intended for
    tests; the exact path never depends on it.
    """
    from scipy.optimize import linprog

    var_index = {v: i for i, v in enumerate(lp.variables)}
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for c in lp.all_constraints():
        row = [0.0] * len(lp.variables)
        for v, coef in c.coeffs:
            row[var_index[v]] += float(coef)
        if c.rel == "==":
            a_eq.append(row)
            b_eq.append(float(c.rhs))
        else:
            a_ub.append(row)
            b_ub.append(float(c.rhs))
    cvec = [0.0] * len(lp.variables)
    cvec[var_index[lp.objective_var]] = 1.0
    res = linprog(
        cvec,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=(0, None),
        method="highs",
    )
    status = "optimal" if res.status == 0 else ("infeasible" if res.status == 2 else "other")
    return status, (float(res.fun) if res.status == 0 else None)


_NAME_RE = re.compile(r"[^A-Za-z0-9_]")


def write_lp_file(lp: LPInstance, path: str) -> int:
    """Write the fully expanded program in CPLEX LP text format, plus a
    JSON sidecar at path + '.json' with exact rational coefficients.
    Returns the number of rows written."""
    used: dict[str, int] = {}

    def safe(label: str) -> str:
        base = _NAME_RE.sub("_", label)
        n = used.get(base, 0)
        used[base] = n + 1
        return base if n == 0 else f"{base}_{n}"

    side = {
        "name": lp.name,
        "variables": list(lp.variables),
        "objective": lp.objective_var,
        "meta": {k: str(v) for k, v in lp.meta.items()},
        "constraints": [],
    }
    with output_file(path) as fh:
        fh.write(f"\\ {lp.name}\nMinimize\n obj: {lp.objective_var}\nSubject To\n")
        for c in lp.all_constraints():
            terms = []
            for v, coef in c.coeffs:
                sign = "+" if coef >= 0 else "-"
                mag = abs(coef)
                coef_txt = f"{float(mag):.17g}"
                terms.append(f"{sign} {coef_txt} {v}")
            rel = "=" if c.rel == "==" else "<="
            fh.write(f" {safe(c.label)}: {' '.join(terms)} {rel} {float(c.rhs):.17g}\n")
            side["constraints"].append(
                {
                    "label": c.label,
                    "coeffs": {v: fraction_str(coef) for v, coef in c.coeffs},
                    "rel": c.rel,
                    "rhs": fraction_str(c.rhs),
                }
            )
        fh.write("Bounds\n")
        for v in lp.variables:
            fh.write(f" 0 <= {v}\n")
        fh.write("End\n")
    with output_file(path + ".json") as fh:
        json.dump(side, fh)
    return len(side["constraints"])


def solution_payload(sol: LPSolution) -> dict:
    """status, objective, assignment and rounds, the rationals as "p/q"."""
    obj = sol.objective_value
    return {
        "status": sol.status,
        "objective": None if obj is None else fraction_str(obj),
        "assignment": {v: fraction_str(x) for v, x in sorted(sol.assignment.items())},
        "rounds": sol.rounds,
    }


def stats_payload(sol: LPSolution) -> dict:
    """The `lp solve --stats` sidecar: each round's work (round_stats) and
    time (round_times), with microseconds per pivot, and the totals."""
    rounds = []
    for k, (work, times) in enumerate(zip(sol.round_stats, sol.round_times), 1):
        pivots = work.phase1_pivots + work.phase2_pivots
        rounds.append({
            "round": k,
            "active_rows": work.active_rows,
            "phase1_pivots": work.phase1_pivots,
            "phase2_pivots": work.phase2_pivots,
            "simplex_s": times.simplex_s,
            "scan_s": times.scan_s,
            "certify_s": times.certify_s,
            "us_per_pivot": times.simplex_s / pivots * 1e6 if pivots else 0.0,
        })
    pivots = sum(r["phase1_pivots"] + r["phase2_pivots"] for r in rounds)
    simplex_s = sum(r["simplex_s"] for r in rounds)
    return {
        "rounds": rounds,
        "pivots": pivots,
        "simplex_s": simplex_s,
        "scan_s": sum(r["scan_s"] for r in rounds),
        "certify_s": sum(r["certify_s"] for r in rounds),
        "us_per_pivot": simplex_s / pivots * 1e6 if pivots else 0.0,
    }


def write_solution(sol: LPSolution, path: str) -> None:
    with output_file(path) as fh:
        json.dump(solution_payload(sol), fh, indent=2)
        fh.write("\n")


def mixing_time_bound(
    n: int, k: int, d: int, lambda_star: Fraction, n_max: int
) -> int:
    """Step bound for the variable-length path argument.

    With alpha = (k - lambda_star d)/(k - d - 2), beta = n k/(k - d - 2)
    and excursion width W = 2 n_max + 1, the bound is
    2 ceil(2 beta W / alpha) ceil(ln n / alpha).  Requires k > d + 2 and
    k > lambda_star d.
    """
    if n < 2:
        raise InputError("need n >= 2")
    if k <= d + 2:
        raise InputError(f"need k > d + 2, got k={k}, d={d}")
    lam = Fraction(lambda_star)
    if k <= lam * d:
        raise InputError(f"need k > lambda_star * d = {lam * d}")
    alpha = (k - lam * d) / (k - d - 2)
    beta = Fraction(n * k, k - d - 2)
    w = 2 * n_max + 1
    first = -((-2 * beta * w) // alpha)  # exact ceil of a Fraction ratio
    return 2 * int(first) * _ceil_ln_over(n, alpha)


def _ceil_ln_over(n: int, alpha: Fraction) -> int:
    """ceil(ln n / alpha) for n >= 2 and rational alpha > 0.

    ln n is irrational, so the ratio is never an integer: the answer is
    the smallest s >= 1 with s * alpha > ln n.  A correctly rounded
    Decimal brackets ln n to within one ulp; the precision doubles until
    s * alpha clears the bracket.
    """
    digits = 60
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            ln_dec = decimal.Decimal(n).ln()
        ln = Fraction(ln_dec)
        err = Fraction(10) ** (ln_dec.adjusted() - digits + 1)  # one ulp
        s = max(1, math.ceil((ln - err) / alpha))
        if s * alpha > ln + err:
            return s
        digits *= 2
