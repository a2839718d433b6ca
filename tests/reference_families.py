"""Per-tuple float scan: the test oracle for HFamily.scan.

This is the package's earlier family scan, a Python loop that evaluates
the min-form of H one tuple at a time in floats.  HFamily.scan evaluates
the same formula over the family's cached tuple table, column by column,
in the same order of operations, so both must return the same list: the
same tuples in enumeration order with bit-identical violations.  Only
tests import it.
"""

from __future__ import annotations


def scan(fam, pf: list[float], lam_of: dict[str, float], tol: float) -> list[tuple[float, tuple]]:
    """(violation, tuple) for every tuple of fam with violation > tol."""
    m = fam.m
    out = []

    def pfv(alpha: int) -> float:
        return pf[alpha] if 0 <= alpha < len(pf) else 0.0

    for a, b, A, B in fam.tuples():
        i_max = max(range(m), key=lambda i: (a[i], -i))
        j_max = max(range(m), key=lambda i: (b[i], -i))
        pA, pB = pfv(A), pfv(B)
        h = (A - a[i_max] - 1) * pA + (B - b[j_max] - 1) * pB
        for i in range(m):
            q = pfv(a[i]) - (pA if i == i_max else 0.0)
            qp = pfv(b[i]) - (pB if i == j_max else 0.0)
            h += a[i] * q + b[i] * qp - min(q, qp)
        rhs = -1.0 + m * lam_of[fam.lam_var_for(a, b, A, B)]
        if h - rhs > tol:
            out.append((h - rhs, (a, b, A, B)))
    return out
