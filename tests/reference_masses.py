"""Fraction-summing sums of the coupled and single-chain laws, and the
terminating predicate: the test oracles for the integer sums and the
moves' flags.

These are the package's earlier sums, which added one Fraction per move
or per flip.  CouplingDistribution and flip_step_distribution now add
integer numerators over L * n * k and make one Fraction per value they
return, so both must give these exact values.  is_terminating recomputes
a move's terminating flag from its flips, the rule CoupledWalk.step
applies inline to each draw.  Only tests import it.
"""

from __future__ import annotations

from fractions import Fraction

from flipdyn.graphs import enumerate_flips, hamming


def _touches_d(pair, f, toward: int, cols: tuple[int, ...]) -> bool:
    """Whether flip f, on the side colored cols, is in D.

    It is when its component holds v, or when it recolors a neighbor of v
    toward `toward`, the other side's disagreement color.
    """
    comp, lo, hi = f
    v = pair.v
    if v in comp:
        return True
    if toward != lo and toward != hi:
        return False
    other = hi if lo == toward else lo
    return any(cols[u] == other for u in pair.graph.adj[v] if u in comp)


def is_terminating(pair, move) -> bool:
    """Recompute the terminating predicate from the move's flips.

    A move terminates iff its sigma flip is rooted at v or is the
    component of a neighbor of v toward tau(v), or symmetrically for the
    tau flip toward sigma(v).
    """
    sf, tf = move.sigma_flip, move.tau_flip
    if sf is not None and _touches_d(pair, sf, pair.t, pair.sigma.colors):
        return True
    return tf is not None and _touches_d(pair, tf, pair.s, pair.tau.colors)


def coupled_sums(dist, pair) -> dict:
    """Both marginals, the total, terminating and no-op masses and the
    expected distance change of a coupled one-step distribution, each
    summed move by move in Fractions."""
    sigma: dict = {}
    tau: dict = {}
    for m in dist.moves:
        if m.sigma_flip is not None:
            sigma[m.sigma_flip] = sigma.get(m.sigma_flip, Fraction(0)) + m.mass
        if m.tau_flip is not None:
            tau[m.tau_flip] = tau.get(m.tau_flip, Fraction(0)) + m.mass
    moved = sum((m.mass for m in dist.moves), Fraction(0))
    noop = 1 - moved
    drift = Fraction(0)
    for m in dist.moves:
        sig, tau_col = m.apply(pair)
        drift += m.mass * (hamming(sig, tau_col) - 1)
    return {
        "sigma_marginal": sigma,
        "tau_marginal": tau,
        "noop_mass": noop,
        "total_mass": noop + moved,
        "terminating_mass": sum((m.mass for m in dist.moves if m.terminating), Fraction(0)),
        "expected_distance_change": drift,
    }


def flip_step_law(g, col, probs) -> dict:
    """The single-chain law from col: p_alpha / (n * k) per flip of
    nonzero mass, and the rest on the None key."""
    nk = g.n * col.k
    out: dict = {}
    total = Fraction(0)
    for key in enumerate_flips(g, col):
        p = probs.mass(len(key[0]))
        if p != 0:
            out[key] = Fraction(p, nk)
            total += out[key]
    out[None] = 1 - total
    return out
