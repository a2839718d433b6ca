"""Fraction-summing sums of the coupled and single-chain laws: the test
oracle for the integer sums.

These are the package's earlier sums, which added one Fraction per move
or per flip.  CouplingDistribution and flip_step_distribution now add
integer numerators over L * n * k and make one Fraction per value they
return, so both must give these exact values.  Only tests import it.
"""

from __future__ import annotations

from fractions import Fraction

from flipdyn.graphs import enumerate_flips, hamming


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
