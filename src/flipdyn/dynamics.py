"""Flip dynamics on colorings: probability vectors and single-chain steps.

One step of the dynamics: draw a vertex v and color c uniformly (n*k
draws), form the alternating component S = S(col, v, c) of size alpha,
and flip it with probability p_alpha / alpha.  Because a component of
size alpha is selected by exactly alpha draws, each distinct flip is
applied with total probability p_alpha / (n*k).  flip_step_distribution
sums these exactly as integers p_alpha * L over L * n * k (L =
FlipProbabilities.scale) and makes one Fraction per flip and one for
the no-op mass.

A flip probability vector fixes p_1 = 1, is nonincreasing, nonnegative,
satisfies alpha * p_alpha <= 1, and vanishes above a finite support bound
n_max (p_0 = 0 by convention).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import CapacityError, InputError, output_file
from .graphs import Coloring, Graph, alternating_component, enumerate_flips, flip, is_proper

RationalLike = Union[int, str, Fraction]

# Fraction(num, den) for the integer masses of a law.  A law's values
# repeat across flips and pairs, so most calls hit, and two laws with an
# equal mass hold the same object, which dict equality compares by
# identity first.
fraction_of = functools.lru_cache(maxsize=4096)(Fraction)


def _to_fraction(x: RationalLike) -> Fraction:
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError):
        raise InputError(f"cannot parse rational value {x!r}") from None


def fraction_str(x: Fraction) -> str:
    """x as "p/q" in lowest terms (q = 1 included), the form _to_fraction reads."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class FlipProbabilities:
    """A validated flip probability vector with finite support.

    values[i] is p_{i+1}; everything beyond the stored values (and p_0)
    is zero.  Use mass(alpha) for safe 0-padded access.

    scale is L, the lcm of the denominators: every p_alpha * L is an
    integer (mass_scaled), so sums and minima of masses can be taken in
    integers over one common denominator.
    """

    values: tuple[Fraction, ...]
    _floats: tuple[float, ...] = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)
    _scaled: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.values:
            raise InputError("probability vector is empty")
        if self.values[0] != 1:
            raise InputError("p_1 must equal 1")
        prev = Fraction(1)
        for i, p in enumerate(self.values, start=1):
            if not isinstance(p, Fraction):
                raise InputError("probability entries must be Fractions")
            if p < 0:
                raise InputError(f"p_{i} = {p} is negative")
            if p > prev:
                raise InputError(f"p_{i} = {p} exceeds p_{i - 1} = {prev}")
            if i * p > 1:
                raise InputError(f"{i} * p_{i} = {i * p} exceeds 1")
            prev = p
        object.__setattr__(self, "_floats", tuple(float(p) for p in self.values))
        scale = math.lcm(*(p.denominator for p in self.values))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_scaled",
                           tuple(p.numerator * (scale // p.denominator) for p in self.values))

    @property
    def n_max(self) -> int:
        """Largest alpha with p_alpha possibly nonzero (the stored length)."""
        return len(self.values)

    def mass(self, alpha: int) -> Fraction:
        """p_alpha as an exact rational, zero outside 1..n_max."""
        if 1 <= alpha <= len(self.values):
            return self.values[alpha - 1]
        return Fraction(0)

    def mass_scaled(self, alpha: int) -> int:
        """p_alpha * scale, an integer; zero outside 1..n_max."""
        if 1 <= alpha <= len(self._scaled):
            return self._scaled[alpha - 1]
        return 0

    def mass_float(self, alpha: int) -> float:
        if 1 <= alpha <= len(self._floats):
            return self._floats[alpha - 1]
        return 0.0

    @staticmethod
    def from_values(vals: Iterable[RationalLike]) -> "FlipProbabilities":
        fracs = [_to_fraction(v) for v in vals]
        while fracs and fracs[-1] == 0:
            fracs.pop()
        if not fracs:
            raise InputError("probability vector has no nonzero entries")
        return FlipProbabilities(tuple(fracs))

    def to_json(self) -> str:
        return json.dumps({"p": [fraction_str(p) for p in self.values]})

    @staticmethod
    def from_json(text: str) -> "FlipProbabilities":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise InputError(f"bad probability JSON: {e}") from None
        if not isinstance(obj, dict) or "p" not in obj or not isinstance(obj["p"], list):
            raise InputError('probability JSON must be {"p": [...]}')
        return FlipProbabilities.from_values(obj["p"])

    @staticmethod
    def load(path: str) -> "FlipProbabilities":
        try:
            with open(path) as fh:
                return FlipProbabilities.from_json(fh.read())
        except OSError as e:
            raise InputError(f"cannot read {path}: {e}") from None

    def save(self, path: str) -> None:
        with output_file(path) as fh:
            fh.write(self.to_json() + "\n")


def vigoda_vector() -> FlipProbabilities:
    """The classical hand-tuned vector attaining the 11/6 threshold."""
    return FlipProbabilities.from_values(
        ["1", "13/42", "1/6", "2/21", "1/21", "1/84"]
    )


def alt_vector() -> FlipProbabilities:
    """The alternative exact optimizer of the same one-step program."""
    return FlipProbabilities.from_values(
        ["1", "463/1500", "1/6", "287/3000", "29/600", "71/3000"]
    )


# Exact optimizer of the mixed program at gamma = 25597784/10^6, n_max = 6,
# m_star = 3, with the shifted cap enabled; the objective there is
# 402041483/219306718 < 1.833239.  The optimizing vector need not be unique,
# but the solver is deterministic, so these values are regression-tested by
# re-solving in tests/test_lp.py.
MIXED_VECTOR_VALUES = (
    "1",
    "455487051/1535147026",
    "36571953/219306718",
    "156261981/1535147026",
    "89767521/1535147026",
    "19948338/767573513",
)


def mixed_vector() -> FlipProbabilities:
    """Frozen exact solution of the mixed program (threshold < 1.833239)."""
    return FlipProbabilities.from_values(MIXED_VECTOR_VALUES)


PRESET_VECTORS = {
    "vigoda": vigoda_vector,
    "alt": alt_vector,
    "mixed": mixed_vector,
}


def resolve_probabilities(spec: str) -> FlipProbabilities:
    """Turn a preset name or a JSON file path into a probability vector."""
    if spec in PRESET_VECTORS:
        return PRESET_VECTORS[spec]()
    return FlipProbabilities.load(spec)


def flip_step(
    g: Graph, col: Coloring, probs: FlipProbabilities, rng
) -> Coloring:
    """One step of the flip dynamics; returns the (possibly unchanged) coloring."""
    v = int(rng.integers(g.n))
    c = int(rng.integers(col.k))
    base = col.colors[v]
    if c == base:
        return col
    comp = alternating_component(g, col, v, c)
    alpha = len(comp)
    p = probs.mass_float(alpha)
    if p == 0.0:
        return col
    if rng.random() < p / alpha:
        return flip(col, comp, base, c)
    return col


def flip_step_distribution(
    g: Graph, col: Coloring, probs: FlipProbabilities
) -> dict[Optional[tuple[frozenset[int], int, int]], Fraction]:
    """Exact one-step transition distribution from col, keyed by flip.

    Each distinct flip with nonzero probability maps to p_alpha/(n*k);
    the None key carries the remaining no-op mass.  Zero-mass flips are
    omitted.  The no-op mass is at least 1/k: the flip sizes sum to n(k-1)
    and p_alpha <= 1 <= alpha.
    """
    den = probs.scale * g.n * col.k
    out: dict[Optional[tuple[frozenset[int], int, int]], Fraction] = {}
    used = 0
    for key in enumerate_flips(g, col):
        num = probs.mass_scaled(len(key[0]))
        if num:
            out[key] = fraction_of(num, den)
            used += num
    out[None] = Fraction(den - used, den)
    return out


@dataclass(frozen=True)
class StationaryReport:
    """Result of the brute-force reversibility check on a tiny instance."""

    n_states: int
    proper_states: int
    reachable_proper: int
    symmetric_pairs_checked: int
    symmetry_ok: bool
    stochastic_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.symmetry_ok and self.stochastic_ok


def stationary_check_tiny(
    g: Graph, k: int, probs: FlipProbabilities, state_cap: int = 10**6
) -> StationaryReport:
    """Verify uniformity evidence on the full k^n state space of a tiny graph.

    Checks, in exact rational arithmetic: (a) P(x -> y) = P(y -> x) for
    every ordered pair of distinct proper colorings, and (b) every row of
    the transition kernel is stochastic: no flip has negative mass, and the
    no-op mass, 1 minus the flips' total, is at least 1/k (the bound
    flip_step_distribution states).  Symmetry is asserted for proper
    states only: flips from an improper state can merge with monochromatic
    structure when reversed, and the chain restricted to proper states is
    what the uniform-stationarity argument needs (proper states are closed
    under flips of proper colorings).  Also reports the size of the
    reachable proper class from the lexicographically first proper state.
    """
    if k < 1:
        raise InputError("k must be positive")
    n_states = k**g.n
    if n_states > state_cap:
        raise CapacityError(f"state space {k}^{g.n} = {n_states} exceeds cap {state_cap}")

    failures: list[str] = []
    sym_ok = stoch_ok = True
    transitions: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    proper_states: list[tuple[int, ...]] = []
    for state in itertools.product(range(k), repeat=g.n):
        col = Coloring(state, k)
        dist = flip_step_distribution(g, col, probs)
        flips = [(key, mass) for key, mass in dist.items() if key is not None]
        noop = 1 - sum(mass for _, mass in flips)
        row: dict[tuple[int, ...], Fraction] = {state: noop}
        for (comp, lo, hi), mass in flips:
            tgt = flip(col, comp, lo, hi).colors
            row[tgt] = row.get(tgt, Fraction(0)) + mass
        transitions[state] = row
        if noop < Fraction(1, k) or any(mass < 0 for _, mass in flips):
            stoch_ok = False
            failures.append(f"row not stochastic at state {state}")
        if is_proper(g, col):
            proper_states.append(state)

    pairs_checked = 0
    for i, x in enumerate(proper_states):
        for y in proper_states[i + 1 :]:
            pairs_checked += 1
            fwd = transitions[x].get(y, Fraction(0))
            bwd = transitions[y].get(x, Fraction(0))
            if fwd != bwd:
                sym_ok = False
                failures.append(f"asymmetry {x} -> {y}: {fwd} vs {bwd}")

    reachable = 0
    if proper_states:
        start = proper_states[0]
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y, mass in transitions[x].items():
                if mass > 0 and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if any(not is_proper(g, Coloring(sstate, k)) for sstate in seen):
            sym_ok = False
            failures.append("proper class not closed under flips")
        reachable = len(seen)

    return StationaryReport(
        n_states=n_states,
        proper_states=len(proper_states),
        reachable_proper=reachable,
        symmetric_pairs_checked=pairs_checked,
        symmetry_ok=sym_ok,
        stochastic_ok=stoch_ok,
        failures=tuple(failures),
    )
