"""One-step greedy coupling of the flip dynamics on a neighboring pair.

For a pair (sigma, tau) differing only at v, with s = sigma(v) and
t = tau(v), most alternating components are identical in the two
colorings and are coupled by the identity.  The difference structure D
collects the rest, and it splits into one block per color.  The block
classes below are the only place that knows the shape of D; moves, the
sigma-side flips of D, difference_sets and signatures are all read off
them, and _blocks(pair) lists them in color order with the disagreement
block last (the move order the walk's sampling table relies on).

A color c outside {s, t} has a generic block.  With u_1 < ... < u_m the
c-colored neighbors of v, the component of v on the sigma side
decomposes exactly as S_sigma(v,c) = {v} + sum of S_tau(u_i, s)
(distinct components counted once; repeated ones are recorded as empty),
and symmetrically on the tau side.  The greedy coupling pairs the big
component on each side against the largest opposite block entry and
couples the rest so that both marginals are exactly the single-coloring
flip distribution.  A color absent from the neighborhood (delta_c = 0) is
the degenerate generic block: both sides are {v}, there are no entries,
and its one move coalesces.

The colors s and t share one disagreement block whose components are the
generic formulas at c = s and c = t, all alternating components: the big
components S_sigma(v,t) and S_tau(v,s), S_sigma(x,t) for each s-colored
neighbor x and S_tau(y,s) for each t-colored neighbor y.  A neighbor's
component is the big one on its side when it reaches v, i.e. when its
{s,t}-component attaches to v both ways.  When none does the two sides
pair independently, which on a proper pair reduces to two singleton
coalescing moves; otherwise the two big components are paired directly
against each other, which keeps every mass nonnegative and both
marginals exact (the per-side pairing used for the generic blocks can go
negative there).

A move is terminating when one of its flips is in D: rooted at v, or the
component of a neighbor of v flipped toward the opposite disagreement
color (_touches_d).  Non-terminating moves never change the Hamming
distance; terminating moves may (including to 0 or above 1), but a
terminating move can also relocate the disagreement to another vertex at
distance 1.

Masses are exact throughout.  A block gives each move's mass as an
integer num over L * n * k, with L = probs.scale the lcm of the vector's
denominators, so its minima and residuals are integer operations;
_coupled makes the CoupledMove, of mass Fraction(num, L * n * k).  A block
also knows what it reads: its colors (s, t and c for a generic block, s
and t for the disagreement block) and N[visited()], the vertices its
searches reached and their neighbors.  Its moves change only when a flip
recolors one of those vertices between colors it tells apart, which is
what lets CoupledWalk keep blocks from one step to the next.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .dynamics import FlipProbabilities
from .errors import CapacityError, InputError, InvariantError
from .graphs import (
    Coloring,
    Graph,
    NeighboringPair,
    alternating_component,
    enumerate_flips,
    flip,
    hamming,
)

# A flip is (vertex set, low color, high color); None stands for "no flip
# on this side".
Flip = tuple[frozenset[int], int, int]
Entries = list[tuple[str, Optional[Flip]]]
# A move of D as a block emits it: (sigma flip, tau flip, num), with num
# the move's mass times probs.scale * n * k, an integer.
RawMove = tuple[Optional[Flip], Optional[Flip], int]


def _mk_flip(vertices: frozenset[int], c1: int, c2: int) -> Flip:
    return (vertices, min(c1, c2), max(c1, c2))


@dataclass(frozen=True)
class CoupledMove:
    """One joint move: a flip (or nothing) on each side, with its mass."""

    sigma_flip: Optional[Flip]
    tau_flip: Optional[Flip]
    mass: Fraction
    terminating: bool

    def apply(self, pair: NeighboringPair) -> tuple[Coloring, Coloring]:
        sig, tau = pair.sigma, pair.tau
        if self.sigma_flip is not None:
            comp, lo, hi = self.sigma_flip
            sig = flip(sig, comp, lo, hi)
        if self.tau_flip is not None:
            comp, lo, hi = self.tau_flip
            tau = flip(tau, comp, lo, hi)
        return sig, tau


@dataclass(frozen=True)
class Signature:
    """Block summary for one color: component sizes seen from both sides.

    For a color c outside {s, t}: A and B are the sizes of the v-rooted
    components on the sigma and tau side, a and b the per-neighbor block
    entry sizes (vertex order, repeats zeroed), i_max and j_max the lowest
    indices attaining max(a) and max(b).

    For c == s the sigma side is empty by definition (A = 0, a all zero);
    B is the size of the v-rooted tau component and b holds the sigma-side
    entries of the s-colored neighbors.  If some {s,t}-component attaches
    to v both ways, the big sigma-side component appears as a b entry
    (once) and j_max maximizes b_j minus one on that entry.  For c == t
    the mirror applies: B = 0, b all zero, and A is the big sigma-side
    component unless it already appears as a b entry of the c == s
    signature, in which case A = 0.
    """

    c: int
    delta: int
    A: int
    B: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    i_max: Optional[int]
    j_max: Optional[int]


def _dedup(sets: list[frozenset[int]]) -> list[frozenset[int]]:
    """Zero out repeats: later occurrences of an equal set become empty."""
    seen: set[frozenset[int]] = set()
    out = []
    for sset in sets:
        if sset and sset in seen:
            out.append(frozenset())
        else:
            if sset:
                seen.add(sset)
            out.append(sset)
    return out


def _emit(out: list[RawMove], sf: Optional[Flip], tf: Optional[Flip], num: int) -> None:
    """Append a terminating move of mass num unless num is zero."""
    if num:
        out.append((sf, tf, num))


def _argmax_lowest(sizes: Sequence[int]) -> int:
    best = 0
    for i in range(1, len(sizes)):
        if sizes[i] > sizes[best]:
            best = i
    return best


class _GenericBlock:
    """Difference block for one color c outside {s, t}.

    An absent color (delta_c = 0) has both sides {v}, no entries and one
    coalescing move; it runs no search.  Its moves depend only on which
    of the colors s, t, c each vertex of N[visited()] carries.
    """

    __slots__ = ("c", "s", "t", "colors", "u", "sv_sigma", "sv_tau", "a_sets", "b_sets",
                 "i_max", "j_max")

    def __init__(self, pair: NeighboringPair, c: int):
        self.c, self.s, self.t = c, pair.s, pair.t
        self.colors = (pair.s, pair.t, c)
        if not pair.delta(c):
            self.u = self.a_sets = self.b_sets = ()
            self.sv_sigma = self.sv_tau = frozenset((pair.v,))
            self.i_max = self.j_max = None
            return
        g, sig, tau, v = pair.graph, pair.sigma, pair.tau, pair.v
        self.u = pair.neighbors_colored(c)
        self.sv_sigma = alternating_component(g, sig, v, c)
        self.sv_tau = alternating_component(g, tau, v, c)
        self.a_sets = _dedup([alternating_component(g, tau, u, pair.s) for u in self.u])
        self.b_sets = _dedup([alternating_component(g, sig, u, pair.t) for u in self.u])
        if len(self.sv_sigma) != 1 + sum(len(x) for x in self.a_sets):
            raise InvariantError(f"block {c}: sigma component does not decompose")
        if len(self.sv_tau) != 1 + sum(len(x) for x in self.b_sets):
            raise InvariantError(f"block {c}: tau component does not decompose")
        self.i_max = _argmax_lowest([len(x) for x in self.a_sets])
        self.j_max = _argmax_lowest([len(x) for x in self.b_sets])

    def visited(self) -> frozenset[int]:
        """Every vertex the block's searches reached, v included."""
        return self.sv_sigma.union(self.sv_tau, *self.a_sets, *self.b_sets)

    def moves(self, probs: FlipProbabilities) -> list[RawMove]:
        s, t, c = self.s, self.t, self.c
        if not self.u:
            # p_1 = 1: v's two singleton flips to c coalesce
            return [(_mk_flip(self.sv_sigma, s, c), _mk_flip(self.sv_tau, t, c), probs.scale)]
        mass = probs.mass_scaled
        pA = mass(len(self.sv_sigma))
        pB = mass(len(self.sv_tau))
        out: list[RawMove] = []
        _emit(out, _mk_flip(self.sv_sigma, s, c), _mk_flip(self.a_sets[self.i_max], c, s), pA)
        _emit(out, _mk_flip(self.b_sets[self.j_max], c, t), _mk_flip(self.sv_tau, t, c), pB)
        for i in range(len(self.u)):
            q = mass(len(self.a_sets[i])) - (pA if i == self.i_max else 0)
            qp = mass(len(self.b_sets[i])) - (pB if i == self.j_max else 0)
            if q < 0 or qp < 0:
                raise InvariantError(
                    f"negative residual mass in block {c}: flip vector not monotone"
                )
            both = min(q, qp)
            a_flip = _mk_flip(self.a_sets[i], c, s)
            b_flip = _mk_flip(self.b_sets[i], c, t)
            _emit(out, b_flip, a_flip, both)
            _emit(out, None, a_flip, q - both)
            _emit(out, b_flip, None, qp - both)
        return out

    def sigma_flips(self) -> list[Flip]:
        c, t = self.c, self.t
        out = [_mk_flip(self.sv_sigma, self.s, c)]
        for bset in self.b_sets:
            if bset:
                out.append(_mk_flip(bset, c, t))
        return out

    def entries(self) -> dict[int, Entries]:
        s, t, c = self.s, self.t, self.c
        out: Entries = [("sigma:v", _mk_flip(self.sv_sigma, s, c)),
                        ("tau:v", _mk_flip(self.sv_tau, t, c))]
        for u, aset, bset in zip(self.u, self.a_sets, self.b_sets):
            out.append((f"tau:u{u}", _mk_flip(aset, c, s) if aset else None))
            out.append((f"sigma:u{u}", _mk_flip(bset, c, t) if bset else None))
        return {c: out}

    def signature(self, c: int) -> Signature:
        if not self.u:
            raise InputError(
                f"color {c} absent from the neighborhood and not a disagreement color"
            )
        return Signature(
            c=c,
            delta=len(self.u),
            A=len(self.sv_sigma),
            B=len(self.sv_tau),
            a=tuple(len(x) for x in self.a_sets),
            b=tuple(len(x) for x in self.b_sets),
            i_max=self.i_max,
            j_max=self.j_max,
        )


def _neighbor_components(
    g: Graph, col: Coloring, nbrs: Sequence[int], c: int, big: frozenset[int]
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Each neighbor's alternating component toward c, and the distinct
    ones other than big in neighbor order.  A neighbor inside big, or
    inside a component already found, reuses it instead of searching."""
    comps: list[frozenset[int]] = []
    pure: list[frozenset[int]] = []
    for u in nbrs:
        comp = big if u in big else next((p for p in pure if u in p), None)
        if comp is None:
            comp = alternating_component(g, col, u, c)
            pure.append(comp)
        comps.append(comp)
    return comps, pure


class _DisagreementBlock:
    """Unified block for the two disagreement colors s and t.  Its moves
    depend only on which of s and t each vertex of N[visited()] carries."""

    def __init__(self, pair: NeighboringPair):
        g, sig, tau, v = pair.graph, pair.sigma, pair.tau, pair.v
        s, t = pair.s, pair.t
        self.s, self.t, self.v = s, t, v
        self.colors = (s, t)
        self.x = pair.neighbors_colored(s)
        self.y = pair.neighbors_colored(t)
        self.lam = alternating_component(g, sig, v, t)
        self.m = alternating_component(g, tau, v, s)
        # the sigma-side component of each s-colored neighbor and the
        # tau-side component of each t-colored one; a neighbor whose
        # {s,t}-component attaches to v both ways lies in the big one
        self.x_sets, self.pure_x = _neighbor_components(g, sig, self.x, t, self.lam)
        self.y_sets, self.pure_y = _neighbor_components(g, tau, self.y, s, self.m)
        self.mixed = any(x in self.lam for x in self.x)

    def visited(self) -> frozenset[int]:
        """v and every {s,t}-component attached to it: each holds an s- or
        t-colored neighbor, so lam and m cover them all."""
        return self.lam | self.m

    def moves(self, probs: FlipProbabilities) -> list[RawMove]:
        s, t = self.s, self.t
        mass = probs.mass_scaled
        p_lam = mass(len(self.lam))
        p_m = mass(len(self.m))
        lam, m = _mk_flip(self.lam, s, t), _mk_flip(self.m, s, t)
        out: list[RawMove] = []

        if self.mixed:
            both = min(p_lam, p_m)
            _emit(out, lam, m, both)
            _emit(out, lam, None, p_lam - both)
            _emit(out, None, m, p_m - both)
            for comp in self.pure_x:
                _emit(out, _mk_flip(comp, s, t), None, mass(len(comp)))
            for comp in self.pure_y:
                _emit(out, None, _mk_flip(comp, s, t), mass(len(comp)))
            return out

        if self.pure_y:
            j_hat = _argmax_lowest([len(comp) for comp in self.pure_y])
            _emit(out, lam, _mk_flip(self.pure_y[j_hat], s, t), p_lam)
            for j, comp in enumerate(self.pure_y):
                residual = mass(len(comp)) - (p_lam if j == j_hat else 0)
                if residual < 0:
                    raise InvariantError("negative residual in disagreement block")
                _emit(out, None, _mk_flip(comp, s, t), residual)
        else:
            _emit(out, lam, None, p_lam)
        if self.pure_x:
            i_hat = _argmax_lowest([len(comp) for comp in self.pure_x])
            _emit(out, _mk_flip(self.pure_x[i_hat], s, t), m, p_m)
            for i, comp in enumerate(self.pure_x):
                residual = mass(len(comp)) - (p_m if i == i_hat else 0)
                if residual < 0:
                    raise InvariantError("negative residual in disagreement block")
                _emit(out, _mk_flip(comp, s, t), None, residual)
        else:
            _emit(out, None, m, p_m)
        return out

    def sigma_flips(self) -> list[Flip]:
        s, t = self.s, self.t
        return [_mk_flip(self.lam, s, t)] + [_mk_flip(x, s, t) for x in self.x_sets]

    def entries(self) -> dict[int, Entries]:
        s, t = self.s, self.t
        s_entries: Entries = [("sigma:v", None), ("tau:v", _mk_flip(self.m, s, t))]
        for u, comp in zip(self.x, self.x_sets):
            s_entries.append((f"tau:u{u}", None))
            s_entries.append((f"sigma:u{u}", _mk_flip(comp, s, t)))
        t_entries: Entries = [("sigma:v", _mk_flip(self.lam, s, t)), ("tau:v", None)]
        for u, comp in zip(self.y, self.y_sets):
            t_entries.append((f"tau:u{u}", _mk_flip(comp, s, t)))
            t_entries.append((f"sigma:u{u}", None))
        return {s: s_entries, t: t_entries}

    def signature(self, c: int) -> Signature:
        v = self.v
        if c == self.s:
            # the big sigma component appears once, as the first mixed
            # neighbor's entry, and counts without v toward j_max
            b_sets = _dedup(self.x_sets)
            b = tuple(len(x) for x in b_sets)
            j_max = _argmax_lowest([len(x) - (v in x) for x in b_sets]) if b else None
            return Signature(c=c, delta=len(self.x), A=0, B=len(self.m),
                             a=(0,) * len(self.x), b=b, i_max=None, j_max=j_max)
        a = tuple(0 if v in x else len(x) for x in _dedup(self.y_sets))
        return Signature(c=c, delta=len(self.y), A=0 if self.mixed else len(self.lam), B=0,
                         a=a, b=(0,) * len(self.y),
                         i_max=_argmax_lowest(a) if a else None, j_max=None)


Block = _GenericBlock | _DisagreementBlock


def _block(pair: NeighboringPair, c: int) -> Block:
    """The block holding color c."""
    if c == pair.s or c == pair.t:
        return _DisagreementBlock(pair)
    return _GenericBlock(pair, c)


def _block_keys(pair: NeighboringPair) -> list[int]:
    """One color per block of D, in move order: the generic colors
    ascending, then s for the disagreement block."""
    s, t = pair.s, pair.t
    return [c for c in range(pair.k) if c != s and c != t] + [s]


def _blocks(pair: NeighboringPair) -> list[Block]:
    """Every block of D: the generic ones in color order, then s and t."""
    return [_block(pair, c) for c in _block_keys(pair)]


def difference_sets(pair: NeighboringPair) -> dict[int, Entries]:
    """The difference structure D as labeled flips per color.

    For each color c the list holds ("sigma:v" / "tau:v") entries for the
    two v-rooted components and ("sigma:u<i>" / "tau:u<i>") entries for
    the per-neighbor block components (empty components appear as None).
    The nonempty flips across all colors are exactly the components
    coupled non-identically.
    """
    out: dict[int, Entries] = {}
    for blk in _blocks(pair):
        out.update(blk.entries())
    return out


def signature(pair: NeighboringPair, c: int) -> Signature:
    """Block summary for color c; defined when delta_c > 0 or c is s or t."""
    if not (0 <= c < pair.k):
        raise InputError(f"color {c} out of range")
    return _block(pair, c).signature(c)


@dataclass(frozen=True)
class CouplingDistribution:
    """Full one-step coupled move list with exact masses."""

    moves: tuple[CoupledMove, ...]
    noop_mass: Fraction

    def total_mass(self) -> Fraction:
        return self.noop_mass + sum((m.mass for m in self.moves), Fraction(0))

    def sigma_marginal(self) -> dict[Flip, Fraction]:
        out: dict[Flip, Fraction] = {}
        for m in self.moves:
            if m.sigma_flip is not None:
                out[m.sigma_flip] = out.get(m.sigma_flip, Fraction(0)) + m.mass
        return out

    def tau_marginal(self) -> dict[Flip, Fraction]:
        out: dict[Flip, Fraction] = {}
        for m in self.moves:
            if m.tau_flip is not None:
                out[m.tau_flip] = out.get(m.tau_flip, Fraction(0)) + m.mass
        return out

    def terminating_mass(self) -> Fraction:
        return sum((m.mass for m in self.moves if m.terminating), Fraction(0))


def _coupled(move: RawMove, den: int) -> CoupledMove:
    """A block's move with its exact mass num / den, den = scale * n * k."""
    sf, tf, num = move
    return CoupledMove(sf, tf, Fraction(num, den), True)


def _difference_raw(
    pair: NeighboringPair, probs: FlipProbabilities
) -> tuple[list[RawMove], set[Flip]]:
    """All non-identity moves as blocks emit them, plus the sigma-side
    flip identities in D."""
    moves: list[RawMove] = []
    sigma_labels: set[Flip] = set()
    for blk in _blocks(pair):
        moves.extend(blk.moves(probs))
        sigma_labels.update(blk.sigma_flips())
    return moves, sigma_labels


def _difference_moves(
    pair: NeighboringPair, probs: FlipProbabilities
) -> tuple[list[CoupledMove], set[Flip]]:
    """All non-identity moves with their exact masses, plus the
    sigma-side flip identities in D."""
    den = probs.scale * pair.graph.n * pair.k
    moves, sigma_labels = _difference_raw(pair, probs)
    return [_coupled(m, den) for m in moves], sigma_labels


def greedy_coupling_distribution(
    pair: NeighboringPair, probs: FlipProbabilities
) -> CouplingDistribution:
    """The complete coupled one-step distribution for a neighboring pair.

    Both marginals equal the single-coloring flip distribution exactly;
    tests enforce this on exhaustive small instances.  Moves of mass zero
    are omitted, as are flips the probability vector never performs.
    """
    den = probs.scale * pair.graph.n * pair.k
    raw, sigma_labels = _difference_raw(pair, probs)
    used = sum(num for _, _, num in raw)
    moves = [_coupled(m, den) for m in raw]
    for f in enumerate_flips(pair.graph, pair.sigma):
        if f in sigma_labels:
            continue
        num = probs.mass_scaled(len(f[0]))
        if num:
            used += num
            moves.append(CoupledMove(f, f, Fraction(num, den), False))
    # the total mass used / den, checked exactly in integers
    if used > den:
        raise InvariantError("coupled move masses exceed 1")
    return CouplingDistribution(moves=tuple(moves), noop_mass=Fraction(den - used, den))


def _touches_d(pair: NeighboringPair, f: Flip, toward: int, cols: tuple[int, ...]) -> bool:
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


def is_terminating(pair: NeighboringPair, move: CoupledMove) -> bool:
    """Recompute the terminating predicate from the move's flips.

    A move terminates iff its sigma flip is rooted at v or is the
    component of a neighbor of v toward tau(v), or symmetrically for the
    tau flip toward sigma(v).
    """
    sf, tf = move.sigma_flip, move.tau_flip
    if sf is not None and _touches_d(pair, sf, pair.t, pair.sigma.colors):
        return True
    return tf is not None and _touches_d(pair, tf, pair.s, pair.tau.colors)


def terminating_mass(pair: NeighboringPair, probs: FlipProbabilities) -> Fraction:
    """Exact probability that one coupled step performs a terminating move."""
    return greedy_coupling_distribution(pair, probs).terminating_mass()


def expected_distance_change(pair: NeighboringPair, probs: FlipProbabilities) -> Fraction:
    """Exact E[hamming after one coupled step] - 1."""
    total = Fraction(0)
    for m in greedy_coupling_distribution(pair, probs).moves:
        sig, tau = m.apply(pair)
        total += m.mass * (hamming(sig, tau) - 1)
    return total


@dataclass(frozen=True)
class TerminationRecord:
    """Outcome of running the coupling until the distance leaves 1."""

    t_stop: int
    final_sigma: Coloring
    final_tau: Coloring
    final_distance: int
    pre_stop_sigma: Coloring
    pre_stop_tau: Coloring


# Draws per refill of the walk's random batch.  The walk consumes the
# batch in order, so every seeded stream depends on this value.
_BATCH = 4096


def _closed_neighborhood(g: Graph, vertices: frozenset[int]) -> frozenset[int]:
    out = set(vertices)
    for w in vertices:
        out.update(g.adj[w])
    return frozenset(out)


class _CachedBlock:
    """One block as the walk keeps it between rebuilds: what it reads,
    its moves with integer masses, their floats, and its sigma-side
    draws (the distinct draws that select one of its sigma flips)."""

    __slots__ = ("reads", "colors", "moves", "floats", "total", "draws")

    def __init__(self, blk: Block, g: Graph, probs: FlipProbabilities, den: int):
        self.reads = _closed_neighborhood(g, blk.visited())
        self.colors = blk.colors
        self.moves = blk.moves(probs)
        self.floats = [num / den for _, _, num in self.moves]
        self.total = sum(num for _, _, num in self.moves)
        self.draws = sum(len(f[0]) for f in set(blk.sigma_flips()))

    def stale_after(self, comp: frozenset[int], lo: int, hi: int) -> bool:
        """Whether flipping comp between lo and hi can change the block:
        only when it recolors a vertex the block reads, between colors it
        tells apart."""
        colors = self.colors
        return (lo in colors or hi in colors) and not comp.isdisjoint(self.reads)


class CoupledWalk:
    """Mutable coupled trajectory with an exact-per-step fast sampler.

    Draws (vertex, color) uniformly like the single chain.  A draw whose
    sigma-side component is coupled by the identity flips both colorings
    together with the usual acceptance coin; draws that select difference
    structure instead fall into one combined class from which the moves of
    D are emitted with their exact masses.  The emission probabilities are
    mass / Q where Q is the total probability of the combined class
    (same-color draws plus draws selecting a sigma-side component of D),
    which always bounds the total mass of D; the bound is checked exactly,
    in integers, at every rebuild.

    The sampling table is built from the blocks of D, which the walk keeps
    between rebuilds.  An identity flip of S between colors lo and hi
    drops only the blocks that tell lo or hi apart from other colors and
    read a vertex of S (stale_after); a move of D drops them all, since v,
    s and t may change.  A rebuild builds the dropped blocks alone, then
    concatenates every block's moves in _blocks order.  Masses are
    integers over L * n * k (L = probs.scale), so the table's floats are
    num / (L * n * k), bit-identical to float(mass); the exact Fraction
    is made only for the move a step returns.  blocks_built and
    blocks_reused count the blocks each rebuild built and kept.
    """

    def __init__(self, pair: NeighboringPair, probs: FlipProbabilities, rng):
        self.g = pair.graph
        self.k = pair.k
        self.n = pair.graph.n
        self.nk = self.n * self.k
        self.probs = probs
        self.rng = rng
        self.pair = pair
        self.steps = 0
        self.blocks_built = 0
        self.blocks_reused = 0
        self._final = None
        self._den = probs.scale * self.nk
        # None: every block dropped; otherwise one entry per _block_keys
        # color, None where that block was dropped
        self._cache: Optional[list[Optional[_CachedBlock]]] = None
        self._keys: list[int] = []
        self._dirty = True
        self._moves: list[RawMove] = []
        self._move_cum: list[float] = []
        self._q = 0.0
        self._idx = _BATCH  # force refill
        self._vs = self._cs = self._us = None

    def _refill(self):
        self._vs = self.rng.integers(self.n, size=_BATCH)
        self._cs = self.rng.integers(self.k, size=_BATCH)
        self._us = self.rng.random(size=_BATCH)
        self._idx = 0

    def _drop(self, comp: frozenset[int], lo: int, hi: int) -> None:
        """Drop the cached blocks an identity flip of comp may change."""
        cache = self._cache
        if cache is None:
            return
        for i, entry in enumerate(cache):
            if entry is not None and entry.stale_after(comp, lo, hi):
                cache[i] = None
                self._dirty = True

    def _rebuild(self):
        if self._cache is None:
            self._keys = _block_keys(self.pair)
            self._cache = [None] * len(self._keys)
        cache = self._cache
        moves: list[RawMove] = []
        floats: list[float] = []
        used = 0
        q_draws = self.n
        for i, entry in enumerate(cache):
            if entry is None:
                entry = cache[i] = _CachedBlock(
                    _block(self.pair, self._keys[i]), self.g, self.probs, self._den)
                self.blocks_built += 1
            else:
                self.blocks_reused += 1
            moves += entry.moves
            floats += entry.floats
            used += entry.total
            q_draws += entry.draws
        # the mass of D, used / den, within its draw budget q_draws / nk
        if used > self.probs.scale * q_draws:
            raise InvariantError("difference mass exceeds its draw budget")
        self._moves = moves
        self._q = q_draws / self.nk
        self._move_cum = list(itertools.accumulate(floats))
        self._dirty = False

    def step(self) -> Optional[CoupledMove]:
        """Advance one step; returns the applied move, or None for a no-op."""
        if self._idx >= _BATCH:
            self._refill()
        x = int(self._vs[self._idx])
        c = int(self._cs[self._idx])
        u = float(self._us[self._idx])
        self._idx += 1
        self.steps += 1

        cols = self.pair.sigma.colors
        if c == cols[x]:
            in_d = True
        else:
            comp = alternating_component(self.g, self.pair.sigma, x, c)
            drawn = _mk_flip(comp, cols[x], c)
            in_d = _touches_d(self.pair, drawn, self.pair.t, cols)

        if not in_d:
            alpha = len(comp)
            p = self.probs.mass_float(alpha)
            if p > 0 and u < p / alpha:
                _, lo, hi = drawn
                sig = flip(self.pair.sigma, comp, lo, hi)
                tau = flip(self.pair.tau, comp, lo, hi)
                self.pair = NeighboringPair(self.g, sig, tau)
                self._drop(comp, lo, hi)
                return CoupledMove(drawn, drawn, Fraction(0), False)
            return None

        if self._dirty:
            self._rebuild()
        i = bisect.bisect_right(self._move_cum, u * self._q)
        if i >= len(self._moves):
            return None
        move = _coupled(self._moves[i], self._den)
        sig, tau = move.apply(self.pair)
        self._cache = None
        self._dirty = True
        d = hamming(sig, tau)
        if d == 1:
            self.pair = NeighboringPair(self.g, sig, tau)
            return move
        # distance left 1: store the final colorings without pair wrapping
        self._final = (sig, tau, d)
        return move

    def run_until_distance_change(self, step_cap: int) -> TerminationRecord:
        self._final = None
        while self._final is None:
            if self.steps >= step_cap:
                raise CapacityError(f"no distance change within {step_cap} steps")
            before = self.pair
            self.step()
        sig, tau, d = self._final
        return TerminationRecord(
            t_stop=self.steps,
            final_sigma=sig,
            final_tau=tau,
            final_distance=d,
            pre_stop_sigma=before.sigma,
            pre_stop_tau=before.tau,
        )


def variable_length_coupling(
    pair: NeighboringPair,
    probs: FlipProbabilities,
    rng,
    step_cap: Optional[int] = None,
) -> TerminationRecord:
    """Run the coupled chain from a neighboring pair until the distance
    leaves 1 (coalescence or growth), and report when and how it ended.

    Terminating moves can relocate the disagreement vertex while keeping
    the distance at 1; the walk continues through those.  step_cap
    defaults to 100 * n * k and a walk exceeding it raises CapacityError.
    """
    if step_cap is None:
        step_cap = 100 * pair.graph.n * pair.k
    walk = CoupledWalk(pair, probs, rng)
    return walk.run_until_distance_change(step_cap)
