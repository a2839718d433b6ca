"""One-step greedy coupling of the flip dynamics on a neighboring pair.

For a pair (sigma, tau) differing only at v, with s = sigma(v) and
t = tau(v), most alternating components are identical in the two
colorings and are coupled by the identity.  The difference structure D
collects the rest, and it splits into one block per color.  The block
classes below are the only place that knows the shape of D; moves, the
sigma-side flips of D and signatures are all read off them, and
_block_keys(pair) orders them by color with the disagreement block last
(the move order the walk's sampling table relies on).

A color c outside {s, t} has a generic block.  With u_1 < ... < u_m the
c-colored neighbors of v, the component of v on the sigma side
decomposes exactly as S_sigma(v,c) = {v} + sum of S_tau(u_i, s)
(distinct components counted once; repeated ones are recorded as empty),
and symmetrically on the tau side, on improper pairs too.  This is how
the block is built, in one pass over u_1 < ... < u_m: each neighbor's a
and b entries are searched together, a neighbor inside an earlier entry
repeats it and records an empty one, and each v-rooted component is {v}
plus the union of its side's entries.  The greedy coupling
pairs the big component on each side against the largest opposite block
entry and couples the rest so that both marginals are exactly the
single-coloring flip distribution.  A color absent from the neighborhood
(delta_c = 0) is the degenerate generic block: both sides are {v}, there
are no entries, and its one move coalesces.

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
color.  Every move a block emits is, and CoupledWalk.step applies the
rule inline to each draw it tests.  Non-terminating moves never change
the Hamming distance; terminating moves may (including to 0 or above 1),
but a terminating move can also relocate the disagreement to another
vertex at distance 1.

Masses are exact throughout, and integers until they are read.  Every
move carries its mass as an integer num over den = L * n * k, with
L = probs.scale the lcm of the vector's denominators, so a block's
minima and residuals, the marginals and the totals are integer sums;
CoupledMove.mass and the CouplingDistribution sums make one Fraction per
value they return.  A generic block's moves read the scaled masses once
and write each min split inline.  Two caches skip repeated work.  A
one-entry cache, compared by identity first, keeps the sigma side's
identity moves, prebuilt as CoupledMoves, for the last (graph, sigma,
probs) greedy_coupling_distribution saw (_FLIPS), since consecutive
pairs of a sweep share sigma and the vector, and each pair only drops
those whose flip is in D.  When it misses, the flips come from
enumerate_flips' table for that coloring (graphs._TABLES), which the
single-chain law of the same coloring reads as well, so a sweep searches
each coloring once per graph.  The walk calls neither; its tables travel
as arguments instead: a walk may copy a
start walk's table and absent-color entries (start_walk) rather than
build its first ones, and its TerminationRecord carries the table its
last move of D was drawn from, from which signature reads the pre-stop
pair's blocks when handed it (a stage walk hands it the blocks it keeps).

A block reads only its colors (s, t and c for a generic block, s and t
for the disagreement block) on N[visited()], the vertices its searches
reached and their neighbors.  Its moves change only when a flip
recolors one of those vertices between colors it tells apart, which is
what lets CoupledWalk keep blocks from one step to the next.  The walk
tests this from the flip's side, N[S] against visited(), which is the
same relation.  It flips identity draws in place, on a list of sigma's
colors and a list of v's neighbor counts, and builds its
NeighboringPair only when something reads it.

A draw of the walk's combined class that finds a dropped block first
asks whether it lands past every move of D, a no-op
(CoupledWalk._past_d).  Kept blocks give their exact totals and draws,
and dropped ones bounds read off v's neighbor counts (_dropped_bounds):
a lower bound on the draws, which scale the draw, and an upper bound on
the mass, which ends the table's cumulative floats.  One exact integer
comparison, which allows for how the floats round, decides; such a draw
returns None without a rebuild, and any other rebuilds and samples as
before, so a table is built only for a draw the bounds cannot place
past D.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .dynamics import FlipProbabilities, fraction_of
from .errors import CapacityError, InputError, InvariantError
from .graphs import (
    Coloring,
    Graph,
    NeighboringPair,
    _component,
    alternating_component,
    enumerate_flips,
    flip,
    hamming,
)

# A flip is (vertex set, low color, high color); None stands for "no flip
# on this side".
Flip = tuple[frozenset[int], int, int]
# A move of D as a block emits it: (sigma flip, tau flip, num), with num
# the move's mass times probs.scale * n * k, an integer.
RawMove = tuple[Optional[Flip], Optional[Flip], int]
_EMPTY: frozenset[int] = frozenset()
# tuple.__new__(CoupledMove, fields) builds a move without the Python-level
# __new__ of a NamedTuple (see CoupledMove)
_new = tuple.__new__


class CoupledMove(NamedTuple):
    """One joint move: a flip (or nothing) on each side, with its mass
    num / den.  The exact law and the walk build their moves with
    tuple.__new__(CoupledMove, fields), the same tuple at about half the
    cost of the Python-level __new__ of a NamedTuple."""

    sigma_flip: Optional[Flip]
    tau_flip: Optional[Flip]
    num: int
    den: int
    terminating: bool

    @property
    def mass(self) -> Fraction:
        return Fraction(self.num, self.den)

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

    The block searches only its per-neighbor entries and takes the two
    v-rooted components from them: S_sigma(v,c) = {v} + the a entries and
    S_tau(v,c) = {v} + the b entries.  An absent color (delta_c = 0) has
    both sides {v}, no entries and one coalescing move; it runs no search.
    Its moves depend only on which of the colors s, t, c each vertex of
    N[visited()] carries.
    """

    __slots__ = ("c", "s", "t", "u", "sv_sigma", "sv_tau", "a_sets", "b_sets", "i_max",
                 "j_max")

    def __init__(self, pair: NeighboringPair, c: int, absent: bool = False):
        """The block of c at pair; absent builds it as if no neighbor of v
        carried c, which gives the block of every pair with this v, s and
        t where delta_c = 0."""
        s, t, v = pair.s, pair.t, pair.v
        self.c, self.s, self.t = c, s, t
        if absent or not pair._delta[c]:
            self.u = self.a_sets = self.b_sets = ()
            self.sv_sigma = self.sv_tau = frozenset((v,))
            self.i_max = self.j_max = None
            return
        g, sig, tau = pair.graph, pair.sigma, pair.tau
        cols = sig.colors
        u: list[int] = []
        a_sets: list[frozenset[int]] = []
        b_sets: list[frozenset[int]] = []
        # {v} plus the entries so far: a neighbor inside one repeats that
        # entry's component, and its own entry stays empty
        sv_sigma, sv_tau = {v}, {v}
        i_max = j_max = 0
        a_top = b_top = -1
        for w in g.adj[v]:
            if cols[w] != c:
                continue
            if w in sv_sigma:
                aset = _EMPTY
            else:
                aset = alternating_component(g, tau, w, s)
                sv_sigma.update(aset)
            if w in sv_tau:
                bset = _EMPTY
            else:
                bset = alternating_component(g, sig, w, t)
                sv_tau.update(bset)
            # the lowest index attaining each maximum
            if len(aset) > a_top:
                a_top, i_max = len(aset), len(u)
            if len(bset) > b_top:
                b_top, j_max = len(bset), len(u)
            u.append(w)
            a_sets.append(aset)
            b_sets.append(bset)
        self.u = tuple(u)
        self.a_sets, self.b_sets = a_sets, b_sets
        self.sv_sigma, self.sv_tau = frozenset(sv_sigma), frozenset(sv_tau)
        self.i_max, self.j_max = i_max, j_max

    def visited(self) -> frozenset[int]:
        """Every vertex the block's searches reached, v included."""
        return self.sv_sigma | self.sv_tau

    def draws(self) -> int:
        """The distinct draws that select one of the block's sigma flips."""
        return len(self.sv_sigma) + sum(map(len, self.b_sets))

    def moves(self, probs: FlipProbabilities) -> list[RawMove]:
        s, t, c = self.s, self.t, self.c
        s_lo, s_hi = (s, c) if s < c else (c, s)
        t_lo, t_hi = (t, c) if t < c else (c, t)
        v_sigma = (self.sv_sigma, s_lo, s_hi)
        v_tau = (self.sv_tau, t_lo, t_hi)
        if not self.u:
            # p_1 = 1: v's two singleton flips to c coalesce
            return [(v_sigma, v_tau, probs.scale)]
        # mass_scaled read inline: p_alpha * scale for 1 <= alpha <= top
        scaled = probs._scaled
        top = len(scaled)
        a_flips = [(aset, s_lo, s_hi) for aset in self.a_sets]
        b_flips = [(bset, t_lo, t_hi) for bset in self.b_sets]
        i_max, j_max = self.i_max, self.j_max
        size = len(self.sv_sigma)
        pA = scaled[size - 1] if size <= top else 0
        size = len(self.sv_tau)
        pB = scaled[size - 1] if size <= top else 0
        out: list[RawMove] = []
        if pA:
            out.append((v_sigma, a_flips[i_max], pA))
        if pB:
            out.append((b_flips[j_max], v_tau, pB))
        for i, (a_flip, b_flip) in enumerate(zip(a_flips, b_flips)):
            size = len(a_flip[0])
            q = scaled[size - 1] if 0 < size <= top else 0
            if i == i_max:
                q -= pA
            size = len(b_flip[0])
            qp = scaled[size - 1] if 0 < size <= top else 0
            if i == j_max:
                qp -= pB
            # min(q, qp) on both sides, then the residual on the larger one
            if q <= qp:
                if q:
                    out.append((b_flip, a_flip, q))
                if qp != q:
                    out.append((b_flip, None, qp - q))
            else:
                if qp:
                    out.append((b_flip, a_flip, qp))
                out.append((None, a_flip, q - qp))
        return out

    def sigma_flips(self) -> list[Flip]:
        s, t, c = self.s, self.t, self.c
        s_lo, s_hi = (s, c) if s < c else (c, s)
        t_lo, t_hi = (t, c) if t < c else (c, t)
        out = [(self.sv_sigma, s_lo, s_hi)]
        for bset in self.b_sets:
            if bset:
                out.append((bset, t_lo, t_hi))
        return out

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
    g: Graph, col: Coloring, nbrs: Sequence[int], c: int, big: frozenset[int] = _EMPTY
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Each neighbor's alternating component toward c, and the same list
    with big and every repeat left empty, so that each other component
    stands once, at its first neighbor.  A neighbor inside big, or inside
    a component already found, reuses it instead of searching."""
    comps: list[frozenset[int]] = []
    firsts: list[frozenset[int]] = []
    for u in nbrs:
        if u in big:
            comp = big
        else:
            for comp in firsts:
                if u in comp:
                    break
            else:
                comp = alternating_component(g, col, u, c)
                comps.append(comp)
                firsts.append(comp)
                continue
        comps.append(comp)
        firsts.append(_EMPTY)
    return comps, firsts


class _DisagreementBlock:
    """Unified block for the two disagreement colors s and t.  Its moves
    depend only on which of s and t each vertex of N[visited()] carries."""

    def __init__(self, pair: NeighboringPair):
        g, sig, tau, v = pair.graph, pair.sigma, pair.tau, pair.v
        s, t = pair.s, pair.t
        self.s, self.t, self.v = s, t, v
        # the s- and t-colored neighbors of v, in vertex order
        cols = sig.colors
        self.x, self.y = x, y = [], []
        for u in g.adj[v]:
            cu = cols[u]
            if cu == s:
                x.append(u)
            elif cu == t:
                y.append(u)
        self.lam = alternating_component(g, sig, v, t)
        self.m = alternating_component(g, tau, v, s)
        # the sigma-side component of each s-colored neighbor and the
        # tau-side component of each t-colored one; a neighbor whose
        # {s,t}-component attaches to v both ways lies in the big one.
        # pure_x and pure_y are the other components, once each.
        self.x_sets, firsts = _neighbor_components(g, sig, self.x, t, self.lam)
        self.pure_x = [comp for comp in firsts if comp]
        self.y_sets, firsts = _neighbor_components(g, tau, self.y, s, self.m)
        self.pure_y = [comp for comp in firsts if comp]
        self.mixed = any(x in self.lam for x in self.x)

    def visited(self) -> frozenset[int]:
        """v and every {s,t}-component attached to it: each holds an s- or
        t-colored neighbor, so lam and m cover them all."""
        return self.lam | self.m

    def draws(self) -> int:
        """The distinct draws that select one of the block's sigma flips."""
        return len(self.lam) + sum(map(len, self.pure_x))

    def moves(self, probs: FlipProbabilities) -> list[RawMove]:
        s, t = self.s, self.t
        lo, hi = (s, t) if s < t else (t, s)
        mass = probs.mass_scaled
        p_lam = mass(len(self.lam))
        p_m = mass(len(self.m))
        lam, m = (self.lam, lo, hi), (self.m, lo, hi)
        pure_x = [(comp, lo, hi) for comp in self.pure_x]
        pure_y = [(comp, lo, hi) for comp in self.pure_y]
        out: list[RawMove] = []

        if self.mixed:
            both = min(p_lam, p_m)
            _emit(out, lam, m, both)
            _emit(out, lam, None, p_lam - both)
            _emit(out, None, m, p_m - both)
            for f in pure_x:
                _emit(out, f, None, mass(len(f[0])))
            for f in pure_y:
                _emit(out, None, f, mass(len(f[0])))
            return out

        if pure_y:
            j_hat = _argmax_lowest([len(comp) for comp in self.pure_y])
            _emit(out, lam, pure_y[j_hat], p_lam)
            for j, f in enumerate(pure_y):
                _emit(out, None, f, mass(len(f[0])) - (p_lam if j == j_hat else 0))
        else:
            _emit(out, lam, None, p_lam)
        if pure_x:
            i_hat = _argmax_lowest([len(comp) for comp in self.pure_x])
            _emit(out, pure_x[i_hat], m, p_m)
            for i, f in enumerate(pure_x):
                _emit(out, f, None, mass(len(f[0])) - (p_m if i == i_hat else 0))
        else:
            _emit(out, None, m, p_m)
        return out

    def sigma_flips(self) -> list[Flip]:
        s, t = self.s, self.t
        lo, hi = (s, t) if s < t else (t, s)
        return [(self.lam, lo, hi)] + [(comp, lo, hi) for comp in self.x_sets]

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


def _generic_index(c: int, s: int, t: int) -> int:
    """The index in _block_keys of a color c outside {s, t}."""
    return c - (c > s) - (c > t)


def signature(pair: NeighboringPair, c: int,
              blocks: Optional[Sequence[_CachedBlock]] = None) -> Signature:
    """Block summary for color c; defined when delta_c > 0 or c is s or t.
    blocks, when given, is a walk's table at pair, in _block_keys order:
    a TerminationRecord's pre_stop_blocks, or the blocks a walk keeps,
    None where it dropped one.  The block is read from it where it holds
    one, and searched otherwise."""
    if not (0 <= c < pair.k):
        raise InputError(f"color {c} out of range")
    if blocks is not None:
        s, t = pair.s, pair.t
        entry = blocks[-1 if c == s or c == t else _generic_index(c, s, t)]
        if entry is not None:
            return entry.block.signature(c)
    return _block(pair, c).signature(c)


@dataclass(frozen=True)
class CouplingDistribution:
    """Full one-step coupled move list; every move's mass is num / den.
    Sums run over the integer numerators, and each returned value is one
    Fraction."""

    moves: tuple[CoupledMove, ...]
    den: int

    @property
    def noop_num(self) -> int:
        return self.den - sum(m.num for m in self.moves)

    @property
    def noop_mass(self) -> Fraction:
        return Fraction(self.noop_num, self.den)

    def total_mass(self) -> Fraction:
        """1 by construction: noop_num is den minus the moves' sum."""
        return Fraction(self.noop_num + sum(m.num for m in self.moves), self.den)

    def sigma_marginal(self) -> dict[Flip, Fraction]:
        nums: dict[Flip, int] = {}
        for m in self.moves:
            f = m.sigma_flip
            if f is not None:
                nums[f] = nums.get(f, 0) + m.num
        den = self.den
        return {f: fraction_of(num, den) for f, num in nums.items()}

    def tau_marginal(self) -> dict[Flip, Fraction]:
        nums: dict[Flip, int] = {}
        for m in self.moves:
            f = m.tau_flip
            if f is not None:
                nums[f] = nums.get(f, 0) + m.num
        den = self.den
        return {f: fraction_of(num, den) for f, num in nums.items()}

    def terminating_mass(self) -> Fraction:
        return Fraction(sum(m.num for m in self.moves if m.terminating), self.den)


def _difference_raw(
    pair: NeighboringPair, probs: FlipProbabilities
) -> tuple[list[RawMove], set[Flip]]:
    """All non-identity moves as blocks emit them, in _block_keys order, plus
    the sigma-side flip identities in D."""
    moves: list[RawMove] = []
    sigma_labels: set[Flip] = set()
    s, t = pair.s, pair.t
    for c in range(pair.k):
        if c != s and c != t:
            blk = _GenericBlock(pair, c)
            moves += blk.moves(probs)
            sigma_labels.update(blk.sigma_flips())
    blk = _DisagreementBlock(pair)
    moves += blk.moves(probs)
    sigma_labels.update(blk.sigma_flips())
    return moves, sigma_labels


# The sigma side's identity moves for the last (graph, sigma, probs) that
# greedy_coupling_distribution saw: [key, moves], one CoupledMove (f, f)
# per flip f of sigma that probs performs, in enumerate_flips order.  The
# moves are immutable, and every distribution of a pair with that key
# shares them: it drops those whose flip is in D.  Consecutive pairs of a
# sweep share sigma and the vector.
# Not lru_cache(maxsize=1): it hashes graph and sigma on every call (0.7 us
# at n=19), where this compare goes by identity first (0.07 us).
_FLIPS: list = [None, ()]


def _flips_key(pair: NeighboringPair, probs: FlipProbabilities) -> tuple:
    """What the sigma side's identity moves depend on, compared by value."""
    return (pair.graph, pair.sigma, probs)


def _identity_moves(pair: NeighboringPair, probs: FlipProbabilities,
                    den: int) -> tuple[CoupledMove, ...]:
    """Each flip of sigma with nonzero mass as a non-terminating move
    (f, f) over den, in enumerate_flips order."""
    moves = []
    new = tuple.__new__
    for f in enumerate_flips(pair.graph, pair.sigma):
        num = probs.mass_scaled(len(f[0]))
        if num:
            moves.append(new(CoupledMove, (f, f, num, den, False)))
    return tuple(moves)


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
    moves = []
    used = 0
    new = tuple.__new__
    for sf, tf, num in raw:
        used += num
        moves.append(new(CoupledMove, (sf, tf, num, den, True)))
    key = _flips_key(pair, probs)
    if _FLIPS[0] != key:
        _FLIPS[:] = [key, _identity_moves(pair, probs, den)]
    for m in _FLIPS[1]:
        if m.sigma_flip not in sigma_labels:
            used += m.num
            moves.append(m)
    # the total mass used / den, checked exactly in integers
    if used > den:
        raise InvariantError("coupled move masses exceed 1")
    return CouplingDistribution(moves=tuple(moves), den=den)


def terminating_mass(pair: NeighboringPair, probs: FlipProbabilities) -> Fraction:
    """Exact probability that one coupled step performs a terminating move."""
    return greedy_coupling_distribution(pair, probs).terminating_mass()


def expected_distance_change(pair: NeighboringPair, probs: FlipProbabilities) -> Fraction:
    """Exact E[hamming after one coupled step] - 1."""
    dist = greedy_coupling_distribution(pair, probs)
    total = 0
    for m in dist.moves:
        sig, tau = m.apply(pair)
        total += m.num * (hamming(sig, tau) - 1)
    return Fraction(total, dist.den)


@dataclass(frozen=True)
class TerminationRecord:
    """Outcome of running the coupling until the distance leaves 1: the
    pre-stop pair, and the walk's table there (its blocks in _block_keys
    order), which signature reads instead of searching again.  rebuilds,
    blocks_built and blocks_reused are the walk's work counters (t_stop
    is its step count)."""

    t_stop: int
    final_sigma: Coloring
    final_tau: Coloring
    final_distance: int
    pre_stop_sigma: Coloring
    pre_stop_tau: Coloring
    pre_stop: NeighboringPair = field(compare=False, repr=False)
    pre_stop_blocks: tuple[_CachedBlock, ...] = field(compare=False, repr=False)
    rebuilds: int = field(compare=False, repr=False)
    blocks_built: int = field(compare=False, repr=False)
    blocks_reused: int = field(compare=False, repr=False)


# Draws per refill of the walk's random batch.  The walk consumes the
# batch in order, so every seeded stream depends on this value.
_BATCH = 4096
# Uniforms a refill draws first; each later draw in the batch doubles them.
_FIRST_UNIFORMS = 32
# The most moves a table may hold for CoupledWalk._past_d to decide a draw,
# and the relative slack 2**-_SLACK_BITS it allows the table's floats.
_MAX_MOVES = 1 << 12
_SLACK_BITS = 40


def _closed_neighborhoods(g: Graph) -> tuple[frozenset[int], ...]:
    """N[w] for every vertex w of g: w and its neighbors."""
    return tuple(frozenset((w,) + nbrs) for w, nbrs in enumerate(g.adj))


def _dropped_bounds(c: int, counts: Sequence[int], s: int, t: int, scale: int,
                    two_p2: int) -> tuple[int, int]:
    """A lower bound on the draws and an upper bound on the total of the
    block of c (s for the disagreement block) at a pair with v's neighbor
    counts counts, read off the counts alone.  scale is L = probs.scale
    and two_p2 is 2 p_2 L; with p_1 = 1 and p nonincreasing, no move
    exceeds L.
    - A generic block with delta_c = 0 has total L and 1 draw, exactly.
    - With delta_c >= 1, its two v-rooted moves have size at least 2 (at
      most p_2 L each) and each entry adds at most L, so
      total <= 2 p_2 L + delta_c L.  Its sigma side holds v and every
      c-colored neighbor, and its b entries hold each of them again, so
      draws >= 1 + 2 delta_c.
    - The disagreement block's masses sum to at most p_lam + p_m plus
      the mass of each of its at most delta_s + delta_t pure components,
      so total <= (2 + delta_s + delta_t) L.  lam holds v and every
      t-colored neighbor, and every s-colored neighbor lies in lam or in
      a pure component, so draws >= 1 + delta_s + delta_t."""
    if c == s:
        d = counts[s] + counts[t]
        return 1 + d, (2 + d) * scale
    d = counts[c]
    if d:
        return 1 + 2 * d, two_p2 + d * scale
    return 1, scale


class _CachedBlock:
    """One block as the walk keeps it between rebuilds: the block itself
    (signature reads it from a record's table), the vertices its searches
    visited, its moves with integer masses, their floats and total, and
    its sigma-side draws (the distinct draws that select one of its sigma
    flips)."""

    __slots__ = ("block", "visited", "moves", "floats", "total", "draws")

    def __init__(self, blk: Block, probs: FlipProbabilities, den: int):
        self.block = blk
        self.visited = blk.visited()
        self.moves = blk.moves(probs)
        floats: list[float] = []
        total = 0
        for _, _, num in self.moves:
            # CoupledWalk._past_d bounds the table's last cumulative float
            # by its total, which needs every term nonnegative
            if num < 0:
                raise InvariantError("a move of D has negative mass")
            floats.append(num / den)
            total += num
        self.floats, self.total = floats, total
        self.draws = blk.draws()


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

    The walk keeps sigma's colors and the counts of v's neighbors by
    color as two lists, and v, s and t beside them (tau is sigma with t
    at v).  A step tests and applies an identity draw itself, on those
    lists: it searches with graphs._component, applies the rule for a
    flip in D (module docstring) toward t inline, reads p_alpha from the
    vector's float tuple, and flips an accepted component in place.  It
    returns a non-terminating CoupledMove for an identity flip, which
    stage_update and tracers read.  pair is a property: the
    NeighboringPair of the lists, built when it is first read after an
    identity flip (a rebuild, a move of D, the record and a stage update
    read it) and kept until the next one.

    The sampling table is built from the blocks of D, which the walk keeps
    between rebuilds.  A block's moves depend only on which of its colors
    (s, t and c for a generic block, s and t for the disagreement block)
    each vertex of N[visited] carries, so an identity flip of S between
    colors lo and hi drops a block only when one of its colors is lo or
    hi and N[S] meets its visited set (the same relation as S meeting
    N[visited]).  When lo or hi is s or t, every block holds that color;
    otherwise only the generic blocks of lo and hi do.  N[S] of a
    singleton S is read from a table of closed neighborhoods, built once
    per start walk.  A move of D drops every block, since v, s and t may
    change.  A rebuild builds the dropped blocks alone, then concatenates
    every block's moves in _block_keys order (the keys are computed once
    between two moves of D).  A color outside
    {s, t} with delta_c = 0 has the same block at every pair with the
    walk's v, s and t (both sides {v}, one coalescing move), so the walk
    keeps one such absent entry per color
    (_absent), built at most once between two moves of D, and a rebuild
    reuses it wherever delta_c = 0; a move of D drops these too.  Masses
    are integers over L * n * k (L = probs.scale), so the table's floats
    are num / (L * n * k), bit-identical to float(mass), and the move a
    step returns carries num over L * n * k.

    A draw of the combined class that finds a dropped block asks _past_d
    first, which decides from the kept blocks' exact totals and draws and
    the dropped blocks' bounds (_dropped_bounds) whether the rebuilt
    table would send it past every move of D.  If so the step returns
    None and builds nothing; the dropped blocks wait for a draw that
    needs them.  Otherwise it rebuilds, checks the draw budget and
    samples as before, so every step returns what an always-rebuilding
    walk returns.  rebuilds counts the rebuilds, that is the tables
    built and sampled from, and blocks_built and blocks_reused the
    blocks each built and kept (a reused absent entry counts as built).
    The walk ends with the table its last move of D was drawn from, for
    the record, and run_until_distance_change refuses a walk that has
    ended.  step() does not check: it keeps drawing from the pre-stop
    lists, which only a caller that reads the draw stream past the end
    (a test of the coin batches) wants.

    CoupledWalk(pair, probs, rng) is lazy: it builds every block at its
    first rebuild.  Given start, a walk at this very pair and vector whose
    table a full rebuild has built and which holds every absent entry
    (start_walk), it copies that table and those entries instead; the
    blocks are never mutated, so it copies only the lists of them, and it
    shares the start's closed neighborhoods.  A
    start at another pair or vector, or with no table, is an InputError.
    Such a walk skips its first rebuild and builds no absent entry before
    its first move of D, and its counters cover only the rebuilds it
    performs itself: at the start every block counts as neither built nor
    reused.
    """

    def __init__(self, pair: NeighboringPair, probs: FlipProbabilities, rng,
                 start: Optional[CoupledWalk] = None):
        self.g = pair.graph
        self._adj = pair.graph.adj
        self.k = pair.k
        self.n = pair.graph.n
        self.nk = self.n * self.k
        self.probs = probs
        # p_alpha as floats, alpha = 1..len: the identity coin reads them
        self._floats = probs._floats
        self.rng = rng
        self._at(pair)
        self.steps = 0
        self.rebuilds = 0
        self.blocks_built = 0
        self.blocks_reused = 0
        self._final = None
        self._den = probs.scale * self.nk
        # None: every block dropped; otherwise one entry per _block_keys
        # color, None where that block was dropped
        self._cache: Optional[list[Optional[_CachedBlock]]] = None
        # the absent-color entries at the walk's v, s and t, one per generic
        # color in _block_keys order, None until built; None after a move
        # of D, like _cache and _keys
        self._absent: Optional[list[Optional[_CachedBlock]]] = None
        self._keys: Optional[list[int]] = None
        self._moves: list[RawMove] = []
        self._move_cum: list[float] = []
        self._q = 0.0
        self._idx = self._ready = _BATCH  # the first step refills
        self._vs = self._cs = self._us = None
        if start is None:
            self._closed = _closed_neighborhoods(self.g)
            # a table holds at most 2k - 1 + 2 deg(v) moves: _past_d's
            # rounding argument needs fewer than 2**12
            self._small_tables = 2 * (self.k + max(map(len, self._adj))) <= _MAX_MOVES
            return
        if start.pair is not pair or start.probs is not probs:
            raise InputError("the start walk is at another pair or vector")
        if start._cache is None:
            raise InputError("the start walk has no table: build it with start_walk")
        self._closed, self._small_tables = start._closed, start._small_tables
        self._cache = list(start._cache)
        self._absent = list(start._absent)
        self._keys = start._keys
        self._moves, self._move_cum, self._q = start._moves, start._move_cum, start._q

    def _at(self, pair: NeighboringPair) -> None:
        """Move the walk to pair: its lists and v, s and t from it."""
        self._pair = pair
        self._cols = list(pair.sigma.colors)
        self._counts = list(pair._delta)
        self._v, self._s, self._t = pair.v, pair.s, pair.t

    @property
    def pair(self) -> NeighboringPair:
        """The walk's pair, built from its lists when first read after an
        identity flip."""
        pair = self._pair
        if pair is None:
            cols, k, v = self._cols, self.k, self._v
            sigma = Coloring._unchecked(tuple(cols), k)
            cols[v] = self._t
            tau = Coloring._unchecked(tuple(cols), k)
            cols[v] = self._s
            pair = self._pair = NeighboringPair._unchecked(self.g, sigma, tau, v,
                                                           tuple(self._counts))
        return pair

    def _absent_entry(self, c: int) -> _CachedBlock:
        """The entry of color c outside {s, t} at any pair with the walk's
        v, s and t where no neighbor of v carries c."""
        return _CachedBlock(_GenericBlock(self.pair, c, absent=True), self.probs, self._den)

    def _refill(self):
        """Make the draw at _idx ready.  A batch's vertices and colors are
        drawn whole, since their bounded draws fix where the rest of the
        stream starts; its uniforms come in doubling chunks, in order,
        and a new batch starts only after every uniform of the last one
        was drawn, so the stream is the one whole batches would give."""
        rng = self.rng
        if self._idx >= _BATCH:
            # read through memoryviews, whose items are Python ints
            self._vs = memoryview(rng.integers(self.n, size=_BATCH))
            self._cs = memoryview(rng.integers(self.k, size=_BATCH))
            self._us = rng.random(size=_FIRST_UNIFORMS).tolist()
            self._idx = 0
        else:
            drawn = len(self._us)
            self._us += rng.random(size=min(drawn, _BATCH - drawn)).tolist()
        self._ready = len(self._us)

    def _drop(self, x: int, comp: frozenset[int], lo: int, hi: int) -> None:
        """Drop the kept blocks an identity flip of comp, drawn at x,
        between lo and hi may change: those that hold lo or hi among their
        colors and whose visited set meets N[comp]."""
        cache = self._cache
        if cache is None:
            return
        closed = self._closed
        if len(comp) == 1:
            near = closed[x]
        else:
            near = frozenset().union(*[closed[w] for w in comp])
        s, t = self._s, self._t
        if lo == s or lo == t or hi == s or hi == t:
            # every block holds s and t
            reached = range(len(cache))
        else:
            # only the generic blocks of lo and hi hold them
            reached = (_generic_index(lo, s, t), _generic_index(hi, s, t))
        for i in reached:
            entry = cache[i]
            if entry is not None and not near.isdisjoint(entry.visited):
                cache[i] = None

    def _rebuild(self):
        # v, s and t change only with a move of D, which drops every block
        # and the keys, so the keys are the ones the kept blocks were built
        # for
        pair = self.pair
        keys = self._keys
        if keys is None:
            keys = self._keys = _block_keys(pair)
        if self._cache is None:
            self._cache = [None] * len(keys)
        if self._absent is None:
            self._absent = [None] * (len(keys) - 1)
        cache, absent, delta, s = self._cache, self._absent, self._counts, self._s
        self.rebuilds += 1
        moves: list[RawMove] = []
        floats: list[float] = []
        used = 0
        q_draws = self.n
        for i, entry in enumerate(cache):
            if entry is None:
                c = keys[i]
                if c == s or delta[c]:
                    entry = _CachedBlock(_block(pair, c), self.probs, self._den)
                else:
                    # an absent color's block depends on v, s, t and c alone
                    entry = absent[i]
                    if entry is None:
                        entry = absent[i] = self._absent_entry(c)
                cache[i] = entry
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

    def _past_d(self, u: float) -> bool:
        """True when a draw u of the combined class is sure to land past
        every move of D, decided without building the dropped blocks.

        lo <= q_draws and hi >= used sum a kept block's exact draws and
        total, and _dropped_bounds for a dropped one.  Division and
        multiplication round monotonically, so x = u * (lo / nk) is at
        most the step's u * _q.  Each of the table's M floats num / den
        exceeds its value by a factor at most 1 + 2**-53, and each of the
        M - 1 additions of nonnegative terms (_CachedBlock refuses a
        negative num) by another, so its last cumulative float is at most
        (used / den)(1 + 2**-53)**M < (hi / den)(1 + 2**-40) when
        M < 2**12 (then M 2**-53 < 2**-41, and e**y <= 1 + 2y for y <= 1).
        A generic block has at most 2 + 2 delta_c moves and the
        disagreement block at most 3 + delta_s + delta_t, so
        M <= 2k - 1 + 2 deg(v), and _small_tables holds when 2k + 2 max deg
        <= 2**12.  When x exceeds (hi / den)(1 + 2**-40), compared exactly
        in integers, it is at or past the last cumulative float, and
        bisect lands past every move."""
        if not self._small_tables:
            return False
        cache, counts, s, t = self._cache, self._counts, self._s, self._t
        probs = self.probs
        scale, two_p2 = probs.scale, 2 * probs.mass_scaled(2)
        if cache is None:
            # every block dropped: one key per block, s for the
            # disagreement block (the order does not matter to the sums)
            keys = [c for c in range(self.k) if c != t]
            cache = [None] * len(keys)
        else:
            keys = self._keys
        lo, hi = self.n, 0
        for c, entry in zip(keys, cache):
            if entry is None:
                draws, total = _dropped_bounds(c, counts, s, t, scale, two_p2)
                lo += draws
                hi += total
            else:
                lo += entry.draws
                hi += entry.total
        num, den = (u * (lo / self.nk)).as_integer_ratio()
        return (num * self._den << _SLACK_BITS) > hi * ((1 << _SLACK_BITS) + 1) * den

    def step(self) -> Optional[CoupledMove]:
        """Advance one step; returns the applied move, or None for a no-op."""
        if self._idx >= self._ready:
            self._refill()
        at = self._idx
        x = self._vs[at]
        c = self._cs[at]
        u = self._us[at]
        self._idx = at + 1
        self.steps += 1

        cols = self._cols
        cx = cols[x]
        if c != cx:
            adj = self._adj
            comp = _component(adj, cols, x, c)
            lo, hi = (cx, c) if cx < c else (c, cx)
            # the flip is in D when comp holds v, or when it recolors a
            # neighbor of v from the other color to t
            v, t = self._v, self._t
            in_d = v in comp
            if not in_d and (t == lo or t == hi):
                other = lo + hi - t
                for w in adj[v]:
                    if cols[w] == other and w in comp:
                        in_d = True
                        break
            if not in_d:
                alpha = len(comp)
                floats = self._floats
                p = floats[alpha - 1] if alpha <= len(floats) else 0.0
                if p > 0 and u < p / alpha:
                    # comp misses v, so both sides carry lo or hi on it
                    # and flip alike: swap it in sigma's colors, and move
                    # each neighbor of v it holds between the counts
                    counts, nbrs = self._counts, adj[v]
                    for w in comp:
                        cw = cols[w]
                        cols[w] = flipped = lo + hi - cw
                        if w in nbrs:
                            counts[cw] -= 1
                            counts[flipped] += 1
                    self._pair = None
                    self._drop(x, comp, lo, hi)
                    drawn = (comp, lo, hi)
                    return _new(CoupledMove, (drawn, drawn, 0, self._den, False))
                return None

        if self._cache is None or None in self._cache:
            if self._past_d(u):
                return None
            self._rebuild()
        i = bisect.bisect_right(self._move_cum, u * self._q)
        if i >= len(self._moves):
            return None
        sf, tf, num = self._moves[i]
        move = _new(CoupledMove, (sf, tf, num, self._den, True))
        sig, tau = move.apply(self.pair)
        table, self._cache, self._absent, self._keys = self._cache, None, None, None
        d = hamming(sig, tau)
        if d == 1:
            self._at(NeighboringPair(self.g, sig, tau))
            return move
        # distance left 1: store the final colorings without pair wrapping,
        # and the table the move was drawn from
        self._final = (sig, tau, d, tuple(table))
        return move

    def run_until_distance_change(self, step_cap: int) -> TerminationRecord:
        """Step until the distance leaves 1 and report how the walk ended.

        A walk runs to its end once: its lists stay at the pre-stop pair,
        which the chain has left, so a second call raises InvariantError.
        """
        if self._final is not None:
            raise InvariantError("the walk has already ended")
        while self._final is None:
            if self.steps >= step_cap:
                raise CapacityError(f"no distance change within {step_cap} steps")
            self.step()
        sig, tau, d, table = self._final
        pair = self.pair
        return TerminationRecord(
            t_stop=self.steps,
            final_sigma=sig,
            final_tau=tau,
            final_distance=d,
            pre_stop_sigma=pair.sigma,
            pre_stop_tau=pair.tau,
            pre_stop=pair,
            pre_stop_blocks=table,
            rebuilds=self.rebuilds,
            blocks_built=self.blocks_built,
            blocks_reused=self.blocks_reused,
        )


def start_walk(pair: NeighboringPair, probs: FlipProbabilities) -> CoupledWalk:
    """A walk at pair, with no generator, whose table one full rebuild has
    built, and which holds the absent entry of every color outside {s, t}:
    the start that CoupledWalk(pair, probs, rng, start) copies."""
    walk = CoupledWalk(pair, probs, None)
    walk._rebuild()
    absent = walk._absent
    for i, c in enumerate(walk._keys[:-1]):
        if absent[i] is None:
            absent[i] = walk._absent_entry(c)
    return walk


def variable_length_coupling(
    pair: NeighboringPair,
    probs: FlipProbabilities,
    rng,
    step_cap: Optional[int] = None,
    *,
    start: Optional[CoupledWalk] = None,
) -> TerminationRecord:
    """Run the coupled chain from a neighboring pair until the distance
    leaves 1 (coalescence or growth), and report when and how it ended.

    Terminating moves can relocate the disagreement vertex while keeping
    the distance at 1; the walk continues through those.  step_cap
    defaults to 100 * n * k and a walk exceeding it raises CapacityError.
    The walk copies start's table when given (see CoupledWalk).
    """
    if step_cap is None:
        step_cap = 100 * pair.graph.n * pair.k
    return CoupledWalk(pair, probs, rng, start).run_until_distance_change(step_cap)
