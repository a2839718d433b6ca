"""Two-pass block construction: the test oracle for flipdyn.coupling's
blocks.

These are the package's earlier difference blocks.  A generic block
finds its c-colored neighbors, then searches its a entries and its b
entries in two more passes, each neighbor scanning the components found
so far for one that holds it, and its moves() call mass_scaled and _emit
once per mass.  flipdyn.coupling now builds a generic block in one pass
and writes its min split inline, and its _neighbor_components scans in a
plain loop, so every block there must report these exact moves, sigma
flips, draws, visited sets and signatures.

The reference also keeps the labeled view of D that the library no
longer carries: each block's entries() and their fold over the pair's
blocks, difference_sets, which the coupling golden digests.  Only tests
import it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from flipdyn.coupling import Flip, RawMove, Signature, _block_keys
from flipdyn.dynamics import FlipProbabilities
from flipdyn.errors import InputError
from flipdyn.graphs import Coloring, Graph, NeighboringPair, alternating_component

# D as labeled flips: (label, flip or None) per block component
Entries = list[tuple[str, Optional[Flip]]]
_EMPTY: frozenset[int] = frozenset()


def _mk_flip(vertices: frozenset[int], c1: int, c2: int) -> Flip:
    return (vertices, min(c1, c2), max(c1, c2))


def neighbors_colored(pair: NeighboringPair, c: int) -> tuple[int, ...]:
    """Neighbors of v colored c, in increasing vertex order."""
    return tuple(u for u in pair.graph.adj[pair.v] if pair.sigma.colors[u] == c)


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

    def __init__(self, pair: NeighboringPair, c: int):
        self.c, self.s, self.t = c, pair.s, pair.t
        v = frozenset((pair.v,))
        if not pair.delta(c):
            self.u = self.a_sets = self.b_sets = ()
            self.sv_sigma = self.sv_tau = v
            self.i_max = self.j_max = None
            return
        g = pair.graph
        self.u = neighbors_colored(pair, c)
        self.a_sets = _neighbor_components(g, pair.tau, self.u, pair.s)[1]
        self.b_sets = _neighbor_components(g, pair.sigma, self.u, pair.t)[1]
        self.sv_sigma = v.union(*self.a_sets)
        self.sv_tau = v.union(*self.b_sets)
        self.i_max = _argmax_lowest([len(x) for x in self.a_sets])
        self.j_max = _argmax_lowest([len(x) for x in self.b_sets])

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
        mass = probs.mass_scaled
        a_flips = [(aset, s_lo, s_hi) for aset in self.a_sets]
        b_flips = [(bset, t_lo, t_hi) for bset in self.b_sets]
        i_max, j_max = self.i_max, self.j_max
        pA = mass(len(self.sv_sigma))
        pB = mass(len(self.sv_tau))
        out: list[RawMove] = []
        _emit(out, v_sigma, a_flips[i_max], pA)
        _emit(out, b_flips[j_max], v_tau, pB)
        for i, (a_flip, b_flip) in enumerate(zip(a_flips, b_flips)):
            q = mass(len(a_flip[0])) - (pA if i == i_max else 0)
            qp = mass(len(b_flip[0])) - (pB if i == j_max else 0)
            both = min(q, qp)
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
    g: Graph, col: Coloring, nbrs: Sequence[int], c: int, big: frozenset[int] = _EMPTY
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Each neighbor's alternating component toward c, and the same list
    with big and every repeat left empty, so that each other component
    stands once, at its first neighbor.  A neighbor inside big, or inside
    a component already found, reuses it instead of searching."""
    comps: list[frozenset[int]] = []
    firsts: list[frozenset[int]] = []
    for u in nbrs:
        comp = big if u in big else next((p for p in firsts if u in p), None)
        found = comp is None
        if found:
            comp = alternating_component(g, col, u, c)
        comps.append(comp)
        firsts.append(comp if found else _EMPTY)
    return comps, firsts


class _DisagreementBlock:
    """Unified block for the two disagreement colors s and t.  Its moves
    depend only on which of s and t each vertex of N[visited()] carries."""

    def __init__(self, pair: NeighboringPair):
        g, sig, tau, v = pair.graph, pair.sigma, pair.tau, pair.v
        s, t = pair.s, pair.t
        self.s, self.t, self.v = s, t, v
        self.x = neighbors_colored(pair, s)
        self.y = neighbors_colored(pair, t)
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


def block(pair: NeighboringPair, c: int):
    """The reference block holding color c."""
    if c == pair.s or c == pair.t:
        return _DisagreementBlock(pair)
    return _GenericBlock(pair, c)


def difference_sets(pair: NeighboringPair) -> dict[int, Entries]:
    """The difference structure D as labeled flips per color.

    For each color c the list holds ("sigma:v" / "tau:v") entries for the
    two v-rooted components and ("sigma:u<i>" / "tau:u<i>") entries for
    the per-neighbor block components (empty components appear as None),
    folded over the blocks in flipdyn.coupling's move order.  The nonempty
    flips across all colors are exactly the components coupled
    non-identically.
    """
    out: dict[int, Entries] = {}
    for c in _block_keys(pair):
        out.update(block(pair, c).entries())
    return out
