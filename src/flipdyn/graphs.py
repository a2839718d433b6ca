"""Graphs, colorings, alternating components and single-coloring flips.

A coloring assigns each vertex one of k colors (0..k-1); it does not have
to be proper.  The central object is the alternating component
S(col, v, c): the set of vertices reachable from v along paths that
strictly alternate between col(v) and c.  An edge is traversed only when
its two endpoints carry the two distinct colors of the pair, so
monochromatic edges never extend a component.  On proper colorings this
coincides with connectivity inside the two-color induced subgraph; on
improper colorings it is the stricter of the two notions, and it is the
one under which the component of v decomposes exactly into the components
of its neighbors (which the coupling construction relies on).

Flipping a component swaps the two colors on every vertex in it.  A flip
is identified by the pair (vertex set, color pair); two (vertex, color)
selections that yield the same set and pair are the same flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InputError, output_file


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise InputError("graph needs at least one vertex")
        seen = set()
        elist = []
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            elist.append(key)
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.n = n
        self.edges = tuple(sorted(elist))
        self.adj = tuple(tuple(sorted(a)) for a in nbrs)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


@dataclass(frozen=True, slots=True)
class Coloring:
    """An assignment of colors 0..k-1 to vertices, proper or not.

    Slotted: an exhaustive sweep holds a coloring per pair it visits."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError("need at least one color")
        for v, c in enumerate(self.colors):
            if not (0 <= c < self.k):
                raise InputError(f"vertex {v} has color {c} outside 0..{self.k - 1}")

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    def __len__(self) -> int:
        return len(self.colors)

    @classmethod
    def _unchecked(cls, colors: tuple[int, ...], k: int) -> "Coloring":
        """A Coloring whose entries the caller has already checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "colors", colors)
        object.__setattr__(out, "k", k)
        return out

    def recolor(self, changes: dict[int, int]) -> "Coloring":
        cols = list(self.colors)
        for v, c in changes.items():
            cols[v] = c
        return Coloring(tuple(cols), self.k)


def is_proper(g: Graph, col: Coloring) -> bool:
    """True iff no edge of g is monochromatic under col."""
    cols = col.colors
    return all(cols[u] != cols[v] for u, v in g.edges)


def hamming(a: Coloring, b: Coloring) -> int:
    """Number of vertices where the two colorings disagree."""
    if len(a) != len(b):
        raise InputError("colorings have different lengths")
    return sum(1 for x, y in zip(a.colors, b.colors) if x != y)


def alternating_component(g: Graph, col: Coloring, v: int, c: int) -> frozenset[int]:
    """Vertices reachable from v along strictly alternating {col(v), c} paths.

    Each step moves to a neighbor carrying the other color of the pair, so
    the colors along any path alternate col(v), c, col(v), ...  If
    c == col(v) the component is empty.
    """
    if not (0 <= v < g.n):
        raise InputError(f"vertex {v} out of range")
    if not (0 <= c < col.k):
        raise InputError(f"color {c} out of range")
    return _component(g.adj, col.colors, v, c)


def _component(adj: tuple[tuple[int, ...], ...], cols: Sequence[int], v: int,
               c: int) -> frozenset[int]:
    """alternating_component on an adjacency tuple and a color sequence
    (a list is fine), with no range check: the caller's v and c are in
    range."""
    base = cols[v]
    if c == base:
        return frozenset()
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            want = c if cols[x] == base else base
            for y in adj[x]:
                if cols[y] == want and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def flip(col: Coloring, s: frozenset[int], base: int, other: int) -> Coloring:
    """Swap colors base <-> other on every vertex of s.

    Every vertex of s must currently carry base or other; anything else is
    rejected.  Applying the same flip twice returns the original coloring.
    Only the entries of s change, and each is checked here, so the result
    skips Coloring's check of every entry.
    """
    if base == other:
        raise InputError("flip colors must differ")
    if not (0 <= base < col.k and 0 <= other < col.k):
        raise InputError("flip color out of range")
    cols = list(col.colors)
    for w in s:
        cw = cols[w]
        if cw == base:
            cols[w] = other
        elif cw == other:
            cols[w] = base
        else:
            raise InputError(
                f"vertex {w} colored {cw}, not in flip pair ({base},{other})"
            )
    return Coloring._unchecked(tuple(cols), col.k)


# The flip tables enumerate_flips has built on the last graph it saw:
# [graph, {(colors, k): table}].  A table depends on the graph and the
# coloring alone.  The graph is compared by identity (a Graph never
# changes, and holding it keeps its id from being reused); another graph
# starts a fresh set, since a memo kept across the graphs of a sweep only
# grows, and _TABLE_CAP tables clear the set, which bounds its memory.
_TABLES: list = [None, {}]
_TABLE_CAP = 1024


def enumerate_flips(g: Graph, col: Coloring) -> Mapping[tuple[frozenset[int], int, int], int]:
    """All distinct flips selectable by some (vertex, color) draw.

    Returns a map (component, lo_color, hi_color) -> multiplicity, where
    multiplicity counts the (v, c) draws selecting that flip, keyed in the
    order of the first draw selecting each.  Each component is searched
    once: every vertex of an alternating component, drawn with the pair's
    other color, selects that same component, on improper colorings too
    (the tests check this), so a draw from a vertex inside a component
    already found for its color pair reuses that key and adds one to its
    count, and the multiplicity comes out as |component|.  Draws with
    c == col(v) select the empty set and do not appear.  The total
    multiplicity over all flips is n*(k-1), so together with the n
    same-color draws every one of the n*k draws is accounted for.

    Each coloring is searched once per graph: the map is a read-only view
    of a table shared by every caller that asks for the same coloring of
    the same Graph object, kept until a call for another graph arrives or
    _TABLE_CAP tables have been built (_TABLES).
    """
    tables = _TABLES[1]
    if _TABLES[0] is not g:
        tables = {}
        _TABLES[:] = [g, tables]
    key = (col.colors, col.k)
    table = tables.get(key)
    if table is None:
        if len(tables) >= _TABLE_CAP:
            tables.clear()
        table = tables[key] = MappingProxyType(_search_flips(g, col))
    return table


def _search_flips(g: Graph, col: Coloring) -> dict[tuple[frozenset[int], int, int], int]:
    """enumerate_flips' map, searched afresh."""
    adj, cols, k = g.adj, col.colors, col.k
    keys: list[tuple[frozenset[int], int, int]] = []
    counts: list[int] = []
    # found[w * k + c]: the index in keys of the flip the draw (w, c)
    # selects, once a search has reached w for w's pair with c
    found: list[Optional[int]] = [None] * (g.n * k)
    for v in range(g.n):
        base = cols[v]
        for c in range(k):
            if c == base:
                continue
            i = found[v * k + c]
            if i is not None:
                counts[i] += 1
                continue
            comp = _component(adj, cols, v, c)
            lo, hi = (base, c) if base < c else (c, base)
            i = len(keys)
            keys.append((comp, lo, hi))
            counts.append(1)
            for w in comp:
                # w carries lo or hi; it selects comp with the other one
                found[w * k + lo + hi - cols[w]] = i
    return dict(zip(keys, counts))


class NeighboringPair:
    """Two colorings of the same graph differing at exactly one vertex.

    Neither coloring has to be proper.  sigma and tau denote the two
    colorings, v the disagreement vertex, s = sigma(v), t = tau(v).
    delta(c) counts neighbors of v colored c (the count is the same in
    both colorings since they agree off v); the pair holds these counts as
    one tuple indexed by color.
    """

    __slots__ = ("graph", "sigma", "tau", "v", "s", "t", "_delta")

    def __init__(self, graph: Graph, sigma: Coloring, tau: Coloring):
        if len(sigma) != graph.n or len(tau) != graph.n:
            raise InputError("coloring length does not match graph")
        if sigma.k != tau.k:
            raise InputError("colorings use different k")
        diff = [w for w in range(graph.n) if sigma.colors[w] != tau.colors[w]]
        if len(diff) != 1:
            raise InputError(f"colorings differ at {len(diff)} vertices, need exactly 1")
        self.graph = graph
        self.sigma = sigma
        self.tau = tau
        self.v = diff[0]
        self.s = sigma.colors[self.v]
        self.t = tau.colors[self.v]
        self._delta = self._neighbor_counts()

    def _neighbor_counts(self) -> tuple[int, ...]:
        counts = [0] * self.sigma.k
        cols = self.sigma.colors
        for u in self.graph.adj[self.v]:
            counts[cols[u]] += 1
        return tuple(counts)

    @classmethod
    def _unchecked(cls, graph: Graph, sigma: Coloring, tau: Coloring, v: int,
                   delta: tuple[int, ...]) -> "NeighboringPair":
        """The pair of two colorings the caller knows to differ at v alone,
        with delta the counts of v's neighbors by color."""
        out = object.__new__(cls)
        out.graph, out.sigma, out.tau = graph, sigma, tau
        out.v, out.s, out.t = v, sigma.colors[v], tau.colors[v]
        out._delta = delta
        return out

    @property
    def k(self) -> int:
        return self.sigma.k

    def delta(self, c: int) -> int:
        """Number of neighbors of the disagreement vertex colored c."""
        if not (0 <= c < self.k):
            raise InputError(f"color {c} out of range")
        return self._delta[c]

    def __repr__(self):
        return f"NeighboringPair(v={self.v}, s={self.s}, t={self.t}, n={self.graph.n})"


def read_pair_file(path: str) -> tuple[Graph, Coloring, Optional[Coloring]]:
    """Read a graph plus one or two colorings from a text file.

    Format: a header line "n k m", then m edge lines "u v" with
    0 <= u < v < n, then a line "sigma" followed by n integers (one line,
    space-separated, or n lines), optionally a line "tau" followed by n
    integers.  Blank lines and lines starting with '#' are ignored.
    Duplicate edges are rejected.
    """
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    tokens: list[str] = []
    for line in raw.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    pos = 0

    def take(count: int, what: str) -> list[str]:
        nonlocal pos
        if pos + count > len(tokens):
            raise InputError(f"unexpected end of file while reading {what}")
        vals = tokens[pos : pos + count]
        pos += count
        return vals

    def take_ints(count: int, what: str) -> list[int]:
        vals = take(count, what)
        try:
            return [int(x) for x in vals]
        except ValueError:
            raise InputError(f"non-integer token while reading {what}") from None

    n, k, m = take_ints(3, "header")
    if n < 1 or k < 1 or m < 0:
        raise InputError("bad header values")
    edges = []
    for _ in range(m):
        u, v = take_ints(2, "edge")
        if not (0 <= u < v < n):
            raise InputError(f"edge ({u},{v}) must satisfy 0 <= u < v < n")
        edges.append((u, v))
    g = Graph(n, edges)
    word = take(1, "sigma marker")[0]
    if word != "sigma":
        raise InputError(f"expected 'sigma', got {word!r}")
    sigma = Coloring(tuple(take_ints(n, "sigma colors")), k)
    tau = None
    if pos < len(tokens):
        word = take(1, "tau marker")[0]
        if word != "tau":
            raise InputError(f"expected 'tau', got {word!r}")
        tau = Coloring(tuple(take_ints(n, "tau colors")), k)
    if pos != len(tokens):
        raise InputError("trailing tokens after colorings")
    return g, sigma, tau


def read_neighboring_pair(path: str) -> NeighboringPair:
    """The pair of a read_pair_file file, which must hold both colorings."""
    g, sigma, tau = read_pair_file(path)
    if tau is None:
        raise InputError("pair file must contain both sigma and tau")
    return NeighboringPair(g, sigma, tau)


def write_pair_file(path: str, g: Graph, sigma: Coloring, tau: Optional[Coloring] = None) -> None:
    """Write a graph and coloring(s) in the format read_pair_file accepts."""
    lines = [f"{g.n} {sigma.k} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    lines.append("sigma")
    lines.append(" ".join(str(c) for c in sigma.colors))
    if tau is not None:
        lines.append("tau")
        lines.append(" ".join(str(c) for c in tau.colors))
    with output_file(path) as fh:
        fh.write("\n".join(lines) + "\n")
