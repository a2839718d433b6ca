"""Graph, coloring, and alternating-component primitives."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nonisomorphic_graphs, small_graph_corpus
import flipdyn.graphs as graphs
from flipdyn import Coloring, Graph, InputError, NeighboringPair
from flipdyn.graphs import (
    _search_flips,
    alternating_component,
    enumerate_flips,
    flip,
    hamming,
    is_proper,
    read_pair_file,
    write_pair_file,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestGraph:
    def test_basic(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.degree(1) == 2
        assert g.degree(0) == 1
        assert g.adj[1] == (0, 2)

    def test_rejects_bad_edges(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])
        with pytest.raises(InputError):
            Graph(2, [(0, 0)])
        with pytest.raises(InputError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_bad_n(self):
        with pytest.raises(InputError):
            Graph(0, [])


class TestColoring:
    def test_validation(self):
        with pytest.raises(InputError):
            Coloring((0, 3), 3)
        with pytest.raises(InputError):
            Coloring((0, -1), 3)
        with pytest.raises(InputError):
            Coloring((0, 1), 0)

    def test_recolor_and_hamming(self):
        a = Coloring((0, 1, 2), 3)
        b = a.recolor({0: 2, 2: 0})
        assert b.colors == (2, 1, 0)
        assert hamming(a, b) == 2
        assert hamming(a, a) == 0
        with pytest.raises(InputError):
            hamming(a, Coloring((0, 1), 3))

    def test_is_proper(self):
        g = path(3)
        assert is_proper(g, Coloring((0, 1, 0), 2))
        assert not is_proper(g, Coloring((0, 0, 1), 2))


class TestAlternatingComponent:
    def test_same_color_is_empty(self):
        g = path(2)
        assert alternating_component(g, Coloring((0, 1), 2), 0, 0) == frozenset()

    def test_path_alternation(self):
        g = path(3)
        col = Coloring((0, 1, 0), 3)
        assert alternating_component(g, col, 0, 1) == frozenset({0, 1, 2})
        assert alternating_component(g, col, 0, 2) == frozenset({0})

    def test_strict_alternation_stops_on_repeat(self):
        # 0-1-2 colored (0,1,1): from 0 with color pair {0,1}, after the
        # step onto 1 the walk needs a 0-colored neighbor, and 2 is not.
        g = path(3)
        col = Coloring((0, 1, 1), 2)
        assert alternating_component(g, col, 0, 1) == frozenset({0, 1})

    def test_monochromatic_edge_never_traversed(self):
        # Triangle colored (0,0,1): vertex 1 is reached only through 2,
        # never across the monochromatic 0-1 edge.
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        col = Coloring((0, 0, 1), 2)
        assert alternating_component(g, col, 0, 1) == frozenset({0, 1, 2})
        # Removing the 1-2 edge disconnects vertex 1 from the component.
        g2 = Graph(3, [(0, 1), (0, 2)])
        assert alternating_component(g2, col, 0, 1) == frozenset({0, 2})

    def test_input_validation(self):
        g = path(2)
        col = Coloring((0, 1), 2)
        with pytest.raises(InputError):
            alternating_component(g, col, 5, 0)
        with pytest.raises(InputError):
            alternating_component(g, col, 0, 7)


class TestFlip:
    def test_swaps_both_colors(self):
        col = Coloring((0, 1, 0), 3)
        out = flip(col, frozenset({0, 1}), 0, 1)
        assert out.colors == (1, 0, 0)
        assert flip(out, frozenset({0, 1}), 0, 1).colors == col.colors

    def test_rejects_foreign_color(self):
        col = Coloring((0, 1, 2), 3)
        with pytest.raises(InputError):
            flip(col, frozenset({2}), 0, 1)
        with pytest.raises(InputError):
            flip(col, frozenset({0}), 1, 1)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_equals_a_validated_coloring(self, data):
        # flip builds its result without Coloring's check of every entry;
        # the result must still be the Coloring the checked path builds,
        # and every entry flip changes is still checked.
        k = data.draw(st.integers(2, 6))
        colors = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=10))
        base, other = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                                         unique=True))
        col = Coloring(tuple(colors), k)
        pair_vertices = [w for w, c in enumerate(colors) if c in (base, other)]
        comp = frozenset(data.draw(st.sets(st.sampled_from(pair_vertices)))
                         if pair_vertices else ())
        swap = {base: other, other: base}
        want = tuple(swap[c] if w in comp else c for w, c in enumerate(colors))
        out = flip(col, comp, base, other)
        assert out == Coloring(want, k)
        assert flip(out, comp, base, other) == col

        foreign = [w for w, c in enumerate(colors) if c not in (base, other)]
        if foreign:
            with pytest.raises(InputError, match="not in flip pair"):
                flip(col, comp | {data.draw(st.sampled_from(foreign))}, base, other)
        bad = data.draw(st.sampled_from([-1, k, k + 3]))
        with pytest.raises(InputError, match="out of range"):
            flip(col, comp, bad, other)
        with pytest.raises(InputError, match="out of range"):
            flip(col, comp, base, bad)


def draw_counts(g, col):
    """The oracle for enumerate_flips: every one of the n(k-1) off-color
    draws searched on its own and counted toward the flip it selects,
    keyed in the order of the first draw selecting each."""
    out = {}
    for v in range(g.n):
        base = col[v]
        for c in range(col.k):
            if c != base:
                key = (alternating_component(g, col, v, c), min(base, c), max(base, c))
                out[key] = out.get(key, 0) + 1
    return out


def random_graph_coloring(data, proper):
    """A graph on 1..8 vertices and a coloring with 2..5 colors, drawn from
    data; with proper=True, the edges the coloring makes monochromatic are
    dropped."""
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(2, 5))
    col = Coloring(tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                            max_size=n))), k)
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if proper:
        edges = [(u, w) for u, w in edges if col[u] != col[w]]
    g = Graph(n, edges)
    assert is_proper(g, col) or not proper
    return g, col


class TestEnumerateFlips:
    def test_multiplicity_equals_size(self):
        g = path(3)
        col = Coloring((0, 1, 0), 2)
        flips = enumerate_flips(g, col)
        # One alternating component {0,1,2} for the pair {0,1}, selected by
        # all three vertices.
        assert flips == {(frozenset({0, 1, 2}), 0, 1): 3}

    def test_total_accounts_all_draws(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        col = Coloring((0, 1, 2), 3)
        flips = enumerate_flips(g, col)
        assert sum(flips.values()) == g.n * (col.k - 1)
        for (comp, lo, hi), mult in flips.items():
            assert mult == len(comp)
            assert lo < hi

    @settings(max_examples=300)
    @given(data=st.data(), proper=st.booleans())
    def test_every_vertex_of_a_component_selects_it(self, data, proper):
        # What lets enumerate_flips search each component once, on proper
        # and improper colorings: each w in a flip's component, drawn with
        # its other color, selects that same component, so the flips
        # account for all n(k-1) off-color draws.
        g, col = random_graph_coloring(data, proper)
        flips = enumerate_flips(g, col)
        assert sum(flips.values()) == g.n * (col.k - 1)
        for (comp, lo, hi), mult in flips.items():
            assert mult == len(comp)
            for w in comp:
                other = hi if col[w] == lo else lo
                assert alternating_component(g, col, w, other) == comp

    @settings(max_examples=300)
    @given(data=st.data(), proper=st.booleans())
    def test_equals_a_count_of_every_draw(self, data, proper):
        # The whole map, key order included, against the oracle that
        # searches every draw.
        g, col = random_graph_coloring(data, proper)
        assert list(enumerate_flips(g, col).items()) == list(draw_counts(g, col).items())


def all_colorings(n, k):
    return [Coloring(colors, k) for colors in itertools.product(range(k), repeat=n)]


class TestFlipTables:
    """enumerate_flips keeps one table per coloring of the last graph."""

    @pytest.mark.parametrize("corpus", ["n<=4, k=2..4", "n=5, k<=3"])
    def test_a_hit_equals_a_fresh_search(self, corpus):
        if corpus == "n<=4, k=2..4":
            cases = [(g, (2, 3, 4)) for g in small_graph_corpus()]
        else:
            cases = [(g, (2, 3)) for g in nonisomorphic_graphs(5)]
        for g, ks in cases:
            cols = [col for k in ks for col in all_colorings(g.n, k)]
            assert len(cols) <= graphs._TABLE_CAP
            first = [enumerate_flips(g, col) for col in cols]
            for col, table in zip(cols, first):
                hit = enumerate_flips(g, col)
                assert hit is table
                # the whole map, key order included
                assert list(hit.items()) == list(_search_flips(g, col).items())

    def test_another_graph_starts_fresh_tables(self):
        g, col = path(3), Coloring((0, 1, 0), 2)
        table = enumerate_flips(g, col)
        twin = path(3)
        assert enumerate_flips(twin, col) == table
        assert graphs._TABLES[0] is twin and len(graphs._TABLES[1]) == 1
        again = enumerate_flips(g, col)
        assert again == table and again is not table

    def test_the_cap_bounds_the_tables(self):
        g = path(6)
        sizes = []
        for col in all_colorings(6, 4)[: graphs._TABLE_CAP + 2]:
            enumerate_flips(g, col)
            sizes.append(len(graphs._TABLES[1]))
        assert max(sizes) == graphs._TABLE_CAP
        assert sizes[-2:] == [1, 2]

    def test_a_table_cannot_be_written(self):
        g, col = path(3), Coloring((0, 1, 0), 2)
        flips = enumerate_flips(g, col)
        key = next(iter(flips))
        with pytest.raises(TypeError):
            flips[key] = 0
        with pytest.raises(TypeError):
            del flips[key]
        assert enumerate_flips(g, col) == {(frozenset({0, 1, 2}), 0, 1): 3}


class TestNeighboringPair:
    def test_fields(self):
        g = path(3)
        sigma = Coloring((0, 1, 0), 3)
        tau = sigma.recolor({1: 2})
        pair = NeighboringPair(g, sigma, tau)
        assert (pair.v, pair.s, pair.t) == (1, 1, 2)
        assert pair.k == 3
        assert pair.delta(0) == 2
        assert pair.delta(1) == 0
        assert is_proper(g, pair.sigma) and is_proper(g, pair.tau)

    def test_rejects_non_neighbors(self):
        g = path(3)
        a = Coloring((0, 1, 0), 3)
        with pytest.raises(InputError):
            NeighboringPair(g, a, a)
        with pytest.raises(InputError):
            NeighboringPair(g, a, Coloring((1, 0, 0), 3))
        with pytest.raises(InputError):
            NeighboringPair(g, a, Coloring((0, 1, 0), 2))

    def test_rejects_a_coloring_of_another_length(self):
        g = path(3)
        a = Coloring((0, 1, 0), 3)
        for other in (Coloring((0, 2), 3), Coloring((0, 2, 0, 1), 3)):
            for sigma, tau in ((a, other), (other, a)):
                with pytest.raises(InputError, match="coloring length does not match graph"):
                    NeighboringPair(g, sigma, tau)


class TestPairFile:
    def test_round_trip(self, tmp_path):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sigma = Coloring((0, 1, 0, 1), 3)
        tau = sigma.recolor({2: 2})
        p = str(tmp_path / "pair.txt")
        write_pair_file(p, g, sigma, tau)
        g2, s2, t2 = read_pair_file(p)
        assert g2.n == g.n and g2.edges == g.edges
        assert s2.colors == sigma.colors and s2.k == sigma.k
        assert t2.colors == tau.colors

    def test_single_coloring_and_comments(self, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("# comment\n\n2 2 1\n0 1\nsigma\n0 1\n")
        g, sigma, tau = read_pair_file(str(p))
        assert g.n == 2 and sigma.colors == (0, 1) and tau is None

    def test_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 2 1\n0 1\n")
        with pytest.raises(InputError):
            read_pair_file(str(p))
        p.write_text("2 2 2\n0 1\n0 1\nsigma\n0 1\n")
        with pytest.raises(InputError):
            read_pair_file(str(p))
