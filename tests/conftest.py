"""Shared fixtures: small-graph enumeration and probability vectors."""

from __future__ import annotations

import contextlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import settings

from flipdyn import Coloring, Graph, NeighboringPair, alt_vector, vigoda_vector

# Every Hypothesis test draws the same examples on every run (derandomize
# seeds each test from its own source) and stores none between runs; the
# tests' own decorators set only max_examples.
settings.register_profile("flipdyn", derandomize=True, deadline=None, database=None)
settings.load_profile("flipdyn")


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """All simple graphs on n labeled vertices, one per isomorphism class.

    Brute force: enumerate every edge subset of K_n and keep the
    lexicographically least representative under vertex permutations.
    """
    all_edges = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for bits in range(1 << len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if bits >> i & 1]
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in perms
        )
        if canon not in seen:
            seen.add(canon)
            out.append(Graph(n, list(canon)))
    return out


def small_graph_corpus() -> list[Graph]:
    """One representative of every isomorphism class with at most 4 vertices."""
    graphs = []
    for n in range(1, 5):
        graphs.extend(nonisomorphic_graphs(n))
    return graphs


def neighboring_pairs(g: Graph, k: int, ordered: bool = True):
    """Every neighboring pair on g with colors {0..k-1}.

    Yields one NeighboringPair per (coloring, vertex, new color) draw with
    new color != old; with ordered=False only new color > old is emitted
    (one orientation per unordered pair of colorings).
    """
    for colors in itertools.product(range(k), repeat=g.n):
        sigma = Coloring(colors, k)
        for v in range(g.n):
            s = colors[v]
            for t in range(k):
                if t == s or (not ordered and t < s):
                    continue
                yield NeighboringPair(g, sigma, sigma.recolor({v: t}))


@contextlib.contextmanager
def simplex_calls():
    """Record every solve_simplex call that lp.solve makes.

    Yields a list that gains one dict per call: "args" (variables,
    constraints, objective), "result", and "pivots", the (entering column,
    leaving basic column) of each pivot in order.
    """
    import flipdyn.lp as lp
    import flipdyn.simplex as simplex

    calls: list[dict] = []
    solve, pivot = lp.solve_simplex, simplex._pivot

    def traced_pivot(rows, dens, basis, r, e):
        calls[-1]["pivots"].append((e, basis[r]))
        pivot(rows, dens, basis, r, e)

    def traced_solve(*args):
        calls.append({"args": args, "pivots": []})
        calls[-1]["result"] = solve(*args)
        return calls[-1]["result"]

    lp.solve_simplex, simplex._pivot = traced_solve, traced_pivot
    try:
        yield calls
    finally:
        lp.solve_simplex, simplex._pivot = solve, pivot


@pytest.fixture
def pivot_dtypes(monkeypatch):
    """A list that gains the simplex tableau's dtype before and after every
    pivot, as one (before, after) pair per pivot."""
    import flipdyn.simplex as simplex

    seen: list[tuple[object, object]] = []
    pivot = simplex._pivot

    def recorded(tab, cols, basis, r, e):
        before = tab.a.dtype
        pivot(tab, cols, basis, r, e)
        seen.append((before, tab.a.dtype))

    monkeypatch.setattr(simplex, "_pivot", recorded)
    return seen


@pytest.fixture
def reduced_rows(monkeypatch):
    """Check after every simplex pivot that each tableau row, the reduced
    costs included, is in lowest terms: gcd(entries, den) = 1.  Returns a
    list that gains the tableau's dtype after every pivot it checked."""
    import numpy as np

    import flipdyn.simplex as simplex

    checked: list[object] = []
    pivot = simplex._pivot

    def checked_pivot(tab, cols, basis, r, e):
        pivot(tab, cols, basis, r, e)
        unreduced = np.flatnonzero(np.gcd.reduce(tab.a, axis=1) != 1)
        assert not unreduced.size, f"rows {unreduced.tolist()} not in lowest terms"
        checked.append(tab.a.dtype)

    monkeypatch.setattr(simplex, "_pivot", checked_pivot)
    return checked


@pytest.fixture(scope="session")
def paper_vectors():
    return {"vigoda": vigoda_vector(), "alt": alt_vector()}


@pytest.fixture(scope="session")
def graphs_n_le_4():
    corpus = small_graph_corpus()
    # Known counts of isomorphism classes of simple graphs on 1..4 vertices.
    assert [sum(1 for g in corpus if g.n == n) for n in range(1, 5)] == [1, 2, 4, 11]
    return corpus


F = Fraction
