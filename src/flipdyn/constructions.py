"""Worst-case neighboring pairs: trees on which one-step analysis is tight.

Four indexed families, all rooted at a disagreement vertex v of degree d
with sigma(v) = 0 and tau(v) = 1:

  index 1   d children paired by color (colors 2, 3, ...), each child
            carrying two leaves colored 0; every paired color sits in the
            Bad configuration with signature (7, 3, (3,3), (1,1)).
  index a   (a = 2, 3, 4) d disjoint paths of a vertices hanging off v,
            path i alternating (2+i, 0, 2+i, ...); every path color is a
            Sing configuration with signature (a+1, 2, (a), (1)).

Each family's per-color block cost has a closed form, so the exact
coupling enumeration can be cross-checked against
(d/2) H(7,3,(3,3),(1,1)) or d H(a+1,2,(a),(1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dynamics import FlipProbabilities
from .errors import InputError
from .graphs import Coloring, Graph, NeighboringPair
from .lp import h_value


@dataclass(frozen=True)
class ConstructionSpec:
    """index 1..4, root degree d, color count k."""

    index: int
    d: int
    k: int

    def __post_init__(self) -> None:
        if self.index not in (1, 2, 3, 4):
            raise InputError(f"index must be 1..4, got {self.index}")
        if self.d < 2:
            raise InputError(f"need d >= 2, got {self.d}")
        if self.index == 1:
            if self.d % 2 != 0:
                raise InputError("index 1 needs even d")
            if self.k < self.d // 2 + 2:
                raise InputError(f"index 1 needs k >= d/2 + 2, got k={self.k}, d={self.d}")
        else:
            if self.k < self.d + 2:
                raise InputError(
                    f"index {self.index} needs k >= d + 2, got k={self.k}, d={self.d}"
                )

    @property
    def n(self) -> int:
        return 3 * self.d + 1 if self.index == 1 else self.index * self.d + 1


def build_construction(spec: ConstructionSpec) -> NeighboringPair:
    """Build the pair: the tree, sigma as described, tau = sigma with the
    root recolored from 0 to 1."""
    d, k = spec.d, spec.k
    edges: list[tuple[int, int]] = []
    colors: list[int] = [0] * spec.n
    if spec.index == 1:
        # root 0; children 1..d; leaves d+1..3d (two per child)
        for j in range(d):
            child = 1 + j
            edges.append((0, child))
            colors[child] = 2 + j // 2
            for t in range(2):
                leaf = 1 + d + 2 * j + t
                edges.append((child, leaf))
                colors[leaf] = 0
    else:
        a = spec.index
        for i in range(d):
            prev = 0
            for t in range(a):
                node = 1 + a * i + t
                edges.append((prev, node))
                colors[node] = (2 + i) if t % 2 == 0 else 0
                prev = node
    g = Graph(spec.n, edges)
    sigma = Coloring(tuple(colors), k)
    tau = sigma.recolor({0: 1})
    return NeighboringPair(g, sigma, tau)


def analytic_one_step_change(spec: ConstructionSpec, probs: FlipProbabilities) -> Fraction:
    """Closed-form total block cost over the root's neighborhood colors.

    Index 1 has d/2 doubled colors, each costing H(7,3,(3,3),(1,1));
    index a has d path colors, each costing H(a+1,2,(a),(1)).  The full
    one-step identity also carries the coalescence credit:
    nk * expected_distance_change = -|{c : delta_c = 0}| + this value.
    """
    if spec.index == 1:
        return Fraction(spec.d, 2) * h_value(probs, 7, 3, (3, 3), (1, 1))
    a = spec.index
    return spec.d * h_value(probs, a + 1, 2, (a,), (1,))
