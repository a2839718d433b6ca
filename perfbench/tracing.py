"""Span recording around flipdyn's public functions, from outside the package.

A Tracer keeps spans in flat arrays (name, parent, start, end, size) and
writes them to one .npz file when the run ends.  `traced` installs timing
wrappers on the module or class attribute through which each layer is
called, and puts the originals back on exit.  Nothing under src/ changes:
the wrappers see only what crosses a public boundary.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span store; a span's parent is the span open when it began."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, size: int = 0) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str | None = None) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if name is not None:
            self.name[idx] = self._id(name)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, fn, rename=None, size_of=None):
        """fn timed as a span; rename(result) may relabel it when it returns,
        size_of(args) may attach an integer size."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, size_of(args) if size_of else 0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, rename(out) if rename else None)
            return out

        return wrapper

    def view(self, pauses=((), ())) -> "SpanView":
        return SpanView(self, pauses)

    def save(self, path: str) -> None:
        v = self.view()
        np.savez(path, names=np.array(self.names), name=v.name, parent=v.parent,
                 size=v.size, start=v.start, end=v.end)


class SpanView:
    """numpy view of a Tracer with the per-name queries the metrics need.

    `pauses` holds the start times and durations of the speed probe's
    samples; the time a sample took inside a span is taken out of it."""

    def __init__(self, tracer: Tracer, pauses=((), ())) -> None:
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.size = np.frombuffer(tracer.size, dtype=np.int64).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        starts = np.asarray(pauses[0], dtype=np.float64)
        paused = np.concatenate([[0.0], np.cumsum(pauses[1])])
        self.dur = (self.end - self.start
                    - paused[np.searchsorted(starts, self.end)]
                    + paused[np.searchsorted(starts, self.start)])
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)

    def under(self, name: str, ancestor: str) -> np.ndarray:
        """Spans called `name` with some ancestor called `ancestor`."""
        out = self.mask(name)
        anc = self.mask(ancestor)
        for i in np.flatnonzero(out):
            p = self.parent[i]
            while p >= 0 and not anc[p]:
                p = self.parent[p]
            out[i] = p >= 0
        return out


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def step_kind(move) -> str:
    """Label a CoupledWalk.step result: no flip, identity-coupled, or a move of D."""
    if move is None:
        return "coupling.step.noop"
    return "coupling.step.term" if move.terminating else "coupling.step.ident"


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the layer wrappers; each is patched where its caller looks it up."""
    import flipdyn.coupling as coupling
    import flipdyn.dynamics as dynamics
    import flipdyn.experiments as experiments
    import flipdyn.lp as lp

    targets = [
        (lp, "solve", "lp.solve", None, None),
        (lp, "solve_simplex", "simplex.solve", None, lambda a: len(a[1])),
        (lp, "slack_report", "lp.slack_report", None, None),
        (lp.HFamily, "scan", "lp.scan", None, None),
        (lp.HFamily, "tuple_slack", "lp.tuple_slack", None, None),
        (lp.HFamily, "branch_constraints", "lp.branch", None, None),
        (coupling.CoupledWalk, "step", "coupling.step", step_kind, None),
        (coupling, "greedy_coupling_distribution", "coupling.distribution", None, None),
        (coupling, "alternating_component", "graphs.alternating_component", None, None),
        (dynamics, "flip_step_distribution", "dynamics.flip_step_distribution", None, None),
        (experiments, "variable_length_coupling", "coupling.walk", None, None),
        (experiments, "state_counts", "classify.state_counts", None, None),
    ]
    saved = []
    try:
        for owner, attr, name, rename, size_of in targets:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, rename, size_of))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def layer_metrics(v: SpanView) -> dict[str, float]:
    """Per-layer metrics every workload reports; a layer a workload does not
    call reads 0."""
    m: dict[str, float] = {}
    simplex = v.mask("simplex.solve")
    m["simplex.solve_s"] = float(v.dur[simplex].sum())
    m["simplex.calls"] = int(simplex.sum())
    m["simplex.rows_max"] = int(v.size[simplex].max()) if simplex.any() else 0

    m["lp.scan_s"] = float(v.dur[v.mask("lp.scan")].sum())
    m["lp.certify_s"] = float(v.dur[v.under("lp.tuple_slack", "lp.solve")].sum())
    m["lp.branch_s"] = float(v.dur[v.mask("lp.branch")].sum())
    m["lp.solve_self_s"] = float(v.self_time[v.mask("lp.solve")].sum())
    m["lp.slack_report_s"] = float(v.dur[v.mask("lp.slack_report")].sum())

    steps = np.zeros(len(v.dur), dtype=bool)
    for kind in ("ident", "noop", "term"):
        sel = v.mask(f"coupling.step.{kind}")
        steps |= sel
        m[f"coupling.step_s.{kind}"] = float(v.dur[sel].sum())
        m[f"coupling.step_count.{kind}"] = int(sel.sum())
        m[f"coupling.step_us_p50.{kind}"] = percentile(v.dur[sel], 50) * 1e6
    m["coupling.steps"] = int(steps.sum())
    walks = v.dur[v.mask("coupling.walk")]
    m["coupling.walk_ms_p50"] = percentile(walks, 50) * 1e3
    m["coupling.walk_ms_p99"] = percentile(walks, 99) * 1e3

    dist = v.dur[v.mask("coupling.distribution")]
    m["coupling.distribution_calls"] = len(dist)
    m["coupling.distribution_us_p50"] = percentile(dist, 50) * 1e6
    m["coupling.distribution_us_p99"] = percentile(dist, 99) * 1e6

    comp = v.mask("graphs.alternating_component")
    m["graphs.alternating_component_calls"] = int(comp.sum())
    m["graphs.alternating_component_s"] = float(v.dur[comp].sum())

    fsd = v.mask("dynamics.flip_step_distribution")
    m["dynamics.flip_step_distribution_calls"] = int(fsd.sum())
    m["dynamics.flip_step_distribution_s"] = float(v.dur[fsd].sum())

    counts = v.dur[v.mask("classify.state_counts")]
    m["classify.state_counts_s"] = float(counts.sum())
    m["classify.state_counts_us_p50"] = percentile(counts, 50) * 1e6
    m["trace.spans"] = len(v.dur)
    return m
