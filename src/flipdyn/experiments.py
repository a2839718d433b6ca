"""Monte Carlo experiments over the coupled walk, with exact side-checks.

Replicas are independent: replica i draws from a Philox stream keyed by
(seed, i), so results do not depend on scheduling, and reports are
aggregated in replica order.  Identical configs therefore produce
byte-identical reports regardless of worker count.  Every command runs
its replicas through one harness (_replicas), which sets the experiment's
context (the resolved pair and vector, seed, step cap, tracked color,
the start walk every replica copies, and one Philox generator) before
its forked workers start, so they inherit it; worker count 0 means
automatic, and without fork replicas run in-process.  Each replica
re-keys the context's generator to the start of its own stream
(_rekeyed), which gives the stream a new generator keyed (seed, i) gives
(_replica_rng, the reference the tests compare against); a forked worker
re-keys its own copy.  A replica that exceeds the step cap is in the CSV
and counted in exceeded_cap, but left out of every metric.  Each replica
returns its walk's work counters next to its row; the harness strips
them from the rows and sums them into RunStats, which the CLI writes to
its --stats sidecar and which never enters a report or CSV.

Each report carries normal-approximation 95% confidence intervals and,
where a single-step quantity has an exact enumeration counterpart
(terminating mass, stage-transition masses), the exact rational next to
the sampled estimate.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .classify import (Stage, StateLabel, classify_color, gamma_bound, stage_step_masses,
                       state_counts, walk_stages)
from .constructions import ConstructionSpec, build_construction
from .coupling import CoupledWalk, start_walk, terminating_mass, variable_length_coupling
from .dynamics import FlipProbabilities, fraction_str, resolve_probabilities
from .errors import CapacityError, InputError, create_output, output_file
from .graphs import NeighboringPair, read_neighboring_pair

Z95 = 1.959963984540054


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: the start pair, the flip vector, and the replica plan."""

    seed: int
    replicas: int
    construction: Optional[ConstructionSpec] = None
    pair_file: Optional[str] = None
    probs: str = "mixed"
    step_cap: Optional[int] = None
    workers: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise InputError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.replicas < 1:
            raise InputError("need replicas >= 1")
        if self.workers < 0:
            raise InputError(f"need workers >= 0 (0 = automatic), got {self.workers}")
        if self.step_cap is not None and self.step_cap < 1:
            raise InputError(f"need step_cap >= 1, got {self.step_cap}")
        if (self.construction is None) == (self.pair_file is None):
            raise InputError("exactly one of construction or pair_file is required")

    def resolve_pair(self) -> NeighboringPair:
        if self.construction is not None:
            return build_construction(self.construction)
        return read_neighboring_pair(self.pair_file)

    def resolve_probs(self) -> FlipProbabilities:
        return resolve_probabilities(self.probs)


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    se: float
    ci_low: float
    ci_high: float
    n: int

    @staticmethod
    def from_values(values) -> "MetricSummary":
        arr = np.asarray(values, dtype=float)
        if len(arr) == 0:
            return MetricSummary(float("nan"), float("nan"), float("nan"), float("nan"), 0)
        mean = float(arr.mean())
        se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        return MetricSummary(mean, se, mean - Z95 * se, mean + Z95 * se, len(arr))

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "se": self.se,
            "ci95": [self.ci_low, self.ci_high],
            "n": self.n,
        }


@dataclass
class ExperimentReport:
    """Aggregated metrics, exact counterparts, and pass/fail comparisons."""

    kind: str
    params: dict
    metrics: dict[str, MetricSummary] = field(default_factory=dict)
    exact: dict[str, str] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    # how the replicas ran; never written into the report
    stats: Optional[RunStats] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "params": self.params,
            "metrics": {k: v.as_dict() for k, v in sorted(self.metrics.items())},
            "exact": dict(sorted(self.exact.items())),
            "checks": dict(sorted(self.checks.items())),
            "counts": dict(sorted(self.counts.items())),
            "ok": self.ok,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"experiment: {self.kind}"]
        for key in sorted(self.params):
            lines.append(f"  {key} = {self.params[key]}")
        if self.metrics:
            lines.append("metrics (mean, se, 95% CI, n):")
            for name in sorted(self.metrics):
                m = self.metrics[name]
                lines.append(
                    f"  {name}: {m.mean:.6g} +- {m.se:.3g} "
                    f"[{m.ci_low:.6g}, {m.ci_high:.6g}] n={m.n}"
                )
        if self.exact:
            lines.append("exact quantities:")
            for name in sorted(self.exact):
                lines.append(f"  {name} = {self.exact[name]}")
        if self.counts:
            lines.append("counts:")
            for name in sorted(self.counts):
                lines.append(f"  {name} = {self.counts[name]}")
        if self.checks:
            lines.append("checks:")
            for name in sorted(self.checks):
                lines.append(f"  {name}: {'pass' if self.checks[name] else 'FAIL'}")
        lines.append(f"overall: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunStats:
    """Where one experiment's replica run went, summed over its replicas
    and workers: the `sim --stats` sidecar.  wall_s times the run from the
    start walk's build to the last row; it varies from run to run, so none
    of this enters the report or the CSV.  A couple or gamma replica that
    exceeds the step cap adds its steps alone: its walk, and with it the
    walk's other counters, ends with the CapacityError."""

    wall_s: float
    replicas: int
    steps: int
    rebuilds: int
    blocks_built: int
    blocks_reused: int
    workers: int
    cap_overruns: int

    def to_json(self) -> str:
        wall = self.wall_s
        payload = {
            "wall_s": wall,
            "replicas": self.replicas,
            "replicas_per_s": self.replicas / wall if wall else 0.0,
            "steps": self.steps,
            "steps_per_s": self.steps / wall if wall else 0.0,
            "rebuilds": self.rebuilds,
            "blocks_built": self.blocks_built,
            "blocks_reused": self.blocks_reused,
            "workers": self.workers,
            "cap_overruns": self.cap_overruns,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _replica_rng(seed: int, replica: int) -> np.random.Generator:
    # An explicit uint64 key: a Python list would be cast through float64
    # once seed >= 2**63 and alias neighboring seeds.
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, replica], dtype=np.uint64))
    )


_ZEROS = np.zeros(4, dtype=np.uint64)


def _rekeyed(rng: np.random.Generator, seed: int, replica: int) -> np.random.Generator:
    """rng, a Philox generator, set to the start of replica's stream: the
    state _replica_rng(seed, replica) starts in (counter 0, an empty
    buffer and no spare 32-bit half), without building a new generator."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": np.array([seed, replica], dtype=np.uint64)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


# ---------------------------------------------------------------------------
# one replica harness; every replica reads the experiment's context


@dataclass(frozen=True)
class _Context:
    """What every replica of one experiment reads."""

    pair: NeighboringPair
    probs: FlipProbabilities
    seed: int
    step_cap: int
    color: Optional[int]
    start: CoupledWalk
    # the one generator every replica re-keys (_rekeyed); a forked worker
    # re-keys its own copy
    rng: np.random.Generator = field(
        default_factory=lambda: _replica_rng(0, 0), compare=False, repr=False)


# The running experiment's context, set by _replicas and None between
# experiments; forked workers inherit it, so no chunk pickles the pair.
_CONTEXT: Optional[_Context] = None


def _couple_replica(replica: int) -> tuple[tuple, tuple[int, int, int, int]]:
    ctx = _CONTEXT
    rng = _rekeyed(ctx.rng, ctx.seed, replica)
    try:
        rec = variable_length_coupling(ctx.pair, ctx.probs, rng, ctx.step_cap, start=ctx.start)
    except CapacityError:
        # the walk ran step_cap steps; its other counters went with it
        return (0, 1, 1, 0, 0), (ctx.step_cap, 0, 0, 0)
    counts = state_counts(rec.pre_stop, rec.pre_stop_blocks)
    return ((rec.t_stop, rec.final_distance, 0, counts.n_bad, counts.n_good),
            (rec.t_stop, rec.rebuilds, rec.blocks_built, rec.blocks_reused))


_COUPLE_HEADER = ("t_stop", "final_distance", "exceeded_cap", "n_bad_pre", "n_good_pre")


def _stage_replica(replica: int) -> tuple[tuple, tuple[int, int, int, int]]:
    ctx = _CONTEXT
    walk = CoupledWalk(ctx.pair, ctx.probs, _rekeyed(ctx.rng, ctx.seed, replica), ctx.start)
    try:
        result = walk_stages(walk, ctx.color, ctx.step_cap)
    except CapacityError:
        return (0, 0, 1), _walk_counts(walk)
    return (1 if result.outcome == Stage.GOOD_END else 0, result.steps, 0), _walk_counts(walk)


def _walk_counts(walk: CoupledWalk) -> tuple[int, int, int, int]:
    """The work counters a replica returns next to its row."""
    return (walk.steps, walk.rebuilds, walk.blocks_built, walk.blocks_reused)


def _map_replicas(config: ExperimentConfig, fn) -> tuple[list, int]:
    """fn of every replica, in replica order, and the number of processes
    that ran them."""
    # a pool larger than the replica count would only start idle workers
    workers = min(config.workers or min(os.cpu_count() or 1, 8), config.replicas)
    if workers <= 1 or config.replicas < 64 or not hasattr(os, "fork"):
        return [fn(i) for i in range(config.replicas)], 1
    import multiprocessing as mp

    with mp.get_context("fork").Pool(workers) as pool:
        chunk = max(1, config.replicas // (workers * 8))
        return list(pool.imap(fn, range(config.replicas), chunksize=chunk)), workers


def _replicas(config: ExperimentConfig, pair: NeighboringPair, probs: FlipProbabilities, fn,
              header: tuple[str, ...], csv_path: Optional[str],
              color: Optional[int] = None) -> tuple[list[tuple], int, RunStats]:
    """Run fn on every replica from (pair, probs): the rows of the
    replicas that stopped within the cap, how many did not (a row's third
    field is exceeded_cap), and the run's stats, summed from the counters
    each replica returns next to its row.  Writes every row to csv_path
    if given."""
    global _CONTEXT
    create_output(csv_path)
    step_cap = config.step_cap or 100 * pair.graph.n * pair.k
    began = time.perf_counter()
    _CONTEXT = _Context(pair, probs, config.seed, step_cap, color, start_walk(pair, probs))
    try:
        results, workers = _map_replicas(config, fn)
    finally:
        _CONTEXT = None
    wall = time.perf_counter() - began
    rows = [row for row, _ in results]
    steps, rebuilds, built, reused = (sum(col) for col in zip(*(n for _, n in results)))
    if csv_path:
        import csv

        with output_file(csv_path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("replica",) + header)
            writer.writerows((i,) + row for i, row in enumerate(rows))
    done = [r for r in rows if r[2] == 0]
    capped = len(rows) - len(done)
    return done, capped, RunStats(wall, len(rows), steps, rebuilds, built, reused, workers,
                                  capped)


def _params(config: ExperimentConfig, pair: NeighboringPair) -> dict:
    return {"n": pair.graph.n, "k": pair.k, "d": pair.graph.degree(pair.v),
            "probs": config.probs, "replicas": config.replicas, "seed": config.seed}


def run_coupling_experiment(
    config: ExperimentConfig, csv_path: Optional[str] = None
) -> ExperimentReport:
    """Variable-length coupling replicas from one start pair.

    Reports E[T_stop] against the drift bound nk/(k - d - 2), the mean
    final distance (and minus one), the largest single-run excursion
    against the width 2 n_max + 1, and the exact terminating-mass
    interval at the start state.  Cap overruns are counted, not fatal,
    but with no replica completed the checks on the completed ones fail.
    Requires k >= d + 2 for the comparisons to make sense.
    """
    pair = config.resolve_pair()
    probs = config.resolve_probs()
    n, k, d = pair.graph.n, pair.k, pair.graph.degree(pair.v)
    if k < d + 2:
        raise InputError(f"need k >= d + 2, got k={k}, d={d}")
    done, capped, stats = _replicas(config, pair, probs, _couple_replica, _COUPLE_HEADER,
                                    csv_path)
    report = ExperimentReport(kind="couple", params=_params(config, pair),
                              counts={"exceeded_cap": capped, "completed": len(done)},
                              stats=stats)
    if done:
        t_stops = [r[0] for r in done]
        finals = [r[1] for r in done]
        report.metrics["t_stop"] = MetricSummary.from_values(t_stops)
        report.metrics["final_distance"] = MetricSummary.from_values(finals)
        fm = report.metrics["final_distance"]
        report.metrics["final_distance_minus_1"] = MetricSummary(
            fm.mean - 1, fm.se, fm.ci_low - 1, fm.ci_high - 1, fm.n
        )
        report.counts["max_excursion"] = max(finals)

    tm = terminating_mass(pair, probs)
    report.exact["terminating_mass"] = fraction_str(tm)
    p2 = probs.mass(2)
    if k > d + 2:
        lo = Fraction(k - d - 2, n * k)
        hi = Fraction(k, n * k) + Fraction(2, n * k) * p2 * d
        report.exact["terminating_mass_low"] = fraction_str(lo)
        report.exact["terminating_mass_high"] = fraction_str(hi)
        report.checks["terminating_mass_in_interval"] = lo <= tm <= hi
        drift = float(Fraction(n * k, k - d - 2))
        report.exact["t_stop_drift_bound"] = f"{n * k}/{k - d - 2}"
        report.checks["t_stop_within_drift_bound"] = (
            bool(done) and report.metrics["t_stop"].ci_low <= drift)
    w = 2 * probs.n_max + 1
    report.counts["excursion_width_limit"] = w
    report.checks["excursion_within_width"] = (
        bool(done) and report.counts["max_excursion"] <= w)
    return report


def run_stage_experiment(
    config: ExperimentConfig, color: int, csv_path: Optional[str] = None
) -> ExperimentReport:
    """Stage-machine replicas from a pair in the Bad configuration at
    the tracked color, against the exact one-step masses and the
    GoodEnd-probability target (1/gamma)(k + 2 p_2 d)/(nk).  Cap overruns
    are counted, not fatal; with no replica completed the GoodEnd check
    fails."""
    pair = config.resolve_pair()
    probs = config.resolve_probs()
    if classify_color(pair, color) is not StateLabel.BAD:
        raise InputError(f"start pair is not in the Bad configuration at color {color}")
    n, k, d = pair.graph.n, pair.k, pair.graph.degree(pair.v)
    done, capped, stats = _replicas(config, pair, probs, _stage_replica,
                                    ("good_end", "steps", "exceeded_cap"), csv_path, color)
    report = ExperimentReport(kind="stages", params={**_params(config, pair), "color": color},
                              counts={"exceeded_cap": capped}, stats=stats)
    if done:
        report.metrics["p_good_end"] = MetricSummary.from_values([r[0] for r in done])
        report.metrics["steps"] = MetricSummary.from_values([r[1] for r in done])

    masses = stage_step_masses(pair, color, probs)
    report.exact["mass_to_good"] = fraction_str(masses.to_good)
    report.exact["mass_terminating"] = fraction_str(masses.terminating)
    report.exact["bad_to_good_floor"] = fraction_str(Fraction(4 * (k - d - 1), n * k))
    report.checks["bad_to_good_mass"] = masses.to_good >= Fraction(4 * (k - d - 1), n * k)
    if k > d + 2:
        gamma, _ = gamma_bound(k, d, probs.mass(2))
        target = (Fraction(k) + 2 * probs.mass(2) * d) / (gamma * n * k)
        report.exact["good_end_target"] = fraction_str(target)
        report.checks["good_end_probability"] = (
            bool(done) and report.metrics["p_good_end"].ci_high >= float(target))
    return report


def estimate_gamma_empirical(
    config: ExperimentConfig, csv_path: Optional[str] = None
) -> ExperimentReport:
    """Ratio of mean Bad-count to mean Good-count one step before the
    distance changes, with a delta-method confidence interval, compared
    against the analytic gamma bound.  The bound needs k > d + 2; below
    that the call raises InputError before any replica runs."""
    pair = config.resolve_pair()
    probs = config.resolve_probs()
    # the bound needs k > d + 2: fail before any replica runs
    gamma, _ = gamma_bound(pair.k, pair.graph.degree(pair.v), probs.mass(2))
    done, capped, stats = _replicas(config, pair, probs, _couple_replica, _COUPLE_HEADER,
                                    csv_path)
    report = ExperimentReport(kind="gamma", params=_params(config, pair),
                              counts={"exceeded_cap": capped, "completed": len(done)},
                              stats=stats)
    if not done:
        report.checks["ratio_below_gamma_bound"] = False
        return report

    bad = np.array([r[3] for r in done], dtype=float)
    good = np.array([r[4] for r in done], dtype=float)
    report.metrics["n_bad_pre_stop"] = MetricSummary.from_values(bad)
    report.metrics["n_good_pre_stop"] = MetricSummary.from_values(good)
    xbar, ybar = float(bad.mean()), float(good.mean())
    m = len(done)
    ratio = xbar / ybar
    if m > 1:
        vx = float(bad.var(ddof=1))
        vy = float(good.var(ddof=1))
        cxy = float(np.cov(bad, good, ddof=1)[0, 1])
        var_ratio = (
            vx / ybar**2 + (xbar**2) * vy / ybar**4 - 2 * xbar * cxy / ybar**3
        ) / m
        se = math.sqrt(max(var_ratio, 0.0))
    else:
        se = 0.0
    report.metrics["bad_good_ratio"] = MetricSummary(
        ratio, se, ratio - Z95 * se, ratio + Z95 * se, m
    )
    report.exact["gamma_bound"] = fraction_str(gamma)
    report.checks["ratio_below_gamma_bound"] = ratio - Z95 * se <= float(gamma)
    return report
