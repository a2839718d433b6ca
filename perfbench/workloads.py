"""The benchmark's workloads: set-up, one measured pass, and exact checks.

Each workload builds its inputs in `build` (timed into setup_s), runs a
small warm-up in `warmup` (also setup_s), and then repeats `measure`, one
pass of fixed work, for the run's duration; each Pass keeps its wall time
and the machine-speed factor its probe measured.  Every output is checked
exactly after the timed region; each mismatch is counted in the Tally.
`trace` runs one untraced pass and one traced pass, so the traced counts
repeat exactly and the difference of their scaled times is the tracing cost.

Callers reach flipdyn through module attributes (`lp.solve`,
`coupling.greedy_coupling_distribution`, ...) so that the wrappers that
tracing.traced installs see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import flipdyn.coupling as coupling
import flipdyn.dynamics as dynamics
import flipdyn.experiments as experiments
import flipdyn.lp as lp
from flipdyn.cli import OBSERVATION_TIGHT_LABELS
from flipdyn.constructions import ConstructionSpec, build_construction
from flipdyn.errors import CapacityError
from flipdyn.graphs import Coloring, Graph, NeighboringPair

import speed
import tracing

F = Fraction
# Criterion 11's seeds are 1000 + construction index; the goldens hold
# digests for this base seed only.
GOLDEN_SEED = 1000
SIM_WORKERS = 2


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def no_span(name):
    return contextlib.nullcontext()


@dataclass
class Tally:
    """Exact checks attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.notes.append(what)


@dataclass
class Pass:
    wall: float
    items: int
    factor: float = 1.0
    detail: dict = field(default_factory=dict)

    @property
    def scaled(self) -> float:
        return self.wall * self.factor


class Workload:
    # Period of the machine-speed timer during a pass; None for none.
    PROBE_PERIOD: float | None = 0.25

    def __init__(self, seed: int, smoke: bool, goldens: dict, out_dir: Path):
        self.seed = seed
        self.smoke = smoke
        self.goldens = goldens
        self.out_dir = out_dir
        self.probe = speed.Probe(self.PROBE_PERIOD)

    def golden(self, section: str, key: str, value, tally: Tally, what: str) -> None:
        """Compare value with the stored golden; a missing golden is a failure."""
        expected = self.goldens.get(section, {}).get(key)
        tally.check(expected == value, f"{what}: {value!r} != golden {expected!r}")

    def trace(self, tally: Tally, tracer: tracing.Tracer) -> tuple[float, float, dict]:
        base = self.measure(tally)
        with tracing.traced(tracer):
            run = self.measure(tally, tracer.span)
        return base.scaled, run.scaled, self.trace_extra(base, run, tally)

    def trace_extra(self, base: Pass, run: Pass, tally: Tally) -> dict:
        return {}

    def span_extra(self, view: tracing.SpanView) -> dict:
        return {}


# ---------------------------------------------------------------------------
# lp-exact


class LpExact(Workload):
    """Exact solves of the one-step and gamma-mixed programs, then the slack
    and observation step that evaluates every family tuple exactly."""

    def build(self) -> None:
        nv, nm, ns = (4, 4, 6) if self.smoke else (7, 6, 7)
        self.sizes = (nv, nm)
        self.vigoda = lp.build_vigoda_lp(nv, 3)
        self.mixed = lp.build_mixed_lp(nm, 3, F("25.597784"), cap3=True)
        self.slack_inst = lp.build_vigoda_lp(ns, 3)
        self.obs_inst = lp.build_vigoda_lp(6, 3)
        self.alt = dynamics.alt_vector()

    def warmup(self) -> None:
        small = lp.build_vigoda_lp(3, 3)
        lp.slack_report(small, lp.solve(small).assignment)

    def measure(self, tally: Tally, span=no_span) -> Pass:
        timed = self.probe.timed
        with timed() as total:
            with span("phase:vigoda7"), timed() as t_v:
                sol_v = lp.solve(self.vigoda)
            with span("phase:mixed6"), timed() as t_m:
                sol_m = lp.solve(self.mixed)
            with span("phase:slack"), timed() as t_s:
                lam = F(11, 6)
                slack = lp.slack_report(
                    self.slack_inst, lp.extend_assignment(self.slack_inst, self.alt, lam)
                )
                obs = lp.slack_report(
                    self.obs_inst, lp.extend_assignment(self.obs_inst, self.alt, lam)
                )
        self.check(tally, sol_v, sol_m, slack, obs)
        t = {"lp.vigoda7_s": t_v.scaled, "lp.mixed6_s": t_m.scaled, "lp.slack_s": t_s.scaled}
        return Pass(wall=total.raw, items=4, factor=total.factor,
                    detail={**t, "solutions": {"vigoda7": sol_v, "mixed6": sol_m}})

    def check(self, tally, sol_v, sol_m, slack, obs) -> None:
        nv, nm = self.sizes
        for key, sol in ((f"vigoda-n{nv}", sol_v), (f"mixed-n{nm}", sol_m)):
            ok = sol.status == "optimal"
            tally.check(ok, f"{key}: status {sol.status}")
            if not ok:
                continue
            assignment = {v: frac(x) for v, x in sorted(sol.assignment.items())}
            self.golden("lp", key, {
                "objective": frac(sol.objective_value),
                "assignment_sha256": sha256(json.dumps(assignment, sort_keys=True)),
            }, tally, key)
        if not self.smoke:
            tally.check(sol_v.objective_value == F(11, 6), "vigoda-n7 objective != 11/6")
            tally.check(
                sol_m.objective_value is not None
                and sol_m.objective_value < F(1833239, 10**6),
                "mixed-n6 objective not below 1.833239",
            )
            mixed = dynamics.mixed_vector()
            tally.check(
                all(sol_m.assignment.get(f"p{i}") == mixed.mass(i) for i in range(1, 7)),
                "mixed-n6 p1..p6 differ from the mixed preset",
            )
        tally.check(slack.feasible and not slack.violated,
                    f"alt vector infeasible at 11/6: {slack.violated[:3]}")
        tight = {x for x in obs.tight if x.startswith(("cap/", "H/"))}
        tally.check(obs.feasible and tight == OBSERVATION_TIGHT_LABELS,
                    "observation tight set not reproduced")

    def named(self, passes: list[Pass]) -> dict:
        return {
            key: (statistics.median(p.detail[key] for p in passes), "s")
            for key in ("lp.vigoda7_s", "lp.mixed6_s", "lp.slack_s")
        }

    def trace_extra(self, base: Pass, run: Pass, tally: Tally) -> dict:
        out = {}
        insts = {"vigoda7": self.vigoda, "mixed6": self.mixed}
        for key, sol in run.detail["solutions"].items():
            ref = base.detail["solutions"][key]
            tally.check(
                (sol.rounds, sol.active_constraints) == (ref.rounds, ref.active_constraints),
                f"{key}: traced rounds/active rows differ from the untraced solve",
            )
            out[f"lp.rounds.{key}"] = sol.rounds
            out[f"lp.active_rows.{key}"] = sol.active_constraints
            out[f"lp.family_tuples.{key}"] = sum(
                1 for fam in insts[key].families for _ in fam.tuples()
            )
        return out

    def span_extra(self, view: tracing.SpanView) -> dict:
        return {
            f"lp.tuple_slack_calls.{key}": int(
                view.under("lp.tuple_slack", f"phase:{key}").sum()
            )
            for key in ("vigoda7", "mixed6")
        }


# ---------------------------------------------------------------------------
# sim-gamma

GAMMA_HEADER = ("t_stop", "final_distance", "exceeded_cap", "n_bad_pre", "n_good_pre")


def csv_bytes(rows: list[tuple]) -> bytes:
    """The bytes experiments writes for these rows."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(("replica",) + GAMMA_HEADER)
    for i, row in enumerate(rows):
        writer.writerow((i,) + row)
    return buf.getvalue().encode()


class SimGamma(Workload):
    """estimate_gamma_empirical on constructions 1-4 at d=6, k=11 with the
    mixed vector, through a pool of SIM_WORKERS processes."""

    # The parent waits on the pool; machine speed is sampled between
    # constructions, while the workers are idle.
    PROBE_PERIOD = None

    def build(self) -> None:
        self.replicas = 64 if self.smoke else 2000
        self.specs = [ConstructionSpec(i, 6, 11) for i in (1, 2, 3, 4)]
        self.pairs = [build_construction(s) for s in self.specs]
        self.probs = dynamics.resolve_probabilities("mixed")
        self.first: dict[int, tuple[str, str]] = {}

    def config(self, index: int, replicas: int) -> experiments.ExperimentConfig:
        return experiments.ExperimentConfig(
            seed=self.seed + index,
            replicas=replicas,
            construction=self.specs[index - 1],
            probs="mixed",
            workers=SIM_WORKERS,
        )

    def csv_path(self, index: int) -> Path:
        return self.out_dir / f"gamma-c{index}.csv"

    def warmup(self) -> None:
        for index in (1, 2, 3, 4):
            experiments.estimate_gamma_empirical(self.config(index, 64))

    def measure(self, tally: Tally, span=no_span) -> Pass:
        reports = []
        with self.probe.timed() as total:
            for index in (1, 2, 3, 4):
                if index > 1:
                    self.probe.sample()
                reports.append(experiments.estimate_gamma_empirical(
                    self.config(index, self.replicas), csv_path=str(self.csv_path(index))
                ))
        overruns = 0
        for index, report in enumerate(reports, 1):
            overruns += report.counts.get("exceeded_cap", 0)
            self.check(tally, index, report)
        return Pass(wall=total.raw, items=4 * self.replicas, factor=total.factor,
                    detail={"cap_overruns": overruns})

    def check(self, tally: Tally, index: int, report) -> None:
        what = f"construction {index}, seed {self.seed + index}"
        data = self.csv_path(index).read_bytes()
        digests = (sha256(report.to_json()), sha256(data))
        ok = (
            report.ok
            and report.counts.get("exceeded_cap") == 0
            and report.counts.get("completed") == self.replicas
            and data.count(b"\n") == self.replicas + 1
            and self.first.setdefault(index, digests) == digests
        )
        tally.check(ok, f"{what}: report check, cap overrun or digest change between passes",
                    weight=self.replicas)
        if self.seed == GOLDEN_SEED:
            key = f"c{index}-seed{self.seed + index}-r{self.replicas}"
            self.golden("sim-gamma", key,
                        {"report_sha256": digests[0], "csv_sha256": digests[1]}, tally, what)

    def replicas_in_process(self, index: int) -> tuple[bytes, list[float]]:
        """Recompute construction `index`'s replicas with the public API; the
        Philox key (seed, replica) is the one experiments documents."""
        pair, seed = self.pairs[index - 1], self.seed + index
        rows, times = [], []
        for r in range(self.replicas):
            t0 = time.perf_counter()
            rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), r]))
            try:
                rec = experiments.variable_length_coupling(pair, self.probs, rng)
            except CapacityError:
                rows.append((0, 1, 1, 0, 0))
            else:
                pre = NeighboringPair(pair.graph, rec.pre_stop_sigma, rec.pre_stop_tau)
                counts = experiments.state_counts(pre)
                rows.append((rec.t_stop, rec.final_distance, 0, counts.n_bad, counts.n_good))
            times.append(time.perf_counter() - t0)
        return csv_bytes(rows), times

    def trace(self, tally: Tally, tracer: tracing.Tracer) -> tuple[float, float, dict]:
        pool = self.measure(tally)
        single: list[float] = []
        untraced = traced_wall = 0.0
        # Untraced and traced recomputations alternate per construction, so
        # that a drift in machine speed weighs on both alike.
        for index in (1, 2, 3, 4):
            pool_csv = self.csv_path(index).read_bytes()
            t0 = time.perf_counter()
            data, times = self.replicas_in_process(index)
            untraced += time.perf_counter() - t0
            single.extend(times)
            tally.check(data == pool_csv,
                        f"construction {index}: in-process rows differ from the pool CSV",
                        weight=self.replicas)
            with tracing.traced(tracer):
                t0 = time.perf_counter()
                data, _ = self.replicas_in_process(index)
                traced_wall += time.perf_counter() - t0
            tally.check(data == pool_csv,
                        f"construction {index}: traced rows differ from the pool CSV",
                        weight=self.replicas)
        return untraced, traced_wall, {
            "experiments.pool_efficiency": sum(single) / (SIM_WORKERS * pool.wall),
            "experiments.cap_overruns": pool.detail["cap_overruns"],
        }

    def named(self, passes: list[Pass]) -> dict:
        rate = statistics.median(p.items / p.scaled for p in passes)
        return {"sim.replicas_per_s": (rate, "1/s")}


# ---------------------------------------------------------------------------
# exact-sweep
#
# nonisomorphic_graphs and unordered_pairs repeat tests/conftest.py's
# nonisomorphic_graphs and neighboring_pairs(ordered=False), and flips_only
# the helper of the same name in tests/test_acceptance.py.  They are copied,
# not imported, so that every input of the benchmark is built by code in its
# own directory; the golden pair count ties the corpus to criterion 6.


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """One graph per isomorphism class on n vertices: the least edge list
    under vertex permutations, by brute force."""
    all_edges = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen, out = set(), []
    for bits in range(1 << len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if bits >> i & 1]
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges)) for p in perms
        )
        if canon not in seen:
            seen.add(canon)
            out.append(Graph(n, list(canon)))
    return out


def unordered_pairs(g: Graph, k: int) -> list[NeighboringPair]:
    """Every neighboring pair on g with k colors, one orientation each."""
    out = []
    for colors in itertools.product(range(k), repeat=g.n):
        sigma = Coloring(colors, k)
        for v in range(g.n):
            for t in range(colors[v] + 1, k):
                out.append(NeighboringPair(g, sigma, sigma.recolor({v: t})))
    return out


def flips_only(dist: dict) -> dict:
    return {key: m for key, m in dist.items() if key is not None and m != 0}


class ExactSweep(Workload):
    """Criterion 6: exact coupled marginals against the single-chain law on
    every neighboring pair of every graph class with at most 4 vertices."""

    def build(self) -> None:
        self.n_max = 3 if self.smoke else 4
        graphs = [g for n in range(1, self.n_max + 1) for g in nonisomorphic_graphs(n)]
        self.cases = [(g, k, unordered_pairs(g, k)) for g in graphs for k in (2, 3, 4)]
        self.vectors = (dynamics.vigoda_vector(), dynamics.alt_vector())

    def warmup(self) -> None:
        for g, k, pairs in self.cases[:12]:
            for pair in pairs:
                coupling.greedy_coupling_distribution(pair, self.vectors[0])

    def measure(self, tally: Tally, span=no_span) -> Pass:
        latencies = []
        bad = 0
        clock = time.perf_counter
        with self.probe.timed() as total:
            for g, k, pairs in self.cases:
                single: dict[tuple, dict] = {}
                for idx, probs in enumerate(self.vectors):
                    for pair in pairs:
                        t0 = clock()
                        coupled = coupling.greedy_coupling_distribution(pair, probs)
                        ok = coupled.total_mass() == 1
                        for side in (pair.sigma, pair.tau):
                            key = (idx, side.colors)
                            if key not in single:
                                single[key] = flips_only(
                                    dynamics.flip_step_distribution(g, side, probs)
                                )
                        ok = ok and flips_only(coupled.sigma_marginal()) == single[
                            (idx, pair.sigma.colors)]
                        ok = ok and flips_only(coupled.tau_marginal()) == single[
                            (idx, pair.tau.colors)]
                        latencies.append(clock() - t0)
                        bad += not ok
        tally.attempted += len(latencies)
        tally.failed += bad
        if bad:
            tally.notes.append(f"{bad} pairs with unequal marginals or mass != 1")
        self.golden("exact-sweep", f"pairs-n{self.n_max}", len(latencies), tally,
                    "pair-check count")
        return Pass(wall=total.raw, items=len(latencies), factor=total.factor,
                    detail={"latencies": latencies})

    def named(self, passes: list[Pass]) -> dict:
        lat = np.concatenate([np.array(p.detail["latencies"]) * p.factor for p in passes])
        n = f"us (n={len(lat)})"
        return {
            "sweep.pairs_per_s": (statistics.median(p.items / p.scaled for p in passes), "1/s"),
            "sweep.pair_us_p50": (float(np.percentile(lat, 50)) * 1e6, n),
            "sweep.pair_us_p99": (float(np.percentile(lat, 99)) * 1e6, n),
        }


# Per-layer metrics that only one workload produces; the others report 0.
LAYER_DEFAULTS = {
    f"lp.{what}.{key}": 0
    for what in ("rounds", "active_rows", "family_tuples", "tuple_slack_calls")
    for key in ("vigoda7", "mixed6")
} | {"experiments.pool_efficiency": 0.0, "experiments.cap_overruns": 0}

WORKLOADS = {"lp-exact": LpExact, "sim-gamma": SimGamma, "exact-sweep": ExactSweep}
