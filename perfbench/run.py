"""flipdyn benchmark: exact LP solves, coupled-walk Monte Carlo and the
exhaustive coupling sweep.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lp-exact --seed 1000 --seconds 20 --trace 0

The program under test is imported from the checkout's own src/ tree; the
run fails (exit 2, no result line) when that tree is missing.  With
--trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json, with times scaled to a reference
machine speed (speed.py); with --trace 1 they are the per-layer metrics,
from one untraced and one traced pass.  Lines before
it, prefixed '#', record the machine, the workload's own named metrics
and any failed check.  Full results, and with --trace 1 the spans, are
written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import flipdyn; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["lp-exact", "sim-gamma", "exact-sweep"])
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's own tests")
    p.add_argument("--goldens", default=str(HERE / "goldens.json"))
    p.add_argument("--out", default=str(ROOT / ".perfbench_out"))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64 - 4:
        p.error("--seed must lie in [0, 2**64 - 4)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def commit_hash() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def machine(args) -> dict:
    cpu = "unknown"
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "flipdyn").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit_hash(),
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "workers": 2 if args.workload == "sim-gamma" else 1,
        "smoke": args.smoke,
    }


def import_seconds(src: Path, probe) -> float:
    """Median time to import flipdyn in a fresh interpreter; the probe
    samples machine speed around each import."""
    times = []
    for _ in range(SETUP_REPEATS):
        with probe.timed():
            out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)], cwd=ROOT,
                                 capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (ru_maxrss, KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "flipdyn" / "__init__.py").is_file():
        print(f"error: no flipdyn source tree at {src}", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        print(f"error: {spec_file} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())

    sys.path.insert(0, str(src))
    import flipdyn

    if Path(flipdyn.__file__).resolve().parent != (src / "flipdyn").resolve():
        print(f"error: flipdyn imported from {flipdyn.__file__}, not {src}", file=sys.stderr)
        return 2

    import speed
    import tracing
    import workloads

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    goldens_path = Path(args.goldens)
    goldens = json.loads(goldens_path.read_text()) if goldens_path.is_file() else {}
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, goldens, out_dir)
    tally = workloads.Tally()

    setup_probe = speed.Probe()
    setups = []
    for _ in range(SETUP_REPEATS):
        with setup_probe.timed() as t:
            wl.build()
            wl.warmup()
        setups.append(t.raw)

    named: dict = {}
    pass_walls: list[float] = []
    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced, extra = wl.trace(tally, tracer)
        view = tracer.view((wl.probe.starts, wl.probe.loops))
        values = {**workloads.LAYER_DEFAULTS, **tracing.layer_metrics(view),
                  **extra, **wl.span_extra(view),
                  "trace.overhead_s": traced - untraced}
        named = {"trace.untraced_s": (untraced, "s"),
                 "trace.traced_s": (traced, "s")}
        declared = spec["per_layer"]
        tracer.save(str(out_dir / f"spans-{args.workload}-seed{args.seed}.npz"))
    else:
        passes = []
        t_start = time.perf_counter()
        while True:
            passes.append(wl.measure(tally))
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(p.wall for p in passes) > args.seconds:
                break
        values = {
            "peak_rss_mb": peak_rss_mb(),
            "wall_s": statistics.median(p.scaled for p in passes),
            "items_per_s": statistics.median(p.items / p.scaled for p in passes),
            # after peak_rss_mb, so that the import probes are not counted as children
            "setup_s": (import_seconds(src, setup_probe) + statistics.median(setups))
            * setup_probe.factor(),
        }
        pass_walls = [p.wall for p in passes]
        named = wl.named(passes)
        named["passes"] = (len(passes), "count")
        named["wall_unscaled_s"] = (statistics.median(pass_walls), "s")
        named["speed_factor"] = (statistics.median(p.factor for p in passes), "ratio")
        declared = spec["end_to_end"]

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    info = machine(args)
    named["fail_ratio"] = (tally.failed / max(tally.attempted, 1), "ratio")
    print(f"# machine {json.dumps(info, sort_keys=True)}")
    for name, (value, unit) in named.items():
        print(f"# {name} {value:.6g} {unit}")
    print(f"# checks failed {tally.failed} of {tally.attempted}")
    for note in tally.notes[:20]:
        print(f"# FAIL {note}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }
    record = {"machine": info, "named": {k: list(v) for k, v in named.items()},
              "all_values": values, "pass_walls": pass_walls, "notes": tally.notes, **result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
