"""The benchmark's own tests, at reduced size (--smoke).

Each workload, untraced and traced, must print every metric that
BENCHMARK.json declares, with its declared unit, and pass its checks; a
wrong golden digest must be counted as a failed check; and without the
source tree the benchmark must exit non-zero without a result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(tmp_path: Path, workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1000", "--seconds", "1", "--trace", str(trace), "--smoke",
           "--out", str(tmp_path / "out"), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    result = result_of(run(tmp_path, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_golden_digest_raises_fail_ratio(tmp_path):
    goldens = json.loads((HERE / "goldens.json").read_text())
    goldens["sim-gamma"]["c1-seed1001-r64"]["csv_sha256"] = "0" * 64
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(goldens))
    result = result_of(run(tmp_path, "sim-gamma", 0, "--goldens", str(path)))
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_exits_nonzero_without_the_source_tree(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(tmp_path, "sim-gamma", 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
