"""Command-line surface: subcommands, exit codes, output formats."""

import dataclasses
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import flipdyn.cli as cli
import flipdyn.lp as lp_mod
from flipdyn.cli import OBSERVATION_TIGHT_LABELS, main
from flipdyn.graphs import read_neighboring_pair

F = Fraction


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# A malformed pair file and the message it fails with; None is a path
# that does not exist.
MALFORMED_PAIR_FILES = {
    "unreadable": (None, "cannot read"),
    "non-integer": ("2 3 x\n0 1\nsigma\n0 1\ntau\n0 2\n",
                    "non-integer token while reading header"),
    "bad-header": ("2 3 -1\nsigma\n0 1\ntau\n0 2\n", "bad header values"),
    "edge-order": ("2 3 1\n1 0\nsigma\n0 1\ntau\n0 2\n",
                   "edge (1,0) must satisfy 0 <= u < v < n"),
    "no-sigma": ("2 3 1\n0 1\n0 1\ntau\n0 2\n", "expected 'sigma', got '0'"),
    "wrong-tau": ("2 3 1\n0 1\nsigma\n0 1\nrho\n0 2\n", "expected 'tau', got 'rho'"),
    "trailing": ("2 3 1\n0 1\nsigma\n0 1\ntau\n0 2\n1\n", "trailing tokens after colorings"),
}


class TestLpCommands:
    def test_solve_tight(self, capsys):
        code, out, _ = run(["lp", "solve", "--kind", "tight"], capsys)
        assert code == 0
        assert "objective = 11/6" in out

    def test_solve_json_and_solution_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "sol.json")
        code, out, _ = run(
            ["lp", "solve", "--kind", "tight", "--json", "--out", out_path], capsys
        )
        assert code == 0
        payload = json.loads(out[: out.index("solution written")])
        assert payload["objective"] == "11/6"
        # the solve's work, as counts: one round of 17 rows, no candidates
        assert payload["rounds"] == 1
        assert payload["active_constraints"] == 17
        assert payload["round_stats"] == [
            {"active_rows": 17, "candidates": 0, "confirmed": 0,
             "phase1_pivots": 17, "phase2_pivots": 3}
        ]
        assert json.loads(Path(out_path).read_text())["status"] == "optimal"

    def test_build_writes_lp_and_sidecar(self, tmp_path, capsys):
        path = str(tmp_path / "prog.lp")
        code, out, _ = run(
            ["lp", "build", "--kind", "vigoda", "--nmax", "4", "--out", path], capsys
        )
        assert code == 0
        assert "Minimize" in Path(path).read_text()
        assert json.loads(Path(path + ".json").read_text())["name"] == "one-step-n4-m3"

    def test_slack_feasible_and_infeasible(self, capsys):
        code, out, _ = run(
            [
                "lp", "slack", "--kind", "vigoda", "--nmax", "6",
                "--vector", "alt", "--lam", "11/6",
            ],
            capsys,
        )
        assert code == 0
        assert "feasible: True" in out
        # Below threshold the same vector violates block rows -> exit 1.
        code, out, _ = run(
            [
                "lp", "slack", "--kind", "vigoda", "--nmax", "6",
                "--vector", "alt", "--lam", "9/5",
            ],
            capsys,
        )
        assert code == 1
        assert "violated" in out

    def test_solve_cross_check(self, capsys, monkeypatch):
        argv = ["lp", "solve", "--kind", "tight", "--cross-check"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "float cross-check: optimal" in out
        monkeypatch.setattr(lp_mod, "solve_float", lambda inst: ("optimal", 11 / 6 + 1e-6))
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "cross-check FAILED" in err

    def test_solve_not_optimal_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(lp_mod, "solve", lambda inst: lp_mod.LPSolution("infeasible", None, {}))
        for extra in ([], ["--json"]):
            code, out, err = run(["lp", "solve", "--kind", "tight", *extra], capsys)
            assert (code, out, err) == (1, "", "status: infeasible\n")

    def test_slack_json(self, capsys):
        argv = ["lp", "slack", "--kind", "vigoda", "--nmax", "6", "--vector", "alt", "--json"]
        code, out, _ = run(argv + ["--lam", "11/6"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["feasible"] is True and data["violated"] == []
        assert "base/p1" in data["tight"]
        code, out, _ = run(argv + ["--lam", "9/5"], capsys)
        assert code == 1
        data = json.loads(out)
        assert data["feasible"] is False and data["violated"]

    def test_gamma_parses_decimal_string_exactly(self, capsys):
        # Fraction("25.597784") must parse to 25597784/10^6; a bad string
        # is an input error -> exit 2.
        code, _, err = run(
            ["lp", "solve", "--kind", "mixed", "--gamma", "not-a-number"], capsys
        )
        assert code == 2
        assert "input error" in err
        assert F("25.597784") == F(25597784, 10**6)

    @pytest.mark.parametrize("kind, flags", [
        ("tight", ["--nmax", "3"]),
        ("tight", ["--mstar", "2"]),
        ("tight", ["--gamma", "20"]),
        ("tight", ["--cap3"]),
        ("vigoda", ["--gamma", "20"]),
        ("vigoda", ["--cap3"]),
    ])
    @pytest.mark.parametrize("command", ["build", "solve", "slack"])
    def test_flag_the_kind_does_not_read_exits_2(self, command, kind, flags, tmp_path,
                                                 capsys, monkeypatch):
        # a flag the chosen program would silently ignore fails before any build
        def no_build(*args, **kwargs):
            raise AssertionError(f"a program was built despite {flags[0]}")

        for builder in ("build_vigoda_lp", "build_tight_lp", "build_mixed_lp"):
            monkeypatch.setattr(lp_mod, builder, no_build)
        extra = {"build": ["--out", str(tmp_path / "prog.lp")], "solve": [],
                 "slack": ["--vector", "alt", "--lam", "11/6"]}[command]
        code, out, err = run(["lp", command, "--kind", kind, *flags, *extra], capsys)
        assert (code, out) == (2, "")
        assert err == f"input error: {flags[0]} does not apply to --kind {kind}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, call", [
        (["--kind", "tight"], ("build_tight_lp",)),
        (["--kind", "vigoda"], ("build_vigoda_lp", 7, 3)),
        (["--kind", "vigoda", "--nmax", "5", "--mstar", "2"], ("build_vigoda_lp", 5, 2)),
        (["--kind", "mixed"], ("build_mixed_lp", 7, 3, F("25.597784"), False)),
        (["--kind", "mixed", "--nmax", "6", "--mstar", "4", "--gamma", "20", "--cap3"],
         ("build_mixed_lp", 6, 4, F(20), True)),
    ])
    def test_program_flags_resolve_per_kind(self, argv, call, capsys, monkeypatch):
        # each builder records its arguments and builds the small tight program
        calls, tight = [], lp_mod.build_tight_lp

        def recorder(name):
            def build(*args, cap3=None):
                calls.append((name, *args) + (() if cap3 is None else (cap3,)))
                return tight()
            return build

        for name in ("build_vigoda_lp", "build_tight_lp", "build_mixed_lp"):
            monkeypatch.setattr(lp_mod, name, recorder(name))
        code, out, _ = run(["lp", "solve", *argv], capsys)
        assert code == 0 and "objective = 11/6" in out
        assert calls == [call]


class TestConstructAndChecks:
    def test_construct_then_marginals(self, tmp_path, capsys):
        path = str(tmp_path / "pair.txt")
        code, out, _ = run(
            ["construct", "--index", "3", "--d", "2", "--k", "5", "--out", path],
            capsys,
        )
        assert code == 0 and "n=7" in out
        code, out, _ = run(["check", "marginals", "--pair", path], capsys)
        assert code == 0
        assert "ok" in out

    def test_checks_json(self, tmp_path, capsys):
        path = str(tmp_path / "pair.txt")
        run(["construct", "--index", "2", "--d", "2", "--k", "4", "--out", path], capsys)
        code, out, _ = run(["check", "marginals", "--pair", path, "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {"ok": True, "failures": []}
        code, text, _ = run(["check", "stationary", "--pair", path], capsys)
        code_json, out, _ = run(["check", "stationary", "--pair", path, "--json"], capsys)
        assert code == code_json == 0
        data = json.loads(out)
        assert data["ok"] is True and data["failures"] == []
        assert text.splitlines()[0] == (
            f"states: {data['n_states']}, proper: {data['proper_states']}, "
            f"reachable from first proper: {data['reachable_proper']}"
        )

    def test_pair_file_without_tau_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sigma-only.txt"
        path.write_text("2 3 1\n0 1\nsigma\n0 1\n")
        for argv in (["check", "marginals", "--pair", str(path)],
                     ["sim", "couple", "--pair", str(path), "--replicas", "1"]):
            code, _, err = run(argv, capsys)
            assert code == 2
            assert "must contain both sigma and tau" in err

    @pytest.mark.parametrize("command", [["check", "marginals"],
                                         ["sim", "couple", "--replicas", "1"]])
    @pytest.mark.parametrize("text,message", MALFORMED_PAIR_FILES.values(),
                             ids=list(MALFORMED_PAIR_FILES))
    def test_malformed_pair_file_exits_2(self, command, text, message, tmp_path, capsys):
        path = tmp_path / "pair.txt"
        if text is not None:
            path.write_text(text)
        code, out, err = run(command + ["--pair", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and message in err

    def test_construct_degree_1_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pair.txt"
        code, out, err = run(
            ["construct", "--index", "2", "--d", "1", "--k", "5", "--out", str(path)], capsys
        )
        assert (code, out, err) == (2, "", "input error: need d >= 2, got 1\n")
        assert not path.exists()

    def test_construct_invalid_exits_2(self, capsys):
        code, _, err = run(
            ["construct", "--index", "1", "--d", "3", "--k", "5", "--out", "/tmp/x"],
            capsys,
        )
        assert code == 2
        assert "input error" in err

    def test_stationary_small_and_capacity(self, tmp_path, capsys):
        path = str(tmp_path / "pair.txt")
        run(["construct", "--index", "2", "--d", "2", "--k", "4", "--out", path], capsys)
        code, out, _ = run(["check", "stationary", "--pair", path], capsys)
        assert code == 0
        assert "proper-pair symmetry: True" in out
        code, _, err = run(
            ["check", "stationary", "--pair", path, "--state-cap", "10"], capsys
        )
        assert code == 3
        assert "capacity error" in err

    def test_observation_exact(self, capsys):
        code, out, _ = run(["check", "observation"], capsys)
        assert code == 0
        assert "reproduced exactly" in out
        # The frozen whitelist is the classical tight set: the alpha = 1
        # cap plus ten block rows.
        assert len(OBSERVATION_TIGHT_LABELS) == 11
        code, payload, _ = run(["check", "observation", "--json"], capsys)
        assert code == 0
        data = json.loads(payload)
        assert data["ok"] and data["missing"] == [] and data["extra"] == []


class TestFailedChecks:
    """A check that fails says what failed, in text and --json, and exits 1."""

    @pytest.mark.parametrize("side", ["sigma", "tau"])
    def test_marginal_mismatch(self, side, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "pair.txt")
        run(["construct", "--index", "2", "--d", "2", "--k", "4", "--out", path], capsys)
        skewed = getattr(read_neighboring_pair(path), side)
        real = cli.flip_step_distribution

        def law(g, col, probs):
            # one flip's mass moved onto the no-op, on one side only
            out = real(g, col, probs)
            if col == skewed:
                out[None] += out.pop(next(f for f in out if f is not None))
            return out

        monkeypatch.setattr(cli, "flip_step_distribution", law)
        code, out, _ = run(["check", "marginals", "--pair", path], capsys)
        assert (code, out) == (1, f"marginals: {side} marginal mismatch\n")
        code, out, _ = run(["check", "marginals", "--pair", path, "--json"], capsys)
        assert code == 1
        assert json.loads(out) == {"ok": False, "failures": [f"{side} marginal mismatch"]}

    def test_stationary_failures(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "pair.txt")
        run(["construct", "--index", "2", "--d", "2", "--k", "4", "--out", path], capsys)
        failures = tuple(f"asymmetry {i}" for i in range(25))
        real, reports = cli.stationary_check_tiny, []

        def failing(*args, **kwargs):
            reports.append(real(*args, **kwargs))
            return dataclasses.replace(reports[-1], symmetry_ok=False, failures=failures)

        monkeypatch.setattr(cli, "stationary_check_tiny", failing)
        code, out, _ = run(["check", "stationary", "--pair", path], capsys)
        assert code == 1
        report = reports[0]
        assert out == (
            f"states: {report.n_states}, proper: {report.proper_states}, "
            f"reachable from first proper: {report.reachable_proper}\n"
            "row sums stochastic: True\nproper-pair symmetry: False\n"
            + "".join(f"  failure: {f}\n" for f in failures[:10])
        )
        code, out, _ = run(["check", "stationary", "--pair", path, "--json"], capsys)
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False and data["failures"] == list(failures[:20])

    def test_observation_mismatch(self, capsys, monkeypatch):
        real = lp_mod.slack_report

        def report(inst, assignment):
            # cap/1 no longer tight, cap/2 tight instead
            r = real(inst, assignment)
            return dataclasses.replace(
                r, tight=tuple(x for x in r.tight if x != "cap/1") + ("cap/2",))

        monkeypatch.setattr(lp_mod, "slack_report", report)
        got = sorted(OBSERVATION_TIGHT_LABELS - {"cap/1"} | {"cap/2"})
        code, out, _ = run(["check", "observation"], capsys)
        assert code == 1
        assert out == (
            f"tight cap/H labels ({len(got)}):\n" + "".join(f"  {x}\n" for x in got)
            + "MISSING (expected tight, not tight):\n  cap/1\n"
            + "EXTRA (tight, not expected):\n  cap/2\n"
            + "MISMATCH\n"
        )
        code, out, _ = run(["check", "observation", "--json"], capsys)
        assert code == 1
        assert json.loads(out) == {"ok": False, "missing": ["cap/1"], "extra": ["cap/2"],
                                   "tight": got}


class TestSimCommands:
    def test_couple_json(self, tmp_path, capsys):
        csv = str(tmp_path / "c.csv")
        code, out, _ = run(
            [
                "sim", "couple", "--construction", "2", "--d", "3", "--k", "6",
                "--replicas", "150", "--seed", "4", "--json", "--csv", csv,
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["kind"] == "couple"
        assert len(Path(csv).read_text().splitlines()) == 151

    def test_stages_text(self, capsys):
        code, out, _ = run(
            [
                "sim", "stages", "--construction", "1", "--d", "2", "--k", "6",
                "--color", "2", "--replicas", "200", "--seed", "8",
            ],
            capsys,
        )
        assert code == 0
        assert "overall: ok" in out

    def test_gamma(self, capsys):
        code, out, _ = run(
            [
                "sim", "gamma", "--construction", "1", "--d", "6", "--k", "11",
                "--replicas", "120", "--seed", "2",
            ],
            capsys,
        )
        assert code == 0
        assert "ratio_below_gamma_bound: pass" in out

    @pytest.mark.parametrize("command", ["couple", "gamma"])
    def test_no_completed_replica_fails(self, command, capsys):
        # every replica exceeds the cap, so nothing supports the checks
        code, out, _ = run(
            [
                "sim", command, "--construction", "1", "--d", "6", "--k", "11",
                "--replicas", "4", "--step-cap", "1", "--seed", "3", "--json",
            ],
            capsys,
        )
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        assert data["counts"]["completed"] == 0

    @pytest.mark.parametrize("command", [["couple"], ["stages", "--color", "2"], ["gamma"]])
    def test_capped_replicas_leave_the_metrics(self, command, tmp_path, capsys):
        # The CSV holds every replica; each metric counts only the ones
        # that stopped within the cap.
        csv = tmp_path / "rows.csv"
        _, out, _ = run(
            [
                "sim", *command, "--construction", "1", "--d", "2", "--k", "6",
                "--replicas", "60", "--seed", "8", "--step-cap", "3", "--workers", "1",
                "--json", "--csv", str(csv),
            ],
            capsys,
        )
        data = json.loads(out)
        capped = data["counts"]["exceeded_cap"]
        assert 0 < capped < 60
        assert data["metrics"]
        assert {m["n"] for m in data["metrics"].values()} == {60 - capped}
        rows = [line.split(",") for line in csv.read_text().splitlines()]
        assert rows[0][3] == "exceeded_cap" and len(rows) == 61
        assert sum(int(row[3]) for row in rows[1:]) == capped

    def test_stages_with_no_completed_replica_fails(self, capsys, monkeypatch):
        import flipdyn.experiments as experiments
        from flipdyn import CapacityError

        def capped(*args, **kwargs):
            raise CapacityError("stage walk exceeded its cap")

        monkeypatch.setattr(experiments, "walk_stages", capped)
        code, out, _ = run(
            [
                "sim", "stages", "--construction", "1", "--d", "2", "--k", "6",
                "--color", "2", "--replicas", "10", "--workers", "1", "--json",
            ],
            capsys,
        )
        assert code == 1
        data = json.loads(out)
        assert data["metrics"] == {}
        assert data["counts"]["exceeded_cap"] == 10
        assert data["checks"]["good_end_probability"] is False

    @pytest.mark.parametrize("command", [["couple"], ["stages", "--color", "2"], ["gamma"]])
    def test_stats_sidecar_leaves_the_report_and_csv_alone(self, command, tmp_path, capsys):
        argv = ["sim", *command, "--construction", "1", "--d", "2", "--k", "6",
                "--replicas", "80", "--seed", "8", "--step-cap", "4", "--workers", "2"]
        outputs = []
        for extra in ([], ["--stats", str(tmp_path / "stats.json")]):
            for fmt in ([], ["--json"]):
                csv = tmp_path / "rows.csv"
                code, out, err = run(argv + fmt + ["--csv", str(csv)] + extra, capsys)
                outputs.append((code, out, err, csv.read_text()))
        assert outputs[:2] == outputs[2:]
        stats = json.loads((tmp_path / "stats.json").read_text())
        report = json.loads(outputs[1][1])
        assert set(stats) == {"wall_s", "replicas", "replicas_per_s", "steps", "steps_per_s",
                              "rebuilds", "blocks_built", "blocks_reused", "workers",
                              "cap_overruns"}
        assert (stats["replicas"], stats["workers"]) == (80, 2)
        assert stats["cap_overruns"] == report["counts"]["exceeded_cap"] > 0
        assert stats["steps"] >= 80 and stats["blocks_built"] > 0 and stats["wall_s"] > 0
        assert stats["replicas_per_s"] == pytest.approx(80 / stats["wall_s"])

    def test_construction_needs_d_and_k(self, capsys):
        code, _, err = run(
            ["sim", "couple", "--construction", "2", "--replicas", "10"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("flags", [["--d", "99"], ["--k", "2"], ["--d", "99", "--k", "2"]])
    @pytest.mark.parametrize("command", [["couple"], ["stages", "--color", "2"], ["gamma"]])
    def test_pair_file_with_d_or_k_exits_2(self, command, flags, tmp_path, capsys,
                                           monkeypatch):
        # the pair file fixes d and k; a flag it would silently override fails
        import flipdyn.experiments as experiments

        def no_replicas(*args, **kwargs):
            raise AssertionError("replicas ran with --d or --k beside --pair")

        monkeypatch.setattr(experiments, "_map_replicas", no_replicas)
        path = str(tmp_path / "pair.txt")
        run(["construct", "--index", "2", "--d", "3", "--k", "6", "--out", path], capsys)
        code, out, err = run(["sim", *command, "--pair", path, "--replicas", "10", *flags],
                             capsys)
        assert (code, out) == (2, "")
        assert err == "input error: --d and --k apply only with --construction\n"

    @pytest.mark.parametrize("k", ["7", "8"])
    def test_gamma_needs_k_above_d_plus_2(self, k, capsys, monkeypatch):
        # gamma_bound needs k > d + 2, so no replica may run below it
        import flipdyn.experiments as experiments

        def no_replicas(*args, **kwargs):
            raise AssertionError("replicas ran for a gamma with no bound")

        monkeypatch.setattr(experiments, "_map_replicas", no_replicas)
        code, out, err = run(
            ["sim", "gamma", "--construction", "1", "--d", "6", "--k", k,
             "--replicas", "10", "--json"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"input error: need k > d + 2, got k={k}, d=6\n"

    def test_seed_outside_uint64_exits_2(self, capsys):
        for seed in ("-1", str(2**64)):
            code, _, err = run(
                [
                    "sim", "couple", "--construction", "2", "--d", "3", "--k", "6",
                    "--replicas", "10", "--seed", seed,
                ],
                capsys,
            )
            assert code == 2
            assert "seed" in err

    def test_bad_step_cap_or_workers_exits_2(self, capsys):
        for flags in (["--step-cap", "-5"], ["--step-cap", "0"], ["--workers", "-3"]):
            code, _, err = run(
                [
                    "sim", "couple", "--construction", "2", "--d", "3", "--k", "6",
                    "--replicas", "10", "--json", *flags,
                ],
                capsys,
            )
            assert code == 2
            assert flags[0].strip("-").replace("-", "_") in err

    def test_bad_stage_color_exits_2(self, capsys):
        code, _, err = run(
            [
                "sim", "stages", "--construction", "2", "--d", "3", "--k", "6",
                "--color", "2", "--replicas", "10",
            ],
            capsys,
        )
        assert code == 2


class TestUnwritableOutput:
    """A path that cannot be written is an input error (exit 2), not a
    failed check (exit 1)."""

    def test_lp_solve_out(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the --out path was checked")

        monkeypatch.setattr(lp_mod, "solve", no_solve)
        path = str(tmp_path / "missing" / "sol.json")
        code, out, err = run(["lp", "solve", "--kind", "tight", "--out", path], capsys)
        assert code == 2
        assert out == ""
        assert f"input error: cannot write {path}" in err

    def test_construct_out(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "pair.txt")
        code, _, err = run(
            ["construct", "--index", "3", "--d", "2", "--k", "5", "--out", path], capsys
        )
        assert code == 2
        assert f"input error: cannot write {path}" in err

    @pytest.mark.parametrize("command", [["couple"], ["stages", "--color", "2"], ["gamma"]])
    def test_sim_csv_fails_before_any_replica(self, command, tmp_path, capsys, monkeypatch):
        import flipdyn.experiments as experiments

        def no_replicas(*args, **kwargs):
            raise AssertionError("replicas ran before the CSV path was checked")

        monkeypatch.setattr(experiments, "_map_replicas", no_replicas)
        path = str(tmp_path / "missing" / "rows.csv")
        code, _, err = run(
            ["sim", *command, "--construction", "1", "--d", "2", "--k", "6",
             "--replicas", "10", "--csv", path],
            capsys,
        )
        assert code == 2
        assert f"input error: cannot write {path}" in err


    @pytest.mark.parametrize("command", [["couple"], ["stages", "--color", "2"], ["gamma"]])
    def test_sim_stats_fails_before_any_replica(self, command, tmp_path, capsys, monkeypatch):
        import flipdyn.experiments as experiments

        def no_replicas(*args, **kwargs):
            raise AssertionError("replicas ran before the stats path was checked")

        monkeypatch.setattr(experiments, "_map_replicas", no_replicas)
        path = str(tmp_path / "missing" / "stats.json")
        code, out, err = run(
            ["sim", *command, "--construction", "1", "--d", "2", "--k", "6",
             "--replicas", "10", "--stats", path],
            capsys,
        )
        assert (code, out) == (2, "")
        assert f"input error: cannot write {path}" in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flipdyn", "lp", "solve", "--kind", "tight"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "11/6" in proc.stdout

    def test_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flipdyn", "no-such-command"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


class TestLpStats:
    """`lp solve --stats FILE`: each round's work and timings in a sidecar,
    none of it in the report."""

    def test_sidecar_leaves_the_json_alone(self, tmp_path, capsys):
        argv = ["lp", "solve", "--kind", "vigoda", "--nmax", "5", "--json"]
        code, plain, _ = run(argv, capsys)
        path = tmp_path / "stats.json"
        code_stats, with_stats, _ = run(argv + ["--stats", str(path)], capsys)
        assert (code, code_stats) == (0, 0)
        assert with_stats == plain
        stats = json.loads(path.read_text())
        rounds = json.loads(plain)["round_stats"]
        assert [(r["round"], r["active_rows"], r["phase1_pivots"], r["phase2_pivots"])
                for r in stats["rounds"]] == [
            (k, r["active_rows"], r["phase1_pivots"], r["phase2_pivots"])
            for k, r in enumerate(rounds, 1)]
        assert stats["pivots"] == sum(r["phase1_pivots"] + r["phase2_pivots"] for r in rounds)
        for r in stats["rounds"]:
            assert r["simplex_s"] > 0 and r["scan_s"] > 0 and r["certify_s"] > 0
            pivots = r["phase1_pivots"] + r["phase2_pivots"]
            assert r["us_per_pivot"] == pytest.approx(r["simplex_s"] / pivots * 1e6)
        assert stats["simplex_s"] == pytest.approx(sum(r["simplex_s"] for r in stats["rounds"]))

    def test_sidecar_times_the_selection(self, tmp_path, capsys):
        # select_s covers the prune and the branch picks, so a round's four
        # phases account for its time; only the last round selects nothing
        path = tmp_path / "stats.json"
        code, _, _ = run(["lp", "solve", "--kind", "vigoda", "--nmax", "5",
                          "--stats", str(path)], capsys)
        assert code == 0
        stats = json.loads(path.read_text())
        rounds = stats["rounds"]
        assert len(rounds) > 1
        assert all(r["select_s"] > 0 for r in rounds[:-1]) and rounds[-1]["select_s"] >= 0
        assert stats["select_s"] == pytest.approx(sum(r["select_s"] for r in rounds))
        start = time.perf_counter()
        sol = lp_mod.solve(lp_mod.build_vigoda_lp(5, 3))
        wall = time.perf_counter() - start
        phases = sum(t.simplex_s + t.scan_s + t.certify_s + t.select_s for t in sol.round_times)
        assert 0 < phases <= wall

    def test_timings_stay_out_of_the_solution(self):
        sol = lp_mod.solve(lp_mod.build_tight_lp())
        assert len(sol.round_times) == sol.rounds
        assert sol == dataclasses.replace(sol, round_times=())
        assert "round_times" not in repr(sol)
        assert [dataclasses.asdict(r) for r in sol.round_stats] == [
            {"active_rows": 17, "candidates": 0, "confirmed": 0,
             "phase1_pivots": 17, "phase2_pivots": 3}]

    def test_unwritable_stats_fails_before_solving(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the stats path was checked")

        monkeypatch.setattr(lp_mod, "solve", no_solve)
        path = str(tmp_path / "missing" / "stats.json")
        code, out, err = run(["lp", "solve", "--kind", "tight", "--stats", path], capsys)
        assert (code, out) == (2, "")
        assert f"input error: cannot write {path}" in err
