"""Command-line surface: subcommands, exit codes, output formats."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flipdyn.cli import OBSERVATION_TIGHT_LABELS, main

F = Fraction


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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
        import flipdyn.lp as lp_mod

        argv = ["lp", "solve", "--kind", "tight", "--cross-check"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "float cross-check: optimal" in out
        monkeypatch.setattr(lp_mod, "solve_float", lambda inst: ("optimal", 11 / 6 + 1e-6))
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "cross-check FAILED" in err

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

        monkeypatch.setattr(experiments, "stage_walk", capped)
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

    def test_construction_needs_d_and_k(self, capsys):
        code, _, err = run(
            ["sim", "couple", "--construction", "2", "--replicas", "10"], capsys
        )
        assert code == 2

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
        import flipdyn.lp as lp_mod

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
