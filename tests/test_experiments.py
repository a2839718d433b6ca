"""Monte Carlo experiment harness: determinism, checks, degenerate cases."""

import json
import multiprocessing
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import flipdyn.classify as classify
import flipdyn.coupling as coupling
import flipdyn.experiments as experiments
from flipdyn import (
    Coloring,
    ConstructionSpec,
    ExperimentConfig,
    Graph,
    InputError,
    estimate_gamma_empirical,
    run_coupling_experiment,
    run_stage_experiment,
)
from flipdyn.graphs import write_pair_file

F = Fraction


def cfg(**kw):
    base = dict(seed=17, replicas=300, construction=ConstructionSpec(2, 3, 6))
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_exactly_one_source(self):
        with pytest.raises(InputError):
            ExperimentConfig(seed=1, replicas=10)
        with pytest.raises(InputError):
            ExperimentConfig(
                seed=1,
                replicas=10,
                construction=ConstructionSpec(2, 3, 6),
                pair_file="x.txt",
            )

    def test_replica_floor(self):
        with pytest.raises(InputError):
            ExperimentConfig(
                seed=1, replicas=0, construction=ConstructionSpec(2, 3, 6)
            )

    def test_seed_outside_uint64_rejected(self):
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(InputError):
                cfg(seed=seed)
        assert cfg(seed=2**64 - 1).seed == 2**64 - 1

    def test_negative_workers_rejected(self):
        for workers in (-1, -3):
            with pytest.raises(InputError, match="workers"):
                cfg(workers=workers)
        assert cfg(workers=0).workers == 0

    def test_step_cap_below_one_rejected(self):
        for cap in (0, -5):
            with pytest.raises(InputError, match="step_cap"):
                cfg(step_cap=cap)
        assert cfg(step_cap=1).step_cap == 1
        assert cfg().step_cap is None

    def test_top_seeds_do_not_alias(self, tmp_path):
        # Each seed keys its own stream, with no float cast (and so no
        # numpy cast warning) near the top of the uint64 range.
        rows = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1):
                path = tmp_path / f"{seed}.csv"
                run_coupling_experiment(cfg(seed=seed, replicas=20, workers=1),
                                        csv_path=str(path))
                rows[seed] = path.read_text()
        assert len(set(rows.values())) == 4

    def test_pair_file_requires_tau(self, tmp_path):
        path = str(tmp_path / "one.txt")
        g = Graph(2, [(0, 1)])
        write_pair_file(path, g, Coloring((0, 1), 4))
        with pytest.raises(InputError):
            ExperimentConfig(seed=1, replicas=10, pair_file=path).resolve_pair()


class TestCouplingExperiment:
    def test_checks_pass_and_counts_add_up(self):
        rep = run_coupling_experiment(cfg())
        assert rep.ok
        assert rep.checks["terminating_mass_in_interval"]
        assert rep.checks["excursion_within_width"]
        assert rep.counts["completed"] + rep.counts["exceeded_cap"] == 300

    def test_deterministic_across_worker_counts(self):
        texts = set()
        jsons = set()
        for workers in (1, 2, 4):
            rep = run_coupling_experiment(cfg(workers=workers))
            texts.add(rep.to_text())
            jsons.add(rep.to_json())
        assert len(texts) == 1 and len(jsons) == 1

    def test_pool_is_capped_at_the_replica_count(self, monkeypatch):
        # A pool that records the size asked for and maps in-process, so
        # no process starts whatever the size; it reads the context the
        # parent set, as forked workers do.
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize):
                return map(fn, items)

        want = run_coupling_experiment(cfg(replicas=64, workers=1)).to_json()
        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", RecordingPool)
        assert run_coupling_experiment(cfg(replicas=64, workers=5000)).to_json() == want
        run_coupling_experiment(cfg(workers=3))
        assert sizes == [64, 3]

    def test_seed_changes_output(self):
        a = run_coupling_experiment(cfg(seed=1)).to_json()
        b = run_coupling_experiment(cfg(seed=2)).to_json()
        assert a != b

    def test_csv_rows(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        run_coupling_experiment(cfg(replicas=80), csv_path=path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "replica,t_stop,final_distance,exceeded_cap,n_bad_pre,n_good_pre"
        assert len(lines) == 81
        assert lines[1].split(",")[0] == "0"
        # CSV bytes are part of the deterministic surface.
        path2 = str(tmp_path / "rows2.csv")
        run_coupling_experiment(cfg(replicas=80, workers=3), csv_path=path2)
        assert Path(path).read_text() == Path(path2).read_text()

    def test_pair_file_source(self, tmp_path):
        path = str(tmp_path / "pair.txt")
        g = Graph(2, [(0, 1)])
        sigma = Coloring((0, 2), 5)
        write_pair_file(path, g, sigma, sigma.recolor({0: 1}))
        rep = run_coupling_experiment(
            ExperimentConfig(seed=5, replicas=200, pair_file=path)
        )
        assert rep.ok
        assert rep.params["n"] == 2 and rep.params["k"] == 5

    def test_degenerate_single_vertex(self, tmp_path):
        # n = 1, k = 2: both moves coalesce at the first step, so
        # T_stop = 1 and final distance 0 in every replica.
        path = str(tmp_path / "tiny.txt")
        write_pair_file(path, Graph(1, []), Coloring((0,), 2), Coloring((1,), 2))
        rep = run_coupling_experiment(
            ExperimentConfig(seed=3, replicas=500, pair_file=path)
        )
        assert rep.metrics["t_stop"].mean == 1.0
        assert rep.metrics["t_stop"].se == 0.0
        assert rep.metrics["final_distance"].mean == 0.0
        assert rep.exact["terminating_mass"] == "1/1"

    def test_k_floor(self):
        with pytest.raises(InputError):
            run_coupling_experiment(
                ExperimentConfig(
                    seed=1, replicas=10, construction=ConstructionSpec(2, 3, 4)
                )
            )

    def test_step_cap_counts_not_fatal(self):
        rep = run_coupling_experiment(cfg(step_cap=1, replicas=100))
        assert rep.counts["exceeded_cap"] + rep.counts["completed"] == 100
        assert rep.counts["exceeded_cap"] > 0

    def test_json_shape(self):
        rep = run_coupling_experiment(cfg(replicas=100))
        data = json.loads(rep.to_json())
        assert data["kind"] == "couple"
        assert set(data) == {"kind", "params", "metrics", "exact", "checks", "counts", "ok"}
        assert data["metrics"]["t_stop"]["n"] == 100


class TestStageExperiment:
    def test_checks_pass(self):
        config = ExperimentConfig(
            seed=9, replicas=400, construction=ConstructionSpec(1, 2, 6)
        )
        rep = run_stage_experiment(config, 2)
        assert rep.ok
        assert rep.exact["mass_to_good"] == "8/21"
        assert rep.exact["mass_terminating"] == "1/6"
        assert rep.checks["bad_to_good_mass"]
        assert rep.checks["good_end_probability"]

    def test_requires_bad_color(self):
        config = ExperimentConfig(
            seed=9, replicas=10, construction=ConstructionSpec(2, 3, 6)
        )
        with pytest.raises(InputError):
            run_stage_experiment(config, 2)  # Sing on the path build

    def test_step_cap_one_kills_good_end(self, tmp_path):
        # One step can at best reach the Good stage, never GoodEnd.
        config = ExperimentConfig(
            seed=9,
            replicas=200,
            construction=ConstructionSpec(1, 2, 6),
            step_cap=1,
        )
        rep = run_stage_experiment(config, 2)
        if "p_good_end" in rep.metrics:
            assert rep.metrics["p_good_end"].mean == 0.0

    def test_classifies_its_start_pair_once(self, monkeypatch):
        # Outside the stage rule, which classifies the walk's pair after
        # every step, the experiment classifies one pair once: its start
        # pair.  The replicas copy the start walk and never check it again.
        checks, inside = [], []
        real, real_update = classify.classify_color, classify.stage_update

        def counted(pair, c, *blocks):
            if not inside:
                checks.append((pair, c))
            return real(pair, c, *blocks)

        def updated(*args):
            inside.append(args)
            try:
                return real_update(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(classify, "classify_color", counted)
        monkeypatch.setattr(classify, "stage_update", updated)
        monkeypatch.setattr(experiments, "classify_color", counted)
        config = ExperimentConfig(seed=9, replicas=40, construction=ConstructionSpec(1, 2, 6),
                                  workers=1)
        run_stage_experiment(config, 2)
        assert len(checks) == 1 and checks[0][1] == 2

    def test_csv(self, tmp_path):
        path = str(tmp_path / "st.csv")
        config = ExperimentConfig(
            seed=9, replicas=64, construction=ConstructionSpec(1, 2, 6), workers=2
        )
        run_stage_experiment(config, 2, csv_path=path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "replica,good_end,steps,exceeded_cap"
        assert len(lines) == 65


class TestGammaExperiment:
    def test_ratio_below_bound(self):
        config = ExperimentConfig(
            seed=21, replicas=400, construction=ConstructionSpec(1, 6, 11)
        )
        rep = estimate_gamma_empirical(config)
        assert rep.ok
        assert rep.checks["ratio_below_gamma_bound"]
        assert rep.exact["gamma_bound"] == "324110697521/18421764312"
        assert rep.metrics["bad_good_ratio"].mean >= 0

    def test_deterministic(self, tmp_path):
        config = ExperimentConfig(
            seed=21, replicas=128, construction=ConstructionSpec(1, 6, 11)
        )
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        ra = estimate_gamma_empirical(config, csv_path=a).to_json()
        rb = estimate_gamma_empirical(
            ExperimentConfig(
                seed=21,
                replicas=128,
                construction=ConstructionSpec(1, 6, 11),
                workers=4,
            ),
            csv_path=b,
        ).to_json()
        assert ra == rb
        assert Path(a).read_text() == Path(b).read_text()


def walk_batches(rng, n, k):
    """The three batches a walk's refill draws, in its order."""
    size = coupling._BATCH
    return rng.integers(n, size=size), rng.integers(k, size=size), rng.random(size=size)


class TestReplicaGenerator:
    """Each replica re-keys the experiment's one generator to the stream
    a fresh Philox keyed (seed, replica) gives."""

    @pytest.mark.parametrize("seed", [0, 2**63 - 1, 2**63, 2**64 - 1])
    def test_rekeyed_equals_a_fresh_philox(self, seed):
        rng = experiments._replica_rng(7, 7)
        for replica in range(6):
            got = walk_batches(experiments._rekeyed(rng, seed, replica), 19, 11)
            fresh = np.random.Generator(
                np.random.Philox(key=np.array([seed, replica], dtype=np.uint64)))
            want = walk_batches(fresh, 19, 11)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), replica
            # leave half of a 64-bit draw spare, as a replica may: the next
            # re-key must not hand it out
            while not rng.bit_generator.state["has_uint32"]:
                rng.integers(10, size=1)

    def test_each_context_has_its_own_generator(self):
        a, b = (experiments._Context(None, None, 0, 1, None, None) for _ in range(2))
        assert a.rng is not b.rng


class TestRunStats:
    """The counters each replica returns next to its row, summed by the
    harness; the rows, report and CSV are as without them."""

    @pytest.mark.parametrize("run", ["couple", "stages"])
    def test_counters_sum_the_replicas_walks(self, run):
        from flipdyn.coupling import CoupledWalk, start_walk

        config = ExperimentConfig(seed=9, replicas=30, construction=ConstructionSpec(1, 2, 6),
                                  workers=1)
        pair, probs = config.resolve_pair(), config.resolve_probs()
        if run == "couple":
            report = run_coupling_experiment(config)
        else:
            report = run_stage_experiment(config, 2)
        start = start_walk(pair, probs)
        cap = 100 * pair.graph.n * pair.k
        want = [0, 0, 0, 0]
        for r in range(30):
            walk = CoupledWalk(pair, probs, experiments._replica_rng(9, r), start)
            if run == "couple":
                walk.run_until_distance_change(cap)
            else:
                classify.walk_stages(walk, 2, cap)
            for i, n in enumerate(experiments._walk_counts(walk)):
                want[i] += n
        stats = report.stats
        assert (stats.steps, stats.rebuilds, stats.blocks_built, stats.blocks_reused) == tuple(want)
        assert (stats.replicas, stats.workers, stats.cap_overruns) == (30, 1, 0)
        assert stats.rebuilds > 0 and stats.wall_s > 0
        data = json.loads(stats.to_json())
        assert set(data) == {"wall_s", "replicas", "replicas_per_s", "steps", "steps_per_s",
                             "rebuilds", "blocks_built", "blocks_reused", "workers",
                             "cap_overruns"}
        assert data["steps_per_s"] == pytest.approx(data["steps"] / data["wall_s"])

    def test_pool_workers_and_overruns_are_counted(self):
        config = cfg(replicas=100, step_cap=2, workers=2)
        rep = run_coupling_experiment(config)
        one = run_coupling_experiment(cfg(replicas=100, step_cap=2, workers=1))
        assert rep.stats.workers == 2 and one.stats.workers == 1
        assert rep.stats.cap_overruns == rep.counts["exceeded_cap"] > 0
        assert rep.to_json() == one.to_json()
        counters = ("steps", "rebuilds", "blocks_built", "blocks_reused", "cap_overruns")
        assert ([getattr(rep.stats, n) for n in counters]
                == [getattr(one.stats, n) for n in counters])
