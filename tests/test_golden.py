"""Byte-for-byte goldens for the coupling, the simplex and the sim commands.

The files under tests/golden/ are committed data.  coupling.json holds one
sha256 per group of pairs over everything the coupling derives from a
pair: the move list (order, masses, flags), the sigma-side flips of D,
the labeled view of D (its D lines, from tests/reference_blocks.py's
difference_sets), signature for every color (s and t included), and the
per-color states.  simplex.json holds, for every solve_simplex call that
lp.solve makes on seven programs, the pivot counts, the final basis and a
sha256 of the pivot sequence, captured from the dense rational solver
that tests/reference_simplex.py keeps.  slack.json holds one sha256 per
slack_report case over every slack in insertion order and the tight and
violated labels, captured from the per-tuple Fraction evaluation through
HFamily.tuple_slack.  rows.json holds one sha256 per program over every
row of all_constraints() (label, coefficients, relation, right-hand side,
in order) and the sha256 of the files and stdout of `flipdyn lp build`,
captured before the row builders were shared.  The sim/ files are the exact
--json reports and CSVs of `flipdyn sim couple|stages|gamma` for fixed
seeds; every run must reproduce them at one worker and at two.  The
demos/ files are the stdout of the three scripts under demos/.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import neighboring_pairs, nonisomorphic_graphs, simplex_calls
from reference_blocks import difference_sets

from flipdyn import (
    Coloring,
    ConstructionSpec,
    Graph,
    InputError,
    NeighboringPair,
    alt_vector,
    build_construction,
    build_mixed_lp,
    build_tight_lp,
    build_vigoda_lp,
    classify_color,
    extend_assignment,
    greedy_coupling_distribution,
    mixed_vector,
    signature,
    slack_report,
    solve,
    state_counts,
    vigoda_vector,
)
from flipdyn.cli import main as cli_main
from flipdyn.coupling import _difference_raw

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = Path(__file__).resolve().parent.parent

VECTORS = {"vigoda": vigoda_vector(), "alt": alt_vector(), "mixed": mixed_vector()}

# (index, d, k) of the constructions whose pairs, both orientations, and
# one-step successors at distance 1 are digested.
CONSTRUCTIONS = [(1, 2, 6), (2, 3, 6), (3, 3, 6), (4, 2, 6), (1, 6, 11), (2, 6, 11),
                 (3, 6, 11), (4, 6, 11)]

SIM_RUNS = {
    "couple-c2-d3-k6-seed4": ["sim", "couple", "--construction", "2", "--d", "3",
                              "--k", "6", "--replicas", "150", "--seed", "4"],
    "couple-c1-d6-k11-seed2p63m1": ["sim", "couple", "--construction", "1", "--d", "6",
                                    "--k", "11", "--replicas", "64",
                                    "--seed", str(2**63 - 1)],
    "stages-c1-d2-k6-color2-seed8": ["sim", "stages", "--construction", "1", "--d", "2",
                                     "--k", "6", "--color", "2", "--replicas", "200",
                                     "--seed", "8"],
    "gamma-c1-d6-k11-seed2": ["sim", "gamma", "--construction", "1", "--d", "6",
                              "--k", "11", "--replicas", "120", "--seed", "2"],
    "gamma-c3-d6-k11-seed1003": ["sim", "gamma", "--construction", "3", "--d", "6",
                                 "--k", "11", "--replicas", "80", "--seed", "1003"],
}


# Programs whose simplex calls are pinned in simplex.json.
SIMPLEX_PROGRAMS = {
    "tight": build_tight_lp,
    "tight-without-tight/4": lambda: build_tight_lp().without("tight/4"),
    "vigoda-n6-m2": lambda: build_vigoda_lp(6, 2),
    "vigoda-n6-m3": lambda: build_vigoda_lp(6, 3),
    "vigoda-n7-m3": lambda: build_vigoda_lp(7, 3),
    "vigoda-n6-m4": lambda: build_vigoda_lp(6, 4),
    "mixed-n6-m3-gamma25.597784": lambda: build_mixed_lp(6, 3),
}

# Programs whose fully expanded rows are pinned in rows.json.
ROW_PROGRAMS = {
    "tight": build_tight_lp,
    "tight-without-tight/4": lambda: build_tight_lp().without("tight/4"),
    "vigoda-n4-m3": lambda: build_vigoda_lp(4, 3),
    "vigoda-n6-m2": lambda: build_vigoda_lp(6, 2),
    "vigoda-n7-m3": lambda: build_vigoda_lp(7, 3),
    "vigoda-n5-m4": lambda: build_vigoda_lp(5, 4),
    "mixed-n6-m3-cap3": lambda: build_mixed_lp(6, 3, cap3=True),
    "mixed-n5-m4": lambda: build_mixed_lp(5, 4, cap3=False),
}

# `flipdyn lp build` runs whose .lp file, JSON sidecar and stdout are pinned.
LP_BUILDS = {
    "vigoda-n4": ["lp", "build", "--kind", "vigoda", "--nmax", "4"],
    "mixed-n6-cap3": ["lp", "build", "--kind", "mixed", "--nmax", "6", "--cap3"],
}

# Slack reports pinned in slack.json: program, vector and rate of each case.
# The last case sits below the threshold, so its violated list is nonempty.
SLACK_CASES = {
    "vigoda-n7-alt-11/6": (lambda: build_vigoda_lp(7, 3), "alt", Fraction(11, 6)),
    "vigoda-n6-vigoda-11/6": (lambda: build_vigoda_lp(6, 3), "vigoda", Fraction(11, 6)),
    "mixed-n6-mixed-optimum": (lambda: build_mixed_lp(6, 3), "mixed",
                               Fraction(402041483, 219306718)),
    "vigoda-n7-alt-9/5": (lambda: build_vigoda_lp(7, 3), "alt", Fraction(9, 5)),
}


def _flip(f) -> str:
    if f is None:
        return "-"
    comp, lo, hi = f
    return f"{sorted(comp)}:{lo}-{hi}"


def _frac(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def pair_lines(pair: NeighboringPair):
    """Everything the coupling derives from one pair, one text line each."""
    yield f"pair {pair.sigma.colors} {pair.tau.colors}"
    for name, probs in VECTORS.items():
        dist = greedy_coupling_distribution(pair, probs)
        for m in dist.moves:
            yield (f"{name} {_flip(m.sigma_flip)} {_flip(m.tau_flip)} "
                   f"{_frac(m.mass)} {int(m.terminating)}")
        yield f"{name} noop {_frac(dist.noop_mass)}"
    _, labels = _difference_raw(pair, VECTORS["vigoda"])
    yield "labels " + " ".join(sorted(_flip(f) for f in labels))
    for c, entries in difference_sets(pair).items():
        yield f"D {c} " + " ".join(f"{label}={_flip(f)}" for label, f in entries)
    for c in range(pair.k):
        try:
            yield repr(signature(pair, c))
        except InputError:
            yield f"signature {c} absent"
        yield f"state {c} {classify_color(pair, c).value}"
    yield repr(state_counts(pair))


def digest(pairs) -> str:
    h = hashlib.sha256()
    for pair in pairs:
        for line in pair_lines(pair):
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def construction_pairs(index: int, d: int, k: int) -> list[NeighboringPair]:
    pair = build_construction(ConstructionSpec(index, d, k))
    out = [pair, NeighboringPair(pair.graph, pair.tau, pair.sigma)]
    seen = set()
    for m in greedy_coupling_distribution(pair, VECTORS["mixed"]).moves:
        sig, tau = m.apply(pair)
        key = (sig.colors, tau.colors)
        if key in seen or sum(a != b for a, b in zip(*key)) != 1:
            continue
        seen.add(key)
        out.append(NeighboringPair(pair.graph, sig, tau))
    return out


def random_pairs(seed: int, count: int) -> list[NeighboringPair]:
    """Seeded random pairs on 5..8 vertices with 2..4 colors, mostly
    improper: large enough for components that attach to v both ways next
    to other classes of the disagreement block."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(5, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        k = rng.randint(2, 4)
        sigma = Coloring(tuple(rng.randrange(k) for _ in range(n)), k)
        v = rng.randrange(n)
        t = rng.choice([c for c in range(k) if c != sigma[v]])
        out.append(NeighboringPair(Graph(n, edges), sigma, sigma.recolor({v: t})))
    return out


def coupling_groups():
    """Group name -> zero-argument builder of that group's pairs."""
    groups = {}
    for n in (1, 2, 3):
        for k in (2, 3, 4):
            groups[f"corpus-n{n}-k{k}"] = (
                lambda n=n, k=k: [p for g in nonisomorphic_graphs(n)
                                  for p in neighboring_pairs(g, k)])
    groups["random-n5to8-k2to4"] = lambda: random_pairs(2024, 400)
    for index, d, k in CONSTRUCTIONS:
        groups[f"construction-{index}-d{d}-k{k}"] = (
            lambda spec=(index, d, k): construction_pairs(*spec))
    return groups


def slack_record(report) -> dict:
    """One slack report in the form of slack.json's entries: the sha256 over
    every slack in insertion order as 'label=n/d' lines, then the tight and
    the violated labels, plus the three counts."""
    lines = [f"{label}={_frac(s)}" for label, s in report.slacks.items()]
    lines += [f"tight {label}" for label in report.tight]
    lines += [f"violated {label}" for label in report.violated]
    text = "".join(line + "\n" for line in lines)
    return {
        "slacks": len(report.slacks),
        "tight": len(report.tight),
        "violated": len(report.violated),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def rows_record(inst) -> dict:
    """The row count and the sha256 of one line per expanded row:
    'label v=n/d ... rel n/d'."""
    h = hashlib.sha256()
    count = 0
    for c in inst.all_constraints():
        coeffs = " ".join(f"{v}={_frac(x)}" for v, x in c.coeffs)
        h.update(f"{c.label} {coeffs} {c.rel} {_frac(c.rhs)}\n".encode())
        count += 1
    return {"rows": count, "sha256": h.hexdigest()}


def lp_build_record(argv: list[str], tmp_path: Path, capsys, monkeypatch) -> dict:
    """sha256 of the .lp file, its JSON sidecar and the stdout of one
    `flipdyn lp build`, run in tmp_path so that stdout names no directory."""
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli_main(argv + ["--out", "program.lp"]) == 0
    out = capsys.readouterr().out

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    return {
        "lp": sha((tmp_path / "program.lp").read_bytes()),
        "json": sha((tmp_path / "program.lp.json").read_bytes()),
        "stdout": sha(out.encode()),
    }


def simplex_record(call) -> dict:
    """One simplex call in the form of simplex.json's entries."""
    res = call["result"]
    pivots = "".join(f"{e} {leaving}\n" for e, leaving in call["pivots"])
    return {
        "rows": len(call["args"][1]),
        "status": res.status,
        "objective": None if res.objective is None else _frac(res.objective),
        "phase1_pivots": res.phase1_pivots,
        "phase2_pivots": res.phase2_pivots,
        "pivots_sha256": hashlib.sha256(pivots.encode()).hexdigest(),
        "basis": list(res.basis),
    }


def run_sim(argv: list[str], tmp_path: Path, capsys) -> tuple[str, str]:
    """(--json report, CSV) of one sim command."""
    csv = tmp_path / "rows.csv"
    code = cli_main(argv + ["--json", "--csv", str(csv)])
    out = capsys.readouterr().out
    assert code in (0, 1)
    return out, csv.read_text()


@pytest.mark.parametrize("group", sorted(coupling_groups()))
def test_coupling_digest(group):
    expected = json.loads((GOLDEN / "coupling.json").read_text())
    assert digest(coupling_groups()[group]()) == expected[group]


@pytest.mark.parametrize("name", sorted(SIMPLEX_PROGRAMS))
def test_simplex_pivot_path(name):
    expected = json.loads((GOLDEN / "simplex.json").read_text())["programs"][name]
    with simplex_calls() as calls:
        solve(SIMPLEX_PROGRAMS[name]())
    for call in calls:
        assert len(call["pivots"]) == (call["result"].phase1_pivots
                                       + call["result"].phase2_pivots)
    assert [simplex_record(c) for c in calls] == expected


@pytest.mark.parametrize("name", sorted(ROW_PROGRAMS))
def test_expanded_rows(name):
    expected = json.loads((GOLDEN / "rows.json").read_text())["programs"][name]
    assert rows_record(ROW_PROGRAMS[name]()) == expected


@pytest.mark.parametrize("name", sorted(LP_BUILDS))
def test_lp_build_files(name, tmp_path, capsys, monkeypatch):
    expected = json.loads((GOLDEN / "rows.json").read_text())["lp_build"][name]
    assert lp_build_record(LP_BUILDS[name], tmp_path, capsys, monkeypatch) == expected


@pytest.mark.parametrize("name", sorted(SLACK_CASES))
def test_slack_report(name):
    expected = json.loads((GOLDEN / "slack.json").read_text())["cases"][name]
    build, vector, lam = SLACK_CASES[name]
    inst = build()
    report = slack_report(inst, extend_assignment(inst, VECTORS[vector], lam))
    assert slack_record(report) == expected


@pytest.mark.parametrize("name", sorted(SLACK_CASES))
def test_slack_report_labels_on_demand(name, monkeypatch):
    # tight and violated label only the tuples with slack <= 0; the other
    # tuples are labelled when slacks is first read, in the order the
    # golden pins
    build, vector, lam = SLACK_CASES[name]
    inst = build()
    assignment = extend_assignment(inst, VECTORS[vector], lam)
    labelled = []
    for i, fam in enumerate(inst.families):
        def counted(*t, i=i, label_for=fam.label_for):
            labelled.append((i, t))
            return label_for(*t)

        monkeypatch.setattr(fam, "label_for", counted)
    report = slack_report(inst, assignment)
    assert labelled == [
        (i, fam.table.tuple_at(k)) for i, fam in enumerate(inst.families)
        for k in np.flatnonzero(fam.scaled_slacks(assignment)[1] <= 0).tolist()]
    labelled.clear()
    expected = json.loads((GOLDEN / "slack.json").read_text())["cases"][name]
    assert slack_record(report) == expected
    assert len(labelled) == sum(len(fam.table.A) for fam in inst.families)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(SIM_RUNS))
def test_sim_output(name, workers, tmp_path, capsys):
    report, rows = run_sim(SIM_RUNS[name] + ["--workers", str(workers)], tmp_path, capsys)
    assert report == (GOLDEN / "sim" / f"{name}.json").read_text()
    assert rows == (GOLDEN / "sim" / f"{name}.csv").read_text()


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_stdout(name):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "demos" / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(SIMPLEX_PROGRAMS))
def test_simplex_rows_stay_reduced(name, reduced_rows):
    # a pivot runs the full gcd only on rows whose gcd(rhs, den) is not 1;
    # every row must still end each pivot in lowest terms
    solve(SIMPLEX_PROGRAMS[name]())
    assert np.dtype(np.int64) in reduced_rows


@pytest.mark.parametrize("name", sorted(SIMPLEX_PROGRAMS))
def test_simplex_pivot_path_in_python_ints(name, monkeypatch, pivot_dtypes):
    # With the int64 bound at 2**8 every program reaches Python ints: most
    # solves switch within a pivot, the rest when their rows or reduced
    # costs are first written.  The pinned calls must not move.
    monkeypatch.setattr("flipdyn.simplex._INT64_BOUND", 2**8)
    expected = json.loads((GOLDEN / "simplex.json").read_text())["programs"][name]
    with simplex_calls() as calls:
        solve(SIMPLEX_PROGRAMS[name]())
    assert [simplex_record(c) for c in calls] == expected
    assert any(after == object for _, after in pivot_dtypes)
