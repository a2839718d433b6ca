"""Command-line surface.

Subcommands:
  lp build|solve|slack     build, solve, or slack-check the linear programs
  sim couple|stages|gamma  Monte Carlo experiments on the coupled walk
  construct                write a worst-case pair to the text format
  check marginals|stationary|observation
                           exact enumeration checks (nonzero exit on failure)

Exit codes: 0 success, 1 a check failed, 2 input error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import lp as lp_mod
from .constructions import ConstructionSpec, build_construction
from .coupling import greedy_coupling_distribution
from .dynamics import flip_step_distribution, resolve_probabilities, stationary_check_tiny
from .errors import CapacityError, InputError, create_output
from .experiments import (
    ExperimentConfig,
    estimate_gamma_empirical,
    run_coupling_experiment,
    run_stage_experiment,
)
from .graphs import read_neighboring_pair, read_pair_file, write_pair_file

# The classical tight set: the cap constraint at alpha = 1, the band of
# single-entry blocks with one side 1 and the other in 2..4, and the
# two-entry blocks (1,1) against (3,3) at the support edge, plus mirrors.
OBSERVATION_TIGHT_LABELS = frozenset(
    ["cap/1"]
    + [f"H/m=1/a=1/b={b}/A=2/B={b + 1}" for b in (2, 3, 4)]
    + [f"H/m=1/a={a}/b=1/A={a + 1}/B=2" for a in (2, 3, 4)]
    + [f"H/m=2/a=1,1/b=3,3/A=3/B={B}" for B in (6, 7)]
    + [f"H/m=2/a=3,3/b=1,1/A={A}/B=3" for A in (6, 7)]
)


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{flag} must be a rational or decimal string: {exc}")


# The program flags each kind reads, with their defaults; a flag given
# for a kind that does not read it is an input error.
_LP_DEFAULTS = {"nmax": 7, "mstar": 3, "gamma": "25.597784", "cap3": False}
_LP_KIND_FLAGS = {
    "vigoda": ("nmax", "mstar"),
    "tight": (),
    "mixed": ("nmax", "mstar", "gamma", "cap3"),
}


def _build_lp_from_args(args) -> lp_mod.LPInstance:
    kind = args.kind
    for flag in _LP_DEFAULTS:
        if getattr(args, flag) is not None and flag not in _LP_KIND_FLAGS[kind]:
            raise InputError(f"--{flag} does not apply to --kind {kind}")
    opts = {flag: default if getattr(args, flag) is None else getattr(args, flag)
            for flag, default in _LP_DEFAULTS.items()}
    if kind == "vigoda":
        return lp_mod.build_vigoda_lp(opts["nmax"], opts["mstar"])
    if kind == "tight":
        return lp_mod.build_tight_lp()
    return lp_mod.build_mixed_lp(opts["nmax"], opts["mstar"],
                                 _parse_fraction(opts["gamma"], "--gamma"), cap3=opts["cap3"])


def _add_lp_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=["vigoda", "tight", "mixed"])
    p.add_argument("--nmax", type=int, help="vigoda, mixed (default 7)")
    p.add_argument("--mstar", type=int, help="vigoda, mixed (default 3)")
    p.add_argument("--gamma", help="mixed: rational or decimal string (default 25.597784)")
    p.add_argument("--cap3", action="store_true", default=None, help="mixed")


def _cmd_lp_build(args) -> int:
    inst = _build_lp_from_args(args)
    n_rows = lp_mod.write_lp_file(inst, args.out)
    n_structural = len(inst.constraints)
    n_family = n_rows - n_structural
    print(f"wrote {args.out} (+ .json sidecar)")
    print(f"name: {inst.name}")
    print(f"variables: {len(inst.variables)}")
    print(f"structural constraints: {n_structural}")
    print(f"block-family branch constraints: {n_family}")
    return 0


def _cmd_lp_solve(args) -> int:
    inst = _build_lp_from_args(args)
    create_output(args.out)
    sol = lp_mod.solve(inst)
    if sol.status != "optimal":
        print(f"status: {sol.status}", file=sys.stderr)
        return 1
    obj = sol.objective_value
    if args.json:
        payload = lp_mod.solution_payload(sol)
        payload["objective_float"] = float(obj)
        payload["active_constraints"] = sol.active_constraints
        payload["round_stats"] = [dataclasses.asdict(r) for r in sol.round_stats]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"status: optimal")
        print(f"objective = {obj} (~ {float(obj):.9f})")
        for v, x in sorted(sol.assignment.items()):
            print(f"  {v} = {x} (~ {float(x):.9f})")
    if args.out:
        lp_mod.write_solution(sol, args.out)
        print(f"solution written to {args.out}")
    if args.cross_check:
        status, fval = lp_mod.solve_float(inst)
        diff = abs(fval - float(obj)) if fval is not None else float("inf")
        print(f"float cross-check: {status} {fval} (|diff| = {diff:.3g})")
        if status != "optimal" or diff > 1e-9:
            print("cross-check FAILED", file=sys.stderr)
            return 1
    return 0


def _cmd_lp_slack(args) -> int:
    inst = _build_lp_from_args(args)
    probs = resolve_probabilities(args.vector)
    lam = _parse_fraction(args.lam, "--lam")
    assignment = lp_mod.extend_assignment(inst, probs, lam)
    report = lp_mod.slack_report(inst, assignment)
    if args.json:
        payload = {
            "feasible": report.feasible,
            "tight": list(report.tight),
            "violated": list(report.violated),
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"feasible: {report.feasible}")
        print(f"tight ({len(report.tight)}):")
        for label in report.tight:
            print(f"  {label}")
        if report.violated:
            print(f"violated ({len(report.violated)}):")
            for label in report.violated:
                print(f"  {label}")
    return 0 if report.feasible else 1


def _experiment_config(args) -> ExperimentConfig:
    construction = None
    if args.construction is not None:
        if args.d is None or args.k is None:
            raise InputError("--construction requires --d and --k")
        construction = ConstructionSpec(args.construction, args.d, args.k)
    elif args.d is not None or args.k is not None:
        # a pair file fixes d and k itself
        raise InputError("--d and --k apply only with --construction")
    return ExperimentConfig(
        seed=args.seed,
        replicas=args.replicas,
        construction=construction,
        pair_file=args.pair,
        probs=args.vector,
        step_cap=args.step_cap,
        workers=args.workers,
    )


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--construction", type=int, choices=[1, 2, 3, 4])
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--pair", help="pair file (alternative to --construction)")
    p.add_argument("--vector", default="mixed", help="preset name or JSON file")
    p.add_argument("--replicas", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-cap", type=int, default=None)
    p.add_argument("--workers", type=int, default=0, help="0 = automatic")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", help="write per-replica rows to this file")


def _emit_report(report, args) -> int:
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return 0 if report.ok else 1


def _cmd_sim_couple(args) -> int:
    return _emit_report(
        run_coupling_experiment(_experiment_config(args), csv_path=args.csv), args
    )


def _cmd_sim_stages(args) -> int:
    return _emit_report(
        run_stage_experiment(_experiment_config(args), args.color, csv_path=args.csv),
        args,
    )


def _cmd_sim_gamma(args) -> int:
    return _emit_report(
        estimate_gamma_empirical(_experiment_config(args), csv_path=args.csv), args
    )


def _cmd_construct(args) -> int:
    pair = build_construction(ConstructionSpec(args.index, args.d, args.k))
    write_pair_file(args.out, pair.graph, pair.sigma, pair.tau)
    print(f"wrote {args.out} (n={pair.graph.n}, k={pair.k})")
    return 0


def _cmd_check_marginals(args) -> int:
    pair = read_neighboring_pair(args.pair)
    probs = resolve_probabilities(args.vector)
    dist = greedy_coupling_distribution(pair, probs)
    failures = []

    def flips_only(d):
        return {key: mass for key, mass in d.items() if key is not None and mass != 0}

    sigma_single = flips_only(flip_step_distribution(pair.graph, pair.sigma, probs))
    tau_single = flips_only(flip_step_distribution(pair.graph, pair.tau, probs))
    if flips_only(dist.sigma_marginal()) != sigma_single:
        failures.append("sigma marginal mismatch")
    if flips_only(dist.tau_marginal()) != tau_single:
        failures.append("tau marginal mismatch")
    ok = not failures
    if args.json:
        print(json.dumps({"ok": ok, "failures": failures}, sort_keys=True))
    else:
        print("marginals exact: ok" if ok else "marginals: " + "; ".join(failures))
    return 0 if ok else 1


def _cmd_check_stationary(args) -> int:
    g, sigma, _tau = read_pair_file(args.pair)
    probs = resolve_probabilities(args.vector)
    report = stationary_check_tiny(g, sigma.k, probs, state_cap=args.state_cap)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "n_states": report.n_states,
                    "proper_states": report.proper_states,
                    "reachable_proper": report.reachable_proper,
                    "symmetric_pairs_checked": report.symmetric_pairs_checked,
                    "failures": report.failures[:20],
                },
                sort_keys=True,
            )
        )
    else:
        print(
            f"states: {report.n_states}, proper: {report.proper_states}, "
            f"reachable from first proper: {report.reachable_proper}"
        )
        print(f"row sums stochastic: {report.stochastic_ok}")
        print(f"proper-pair symmetry: {report.symmetry_ok}")
        for f in report.failures[:10]:
            print(f"  failure: {f}")
    return 0 if report.ok else 1


def _cmd_check_observation(args) -> int:
    inst = lp_mod.build_vigoda_lp(args.nmax, 3)
    probs = resolve_probabilities("alt")
    assignment = lp_mod.extend_assignment(inst, probs, Fraction(11, 6))
    report = lp_mod.slack_report(inst, assignment)
    got = {
        label
        for label in report.tight
        if label.startswith("cap/") or label.startswith("H/")
    }
    missing = sorted(OBSERVATION_TIGHT_LABELS - got)
    extra = sorted(got - OBSERVATION_TIGHT_LABELS)
    ok = report.feasible and not missing and not extra
    if args.json:
        print(
            json.dumps(
                {"ok": ok, "missing": missing, "extra": extra, "tight": sorted(got)},
                sort_keys=True,
            )
        )
    else:
        print(f"tight cap/H labels ({len(got)}):")
        for label in sorted(got):
            print(f"  {label}")
        if missing:
            print("MISSING (expected tight, not tight):")
            for label in missing:
                print(f"  {label}")
        if extra:
            print("EXTRA (tight, not expected):")
            for label in extra:
                print(f"  {label}")
        print("observation tight set reproduced exactly" if ok else "MISMATCH")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipdyn",
        description="Flip dynamics on graph colorings: couplings, LPs, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lp_p = sub.add_parser("lp", help="linear programs")
    lp_sub = lp_p.add_subparsers(dest="subcommand", required=True)
    b = lp_sub.add_parser("build", help="write LP file + exact sidecar")
    _add_lp_flags(b)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=_cmd_lp_build)
    s = lp_sub.add_parser("solve", help="exact rational optimum")
    _add_lp_flags(s)
    s.add_argument("--json", action="store_true")
    s.add_argument("--out", help="write solution JSON here")
    s.add_argument("--cross-check", action="store_true", help="float re-solve")
    s.set_defaults(fn=_cmd_lp_solve)
    sl = lp_sub.add_parser("slack", help="exact slacks of a probability vector")
    _add_lp_flags(sl)
    sl.add_argument("--vector", required=True, help="preset name or JSON file")
    sl.add_argument("--lam", required=True, help="rate, e.g. 11/6")
    sl.add_argument("--json", action="store_true")
    sl.set_defaults(fn=_cmd_lp_slack)

    sim_p = sub.add_parser("sim", help="Monte Carlo experiments")
    sim_sub = sim_p.add_subparsers(dest="subcommand", required=True)
    c = sim_sub.add_parser("couple", help="variable-length coupling to first change")
    _add_sim_flags(c)
    c.set_defaults(fn=_cmd_sim_couple)
    st = sim_sub.add_parser("stages", help="two-stage walk from a Bad color")
    _add_sim_flags(st)
    st.add_argument("--color", type=int, required=True)
    st.set_defaults(fn=_cmd_sim_stages)
    g = sim_sub.add_parser("gamma", help="empirical cost ratio vs. the exact bound")
    _add_sim_flags(g)
    g.set_defaults(fn=_cmd_sim_gamma)

    con = sub.add_parser("construct", help="write a worst-case neighboring pair")
    con.add_argument("--index", type=int, required=True, choices=[1, 2, 3, 4])
    con.add_argument("--d", type=int, required=True)
    con.add_argument("--k", type=int, required=True)
    con.add_argument("--out", required=True)
    con.set_defaults(fn=_cmd_construct)

    chk = sub.add_parser("check", help="exact enumeration checks")
    chk_sub = chk.add_subparsers(dest="subcommand", required=True)
    m = chk_sub.add_parser("marginals", help="coupling marginals match single walks")
    m.add_argument("--pair", required=True)
    m.add_argument("--vector", default="mixed")
    m.add_argument("--json", action="store_true")
    m.set_defaults(fn=_cmd_check_marginals)
    stat = chk_sub.add_parser("stationary", help="tiny-graph chain sanity checks")
    stat.add_argument("--pair", required=True)
    stat.add_argument("--vector", default="mixed")
    stat.add_argument("--state-cap", type=int, default=5000)
    stat.add_argument("--json", action="store_true")
    stat.set_defaults(fn=_cmd_check_stationary)
    obs = chk_sub.add_parser(
        "observation", help="reproduce the classical tight constraint set"
    )
    obs.add_argument("--nmax", type=int, default=6)
    obs.add_argument("--json", action="store_true")
    obs.set_defaults(fn=_cmd_check_observation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
