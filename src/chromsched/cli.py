"""Command-line entry point: generate / solve / validate / experiment / report.

Exit codes: 0 success, 1 usage error, 2 solver or validation failure.
All randomness flows from the --seed / --master-seed flags, so identical
invocations rewrite identical schedule and metrics bytes (experiment CSVs
contain wall-clock runtimes, which naturally vary).
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import __version__
from .annealing import SaParams, Structure, run_sa
from .errors import SchedulingError
from .experiments import (DEFAULT_FACTORS, anova_effects, parse_algorithm,
                          read_observations, run_experiment, write_observations,
                          write_report)
from .generator import GenConfig, design_cells, generate_design, generate_instance
from .jsonio import read_instance, read_schedule, write_instance, write_schedule
from .list_scheduler import run_lta
from .model import schedule_metrics, validate_schedule
from .rules import MachinePolicy, Rule, RuleParams


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="chromsched",
        description="Total-tardiness scheduling for parallel analysis "
                    "machines with family setups, operator windows and "
                    "limited columns.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random instance")
    gen.add_argument("--jobs", type=int, default=70, help="job count (default 70)")
    gen.add_argument("--routings", type=int, default=10,
                     help="routing count (default 10)")
    gen.add_argument("--setup-ratio", type=float, default=0.50,
                     help="setup share of total duration (default 0.50)")
    gen.add_argument("--flex-mean", type=float, default=2,
                     help="mean eligible-machine count (default 2)")
    gen.add_argument("--machines", type=int, default=10,
                     help="machine count (default 10)")
    gen.add_argument("--column-types", type=int, default=20,
                     help="column type count (default 20)")
    gen.add_argument("--seed", type=int, default=0, help="generation seed (default 0)")
    gen.add_argument("--unchecked", action="store_true",
                     help="allow values outside the experimental domains")
    gen.add_argument("--out", required=True, help="output instance JSON path")

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("--instance", required=True, help="instance JSON path")
    solve.add_argument("--out", required=True, help="output schedule JSON path")
    solve.add_argument("--algorithm", choices=("lta", "sa"), default="lta",
                       help="list scheduler or annealing (default lta)")
    solve.add_argument("--rule", choices=[r.value for r in Rule],
                       default="atcoee", help="priority rule (default atcoee)")
    solve.add_argument("--machine-policy", choices=[p.value for p in MachinePolicy],
                       default="ffm", help="machine policy (default ffm)")
    solve.add_argument("--k1", type=float, default=10.0, help="slack scale (default 10)")
    solve.add_argument("--k2", type=float, default=1.0,
                       help="setup/efficiency scale (default 1)")
    solve.add_argument("--k3", type=float, default=10.0,
                       help="flexibility scale (default 10)")
    solve.add_argument("--seed", type=int, default=0, help="solver seed (default 0)")
    solve.add_argument("--structure", choices=[s.value for s in Structure],
                       default="op_pa", help="neighborhood structure (default op_pa)")
    solve.add_argument("--cooling", type=float, default=0.95,
                       help="geometric cooling factor (default 0.95)")
    solve.add_argument("--max-iters", type=int, default=15000,
                       help="iteration budget, 0 = unlimited (default 15000)")
    solve.add_argument("--trace", help="write the annealing trace CSV here")

    val = sub.add_parser("validate", help="check a schedule against an instance")
    val.add_argument("--instance", required=True, help="instance JSON path")
    val.add_argument("--schedule", required=True, help="schedule JSON path")

    exp = sub.add_parser("experiment", help="run a factorial experiment")
    exp.add_argument("--algorithms", required=True,
                     help="comma-separated algorithm tokens, e.g. "
                          "atcoee,atcs.1.1,op_pa_sa")
    exp.add_argument("--loads", default="140",
                     help="comma-separated job counts (default 140)")
    exp.add_argument("--cells", type=int, default=16,
                     help="first N of the 16 factorial cells (default 16)")
    exp.add_argument("--seeds", type=int, default=10,
                     help="replicates per cell (default 10)")
    exp.add_argument("--master-seed", type=int, default=0,
                     help="seed for deriving all run seeds (default 0)")
    exp.add_argument("--parallel", type=int, default=1,
                     help="worker processes, at most the CPU count (default 1)")
    exp.add_argument("--unchecked", action="store_true",
                     help="allow loads outside the experimental domains")
    exp.add_argument("--out", required=True, help="output results CSV path")

    rep = sub.add_parser("report", help="effect and F-test report from results")
    rep.add_argument("--results", required=True, help="results CSV path")
    rep.add_argument("--text", help="plain-text report path")
    rep.add_argument("--csv", help="CSV report path")
    rep.add_argument("--response", default="logTardiness",
                     help="response column (default logTardiness)")
    rep.add_argument("--factors", default=",".join(DEFAULT_FACTORS),
                     help=f"comma-separated factors (default "
                          f"{','.join(DEFAULT_FACTORS)})")
    return parser


def _cmd_generate(args) -> int:
    cfg = GenConfig(
        n_jobs=args.jobs, n_routings=args.routings,
        setup_ratio=args.setup_ratio, flex_mean=args.flex_mean,
        n_machines=args.machines, n_column_types=args.column_types,
        seed=args.seed, unchecked=args.unchecked)
    instance = generate_instance(cfg)
    write_instance(instance, args.out)
    print(f"instance={args.out} jobs={len(instance.jobs)} "
          f"operations={instance.n_operations}")
    return 0


def _rule_params(args) -> RuleParams:
    return RuleParams(
        rule=Rule(args.rule), machine_policy=MachinePolicy(args.machine_policy),
        k1=args.k1, k2=args.k2, k3=args.k3)


def _cmd_solve(args) -> int:
    if args.max_iters < 0:
        raise SchedulingError(
            f"--max-iters must be 0 (unlimited) or more, got {args.max_iters}")
    if args.trace and args.algorithm != "sa":
        raise SchedulingError("--trace needs --algorithm sa")
    sa_params = SaParams(
        structure=Structure(args.structure),
        cooling_factor=args.cooling,
        max_iterations=args.max_iters if args.max_iters > 0 else None)
    params = _rule_params(args)
    instance = read_instance(args.instance)
    schedule = run_lta(instance, params, seed=args.seed)
    if args.algorithm == "sa":
        result = run_sa(instance, schedule, sa_params, seed=args.seed)
        schedule = result.schedule
        if args.trace:
            with open(args.trace, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["iteration", "temperature", "current", "best"])
                writer.writerows(result.trace)
        print(f"sa iterations={result.iterations} evaluated={result.evaluated} "
              f"accepted={result.accepted} improved={result.improved} "
              f"proposal_failures={result.proposal_failures} "
              f"decode_failures={result.decode_failures} "
              f"levels={result.levels_completed} termination={result.termination}")
    write_schedule(schedule, args.out)
    metrics = schedule_metrics(instance, schedule)
    print(f"tardiness={metrics['tardiness']} late_jobs={metrics['late_jobs']} "
          f"setups={metrics['setups']} makespan={metrics['makespan']}")
    violations = validate_schedule(instance, schedule)
    if violations:
        for violation in violations:
            print(violation, file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args) -> int:
    instance = read_instance(args.instance)
    schedule = read_schedule(args.schedule)
    violations = validate_schedule(instance, schedule)
    if violations:
        for violation in violations:
            print(violation)
        print(f"INVALID ({len(violations)} violation(s))")
        return 2
    print("OK")
    return 0


def _cmd_experiment(args) -> int:
    algorithms = [parse_algorithm(t) for t in args.algorithms.split(",") if t]
    if not algorithms:
        raise SchedulingError("no algorithms given")
    loads = []
    for token in filter(None, args.loads.split(",")):
        try:
            loads.append(int(token))
        except ValueError:
            raise SchedulingError(
                f"--loads: {token!r} is not a whole number") from None
    if not 1 <= args.cells <= 16:
        raise SchedulingError("--cells must be in 1..16")
    design = []
    for cfg, seed in generate_design(loads=loads, seeds_per_cell=args.seeds,
                                     master_seed=args.master_seed,
                                     unchecked=args.unchecked):
        design.append((cfg, seed))
    if args.cells < 16:
        kept_cells = {
            (c.n_jobs, c.n_routings, c.setup_ratio, c.flex_mean)
            for load in loads
            for c in design_cells(load, unchecked=args.unchecked)[:args.cells]}
        design = [(cfg, seed) for cfg, seed in design
                  if (cfg.n_jobs, cfg.n_routings, cfg.setup_ratio,
                      cfg.flex_mean) in kept_cells]
    observations = run_experiment(design, algorithms, parallel=args.parallel)
    write_observations(observations, args.out)
    failures = sum(1 for o in observations if o.tardiness < 0)
    print(f"results={args.out} rows={len(observations)} failures={failures}")
    return 2 if failures else 0


def _cmd_report(args) -> int:
    observations = read_observations(args.results)
    factors = tuple(t for t in args.factors.split(",") if t)
    report = anova_effects(observations, response=args.response, factors=factors)
    write_report(report, text_path=args.text, csv_path=args.csv)
    print(report.to_text(), end="")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "validate": _cmd_validate,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SchedulingError, ValueError, OSError) as exc:
        print(f"chromsched: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
