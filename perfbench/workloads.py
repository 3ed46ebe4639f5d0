"""The benchmark's seeded workloads and the checks on every schedule.

Every workload draws its instances from
``generate_design(loads=(load,), seeds_per_cell=1, master_seed=seed)``:
the 16 factorial cells of one load, one instance each.  The solvers get only
those instances.  Everything runs in this process; no worker pool.

- ``lta_140``: every cell of the 140-job design under all 7 rule tokens,
  then ``anova_effects`` over the 112 observations (acceptance criterion 4).
  The list scheduler and the rules do the work; the annealer does none.
- ``sa_140``: every cell of the 140-job design as ``solve --algorithm sa``:
  ATCOEE list scheduling, then OP+PA annealing at cooling 0.95 capped at
  `SA_140_MAX_ITERATIONS` (criteria 5 and 9).  The decoder dominates.
- ``mixed_70``: every cell of the 70-job design under all 7 rule tokens
  plus SIMPLE, OP and OP+PA annealing capped at `MIXED_70_MAX_ITERATIONS`
  (criterion 1).  Tardiness is low, so runs stop early or fail proposals,
  and per-run fixed costs weigh more than the decoder.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace

from chromsched import (annealing, experiments, generator, jsonio,
                        list_scheduler, model)
from chromsched.annealing import SaParams
from chromsched.generator import GenConfig
from chromsched.model import Instance
from chromsched.rules import RuleParams
from hostclock import LapClock

RULE_TOKENS = ("random", "edd", "atc", "atcs", "atcoee", "atcoeef", "lfm_lfo")
SA_TOKENS = ("simple_sa", "op_sa", "op_pa_sa")

#: Iteration caps.  The experiment presets allow 15,000 iterations, which
#: would make one pass of either workload take minutes; the caps keep a pass
#: at 15-30 s on a 2-CPU Xeon while annealing still dominates `sa_140`.
SA_140_MAX_ITERATIONS = 1000
MIXED_70_MAX_ITERATIONS = 250


@dataclass(frozen=True)
class Workload:
    name: str
    load: int
    tokens: tuple[str, ...]
    max_iterations: int | None  # cap for the annealing tokens
    anova: bool  # run anova_effects over the pass's observations


WORKLOADS = {
    w.name: w for w in (
        Workload("lta_140", 140, RULE_TOKENS, None, True),
        Workload("sa_140", 140, ("op_pa_sa",), SA_140_MAX_ITERATIONS, False),
        Workload("mixed_70", 70, RULE_TOKENS + SA_TOKENS,
                 MIXED_70_MAX_ITERATIONS, False),
    )
}


@dataclass(frozen=True)
class Task:
    """One solver run: list scheduling, then annealing when `sa_params`."""

    cell: int
    cfg: GenConfig
    seed: int
    label: str
    rule_params: RuleParams
    sa_params: SaParams | None


def design(workload: Workload, seed: int):
    """The workload's (config, solver seed) pairs for a master seed."""
    return generator.generate_design(
        loads=(workload.load,), seeds_per_cell=1, master_seed=seed)


def tasks(workload: Workload, points) -> list[Task]:
    out = []
    for cell, (cfg, solver_seed) in enumerate(points):
        for token in workload.tokens:
            spec = experiments.parse_algorithm(token)
            sa = spec.sa_params
            if sa is not None and workload.max_iterations is not None:
                sa = replace(sa, max_iterations=workload.max_iterations)
            out.append(Task(cell, cfg, solver_seed, spec.label,
                            spec.rule_params, sa))
    return out


def load_instances(points) -> list[Instance]:
    """The CLI user's set-up path: generate each instance and pass it
    through its JSON wire format."""
    instances = []
    for cfg, _ in points:
        generated = generator.generate_instance(cfg)
        text = json.dumps(jsonio.instance_to_dict(generated))
        instances.append(jsonio.instance_from_dict(json.loads(text)))
    return instances


@dataclass
class RunOutcome:
    """What one solver run produced and how long it took, raw and
    corrected for host speed (see `hostclock`)."""

    task: Task
    tardiness: int | None = None
    sa: annealing.SaResult | None = None
    sa_seconds: float = 0.0  # raw seconds inside run_sa
    problems: tuple[str, ...] = ()
    raw_ms: float = 0.0
    ms: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def fingerprint(self) -> tuple:
        """The run's deterministic outputs."""
        sa = self.sa
        return (self.tardiness, self.problems, None if sa is None else (
            sa.tardiness, sa.initial_tardiness, sa.iterations, sa.evaluated,
            sa.accepted, sa.improved, sa.proposal_failures,
            sa.decode_failures, sa.levels_completed, sa.termination))


def check_schedule(instance: Instance, schedule, initial=None,
                   sa: annealing.SaResult | None = None) -> tuple[int, list[str]]:
    """Total tardiness of `schedule` and every check it fails.

    Beyond `validate_schedule`: no operation may start before the horizon
    origin (the validator does not check this), and an annealing result
    must report its schedule's true tardiness and be no worse than the
    schedule it started from.
    """
    problems = [str(v) for v in model.validate_schedule(instance, schedule)]
    early = [p.operation_id for p in schedule.placements
             if p.start < instance.horizon_origin]
    if early:
        problems.append(f"{len(early)} operation(s) start before the horizon "
                        f"origin, first {early[0]}")
    tardiness = model.total_tardiness(schedule, instance)
    if sa is not None:
        if sa.tardiness != tardiness:
            problems.append(f"SaResult.tardiness {sa.tardiness} != "
                            f"total_tardiness {tardiness}")
        initial_tardiness = model.total_tardiness(initial, instance)
        if tardiness > initial_tardiness:
            problems.append(f"annealing returned {tardiness}, worse than its "
                            f"initial {initial_tardiness}")
    return tardiness, problems


def run_task(instance: Instance, task: Task) -> RunOutcome:
    """One solver run plus its checks.  A run that raises is a failed run,
    never a scored one."""
    outcome = RunOutcome(task)
    try:
        schedule = list_scheduler.run_lta(instance, task.rule_params,
                                          seed=task.seed)
        initial = schedule
        if task.sa_params is not None:
            sa_start = time.perf_counter()
            outcome.sa = annealing.run_sa(instance, schedule, task.sa_params,
                                          seed=task.seed)
            outcome.sa_seconds = time.perf_counter() - sa_start
            schedule = outcome.sa.schedule
        tardiness, problems = check_schedule(instance, schedule, initial,
                                             outcome.sa)
        outcome.tardiness = tardiness
        outcome.problems = tuple(problems)
    except Exception as exc:  # a failed run is counted, not fatal
        outcome.problems = (f"{type(exc).__name__}: {exc}",)
    return outcome


@dataclass
class PassResult:
    """One pass over every task of a workload; `seconds` is corrected for
    host speed, `raw_seconds` is not."""

    outcomes: list[RunOutcome]
    raw_seconds: float = 0.0
    seconds: float = 0.0
    anova_problem: str | None = None


def run_pass(workload: Workload, instances: list[Instance], task_list,
             tracer=None) -> PassResult:
    """Run every task once, then the workload's report step.  With a tracer,
    each run's spans carry the run's index."""
    result = PassResult([])
    clock = LapClock()
    for index, task in enumerate(task_list):
        if tracer is not None:
            tracer.run_id = index
        outcome = run_task(instances[task.cell], task)
        raw, corrected = clock.lap()
        outcome.raw_ms, outcome.ms = raw * 1000.0, corrected * 1000.0
        result.outcomes.append(outcome)
        result.raw_seconds += raw
        result.seconds += corrected
    if workload.anova:
        if tracer is not None:
            tracer.run_id = None
        result.anova_problem = _anova(result.outcomes)
        raw, corrected = clock.lap()
        result.raw_seconds += raw
        result.seconds += corrected
    return result


def _anova(outcomes: list[RunOutcome]) -> str | None:
    observations = []
    for o in outcomes:
        if o.failed:
            return "anova skipped: the pass has failed runs"
        cfg = o.task.cfg
        observations.append(experiments.Observation(
            load=cfg.n_jobs, n_routings=cfg.n_routings,
            setup_ratio=cfg.setup_ratio, flex_mean=cfg.flex_mean,
            algorithm=o.task.label, seed=o.task.seed, tardiness=o.tardiness,
            log_tardiness=experiments.log_tardiness(o.tardiness),
            runtime_ms=o.ms))
    try:
        report = experiments.anova_effects(observations)
    except ValueError as exc:
        return f"anova_effects failed: {exc}"
    if report.n != len(observations) or not math.isfinite(report.grand_mean):
        return "anova_effects returned an inconsistent report"
    return None
