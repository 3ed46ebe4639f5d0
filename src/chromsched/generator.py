"""Seeded random instance generation.

Instances mirror a quality-control laboratory: 10 machines, 20 column
types, operators on weekdays 08:00-18:00.  Jobs draw a routing from a
shared pool; a routing is a template of 1-3 operations whose family, total
duration (setup plus processing, uniform 120-1440 minutes, split by the
setup ratio) and eligible-machine set are fixed once, so all jobs on one
routing have identical operation structure.  Releases fall uniformly in
-8..+5 days around the plan origin, due dates add a Gaussian lead time
centered on 10 days (sd one day, clamped non-negative).  Column unit
counts follow usage rank: the top 10% busiest families get 3 units, the
next 30% get 2, the rest 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .availability import MINUTES_PER_DAY, WORKDAYS, weekly_windows
from .model import ColumnType, Instance, Job, Operation

JOB_COUNTS = (70, 140)
ROUTING_COUNTS = (10, 20)
SETUP_RATIOS = (0.50, 0.75)
FLEX_MEANS = (2, 4, 6, 10)

_RELEASE_MIN = -8 * MINUTES_PER_DAY
_RELEASE_MAX = 5 * MINUTES_PER_DAY
_LEAD_MEAN = 10 * MINUTES_PER_DAY
_LEAD_SD = MINUTES_PER_DAY
_DURATION_MIN = 120
_DURATION_MAX = 1440
_FLEX_SD = 0.5
_WINDOW_TAIL_DAYS = 60


@dataclass(frozen=True)
class GenConfig:
    """One generation cell.  The four factorial fields must sit in their
    experimental domains unless `unchecked` is set (used for scaled-down
    suites); machine and column-type counts are fixed at 10 and 20 in the
    experiments but remain configurable."""

    n_jobs: int = 70
    n_routings: int = 10
    setup_ratio: float = 0.50
    flex_mean: float = 2.0
    n_machines: int = 10
    n_column_types: int = 20
    seed: int = 0
    unchecked: bool = False

    def __post_init__(self):
        if self.n_jobs < 1 or self.n_routings < 1:
            raise ValueError("need at least one job and one routing")
        if self.n_machines < 1 or self.n_column_types < 1:
            raise ValueError("need at least one machine and one column type")
        if not 0.0 < self.setup_ratio < 1.0:
            raise ValueError("setup_ratio must be in (0, 1)")
        if not math.isfinite(self.flex_mean):
            raise ValueError(f"flex_mean must be finite, got {self.flex_mean}")
        if self.unchecked:
            return
        if self.n_jobs not in JOB_COUNTS:
            raise ValueError(f"n_jobs must be one of {JOB_COUNTS}")
        if self.n_routings not in ROUTING_COUNTS:
            raise ValueError(f"n_routings must be one of {ROUTING_COUNTS}")
        if self.setup_ratio not in SETUP_RATIOS:
            raise ValueError(f"setup_ratio must be one of {SETUP_RATIOS}")
        if self.flex_mean not in FLEX_MEANS:
            raise ValueError(f"flex_mean must be one of {FLEX_MEANS}")


def _id_width(count: int) -> int:
    return max(2, len(str(count - 1)))


def generate_instance(cfg: GenConfig) -> Instance:
    """Deterministic instance for a config (the seed is part of it)."""
    rng = random.Random(cfg.seed)
    machine_ids = [f"m{i:0{_id_width(cfg.n_machines)}d}"
                   for i in range(cfg.n_machines)]
    family_ids = [f"f{i:0{_id_width(cfg.n_column_types)}d}"
                  for i in range(cfg.n_column_types)]

    # Routing templates: family, setup/processing split, eligible machines.
    routings = []
    for _ in range(cfg.n_routings):
        ops = []
        for _ in range(rng.randint(1, 3)):
            family = family_ids[rng.randrange(cfg.n_column_types)]
            total = rng.randint(_DURATION_MIN, _DURATION_MAX)
            setup = round(cfg.setup_ratio * total)
            processing = total - setup
            if processing < 1:
                processing, setup = 1, total - 1
            if cfg.flex_mean >= cfg.n_machines:
                eligible = tuple(machine_ids)
            else:
                k = round(rng.gauss(cfg.flex_mean, _FLEX_SD))
                k = max(1, min(cfg.n_machines, k))
                eligible = tuple(sorted(rng.sample(machine_ids, k)))
            ops.append((family, processing, setup, eligible))
        routings.append(ops)

    width = _id_width(cfg.n_jobs)
    jobs = []
    max_release = _RELEASE_MAX
    for j in range(cfg.n_jobs):
        job_id = f"j{j:0{width}d}"
        routing = routings[rng.randrange(cfg.n_routings)]
        release = rng.randint(_RELEASE_MIN, _RELEASE_MAX)
        lead = round(rng.gauss(_LEAD_MEAN, _LEAD_SD))
        due = release + max(lead, 0)
        max_release = max(max_release, release)
        operations = tuple(
            Operation(
                id=f"{job_id}.{k + 1}",
                job_id=job_id,
                family=family,
                processing=processing,
                setup=setup,
                eligible=frozenset(eligible))
            for k, (family, processing, setup, eligible) in enumerate(routing))
        jobs.append(Job(id=job_id, release=release, due=due,
                        operations=operations))

    # Column multiplicities by usage rank over all job operations.
    usage = {f: 0 for f in family_ids}
    for job in jobs:
        for op in job.operations:
            usage[op.family] += op.processing
    ranked = sorted(family_ids, key=lambda f: (-usage[f], f))
    n_triple = round(0.10 * cfg.n_column_types)
    n_double = round(0.30 * cfg.n_column_types)
    units = {}
    for pos, family in enumerate(ranked):
        units[family] = 3 if pos < n_triple else 2 if pos < n_triple + n_double else 1
    column_types = tuple(ColumnType(f, units[f]) for f in family_ids)

    windows = weekly_windows(
        WORKDAYS, "08:00", "18:00",
        _RELEASE_MIN, max_release + _WINDOW_TAIL_DAYS * MINUTES_PER_DAY)

    return Instance(
        machines=tuple(machine_ids),
        column_types=column_types,
        operator_windows=windows,
        jobs=tuple(jobs),
        horizon_origin=0)


def design_cells(load: int, **extra) -> list[GenConfig]:
    """The 16 factorial cells (routings x setup ratio x flexibility) for one
    load, in a fixed enumeration order."""
    return [
        GenConfig(n_jobs=load, n_routings=r, setup_ratio=s, flex_mean=f, **extra)
        for r in ROUTING_COUNTS
        for s in SETUP_RATIOS
        for f in FLEX_MEANS
    ]


def generate_design(loads=(70, 140), seeds_per_cell: int = 10,
                    master_seed: int = 0, **extra) -> list[tuple[GenConfig, int]]:
    """Full factorial design: per load, 16 cells x `seeds_per_cell`
    replicates.  Each pair is (config with its generation seed, solver
    seed); both seeds derive deterministically from `master_seed`."""
    rng = random.Random(master_seed)
    out = []
    for load in loads:
        for cell in design_cells(load, **extra):
            for _ in range(seeds_per_cell):
                gen_seed = rng.randrange(2**31)
                solver_seed = rng.randrange(2**31)
                out.append((replace(cell, seed=gen_seed), solver_seed))
    return out
