"""Domain model: instances, schedules, the tardiness objective and
full feasibility checking.

All model types are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .availability import TimeWindowSet
from .errors import IncompleteScheduleError


@dataclass(frozen=True)
class Operation:
    """One analysis to run on a single machine of its eligible set."""

    id: str
    job_id: str
    family: str
    processing: int
    setup: int
    eligible: frozenset[str]

    def __post_init__(self):
        if self.processing <= 0:
            raise ValueError(f"operation {self.id}: processing must be > 0")
        if self.setup < 0:
            raise ValueError(f"operation {self.id}: setup must be >= 0")
        if not self.eligible:
            raise ValueError(f"operation {self.id}: eligible set is empty")
        object.__setattr__(self, "eligible", frozenset(self.eligible))


@dataclass(frozen=True)
class Job:
    id: str
    release: int
    due: int
    operations: tuple[Operation, ...]

    def __post_init__(self):
        if self.due < self.release:
            raise ValueError(f"job {self.id}: due before release")
        if not self.operations:
            raise ValueError(f"job {self.id}: no operations")
        object.__setattr__(self, "operations", tuple(self.operations))


@dataclass(frozen=True)
class ColumnType:
    family: str
    units: int

    def __post_init__(self):
        if self.units < 1:
            raise ValueError(f"column type {self.family}: units must be >= 1")


@dataclass(frozen=True)
class Instance:
    """A full scheduling problem: machines, columns, windows and jobs."""

    machines: tuple[str, ...]
    column_types: tuple[ColumnType, ...]
    operator_windows: TimeWindowSet
    jobs: tuple[Job, ...]
    horizon_origin: int = 0

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "column_types", tuple(self.column_types))
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if len(set(self.machines)) != len(self.machines):
            raise ValueError("duplicate machine ids")
        families = {c.family for c in self.column_types}
        if len(families) != len(self.column_types):
            raise ValueError("duplicate column type families")
        machine_set = set(self.machines)
        seen_jobs = set()
        seen_ops = set()
        for job in self.jobs:
            if job.id in seen_jobs:
                raise ValueError(f"duplicate job id {job.id}")
            seen_jobs.add(job.id)
            for op in job.operations:
                if op.id in seen_ops:
                    raise ValueError(f"duplicate operation id {op.id}")
                seen_ops.add(op.id)
                if op.job_id != job.id:
                    raise ValueError(f"operation {op.id}: job_id != {job.id}")
                if op.family not in families:
                    raise ValueError(
                        f"operation {op.id}: family {op.family} has no column type")
                if not op.eligible <= machine_set:
                    raise ValueError(
                        f"operation {op.id}: eligible machines not in instance")

    @cached_property
    def units_by_family(self) -> dict[str, int]:
        return {c.family: c.units for c in self.column_types}

    @cached_property
    def operations_by_id(self) -> dict[str, Operation]:
        return {op.id: op for job in self.jobs for op in job.operations}

    @cached_property
    def job_of_operation(self) -> dict[str, Job]:
        return {op.id: job for job in self.jobs for op in job.operations}

    @property
    def n_operations(self) -> int:
        return sum(len(j.operations) for j in self.jobs)


@dataclass(frozen=True, slots=True)
class PlacedOperation:
    """One operation fixed on a machine.

    `start` is the setup start when `setup_performed`, else the processing
    start; `completion` covers setup plus processing in the former case.
    Slotted: a schedule holds one per operation.
    """

    operation_id: str
    machine: str
    setup_performed: bool
    start: int
    completion: int


@dataclass(frozen=True)
class Schedule:
    placements: tuple[PlacedOperation, ...]

    def __post_init__(self):
        object.__setattr__(self, "placements", tuple(self.placements))

    @property
    def by_operation(self) -> dict[str, PlacedOperation]:
        """A new dict per call; the schedule keeps only its placements."""
        return {p.operation_id: p for p in self.placements}


@dataclass(frozen=True)
class Violation:
    """One broken feasibility constraint, naming the placements at fault."""

    constraint: str
    placements: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        ops = ", ".join(self.placements)
        return f"[{self.constraint}] {ops}: {self.detail}"


def _job_completion(by_op: dict[str, PlacedOperation], job: Job) -> int:
    """Completion of a job = max completion over its placed operations."""
    latest = None
    for op in job.operations:
        placed = by_op.get(op.id)
        if placed is None:
            raise IncompleteScheduleError(
                f"operation {op.id} of job {job.id} is not placed")
        if latest is None or placed.completion > latest:
            latest = placed.completion
    return latest


def _tardy_amounts(schedule: Schedule, instance: Instance) -> list[int]:
    """completion - due of every job that completes after its due date."""
    amounts = []
    by_op = schedule.by_operation
    for job in instance.jobs:
        lateness = _job_completion(by_op, job) - job.due
        if lateness > 0:
            amounts.append(lateness)
    return amounts


def total_tardiness(schedule: Schedule, instance: Instance) -> int:
    """Sum over jobs of max(completion - due, 0); always >= 0."""
    return sum(_tardy_amounts(schedule, instance))


def schedule_metrics(instance: Instance, schedule: Schedule) -> dict[str, int]:
    """Summary counters: tardiness, late jobs, setups, makespan."""
    tardy = _tardy_amounts(schedule, instance)
    return {
        "tardiness": sum(tardy),
        "late_jobs": len(tardy),
        "setups": sum(1 for p in schedule.placements if p.setup_performed),
        "makespan": max((p.completion for p in schedule.placements),
                        default=instance.horizon_origin),
    }


def validate_schedule(instance: Instance, schedule: Schedule) -> list[Violation]:
    """Check every feasibility constraint; an empty list means feasible.

    Checked: each operation placed exactly once on an eligible machine with
    consistent start/completion arithmetic; starts at or after the job
    release; per-machine intervals disjoint; setup flags follow the
    family sequence (first placement on a machine always sets up); setup
    starts inside operator windows; per-family concurrent placements never
    exceed the column unit count.
    """
    violations: list[Violation] = []
    ops = instance.operations_by_id
    job_of = instance.job_of_operation

    seen: dict[str, PlacedOperation] = {}
    for placed in schedule.placements:
        op_id = placed.operation_id
        if op_id not in ops:
            violations.append(Violation(
                "unknown-operation", (op_id,),
                "placement references an operation not in the instance"))
            continue
        if op_id in seen:
            violations.append(Violation(
                "duplicate-placement", (op_id,), "operation placed twice"))
            continue
        seen[op_id] = placed

    for op_id in ops:
        if op_id not in seen:
            violations.append(Violation(
                "unplaced-operation", (op_id,), "operation never placed"))

    for op_id, placed in seen.items():
        op = ops[op_id]
        if placed.machine not in op.eligible:
            violations.append(Violation(
                "ineligible-machine", (op_id,),
                f"machine {placed.machine} not in eligible set"))
        expected = placed.start + op.processing
        if placed.setup_performed:
            expected += op.setup
        if placed.completion != expected:
            violations.append(Violation(
                "duration-mismatch", (op_id,),
                f"completion {placed.completion} != expected {expected}"))
        release = job_of[op_id].release
        if placed.start < release:
            violations.append(Violation(
                "starts-before-release", (op_id,),
                f"start {placed.start} before release {release}"))
        if placed.setup_performed and not instance.operator_windows.contains(placed.start):
            violations.append(Violation(
                "setup-outside-window", (op_id,),
                f"setup start {placed.start} outside operator windows"))

    per_machine: dict[str, list[PlacedOperation]] = {}
    for placed in seen.values():
        per_machine.setdefault(placed.machine, []).append(placed)
    for machine, placements in sorted(per_machine.items()):
        placements.sort(key=lambda p: (p.start, p.completion, p.operation_id))
        for prev, cur in zip(placements, placements[1:]):
            if cur.start < prev.completion:
                violations.append(Violation(
                    "machine-overlap", (prev.operation_id, cur.operation_id),
                    f"[{prev.start},{prev.completion}) overlaps "
                    f"[{cur.start},{cur.completion}) on {machine}"))
        last_family = None
        for placed in placements:
            family = ops[placed.operation_id].family
            needs_setup = family != last_family
            if placed.setup_performed != needs_setup:
                violations.append(Violation(
                    "setup-flag", (placed.operation_id,),
                    f"setup_performed={placed.setup_performed} but previous "
                    f"family on {machine} is {last_family}"))
            last_family = family

    # Column capacity: sweep concurrent same-family placements.
    by_family: dict[str, list[PlacedOperation]] = {}
    for op_id, placed in seen.items():
        by_family.setdefault(ops[op_id].family, []).append(placed)
    for family, placements in sorted(by_family.items()):
        units = instance.units_by_family[family]
        events = []
        for placed in placements:
            events.append((placed.start, 1, placed))
            events.append((placed.completion, -1, placed))
        events.sort(key=lambda e: (e[0], e[1]))
        active: set[str] = set()
        reported = False
        for t, delta, placed in events:
            if delta > 0:
                active.add(placed.operation_id)
                if len(active) > units and not reported:
                    violations.append(Violation(
                        "column-capacity", tuple(sorted(active)),
                        f"{len(active)} concurrent {family} placements at "
                        f"minute {t}, only {units} unit(s)"))
                    reported = True
            else:
                active.discard(placed.operation_id)
    return violations
