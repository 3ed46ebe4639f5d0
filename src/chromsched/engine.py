"""Array-backed solver core shared by the list scheduler and the annealer.

Machines are indexed in lexicographic id order and operations in
(job id, operation id) order, so integer comparisons reproduce the
documented lexicographic tie-breaks.  Column profiles live in mutable
(times, levels) list pairs with a leading -inf sentinel; see
`availability.reserve_step`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .availability import find_earliest, reserve_step
from .model import Instance, PlacedOperation, Schedule

_NEG_INF = float("-inf")


@dataclass
class CompiledInstance:
    instance: Instance
    machine_ids: tuple[str, ...]
    op_ids: tuple[str, ...]
    family_ids: tuple[str, ...]
    job_ids: tuple[str, ...]
    machine_index: dict[str, int]
    op_index: dict[str, int]
    family_index: dict[str, int]
    # per-operation arrays
    proc: list[int]
    setup: list[int]
    family: list[int]
    release: list[int]
    job: list[int]
    eligible: list[tuple[int, ...]]
    eligible_mask: list[int]
    # per-job / per-family arrays
    job_due: list[int]
    job_ops: list[list[int]]
    units: list[int]
    family_ops: list[list[int]]
    # operator windows as parallel arrays for bisect
    win_starts: list
    win_ends: list
    origin: int = 0

    @property
    def n_ops(self) -> int:
        return len(self.op_ids)

    @property
    def n_machines(self) -> int:
        return len(self.machine_ids)

    def fresh_profiles(self) -> tuple[list[list], list[list[int]]]:
        """Per-family mutable (times, levels) pairs at full capacity."""
        times = [[_NEG_INF] for _ in self.units]
        levels = [[u] for u in self.units]
        return times, levels


def compile_instance(instance: Instance) -> CompiledInstance:
    machine_ids = tuple(sorted(instance.machines))
    machine_index = {m: i for i, m in enumerate(machine_ids)}
    family_ids = tuple(sorted(c.family for c in instance.column_types))
    family_index = {f: i for i, f in enumerate(family_ids)}
    units_by_family = instance.units_by_family

    ops = sorted(
        ((job, op) for job in instance.jobs for op in job.operations),
        key=lambda pair: (pair[0].id, pair[1].id))
    op_ids = tuple(op.id for _, op in ops)
    op_index = {op_id: i for i, op_id in enumerate(op_ids)}

    job_ids = tuple(sorted(j.id for j in instance.jobs))
    job_index = {j: i for i, j in enumerate(job_ids)}
    jobs_by_id = {j.id: j for j in instance.jobs}

    proc, setup, family, release, job = [], [], [], [], []
    eligible, eligible_mask = [], []
    job_ops: list[list[int]] = [[] for _ in job_ids]
    family_ops: list[list[int]] = [[] for _ in family_ids]
    for i, (parent, op) in enumerate(ops):
        proc.append(op.processing)
        setup.append(op.setup)
        f = family_index[op.family]
        family.append(f)
        family_ops[f].append(i)
        release.append(parent.release)
        j = job_index[parent.id]
        job.append(j)
        job_ops[j].append(i)
        machines = tuple(sorted(machine_index[m] for m in op.eligible))
        eligible.append(machines)
        mask = 0
        for m in machines:
            mask |= 1 << m
        eligible_mask.append(mask)

    return CompiledInstance(
        instance=instance,
        machine_ids=machine_ids,
        op_ids=op_ids,
        family_ids=family_ids,
        job_ids=job_ids,
        machine_index=machine_index,
        op_index=op_index,
        family_index=family_index,
        proc=proc,
        setup=setup,
        family=family,
        release=release,
        job=job,
        eligible=eligible,
        eligible_mask=eligible_mask,
        job_due=[jobs_by_id[j].due for j in job_ids],
        job_ops=job_ops,
        units=[units_by_family[f] for f in family_ids],
        family_ops=family_ops,
        win_starts=[w[0] for w in instance.operator_windows],
        win_ends=[w[1] for w in instance.operator_windows],
        origin=instance.horizon_origin,
    )


def place_sequences(ci: CompiledInstance, seqs: list[list[int]]):
    """Forward-place fixed per-machine sequences at their earliest starts.

    Machines take turns by smallest clock (ties by machine index); each
    front operation is placed at its earliest feasible start and its column
    occupation booked before the next turn.  Returns (total tardiness,
    starts, completions, setup flags); raises NoSlotError when a placement
    cannot fit within `find_earliest`'s search horizon.
    """
    n_ops = ci.n_ops
    starts = [0] * n_ops
    comps = [0] * n_ops
    setups = [False] * n_ops
    job_comp = [None] * len(ci.job_ids)

    prof_times, prof_levels = ci.fresh_profiles()
    win_starts, win_ends = ci.win_starts, ci.win_ends
    proc, setup, family, release = ci.proc, ci.setup, ci.family, ci.release
    job = ci.job

    n_machines = len(seqs)
    clocks = [ci.origin] * n_machines
    last_family = [-1] * n_machines
    pos = [0] * n_machines
    active = [m for m in range(n_machines) if seqs[m]]

    while active:
        best_m = active[0]
        best_clock = clocks[best_m]
        for m in active[1:]:
            c = clocks[m]
            if c < best_clock:
                best_clock, best_m = c, m
        m = best_m
        seq = seqs[m]
        o = seq[pos[m]]
        f = family[o]
        rel = release[o]
        t_min = best_clock if best_clock > rel else rel
        needs_setup = f != last_family[m]
        duration = proc[o] + setup[o] if needs_setup else proc[o]
        times, levels = prof_times[f], prof_levels[f]
        if needs_setup:
            t = find_earliest(win_starts, win_ends, times, levels,
                              t_min, duration)
        else:
            t = find_earliest(None, None, times, levels, t_min, duration)
        c = t + duration
        reserve_step(times, levels, t, c)
        starts[o] = t
        comps[o] = c
        setups[o] = needs_setup
        j = job[o]
        if job_comp[j] is None or c > job_comp[j]:
            job_comp[j] = c
        clocks[m] = c
        last_family[m] = f
        pos[m] += 1
        if pos[m] == len(seq):
            active.remove(m)

    tardiness = 0
    job_due = ci.job_due
    for j, completed in enumerate(job_comp):
        if completed is not None:
            late = completed - job_due[j]
            if late > 0:
                tardiness += late
    return tardiness, starts, comps, setups


def sequences_from_schedule(ci: CompiledInstance, schedule: Schedule) -> list[list[int]]:
    """Per-machine operation sequences (by index) in start order."""
    seqs: list[list[tuple[int, int]]] = [[] for _ in ci.machine_ids]
    for placed in schedule.placements:
        m = ci.machine_index[placed.machine]
        seqs[m].append((placed.start, ci.op_index[placed.operation_id]))
    out = []
    for entries in seqs:
        entries.sort()
        out.append([o for _, o in entries])
    return out


def schedule_from_arrays(ci: CompiledInstance, seqs: list[list[int]],
                         starts: list[int], comps: list[int],
                         setups: list[bool]) -> Schedule:
    placements = []
    for m, seq in enumerate(seqs):
        machine = ci.machine_ids[m]
        for o in seq:
            placements.append(PlacedOperation(
                operation_id=ci.op_ids[o],
                machine=machine,
                setup_performed=setups[o],
                start=starts[o],
                completion=comps[o]))
    placements.sort(key=lambda p: (p.start, p.machine, p.operation_id))
    return Schedule(tuple(placements))
