"""Array-backed solver core shared by the list scheduler and the annealer.

Machines are indexed in lexicographic id order and operations in
(job id, operation id) order, so integer comparisons reproduce the
documented lexicographic tie-breaks.  Column profiles live in mutable
(times, levels) list pairs with a leading -inf sentinel; see
`availability.reserve_step`.  The decoder's checkpoints keep them as tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace
from typing import NamedTuple

from .availability import find_earliest, reserve_step
from .model import Instance, PlacedOperation, Schedule

_NEG_INF = float("-inf")


@dataclass
class CompiledInstance:
    machine_ids: tuple[str, ...]
    op_ids: tuple[str, ...]
    family_ids: tuple[str, ...]
    job_ids: tuple[str, ...]
    machine_index: dict[str, int]
    op_index: dict[str, int]
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
    # machine tuple of each eligibility mask met so far, filled on use
    _mask_machines: dict[int, tuple[int, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

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
        machine_ids=machine_ids,
        op_ids=op_ids,
        family_ids=family_ids,
        job_ids=job_ids,
        machine_index=machine_index,
        op_index=op_index,
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


#: Turns between two checkpoints of a decode; see `place_sequences`.
_CHECKPOINT_TURNS = 16


class _Decode(NamedTuple):
    """What `place_sequences` returns: the decoded sequences, their total
    tardiness and per-operation starts, completions, setup flags and
    machines, and the checkpoints a later decode can resume from.  Nothing
    in it is mutated after the decode."""

    seqs: list[list[int]]
    tardiness: int
    starts: list[int]
    comps: list[int]
    setups: list[bool]
    machine_of: list[int]
    checkpoints: list[tuple]


def _last_shared_checkpoint(base: _Decode, seqs) -> int:
    """Index of the last checkpoint of `base` that decoding `seqs` also
    passes through.

    A changed machine agrees with its old sequence up to its first
    differing position d, so every turn picks the same machine and
    operation as in `base` while no changed machine has placed past d.  A
    machine whose new sequence is shorter only drops out of the turn order
    earlier; one that gains operations past its old end could compete
    again once its old last operation is placed, so its limit is d - 1.
    Checkpoint 0, taken before the first turn, is always shared.
    """
    checkpoints = base.checkpoints
    kept = len(checkpoints) - 1
    for m, (old, new) in enumerate(zip(base.seqs, seqs)):
        if new is old:
            continue
        common = min(len(old), len(new))
        d = 0
        while d < common and old[d] == new[d]:
            d += 1
        if d == len(old):
            if d == len(new):
                continue
            d -= 1
        # field 4 of a checkpoint is the machines' sequence positions
        while kept and checkpoints[kept][4][m] > d:
            kept -= 1
    return kept


def place_sequences(ci: CompiledInstance, seqs: list[list[int]],
                    base: _Decode | None = None) -> _Decode:
    """Forward-place fixed per-machine sequences at their earliest starts.

    Machines take turns by smallest clock (ties by machine index); each
    front operation is placed at its earliest feasible start and its column
    occupation booked before the next turn.  Returns a `_Decode`; raises
    NoSlotError when an operation that needs a setup has no operator window
    left.  `seqs` must not be changed afterwards.

    Every `_CHECKPOINT_TURNS` turns the decode records a checkpoint: the
    per-family column profiles, machine clocks, last families, sequence
    positions and job completions, all as tuples.  With `base`, an earlier
    decode of the same instance whose unchanged machines are the same list
    objects in `seqs`, the decode restores the last checkpoint of `base` at
    which no changed machine has passed its first differing position, and
    replays only from there; the result is the one a full decode gives.
    `base` is only read, so it stays usable after a NoSlotError.
    """
    if base is None:
        n_ops = ci.n_ops
        n_machines = len(seqs)
        starts = [0] * n_ops
        comps = [0] * n_ops
        setups = [False] * n_ops
        machine_of = [0] * n_ops
        times, levels = ci.fresh_profiles()
        # job completions start at -inf: a job without operations is never late
        checkpoints = [(
            tuple(map(tuple, times)), tuple(map(tuple, levels)),
            (ci.origin,) * n_machines, (-1,) * n_machines, (0,) * n_machines,
            (_NEG_INF,) * len(ci.job_ids))]
        turn = 0
    else:
        kept = _last_shared_checkpoint(base, seqs)
        starts = base.starts[:]
        comps = base.comps[:]
        setups = base.setups[:]
        machine_of = base.machine_of[:]
        checkpoints = base.checkpoints[:kept + 1]
        turn = kept * _CHECKPOINT_TURNS

    cp_times, cp_levels, clocks, last_family, pos, job_comp = checkpoints[-1]
    # Profiles are shared with the checkpoint until first booked.
    prof_times, prof_levels = list(cp_times), list(cp_levels)
    owned = [False] * len(prof_times)
    booked = owned[:]  # families booked since the last checkpoint
    since_checkpoint = []  # the same families, in booking order
    clocks, last_family = list(clocks), list(last_family)
    pos, job_comp = list(pos), list(job_comp)
    heap = [(clocks[m], m) for m, seq in enumerate(seqs) if pos[m] < len(seq)]
    heapify(heap)
    next_checkpoint = turn + _CHECKPOINT_TURNS

    win_starts, win_ends = ci.win_starts, ci.win_ends
    proc, setup, family, release = ci.proc, ci.setup, ci.family, ci.release
    job = ci.job

    while heap:
        clock, m = heap[0]
        seq = seqs[m]
        p = pos[m]
        o = seq[p]
        f = family[o]
        rel = release[o]
        t_min = clock if clock > rel else rel
        needs_setup = f != last_family[m]
        duration = proc[o] + setup[o] if needs_setup else proc[o]
        times, levels = prof_times[f], prof_levels[f]
        if needs_setup:
            t = find_earliest(win_starts, win_ends, times, levels,
                              t_min, duration)[0]
        else:
            t = find_earliest(None, None, times, levels, t_min, duration)[0]
        c = t + duration
        if not booked[f]:
            booked[f] = True
            since_checkpoint.append(f)
            if not owned[f]:
                owned[f] = True
                times = prof_times[f] = list(times)
                levels = prof_levels[f] = list(levels)
        reserve_step(times, levels, t, c)
        starts[o] = t
        comps[o] = c
        setups[o] = needs_setup
        machine_of[o] = m
        j = job[o]
        if c > job_comp[j]:
            job_comp[j] = c
        clocks[m] = c
        last_family[m] = f
        pos[m] = p + 1
        if p + 1 < len(seq):
            heapreplace(heap, (c, m))
        else:
            heappop(heap)
        turn += 1
        if turn == next_checkpoint and heap:
            next_checkpoint += _CHECKPOINT_TURNS
            cp_times, cp_levels = list(cp_times), list(cp_levels)
            for g in since_checkpoint:
                cp_times[g] = tuple(prof_times[g])
                cp_levels[g] = tuple(prof_levels[g])
                booked[g] = False
            since_checkpoint.clear()
            cp_times, cp_levels = tuple(cp_times), tuple(cp_levels)
            checkpoints.append((cp_times, cp_levels, tuple(clocks),
                                tuple(last_family), tuple(pos),
                                tuple(job_comp)))

    tardiness = 0
    job_due = ci.job_due
    for j, completed in enumerate(job_comp):
        late = completed - job_due[j]
        if late > 0:
            tardiness += late
    return _Decode(seqs, tardiness, starts, comps, setups, machine_of,
                   checkpoints)


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
