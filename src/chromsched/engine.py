"""Array-backed solver core shared by the list scheduler and the annealer.

Machines are indexed in lexicographic id order and operations in
(job id, operation id) order, so integer comparisons reproduce the
documented lexicographic tie-breaks.  Column profiles live in mutable
(times, levels) list pairs with a leading -inf sentinel; see
`availability.reserve_step`.  The decoder's checkpoints keep them as tuples.

A decode resumed from an earlier one (`place_sequences` with `base`) does
not search a placement it can prove repeats `base`.  A placement's start
is `find_earliest` over its family's column profile, its t_min, its
duration and, when it needs a setup, the fixed operator windows; nothing
else.  A family is *clean* while every placement of it since the
restored checkpoint has been `base`'s placement (same start and
completion) of the family's next operation in `base`'s turn order.  A
profile is the checkpoint's profile plus its bookings in order, so a
clean family's profile is `base`'s after its last placed operation.  The
next operation of a clean family in `base`'s order, met with `base`'s
t_min and setup flag, has `base`'s duration too, so the search returns
`base`'s start, and booking it keeps the family clean.  Such a family's
profile is therefore only built when a search or a checkpoint needs it.
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
    machines, each operation's same-family predecessor in turn order (-1
    for none) and earliest allowed start t_min, the operations the decode
    searched (in turn order), and the checkpoints a later decode can resume
    from.  Nothing in it is mutated after the decode."""

    seqs: list[list[int]]
    tardiness: int
    starts: list[int]
    comps: list[int]
    setups: list[bool]
    machine_of: list[int]
    family_pred: list[int]
    t_mins: list[int]
    searched: list[int]
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
    positions, job completions and each family's last placed operation, all
    as tuples.  With `base`, an earlier decode of the same instance whose
    unchanged machines are the same list objects in `seqs`, the decode
    restores the last checkpoint of `base` at which no changed machine has
    passed its first differing position, and replays only from there; the
    result is the one a full decode gives.  `base` is only read, so it
    stays usable after a NoSlotError.

    The replay searches only what the change can move (the module
    docstring has the rule and its proof).  An operation of a clean family
    whose `base` same-family predecessor is the family's last placed
    operation, and whose t_min and setup flag equal `base`'s, takes
    `base`'s start and completion with no search or booking.  A clean
    family's profile is brought up to date, by booking `base`'s placements
    since it was last made, only at the family's first placement that does
    not match, and at a checkpoint unless a `base` checkpoint at the same
    index or next to it has the same last operation for the family, whose
    profile it then shares.  `searched` lists the operations the decode
    searched; every other one has `base`'s start and completion.
    """
    n_families = len(ci.units)
    if base is None:
        n_ops = ci.n_ops
        n_machines = len(seqs)
        starts = [0] * n_ops
        comps = [0] * n_ops
        setups = [False] * n_ops
        machine_of = [0] * n_ops
        family_pred = [-1] * n_ops
        t_mins = [0] * n_ops
        times, levels = ci.fresh_profiles()
        # job completions start at -inf, the identity of max: every job has
        # an operation, so each is a real completion by the end
        checkpoints = [(
            tuple(map(tuple, times)), tuple(map(tuple, levels)),
            (ci.origin,) * n_machines, (-1,) * n_machines, (0,) * n_machines,
            (_NEG_INF,) * len(ci.job_ids), (-1,) * n_families)]
        turn = 0
        base_starts = base_comps = base_setups = None
        base_pred = base_t_mins = None
        base_checkpoints = ()
        clean = [False] * n_families
    else:
        kept = _last_shared_checkpoint(base, seqs)
        base_starts, base_comps = base.starts, base.comps
        base_setups, base_pred, base_t_mins = (base.setups, base.family_pred,
                                               base.t_mins)
        starts = base_starts[:]
        comps = base_comps[:]
        setups = base_setups[:]
        machine_of = base.machine_of[:]
        family_pred = base_pred[:]
        t_mins = base_t_mins[:]
        base_checkpoints = base.checkpoints
        checkpoints = base_checkpoints[:kept + 1]
        turn = kept * _CHECKPOINT_TURNS
        clean = [True] * n_families

    (cp_times, cp_levels, clocks, last_family, pos, job_comp,
     last) = checkpoints[-1]
    # Profiles are shared with the checkpoint until first booked.
    prof_times, prof_levels = list(cp_times), list(cp_levels)
    owned = [False] * n_families
    # A clean family's profile is `base`'s after operation upto[f].
    upto = list(last)
    placed = owned[:]  # families placed since the last checkpoint
    since_checkpoint = []  # the same families, in placement order
    searched = []
    clocks, last_family, last = list(clocks), list(last_family), list(last)
    pos, job_comp = list(pos), list(job_comp)
    heap = [(clocks[m], m) for m, seq in enumerate(seqs) if pos[m] < len(seq)]
    heapify(heap)
    next_checkpoint = turn + _CHECKPOINT_TURNS

    win_starts, win_ends = ci.win_starts, ci.win_ends
    proc, setup, family, release = ci.proc, ci.setup, ci.family, ci.release
    job = ci.job

    def catch_up(f):
        """Book on clean family f's profile `base`'s placements of f after
        upto[f] up to its last placed operation."""
        chain = []
        o = last[f]
        while o != upto[f]:
            chain.append(o)
            o = base_pred[o]
        upto[f] = last[f]
        times, levels = prof_times[f], prof_levels[f]
        if not owned[f]:
            owned[f] = True
            times = prof_times[f] = list(times)
            levels = prof_levels[f] = list(levels)
        for o in reversed(chain):
            reserve_step(times, levels, base_starts[o], base_comps[o])

    while heap:
        clock, m = heap[0]
        seq = seqs[m]
        p = pos[m]
        o = seq[p]
        f = family[o]
        rel = release[o]
        t_min = clock if clock > rel else rel
        needs_setup = f != last_family[m]
        prev = last[f]
        if (clean[f] and base_pred[o] == prev and base_t_mins[o] == t_min
                and base_setups[o] == needs_setup):
            # starts, comps, setups, family_pred and t_mins already hold
            # base's values, which this placement repeats
            c = base_comps[o]
        else:
            if clean[f] and upto[f] != prev:
                catch_up(f)
            times, levels = prof_times[f], prof_levels[f]
            if not owned[f]:
                owned[f] = True
                times = prof_times[f] = list(times)
                levels = prof_levels[f] = list(levels)
            duration = proc[o] + setup[o] if needs_setup else proc[o]
            if needs_setup:
                t = find_earliest(win_starts, win_ends, times, levels,
                                  t_min, duration)[0]
            else:
                t = find_earliest(None, None, times, levels, t_min,
                                  duration)[0]
            c = t + duration
            reserve_step(times, levels, t, c)
            searched.append(o)
            starts[o] = t
            comps[o] = c
            setups[o] = needs_setup
            family_pred[o] = prev
            t_mins[o] = t_min
            if clean[f]:
                if (base_pred[o] == prev and t == base_starts[o]
                        and c == base_comps[o]):
                    upto[f] = o
                else:
                    clean[f] = False
        if not placed[f]:
            placed[f] = True
            since_checkpoint.append(f)
        machine_of[o] = m
        last[f] = o
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
            k = len(checkpoints)
            nearby = base_checkpoints[k - 1:k + 2]
            cp_times, cp_levels = list(cp_times), list(cp_levels)
            for g in since_checkpoint:
                placed[g] = False
                if clean[g]:
                    o = last[g]
                    # field 6 of a checkpoint is each family's last operation
                    for shared in nearby:
                        if shared[6][g] == o:
                            prof_times[g] = cp_times[g] = shared[0][g]
                            prof_levels[g] = cp_levels[g] = shared[1][g]
                            owned[g] = False
                            upto[g] = o
                            break
                    else:
                        if upto[g] != o:
                            catch_up(g)
                        cp_times[g] = tuple(prof_times[g])
                        cp_levels[g] = tuple(prof_levels[g])
                    continue
                cp_times[g] = tuple(prof_times[g])
                cp_levels[g] = tuple(prof_levels[g])
            since_checkpoint.clear()
            cp_times, cp_levels = tuple(cp_times), tuple(cp_levels)
            checkpoints.append((cp_times, cp_levels, tuple(clocks),
                                tuple(last_family), tuple(pos),
                                tuple(job_comp), tuple(last)))

    tardiness = 0
    job_due = ci.job_due
    for j, completed in enumerate(job_comp):
        late = completed - job_due[j]
        if late > 0:
            tardiness += late
    return _Decode(seqs, tardiness, starts, comps, setups, machine_of,
                   family_pred, t_mins, searched, checkpoints)


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
