"""Array-backed solver core shared by the list scheduler and the annealer.

Machines are indexed in lexicographic id order and operations in
(job id, operation id) order, so integer comparisons reproduce the
documented lexicographic tie-breaks.  Column profiles live in mutable
(times, levels) list pairs with a leading -inf sentinel; see
`availability.reserve_step`.

A decode resumed from an earlier one (`place_sequences` with `base` and
the first list position that changed) starts at that position; every
placement before it repeats `base`.  From there it does not search a
placement it can prove repeats `base`.  A placement's start is
`find_earliest` over its family's column profile, its t_min, its duration
and, when it needs a setup, the fixed operator windows; nothing else.  A
family is *clean* while every placement of it since the first changed
position has been `base`'s placement (same start and completion) of the
family's next operation in `base`'s list order.  A profile is its
family's bookings, so a clean family's profile is `base`'s after its last
placed operation.  The next operation of a clean family in `base`'s order,
met with `base`'s t_min and setup flag, has `base`'s duration too, so the
search returns `base`'s start, and booking it keeps the family clean.
Such a family's profile is therefore only built when a search needs it.

It is built from the bookings that end after the floor, the smallest
machine clock at the first changed position; the others are never read.
A machine's clock only rises as its operations are placed, so every
later t_min is at least the floor.  A search reads its profile only from
its t_min on, so a booking [s, c) with c at or before the floor changes
no level that a search reads.  Clocks do not rise from one list position
to the next (the next operation may be on a machine that is further
behind), so the floor is fixed at the first changed position.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
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


class _Decode(NamedTuple):
    """What `place_sequences` returns: per-machine sequences in list order,
    the total tardiness and per-operation starts, completions, setup flags
    and machines, each operation's same-family predecessor in list order
    (-1 for none) and earliest allowed start t_min, the list and each
    operation's position in it, each family's last placed operation (-1 for
    none), and the operations the decode searched (in list order).  Nothing
    in it is mutated after the decode."""

    seqs: list[list[int]]
    tardiness: int
    starts: list[int]
    comps: list[int]
    setups: list[bool]
    machine_of: list[int]
    family_pred: list[int]
    t_mins: list[int]
    order: list[int]
    pos_of: list[int]
    last: list[int]
    searched: list[int]


def place_sequences(ci: CompiledInstance, order: list[int],
                    machine_of: list[int], base: _Decode | None = None,
                    first: int = 0) -> _Decode:
    """Serial schedule generation: place the operations one by one in
    `order`, operation o on machine `machine_of[o]` at its earliest feasible
    start at or after its release and its machine's clock, and book its
    column occupation before the next.  Returns a `_Decode`; raises
    NoSlotError when an operation that needs a setup has no operator window
    left.  `order` and `machine_of` must not be changed afterwards.

    With `base`, an earlier decode of the same instance, `first` is a list
    position at or before the first at which (`order`, `machine_of`)
    differs from `base`'s.  Every placement before it repeats `base`, so
    the decode restores the state at `first` from `base`'s arrays with no
    replay: each machine's sequence is its operations of position below
    `first`, its clock and last family are its previous operation's, and
    each family's last operation walks `base.family_pred` back from
    `base.last` to the first of position below `first`.  Job completions
    are read off the completions at the end.  The result is the one a full
    decode gives.  `base` is only read, so it stays usable after a
    NoSlotError.

    From `first` on, the decode searches only what the change can move (the
    module docstring has the rule and its proof).  An operation of a clean
    family whose `base` same-family predecessor is the family's last placed
    operation, and whose t_min and setup flag equal `base`'s, takes
    `base`'s start and completion with no search or booking.  Every family
    starts from an empty profile; a clean family's profile is brought up
    to date only at its first placement that does not match, by booking
    `base`'s placements of it since it was last brought up to date that end
    after the smallest machine clock at `first`.  `searched` lists the
    operations the decode searched; every other one has `base`'s start and
    completion.  A `base` with inconsistent family chains raises
    AssertionError: no walk along them takes over `n_ops` steps or steps
    past -1.
    """
    n_ops = ci.n_ops
    n_families = len(ci.units)
    family = ci.family
    clocks = [ci.origin] * ci.n_machines
    last_family = [-1] * ci.n_machines
    if base is None:
        seqs = [[] for _ in clocks]
        starts = [0] * n_ops
        comps = [0] * n_ops
        setups = [False] * n_ops
        family_pred = [-1] * n_ops
        t_mins = [0] * n_ops
        pos_of = [0] * n_ops
        last = [-1] * n_families
        first = 0
        base_starts = base_comps = base_setups = None
        base_pred = base_t_mins = None
        clean = [False] * n_families
    else:
        pos_key = base.pos_of.__getitem__
        base_starts, base_comps = base.starts, base.comps
        base_setups, base_pred, base_t_mins = (base.setups, base.family_pred,
                                               base.t_mins)
        starts = base_starts[:]
        comps = base_comps[:]
        setups = base_setups[:]
        family_pred = base_pred[:]
        t_mins = base_t_mins[:]
        pos_of = base.pos_of[:]
        seqs = []
        for m, seq in enumerate(base.seqs):
            p = bisect_left(seq, first, key=pos_key)
            seqs.append(seq[:p])
            if p:
                o = seq[p - 1]
                clocks[m] = base_comps[o]
                last_family[m] = family[o]
        floor = min(clocks)
        last = []
        for o in base.last:
            p = n_ops  # positions fall along a chain: at most n_ops steps
            while o >= 0:
                q = pos_key(o)
                if q < first:
                    break
                if q >= p:
                    raise AssertionError(
                        f"base's family chain is out of list order at {o}")
                p = q
                o = base_pred[o]
            last.append(o)
        clean = [True] * n_families

    prof_times, prof_levels = ci.fresh_profiles()
    # A clean family's profile is `base`'s after operation upto[f] at every
    # minute from `floor` on.
    upto = [-1] * n_families
    searched = []

    win_starts, win_ends = ci.win_starts, ci.win_ends
    proc, setup, release = ci.proc, ci.setup, ci.release

    def catch_up(f):
        """Book on clean family f's profile `base`'s placements of f after
        upto[f] up to its last placed operation that end after `floor`."""
        chain = []
        o, stop = last[f], upto[f]
        for _ in range(n_ops):
            if o == stop or o < 0:
                break
            if base_comps[o] > floor:
                chain.append(o)
            o = base_pred[o]
        if o != stop:
            raise AssertionError(
                f"base's family chain from {last[f]} misses {stop}")
        upto[f] = last[f]
        times, levels = prof_times[f], prof_levels[f]
        for o in reversed(chain):
            reserve_step(times, levels, base_starts[o], base_comps[o])

    for i in range(first, len(order)):
        o = order[i]
        m = machine_of[o]
        f = family[o]
        clock = clocks[m]
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
        seqs[m].append(o)
        pos_of[o] = i
        last[f] = o
        last_family[m] = f
        clocks[m] = c

    # every job has an operation, so each is a real completion
    job_comp = [_NEG_INF] * len(ci.job_ids)
    for j, c in zip(ci.job, comps):
        if c > job_comp[j]:
            job_comp[j] = c
    tardiness = 0
    for completed, due in zip(job_comp, ci.job_due):
        if completed > due:
            tardiness += completed - due
    return _Decode(seqs, tardiness, starts, comps, setups, machine_of,
                   family_pred, t_mins, order, pos_of, last, searched)


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
