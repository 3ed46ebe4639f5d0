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

The state at the first changed position is restored lazily.  A family's
last placed operation there is its last operation of position below
`first` in `base`'s list, since both lists agree up to `first`.  It is
needed only when the decode first meets the family, at an operation o of
position `first` or later.  The same operations fill those positions in
both lists, so `base` lists o at or after `first` too, and every
operation of the family that `base` lists before `first` comes before o
in `base`'s order.  The walk back along `base.family_pred` from o
therefore meets them, the last one first, after the family's operations
that `base` lists between `first` and o; positions fall strictly along
the chain, so the walk takes at most `n_ops` steps.  A family the decode
never meets has no operation at or after `first` in either list, so its
last operation is `base.last`'s.

The tardiness is read off the change.  A job's tardiness depends only on
its operations' completions, and an operation's completion differs from
`base`'s only if the decode searched it: every other placement repeats
`base`'s.  The decode lists each searched operation whose completion
differs (`changed`), so every other job keeps `base`'s completions and
its tardiness in `base.job_tardiness`.  Each job of a changed operation
gets its tardiness from its completions, and the total is `base`'s plus
its new tardiness minus its old.  Integer sums make this exact.  A decode
with no `base` takes every `base` completion as -inf: every operation is
then changed, every old tardiness is 0, and the total starts from 0.
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
    none), the operations whose completion differs from `base`'s, in list
    order (every operation when there is no `base`), and each job's
    tardiness, which sums to the total.  Nothing in it is mutated after the
    decode."""

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
    changed: list[int]
    job_tardiness: list[int]


#: A family's entry in `last` until a resumed decode first meets it.
_UNMET = -2


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
    `first`, and its clock and last family are its previous operation's.
    Each family's last operation before `first` is restored when the
    decode first meets the family, by walking `base.family_pred` back from
    the operation it meets; a family it never meets keeps `base.last`'s.
    Only the jobs of the operations whose completion changed get their
    tardiness worked out; the others keep `base.job_tardiness`'s, and the
    total is `base`'s plus the change (module docstring).  The result is
    the one a full decode gives.  `base` is only read, so it stays usable
    after a NoSlotError.

    From `first` on, the decode searches only what the change can move (the
    module docstring has the rule and its proof).  An operation of a clean
    family whose `base` same-family predecessor is the family's last placed
    operation, and whose t_min and setup flag equal `base`'s, takes
    `base`'s start and completion with no search or booking.  Every family
    starts from an empty profile; a clean family's profile is brought up
    to date only at its first placement that does not match, by booking
    `base`'s placements of it since it was last brought up to date that end
    after the smallest machine clock at `first`.  A search books its own
    placement (`find_earliest` with `book`), so `reserve_step` books only
    these catch-ups.  A `base` with inconsistent family chains raises
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
        # every completion differs from -inf, so every operation is changed
        # and its job's tardiness counts from a base total of 0
        base_comps = [_NEG_INF] * n_ops
        base_starts = base_setups = base_pred = base_t_mins = None
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
        last = [_UNMET] * n_families
        clean = [True] * n_families

    prof_times, prof_levels = ci.fresh_profiles()
    # A clean family's profile is `base`'s after operation upto[f] at every
    # minute from `floor` on.
    upto = [-1] * n_families
    changed = []

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
        if prev == _UNMET:
            # f's last operation before `first`: o is listed at or after
            # `first` in base too, so base's chain from o passes it
            p = pos_key(o)
            prev = base_pred[o]
            while prev >= 0:
                q = pos_key(prev)
                if q < first:
                    break
                if q >= p:  # positions fall along a chain
                    raise AssertionError(
                        f"base's family chain is out of list order at {prev}")
                p = q
                prev = base_pred[prev]
            last[f] = prev
        if (clean[f] and base_pred[o] == prev and base_t_mins[o] == t_min
                and base_setups[o] == needs_setup):
            # starts, comps, setups, family_pred and t_mins already hold
            # base's values, which this placement repeats
            c = base_comps[o]
        else:
            if clean[f] and upto[f] != prev:
                catch_up(f)
            duration = proc[o] + setup[o] if needs_setup else proc[o]
            if needs_setup:
                t = find_earliest(win_starts, win_ends, prof_times[f],
                                  prof_levels[f], t_min, duration, True)[0]
            else:
                t = find_earliest(None, None, prof_times[f], prof_levels[f],
                                  t_min, duration, True)[0]
            c = t + duration
            if c != base_comps[o]:
                changed.append(o)
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

    job, job_ops, job_due = ci.job, ci.job_ops, ci.job_due
    if base is None:
        tardiness, job_tardiness = 0, [0] * len(job_due)
    else:
        last = [b if o == _UNMET else o for o, b in zip(last, base.last)]
        tardiness, job_tardiness = base.tardiness, base.job_tardiness[:]
    for j in {job[o] for o in changed}:
        ops = job_ops[j]
        now = comps[ops[0]]
        for x in ops:
            if comps[x] > now:
                now = comps[x]
        late = now - job_due[j]
        if late < 0:
            late = 0
        tardiness += late - job_tardiness[j]
        job_tardiness[j] = late
    return _Decode(seqs, tardiness, starts, comps, setups, machine_of,
                   family_pred, t_mins, order, pos_of, last, changed,
                   job_tardiness)


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
