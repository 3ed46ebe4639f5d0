"""Greedy list scheduler: earliest placements for every (machine, operation)
pair, one commitment per loop chosen by a priority rule.

Each pair's `rules.Candidate` (its earliest timing) is cached between loops
and recomputed only where a commitment can change it.  Committing family f
on machine m over [lo, hi) invalidates
  * machine m, whose clock and last family changed: m joins the set of
    stale machines, and every open pair on it is to be recomputed (so a
    cached candidate's `machine_clock` is always its machine's clock), and
  * the pairs of family f on other machines whose cached [start, completion)
    overlaps [lo, hi): each joins its machine's pending set.
Every other cached entry stays exact: the commit only lowered f's column
capacity on [lo, hi), and the other machines' clocks and families did not
change.  A start that was infeasible stays infeasible, and a cached
interval clear of [lo, hi) stays feasible, so it is still the earliest; a
pair with no slot still has none.

The refresh is lazy: a machine is brought up to date (`_bring_up_to_date`)
only when the machine policy reads it, and until then it stays stale or
keeps its pending operations across any number of commits.  This is exact:
  * A machine that is not stale has had no commit since its last refresh,
    so by the argument above, commit by commit, each of its cached
    candidates is exact unless it is pending.  A commit's overlap test
    reads cached intervals, which are exact for every pair it may leave
    alone; a pending pair is recomputed whatever the test says.  A stale
    machine recomputes every open pair, so a commit pends nothing there.
  * A committed operation leaves every candidate dict and every pending set
    of its eligible machines, so no refresh brings it back.
  * FFM (`_select_pool`) walks the machines in (clock, index) order and
    refreshes each one as it reaches it, stopping after the first clock at
    which some machine has a feasible candidate.  Clocks do not depend on a
    refresh, and a machine's feasibility is read only after its refresh, so
    the machines it picks, those with a feasible candidate at the smallest
    such clock, are those a refresh of every machine would give.  When no
    machine is feasible the walk has refreshed them all.  LFM sums the
    loads of every feasible machine, so it refreshes every machine first.
  * Only a commit on a machine can give it a feasible candidate again, so
    the smallest feasible clock never falls, and each walk reaches every
    machine that is not stale.  So under either policy nothing is pending
    when `run_lta` commits, and the walk saves the refresh of the stale
    machines it does not reach.  The discard above keeps the cache exact
    when a commit follows the refresh of its machine alone.

A pair has no slot only when it needs a setup and no operator window is
left at or after its t_min: without a window rule the search always ends
in a free run (see `availability.find_earliest`).  Such a pair is retried
on later loops, where a same-family commit on its machine can drop the
setup.

The refresh works machine by machine.  All of a machine's operations of
one family that share t_min = max(clock, release) search the same step
function from the same point under the same window rule (a setup is due
exactly when the family differs from the machine's last one), so a single
one-minute `find_earliest` probe serves them all: it gives the earliest
admissible point t0 with a free unit and the end of that free run.  Every
point before t0 fails whatever the duration, so when t0 + duration fits in
the run, t0 is the earliest start; otherwise every start before the run
end fails too, and the search resumes there.  The result is bit-identical
to recomputing every open pair with its own search each loop (the
full-recompute reference in the tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .availability import find_earliest, min_level, reserve_step
from .engine import CompiledInstance, compile_instance
from .errors import NoSlotError, SchedulingError
from .model import Instance, PlacedOperation, Schedule
from .rules import Candidate, RuleParams, select_assignment


@dataclass
class LtaState:
    """Mutable single-run state: per-machine clocks, last families,
    schedulable-operation lists with cached timings, column profiles and
    the unscheduled-set statistics feeding the priority rules."""

    ci: CompiledInstance
    clocks: list[int]
    last_family: list[int]
    # per machine: schedulable op -> its Candidate, or None when no
    # operator window is left for its setup this round
    candidates: list[dict[int, Candidate | None]]
    prof_times: list[list]
    prof_levels: list[list[int]]
    unscheduled: set[int]
    p_sum: int
    s_sum: int
    # machines whose every open pair needs a refresh, and per machine the
    # open operations whose pair does (empty on a stale machine)
    stale: set[int]
    pending: list[set[int]]
    # per family: its open operations
    open_ops: list[set[int]]
    # per operation: its job's due date, its number of eligible machines
    # and its processing time divided by that number (its LFM load share)
    due: list[int]
    flexibility: list[int]
    load_share: list[float]
    placements: list[PlacedOperation] = field(default_factory=list)

    @property
    def n_unscheduled(self) -> int:
        return len(self.unscheduled)


def init_state(instance: Instance) -> LtaState:
    ci = compile_instance(instance)
    n_machines = ci.n_machines
    candidates: list[dict] = [{} for _ in range(n_machines)]
    for o in range(ci.n_ops):
        for m in ci.eligible[o]:
            candidates[m][o] = None
    prof_times, prof_levels = ci.fresh_profiles()
    flexibility = [len(machines) for machines in ci.eligible]
    return LtaState(
        ci=ci,
        clocks=[ci.origin] * n_machines,
        last_family=[-1] * n_machines,
        candidates=candidates,
        prof_times=prof_times,
        prof_levels=prof_levels,
        unscheduled=set(range(ci.n_ops)),
        p_sum=sum(ci.proc),
        s_sum=sum(ci.setup),
        stale=set(range(n_machines)),
        pending=[set() for _ in range(n_machines)],
        open_ops=[set(ops) for ops in ci.family_ops],
        due=[ci.job_due[j] for j in ci.job],
        flexibility=flexibility,
        load_share=[p / k for p, k in zip(ci.proc, flexibility)],
    )


def _refresh(state: LtaState) -> None:
    """Bring every machine's candidates up to date."""
    for m in range(state.ci.n_machines):
        _bring_up_to_date(state, m)


def _bring_up_to_date(state: LtaState, m: int) -> None:
    """Recompute every open pair of machine `m` if it is stale, else only
    its pending pairs."""
    pending = state.pending[m]
    if m in state.stale:
        state.stale.discard(m)
        _refresh_machine(state, m, state.candidates[m])
    elif pending:
        _refresh_machine(state, m, pending)
    else:
        return
    pending.clear()


def _refresh_machine(state: LtaState, m: int, ops) -> None:
    """Recompute the candidates of the open operations `ops` on machine `m`,
    one `find_earliest` probe per (family, t_min)."""
    ci = state.ci
    clock = state.clocks[m]
    last = state.last_family[m]
    cached = state.candidates[m]
    family, release, proc, setup = ci.family, ci.release, ci.proc, ci.setup
    due, flexibility = state.due, state.flexibility
    prof_times, prof_levels = state.prof_times, state.prof_levels
    win_starts, win_ends = ci.win_starts, ci.win_ends
    new, candidate = tuple.__new__, Candidate
    # (t0, run end) per family when t_min is the clock, else per
    # (family, release); t0 is None when no operator window is left
    probes: dict = {}
    for o in ops:
        f = family[o]
        rel = release[o]
        if rel > clock:
            t_min, key = rel, (f, rel)
        else:
            t_min, key = clock, f
        needs_setup = f != last
        if needs_setup:
            duration = proc[o] + setup[o]
            wstarts, wends = win_starts, win_ends
        else:
            duration = proc[o]
            wstarts = wends = None
        probe = probes.get(key)
        if probe is None:
            try:
                probe = find_earliest(wstarts, wends, prof_times[f],
                                      prof_levels[f], t_min, 1)
            except NoSlotError:
                probe = (None, None)
            probes[key] = probe
        t, run_end = probe
        if t is not None and t + duration > run_end:
            try:
                t = find_earliest(wstarts, wends, prof_times[f],
                                  prof_levels[f], run_end, duration)[0]
            except NoSlotError:
                t = None
        if t is None:
            cached[o] = None
            continue
        # tuple.__new__ is faster than the named tuple's own constructor
        cached[o] = new(candidate, (
            m, o, t, t + duration, needs_setup, clock, due[o], proc[o],
            setup[o], flexibility[o]))


def _select_pool(state: LtaState, params: RuleParams,
                 rng: random.Random) -> Candidate:
    """Narrow the candidates to the machine policy's machines, bringing up
    to date the machines it reads, then let the rule pick among them."""
    ci = state.ci
    candidates, clocks = state.candidates, state.clocks
    # a Candidate is a non-empty tuple, so only None entries are falsy
    if params.machine_policy.value == "ffm":
        chosen: list[int] = []
        for m in sorted(range(ci.n_machines), key=clocks.__getitem__):
            if chosen and clocks[m] != clocks[chosen[0]]:
                break
            _bring_up_to_date(state, m)
            if any(candidates[m].values()):
                chosen.append(m)
    else:
        _refresh(state)
        chosen = [m for m in range(ci.n_machines)
                  if any(candidates[m].values())]
        if chosen:
            # least-loaded machine: clock plus each schedulable operation's
            # processing diluted by its eligibility count.  A bare count of
            # schedulable operations would keep one machine "least
            # flexible" while its clock runs away and starve the rest of
            # the shop.
            share = state.load_share
            law = {
                m: clocks[m] + sum(
                    share[o] for o, e in candidates[m].items()
                    if e is not None)
                for m in chosen}
            least = min(law.values())
            chosen = [m for m in chosen if law[m] == least]
    if not chosen:
        first = min(state.unscheduled)
        machines = ", ".join(ci.machine_ids[m] for m in ci.eligible[first])
        raise SchedulingError(
            "no open operation can be placed on any machine: no operator "
            f"window is left for the setup of {state.n_unscheduled} open "
            f"operation(s), first {ci.op_ids[first]} on {machines}")
    pool = [e for m in chosen for e in candidates[m].values()
            if e is not None]
    n = state.n_unscheduled
    return select_assignment(
        pool, params, rng,
        p_bar=state.p_sum / n,
        s_bar=state.s_sum / n,
        total_machines=ci.n_machines)


def commit_assignment(state: LtaState, chosen: Candidate) -> LtaState:
    """Commit one selected candidate: book the column, advance the machine
    clock and family, drop the operation everywhere and refresh statistics.
    `chosen` must be current: a candidate of a machine brought up to date
    since the last commit, as `_select_pool` returns.  Mutates and returns
    `state`."""
    ci = state.ci
    m, o = chosen.machine, chosen.op
    f = ci.family[o]
    times, levels = state.prof_times[f], state.prof_levels[f]
    if min_level(times, levels, chosen.start, chosen.completion) < 1:
        raise SchedulingError(
            f"internal inconsistency: column {ci.family_ids[f]} "
            f"overbooked for {ci.op_ids[o]}")
    reserve_step(times, levels, chosen.start, chosen.completion)

    state.clocks[m] = chosen.completion
    state.last_family[m] = f
    candidates, pending = state.candidates, state.pending
    for em in ci.eligible[o]:
        candidates[em].pop(o, None)
        pending[em].discard(o)
    state.unscheduled.discard(o)
    state.open_ops[f].discard(o)
    state.p_sum -= ci.proc[o]
    state.s_sum -= ci.setup[o]

    stale = state.stale
    stale.add(m)
    lo, hi = chosen.start, chosen.completion
    for other in state.open_ops[f]:
        for em in ci.eligible[other]:
            if em in stale:
                continue
            cached = candidates[em][other]
            if (cached is not None and cached.start < hi
                    and lo < cached.completion):
                pending[em].add(other)

    state.placements.append(PlacedOperation(
        operation_id=ci.op_ids[o],
        machine=ci.machine_ids[m],
        setup_performed=chosen.setup_required,
        start=chosen.start,
        completion=chosen.completion))
    return state


def run_lta(instance: Instance, params: RuleParams | None = None,
            seed: int = 0) -> Schedule:
    """Run the full greedy loop; exactly one commit per operation.

    Deterministic for a given (instance, params, seed).
    """
    params = params or RuleParams()
    state = init_state(instance)
    rng = random.Random(seed)
    for _ in range(state.ci.n_ops):
        chosen = _select_pool(state, params, rng)
        commit_assignment(state, chosen)
    placements = sorted(state.placements,
                        key=lambda p: (p.start, p.machine, p.operation_id))
    return Schedule(tuple(placements))
