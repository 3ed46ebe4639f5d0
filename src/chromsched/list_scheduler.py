"""Greedy list scheduler: earliest placements for every (machine, operation)
pair, one commitment per loop chosen by a priority rule.

Each pair's `rules.Candidate` (its earliest timing) is cached between loops
and recomputed only where a commitment can change it.  Committing family f
on machine m over [lo, hi) invalidates
  * every pair on m, whose clock and last family changed (so a cached
    candidate's `machine_clock` is always its machine's clock), and
  * the pairs of family f on other machines whose cached [start, completion)
    overlaps [lo, hi).
Every other cached entry stays exact: the commit only lowered f's column
capacity on [lo, hi), and the other machines' clocks, families and search
horizons did not change.  A start that was infeasible stays infeasible, and
a cached interval clear of [lo, hi) stays feasible, so it is still the
earliest; a pair with no slot in its horizon still has none.  The result is
bit-identical to recomputing every open pair each loop (the full-recompute
reference in the tests).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

from .availability import (DEFAULT_SEARCH_DAYS, find_earliest, min_level,
                           reserve_step)
from .engine import CompiledInstance, compile_instance
from .errors import NoSlotError, SchedulingError
from .model import Instance, PlacedOperation, Schedule
from .rules import Candidate, RuleParams, select_assignment

logger = logging.getLogger(__name__)


@dataclass
class LtaState:
    """Mutable single-run state: per-machine clocks, last families,
    schedulable-operation lists with cached timings, column profiles and
    the unscheduled-set statistics feeding the priority rules."""

    ci: CompiledInstance
    clocks: list[int]
    last_family: list[int]
    # per machine: schedulable op -> its Candidate, or None when no slot
    # exists within the horizon this round
    candidates: list[dict[int, Candidate | None]]
    prof_times: list[list]
    prof_levels: list[list[int]]
    unscheduled: set[int]
    p_sum: int
    s_sum: int
    pending: set[tuple[int, int]]
    placements: list[PlacedOperation] = field(default_factory=list)

    @property
    def n_unscheduled(self) -> int:
        return len(self.unscheduled)


def init_state(instance: Instance) -> LtaState:
    ci = compile_instance(instance)
    n_machines = ci.n_machines
    candidates: list[dict] = [{} for _ in range(n_machines)]
    pending = set()
    for o in range(ci.n_ops):
        for m in ci.eligible[o]:
            candidates[m][o] = None
            pending.add((m, o))
    prof_times, prof_levels = ci.fresh_profiles()
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
        pending=pending,
    )


def _refresh(state: LtaState) -> None:
    """Recompute the earliest timing of every invalidated (machine, op) pair.
    Each must still be open, so a refresh has to run between two commits."""
    ci = state.ci
    for m, o in state.pending:
        f = ci.family[o]
        clock = state.clocks[m]
        rel = ci.release[o]
        t_min = clock if clock > rel else rel
        needs_setup = f != state.last_family[m]
        duration = ci.proc[o] + ci.setup[o] if needs_setup else ci.proc[o]
        times, levels = state.prof_times[f], state.prof_levels[f]
        try:
            if needs_setup:
                t = find_earliest(ci.win_starts, ci.win_ends, times, levels,
                                  t_min, duration)
            else:
                t = find_earliest(None, None, times, levels, t_min, duration)
        except NoSlotError:
            logger.warning("no slot for %s on %s within %d days; retrying later",
                           ci.op_ids[o], ci.machine_ids[m], DEFAULT_SEARCH_DAYS)
            state.candidates[m][o] = None
            continue
        state.candidates[m][o] = Candidate(
            m, o, t, t + duration, needs_setup, clock, ci.job_due[ci.job[o]],
            ci.proc[o], ci.setup[o], len(ci.eligible[o]))
    state.pending.clear()


def _select_pool(state: LtaState, params: RuleParams,
                 rng: random.Random) -> Candidate:
    """Narrow the candidates to the machine policy's machines, then let the
    rule pick among them."""
    ci = state.ci
    feasible = [m for m in range(ci.n_machines)
                if any(e is not None for e in state.candidates[m].values())]
    if not feasible:
        raise SchedulingError(
            "no feasible candidate on any machine within the search horizon")
    if params.machine_policy.value == "ffm":
        best = min(state.clocks[m] for m in feasible)
        chosen = [m for m in feasible if state.clocks[m] == best]
    else:
        # least-loaded machine: clock plus each schedulable operation's
        # processing diluted by its eligibility count.  A bare count of
        # schedulable operations would keep one machine "least flexible"
        # while its clock runs away and starve the rest of the shop.
        law = {
            m: state.clocks[m] + sum(
                e.processing / e.flexibility
                for e in state.candidates[m].values() if e is not None)
            for m in feasible}
        least = min(law.values())
        chosen = [m for m in feasible if law[m] == least]
    pool = [e for m in chosen for e in state.candidates[m].values()
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
    `chosen` must be current: what `_select_pool` returned after the last
    `_refresh`.  Mutates and returns `state`."""
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
    for em in ci.eligible[o]:
        state.candidates[em].pop(o, None)
    state.unscheduled.discard(o)
    state.p_sum -= ci.proc[o]
    state.s_sum -= ci.setup[o]

    pending = state.pending
    for other in state.candidates[m]:
        pending.add((m, other))
    lo, hi = chosen.start, chosen.completion
    for other in ci.family_ops[f]:
        if other in state.unscheduled:
            for em in ci.eligible[other]:
                cached = state.candidates[em][other]
                if (cached is not None and cached.start < hi
                        and lo < cached.completion):
                    pending.add((em, other))

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
        _refresh(state)
        chosen = _select_pool(state, params, rng)
        commit_assignment(state, chosen)
    placements = sorted(state.placements,
                        key=lambda p: (p.start, p.machine, p.operation_id))
    return Schedule(tuple(placements))
