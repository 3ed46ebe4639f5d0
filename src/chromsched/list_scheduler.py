"""Greedy list scheduler: earliest placements for every (machine, operation)
pair, one commitment per loop chosen by a priority rule.

Candidate earliest-start times are cached between loops and recomputed only
where a commitment can change them.  Committing family f on machine m over
[lo, hi) invalidates
  * every pair on m, whose clock and last family changed, and
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
from bisect import bisect_right
from dataclasses import dataclass, field

from .availability import find_earliest, reserve_step, MINUTES_PER_DAY, DEFAULT_SEARCH_DAYS
from .engine import CompiledInstance, compile_instance, schedule_from_arrays
from .errors import NoSlotError, SchedulingError
from .model import Instance, Operation, PlacedOperation, Schedule
from .rules import Candidate, RuleParams, select_assignment

logger = logging.getLogger(__name__)


@dataclass
class LtaState:
    """Mutable single-run state: per-machine clocks, last families,
    schedulable-operation lists with cached timings, column profiles and
    the unscheduled-set statistics feeding the priority rules."""

    ci: CompiledInstance
    ops: list[Operation]
    clocks: list[int]
    last_family: list[int]
    # per machine: schedulable op -> (start, completion, setup) or None
    # when no slot exists within the horizon this round
    candidates: list[dict[int, tuple[int, int, bool] | None]]
    prof_times: list[list]
    prof_levels: list[list[int]]
    unscheduled: set[int]
    p_sum: int
    s_sum: int
    pending: set[tuple[int, int]]
    placements: list[PlacedOperation] = field(default_factory=list)
    horizon_days: int = DEFAULT_SEARCH_DAYS

    @property
    def n_unscheduled(self) -> int:
        return len(self.unscheduled)


def init_state(instance: Instance, horizon_days: int = DEFAULT_SEARCH_DAYS) -> LtaState:
    ci = compile_instance(instance)
    by_id = instance.operations_by_id
    ops = [by_id[op_id] for op_id in ci.op_ids]
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
        ops=ops,
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
    """Recompute the earliest timing of every invalidated (machine, op) pair."""
    ci = state.ci
    for m, o in state.pending:
        if o not in state.candidates[m]:
            continue
        f = ci.family[o]
        clock = state.clocks[m]
        rel = ci.release[o]
        t_min = clock if clock > rel else rel
        needs_setup = f != state.last_family[m]
        duration = ci.proc[o] + ci.setup[o] if needs_setup else ci.proc[o]
        times, levels = state.prof_times[f], state.prof_levels[f]
        horizon = t_min + state.horizon_days * MINUTES_PER_DAY
        try:
            if needs_setup:
                t = find_earliest(ci.win_starts, ci.win_ends, times, levels,
                                  t_min, duration, horizon)
            else:
                t = find_earliest(None, None, times, levels,
                                  t_min, duration, horizon)
        except NoSlotError:
            logger.warning("no slot for %s on %s within %d days; retrying later",
                           ci.op_ids[o], ci.machine_ids[m], state.horizon_days)
            state.candidates[m][o] = None
            continue
        state.candidates[m][o] = (t, t + duration, needs_setup)
    state.pending.clear()


def _make_candidate(state: LtaState, m: int, o: int,
                    entry: tuple[int, int, bool]) -> Candidate:
    ci = state.ci
    return Candidate(state.ops[o], ci.machine_ids[m], entry[0], entry[1],
                     entry[2], state.clocks[m], ci.job_due[ci.job[o]],
                     ci.release[o])


def candidate_times(state: LtaState) -> list[Candidate]:
    """All currently feasible (machine, operation) candidates, in
    (machine id, job id, operation id) order."""
    _refresh(state)
    out = []
    for m in range(state.ci.n_machines):
        for o in sorted(state.candidates[m]):
            entry = state.candidates[m][o]
            if entry is not None:
                out.append(_make_candidate(state, m, o, entry))
    return out


def _select_pool(state: LtaState, params: RuleParams,
                 rng: random.Random) -> Candidate:
    """Restrict to the policy's machines, then delegate to the rule."""
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
        # average potential load over feasible candidates, matching
        # rules.select_assignment
        law = {
            m: state.clocks[m] + sum(
                ci.proc[o] / len(ci.eligible[o])
                for o, e in state.candidates[m].items() if e is not None)
            for m in feasible}
        least = min(law.values())
        chosen = [m for m in feasible if law[m] == least]
    pool = []
    for m in chosen:
        for o, entry in state.candidates[m].items():
            if entry is not None:
                pool.append(_make_candidate(state, m, o, entry))
    n = state.n_unscheduled
    return select_assignment(
        pool, params, rng,
        p_bar=state.p_sum / n,
        s_bar=state.s_sum / n,
        total_machines=ci.n_machines)


def _min_level(times: list, levels: list[int], start: int, end: int) -> int:
    i = bisect_right(times, start) - 1
    lowest = levels[i]
    while i + 1 < len(times) and times[i + 1] < end:
        i += 1
        if levels[i] < lowest:
            lowest = levels[i]
    return lowest


def commit_assignment(state: LtaState, chosen: Candidate) -> LtaState:
    """Commit one selected candidate: book the column, advance the machine
    clock and family, drop the operation everywhere and refresh statistics.
    Mutates and returns `state`."""
    ci = state.ci
    m = ci.machine_index[chosen.machine]
    o = ci.op_index[chosen.operation.id]
    entry = state.candidates[m].get(o)
    if entry is None or entry != (chosen.start, chosen.completion,
                                  chosen.setup_required):
        raise SchedulingError(
            f"stale candidate {chosen.operation.id}@{chosen.machine}; "
            "commit what candidate_times returned for this state")
    f = ci.family[o]
    times, levels = state.prof_times[f], state.prof_levels[f]
    if _min_level(times, levels, chosen.start, chosen.completion) < 1:
        raise SchedulingError(
            f"internal inconsistency: column {ci.family_ids[f]} "
            f"overbooked for {chosen.operation.id}")
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
                if cached is not None and cached[0] < hi and lo < cached[1]:
                    pending.add((em, other))

    state.placements.append(PlacedOperation(
        operation_id=chosen.operation.id,
        machine=chosen.machine,
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
