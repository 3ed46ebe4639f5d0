"""Independent brute-force oracles the tests check the fast paths against.

Everything here scans minute by minute, enumerates exhaustively or reckons
a bound from the instance alone; none of it shares code with the
implementations under test.  The exceptions are `enumerated_optimum`,
which scores every enumerated list and assignment with the annealer's own
decoder, so its optimum is the best schedule that decoder can reach;
`run_lta_full_recompute`, which reuses the list scheduler's selection and
commit but computes every open candidate each loop with its own
`find_earliest` search, so it checks the scheduler's cache invalidation and
shared probes and nothing else; and `serial_decode`, which searches and
books column profiles with `find_earliest` and `reserve_step`, themselves
checked against the minute scans, but shares no placement order or
bookkeeping with the solvers.
`pack_partition` is the annealer's former pack index, kept as the
reference its on-demand pack search is checked against, and the
`*_priority` functions are the ATC-family formulas written out one rule
per function, the reference for `rules.select_assignment`'s scorers.
`always_open` only builds operator windows for hand-made instances.
"""

import math
import random
from itertools import permutations, product
from typing import NamedTuple

from chromsched.availability import TimeWindowSet, find_earliest, reserve_step
from chromsched.engine import compile_instance, place_sequences
from chromsched.errors import NoSlotError
from chromsched.list_scheduler import (_select_pool, commit_assignment,
                                       init_state)
from chromsched.model import ColumnType, Instance, Job, Operation, Schedule
from chromsched.rules import Candidate, RuleParams


def always_open(start=-math.inf) -> TimeWindowSet:
    """Operator windows covering [start, +inf)."""
    return TimeWindowSet(((start, math.inf),))


def window_contains(windows, t) -> bool:
    return any(a <= t < b for a, b in windows)


def profile_level_at(capacity, bookings, t) -> int:
    """Level from an explicit list of booked [a, b) intervals."""
    return capacity - sum(1 for a, b in bookings if a <= t < b)


def scan_earliest(t_min, duration, windows, capacity, bookings, limit,
                  need_window) -> int | None:
    """Minute-scan: first t in [t_min, limit] satisfying the placement
    predicate, or None."""
    for t in range(t_min, limit + 1):
        if need_window and not window_contains(windows, t):
            continue
        if all(profile_level_at(capacity, bookings, u) >= 1
               for u in range(t, t + duration)):
            return t
    return None


def scan_free_run(t_min, windows, capacity, bookings, limit,
                  need_window) -> tuple | None:
    """Minute-scan: the first free (and, when `need_window`, in-window)
    minute t in [t_min, limit] and the first minute at or after it with no
    free unit (inf when none up to `limit`), or None."""
    t = scan_earliest(t_min, 1, windows, capacity, bookings, limit,
                      need_window)
    if t is None:
        return None
    end = next((u for u in range(t, limit + 1)
                if profile_level_at(capacity, bookings, u) < 1), math.inf)
    return t, end


def atc_priority(c: Candidate, p_bar: float, params: RuleParams) -> float:
    """(1/p) * exp(-slack / (k1 * p_bar)) with slack clamped at zero."""
    slack = c.due - c.processing - c.machine_clock
    if slack < 0:
        slack = 0
    return math.exp(-slack / (params.k1 * p_bar)) / c.processing


def atcs_priority(c: Candidate, p_bar: float, s_bar: float,
                  params: RuleParams) -> float:
    """ATC with a setup penalty exp(-s/(k2*s_bar)) when a setup is required.

    A candidate that avoids the setup (same family as the machine's last
    operation) pays nothing.
    """
    base = atc_priority(c, p_bar, params)
    s_eff = c.setup if c.setup_required else 0
    if s_eff == 0 or s_bar <= 0:
        return base
    return base * math.exp(-s_eff / (params.k2 * s_bar))


def atcoee_priority(c: Candidate, p_bar: float, params: RuleParams) -> float:
    """ATC times exp(OEE/k2), OEE = processing / (completion - clock)."""
    oee = c.processing / (c.completion - c.machine_clock)
    return atc_priority(c, p_bar, params) * math.exp(oee / params.k2)


def atcoeef_priority(c: Candidate, p_bar: float, total_machines: int,
                     params: RuleParams) -> float:
    """ATCOEE times exp(-Fl/k3), Fl = |eligible| / total machine count."""
    fl = c.flexibility / total_machines
    return atcoee_priority(c, p_bar, params) * math.exp(-fl / params.k3)


def scan_schedule_violations(instance: Instance, schedule: Schedule,
                             horizon: int) -> list[str]:
    """Minute-scan feasibility checker over [min start, horizon].

    Returns constraint tags (not full violation records): machine overlap,
    column capacity, setup window, release, eligibility, setup flags and
    coverage, discovered by brute force.
    """
    tags = []
    ops = instance.operations_by_id
    job_of = instance.job_of_operation

    placed_ids = [p.operation_id for p in schedule.placements]
    if sorted(placed_ids) != sorted(ops):
        tags.append("coverage")

    for p in schedule.placements:
        op = ops[p.operation_id]
        if p.machine not in op.eligible:
            tags.append("eligibility")
        if p.start < job_of[p.operation_id].release:
            tags.append("release")
        expected = p.start + op.processing + (op.setup if p.setup_performed else 0)
        if p.completion != expected:
            tags.append("duration")
        if p.setup_performed and not window_contains(
                instance.operator_windows.windows, p.start):
            tags.append("setup-window")

    lo = min((p.start for p in schedule.placements), default=0)
    for t in range(lo, horizon + 1):
        for machine in instance.machines:
            active = [p for p in schedule.placements
                      if p.machine == machine and p.start <= t < p.completion]
            if len(active) > 1:
                tags.append("machine-overlap")
        for column in instance.column_types:
            active = sum(
                1 for p in schedule.placements
                if ops[p.operation_id].family == column.family
                and p.start <= t < p.completion)
            if active > column.units:
                tags.append("column-capacity")

    for machine in instance.machines:
        seq = sorted((p for p in schedule.placements if p.machine == machine),
                     key=lambda p: p.start)
        last_family = None
        for p in seq:
            family = ops[p.operation_id].family
            if p.setup_performed != (family != last_family):
                tags.append("setup-flag")
            last_family = family
    return sorted(set(tags))


def all_sequences(ci):
    """Every (order, assignment) of a tiny compiled instance: each
    permutation of the operation indices with each assignment of the
    operations to eligible machines, as the annealer searches them."""
    for machine_of in product(*ci.eligible):
        for order in permutations(range(ci.n_ops)):
            yield list(order), list(machine_of)


def enumerated_optimum(instance: Instance) -> int:
    """Least total tardiness of `place_sequences` over `all_sequences`."""
    ci = compile_instance(instance)
    return min(place_sequences(ci, order, machine_of).tardiness
               for order, machine_of in all_sequences(ci))


def serial_decode(ci, order, machine_of):
    """Serial schedule generation: place the operations one by one in
    `order`, operation o on machine `machine_of[o]` at the earliest start,
    at or after its release and its machine's previous completion, at which
    its column has a free unit for its whole occupation and, when its
    family differs from the machine's previous one, an operator window is
    open for its setup.  Returns per-operation starts, completions and
    setup flags; raises NoSlotError when a setup finds no window."""
    prof_times, prof_levels = ci.fresh_profiles()
    clocks = [ci.origin] * ci.n_machines
    last_family = [-1] * ci.n_machines
    starts, comps, setups = [0] * ci.n_ops, [0] * ci.n_ops, [False] * ci.n_ops
    for o in order:
        m, f = machine_of[o], ci.family[o]
        needs_setup = f != last_family[m]
        duration = ci.proc[o] + (ci.setup[o] if needs_setup else 0)
        windows = (ci.win_starts, ci.win_ends) if needs_setup else (None, None)
        t = find_earliest(*windows, prof_times[f], prof_levels[f],
                          max(clocks[m], ci.release[o]), duration)[0]
        reserve_step(prof_times[f], prof_levels[f], t, t + duration)
        starts[o], comps[o], setups[o] = t, t + duration, needs_setup
        clocks[m], last_family[m] = t + duration, f
    return starts, comps, setups


def sgs_optimum(instance: Instance) -> int | float:
    """Least total tardiness of `serial_decode` over every assignment of
    operations to eligible machines and every order (+inf when none
    decodes).  For a regular objective such as total tardiness, these
    schedules include an optimal one: ordered by start, an optimal
    schedule's operations each land no later than they start in it."""
    ci = compile_instance(instance)
    best = math.inf
    for machine_of in product(*ci.eligible):
        for order in permutations(range(ci.n_ops)):
            try:
                comps = serial_decode(ci, order, machine_of)[1]
            except NoSlotError:
                continue
            tardiness = 0
            for ops, due in zip(ci.job_ops, ci.job_due):
                tardiness += max(0, max(comps[o] for o in ops) - due)
            best = min(best, tardiness)
    return best


def micro_instance(rng: random.Random) -> Instance:
    """A random instance of 2-5 operations on 2 machines, small enough for
    `all_sequences` to enumerate."""
    # due slack is moderate on purpose: with very tight dues the enumerated
    # optimum is often unreachable for the move set (a lone tardy item
    # already starting at its ready date admits no second item), which
    # measures the neighborhood's reach rather than this implementation
    machines = ("m0", "m1")
    families = ("fA", "fB", "fC")[: rng.randint(2, 3)]
    columns = tuple(ColumnType(f, rng.randint(1, 2)) for f in families)
    total_ops = rng.randint(2, 5)
    jobs = []
    remaining, j = total_ops, 0
    while remaining:
        k = 1 if remaining == 1 else rng.randint(1, 2)
        remaining -= k
        release = rng.randint(0, 100)
        due = release + rng.randint(150, 900)
        job_id = f"j{j}"
        operations = tuple(
            Operation(id=f"{job_id}.{i+1}", job_id=job_id,
                      family=families[rng.randrange(len(families))],
                      processing=rng.randint(20, 200),
                      setup=rng.randint(0, 60),
                      eligible=frozenset(rng.sample(machines,
                                                    rng.randint(1, 2))))
            for i in range(k))
        jobs.append(Job(id=job_id, release=release, due=due,
                        operations=operations))
        j += 1
    return Instance(machines=machines, column_types=columns,
                    operator_windows=always_open(0),
                    jobs=tuple(jobs))


def first_window_minute(windows, t):
    """Earliest minute >= t inside a [a, b) window, or +inf if none."""
    return min((max(a, t) for a, b in windows if b > t), default=math.inf)


def lower_bound(instance: Instance) -> int | float:
    """Certified lower bound on the total tardiness of any feasible schedule
    that starts no operation before `horizon_origin`.

    An operation's ready time is the later of its job's release and the
    origin.  It either sets up itself, starting at the first window minute
    at or after its ready time, or follows without a setup on a machine
    whose family run began with the setup of another same-family operation
    eligible there; it then completes no sooner than the later of its ready
    time and that setup's earliest completion, plus its own processing.
    Column capacity and machine contention are relaxed away.  Returns +inf
    when some operation can neither set up nor follow one that can.
    """
    windows = instance.operator_windows.windows
    ops = instance.operations_by_id
    job_of = instance.job_of_operation
    origin = instance.horizon_origin

    ready = {o: max(job_of[o].release, origin) for o in ops}
    with_setup = {o: first_window_minute(windows, ready[o]) + op.setup
                  + op.processing for o, op in ops.items()}

    def earliest(o):
        op = ops[o]
        run_start = min((with_setup[q] for q, other in ops.items()
                         if q != o and other.family == op.family
                         and other.eligible & op.eligible),
                        default=math.inf)
        return min(with_setup[o],
                   max(ready[o], run_start) + op.processing)

    total = 0
    for job in instance.jobs:
        completion = max(earliest(op.id) for op in job.operations)
        total += max(0, completion - job.due)
    return total


def run_lta_full_recompute(instance: Instance, params: RuleParams | None = None,
                           seed: int = 0) -> Schedule:
    """`run_lta` with no cache: before each selection, every open (machine,
    operation) candidate is computed afresh with its own `find_earliest`
    search and checked to occupy a non-empty interval."""
    params = params or RuleParams()
    state = init_state(instance)
    ci = state.ci
    rng = random.Random(seed)
    for _ in range(ci.n_ops):
        for m, cached in enumerate(state.candidates):
            clock = state.clocks[m]
            for o in cached:
                f = ci.family[o]
                t_min = max(clock, ci.release[o])
                needs_setup = f != state.last_family[m]
                duration = ci.proc[o] + (ci.setup[o] if needs_setup else 0)
                windows = ((ci.win_starts, ci.win_ends) if needs_setup
                           else (None, None))
                try:
                    t = find_earliest(*windows, state.prof_times[f],
                                      state.prof_levels[f], t_min, duration)[0]
                except NoSlotError:
                    cached[o] = None
                    continue
                c = cached[o] = Candidate(
                    m, o, t, t + duration, needs_setup, clock,
                    ci.job_due[ci.job[o]], ci.proc[o], ci.setup[o],
                    len(ci.eligible[o]))
                assert c.completion > c.start, f"{c}: empty interval"
        state.stale.clear()
        for pending in state.pending:
            pending.clear()
        commit_assignment(state, _select_pool(state, params, rng))
    return Schedule(tuple(sorted(
        state.placements, key=lambda p: (p.start, p.machine, p.operation_id))))


class Pack(NamedTuple):
    """A pack: a maximal run seq[lo:hi] of same-family operations on one
    machine with no setup or idle gap between consecutive members (a single
    operation is a pack too).  `machines` are those every member may run
    on, `weight` sums the members' tardiness shares."""

    machine: int
    lo: int
    hi: int
    family: int
    start: int
    ready: int
    mask: int
    machines: tuple[int, ...]
    weight: float


def pack_partition(ci, sol) -> list[list[Pack]]:
    """Each machine's packs in sequence order, built by one pass over the
    sequence from the decoded starts, completions and setup flags of an
    annealer solution, the members' weights read off its `op_cum`."""
    op_w = sol.op_cum
    packs = []
    for m, seq in enumerate(sol.seqs):
        per_machine = []
        i = 0
        while i < len(seq):
            k = i + 1
            while (k < len(seq) and not sol.setups[seq[k]]
                   and sol.starts[seq[k]] == sol.comps[seq[k - 1]]):
                k += 1
            members = seq[i:k]
            mask = -1
            for o in members:
                mask &= ci.eligible_mask[o]
            weight = sum(op_w[o] - (op_w[o - 1] if o else 0.0)
                         for o in members)
            per_machine.append(Pack(
                m, i, k, ci.family[members[0]], sol.starts[members[0]],
                min(ci.release[o] for o in members), mask,
                tuple(mm for mm in range(ci.n_machines) if mask >> mm & 1),
                weight))
            i = k
        packs.append(per_machine)
    return packs
