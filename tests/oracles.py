"""Independent brute-force oracles the tests check the fast paths against.

Everything here scans minute by minute, enumerates exhaustively or reckons
a bound from the instance alone; none of it shares code with the
implementations under test.  The one exception is
`run_lta_full_recompute`, which reuses the list scheduler's loop and
differs from it only in recomputing every candidate each loop, so it checks
the scheduler's cache invalidation and nothing else.
"""

import math
import random
from itertools import permutations

from chromsched.annealing import Encoding
from chromsched.availability import TimeWindowSet
from chromsched.engine import compile_instance
from chromsched.list_scheduler import (_refresh, _select_pool,
                                       commit_assignment, init_state)
from chromsched.model import ColumnType, Instance, Job, Operation, Schedule
from chromsched.rules import RuleParams


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


def all_encodings(instance: Instance):
    """Every (assignment, per-machine order) encoding of a tiny instance."""
    ci = compile_instance(instance)
    ops = list(range(ci.n_ops))

    def assignments(i):
        if i == len(ops):
            yield []
            return
        for rest in assignments(i + 1):
            for m in ci.eligible[ops[i]]:
                yield [(ops[i], m)] + rest

    for assignment in assignments(0):
        per_machine: dict[int, list[int]] = {}
        for o, m in assignment:
            per_machine.setdefault(m, []).append(o)
        machine_orders = []
        for m in range(ci.n_machines):
            members = per_machine.get(m, [])
            machine_orders.append(list(permutations(members)))

        def product_orders(idx, acc):
            if idx == ci.n_machines:
                yield list(acc)
                return
            for order in machine_orders[idx]:
                acc.append(list(order))
                yield from product_orders(idx + 1, acc)
                acc.pop()

        for seqs in product_orders(0, []):
            yield Encoding(tuple(
                (ci.machine_ids[m], tuple(ci.op_ids[o] for o in seq))
                for m, seq in enumerate(seqs)))


def micro_instance(rng: random.Random) -> Instance:
    """A random instance of 2-5 operations on 2 machines, small enough for
    `all_encodings` to enumerate."""
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
                    operator_windows=TimeWindowSet.always(0),
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
    """`run_lta` with no cache invalidation: every open (machine, operation)
    pair is marked pending, and so recomputed, before each selection."""
    params = params or RuleParams()
    state = init_state(instance)
    rng = random.Random(seed)
    all_pairs = [(m, o) for m in range(state.ci.n_machines)
                 for o in state.candidates[m]]
    for _ in range(state.ci.n_ops):
        state.pending.update(
            (m, o) for m, o in all_pairs if o in state.unscheduled)
        _refresh(state)
        commit_assignment(state, _select_pool(state, params, rng))
    return Schedule(tuple(sorted(
        state.placements, key=lambda p: (p.start, p.machine, p.operation_id))))
