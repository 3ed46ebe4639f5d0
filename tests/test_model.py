import random
from dataclasses import replace
from itertools import combinations

import pytest

from chromsched.availability import TimeWindowSet
from chromsched.errors import IncompleteScheduleError
from chromsched.list_scheduler import run_lta
from chromsched.model import (ColumnType, Instance, Job, Operation,
                              PlacedOperation, Schedule, _job_completion,
                              schedule_metrics, total_tardiness,
                              validate_schedule)

from oracles import always_open, micro_instance, scan_schedule_violations
from test_oracles import SPARSE_WINDOWS


def make_instance(jobs, machines=("m0", "m1"), columns=(("fA", 1), ("fB", 1)),
                  windows=None):
    return Instance(
        machines=tuple(machines),
        column_types=tuple(ColumnType(f, u) for f, u in columns),
        operator_windows=windows or always_open(),
        jobs=tuple(jobs))


def job(job_id, release, due, *ops):
    return Job(id=job_id, release=release, due=due, operations=tuple(
        Operation(id=f"{job_id}.{i+1}", job_id=job_id, family=fam,
                  processing=p, setup=s, eligible=frozenset(elig))
        for i, (fam, p, s, elig) in enumerate(ops)))


def placed(op_id, machine, setup, start, completion):
    return PlacedOperation(op_id, machine, setup, start, completion)


class TestInstanceInvariants:
    def test_family_must_have_column_type(self):
        with pytest.raises(ValueError, match="column type"):
            make_instance([job("j0", 0, 10, ("fX", 5, 1, ("m0",)))])

    def test_eligible_must_be_known_machines(self):
        with pytest.raises(ValueError, match="eligible"):
            make_instance([job("j0", 0, 10, ("fA", 5, 1, ("m9",)))])

    def test_unit_count_positive(self):
        with pytest.raises(ValueError, match="units"):
            ColumnType("fA", 0)

    def test_due_not_before_release(self):
        with pytest.raises(ValueError, match="due"):
            job("j0", 100, 99, ("fA", 5, 1, ("m0",)))

    def test_processing_positive(self):
        with pytest.raises(ValueError, match="processing"):
            job("j0", 0, 10, ("fA", 0, 1, ("m0",)))

    def test_duplicate_job_id_refused(self):
        # two jobs named j1 would share one index and one due date
        first = job("j1", 0, 10, ("fA", 50, 5, ("m0",)))
        second = Job(id="j1", release=0, due=500, operations=(Operation(
            id="b.1", job_id="j1", family="fA", processing=40, setup=5,
            eligible=frozenset(("m0", "m1"))),))
        with pytest.raises(ValueError, match="^duplicate job id j1$"):
            make_instance([first, second])


class TestJobCompletion:
    def test_single_op(self):
        inst = make_instance([job("j0", 0, 50, ("fA", 80, 20, ("m0",)))])
        sched = Schedule((placed("j0.1", "m0", True, 0, 100),))
        assert _job_completion(sched.by_operation, inst.jobs[0]) == 100

    def test_max_of_two(self):
        inst = make_instance([job("j0", 0, 50,
                                  ("fA", 80, 20, ("m0",)),
                                  ("fB", 200, 50, ("m1",)))])
        sched = Schedule((placed("j0.1", "m0", True, 0, 100),
                          placed("j0.2", "m1", True, 0, 250)))
        assert _job_completion(sched.by_operation, inst.jobs[0]) == 250

    def test_unplaced_op_is_error(self):
        inst = make_instance([job("j0", 0, 50,
                                  ("fA", 80, 20, ("m0",)),
                                  ("fB", 200, 50, ("m1",)))])
        sched = Schedule((placed("j0.1", "m0", True, 0, 100),))
        with pytest.raises(IncompleteScheduleError, match="j0.2"):
            _job_completion(sched.by_operation, inst.jobs[0])


class TestTotalTardiness:
    def test_zero_when_on_time(self):
        inst = make_instance([job("j0", 0, 500, ("fA", 80, 20, ("m0",)))])
        sched = Schedule((placed("j0.1", "m0", True, 0, 100),))
        assert total_tardiness(sched, inst) == 0

    def test_single_late_job(self):
        inst = make_instance([job("j0", 0, 100, ("fA", 90, 20, ("m0",)))])
        sched = Schedule((placed("j0.1", "m0", True, 0, 110),))
        assert total_tardiness(sched, inst) == 10

    def test_sums_over_jobs(self):
        inst = make_instance([
            job("j0", 0, 100, ("fA", 90, 20, ("m0",))),
            job("j1", 0, 100, ("fB", 90, 20, ("m1",))),
        ])
        sched = Schedule((placed("j0.1", "m0", True, 0, 110),
                          placed("j1.1", "m1", True, 0, 110)))
        assert total_tardiness(sched, inst) == 20

    def test_matches_per_job_recomputation(self):
        inst = make_instance([
            job("j0", 0, 100, ("fA", 90, 20, ("m0",))),
            job("j1", 0, 90, ("fB", 90, 20, ("m1",))),
        ])
        sched = Schedule((placed("j0.1", "m0", True, 0, 110),
                          placed("j1.1", "m1", True, 0, 110)))
        expected = sum(
            max(_job_completion(sched.by_operation, j) - j.due, 0)
            for j in inst.jobs)
        assert total_tardiness(sched, inst) == expected


class TestScheduleMemory:
    def test_placement_has_no_instance_dict(self):
        assert not hasattr(placed("j0.1", "m0", True, 0, 100), "__dict__")

    def test_checks_cache_nothing_on_the_schedule(self):
        inst = make_instance([job("j0", 0, 100, ("fA", 90, 20, ("m0",)))])
        sched = Schedule((placed("j0.1", "m0", True, 0, 110),))
        assert validate_schedule(inst, sched) == []
        assert total_tardiness(sched, inst) == 10
        assert vars(sched) == {"placements": sched.placements}


class TestValidateSchedule:
    def test_empty_instance_vacuous(self):
        inst = make_instance([])
        assert validate_schedule(inst, Schedule(())) == []

    def test_machine_overlap_detected(self):
        inst = make_instance([
            job("j0", 0, 1000, ("fA", 80, 20, ("m0",))),
            job("j1", 0, 1000, ("fB", 80, 20, ("m0",))),
        ])
        sched = Schedule((placed("j0.1", "m0", True, 0, 100),
                          placed("j1.1", "m0", True, 50, 150)))
        tags = {v.constraint for v in validate_schedule(inst, sched)}
        assert "machine-overlap" in tags

    def test_column_capacity_detected(self):
        # one unit, two simultaneous same-family placements on two machines
        inst = make_instance([
            job("j0", 0, 1000, ("fA", 80, 20, ("m0",))),
            job("j1", 0, 1000, ("fA", 80, 20, ("m1",))),
        ])
        sched = Schedule((placed("j0.1", "m0", True, 0, 100),
                          placed("j1.1", "m1", True, 50, 150)))
        violations = validate_schedule(inst, sched)
        capacity = [v for v in violations if v.constraint == "column-capacity"]
        assert len(capacity) == 1
        assert set(capacity[0].placements) == {"j0.1", "j1.1"}

    def test_two_units_allow_concurrency(self):
        inst = make_instance([
            job("j0", 0, 1000, ("fA", 80, 20, ("m0",))),
            job("j1", 0, 1000, ("fA", 80, 20, ("m1",))),
        ], columns=(("fA", 2),))
        sched = Schedule((placed("j0.1", "m0", True, 0, 100),
                          placed("j1.1", "m1", True, 50, 150)))
        assert validate_schedule(inst, sched) == []

    def test_setup_flag_first_on_machine_required(self):
        inst = make_instance([job("j0", 0, 1000, ("fA", 80, 20, ("m0",)))])
        sched = Schedule((placed("j0.1", "m0", False, 0, 80),))
        tags = {v.constraint for v in validate_schedule(inst, sched)}
        assert "setup-flag" in tags

    def test_setup_flag_same_family_successor(self):
        inst = make_instance([
            job("j0", 0, 1000, ("fA", 80, 20, ("m0",))),
            job("j1", 0, 1000, ("fA", 80, 20, ("m0",))),
        ])
        good = Schedule((placed("j0.1", "m0", True, 0, 100),
                         placed("j1.1", "m0", False, 100, 180)))
        assert validate_schedule(inst, good) == []
        spurious = Schedule((placed("j0.1", "m0", True, 0, 100),
                             placed("j1.1", "m0", True, 100, 200)))
        tags = {v.constraint for v in validate_schedule(inst, spurious)}
        assert "setup-flag" in tags

    def test_release_and_window_and_eligibility(self):
        inst = make_instance(
            [job("j0", 500, 2000, ("fA", 80, 20, ("m0",)))],
            windows=TimeWindowSet(((600, 700),)))
        early = Schedule((placed("j0.1", "m0", True, 400, 500),))
        tags = {v.constraint for v in validate_schedule(inst, early)}
        assert "starts-before-release" in tags
        assert "setup-outside-window" in tags
        wrong_machine = Schedule((placed("j0.1", "m1", True, 600, 700),))
        tags = {v.constraint for v in validate_schedule(inst, wrong_machine)}
        assert "ineligible-machine" in tags

    def test_duplicate_and_missing(self):
        inst = make_instance([
            job("j0", 0, 1000, ("fA", 80, 20, ("m0",))),
            job("j1", 0, 1000, ("fB", 80, 20, ("m1",))),
        ])
        sched = Schedule((placed("j0.1", "m0", True, 0, 100),
                          placed("j0.1", "m0", True, 200, 300)))
        tags = {v.constraint for v in validate_schedule(inst, sched)}
        assert "duplicate-placement" in tags
        assert "unplaced-operation" in tags

    def test_agrees_with_minute_scan(self):
        rng = random.Random(11)
        for _ in range(40):
            inst = make_instance([
                job("j0", 0, 600, ("fA", rng.randint(20, 60), 10, ("m0", "m1"))),
                job("j1", 0, 600, ("fA", rng.randint(20, 60), 10, ("m0", "m1"))),
                job("j2", 0, 600, ("fB", rng.randint(20, 60), 10, ("m1",))),
            ], windows=TimeWindowSet(((0, 10_000),)))
            placements = []
            for jb in inst.jobs:
                op = jb.operations[0]
                machine = rng.choice(sorted(op.eligible))
                start = rng.randrange(0, 300)
                setup = rng.random() < 0.8
                comp = start + op.processing + (op.setup if setup else 0)
                placements.append(placed(op.id, machine, setup, start, comp))
            sched = Schedule(tuple(placements))
            fast = validate_schedule(inst, sched)
            slow_tags = scan_schedule_violations(inst, sched, 700)
            slow_mapped = set(slow_tags) - {"setup-flag"}
            fast_mapped = {SCAN_TAG[v.constraint] for v in fast}
            assert slow_mapped <= fast_mapped
            if not fast:
                assert not slow_tags

    def test_agrees_with_minute_scan_both_ways_on_mutated_schedules(self):
        # LTA micro schedules, each also with one placement's start shifted,
        # setup flag flipped, machine changed or completion off by one; half
        # of the instances have sparse operator windows.
        rng = random.Random(5)
        checked = set()
        for index in range(100):
            inst = micro_instance(rng)
            if index % 2:
                inst = replace(inst, operator_windows=SPARSE_WINDOWS)
            base = run_lta(inst).placements
            for mutation in (None, "shift", "flip", "machine", "completion"):
                placements = list(base)
                if mutation is not None:
                    i = rng.randrange(len(placements))
                    placements[i] = mutate(inst, placements[i], mutation, rng)
                sched = Schedule(tuple(placements))
                fast = validate_schedule(inst, sched)
                horizon = max(p.completion for p in placements)
                slow = set(scan_schedule_violations(inst, sched, horizon))
                overlapping = overlapping_machines(placements)
                if overlapping:
                    # on a machine whose placements overlap the two checkers
                    # may order them differently, so compare setup flags on
                    # the other machines only
                    rest = Schedule(tuple(p for p in placements
                                          if p.machine not in overlapping))
                    slow.discard("setup-flag")
                    if "setup-flag" in scan_schedule_violations(inst, rest,
                                                                horizon):
                        slow.add("setup-flag")
                    on_machine = {p.operation_id: p.machine for p in placements}
                    fast = [v for v in fast if v.constraint != "setup-flag"
                            or on_machine[v.placements[0]] not in overlapping]
                fast_tags = {SCAN_TAG[v.constraint] for v in fast}
                assert fast_tags == slow, (index, mutation, placements)
                checked |= slow
        assert checked == {"machine-overlap", "column-capacity",
                           "setup-window", "release", "eligibility",
                           "duration", "setup-flag"}


#: The minute scan's tag for each validator constraint.
SCAN_TAG = {
    "machine-overlap": "machine-overlap",
    "column-capacity": "column-capacity",
    "setup-outside-window": "setup-window",
    "starts-before-release": "release",
    "ineligible-machine": "eligibility",
    "duration-mismatch": "duration",
    "setup-flag": "setup-flag",
    "unplaced-operation": "coverage",
    "duplicate-placement": "coverage",
    "unknown-operation": "coverage",
}


def mutate(inst, p, mutation, rng):
    """`p` with one field changed the way `mutation` names."""
    op = inst.operations_by_id[p.operation_id]
    if mutation == "shift":
        delta = rng.choice((-1, 1)) * rng.randint(1, 120)
        return placed(p.operation_id, p.machine, p.setup_performed,
                      p.start + delta, p.completion + delta)
    if mutation == "flip":
        setup = not p.setup_performed
        return placed(p.operation_id, p.machine, setup, p.start,
                      p.start + op.processing + (op.setup if setup else 0))
    if mutation == "machine":
        machine = "m1" if p.machine == "m0" else "m0"
        return placed(p.operation_id, machine, p.setup_performed, p.start,
                      p.completion)
    return placed(p.operation_id, p.machine, p.setup_performed, p.start,
                  p.completion + rng.choice((-1, 1)))


def overlapping_machines(placements):
    return {a.machine for a, b in combinations(placements, 2)
            if a.machine == b.machine and a.start < b.completion
            and b.start < a.completion}


class TestMetrics:
    def test_counters(self):
        inst = make_instance([
            job("j0", 0, 100, ("fA", 90, 20, ("m0",))),
            job("j1", 0, 500, ("fB", 90, 20, ("m1",))),
        ])
        sched = Schedule((placed("j0.1", "m0", True, 0, 110),
                          placed("j1.1", "m1", True, 0, 110)))
        metrics = schedule_metrics(inst, sched)
        assert metrics == {"tardiness": 10, "late_jobs": 1, "setups": 2,
                           "makespan": 110}
