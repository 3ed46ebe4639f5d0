import random
from dataclasses import replace

import pytest

from chromsched.availability import TimeWindowSet
from chromsched.experiments import parse_algorithm
from chromsched.generator import GenConfig, generate_instance
from chromsched.list_scheduler import (candidate_times, commit_assignment,
                                       init_state, run_lta)
from chromsched.model import (ColumnType, Instance, Job, Operation,
                              total_tardiness, validate_schedule)
from chromsched.rules import MachinePolicy, Rule, RuleParams, select_assignment

from oracles import all_encodings, run_lta_full_recompute


def tiny_instance(ops_spec, machines=("m0", "m1"), columns=(("fA", 1), ("fB", 1)),
                  windows=None, release=0, due=10_000):
    jobs = []
    for j, job_ops in enumerate(ops_spec):
        job_id = f"j{j}"
        jobs.append(Job(
            id=job_id, release=release, due=due,
            operations=tuple(
                Operation(id=f"{job_id}.{i+1}", job_id=job_id, family=fam,
                          processing=p, setup=s, eligible=frozenset(elig))
                for i, (fam, p, s, elig) in enumerate(job_ops))))
    return Instance(
        machines=tuple(machines),
        column_types=tuple(ColumnType(f, u) for f, u in columns),
        operator_windows=windows or TimeWindowSet.always(),
        jobs=tuple(jobs))


class TestCandidateTimes:
    def test_empty_shop_forces_setup(self):
        inst = tiny_instance([[("fA", 20, 10, ("m0",))]], machines=("m0",))
        state = init_state(inst)
        (c,) = candidate_times(state)
        assert (c.start, c.completion, c.setup_required) == (0, 30, True)

    def test_same_family_successor_needs_no_setup(self):
        inst = tiny_instance([[("fA", 20, 10, ("m0",))],
                              [("fA", 15, 10, ("m0",))]], machines=("m0",))
        state = init_state(inst)
        first = candidate_times(state)[0]
        commit_assignment(state, first)
        (succ,) = candidate_times(state)
        assert not succ.setup_required
        assert succ.start == first.completion
        assert succ.completion == succ.start + 15

    def test_release_bounds_start(self):
        inst = tiny_instance([[("fA", 20, 10, ("m0",))]], machines=("m0",),
                             release=500)
        state = init_state(inst)
        state.clocks[0] = 100
        state.pending.add((0, 0))
        (c,) = candidate_times(state)
        assert c.start >= 500

    def test_one_candidate_per_eligible_machine(self):
        inst = tiny_instance([[("fA", 20, 10, ("m0", "m1"))]])
        cands = candidate_times(init_state(inst))
        assert sorted(c.machine for c in cands) == ["m0", "m1"]


class TestCommit:
    def test_removes_op_everywhere_and_advances_clock(self):
        inst = tiny_instance([[("fA", 20, 10, ("m0", "m1"))],
                              [("fB", 30, 5, ("m0", "m1"))]])
        state = init_state(inst)
        cands = candidate_times(state)
        chosen = next(c for c in cands if c.operation.id == "j0.1"
                      and c.machine == "m0")
        commit_assignment(state, chosen)
        assert all(0 not in state.candidates[m] for m in range(2))
        assert state.clocks[0] == chosen.completion
        remaining = candidate_times(state)
        assert {c.operation.id for c in remaining} == {"j1.1"}

    def test_repends_exactly_the_overlapping_same_family_pairs(self):
        # One fA unit.  After j0.1 books [40, 70) on m0, the fA candidates
        # cached at [11, 41) and [69, 99) overlap it by one minute and must
        # be recomputed; those at [10, 40) and [70, 100) only touch it.
        machines = ("m0", "m1", "m2", "m3", "m4")
        inst = tiny_instance([[("fA", 20, 10, (m,))] for m in machines],
                             machines=machines, columns=(("fA", 1),))
        state = init_state(inst)
        state.clocks[:] = [40, 11, 10, 69, 70]
        cands = candidate_times(state)
        assert [(c.start, c.completion) for c in cands] == [
            (40, 70), (11, 41), (10, 40), (69, 99), (70, 100)]
        commit_assignment(state, cands[0])
        assert state.pending == {(1, 1), (3, 3)}
        after = candidate_times(state)
        assert [(c.start, c.completion) for c in after] == [
            (70, 100), (10, 40), (70, 100), (70, 100)]
        assert after[1] == cands[2] and after[3] == cands[4]

    def test_stale_candidate_rejected(self):
        inst = tiny_instance([[("fA", 20, 10, ("m0", "m1"))],
                              [("fA", 30, 5, ("m0", "m1"))]])
        state = init_state(inst)
        cands = candidate_times(state)
        chosen = cands[0]
        commit_assignment(state, chosen)
        with pytest.raises(Exception, match="stale|candidate"):
            commit_assignment(state, chosen)


class TestRunLta:
    def test_single_forced_placement(self):
        inst = tiny_instance([[("fA", 20, 10, ("m0",))]], machines=("m0",),
                             due=25)
        schedule = run_lta(inst)
        (p,) = schedule.placements
        assert (p.start, p.completion, p.setup_performed) == (0, 30, True)
        assert total_tardiness(schedule, inst) == 5

    def test_same_family_pair_single_setup(self):
        inst = tiny_instance([[("fA", 20, 10, ("m0",))],
                              [("fA", 15, 10, ("m0",))]], machines=("m0",))
        schedule = run_lta(inst)
        assert sum(p.setup_performed for p in schedule.placements) == 1
        by_start = sorted(schedule.placements, key=lambda p: p.start)
        assert by_start[1].start == by_start[0].completion

    def test_feasible_for_every_rule_and_seed(self):
        inst = generate_instance(GenConfig(n_jobs=10, n_routings=5, seed=2,
                                           unchecked=True))
        for rule in Rule:
            policy = (MachinePolicy.LFM if rule is Rule.LFO
                      else MachinePolicy.FFM)
            for seed in (0, 1, 2):
                schedule = run_lta(
                    inst, RuleParams(rule=rule, machine_policy=policy),
                    seed=seed)
                assert validate_schedule(inst, schedule) == []

    def test_deterministic(self):
        inst = generate_instance(GenConfig(n_jobs=12, n_routings=5, seed=3,
                                           unchecked=True))
        params = RuleParams(rule=Rule.RANDOM)
        assert run_lta(inst, params, seed=7) == run_lta(inst, params, seed=7)

    def test_incremental_matches_full_recompute(self):
        for seed in range(4):
            inst = generate_instance(GenConfig(
                n_jobs=9, n_routings=4, seed=seed, unchecked=True))
            for rule in (Rule.ATCOEE, Rule.ATCS, Rule.RANDOM):
                params = RuleParams(rule=rule)
                assert run_lta(inst, params, seed=1) == run_lta_full_recompute(
                    inst, params, seed=1)

    def test_invalidation_under_column_and_window_contention(self):
        # One-unit columns make every same-family booking a conflict, and
        # 30-minute operator windows every 4 hours make setups queue for a
        # window, so a cached candidate that a commit overlaps is common.
        windows = TimeWindowSet(tuple((k * 240, k * 240 + 30)
                                      for k in range(-48, 600)))
        tokens = ("atcoee", "atcoeef", "atcs", "atc", "edd", "random",
                  "lfm_lfo")
        for seed in range(3):
            base = generate_instance(GenConfig(
                n_jobs=16, n_routings=6, n_column_types=4, flex_mean=4,
                seed=seed, unchecked=True))
            inst = replace(base, operator_windows=windows,
                           column_types=tuple(ColumnType(c.family, 1)
                                              for c in base.column_types))
            for token in tokens:
                params = parse_algorithm(token).rule_params
                fast = run_lta(inst, params, seed=seed)
                assert fast == run_lta_full_recompute(inst, params, seed=seed)
                assert validate_schedule(inst, fast) == []

    def test_monotone_clocks_and_exact_commit_count(self):
        inst = generate_instance(GenConfig(n_jobs=8, n_routings=3, seed=5,
                                           unchecked=True))
        state = init_state(inst)
        params = RuleParams()
        rng = random.Random(0)
        clocks_before = list(state.clocks)
        commits = 0
        while state.unscheduled:
            cands = candidate_times(state)
            chosen = select_assignment(
                cands, params, rng,
                p_bar=state.p_sum / state.n_unscheduled,
                s_bar=state.s_sum / state.n_unscheduled,
                total_machines=state.ci.n_machines)
            commit_assignment(state, chosen)
            commits += 1
            for before, after in zip(clocks_before, state.clocks):
                assert after >= before
            clocks_before = list(state.clocks)
        assert commits == inst.n_operations

    def test_setup_exactly_on_family_changes(self):
        inst = generate_instance(GenConfig(n_jobs=14, n_routings=4, seed=8,
                                           unchecked=True))
        schedule = run_lta(inst)
        ops = inst.operations_by_id
        for machine in inst.machines:
            seq = sorted((p for p in schedule.placements if p.machine == machine),
                         key=lambda p: p.start)
            last_family = None
            for p in seq:
                family = ops[p.operation_id].family
                assert p.setup_performed == (family != last_family)
                last_family = family

    def test_never_beats_exhaustive_optimum_decoded_identically(self):
        # micro instances: greedy result is bounded below by the optimum
        # over every (assignment, order) decoded the same way
        from chromsched.annealing import decode
        for seed in range(6):
            inst = generate_instance(GenConfig(
                n_jobs=3, n_routings=2, n_machines=2, n_column_types=2,
                seed=seed, unchecked=True))
            if inst.n_operations > 5:
                continue
            best = min(total_tardiness(decode(enc, inst), inst)
                       for enc in all_encodings(inst))
            got = total_tardiness(run_lta(inst), inst)
            assert got >= best
