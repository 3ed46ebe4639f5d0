import copy
import hashlib
import logging
import random
from dataclasses import replace

import pytest

from chromsched import list_scheduler
from chromsched.availability import TimeWindowSet, find_earliest, reserve_step
from chromsched.errors import SchedulingError
from chromsched.experiments import parse_algorithm
from chromsched.generator import GenConfig, generate_instance
from chromsched.list_scheduler import (_bring_up_to_date, _refresh,
                                       _select_pool, commit_assignment,
                                       init_state, run_lta)
from chromsched.model import (ColumnType, Instance, Job, Operation,
                              total_tardiness, validate_schedule)
from chromsched.rules import MachinePolicy, Rule, RuleParams, select_assignment

from oracles import (always_open, run_lta_full_recompute, scan_earliest,
                     sgs_optimum)


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
        operator_windows=windows or always_open(),
        jobs=tuple(jobs))


def no_window_left_instance():
    """One machine with one operator window [0, 10): whichever of the two
    operations goes first, the other's setup finds no window left."""
    return tiny_instance([[("fA", 20, 5, ("m0",))], [("fB", 20, 5, ("m0",))]],
                         machines=("m0",), windows=TimeWindowSet(((0, 10),)))


# every rule token of the experiments' LTA rows
TOKENS = ("atcoee", "atcoeef", "atcs", "atc", "edd", "random", "lfm_lfo")


def contention_instance(seed):
    """One-unit columns make every same-family booking a conflict, and
    30-minute operator windows every 4 hours make setups queue for a
    window, so a cached candidate that a commit overlaps is common."""
    windows = TimeWindowSet(tuple((k * 240, k * 240 + 30)
                                  for k in range(-48, 600)))
    base = generate_instance(GenConfig(
        n_jobs=16, n_routings=6, n_column_types=4, flex_mean=4,
        seed=seed, unchecked=True))
    return replace(base, operator_windows=windows,
                   column_types=tuple(ColumnType(c.family, 1)
                                      for c in base.column_types))


def candidate_times(state):
    """Every feasible (machine, operation) candidate of `state` after a
    refresh, in (machine id, job id, operation id) order."""
    _refresh(state)
    return sorted(c for cached in state.candidates
                  for c in cached.values() if c is not None)


def staggered_one_unit_shop():
    """Five machines with one fA operation each and one fA unit, their
    candidates cached at [40, 70), [11, 41), [10, 40), [69, 99) and
    [70, 100)."""
    machines = ("m0", "m1", "m2", "m3", "m4")
    inst = tiny_instance([[("fA", 20, 10, (m,))] for m in machines],
                         machines=machines, columns=(("fA", 1),))
    state = init_state(inst)
    state.clocks[:] = [40, 11, 10, 69, 70]
    cands = candidate_times(state)
    assert [(c.start, c.completion) for c in cands] == [
        (40, 70), (11, 41), (10, 40), (69, 99), (70, 100)]
    return state, cands


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
        state.stale.clear()
        state.pending[0].add(0)
        (c,) = candidate_times(state)
        assert c.start >= 500

    def test_one_candidate_per_eligible_machine(self):
        inst = tiny_instance([[("fA", 20, 10, ("m0", "m1"))]])
        cands = candidate_times(init_state(inst))
        assert [c.machine for c in cands] == [0, 1]

    def test_an_overrun_resumes_at_the_end_of_the_shared_free_run(
            self, monkeypatch):
        # fA is booked over [20, 40) and [60, 100): both operations probe
        # the free run [0, 20) once; the shorter fits, the longer resumes
        # the search at minute 20 and lands where the minute scan does
        inst = tiny_instance([[("fA", 10, 5, ("m0",))],
                              [("fA", 30, 5, ("m0",))]], machines=("m0",))
        state = init_state(inst)
        f = state.ci.family[0]
        booked = [(20, 40), (60, 100)]
        for a, b in booked:
            reserve_step(state.prof_times[f], state.prof_levels[f], a, b)
        searches = []

        def traced(*args):
            searches.append(args[4:])
            return find_earliest(*args)

        monkeypatch.setattr(list_scheduler, "find_earliest", traced)
        short, long_ = candidate_times(state)
        assert searches == [(0, 1), (20, 35)]
        assert (short.start, short.completion) == (0, 15)
        assert long_.start == scan_earliest(0, 35, [], 1, booked, 200,
                                            False) == 100


class TestCommit:
    def test_removes_op_everywhere_and_advances_clock(self):
        inst = tiny_instance([[("fA", 20, 10, ("m0", "m1"))],
                              [("fB", 30, 5, ("m0", "m1"))]])
        state = init_state(inst)
        cands = candidate_times(state)
        chosen = next(c for c in cands if (c.op, c.machine) == (0, 0))
        commit_assignment(state, chosen)
        assert all(0 not in state.candidates[m] for m in range(2))
        assert state.clocks[0] == chosen.completion
        remaining = candidate_times(state)
        assert {c.op for c in remaining} == {1}

    def test_repends_exactly_the_overlapping_same_family_pairs(self):
        # After j0.1 books [40, 70) on m0, the fA candidates cached at
        # [11, 41) and [69, 99) overlap it by one minute and must be
        # recomputed; those at [10, 40) and [70, 100) only touch it.
        state, cands = staggered_one_unit_shop()
        commit_assignment(state, cands[0])
        assert state.stale == {0}
        assert state.pending == [set(), {1}, set(), {3}, set()]
        after = candidate_times(state)
        assert [(c.start, c.completion) for c in after] == [
            (70, 100), (10, 40), (70, 100), (70, 100)]
        assert after[1] == cands[2] and after[3] == cands[4]

    def test_pends_nothing_on_a_stale_machine(self):
        # As above, but m3 is stale when j0.1 commits: its overlapping pair
        # is recomputed with the rest of m3, so it is not pended.
        state, cands = staggered_one_unit_shop()
        state.stale.add(3)
        commit_assignment(state, cands[0])
        assert state.stale == {0, 3}
        assert state.pending == [set(), {1}, set(), set(), set()]
        after = candidate_times(state)
        assert [(c.start, c.completion) for c in after] == [
            (70, 100), (10, 40), (70, 100), (70, 100)]

    def test_a_committed_operation_leaves_every_pending_set(self):
        # One fA unit.  j0.1 books [0, 30) on m0 and pends j1.1 on m1; j1.1
        # then commits on m0 while m1 is not yet up to date, and must not
        # come back as a candidate when m1 is refreshed.
        inst = tiny_instance([[("fA", 20, 10, ("m0",))],
                              [("fA", 20, 10, ("m0", "m1"))]],
                             columns=(("fA", 1),))
        state = init_state(inst)
        first, second, _ = candidate_times(state)
        assert [(c.machine, c.op) for c in (first, second)] == [(0, 0), (0, 1)]
        commit_assignment(state, first)
        assert state.pending == [set(), {1}]
        _bring_up_to_date(state, 0)
        commit_assignment(state, state.candidates[0][1])
        assert state.pending == [set(), set()]
        assert candidate_times(state) == []


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

    def test_no_window_left_raises_and_names_the_cause(self, caplog):
        # one error names the stuck operations; the retries log nothing
        with caplog.at_level(logging.DEBUG):
            with pytest.raises(SchedulingError) as err:
                run_lta(no_window_left_instance())
        assert str(err.value) == (
            "no open operation can be placed on any machine: no operator "
            "window is left for the setup of 1 open operation(s), first "
            "j1.1 on m0")
        assert caplog.records == []

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
            for token in TOKENS:
                params = parse_algorithm(token).rule_params
                assert run_lta(inst, params, seed=1) == run_lta_full_recompute(
                    inst, params, seed=1)

    def test_invalidation_under_column_and_window_contention(self):
        for seed in range(3):
            inst = contention_instance(seed)
            for token in TOKENS:
                params = parse_algorithm(token).rule_params
                fast = run_lta(inst, params, seed=seed)
                assert fast == run_lta_full_recompute(inst, params, seed=seed)
                assert validate_schedule(inst, fast) == []

    def test_no_scheduled_operation_stays_cached_or_pending(self):
        # run_lta's loop by hand: a committed operation leaves every
        # machine's candidates and pending set, and a stale machine has
        # nothing pending (its refresh recomputes every open pair)
        for seed in range(3):
            inst = contention_instance(seed)
            for token in TOKENS:
                params = parse_algorithm(token).rule_params
                state = init_state(inst)
                rng = random.Random(seed)
                scheduled = set()
                for _ in range(state.ci.n_ops):
                    chosen = _select_pool(state, params, rng)
                    commit_assignment(state, chosen)
                    scheduled.add(chosen.op)
                    for m, cached in enumerate(state.candidates):
                        assert not scheduled & cached.keys(), (token, m)
                        assert not scheduled & state.pending[m], (token, m)
                    assert not any(state.pending[m] for m in state.stale)

    def test_lazy_selection_equals_selection_after_a_full_refresh(self):
        # at every loop, the lazy selection picks what the selection on a
        # copy brought fully up to date picks, from the same RNG state
        for seed in range(3):
            inst = contention_instance(seed)
            for token in TOKENS:
                params = parse_algorithm(token).rule_params
                state = init_state(inst)
                rng = random.Random(seed)
                for _ in range(state.ci.n_ops):
                    eager = copy.deepcopy(state, {id(state.ci): state.ci})
                    _refresh(eager)
                    assert not eager.stale and not any(eager.pending)
                    eager_rng = random.Random()
                    eager_rng.setstate(rng.getstate())
                    expected = _select_pool(eager, params, eager_rng)
                    chosen = _select_pool(state, params, rng)
                    assert chosen == expected, token
                    assert rng.getstate() == eager_rng.getstate()
                    commit_assignment(state, chosen)

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
        # micro instances: greedy result is bounded below by the serial
        # generation optimum over every assignment and order
        for seed in range(6):
            inst = generate_instance(GenConfig(
                n_jobs=3, n_routings=2, n_machines=2, n_column_types=2,
                seed=seed, unchecked=True))
            if inst.n_operations > 5:
                continue
            best = sgs_optimum(inst)
            got = total_tardiness(run_lta(inst), inst)
            assert got >= best


# Keyed by (instance seed, algorithm token); run seed 0.  SHA-256 prefixes of
# repr(run_lta(...).placements) on the instances the SA pins use, computed
# when candidates still carried Operation objects and machine-id strings.
PINNED_LTA_FINGERPRINTS = {
    (0, "random"): "33aec6a79221d3c4",
    (0, "edd"): "ed3d62666e4c6e14",
    (0, "atc"): "dd560b177a34dfa7",
    (0, "atcs"): "74df04ef0b22d2de",
    (0, "atcoee"): "7cc166c6d319e837",
    (0, "atcoeef"): "7cc166c6d319e837",
    (0, "lfm_lfo"): "b14a4a17bb958026",
    (0, "lfm_atcoee"): "f2a315d201aae635",
    (2, "random"): "d8d3e1cf8e09e80b",
    (2, "edd"): "134b01081c5a221b",
    (2, "atc"): "20bc7cba54ec937a",
    (2, "atcs"): "1cfe9967c45b2032",
    (2, "atcoee"): "f791f83edfbeecd1",
    (2, "atcoeef"): "54dd456404b37fa2",
    (2, "lfm_lfo"): "c57fa8c453ab1907",
    (2, "lfm_atcoee"): "f48313ed62dfadaa",
}


@pytest.mark.parametrize("instance_seed,token", list(PINNED_LTA_FINGERPRINTS),
                         ids=[f"{s}-{t}" for s, t in PINNED_LTA_FINGERPRINTS])
def test_lta_schedules_match_pinned_fingerprints(instance_seed, token):
    inst = generate_instance(GenConfig(
        n_jobs=40, n_routings=5, n_machines=3, n_column_types=4,
        seed=instance_seed, unchecked=True))
    schedule = run_lta(inst, parse_algorithm(token).rule_params)
    digest = hashlib.sha256(repr(schedule.placements).encode()).hexdigest()
    assert digest[:16] == PINNED_LTA_FINGERPRINTS[instance_seed, token]
