import math
import random

import pytest

from chromsched.availability import TimeWindowSet
from chromsched.list_scheduler import (_refresh, _select_pool, candidate_times,
                                       commit_assignment, init_state)
from chromsched.model import ColumnType, Instance, Job, Operation
from chromsched.rules import (Candidate, MachinePolicy, Rule, RuleParams,
                              atc_priority, atcoee_priority, atcoeef_priority,
                              atcs_priority, select_assignment)


def cand(op=0, machine=0, p=100, s=20, due=300, clock=0, start=None,
         setup=True, flexibility=1):
    if start is None:
        start = clock
    completion = start + p + (s if setup else 0)
    return Candidate(
        machine=machine, op=op, start=start, completion=completion,
        setup_required=setup, machine_clock=clock, due=due, processing=p,
        setup=s, flexibility=flexibility)


def ids(state, c):
    """A list-scheduler candidate's (operation id, machine id)."""
    return state.ci.op_ids[c.op], state.ci.machine_ids[c.machine]


def one_op_jobs(specs, machines):
    """An instance of one-operation jobs, given as (job id, due, eligible
    machines); every operation is family fA with p 100 and s 20, and the
    column never binds."""
    jobs = tuple(
        Job(id=job, release=0, due=due, operations=(Operation(
            id=f"{job}.1", job_id=job, family="fA", processing=100, setup=20,
            eligible=frozenset(eligible)),))
        for job, due, eligible in specs)
    return Instance(machines=machines,
                    column_types=(ColumnType("fA", len(specs)),),
                    operator_windows=TimeWindowSet.always(0), jobs=jobs)


def policy_then_rule(state, params):
    """The list scheduler's selection step on `state`."""
    _refresh(state)
    return _select_pool(state, params, random.Random(0))


class TestAtc:
    def test_critical_job_clamps_to_inverse_processing(self):
        c = cand(p=100, due=50, clock=0)  # negative slack
        assert atc_priority(c, 100.0, RuleParams(k1=1)) == pytest.approx(0.01)

    def test_direct_formula(self):
        c = cand(p=100, due=300, clock=0)
        got = atc_priority(c, 100.0, RuleParams(k1=1))
        assert got == pytest.approx(0.01 * math.exp(-2), rel=1e-9)
        assert got == pytest.approx(0.0013534, abs=5e-8)

    def test_shorter_job_wins_at_zero_slack(self):
        short = cand(p=50, due=0)
        long = cand(p=100, due=0)
        params = RuleParams(k1=1)
        assert atc_priority(short, 75.0, params) == pytest.approx(0.02)
        assert atc_priority(long, 75.0, params) == pytest.approx(0.01)

    def test_monotone_in_slack_and_processing(self):
        params = RuleParams(k1=2)
        tighter = atc_priority(cand(p=100, due=300), 100.0, params)
        looser = atc_priority(cand(p=100, due=400), 100.0, params)
        assert tighter > looser


class TestAtcs:
    def test_no_setup_equals_atc(self):
        c = cand(setup=False)
        params = RuleParams(k1=1, k2=1)
        assert atcs_priority(c, 100.0, 50.0, params) == pytest.approx(
            atc_priority(c, 100.0, params), rel=1e-12)

    def test_mean_setup_costs_one_e(self):
        c = cand(s=50, setup=True)
        params = RuleParams(k1=1, k2=1)
        assert atcs_priority(c, 100.0, 50.0, params) == pytest.approx(
            atc_priority(c, 100.0, params) * math.exp(-1), rel=1e-12)

    def test_longer_setup_scores_lower(self):
        params = RuleParams()
        small = atcs_priority(cand(s=10), 100.0, 50.0, params)
        large = atcs_priority(cand(s=20), 100.0, 50.0, params)
        assert large < small


class TestAtcoee:
    def test_immediate_no_setup_start_is_fully_effective(self):
        c = cand(p=100, s=0, setup=False, clock=50, start=50, due=0)
        params = RuleParams(k1=1, k2=2)
        assert atcoee_priority(c, 100.0, params) == pytest.approx(
            atc_priority(c, 100.0, params) * math.exp(1 / 2), rel=1e-12)

    def test_half_effectiveness_with_equal_setup(self):
        c = cand(p=60, s=60, setup=True, clock=0, start=0, due=0)
        params = RuleParams(k1=1, k2=1)
        # completion - clock = 120, OEE = 0.5
        assert atcoee_priority(c, 60.0, params) == pytest.approx(
            atc_priority(c, 60.0, params) * math.exp(0.5), rel=1e-12)

    def test_waiting_lowers_priority(self):
        params = RuleParams()
        punctual = atcoee_priority(cand(start=0, clock=0), 100.0, params)
        delayed = atcoee_priority(cand(start=40, clock=0), 100.0, params)
        assert delayed < punctual

    def test_malformed_candidate_rejected(self):
        c = cand(start=-500, p=10, s=10, clock=0)  # completes before the clock
        with pytest.raises(ValueError):
            atcoee_priority(c, 100.0, RuleParams())


class TestAtcoeef:
    def test_full_flexibility_penalty(self):
        c = cand(flexibility=10)
        params = RuleParams(k1=1, k2=1, k3=2)
        assert atcoeef_priority(c, 100.0, 10, params) == pytest.approx(
            atcoee_priority(c, 100.0, params) * math.exp(-1 / 2), rel=1e-12)

    def test_fractional_flexibility(self):
        c = cand(flexibility=2)
        params = RuleParams(k1=1, k2=1, k3=1)
        assert atcoeef_priority(c, 100.0, 10, params) == pytest.approx(
            atcoee_priority(c, 100.0, params) * math.exp(-0.2), rel=1e-12)

    def test_large_k3_recovers_atcoee(self):
        c = cand(flexibility=2)
        params = RuleParams(k1=1, k2=1, k3=1e15)
        assert atcoeef_priority(c, 100.0, 10, params) == pytest.approx(
            atcoee_priority(c, 100.0, RuleParams(k1=1, k2=1)), rel=1e-12)


class TestScoresPositiveFinite:
    def test_all_rules_positive_finite(self):
        rng = random.Random(3)
        params = RuleParams()
        for _ in range(200):
            c = cand(p=rng.randint(1, 2000), s=rng.randint(0, 2000),
                     due=rng.randint(-5000, 20000), clock=rng.randint(0, 9000),
                     start=rng.randint(9000, 12000),
                     setup=bool(rng.getrandbits(1)))
            for score in (
                    atc_priority(c, 700.0, params),
                    atcs_priority(c, 700.0, 400.0, params),
                    atcoee_priority(c, 700.0, params),
                    atcoeef_priority(c, 700.0, 10, params)):
                assert 0.0 < score < math.inf


class TestSelectAssignment:
    def test_singleton(self):
        only = cand()
        got = select_assignment([only], RuleParams(), random.Random(0),
                                p_bar=100.0, s_bar=10.0, total_machines=2)
        assert got is only

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            select_assignment([], RuleParams(), random.Random(0),
                              p_bar=1.0, s_bar=1.0, total_machines=1)

    def test_ffm_restricts_to_first_freed_machine(self):
        inst = one_op_jobs([("a", 0, ("m1",)), ("b", 10_000, ("m0",)),
                            ("c", 10_000, ("m1",))], machines=("m0", "m1"))
        state = init_state(inst)
        (first,) = [c for c in candidate_times(state)
                    if ids(state, c)[0] == "c.1"]
        commit_assignment(state, first)  # m1 now frees at 120, m0 at 0
        got = policy_then_rule(state, RuleParams())
        # m0 frees first even though its job is laxer; ATCOEE alone would
        # take the overdue a.1, which also needs no setup on m1
        assert ids(state, got) == ("b.1", "m0")

    def test_lfm_lfo_trace(self):
        # loads (clock + p / |eligible| per schedulable op): m0 100/3 + 100,
        # m1 100/3 + 50, m2 100/3 + 50 + 100.  LFM picks m1, LFO the
        # narrowest eligible set there; LFO alone would take c.1 or e.1, and
        # a bare count of schedulable ops would tie m0 with m1
        inst = one_op_jobs([("a", 10_000, ("m0", "m1", "m2")),
                            ("c", 10_000, ("m0",)),
                            ("d", 10_000, ("m1", "m2")),
                            ("e", 10_000, ("m2",))],
                           machines=("m0", "m1", "m2"))
        params = RuleParams(rule=Rule.LFO, machine_policy=MachinePolicy.LFM)
        state = init_state(inst)
        got = policy_then_rule(state, params)
        assert ids(state, got) == ("d.1", "m1")

    def test_edd_picks_earliest_due(self):
        pool = [cand(op=0, due=500), cand(op=1, due=200)]
        params = RuleParams(rule=Rule.EDD)
        got = select_assignment(pool, params, random.Random(0),
                                p_bar=100.0, s_bar=10.0, total_machines=2)
        assert got.due == 200

    def test_random_rule_deterministic_per_seed(self):
        pool = [cand(op=o) for o in range(3)]
        params = RuleParams(rule=Rule.RANDOM)
        first = select_assignment(list(pool), params, random.Random(42),
                                  p_bar=100.0, s_bar=10.0, total_machines=2)
        second = select_assignment(list(reversed(pool)), params,
                                   random.Random(42),
                                   p_bar=100.0, s_bar=10.0, total_machines=2)
        assert first is second  # canonical ordering, same draw

    def test_selected_is_argmax_of_rule_score(self):
        rng = random.Random(9)
        params = RuleParams(rule=Rule.ATCOEE)
        for _ in range(50):
            pool = [cand(op=i, p=rng.randint(1, 500), s=rng.randint(0, 300),
                         due=rng.randint(0, 5000), clock=0,
                         start=rng.randint(0, 100),
                         setup=bool(rng.getrandbits(1)))
                    for i in range(6)]
            got = select_assignment(list(pool), params, rng,
                                    p_bar=250.0, s_bar=150.0, total_machines=3)
            best = max(atcoee_priority(c, 250.0, params) for c in pool)
            assert atcoee_priority(got, 250.0, params) == pytest.approx(best)

    def test_tie_breaks_lexicographic(self):
        # index order is (machine id, job id, operation id) order
        a = cand(op=0, machine=1)
        b = cand(op=1, machine=1)
        c = cand(op=2, machine=0)
        params = RuleParams(rule=Rule.ATC)  # identical scores
        got = select_assignment([b, a], params, random.Random(0),
                                p_bar=100.0, s_bar=10.0, total_machines=2)
        assert got.op == 0
        got = select_assignment([a, c], params, random.Random(0),
                                p_bar=100.0, s_bar=10.0, total_machines=2)
        assert got is c  # machine before operation


class TestLabels:
    def test_canonical_labels(self):
        assert RuleParams().label() == "atcoee.10.1"
        assert RuleParams(rule=Rule.ATCS, k1=1, k2=1).label() == "atcs.1.1"
        assert RuleParams(rule=Rule.ATC).label() == "atc.10"
        assert RuleParams(rule=Rule.ATCOEEF).label() == "atcoeef.10.1.10"
        assert RuleParams(rule=Rule.LFO,
                          machine_policy=MachinePolicy.LFM).label() == "lfm_lfo"
        assert RuleParams(rule=Rule.EDD).label() == "edd"
        assert RuleParams(rule=Rule.RANDOM).label() == "random"

    def test_labels_carry_exactly_the_constants_the_rule_reads(self):
        ks = dict(k1=2, k2=3, k3=4)
        assert RuleParams(rule=Rule.ATC, **ks).label() == "atc.2"
        assert RuleParams(rule=Rule.ATCS, **ks).label() == "atcs.2.3"
        assert RuleParams(rule=Rule.ATCOEE, **ks).label() == "atcoee.2.3"
        assert RuleParams(rule=Rule.ATCOEEF, **ks).label() == "atcoeef.2.3.4"
        for rule in (Rule.EDD, Rule.LFO, Rule.RANDOM):
            assert RuleParams(rule=rule, **ks).label() == rule.value


class TestRuleParams:
    @pytest.mark.parametrize("name", ["k1", "k2", "k3"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_refuses_constants_not_positive_and_finite(self, name, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            RuleParams(**{name: bad})
