import hashlib
import math
import random
import re
from collections import Counter
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import pytest

from chromsched import annealing, engine
from chromsched.annealing import (_MOVES, _RESAMPLE_LIMIT, SaParams,
                                  Structure, _attempt, _draw_index, _move,
                                  _op_weights, _pack_of, _propose,
                                  _second_items, _Solution,
                                  initial_temperature, run_sa)
from chromsched.availability import TimeWindowSet
from chromsched.engine import (compile_instance, place_sequences,
                               schedule_from_arrays)
from chromsched.errors import NoSlotError
from chromsched.experiments import parse_algorithm
from chromsched.generator import GenConfig, generate_design, generate_instance
from chromsched.list_scheduler import run_lta
from chromsched.model import (ColumnType, Instance, Job, Operation,
                              PlacedOperation, Schedule, total_tardiness,
                              validate_schedule)

from oracles import always_open, enumerated_optimum, pack_partition


def tiny_instance(job_specs, machines=("m0",), columns=(("fA", 1), ("fB", 1)),
                  windows=None):
    jobs = []
    for job_id, release, due, ops in job_specs:
        jobs.append(Job(
            id=job_id, release=release, due=due,
            operations=tuple(
                Operation(id=f"{job_id}.{i+1}", job_id=job_id, family=fam,
                          processing=p, setup=s, eligible=frozenset(elig))
                for i, (fam, p, s, elig) in enumerate(ops))))
    return Instance(machines=tuple(machines),
                    column_types=tuple(ColumnType(f, u) for f, u in columns),
                    operator_windows=windows or always_open(),
                    jobs=tuple(jobs))


def shared_column_instance():
    """Two machines share one fA unit; operators work [0, 50).  LTA runs
    j1.1 on m1 first (tardiness 5).  Had j0.1 gone first, it would hold the
    column until 105, after the last window, and j1.1's setup would find
    none."""
    return tiny_instance([("j0", 0, 1000, [("fA", 100, 5, ("m0",))]),
                          ("j1", 0, 10, [("fA", 10, 5, ("m1",))])],
                         machines=("m0", "m1"), columns=(("fA", 1),),
                         windows=TimeWindowSet(((0, 50),)))


def two_machine_instance(j0_release=0, extra=()):
    """One fA unit; j0.1 (p 100, due 1000) may only run on m0 and j1.1
    (p 10, due 10) only on m1, so whichever is listed first takes the
    column first.  `extra` adds jobs."""
    return tiny_instance([("j0", j0_release, 1000, [("fA", 100, 0, ("m0",))]),
                          ("j1", 0, 10, [("fA", 10, 0, ("m1",))]),
                          *extra],
                         machines=("m0", "m1"))


def solution(inst, mapping):
    """The annealer's solution state for per-machine sequences of operation
    ids, listed machine after machine, decoded as `run_sa` decodes it."""
    ci = compile_instance(inst)
    order, machine_of = [], [0] * ci.n_ops
    for machine, op_ids in mapping.items():
        for op_id in op_ids:
            o = ci.op_index[op_id]
            order.append(o)
            machine_of[o] = ci.machine_index[machine]
    return ci, _Solution(ci, place_sequences(ci, order, machine_of))


def start_order(ci, schedule):
    """A schedule's operations in (start, machine, operation) order and the
    machine of each, the list and assignment `run_sa` starts from."""
    placements = sorted(schedule.placements,
                        key=lambda p: (p.start, p.machine, p.operation_id))
    order = [ci.op_index[p.operation_id] for p in placements]
    machine_of = [0] * ci.n_ops
    for o, p in zip(order, placements):
        machine_of[o] = ci.machine_index[p.machine]
    return order, machine_of


def greedy_solution(inst):
    """The solution `run_sa` starts from: the greedy schedule's start order
    and machines, decoded."""
    ci = compile_instance(inst)
    decoded = place_sequences(ci, *start_order(ci, run_lta(inst)))
    return ci, _Solution(ci, decoded)


def schedule_of(ci, sol):
    return schedule_from_arrays(ci, sol.seqs, sol.starts, sol.comps, sol.setups)


def op_ids_on(ci, proposal, machine):
    order, machine_of, _ = proposal
    m = ci.machine_index[machine]
    return tuple(ci.op_ids[o] for o in order if machine_of[o] == m)


def pack_ops(ci, sol, pack):
    return tuple(ci.op_ids[o] for o in sol.seqs[pack.machine][pack.lo:pack.hi])


#: The paper's move rows 1-7, row r at index r - 1, and SIMPLE's one move.
MOVES = _MOVES[Structure.OP_PA]
(SIMPLE_MOVE,) = _MOVES[Structure.SIMPLE]


class TestMechanismTable:
    # frozen rows: (exchange, single operations, family-constrained, machine)
    EXPECTED = {
        1: (False, True, True, "em"),
        2: (True, True, True, "em"),
        3: (False, True, False, "unif"),
        4: (False, False, True, "em"),
        5: (True, False, True, "em"),
        6: (False, False, False, "unif"),
        7: (True, False, False, "idem"),
    }

    @pytest.mark.parametrize("row", sorted(EXPECTED))
    def test_row(self, row):
        move = MOVES[row - 1]
        assert (move.exchange, move.op, move.same_family,
                move.machines) == self.EXPECTED[row]

    def test_structure_sets(self):
        assert set(_MOVES) == set(Structure)
        assert len(MOVES) == len(self.EXPECTED)
        assert _MOVES[Structure.OP] == MOVES[:3]
        assert _MOVES[Structure.SIMPLE] == MOVES[2:3]

    def test_simple_row_is_the_old_row_0(self):
        # SIMPLE's one move inserts a single operation, with no family
        # constraint, on one uniformly drawn eligible machine
        assert (SIMPLE_MOVE.exchange, SIMPLE_MOVE.op, SIMPLE_MOVE.same_family,
                SIMPLE_MOVE.machines) == (False, True, False, "unif")


class TestInitialTemperature:
    def test_printed_value(self):
        assert initial_temperature(100.0, 0.8) == pytest.approx(448.14, abs=0.01)

    def test_acceptance_probability_holds(self):
        t0 = initial_temperature(250.0, 0.8)
        assert math.exp(-250.0 / t0) == pytest.approx(0.8, rel=1e-12)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            initial_temperature(0.0, 0.8)
        with pytest.raises(ValueError):
            initial_temperature(10.0, 1.0)


class TestSaParams:
    @pytest.mark.parametrize("field, value", [("max_iterations", -5)])
    def test_refuses_counts_it_cannot_honour(self, field, value):
        with pytest.raises(ValueError, match=field):
            SaParams(**{field: value})

    def test_unlimited_and_zero_counts_stay_valid(self):
        SaParams(max_iterations=None)
        SaParams(max_iterations=0)

    def test_a_value_string_becomes_its_structure(self):
        assert SaParams(structure="op").structure is Structure.OP

    @pytest.mark.parametrize("bad", ["OP", "op+pa", "pack"])
    def test_refuses_an_unknown_structure(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            SaParams(structure=bad)


class TestDecode:
    def test_same_family_pair_one_setup(self):
        inst = tiny_instance([
            ("j0", 0, 10_000, [("fA", 20, 10, ("m0",))]),
            ("j1", 0, 10_000, [("fA", 30, 10, ("m0",))]),
        ])
        ci, sol = solution(inst, {"m0": ("j0.1", "j1.1")})
        schedule = schedule_of(ci, sol)
        assert sum(p.setup_performed for p in schedule.placements) == 1
        assert validate_schedule(inst, schedule) == []

    def test_swapping_same_family_ops_keeps_setup_count(self):
        inst = tiny_instance([
            ("j0", 0, 10_000, [("fA", 20, 10, ("m0",))]),
            ("j1", 0, 10_000, [("fA", 30, 10, ("m0",))]),
        ])
        forward = schedule_of(*solution(inst, {"m0": ("j0.1", "j1.1")}))
        backward = schedule_of(*solution(inst, {"m0": ("j1.1", "j0.1")}))
        assert (sum(p.setup_performed for p in forward.placements)
                == sum(p.setup_performed for p in backward.placements) == 1)
        assert (forward.by_operation["j0.1"].completion
                != backward.by_operation["j0.1"].completion)

    def test_no_slot_within_horizon_is_error(self):
        inst = tiny_instance(
            [("j0", 0, 10_000, [("fA", 20, 10, ("m0",))])],
            windows=TimeWindowSet(((-10, -5),)))  # operators never available
        with pytest.raises(NoSlotError):
            place_sequences(compile_instance(inst), [0], [0])

    def test_redecoding_greedy_output_stays_feasible_and_rarely_differs(self):
        # The greedy schedule's operations in start order, each on its
        # machine, decode to that very schedule on all 100 frozen draws:
        # the list scheduler builds a serial-generation schedule.
        for seed in range(100):
            inst = generate_instance(GenConfig(
                n_jobs=8 + seed % 10, n_routings=4, n_machines=3,
                n_column_types=4, seed=seed, unchecked=True))
            sched = run_lta(inst)
            ci = compile_instance(inst)
            decoded = place_sequences(ci, *start_order(ci, sched))
            redecoded = schedule_from_arrays(
                ci, decoded.seqs, decoded.starts, decoded.comps,
                decoded.setups)
            assert validate_schedule(inst, redecoded) == []
            assert redecoded == sched

    def test_the_list_decides_which_machine_takes_a_shared_column(self):
        # Per-machine sequences alone cannot run j1.1 first here, so every
        # one of them decodes to tardiness 100; the list can.
        inst = two_machine_instance()
        ci = compile_instance(inst)
        j0, j1 = ci.op_index["j0.1"], ci.op_index["j1.1"]
        machine_of = [0] * ci.n_ops
        machine_of[j1] = 1
        assert place_sequences(ci, [j0, j1], machine_of).tardiness == 100
        decoded = place_sequences(ci, [j1, j0], machine_of)
        assert (decoded.tardiness, decoded.starts[j1], decoded.starts[j0]) == (
            0, 0, 10)
        assert enumerated_optimum(inst) == 0


def on_demand_packs(sol, m):
    """Machine m's packs as `_pack_of` finds them from each position."""
    seq = sol.seqs[m]
    return sorted({_pack_of(sol, seq, p) for p in range(len(seq))})


class TestPacks:
    def test_setup_splits_packs(self):
        inst = tiny_instance([
            ("j0", 0, 10_000, [("fA", 20, 10, ("m0",))]),
            ("j1", 0, 10_000, [("fA", 30, 10, ("m0",))]),
            ("j2", 0, 10_000, [("fB", 15, 10, ("m0",))]),
        ])
        ci, sol = solution(inst, {"m0": ("j0.1", "j1.1", "j2.1")})
        (packs,) = pack_partition(ci, sol)
        assert [pack_ops(ci, sol, p) for p in packs] == [
            ("j0.1", "j1.1"), ("j2.1",)]
        assert [ci.family_ids[p.family] for p in packs] == ["fA", "fB"]
        assert on_demand_packs(sol, 0) == [(0, 2), (2, 3)]

    def test_idle_gap_splits_packs(self):
        # second op not released until after the first completes: forced gap
        inst = tiny_instance([
            ("j0", 0, 10_000, [("fA", 20, 10, ("m0",))]),
            ("j1", 500, 10_000, [("fA", 30, 10, ("m0",))]),
        ])
        ci, sol = solution(inst, {"m0": ("j0.1", "j1.1")})
        (packs,) = pack_partition(ci, sol)
        assert [pack_ops(ci, sol, p) for p in packs] == [("j0.1",), ("j1.1",)]
        assert on_demand_packs(sol, 0) == [(0, 1), (1, 2)]

    def test_single_op_is_a_pack(self):
        inst = tiny_instance([("j0", 0, 10_000, [("fA", 20, 10, ("m0",))])])
        ci, sol = solution(inst, {"m0": ("j0.1",)})
        ((pack,),) = pack_partition(ci, sol)
        assert pack_ops(ci, sol, pack) == ("j0.1",)
        assert (pack.lo, pack.hi) == (0, 1)
        assert on_demand_packs(sol, 0) == [(0, 1)]


class TestItemSelection:
    def make_three_late_jobs(self):
        # three independent late jobs with tardiness 10 / 30 / 60
        inst = tiny_instance([
            ("j0", 0, 20, [("fA", 30, 0, ("m0",))]),
            ("j1", 0, 10, [("fB", 40, 0, ("m1",))]),
            ("j2", 0, 40, [("fA", 100, 0, ("m2",))]),
        ], machines=("m0", "m1", "m2"), columns=(("fA", 2), ("fB", 1)))
        return solution(inst, {"m0": ("j0.1",), "m1": ("j1.1",),
                               "m2": ("j2.1",)})

    def test_weights_are_tardiness_shares(self):
        ci, sol = self.make_three_late_jobs()
        weights = dict(zip(ci.op_ids, _op_weights(ci, sol.comps)))
        assert weights == {"j0.1": 10.0, "j1.1": 30.0, "j2.1": 60.0}
        total = sum(weights.values())
        assert [weights[k] / total for k in ("j0.1", "j1.1", "j2.1")] == [
            pytest.approx(0.1), pytest.approx(0.3), pytest.approx(0.6)]
        assert sol.op_total == total == sol.tardiness

    def test_pack_weights_sum_member_shares(self):
        # A pack is drawn through its members, so its draw mass is the sum
        # of theirs: the reference weights, and the draws that land on it.
        ci, sol = self.make_three_late_jobs()
        packs = [p for per_machine in pack_partition(ci, sol)
                 for p in per_machine]
        by_ops = {pack_ops(ci, sol, p): p.weight for p in packs}
        assert by_ops == {("j0.1",): 10.0, ("j1.1",): 30.0, ("j2.1",): 60.0}
        assert sol.op_total == 100.0
        rng = random.Random(3)
        drawn = {p.machine: 0 for p in packs}
        for _ in range(2000):
            o = _draw_index(sol.op_cum, sol.op_total, rng)
            seq = sol.seqs[sol.machine_of[o]]
            assert _pack_of(sol, seq, seq.index(o)) == (0, 1)
            drawn[sol.machine_of[o]] += 1
        assert [drawn[m] / 2000 for m in range(3)] == [
            pytest.approx(0.1, abs=0.03), pytest.approx(0.3, abs=0.03),
            pytest.approx(0.6, abs=0.03)]

    def test_zero_tardiness_items_never_selected(self):
        inst = tiny_instance([
            ("j0", 0, 100_000, [("fA", 30, 0, ("m0",))]),  # on time
            ("j1", 0, 10, [("fB", 40, 0, ("m1",))]),        # late
        ], machines=("m0", "m1"))
        ci, sol = solution(inst, {"m0": ("j0.1",), "m1": ("j1.1",)})
        rng = random.Random(0)
        for _ in range(50):
            o = _draw_index(sol.op_cum, sol.op_total, rng)
            assert ci.op_ids[o] == "j1.1"

    def test_multi_op_job_attribution_sums_to_job_tardiness(self):
        inst = tiny_instance([
            ("j0", 0, 50, [("fA", 30, 0, ("m0",)), ("fB", 80, 0, ("m1",))]),
        ], machines=("m0", "m1"))
        ci, sol = solution(inst, {"m0": ("j0.1",), "m1": ("j0.2",)})
        weights = dict(zip(ci.op_ids, _op_weights(ci, sol.comps)))
        assert sum(weights.values()) == pytest.approx(
            total_tardiness(schedule_of(ci, sol), inst))
        # the op finishing on time contributes nothing
        assert weights["j0.1"] == 0.0

    def test_weights_with_a_negative_horizon_origin(self):
        # both jobs end long before minute -1, 20 and 25 minutes late
        inst = replace(tiny_instance([
            ("j0", -10_000, -9_990, [("fA", 30, 0, ("m0",))]),
            ("j1", -10_000, -9_985, [("fB", 40, 0, ("m1",))]),
        ], machines=("m0", "m1")), horizon_origin=-10_000)
        ci, sol = solution(inst, {"m0": ("j0.1",), "m1": ("j1.1",)})
        assert sol.tardiness == 45
        weights = dict(zip(ci.op_ids, _op_weights(ci, sol.comps)))
        assert weights == {"j0.1": 20.0, "j1.1": 25.0}
        assert sol.op_total == 45.0

    def test_kept_weights_equal_a_full_computation(self, monkeypatch):
        # A random walk over every mechanism: each accepted solution keeps
        # its base's weights and recomputes only the jobs of the operations
        # whose completion changed.  Floats are compared bit for bit.
        searches = []

        def counting(*args):
            searches.append(None)
            return find_earliest(*args)

        find_earliest = engine.find_earliest
        monkeypatch.setattr(engine, "find_earliest", counting)
        rng = random.Random(7)
        inst = generate_instance(GenConfig(
            n_jobs=60, n_routings=6, n_machines=4, n_column_types=4,
            seed=4, unchecked=True))
        ci, sol = greedy_solution(inst)
        accepted = searched_unchanged = 0
        for move in MOVES * 3:
            for _ in range(10):
                proposal = _propose(ci, sol, move, rng)
                if proposal is None:
                    continue
                order, machine_of, first = proposal
                # a wrong position could corrupt the bases after it
                assert first == first_difference(sol.decode, order, machine_of)
                searches.clear()
                try:
                    decoded = place_sequences(ci, order, machine_of,
                                              sol.decode, first)
                except NoSlotError:
                    continue
                if rng.random() < 0.5:
                    continue
                kept = _Solution(ci, decoded, sol)
                full = _Solution(ci, decoded)
                # one search per searched operation; each changed one was
                searched_unchanged += len(searches) - len(decoded.changed)
                assert ([w.hex() for w in kept.weights]
                        == [w.hex() for w in _op_weights(ci, decoded.comps)])
                assert ([w.hex() for w in kept.op_cum]
                        == [w.hex() for w in full.op_cum])
                sol = kept
                accepted += 1
        # many searched operations keep their completion: their jobs are
        # not reweighed
        assert accepted > 50 and searched_unchanged > 100


#: The generated instances the pack checks walk over: overloaded ones, on
#: 3, 5 and 6 machines.
WALKS = [GenConfig(n_jobs=60, n_routings=6, n_machines=n_machines,
                   n_column_types=4, seed=seed, unchecked=True)
         for seed, n_machines in [(33, 3), (4, 5), (8, 6)]]


def walk_id(cfg):
    return f"{cfg.n_jobs}-jobs-{cfg.n_machines}-machines-seed-{cfg.seed}"


def walk(cfg, steps=12):
    """The greedy solution of a generated instance and the solutions a
    random walk over every row accepts after it, each decoded from the
    last."""
    rng = random.Random(cfg.seed)
    ci, sol = greedy_solution(generate_instance(cfg))
    yield ci, sol
    for _ in range(steps):
        proposal = None
        while proposal is None:
            proposal = _propose(ci, sol, rng.choice(MOVES), rng)
        order, machine_of, first = proposal
        try:
            decoded = place_sequences(ci, order, machine_of, sol.decode, first)
        except NoSlotError:
            continue
        sol = _Solution(ci, decoded, sol)
        yield ci, sol


class ScriptedRng:
    """Stands in for `random.Random` in `_attempt`: `random()` returns `u`;
    `randrange(n)` records n and returns the next of `picks`, then n - 1."""

    def __init__(self, u, picks=()):
        self.u, self.picks, self.ranges = u, list(picks), []

    def random(self):
        return self.u

    def randrange(self, n):
        self.ranges.append(n)
        return self.picks.pop(0) if self.picks else n - 1


def drawing(sol, o):
    """A `ScriptedRng` whose draw of a first item is operation o."""
    lo = sol.op_cum[o - 1] if o else 0.0
    rng = ScriptedRng((lo + sol.op_cum[o]) / 2 / sol.op_total)
    assert _draw_index(sol.op_cum, sol.op_total, rng) == o
    return rng


def reference_candidates(packs, p, move, machines):
    """The second items of `move` for the first pack p on `machines`, read
    off the reference partition."""
    return [(m, q.lo, q.hi) for m in machines for q in packs[m]
            if p.ready <= q.start < p.start
            and (not move.same_family or q.family == p.family)
            and (not move.exchange or q.mask >> p.machine & 1)]


class TestPackDraw:
    """The pack rows find packs on demand; the reference is the partition
    the annealer once kept as an index (`oracles.pack_partition`)."""

    @pytest.mark.parametrize("cfg", WALKS, ids=walk_id)
    def test_every_operation_finds_its_reference_pack(self, cfg):
        # and each pack's draw mass, the sum of the shares of the operations
        # that lead to it, is its reference weight
        multi = 0
        for ci, sol in walk(cfg):
            for packs in pack_partition(ci, sol):
                for p in packs:
                    seq = sol.seqs[p.machine]
                    assert [_pack_of(sol, seq, pos)
                            for pos in range(p.lo, p.hi)] == (
                        [(p.lo, p.hi)] * (p.hi - p.lo))
                    mass = sum(sol.weights[o] for o in seq[p.lo:p.hi])
                    assert mass == pytest.approx(p.weight, rel=1e-12,
                                                 abs=1e-9)
                    multi += p.hi - p.lo > 1
        assert multi > 100

    @pytest.mark.parametrize("cfg", WALKS, ids=walk_id)
    def test_pack_rows_match_the_reference(self, cfg):
        # For every drawn operation (positive weight), every pack row and
        # every machine draw: the second-item list equals the reference's,
        # `_attempt` passes its length to `randrange` and makes the move to
        # the item it picks; row 7 takes the reference's next pack.
        checked = {row: 0 for row in (4, 5, 6, 7)}
        for ci, sol in walk(cfg, steps=6):
            ref = pack_partition(ci, sol)
            for packs in ref:
                for p, after in zip(packs, packs[1:] + [None]):
                    seq = sol.seqs[p.machine]
                    for o in seq[p.lo:p.hi]:
                        if sol.weights[o] <= 0:
                            continue
                        for row in (4, 5, 6, 7):
                            checked[row] += self.check_row(
                                ci, sol, ref, p, after, o, MOVES[row - 1])
        assert min(checked.values()) > 50, checked

    def check_row(self, ci, sol, ref, p, after, o, move):
        if move.machines == "idem":
            got = _attempt(ci, sol, move, drawing(sol, o), set())
            assert got == (None if after is None else _move(
                sol.decode, p.machine, after.lo, after.hi, p.machine, p.lo,
                p.hi, True))
            return after is not None
        if p.start <= p.ready:
            assert _attempt(ci, sol, move, drawing(sol, o), set()) is None
            return 0
        if move.machines == "em":
            draws = [(None, p.machines)]
        else:
            draws = [(k, (m,)) for k, m in enumerate(p.machines)]
        found = 0
        for pick, machines in draws:
            expected = reference_candidates(ref, p, move, machines)
            assert _second_items(ci, sol, move, p.machine, p.family, p.ready,
                                 p.start, machines) == expected
            rng = drawing(sol, o)
            if pick is not None:
                rng.picks.append(pick)
            got = _attempt(ci, sol, move, rng, set())
            counts = [] if pick is None else [len(p.machines)]
            if expected:
                counts.append(len(expected))
                assert got == _move(sol.decode, p.machine, p.lo, p.hi,
                                    *expected[-1], move.exchange)
            else:
                assert got is None
            assert rng.ranges == counts
            found += bool(expected)
        return found

    @pytest.mark.parametrize("cfg", WALKS + [GenConfig(n_jobs=70, seed=0)],
                             ids=walk_id)
    def test_a_proposal_draws_as_its_attempts_without_the_failed_set(
            self, cfg):
        # `_propose` gives what its attempts give one by one, each with a
        # fresh failed-item set, and leaves the random stream where they
        # leave it, whether it fails or not.  On the overloaded instances
        # almost every proposal succeeds; on the 70-job one of the design,
        # with little tardiness, many fail.
        rng = random.Random(cfg.seed)
        proposals = failures = 0
        for ci, sol in walk(cfg):
            for move in MOVES:
                alone = random.Random()
                alone.setstate(rng.getstate())
                got = _propose(ci, sol, move, rng)
                for _ in range(_RESAMPLE_LIMIT):
                    expected = _attempt(ci, sol, move, alone, set())
                    if expected is not None:
                        break
                assert got == expected
                assert rng.getstate() == alone.getstate()
                proposals += 1
                failures += got is None
        assert proposals > 80
        if cfg.n_jobs == 70:
            assert failures > proposals // 4


def spliced(seqs, m1, lo1, hi1, m2, lo2, hi2, exchanging):
    """Reference block move: cut the first block out, put the second (or
    nothing, when inserting) in its place, then put the first block where
    the second was; on one machine the second block is the earlier one, so
    its position is unchanged by the first cut."""
    new = [list(seq) for seq in seqs]
    block = new[m1][lo1:hi1]
    other = new[m2][lo2:hi2] if exchanging else []
    new[m1][lo1:hi1] = other
    new[m2][lo2:lo2 + len(other)] = block
    return new


def machine_sequences(order, machine_of, n_machines):
    """Each machine's operations in list order."""
    seqs = [[] for _ in range(n_machines)]
    for o in order:
        seqs[machine_of[o]].append(o)
    return seqs


def first_difference(base, order, machine_of):
    """The first list position at which (order, machine_of) differs from
    `base`'s, found by comparing them item by item."""
    return next((i for i, (o, b) in enumerate(zip(order, base.order))
                 if o != b or machine_of[o] != base.machine_of[b]),
                len(order))


def listed(seqs, order):
    """What `_move` reads of a decode of per-machine `seqs` whose
    operations are listed in `order`."""
    machine_of = [0] * len(order)
    for m, seq in enumerate(seqs):
        for o in seq:
            machine_of[o] = m
    pos_of = [0] * len(order)
    for i, o in enumerate(order):
        pos_of[o] = i
    return SimpleNamespace(order=order, pos_of=pos_of, machine_of=machine_of,
                           seqs=seqs)


def others_before(order, o, moved):
    """How many operations not in `moved` stand before o in `order`."""
    return sum(1 for x in order[:order.index(o)] if x not in moved)


class TestMove:
    SEQS = ([0, 1, 2, 3, 4, 5], [6, 7, 8, 9])
    #: Lists that keep each machine's order: machine after machine, the
    #: other way round, alternating, and an irregular merge.
    ORDERS = ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [6, 7, 8, 9, 0, 1, 2, 3, 4, 5],
              [0, 6, 1, 7, 2, 8, 3, 9, 4, 5], [6, 0, 1, 7, 8, 2, 3, 4, 9, 5])

    def blocks(self, m, length):
        return [(lo, lo + length)
                for lo in range(len(self.SEQS[m]) - length + 1)]

    def test_equals_cut_and_splice(self):
        # Each machine's sequence changes as cutting and splicing the blocks
        # would change it; each moved block is contiguous, at the second
        # block's first slot (an insertion: just before it) or, exchanged,
        # at the other's; every other operation keeps its list order; and
        # `first` is where the list or the assignment first differs.
        seqs = [list(seq) for seq in self.SEQS]
        checked = 0
        for order in self.ORDERS:
            base = listed(seqs, list(order))
            for exchanging, m1, m2, len1, len2 in product(
                    (False, True), (0, 1), (0, 1), (1, 2, 3), (1, 2, 3)):
                for (lo1, hi1), (lo2, hi2) in product(self.blocks(m1, len1),
                                                      self.blocks(m2, len2)):
                    if m1 == m2 and hi2 > lo1:
                        continue  # the second block must come first
                    new, machine_of, first = _move(base, m1, lo1, hi1, m2,
                                                   lo2, hi2, exchanging)
                    assert machine_sequences(new, machine_of, 2) == spliced(
                        seqs, m1, lo1, hi1, m2, lo2, hi2, exchanging)
                    assert (base.order, base.seqs) == (order, list(self.SEQS))
                    assert first == first_difference(base, new, machine_of)
                    a, b = seqs[m1][lo1:hi1], seqs[m2][lo2:hi2]
                    moved = set(a + b) if exchanging else set(a)
                    assert ([o for o in new if o not in moved]
                            == [o for o in order if o not in moved])
                    p = new.index(a[0])
                    assert new[p:p + len(a)] == a
                    assert (others_before(new, a[0], moved)
                            == others_before(order, b[0], moved))
                    if exchanging:
                        q = new.index(b[0])
                        assert new[q:q + len(b)] == b
                        assert (others_before(new, b[0], moved)
                                == others_before(order, a[0], moved))
                    else:
                        assert new[p + len(a)] == b[0]
                    checked += 1
        assert checked > 800

    def test_literal_moves(self):
        seqs = [list(seq) for seq in self.SEQS]
        base = listed(seqs, [0, 6, 1, 7, 2, 8, 3, 9, 4, 5])
        # one operation inserted earlier on its machine
        new, machine_of, first = _move(base, 0, 4, 5, 0, 1, 2, False)
        assert (new, first) == ([0, 6, 4, 1, 7, 2, 8, 3, 9, 5], 2)
        assert machine_of == base.machine_of
        # a two-operation block exchanged with one operation elsewhere
        new, machine_of, first = _move(base, 0, 2, 4, 1, 1, 2, True)
        assert (new, first) == ([0, 6, 1, 2, 3, 7, 8, 9, 4, 5], 3)
        assert machine_sequences(new, machine_of, 2) == [[0, 1, 7, 4, 5],
                                                         [6, 2, 3, 8, 9]]
        # a three-operation block inserted before another machine's block
        new, machine_of, first = _move(base, 0, 0, 3, 1, 2, 4, False)
        assert (new, first) == ([6, 7, 0, 1, 2, 8, 3, 9, 4, 5], 0)
        assert machine_sequences(new, machine_of, 2) == [[3, 4, 5],
                                                         [6, 7, 0, 1, 2, 8, 9]]

    def test_successor_swap(self):
        # row 7: the pack [3, 5) moves ahead of the pack [1, 3) before it
        seqs = [[0, 1, 2, 3, 4, 5], [6]]
        base = listed(seqs, [0, 1, 6, 2, 3, 4, 5])
        new, machine_of, first = _move(base, 0, 3, 5, 0, 1, 3, True)
        assert (new, first) == ([0, 3, 4, 6, 1, 2, 5], 1)
        assert machine_of == base.machine_of


class TestProposeNeighbor:
    def test_mechanism_0_reverses_two_op_machine(self):
        inst = tiny_instance([
            ("j0", 0, 10_000, [("fA", 10, 0, ("m0",))]),
            ("j1", 0, 5, [("fA", 10, 0, ("m0",))]),  # late, starts second
        ])
        ci, sol = solution(inst, {"m0": ("j0.1", "j1.1")})
        proposal = _propose(ci, sol, SIMPLE_MOVE, random.Random(0))
        assert op_ids_on(ci, proposal, "m0") == ("j1.1", "j0.1")
        assert proposal[2] == 0

    def test_mechanism_7_swaps_adjacent_packs(self):
        inst = tiny_instance([
            ("j0", 0, 5, [("fA", 10, 0, ("m0",))]),
            ("j1", 0, 5, [("fA", 10, 0, ("m0",))]),
            ("j2", 0, 10_000, [("fB", 10, 0, ("m0",))]),
        ])
        ci, sol = solution(inst, {"m0": ("j0.1", "j1.1", "j2.1")})
        proposal = _propose(ci, sol, MOVES[6], random.Random(0))
        assert op_ids_on(ci, proposal, "m0") == ("j2.1", "j0.1", "j1.1")
        assert proposal[2] == 0

    def test_proposal_failure_when_window_empty(self):
        # the only late op already starts at its release date
        inst = tiny_instance([("j0", 0, 5, [("fA", 10, 0, ("m0",))])])
        ci, sol = solution(inst, {"m0": ("j0.1",)})
        assert _propose(ci, sol, SIMPLE_MOVE, random.Random(0)) is None

    def test_family_constrained_exchange_preserves_family_multisets(self):
        rng = random.Random(5)
        inst = generate_instance(GenConfig(
            n_jobs=36, n_routings=5, n_machines=3, n_column_types=4,
            seed=2, unchecked=True))
        ci, sol = greedy_solution(inst)
        proposals = 0
        attempts = 0
        while proposals < 25 and attempts < 200:
            attempts += 1
            proposal = _propose(ci, sol, MOVES[1], rng)
            if proposal is None:
                continue
            order, machine_of, _ = proposal
            proposals += 1
            neighbor = machine_sequences(order, machine_of, ci.n_machines)
            for seq, new_seq in zip(sol.seqs, neighbor):
                assert (sorted(ci.family[o] for o in seq)
                        == sorted(ci.family[o] for o in new_seq))
        assert proposals > 0

    def test_every_mechanism_yields_valid_encodings(self):
        rng = random.Random(17)
        inst = generate_instance(GenConfig(
            n_jobs=36, n_routings=6, n_machines=3, n_column_types=4,
            seed=33, unchecked=True))
        ci, sol = greedy_solution(inst)
        ops = inst.operations_by_id
        for row, move in enumerate(MOVES, 1):
            produced = 0
            for _ in range(40):
                proposal = _propose(ci, sol, move, rng)
                if proposal is None:
                    continue
                order, machine_of, _ = proposal
                produced += 1
                assert sorted(order) == list(range(ci.n_ops))
                for o in order:
                    assert (ci.machine_ids[machine_of[o]]
                            in ops[ci.op_ids[o]].eligible)
                # the decoder and the feasibility checker agree on it
                try:
                    decoded = place_sequences(ci, order, machine_of)
                except NoSlotError:
                    continue  # run_sa rejects the move
                schedule = schedule_from_arrays(
                    ci, decoded.seqs, decoded.starts, decoded.comps,
                    decoded.setups)
                assert validate_schedule(inst, schedule) == []
                assert decoded.tardiness == total_tardiness(schedule, inst)
            assert produced > 0, f"row {row} never proposed"


class TestRunSa:
    def make_loaded_instance(self, seed=0):
        # overloaded on purpose: tardiness stays positive through short runs
        return generate_instance(GenConfig(
            n_jobs=36, n_routings=5, n_machines=3, n_column_types=4,
            seed=seed, unchecked=True))

    def test_never_worse_than_initial(self):
        for seed in range(5):
            inst = self.make_loaded_instance(seed)
            initial = run_lta(inst)
            res = run_sa(inst, initial, SaParams(max_iterations=400), seed=seed)
            assert res.tardiness <= res.initial_tardiness
            assert res.tardiness == total_tardiness(res.schedule, inst)
            assert validate_schedule(inst, res.schedule) == []

    def test_bit_for_bit_reproducible(self):
        inst = self.make_loaded_instance(3)
        initial = run_lta(inst)
        for structure in Structure:
            params = SaParams(structure=structure, max_iterations=600)
            a = run_sa(inst, initial, params, seed=11)
            b = run_sa(inst, initial, params, seed=11)
            assert a.schedule == b.schedule
            assert a.trace == b.trace
            assert (a.accepted, a.evaluated, a.iterations) == \
                   (b.accepted, b.evaluated, b.iterations)

    def test_temperature_cools_geometrically(self, monkeypatch):
        inst = self.make_loaded_instance(2)
        initial = run_lta(inst)
        monkeypatch.setattr(annealing, "_PLATEAU_ITERATIONS", 50)
        monkeypatch.setattr(annealing, "_PLATEAU_ACCEPTANCES", 20)
        params = SaParams(max_iterations=3000)
        res = run_sa(inst, initial, params, seed=2)
        temps = [t for _, t, _, _ in res.trace if t > 0.0]
        distinct = sorted(set(temps), reverse=True)
        assert temps == sorted(temps, reverse=True)  # non-increasing
        for hot, cold in zip(distinct, distinct[1:]):
            assert cold == pytest.approx(hot * params.cooling_factor, rel=1e-9)
        assert distinct[0] == pytest.approx(res.initial_temperature)

    def test_best_trace_non_increasing(self):
        inst = self.make_loaded_instance(2)
        initial = run_lta(inst)
        res = run_sa(inst, initial, SaParams(max_iterations=800), seed=5)
        bests = [b for _, _, _, b in res.trace]
        assert all(x >= y for x, y in zip(bests, bests[1:]))

    def test_trace_rows_count_the_iterations(self):
        inst = self.make_loaded_instance(2)
        res = run_sa(inst, run_lta(inst), SaParams(max_iterations=300), seed=5)
        assert len(res.trace) == res.iterations
        assert [row[0] for row in res.trace] == list(
            range(1, res.iterations + 1))
        assert all(type(row) is tuple and len(row) == 4 for row in res.trace)

    def test_optimum_short_circuits(self):
        inst = tiny_instance([("j0", 0, 10_000, [("fA", 10, 5, ("m0",))])])
        initial = run_lta(inst)
        res = run_sa(inst, initial, SaParams(), seed=0)
        assert res.termination == "optimum"
        assert res.iterations == 0
        assert res.schedule == initial

    def test_refuses_an_initial_schedule_that_places_an_operation_twice(
            self):
        # Decoding it would walk a cyclic same-family chain without end.
        inst = generate_instance(GenConfig(n_jobs=70, seed=1))
        initial = run_lta(inst)
        twice = Schedule(initial.placements
                         + (initial.by_operation["j19.1"],))
        with pytest.raises(ValueError,
                           match=r"\[duplicate-placement\] j19\.1"):
            run_sa(inst, twice, SaParams(max_iterations=50), seed=0)

    def test_refuses_an_infeasible_initial_schedule_with_no_tardiness(self):
        # checked before the optimum short-circuit, which would return it
        inst = tiny_instance([("j0", 0, 10_000, [("fA", 10, 5, ("m0",))])],
                             machines=("m0", "m1"))
        placed = run_lta(inst).placements[0]
        on_m1 = Schedule((replace(placed, machine="m1"),))
        with pytest.raises(ValueError, match=r"\[ineligible-machine\] j0\.1"):
            run_sa(inst, on_m1, SaParams(), seed=0)

    def test_refuses_an_initial_schedule_that_starts_before_the_origin(self):
        # From the origin on, the setup would find no operator window.
        inst = tiny_instance([("j0", 0, 0, [("fA", 10, 5, ("m0",))])],
                             windows=TimeWindowSet(((0, 5),)))
        initial = run_lta(inst)
        late_origin = replace(inst, horizon_origin=10)
        assert validate_schedule(late_origin, initial) == []
        with pytest.raises(ValueError, match=r"j0\.1 starts at 0, before the "
                                             r"horizon origin 10"):
            run_sa(late_origin, initial, SaParams(), seed=0)

    def test_an_initial_schedule_on_a_shared_column_decodes_to_itself(self):
        # Listed in start order, j1.1 takes the column before j0.1, so the
        # decode is the initial schedule.  Its one tardy operation starts at
        # its release, so no move is proposed, and the run keeps it.
        inst = shared_column_instance()
        initial = run_lta(inst)
        assert validate_schedule(inst, initial) == []
        ci = compile_instance(inst)
        decoded = place_sequences(ci, *start_order(ci, initial))
        assert schedule_from_arrays(ci, decoded.seqs, decoded.starts,
                                    decoded.comps, decoded.setups) == initial
        res = run_sa(inst, initial, SaParams(max_iterations=300), seed=0)
        assert (res.termination, res.iterations, res.proposal_failures,
                res.decode_failures) == ("max-iterations", 300, 300, 0)
        assert res.schedule == initial
        assert res.tardiness == res.initial_tardiness == 5

    def test_anneals_past_the_machine_that_took_a_shared_column_first(self):
        # j0.1 on m0 holds the one fA unit over [1, 101), so j1.1 on m1
        # waits for it and is 101 late.  Inserting j1.1 before j2.1, listed
        # first, runs it first: no tardiness.  Per-machine sequences that
        # give machines turns by clock cannot express that, since m0 takes
        # its turn first at every tie.
        inst = two_machine_instance(j0_release=1, extra=[
            ("j2", 0, 10_000, [("fB", 5, 0, ("m1",))])])
        initial = Schedule((
            PlacedOperation("j2.1", "m1", True, 0, 5),
            PlacedOperation("j0.1", "m0", True, 1, 101),
            PlacedOperation("j1.1", "m1", True, 101, 111)))
        assert validate_schedule(inst, initial) == []
        res = run_sa(inst, initial, SaParams(max_iterations=200), seed=0)
        assert (res.initial_tardiness, res.tardiness) == (101, 0)
        assert res.termination == "optimum"
        assert validate_schedule(inst, res.schedule) == []

    def test_micro_instances_reach_enumerated_optimum(self):
        # scaled-down sibling of the acceptance micro-optimality gate
        rng = random.Random(99)
        hits = total = 0
        for seed in range(25):
            inst = generate_instance(GenConfig(
                n_jobs=3, n_routings=2, n_machines=2, n_column_types=2,
                seed=seed, unchecked=True))
            if inst.n_operations > 5:
                continue
            best = enumerated_optimum(inst)
            initial = run_lta(inst)
            res = run_sa(inst, initial,
                         SaParams(max_iterations=2000), seed=1)
            total += 1
            hits += res.tardiness == best
        assert total >= 3
        assert hits == total


def decode_fields(decoded):
    # `changed` is left out: a full decode lists every operation
    return (decoded.seqs, decoded.tardiness, decoded.starts, decoded.comps,
            decoded.setups, decoded.machine_of, decoded.family_pred,
            decoded.t_mins, decoded.order, decoded.pos_of, decoded.last)


def full_or_error(ci, order, machine_of):
    try:
        return decode_fields(place_sequences(ci, order, machine_of))
    except NoSlotError:
        return NoSlotError


class TestResumedDecode:
    @pytest.mark.parametrize("seed,n_machines", [(33, 3), (4, 5), (8, 6)])
    def test_equals_full_decode_for_every_mechanism(self, seed, n_machines):
        # A random walk: half of the decoded proposals become the next base,
        # so bases are themselves resumed decodes.  The position a proposal
        # names is the first at which its list or assignment differs from
        # the base's.
        rng = random.Random(seed)
        inst = generate_instance(GenConfig(
            n_jobs=60, n_routings=6, n_machines=n_machines, n_column_types=4,
            seed=seed, unchecked=True))
        ci, sol = greedy_solution(inst)
        assert ci.n_ops > 4 * 16  # many positions to resume at
        compared = changed = 0
        rows = set()
        for row, move in enumerate(MOVES * 3):
            for _ in range(15):
                proposal = _propose(ci, sol, move, rng)
                if proposal is None:
                    continue
                order, machine_of, first = proposal
                assert first == first_difference(sol.decode, order, machine_of)
                rows.add(row % len(MOVES))
                full = full_or_error(ci, order, machine_of)
                try:
                    resumed = place_sequences(ci, order, machine_of,
                                              sol.decode, first)
                except NoSlotError:
                    assert full is NoSlotError
                    continue
                assert decode_fields(resumed) == full
                # `changed` lists, once each and in list order, exactly the
                # operations whose completion differs from base's, and the
                # tardiness read off them is a full recomputation's
                assert resumed.changed == [
                    o for o in order
                    if resumed.comps[o] != sol.decode.comps[o]]
                assert resumed.tardiness == sum(
                    max(0, max(resumed.comps[o] for o in ops) - due)
                    for ops, due in zip(ci.job_ops, ci.job_due))
                changed += bool(resumed.changed)
                compared += 1
                if rng.random() < 0.5:
                    sol = _Solution(ci, resumed)
        assert compared > 100 and len(rows) == len(MOVES)
        assert changed > 50

    def test_machines_that_grow_shrink_or_empty(self):
        # A resumed decode needs only the first changed position, so any
        # change of the list or the assignment resumes: an operation moved
        # to the end of the list on another machine, the move back, a
        # machine whose operations all go to the others, and its refill.
        inst = generate_instance(GenConfig(
            n_jobs=60, n_routings=6, n_machines=3, n_column_types=4,
            seed=33, unchecked=True))
        ci, sol = greedy_solution(inst)
        base = sol.decode

        def resumed(base, order, machine_of):
            first = first_difference(base, order, machine_of)
            decoded = place_sequences(ci, order, machine_of, base, first)
            assert decode_fields(decoded) == full_or_error(ci, order,
                                                           machine_of)
            return decoded

        o = base.seqs[0][-1]
        to_end = [x for x in base.order if x != o] + [o]
        on_m1 = base.machine_of[:]
        on_m1[o] = 1
        grown = resumed(base, to_end, on_m1)
        assert grown.seqs[1][-1] == o
        resumed(grown, base.order, base.machine_of)
        spread = base.machine_of[:]
        for k, o in enumerate(base.seqs[2]):
            spread[o] = k % 2
        emptied = resumed(base, base.order, spread)
        assert emptied.seqs[2] == []
        resumed(emptied, base.order, base.machine_of)

    def test_first_changed_turn_of_each_machine_case(self):
        # The first changed position of two operations swapped inside the
        # list, of an operation given another machine in the same list,
        # and of a change at the end of the list.  Every operation listed
        # before it keeps its position and placement in a full decode, and
        # the resumed decode equals it.
        inst = generate_instance(GenConfig(
            n_jobs=60, n_routings=6, n_machines=3, n_column_types=4,
            seed=33, unchecked=True))
        ci, sol = greedy_solution(inst)
        base = sol.decode
        order, machine_of = base.order, base.machine_of
        n = len(order)
        p = next(p for p in range(30, n) if len(ci.eligible[order[p]]) > 1)
        o = order[p]
        reassigned = machine_of[:]
        reassigned[o] = next(m for m in ci.eligible[o] if m != machine_of[o])
        cases = [
            (order[:40] + order[41:42] + order[40:41] + order[42:],
             machine_of, 40),
            (order, reassigned, p),
            (order[:-2] + order[-1:] + order[-2:-1], machine_of, n - 2),
        ]
        for new, new_machine_of, expected in cases:
            first = first_difference(base, new, new_machine_of)
            assert first == expected
            full = place_sequences(ci, new, new_machine_of)
            for o in order[:first]:
                assert full.pos_of[o] == base.pos_of[o]
                assert full.starts[o] == base.starts[o]
                assert full.comps[o] == base.comps[o]
            assert (decode_fields(place_sequences(ci, new, new_machine_of,
                                                  base, first))
                    == decode_fields(full))

    def test_resumes_at_the_first_changed_turn(self):
        # On one machine list and sequence positions coincide: moving the
        # last operation to position p changes the decode from p on.
        inst = tiny_instance([(f"a{i:02d}", 0, 10_000,
                               [("fA" if i % 3 else "fB", 20, 5, ("m0",))])
                              for i in range(60)])
        ci = compile_instance(inst)
        seq = list(range(ci.n_ops))
        base = place_sequences(ci, seq, [0] * ci.n_ops)
        assert base.pos_of == seq
        for p in (0, 1, 15, 16, 17, 31, 32, 47, 48, 58):
            moved, machine_of, first = _move(base, 0, 59, 60, 0, p, p + 1,
                                             False)
            assert moved == seq[:p] + seq[-1:] + seq[p:-1]
            assert first == p
            resumed = place_sequences(ci, moved, machine_of, base, first)
            assert decode_fields(resumed) == full_or_error(ci, moved,
                                                           machine_of)

    def test_no_slot_error_leaves_base_usable(self):
        # One machine and one operator window [0, 1000): the 20 fA ops run
        # back to back from 0, and the fB op's setup must start before 1000.
        fa = [(f"a{i:02d}", 0, 10_000, [("fA", 50, 5, ("m0",))])
              for i in range(20)]
        inst = tiny_instance(fa + [("b", 0, 10_000, [("fB", 10, 5, ("m0",))])],
                             windows=TimeWindowSet(((0, 1000),)))
        ci = compile_instance(inst)
        a = [ci.op_index[f"a{i:02d}.1"] for i in range(20)]
        b = ci.op_index["b.1"]
        on_m0 = [0] * ci.n_ops
        base = place_sequences(ci, a[:17] + [b] + a[17:], on_m0)
        before = decode_fields(base)
        late_b = a + [b]  # b's setup would start at 1005
        # the decode resumes at b's old position, past 17 of a's
        assert first_difference(base, late_b, on_m0) == 17
        with pytest.raises(NoSlotError):
            place_sequences(ci, late_b, on_m0)
        with pytest.raises(NoSlotError):
            place_sequences(ci, late_b, on_m0, base, 17)
        assert decode_fields(base) == before
        assert decode_fields(base) == full_or_error(ci, base.order, on_m0)
        moved = a[:18] + [b] + a[18:]
        assert (decode_fields(place_sequences(ci, moved, on_m0, base, 17))
                == full_or_error(ci, moved, on_m0))

    def test_a_move_on_one_machine_searches_less_than_it_replays(
            self, monkeypatch):
        inst = generate_instance(GenConfig(
            n_jobs=60, n_routings=6, n_machines=3, n_column_types=4,
            seed=33, unchecked=True))
        ci, sol = greedy_solution(inst)
        base = sol.decode
        calls = []
        found = Counter()  # (start, completion) of each search's placement

        def counting(*args):
            calls.append(args)
            result = find_earliest(*args)
            found[result[0], result[0] + args[5]] += 1
            return result

        find_earliest = engine.find_earliest
        monkeypatch.setattr(engine, "find_earliest", counting)
        for m, seq in enumerate(sol.seqs):
            n = len(seq)
            for lo in (n // 4, n // 2, 3 * n // 4):
                order, machine_of, first = _move(base, m, n - 1, n, m, lo,
                                                 lo + 1, False)
                calls.clear()
                found.clear()
                resumed = place_sequences(ci, order, machine_of, base, first)
                replayed = ci.n_ops - first
                # a changed operation was searched, and a search books
                assert len(resumed.changed) <= len(calls) < replayed
                assert all(args[-1] is True for args in calls)
                assert decode_fields(resumed) == full_or_error(ci, order,
                                                               machine_of)
                # an operation left unsearched kept base's placement: each
                # start or completion that differs is one a search returned
                moved = Counter(
                    (resumed.starts[o], resumed.comps[o])
                    for o in range(ci.n_ops)
                    if (resumed.starts[o], resumed.comps[o])
                    != (base.starts[o], base.comps[o]))
                assert moved <= found

    def test_clean_families_catch_up_at_a_mismatch(self, monkeypatch):
        # m0 runs 60 fA operations (3 units), m1 fB ones (2 units) and m2
        # the last fB one; the list alternates a00, b00, a01, b01, ...  The
        # change moves every other fB operation to m2 in the same list, so
        # the decode resumes at position 3, b01's.  fA on m0 keeps each
        # placement, so it is never searched, and its profile is never
        # built.  On m2, b01 starts at its release instead of after b00:
        # the first fB placement that does not match, which first books
        # b00's placement, restored from before position 3 and never booked.
        inst = tiny_instance(
            [(f"a{i:02d}", 0, 100_000, [("fA", 10, 5, ("m0",))])
             for i in range(60)]
            + [(f"b{i:02d}", 0, 100_000, [("fB", 7, 5, ("m1", "m2"))])
               for i in range(60)],
            machines=("m0", "m1", "m2"), columns=(("fA", 3), ("fB", 2)))
        ci = compile_instance(inst)
        a = [ci.op_index[f"a{i:02d}.1"] for i in range(60)]
        b = [ci.op_index[f"b{i:02d}.1"] for i in range(60)]
        order = [o for pair in zip(a, b) for o in pair]
        machine_of = [0] * ci.n_ops
        for o in b:
            machine_of[o] = 2 if o == b[-1] else 1
        base = place_sequences(ci, order, machine_of)
        events = []  # levels[0] is the family's units: 3 for fA, 2 for fB

        def searching(wstarts, wends, times, levels, t_min, duration, book):
            events.append(("search", levels[0], t_min, duration))
            return find_earliest(wstarts, wends, times, levels, t_min,
                                 duration, book)

        def recording(times, levels, start, end):
            events.append(("book", levels[0], start, end))
            reserve_step(times, levels, start, end)

        find_earliest, reserve_step = engine.find_earliest, engine.reserve_step
        monkeypatch.setattr(engine, "find_earliest", searching)
        monkeypatch.setattr(engine, "reserve_step", recording)
        moved = machine_of[:]
        for o in b[1::2]:
            moved[o] = 2
        assert first_difference(base, order, moved) == 3
        resumed = place_sequences(ci, order, moved, base, 3)
        monkeypatch.undo()
        assert [units for _, units, _, _ in events].count(3) == 0
        # b00 is caught up, then b01 searched on the empty m2: from its
        # release, with a setup
        assert events[:2] == [
            ("book", 2, base.starts[b[0]], base.comps[b[0]]),
            ("search", 2, 0, 12)]
        assert set(a).isdisjoint(resumed.changed) and b[0] not in resumed.changed
        assert b[1] in resumed.changed
        assert decode_fields(resumed) == full_or_error(ci, order, moved)

    def test_catch_up_books_only_what_ends_after_the_clock(self, monkeypatch):
        # A random walk as above, with every search and booking recorded in
        # order.  A search books its own placement, so every `reserve_step`
        # call is catch-up: each comes right before a search of its family,
        # and each must end after the floor: the smallest machine clock at
        # the first changed position, that is, over the machines, the
        # completion of the last operation listed before it (the origin for
        # a machine with none).
        rng = random.Random(5)
        inst = generate_instance(GenConfig(
            n_jobs=60, n_routings=6, n_machines=4, n_column_types=4,
            seed=5, unchecked=True))
        ci, sol = greedy_solution(inst)
        events = []

        def searching(*args):
            events.append((None, args[2]))
            return find_earliest(*args)

        def booking(times, levels, start, end):
            events.append((end, times))
            reserve_step(times, levels, start, end)

        find_earliest, reserve_step = engine.find_earliest, engine.reserve_step
        caught_up = compared = 0
        for move in MOVES * 3:
            for _ in range(10):
                proposal = _propose(ci, sol, move, rng)
                if proposal is None:
                    continue
                order, machine_of, first = proposal
                full = full_or_error(ci, order, machine_of)
                events.clear()
                monkeypatch.setattr(engine, "find_earliest", searching)
                monkeypatch.setattr(engine, "reserve_step", booking)
                try:
                    resumed = place_sequences(ci, order, machine_of,
                                              sol.decode, first)
                except NoSlotError:
                    assert full is NoSlotError
                    continue
                finally:
                    monkeypatch.undo()
                assert decode_fields(resumed) == full
                compared += 1
                floor = min(
                    max((resumed.comps[o] for o in seq
                         if resumed.pos_of[o] < first), default=ci.origin)
                    for seq in resumed.seqs)
                pending = []
                for end, times in events:
                    if end is None:
                        assert all(e > floor and t is times
                                   for e, t in pending)
                        caught_up += len(pending)
                        pending = []
                    else:
                        pending.append((end, times))
                assert not pending
                searches = sum(end is None for end, _ in events)
                assert len(resumed.changed) <= searches
                if rng.random() < 0.5:
                    sol = _Solution(ci, resumed)
        assert compared > 100 and caught_up > 0

    @pytest.mark.parametrize("broken", ["past-first", "before-first"])
    def test_an_inconsistent_family_chain_fails_instead_of_hanging(
            self, time_limit, broken):
        # One machine runs a0-a3 of one family in list order; listing a3
        # before a2 resumes the decode at position 2.  A chain a3 -> a3
        # cycles in the walk that finds the family's last operation before
        # position 2; a chain a0 -> a1 cycles in catch-up's walk back from
        # a1 (a3 follows a1 now, not a2 as in base, so it is searched).
        inst = tiny_instance([(f"a{i}", 0, 10_000, [("fA", 10, 5, ("m0",))])
                              for i in range(4)])
        ci = compile_instance(inst)
        on_m0 = [0] * ci.n_ops
        base = place_sequences(ci, [0, 1, 2, 3], on_m0)
        assert base.family_pred == [-1, 0, 1, 2]
        pred = base.family_pred[:]
        if broken == "past-first":
            pred[3] = 3
        else:
            pred[0] = 1
        time_limit(10)
        with pytest.raises(AssertionError, match="family chain"):
            place_sequences(ci, [0, 1, 3, 2], on_m0,
                            base._replace(family_pred=pred), 2)

    @pytest.mark.parametrize("structure", list(Structure))
    def test_run_sa_without_base_gives_the_same_result(self, monkeypatch,
                                                       structure):
        inst = generate_instance(GenConfig(
            n_jobs=40, n_routings=5, n_machines=4, n_column_types=4,
            seed=2, unchecked=True))
        initial = run_lta(inst)
        params = SaParams(structure=structure, max_iterations=500)
        resumed = []

        def counting(ci, order, machine_of, base=None, first=0):
            resumed.append(base is not None)
            return place_sequences(ci, order, machine_of, base, first)

        monkeypatch.setattr(annealing, "place_sequences", counting)
        with_base = run_sa(inst, initial, params, seed=3)
        assert sum(resumed) > 300
        monkeypatch.setattr(annealing, "place_sequences",
                            lambda ci, order, machine_of, base=None, first=0:
                            place_sequences(ci, order, machine_of))
        without_base = run_sa(inst, initial, params, seed=3)
        assert with_base == without_base  # every field, trace included


def sa_fingerprint(res) -> str:
    payload = repr((res.schedule.placements, res.tardiness,
                    res.initial_tardiness, res.initial_temperature,
                    res.iterations, res.evaluated, res.accepted, res.improved,
                    res.proposal_failures, res.decode_failures,
                    res.levels_completed, res.termination, res.trace))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# Keyed by (instance seed, run seed, settings besides max_iterations=1500):
# SaParams fields, or the lower-case names of the schedule constants in
# `annealing`, which the test patches: OP+PA, SIMPLE and OP, a budget that
# ends inside the descent, no descent, and short cooling levels.  Computed
# with the serial decoder over a list and a machine assignment, started from
# the initial schedule's start order, OP+PA drawing a pack through one of its
# operations; a change to the decode, the moves or the random stream changes
# them.
PINNED_SA_FINGERPRINTS = {
    (0, 0, ()): "346937e4810dc0c0",
    (0, 1, ()): "6f7e4bcb8c276fbc",
    (2, 0, ()): "d25e13ac1600393b",
    (2, 1, ()): "f2679aa4d92f76f0",
    (0, 0, (("structure", Structure.SIMPLE),)): "4591bd1243dd49e9",
    (0, 1, (("structure", Structure.OP),)): "c38ed9cde3badcb5",
    (2, 0, (("max_iterations", 60),)): "1dca7670f0eded11",
    (2, 1, (("descent_iterations", 0),)): "b9f664197607334f",
    (0, 0, (("cooling_factor", 0.5), ("plateau_iterations", 50),
            ("plateau_acceptances", 10), ("dead_levels", 2))):
        "d20ea9f4d4fb551b",
}


def pin_id(key):
    instance_seed, seed, fields = key
    return "-".join([str(instance_seed), str(seed)]
                    + [f"{name}={getattr(value, 'value', value)}"
                       for name, value in fields])


@pytest.mark.parametrize("instance_seed,seed,fields", list(PINNED_SA_FINGERPRINTS),
                         ids=list(map(pin_id, PINNED_SA_FINGERPRINTS)))
def test_sa_results_match_pinned_fingerprints(instance_seed, seed, fields,
                                              monkeypatch):
    inst = generate_instance(GenConfig(
        n_jobs=40, n_routings=5, n_machines=3, n_column_types=4,
        seed=instance_seed, unchecked=True))
    settings = {"max_iterations": 1500}
    for name, value in fields:
        if name in SaParams.__dataclass_fields__:
            settings[name] = value
        else:
            monkeypatch.setattr(annealing, f"_{name.upper()}", value)
    params = SaParams(**settings)
    res = run_sa(inst, run_lta(inst), params, seed=seed)
    assert sa_fingerprint(res) == PINNED_SA_FINGERPRINTS[instance_seed, seed,
                                                         fields]


def test_sa_140_first_cell_matches_its_pinned_fingerprint():
    # The benchmark's sa_140 settings on its first instance: cell 0 of the
    # 140-job design at master seed 0, ATCOEE, then OP+PA capped at 1,000
    # iterations.  A resumed decode must give what a full decode gives, so
    # a change to how decodes resume leaves the pin as it is.
    (cfg, seed), *_ = generate_design(loads=(140,), seeds_per_cell=1,
                                      master_seed=0)
    inst = generate_instance(cfg)
    spec = parse_algorithm("op_pa_sa")
    res = run_sa(inst, run_lta(inst, spec.rule_params, seed=seed),
                 replace(spec.sa_params, max_iterations=1000), seed=seed)
    assert res.termination == "max-iterations"
    assert sa_fingerprint(res) == "f3c497ff225a1a22"
