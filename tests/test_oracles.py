"""Certification of the lower-bound oracle that criterion 5 relies on, and
of the serial-generation oracles against the list scheduler and the
annealer's decoder."""

import random
from dataclasses import replace

import pytest

from chromsched.availability import TimeWindowSet
from chromsched.engine import compile_instance, place_sequences
from chromsched.errors import NoSlotError
from chromsched.experiments import parse_algorithm
from chromsched.generator import GenConfig, generate_design, generate_instance
from chromsched.list_scheduler import run_lta
from chromsched.model import total_tardiness

from oracles import (enumerated_optimum, lower_bound, micro_instance,
                     serial_decode, sgs_optimum)

# 30-minute operator windows every 4 hours: setups often wait for a window.
SPARSE_WINDOWS = TimeWindowSet(tuple((k * 240, k * 240 + 30)
                                     for k in range(100)))

VARIANTS = {
    "always": lambda instance: instance,
    "sparse-windows": lambda instance: replace(
        instance, operator_windows=SPARSE_WINDOWS),
    "origin-60": lambda instance: replace(instance, horizon_origin=60),
}


def test_lower_bound_never_exceeds_enumerated_optimum():
    master = random.Random(0)
    instances = [micro_instance(master) for _ in range(50)]
    violations = []
    tight = {name: 0 for name in VARIANTS}
    for name, variant in VARIANTS.items():
        for index, base in enumerate(instances):
            instance = variant(base)
            optimum = enumerated_optimum(instance)
            bound = lower_bound(instance)
            if bound > optimum:
                violations.append((name, index, bound, optimum))
            tight[name] += 0 < bound == optimum
    assert violations == []
    # The bound is not vacuous: it proves a positive optimum where setups
    # wait for a window or for the origin.
    assert tight["sparse-windows"] > 0 and tight["origin-60"] > 0, tight


def test_lower_bound_never_exceeds_the_serial_generation_optimum():
    # Serial generation over every assignment and order reaches an optimum,
    # and the annealer's decoder is serial generation, so enumerating its
    # lists and assignments finds the same optimum.
    master = random.Random(0)
    instances = [micro_instance(master) for _ in range(50)]
    violations = []
    for name, variant in VARIANTS.items():
        for index, base in enumerate(instances):
            instance = variant(base)
            bound = lower_bound(instance)
            optimum = sgs_optimum(instance)
            enumerated = enumerated_optimum(instance)
            if not bound <= optimum == enumerated:
                violations.append((name, index, bound, optimum, enumerated))
    assert violations == []


#: Rule tokens of the serial-decode slice: the benchmark's 7 and two more.
SLICE_TOKENS = ("random", "edd", "atc", "atcs", "atcoee", "atcoeef",
                "lfm_lfo", "lfm_atcoee", "atcs.1.1")


@pytest.mark.parametrize("load", [70, 140])
def test_serial_decode_of_a_greedy_schedule_is_that_schedule(load):
    # Placing a list-scheduler schedule's operations in start order, each
    # on its machine, gives back every start, completion and setup flag:
    # the list scheduler builds a serial-generation schedule.
    design = generate_design(loads=(load,), seeds_per_cell=1, master_seed=0)
    for cfg, solver_seed in design[::2]:
        instance = generate_instance(cfg)
        ci = compile_instance(instance)
        for token in SLICE_TOKENS:
            schedule = run_lta(instance, parse_algorithm(token).rule_params,
                               seed=solver_seed)
            placements = schedule.placements
            order = [ci.op_index[p.operation_id] for p in placements]
            machine_of = [0] * ci.n_ops
            for o, p in zip(order, placements):
                machine_of[o] = ci.machine_index[p.machine]
            expected = [(p.start, p.completion, p.setup_performed)
                        for p in placements]
            starts, comps, setups = serial_decode(ci, order, machine_of)
            assert [(starts[o], comps[o], setups[o])
                    for o in order] == expected, (cfg, token)
            decoded = place_sequences(ci, order, machine_of)
            assert [(decoded.starts[o], decoded.comps[o], decoded.setups[o])
                    for o in order] == expected, (cfg, token)


def test_engine_decode_equals_the_serial_decode():
    # Random lists and assignments, with setups that wait for a 30-minute
    # operator window every 4 hours, and often find none after the last of
    # them (minute 11,790): the engine's full decode gives
    # the oracle's starts, completions and setup flags, or raises with it.
    rng = random.Random(11)
    compared = raised = 0
    for seed in range(12):
        instance = replace(generate_instance(GenConfig(
            n_jobs=12, n_routings=4, n_machines=3, n_column_types=3,
            seed=seed, unchecked=True)), operator_windows=TimeWindowSet(
                tuple((k * 240, k * 240 + 30) for k in range(50))))
        ci = compile_instance(instance)
        for _ in range(40):
            order = rng.sample(range(ci.n_ops), ci.n_ops)
            machine_of = [rng.choice(machines) for machines in ci.eligible]
            try:
                expected = serial_decode(ci, order, machine_of)
            except NoSlotError:
                with pytest.raises(NoSlotError):
                    place_sequences(ci, order, machine_of)
                raised += 1
                continue
            decoded = place_sequences(ci, order, machine_of)
            assert (decoded.starts, decoded.comps, decoded.setups) == expected
            assert decoded.order == order
            assert decoded.pos_of == [order.index(o) for o in range(ci.n_ops)]
            compared += 1
    assert compared > 100 and raised > 20


def test_lower_bound_proves_the_greedy_optimum_on_two_design_points():
    # (10, 0.75, 4) and (10, 0.75, 6): the one late job starts every
    # operation, with its setup, at the first window minute after the origin.
    design = generate_design(loads=(140,), seeds_per_cell=1, master_seed=0)
    for index, expected in ((5, 1233), (6, 434)):
        cfg, solver_seed = design[index]
        instance = generate_instance(cfg)
        initial = run_lta(instance, seed=solver_seed)
        assert total_tardiness(initial, instance) == expected
        assert lower_bound(instance) == expected
