"""Certification of the lower-bound oracle that criterion 5 relies on."""

import random
from dataclasses import replace

from chromsched.availability import TimeWindowSet
from chromsched.generator import generate_design, generate_instance
from chromsched.list_scheduler import run_lta
from chromsched.model import total_tardiness

from oracles import enumerated_optimum, lower_bound, micro_instance

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
