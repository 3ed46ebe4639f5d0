import math
from collections import Counter

import pytest

from chromsched.generator import (FLEX_MEANS, GenConfig, JOB_COUNTS,
                                  ROUTING_COUNTS, SETUP_RATIOS, design_cells,
                                  generate_design, generate_instance)

DAY = 1440


class TestConfigValidation:
    def test_paper_domains_enforced(self):
        with pytest.raises(ValueError, match="n_jobs"):
            GenConfig(n_jobs=50)
        with pytest.raises(ValueError, match="n_routings"):
            GenConfig(n_routings=12)
        with pytest.raises(ValueError, match="setup_ratio"):
            GenConfig(setup_ratio=0.6)
        with pytest.raises(ValueError, match="flex_mean"):
            GenConfig(flex_mean=3)

    @pytest.mark.parametrize("unchecked", [False, True])
    def test_nan_flex_mean_refused(self, unchecked):
        # and every other non-finite value: -inf would reach round(gauss())
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="flex_mean must be finite"):
                GenConfig(flex_mean=value, unchecked=unchecked)

    def test_unchecked_allows_scaling(self):
        cfg = GenConfig(n_jobs=12, n_routings=3, setup_ratio=0.6, flex_mean=3,
                        unchecked=True)
        assert generate_instance(cfg).jobs


class TestGeneratedInstance:
    def test_default_shop_shape(self):
        inst = generate_instance(GenConfig(seed=1))
        assert len(inst.machines) == 10
        assert len(inst.column_types) == 20

    def test_column_unit_split_10_30_60(self):
        inst = generate_instance(GenConfig(seed=2))
        counts = Counter(c.units for c in inst.column_types)
        assert counts == {3: 2, 2: 6, 1: 12}

    def test_busiest_families_get_more_units(self):
        inst = generate_instance(GenConfig(seed=3))
        usage = {c.family: 0 for c in inst.column_types}
        for job in inst.jobs:
            for op in job.operations:
                usage[op.family] += op.processing
        units = {c.family: c.units for c in inst.column_types}
        ranked = sorted(usage, key=lambda f: (-usage[f], f))
        assert [units[f] for f in ranked] == sorted(
            (units[f] for f in ranked), reverse=True)

    def test_sampled_values_in_documented_ranges(self):
        for seed in range(25):
            cfg = GenConfig(n_jobs=140, n_routings=20, setup_ratio=0.75,
                            flex_mean=4, seed=seed)
            inst = generate_instance(cfg)
            assert len(inst.jobs) == 140
            for job in inst.jobs:
                assert -8 * DAY <= job.release <= 5 * DAY
                assert job.due >= job.release
                assert 1 <= len(job.operations) <= 3
                for op in job.operations:
                    total = op.processing + op.setup
                    assert 120 <= total <= 1440
                    assert abs(op.setup / total - 0.75) < 0.01
                    assert 1 <= len(op.eligible) <= 10

    def test_full_flexibility_when_mean_is_machine_count(self):
        inst = generate_instance(GenConfig(flex_mean=10, seed=4))
        for job in inst.jobs:
            for op in job.operations:
                assert len(op.eligible) == 10

    def test_operator_windows_are_weekday_business_hours(self):
        inst = generate_instance(GenConfig(seed=5))
        windows = inst.operator_windows
        assert windows.contains(480)            # Monday 08:00
        assert not windows.contains(479)
        assert not windows.contains(1080)       # closes 18:00
        assert not windows.contains(5 * DAY + 600)  # Saturday
        assert windows.contains(-7 * DAY + 480)     # the week before origin

    def test_reproducible(self):
        cfg = GenConfig(n_jobs=70, n_routings=10, seed=77)
        assert generate_instance(cfg) == generate_instance(cfg)

    def test_routings_are_shared_templates(self):
        cfg = GenConfig(n_jobs=140, n_routings=10, seed=6)
        inst = generate_instance(cfg)

        def signature(job):
            return tuple((op.family, op.processing, op.setup,
                          tuple(sorted(op.eligible)))
                         for op in job.operations)

        signatures = {signature(job) for job in inst.jobs}
        assert len(signatures) <= 10


class TestDesign:
    def test_cells_are_full_factorial(self):
        cells = design_cells(140)
        assert len(cells) == 16
        combos = {(c.n_routings, c.setup_ratio, c.flex_mean) for c in cells}
        assert combos == {(r, s, f) for r in ROUTING_COUNTS
                          for s in SETUP_RATIOS for f in FLEX_MEANS}

    def test_one_load_ten_seeds_gives_160(self):
        assert len(generate_design(loads=(140,), seeds_per_cell=10)) == 160

    def test_one_seed_per_cell_gives_16(self):
        assert len(generate_design(loads=(70,), seeds_per_cell=1)) == 16

    def test_same_master_seed_reproduces(self):
        a = generate_design(loads=(70, 140), seeds_per_cell=3, master_seed=9)
        b = generate_design(loads=(70, 140), seeds_per_cell=3, master_seed=9)
        assert a == b

    def test_replicates_get_distinct_generation_seeds(self):
        design = generate_design(loads=(70,), seeds_per_cell=5, master_seed=1)
        seeds = [cfg.seed for cfg, _ in design]
        assert len(set(seeds)) == len(seeds)
