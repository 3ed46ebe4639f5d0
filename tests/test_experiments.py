import math
import random
from dataclasses import replace

import pytest

from chromsched.experiments import (AlgorithmSpec, DEFAULT_FACTORS, Observation,
                                    anova_effects, effect_to_ratio,
                                    log_tardiness, parse_algorithm,
                                    read_observations, run_experiment,
                                    write_observations)
from chromsched.generator import generate_design
from chromsched.model import validate_schedule, total_tardiness
from chromsched.rules import MachinePolicy, Rule


class TestEffectToRatio:
    def test_printed_seven_percent_effect(self):
        assert effect_to_ratio(0.07) == pytest.approx(0.174, abs=0.001)

    def test_zero_effect_is_no_change(self):
        assert effect_to_ratio(0.0) == 0.0

    def test_half_decade_effect(self):
        # 10^0.52 - 1 = 231.1% (a touch under the commonly rounded 232%)
        assert effect_to_ratio(0.52) == pytest.approx(2.311, abs=0.001)


class TestLogTardiness:
    def test_clamps_at_one_minute(self):
        assert log_tardiness(0) == 0.0
        assert log_tardiness(1) == 0.0
        assert log_tardiness(1000) == pytest.approx(3.0)


class TestParseAlgorithm:
    def test_rule_tokens(self):
        spec = parse_algorithm("atcoee")
        assert spec.label == "atcoee.10.1"
        assert spec.sa_params is None
        assert parse_algorithm("atcs.1.1").label == "atcs.1.1"
        assert parse_algorithm("atcoeef.10.1.10").label == "atcoeef.10.1.10"
        lfm = parse_algorithm("lfm_lfo")
        assert lfm.rule_params.machine_policy is MachinePolicy.LFM
        assert lfm.rule_params.rule is Rule.LFO
        assert lfm.label == "lfm_lfo"

    def test_sa_tokens(self):
        quick = parse_algorithm("op_pa_sa")
        assert quick.label == "OP+PA SA 0.95"
        assert quick.sa_params.max_iterations == 15000
        long = parse_algorithm("op_pa_sa_98")
        assert long.sa_params.cooling_factor == 0.98
        assert long.sa_params.max_iterations is None

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            parse_algorithm("simulated_magic")


def small_design(cells=4, seeds=2):
    design = generate_design(loads=(10,), seeds_per_cell=seeds, master_seed=3,
                             unchecked=True)
    kept_cells = sorted({(c.n_routings, c.setup_ratio, c.flex_mean)
                         for c, _ in design})[:cells]
    return [(c, s) for c, s in design
            if (c.n_routings, c.setup_ratio, c.flex_mean) in kept_cells]


class TestRunExperiment:
    def test_cardinality_and_sorted_rows(self):
        design = small_design(cells=4, seeds=2)
        algos = [parse_algorithm("atcoee"), parse_algorithm("edd")]
        rows = run_experiment(design, algos)
        assert len(rows) == 4 * 2 * 2
        keys = [(o.load, o.n_routings, o.setup_ratio, o.flex_mean,
                 o.algorithm, o.seed) for o in rows]
        assert keys == sorted(keys)

    def test_deterministic_tardiness_column(self):
        design = small_design(cells=2, seeds=2)
        algos = [parse_algorithm("atcoee")]
        first = [o.tardiness for o in run_experiment(design, algos)]
        second = [o.tardiness for o in run_experiment(design, algos)]
        assert first == second

    def test_rows_rerun_to_feasible_schedules(self):
        from chromsched.generator import generate_instance
        from chromsched.list_scheduler import run_lta
        design = small_design(cells=2, seeds=1)
        algos = [parse_algorithm("atcoee")]
        for obs, (cfg, seed) in zip(run_experiment(design, algos), design):
            instance = generate_instance(cfg)
            schedule = run_lta(instance, algos[0].rule_params, seed=seed)
            assert validate_schedule(instance, schedule) == []
            assert total_tardiness(schedule, instance) == obs.tardiness

    def test_solver_failure_becomes_error_row(self, monkeypatch):
        import chromsched.experiments as experiments

        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(experiments, "run_lta", explode)
        design = small_design(cells=1, seeds=1)
        rows = run_experiment(design, [parse_algorithm("atcoee")])
        assert len(rows) == 1
        assert rows[0].tardiness == -1
        assert rows[0].log_tardiness == 0.0

    def test_parallel_matches_serial(self):
        design = small_design(cells=2, seeds=1)
        algos = [parse_algorithm("atcoee"), parse_algorithm("random")]
        serial = run_experiment(design, algos, parallel=1)
        twice = run_experiment(design, algos, parallel=2)
        strip = lambda rows: [(o.load, o.n_routings, o.setup_ratio,
                               o.flex_mean, o.algorithm, o.seed, o.tardiness)
                              for o in rows]
        assert strip(serial) == strip(twice)


class TestCsvRoundTrip:
    def test_identity(self, tmp_path):
        rows = [
            Observation(140, 10, 0.5, 2.0, "atcoee.10.1", 7, 1234,
                        log_tardiness(1234), 523.177),
            Observation(140, 20, 0.75, 10.0, "OP+PA SA 0.95", 8, 0,
                        log_tardiness(0), 60000.25),
        ]
        path = tmp_path / "results.csv"
        write_observations(rows, path)
        assert read_observations(path) == rows

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected columns"):
            read_observations(path)


def synthetic_observations(effect_a=0.0, effect_b=0.0, noise=0.0,
                           replicates=10, seed=0, interaction=0.0):
    """Balanced 2x2 design with planted additive effects on logTardiness."""
    rng = random.Random(seed)
    rows = []
    base = 3.0
    for i, a in enumerate((0, 1)):
        for j, b in enumerate((0, 1)):
            for r in range(replicates):
                signs = (1 if a else -1), (1 if b else -1)
                value = (base + signs[0] * effect_a + signs[1] * effect_b
                         + signs[0] * signs[1] * interaction
                         + rng.gauss(0.0, noise))
                rows.append(Observation(
                    load=140, n_routings=10 if a else 20, setup_ratio=0.5,
                    flex_mean=2.0 if b else 4.0, algorithm="atcoee.10.1",
                    seed=r, tardiness=0, log_tardiness=value, runtime_ms=0.0))
    return rows


class TestAnova:
    FACTORS = ("nRoutings", "flexMean")

    def test_all_equal_gives_zero_effects_and_f(self):
        rows = synthetic_observations()
        report = anova_effects(rows, factors=self.FACTORS)
        for fe in report.factors:
            assert fe.max_abs_effect == 0.0
            assert fe.f_stat == 0.0
            assert not fe.significant
        for ie in report.interactions:
            assert ie.f_stat == 0.0

    def test_planted_effect_recovered(self):
        rows = synthetic_observations(effect_a=1.0, noise=0.01, seed=4)
        report = anova_effects(rows, factors=self.FACTORS)
        fe = report.factor("nRoutings")
        assert fe.max_abs_effect == pytest.approx(1.0, abs=0.01)
        assert fe.significant
        assert fe.f_stat > fe.f_crit * 100

    def test_null_factor_usually_insignificant(self):
        rows = synthetic_observations(effect_a=1.0, noise=0.01, seed=4)
        report = anova_effects(rows, factors=self.FACTORS)
        assert not report.factor("flexMean").significant

    def test_effects_sum_to_zero(self):
        rows = synthetic_observations(effect_a=0.7, effect_b=0.2, noise=0.05,
                                      seed=8)
        report = anova_effects(rows, factors=self.FACTORS)
        for fe in report.factors:
            assert sum(e for _, e in fe.effects) == pytest.approx(0.0, abs=1e-9)

    def test_cell_mean_reconstruction(self):
        rows = synthetic_observations(effect_a=0.5, effect_b=0.3,
                                      interaction=0.2, noise=0.3, seed=9)
        report = anova_effects(rows, factors=self.FACTORS)
        a_effects = dict(report.factor("nRoutings").effects)
        b_effects = dict(report.factor("flexMean").effects)
        inter = dict(report.interaction("nRoutings", "flexMean").cells)
        cells = {}
        counts = {}
        for o in rows:
            key = (o.n_routings, o.flex_mean)
            cells[key] = cells.get(key, 0.0) + o.log_tardiness
            counts[key] = counts.get(key, 0) + 1
        for key, total in cells.items():
            mean = total / counts[key]
            rebuilt = (report.grand_mean + a_effects[key[0]]
                       + b_effects[key[1]] + inter[key])
            assert rebuilt == pytest.approx(mean, rel=1e-9)

    def test_failed_runs_refused_with_a_count(self):
        rows = synthetic_observations()
        rows[3:5] = [replace(o, tardiness=-1, log_tardiness=0.0)
                     for o in rows[3:5]]
        with pytest.raises(ValueError, match="2 of 40 observations are failed"):
            anova_effects(rows, factors=self.FACTORS)

    def test_unbalanced_design_rejected(self):
        rows = synthetic_observations()[1:]
        with pytest.raises(ValueError, match="unbalanced"):
            anova_effects(rows, factors=self.FACTORS)

    def test_f_critical_value_spot_check(self):
        # 2x2 with 10 replicates: df residual = 36; F(0.05; 1, 36) ~ 4.11
        rows = synthetic_observations(noise=0.01, seed=1)
        report = anova_effects(rows, factors=self.FACTORS)
        assert report.residual_df == 36
        assert report.factor("nRoutings").f_crit == pytest.approx(4.11, abs=0.01)

    def test_report_renders(self):
        rows = synthetic_observations(effect_a=0.4, noise=0.02, seed=3)
        report = anova_effects(rows, factors=self.FACTORS)
        text = report.to_text()
        assert "nRoutings" in text and "flexMean" in text
        assert "interaction" in text
        csv_rows = report.to_csv_rows()
        kinds = {r[0] for r in csv_rows[1:]}
        assert kinds == {"factor", "level", "interaction"}
