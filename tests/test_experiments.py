import concurrent.futures
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from chromsched import experiments
from chromsched.experiments import (AlgorithmSpec, DEFAULT_FACTORS, Observation,
                                    _f_critical, anova_effects, effect_to_ratio,
                                    log_tardiness, parse_algorithm,
                                    read_observations, run_experiment,
                                    write_observations)
from chromsched.generator import generate_design
from chromsched.model import validate_schedule, total_tardiness
from chromsched.rules import MachinePolicy, Rule, RuleParams


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

    # The constants each rule reads, in token order.
    READS = {Rule.RANDOM: (), Rule.EDD: (), Rule.LFO: (), Rule.ATC: ("k1",),
             Rule.ATCS: ("k1", "k2"), Rule.ATCOEE: ("k1", "k2"),
             Rule.ATCOEEF: ("k1", "k2", "k3")}

    @given(rule=st.sampled_from(Rule), policy=st.sampled_from(MachinePolicy),
           ks=st.lists(st.integers(min_value=1, max_value=10**6),
                       min_size=3, max_size=3))
    def test_label_round_trip(self, rule, policy, ks):
        params = RuleParams(rule=rule, machine_policy=policy,
                            **dict(zip(self.READS[rule], ks)))
        spec = parse_algorithm(params.label())
        assert spec.rule_params == params
        assert spec.label == params.label()

    def test_default_atc_reads_k1(self):
        assert parse_algorithm("atc").label == "atc.10"
        assert parse_algorithm("atc.5").rule_params.k1 == 5.0
        assert parse_algorithm("lfm_atcoeef.1").label == "lfm_atcoeef.1.1.10"

    @pytest.mark.parametrize("token", [
        "edd.3", "lfm_lfo.1", "atcs.1.2.3", "atc.0.5", "atc.nan", "atc.inf",
        "atc.x", "atc.", "atc.+1", "atc.1e3", "atc.-1", "atc.0",
        "atc.\u0663", "atc.\u00b2", "atc." + "9" * 400])
    def test_malformed_constants_refused_naming_the_token(self, token):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            parse_algorithm(token)


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

    def test_shared_label_refused_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "run_lta",
                            lambda *args, **kwargs: calls.append(args))
        algos = [parse_algorithm("atcoee"), parse_algorithm("edd"),
                 parse_algorithm("atcoee.10.1")]
        with pytest.raises(ValueError, match="share the label 'atcoee.10.1'"):
            run_experiment(small_design(cells=1, seeds=1), algos)
        assert calls == []

    def test_parallel_matches_serial(self):
        design = small_design(cells=2, seeds=1)
        algos = [parse_algorithm("atcoee"), parse_algorithm("random")]
        serial = run_experiment(design, algos, parallel=1)
        twice = run_experiment(design, algos, parallel=2)
        strip = lambda rows: [(o.load, o.n_routings, o.setup_ratio,
                               o.flex_mean, o.algorithm, o.seed, o.tardiness)
                              for o in rows]
        assert strip(serial) == strip(twice)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        started = []

        class RecordingPool:
            """Stands in for the process pool: records its size, runs the
            tasks in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool,
                            raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        design = small_design(cells=1, seeds=1)
        algos = [parse_algorithm("edd")]
        rows = run_experiment(design, algos, parallel=5000)
        assert started == [2]
        assert len(rows) == 1
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 1)
        run_experiment(design, algos, parallel=4)
        assert started == [2]


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

    @pytest.mark.parametrize("row, message", [
        ("140,10,0.5,2.0,edd,7,12", "bad.csv:3: expected 9 values, got 7"),
        ("140,10,0.5,2.0,edd,7,12,1.0,5.0,9", "expected 9 values, got 10"),
        ("140,10,half,2.0,edd,7,12,1.0,5.0", "bad.csv:3: could not convert"),
    ])
    def test_malformed_row_cites_its_line(self, tmp_path, row, message):
        good = "140,10,0.5,2.0,edd,6,12,1.0,5.0"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join(experiments.CSV_COLUMNS), good,
                                   row]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
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

    def test_single_level_factor_has_no_f_test(self):
        # its term has no degrees of freedom, so the analysis is refused
        rows = synthetic_observations(effect_a=1.0, noise=0.01, seed=4)
        with pytest.raises(ValueError, match="factor algorithm has a single "
                           "level.*leave it out of --factors"):
            anova_effects(rows, factors=("nRoutings", "algorithm"))
        assert anova_effects(rows, factors=("nRoutings",)).factor(
            "nRoutings").significant

    @pytest.mark.parametrize("response, factors, message", [
        ("bogus", FACTORS, "response 'bogus' is not a numeric results column"),
        ("algorithm", FACTORS, "response 'algorithm' is not a numeric"),
        ("logTardiness", ("nRoutings", "bogus"),
         "factor 'bogus' is not a results column"),
        ("logTardiness", ("nRoutings", "nRoutings"), "listed twice"),
    ])
    def test_unknown_columns_refused(self, response, factors, message):
        rows = synthetic_observations()
        with pytest.raises(ValueError, match=re.escape(message)):
            anova_effects(rows, response=response, factors=factors)

    def test_report_renders(self):
        rows = synthetic_observations(effect_a=0.4, noise=0.02, seed=3)
        report = anova_effects(rows, factors=self.FACTORS)
        text = report.to_text()
        assert "nRoutings" in text and "flexMean" in text
        assert "interaction" in text
        csv_rows = report.to_csv_rows()
        kinds = {r[0] for r in csv_rows[1:]}
        assert kinds == {"factor", "level", "interaction"}


class TestFCritical:
    # Upper-alpha F quantiles, to 16 digits (scipy.stats.f.ppf).
    TABLE = [
        (0.05, 1, 60, 4.001191376754993),
        (0.05, 4, 20, 2.8660814020156584),
        (0.01, 5, 10, 5.636326187669078),
        (0.05, 1, 1, 161.4476387975882),
    ]

    @pytest.mark.parametrize("alpha, d1, d2, expected", TABLE)
    def test_table_values(self, alpha, d1, d2, expected):
        assert _f_critical(alpha, d1, d2) == pytest.approx(expected, rel=1e-9)

    def test_matches_scipy_on_a_grid(self):
        stats = pytest.importorskip("scipy.stats")
        for alpha in (0.1, 0.05, 0.01, 0.001):
            for d1 in (1, 2, 3, 6, 18, 30, 100):
                for d2 in (1, 2, 5, 10, 36, 63, 120, 1000, 5000):
                    expected = float(stats.f.ppf(1.0 - alpha, d1, d2))
                    assert _f_critical(alpha, d1, d2) == pytest.approx(
                        expected, rel=1e-9), (alpha, d1, d2)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1])
    def test_alpha_outside_the_unit_interval_refused(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            _f_critical(alpha, 3, 20)
        with pytest.raises(ValueError, match="alpha"):
            anova_effects(synthetic_observations(),
                          factors=TestAnova.FACTORS, alpha=alpha)

    def test_unconverged_continued_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(experiments, "_CF_MAX_TERMS", 2)
        with pytest.raises(ValueError, match="did not converge"):
            _f_critical(0.05, 3, 63)

    def test_decreases_as_alpha_grows(self):
        for d1, d2 in ((1, 1), (3, 63), (18, 63), (1, 5000)):
            values = [_f_critical(alpha, d1, d2)
                      for alpha in (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9)]
            assert values == sorted(values, reverse=True)
            assert len(set(values)) == len(values)
