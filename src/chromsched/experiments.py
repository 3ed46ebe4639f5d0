"""Batch experiment runner and factorial variance analysis.

Responses are analyzed on log10(tardiness) because raw tardiness is
log-normally shaped across runs; zero-tardiness runs are kept in the
analysis by clamping at one minute before the log.  A factor effect of x
on the log scale multiplies mean tardiness by 10^x.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from scipy.stats import f as f_distribution

from .annealing import SaParams, Structure, run_sa
from .generator import GenConfig, generate_instance
from .list_scheduler import run_lta
from .model import total_tardiness
from .rules import MachinePolicy, Rule, RuleParams

logger = logging.getLogger(__name__)

CSV_COLUMNS = ("load", "nRoutings", "setupRatio", "flexMean", "algorithm",
               "seed", "tardiness", "logTardiness", "runtimeMs")


def log_tardiness(tardiness: int) -> float:
    return math.log10(max(tardiness, 1))


def effect_to_ratio(effect: float) -> float:
    """Relative tardiness change implied by a log10-scale effect."""
    return 10.0 ** effect - 1.0


@dataclass(frozen=True)
class Observation:
    """One solver run on one generated instance.

    A solver failure is recorded with tardiness -1 (and logTardiness 0)
    rather than dropped, so row counts stay predictable; `anova_effects`
    refuses such rows.
    """

    load: int
    n_routings: int
    setup_ratio: float
    flex_mean: float
    algorithm: str
    seed: int
    tardiness: int
    log_tardiness: float
    runtime_ms: float

    def value(self, column: str):
        return {
            "load": self.load,
            "nRoutings": self.n_routings,
            "setupRatio": self.setup_ratio,
            "flexMean": self.flex_mean,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "tardiness": self.tardiness,
            "logTardiness": self.log_tardiness,
            "runtimeMs": self.runtime_ms,
        }[column]


def write_observations(observations, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for obs in observations:
            writer.writerow([obs.value(c) for c in CSV_COLUMNS])


def read_observations(path) -> list[Observation]:
    out = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"{path}: expected columns {','.join(CSV_COLUMNS)}")
        for row in reader:
            out.append(Observation(
                load=int(row["load"]),
                n_routings=int(row["nRoutings"]),
                setup_ratio=float(row["setupRatio"]),
                flex_mean=float(row["flexMean"]),
                algorithm=row["algorithm"],
                seed=int(row["seed"]),
                tardiness=int(row["tardiness"]),
                log_tardiness=float(row["logTardiness"]),
                runtime_ms=float(row["runtimeMs"])))
    return out


# ---------------------------------------------------------------------------
# Algorithm specs.


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named solver configuration: a dispatch rule, or annealing seeded
    from the default-rule schedule."""

    label: str
    rule_params: RuleParams
    sa_params: SaParams | None = None


_SA_TOKENS = {
    "simple_sa": ("SIMPLE SA 0.95", Structure.SIMPLE, 0.95, 15000),
    "op_sa": ("OP SA 0.95", Structure.OP, 0.95, 15000),
    "op_pa_sa": ("OP+PA SA 0.95", Structure.OP_PA, 0.95, 15000),
    "op_pa_sa_98": ("OP+PA SA 0.98", Structure.OP_PA, 0.98, None),
}


def parse_algorithm(token: str) -> AlgorithmSpec:
    """Parse CLI-style tokens: rule names with optional dotted constants
    ('atcoee', 'atcs.1.1', 'lfm_lfo') or annealing presets ('op_pa_sa')."""
    token = token.strip().lower()
    if token in _SA_TOKENS:
        label, structure, cooling, max_iters = _SA_TOKENS[token]
        sa = SaParams(structure=structure, cooling_factor=cooling,
                      max_iterations=max_iters)
        return AlgorithmSpec(label=label, rule_params=RuleParams(),
                             sa_params=sa)
    policy = MachinePolicy.FFM
    name = token
    if name.startswith("lfm_"):
        policy = MachinePolicy.LFM
        name = name[4:]
    parts = name.split(".")
    try:
        rule = Rule(parts[0])
    except ValueError:
        raise ValueError(f"unknown algorithm {token!r}") from None
    ks = [float(p) for p in parts[1:]]
    if len(ks) > 3:
        raise ValueError(f"too many constants in {token!r}")
    defaults = RuleParams()
    params = RuleParams(
        rule=rule, machine_policy=policy,
        k1=ks[0] if len(ks) > 0 else defaults.k1,
        k2=ks[1] if len(ks) > 1 else defaults.k2,
        k3=ks[2] if len(ks) > 2 else defaults.k3)
    return AlgorithmSpec(label=params.label(), rule_params=params)


def _run_one(task):
    cfg, solver_seed, spec = task
    instance = generate_instance(cfg)
    started = time.perf_counter()
    try:
        schedule = run_lta(instance, spec.rule_params, seed=solver_seed)
        if spec.sa_params is not None:
            schedule = run_sa(instance, schedule, spec.sa_params,
                              seed=solver_seed).schedule
        tardiness = total_tardiness(schedule, instance)
    except Exception:
        logger.exception("solver %s failed on cell %s seed %d",
                         spec.label, cfg, solver_seed)
        tardiness = -1
    runtime_ms = (time.perf_counter() - started) * 1000.0
    return Observation(
        load=cfg.n_jobs, n_routings=cfg.n_routings,
        setup_ratio=cfg.setup_ratio, flex_mean=cfg.flex_mean,
        algorithm=spec.label, seed=solver_seed,
        tardiness=tardiness, log_tardiness=log_tardiness(tardiness),
        runtime_ms=runtime_ms)


_SORT_KEY = ("load", "nRoutings", "setupRatio", "flexMean", "algorithm", "seed")


def run_experiment(design, algorithms, parallel: int = 1) -> list[Observation]:
    """One observation per (design point, algorithm); rows come back sorted
    so output is deterministic regardless of worker count (runtimes aside)."""
    if not design:
        raise ValueError("empty design")
    tasks = [(cfg, seed, spec) for cfg, seed in design for spec in algorithms]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            observations = list(pool.map(_run_one, tasks, chunksize=4))
    else:
        observations = [_run_one(t) for t in tasks]
    observations.sort(key=lambda o: tuple(o.value(c) for c in _SORT_KEY))
    return observations


# ---------------------------------------------------------------------------
# Fixed-effects factorial decomposition with F tests.


@dataclass(frozen=True)
class FactorEffect:
    factor: str
    effects: tuple[tuple[object, float], ...]
    max_abs_effect: float
    f_stat: float
    f_crit: float
    significant: bool
    df: int


@dataclass(frozen=True)
class InteractionEffect:
    factors: tuple[str, str]
    cells: tuple[tuple[tuple[object, object], float], ...]
    max_abs_interaction: float
    f_stat: float
    f_crit: float
    significant: bool
    df: int


@dataclass(frozen=True)
class EffectReport:
    response: str
    n: int
    grand_mean: float
    factors: tuple[FactorEffect, ...]
    interactions: tuple[InteractionEffect, ...]
    residual_df: int
    residual_ms: float

    def factor(self, name: str) -> FactorEffect:
        for fe in self.factors:
            if fe.factor == name:
                return fe
        raise KeyError(name)

    def interaction(self, a: str, b: str) -> InteractionEffect:
        key = tuple(sorted((a, b)))
        for ie in self.interactions:
            if tuple(sorted(ie.factors)) == key:
                return ie
        raise KeyError((a, b))

    def to_text(self) -> str:
        lines = [
            f"Effects on {self.response} "
            f"(n={self.n}, grand mean={self.grand_mean:.4f}, "
            f"residual df={self.residual_df}, residual MS={self.residual_ms:.6g})",
            "",
            f"{'factor':<22}{'max|effect|':>12}{'F':>12}"
            f"{'F crit 5%':>12}  significant",
        ]
        for fe in self.factors:
            lines.append(
                f"{fe.factor:<22}{fe.max_abs_effect:>12.4f}{fe.f_stat:>12.2f}"
                f"{fe.f_crit:>12.2f}  {'yes' if fe.significant else 'no'}")
        lines.append("")
        for fe in self.factors:
            lines.append(f"{fe.factor} level effects:")
            for level, effect in fe.effects:
                lines.append(f"  {level!s:<28}{effect:>+10.4f}")
        lines.append("")
        lines.append(
            f"{'interaction':<30}{'max|int|':>10}{'F':>12}"
            f"{'F crit 5%':>12}  significant")
        for ie in self.interactions:
            name = " x ".join(ie.factors)
            lines.append(
                f"{name:<30}{ie.max_abs_interaction:>10.4f}{ie.f_stat:>12.2f}"
                f"{ie.f_crit:>12.2f}  {'yes' if ie.significant else 'no'}")
        return "\n".join(lines) + "\n"

    def to_csv_rows(self) -> list[list]:
        rows = [["kind", "term", "level", "effect", "F", "F_crit",
                 "significant", "df"]]
        for fe in self.factors:
            rows.append(["factor", fe.factor, "", fe.max_abs_effect,
                         fe.f_stat, fe.f_crit, fe.significant, fe.df])
            for level, effect in fe.effects:
                rows.append(["level", fe.factor, level, effect, "", "", "", ""])
        for ie in self.interactions:
            rows.append(["interaction", " x ".join(ie.factors), "",
                         ie.max_abs_interaction, ie.f_stat, ie.f_crit,
                         ie.significant, ie.df])
        return rows


DEFAULT_FACTORS = ("algorithm", "nRoutings", "setupRatio", "flexMean")


def anova_effects(observations, response: str = "logTardiness",
                  factors=DEFAULT_FACTORS, alpha: float = 0.05) -> EffectReport:
    """Balanced fixed-effects decomposition with main and two-way terms.

    Level effect = level mean - grand mean; each F statistic compares the
    term's mean square against the residual (which absorbs higher-order
    interactions and replicate noise).  Failed runs (tardiness < 0) are
    refused: their logTardiness of 0 would score them as optimal.
    """
    if not observations:
        raise ValueError("no observations")
    failed = sum(1 for o in observations if o.tardiness < 0)
    if failed:
        raise ValueError(
            f"{failed} of {len(observations)} observations are failed runs "
            "(tardiness < 0); rerun or drop them before the analysis")
    y = [float(o.value(response)) for o in observations]
    n = len(y)
    level_values = [[o.value(f) for o in observations] for f in factors]

    cell_counts: dict[tuple, int] = {}
    for i in range(n):
        key = tuple(values[i] for values in level_values)
        cell_counts[key] = cell_counts.get(key, 0) + 1
    levels_per_factor = [sorted(set(values)) for values in level_values]
    full_cells = math.prod(len(l) for l in levels_per_factor)
    if len(cell_counts) != full_cells or len(set(cell_counts.values())) != 1:
        raise ValueError(
            "unbalanced design: subset the observations to a full factorial "
            "with equal replicates per cell")

    grand_mean = sum(y) / n
    ss_total = sum((v - grand_mean) ** 2 for v in y)

    def level_means(fi: int) -> dict:
        sums: dict = {}
        counts: dict = {}
        for value, response_value in zip(level_values[fi], y):
            sums[value] = sums.get(value, 0.0) + response_value
            counts[value] = counts.get(value, 0) + 1
        return {k: sums[k] / counts[k] for k in sums}, counts

    factor_stats = []
    ss_terms = 0.0
    df_terms = 0
    for fi, factor in enumerate(factors):
        means, counts = level_means(fi)
        effects = {k: means[k] - grand_mean for k in means}
        ss = sum(counts[k] * effects[k] ** 2 for k in effects)
        df = len(means) - 1
        factor_stats.append((factor, effects, ss, df))
        ss_terms += ss
        df_terms += df

    interaction_stats = []
    for ai, bi in combinations(range(len(factors)), 2):
        a_means, _ = level_means(ai)
        b_means, _ = level_means(bi)
        cell_sum: dict = {}
        cell_n: dict = {}
        for i in range(n):
            key = (level_values[ai][i], level_values[bi][i])
            cell_sum[key] = cell_sum.get(key, 0.0) + y[i]
            cell_n[key] = cell_n.get(key, 0) + 1
        cells = {}
        ss = 0.0
        for key, total in cell_sum.items():
            mean = total / cell_n[key]
            inter = mean - a_means[key[0]] - b_means[key[1]] + grand_mean
            cells[key] = inter
            ss += cell_n[key] * inter ** 2
        df = (len(a_means) - 1) * (len(b_means) - 1)
        interaction_stats.append(((factors[ai], factors[bi]), cells, ss, df))
        ss_terms += ss
        df_terms += df

    residual_df = n - 1 - df_terms
    if residual_df <= 0:
        raise ValueError("no residual degrees of freedom: add replicates")
    ss_residual = max(ss_total - ss_terms, 0.0)
    ms_residual = ss_residual / residual_df

    def f_test(ss: float, df: int):
        if ss <= 0.0:
            f_stat = 0.0
        elif ms_residual <= 0.0:
            f_stat = math.inf
        else:
            f_stat = (ss / df) / ms_residual
        f_crit = float(f_distribution.ppf(1.0 - alpha, df, residual_df))
        return f_stat, f_crit

    factor_reports = []
    for factor, effects, ss, df in factor_stats:
        f_stat, f_crit = f_test(ss, df)
        ordered = tuple(sorted(effects.items(), key=lambda kv: str(kv[0])))
        factor_reports.append(FactorEffect(
            factor=factor, effects=ordered,
            max_abs_effect=max(abs(e) for _, e in ordered),
            f_stat=f_stat, f_crit=f_crit,
            significant=f_stat > f_crit, df=df))

    interaction_reports = []
    for pair, cells, ss, df in interaction_stats:
        f_stat, f_crit = f_test(ss, df)
        ordered = tuple(sorted(cells.items(), key=lambda kv: (str(kv[0][0]),
                                                              str(kv[0][1]))))
        interaction_reports.append(InteractionEffect(
            factors=pair, cells=ordered,
            max_abs_interaction=max(abs(e) for _, e in ordered),
            f_stat=f_stat, f_crit=f_crit,
            significant=f_stat > f_crit, df=df))

    return EffectReport(
        response=response, n=n, grand_mean=grand_mean,
        factors=tuple(factor_reports),
        interactions=tuple(interaction_reports),
        residual_df=residual_df, residual_ms=ms_residual)


def write_report(report: EffectReport, text_path=None, csv_path=None) -> None:
    if text_path is not None:
        Path(text_path).write_text(report.to_text(), encoding="utf-8")
    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(report.to_csv_rows())
