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
import os
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .annealing import SaParams, Structure, run_sa
from .generator import generate_instance
from .list_scheduler import run_lta
from .model import total_tardiness
from .rules import RULE_CONSTANTS, MachinePolicy, Rule, RuleParams

logger = logging.getLogger(__name__)

#: The results CSV, one row per run: (column, `Observation` field, parser).
_COLUMNS = (
    ("load", "load", int),
    ("nRoutings", "n_routings", int),
    ("setupRatio", "setup_ratio", float),
    ("flexMean", "flex_mean", float),
    ("algorithm", "algorithm", str),
    ("seed", "seed", int),
    ("tardiness", "tardiness", int),
    ("logTardiness", "log_tardiness", float),
    ("runtimeMs", "runtime_ms", float),
)
CSV_COLUMNS = tuple(column for column, _, _ in _COLUMNS)
_FIELDS = {column: field for column, field, _ in _COLUMNS}


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
        return getattr(self, _FIELDS[column])


def write_observations(observations, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([obs.value(c) for c in CSV_COLUMNS]
                         for obs in observations)


def read_observations(path) -> list[Observation]:
    out = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if tuple(next(reader, ())) != CSV_COLUMNS:
            raise ValueError(f"{path}: expected columns {','.join(CSV_COLUMNS)}")
        for row in filter(None, reader):  # blank lines carry no row
            if len(row) != len(_COLUMNS):
                raise ValueError(f"{path}:{reader.line_num}: expected "
                                 f"{len(_COLUMNS)} values, got {len(row)}")
            try:
                out.append(Observation(**{
                    field: parse(text)
                    for (_, field, parse), text in zip(_COLUMNS, row)}))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
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
    """Parse CLI-style tokens: an optional 'lfm_' prefix, a rule name and up
    to as many dot-separated whole-number constants as the rule reads
    (`rules.RULE_CONSTANTS`; 'atcoee', 'atcs.1.1', 'lfm_lfo'), or an
    annealing preset ('op_pa_sa')."""
    token = token.strip().lower()
    if token in _SA_TOKENS:
        label, structure, cooling, max_iters = _SA_TOKENS[token]
        sa = SaParams(structure=structure, cooling_factor=cooling,
                      max_iterations=max_iters)
        return AlgorithmSpec(label=label, rule_params=RuleParams(),
                             sa_params=sa)
    policy = MachinePolicy.LFM if token.startswith("lfm_") else MachinePolicy.FFM
    rule_name, *constants = token.removeprefix("lfm_").split(".")
    try:
        rule = Rule(rule_name)
    except ValueError:
        raise ValueError(f"unknown algorithm {token!r}") from None
    names = RULE_CONSTANTS[rule]
    if len(constants) > len(names) or not all(
            c.isascii() and c.isdigit() for c in constants):
        raise ValueError(
            f"algorithm {token!r}: {rule.value} takes at most {len(names)} "
            f"whole-number constants ({', '.join(names) or 'none'})")
    try:
        params = RuleParams(rule=rule, machine_policy=policy, **{
            k: float(c) for k, c in zip(names, constants)})
    except ValueError as exc:
        raise ValueError(f"algorithm {token!r}: {exc}") from None
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


def run_experiment(design, algorithms, parallel: int = 1) -> list[Observation]:
    """One observation per (design point, algorithm); rows come back sorted
    by every column but the runtime, so output is deterministic regardless
    of worker count (runtimes aside).  Algorithms must have distinct labels.
    `parallel` worker processes are used, at most one per CPU."""
    if not design:
        raise ValueError("empty design")
    if parallel < 1:
        raise ValueError(f"parallel must be 1 or more, got {parallel}")
    labels = [spec.label for spec in algorithms]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"two algorithms share the label {label!r}")
    tasks = [(cfg, seed, spec) for cfg, seed in design for spec in algorithms]
    workers = min(parallel, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            observations = list(pool.map(_run_one, tasks, chunksize=4))
    else:
        observations = [_run_one(t) for t in tasks]
    observations.sort(key=lambda o: tuple(
        o.value(c) for c in CSV_COLUMNS if c != "runtimeMs"))
    return observations


# ---------------------------------------------------------------------------
# Fixed-effects factorial decomposition with F tests.

_CF_EPS = 1e-15
_CF_TINY = 1e-300
_CF_MAX_TERMS = 10000


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, evaluated by
    the modified Lentz method; converges fast for x < (a + 1) / (a + b + 2)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            return h
    raise ValueError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x})")


def _beta_inc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for 0 < x < 1."""
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _f_critical(alpha: float, d1: int, d2: int) -> float:
    """The f with P(F(d1, d2) > f) = alpha: the upper-alpha critical value
    of the F distribution.

    The upper tail is P(F > f) = I_y(d2/2, d1/2) with y = d2 / (d2 + d1 f),
    the regularized incomplete beta function (computed from `math.lgamma`
    and the modified-Lentz continued fraction, Press et al., *Numerical
    Recipes*, section 6.4).  It rises with y, so y is found by bisection to
    full float resolution and f = d2 (1 - y) / (d1 y); solving for the tail
    keeps small alphas precise.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be 1 or more, got {d1}, {d2}")
    a, b = d2 / 2.0, d1 / 2.0
    lo, hi = 0.0, 1.0
    y = 0.5
    while lo < y < hi:
        if _beta_inc(a, b, y) < alpha:
            lo = y
        else:
            hi = y
        y = 0.5 * (lo + hi)
    return d2 * (1.0 - y) / (d1 * y)


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
    refused: their logTardiness of 0 would score them as optimal.  So is a
    single-level factor, whose term has no degrees of freedom to test, and
    a response or factor that is not a results column.
    """
    if not observations:
        raise ValueError("no observations")
    numeric = [c for c, _, parse in _COLUMNS if parse is not str]
    if response not in numeric:
        raise ValueError(f"response {response!r} is not a numeric results "
                         f"column; the numeric columns are {','.join(numeric)}")
    for factor in factors:
        if factor not in CSV_COLUMNS:
            raise ValueError(f"factor {factor!r} is not a results column; "
                             f"the columns are {','.join(CSV_COLUMNS)}")
    if len(set(factors)) != len(factors):
        raise ValueError(f"a factor is listed twice in {','.join(factors)}")
    failed = sum(1 for o in observations if o.tardiness < 0)
    if failed:
        raise ValueError(
            f"{failed} of {len(observations)} observations are failed runs "
            "(tardiness < 0); rerun or drop them before the analysis")
    y = [float(o.value(response)) for o in observations]
    n = len(y)
    level_values = {f: [o.value(f) for o in observations] for f in factors}

    cell_counts = Counter(tuple(values[i] for values in level_values.values())
                          for i in range(n))
    levels = {f: sorted(set(values)) for f, values in level_values.items()}
    for factor in factors:
        if len(levels[factor]) < 2:
            raise ValueError(
                f"factor {factor} has a single level ({levels[factor][0]}) "
                "and no effect to test; leave it out of --factors")
    full_cells = math.prod(len(l) for l in levels.values())
    if len(cell_counts) != full_cells or len(set(cell_counts.values())) != 1:
        raise ValueError(
            "unbalanced design: subset the observations to a full factorial "
            "with equal replicates per cell")

    grand_mean = sum(y) / n
    ss_total = sum((v - grand_mean) ** 2 for v in y)

    # One pass per term, main effects first: the pairs reuse their means.
    level_mean: dict[tuple[str, object], float] = {}
    term_stats = []
    for term in [(f,) for f in factors] + list(combinations(factors, 2)):
        groups: dict[tuple, list[float]] = {}
        for key, value in zip(zip(*(level_values[f] for f in term)), y):
            groups.setdefault(key, []).append(value)
        effects = {}
        for key, values in groups.items():
            mean = sum(values) / len(values)
            if len(term) == 1:
                level_mean[term[0], key[0]] = mean
                effects[key] = mean - grand_mean
            else:
                a_mean = level_mean[term[0], key[0]]
                b_mean = level_mean[term[1], key[1]]
                effects[key] = mean - a_mean - b_mean + grand_mean
        ss = sum(len(groups[key]) * e ** 2 for key, e in effects.items())
        df = math.prod(len(levels[f]) - 1 for f in term)
        term_stats.append((term, effects, ss, df))

    residual_df = n - 1 - sum(df for _, _, _, df in term_stats)
    if residual_df <= 0:
        raise ValueError("no residual degrees of freedom: add replicates")
    ss_terms = sum(ss for _, _, ss, _ in term_stats)
    ms_residual = max(ss_total - ss_terms, 0.0) / residual_df

    factor_reports = []
    interaction_reports = []
    for term, effects, ss, df in term_stats:
        if ss <= 0.0:
            f_stat = 0.0
        elif ms_residual <= 0.0:
            f_stat = math.inf
        else:
            f_stat = (ss / df) / ms_residual
        f_crit = _f_critical(alpha, df, residual_df)
        ordered = sorted(effects.items(),
                         key=lambda kv: tuple(str(level) for level in kv[0]))
        largest = max(abs(e) for _, e in ordered)
        if len(term) == 1:
            factor_reports.append(FactorEffect(
                factor=term[0],
                effects=tuple((key[0], e) for key, e in ordered),
                max_abs_effect=largest, f_stat=f_stat, f_crit=f_crit,
                significant=f_stat > f_crit, df=df))
        else:
            interaction_reports.append(InteractionEffect(
                factors=term, cells=tuple(ordered),
                max_abs_interaction=largest, f_stat=f_stat, f_crit=f_crit,
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
