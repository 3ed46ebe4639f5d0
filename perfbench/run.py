"""chromsched benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload lta_140 --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workload's instances come from the master seed.  With ``--trace 0`` the
run repeats passes over the workload for about ``--seconds`` seconds and
reports the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics.  Every schedule is checked; a failed check makes the
result incorrect and the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a fuller report with provenance and every metric computed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "chromsched" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no chromsched sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from chromsched.experiments import log_tardiness  # noqa: E402

import workloads  # noqa: E402
from hostclock import LapClock  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPANS_DIR = ROOT / ".perfbench_out"

#: Set-up is repeated this many times per invocation; the median is reported.
SETUP_REPEATS = 5


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def provenance(seed: int, workload, passes: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _git_commit(),
        "workload": workload.name,
        "master_seed": seed,
        "passes": passes,
        "max_iterations": workload.max_iterations,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _properties(instances, passes) -> dict:
    """Shares of the workload properties that later gains are tied to."""
    first = passes[0].outcomes
    sa = [o.sa for o in first if o.sa is not None]
    iterations = sum(r.iterations for r in sa)
    return {
        "ops_per_instance_mean": statistics.fmean(
            i.n_operations for i in instances),
        "sa_runs": len(sa),
        "sa_optimum_share": _ratio(
            sum(r.termination == "optimum" for r in sa), len(sa)),
        "sa_proposal_failure_share": _ratio(
            sum(r.proposal_failures for r in sa), iterations),
    }


def search_size(instance) -> int:
    """Operations times (operation, eligible machine) pairs: the list
    scheduler places every operation once and each placement weighs the
    pairs still open, so its work grows with this product."""
    pairs = sum(len(op.eligible) for job in instance.jobs
                for op in job.operations)
    return instance.n_operations * pairs


def end_to_end_metrics(passes, instances, setup_seconds) -> dict:
    """Untraced metrics.  Times are corrected for host speed (see
    `hostclock`) unless named `_raw`; each is the median over the passes."""
    def over_passes(value) -> float:
        return statistics.median(value(p) for p in passes)

    wall = over_passes(lambda p: p.seconds)
    size = sum(search_size(instances[o.task.cell]) for o in passes[0].outcomes)
    metrics = {
        "wall_s": (wall, "s"),
        "wall_s_raw": (over_passes(lambda p: p.raw_seconds), "s"),
        "wall_ns_per_op_pair": (wall * 1e9 / size, "ns"),
        "run_ms_p50": (over_passes(
            lambda p: statistics.median(o.ms for o in p.outcomes)), "ms"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if len(passes[0].outcomes) >= 100:
        metrics["run_ms_p90"] = (over_passes(
            lambda p: statistics.quantiles([o.ms for o in p.outcomes],
                                           n=10)[-1]), "ms")
    scored = [o.tardiness for o in passes[0].outcomes if not o.failed]
    if scored:
        metrics["tardiness_log10_mean"] = (statistics.fmean(
            log_tardiness(t) for t in scored), "log10_min")
    sa_runs = [o for p in passes for o in p.outcomes if o.sa is not None]
    sa_seconds = sum(o.sa_seconds * o.ms / o.raw_ms for o in sa_runs)
    if sa_seconds > 0:
        metrics["sa_iters_per_s"] = (
            sum(o.sa.iterations for o in sa_runs) / sa_seconds, "1/s")
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(o.failed for p in passes for o in p.outcomes)
    metrics["error_rate"] = (failed / attempted, "ratio")
    return metrics


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced, untraced_seconds) -> dict:
    """Per-layer metrics of one traced pass."""
    stats = tracer.stats
    metrics = {}
    for layer, stat in stats.items():
        metrics[f"{layer}.calls"] = (stat.calls, "count")
        metrics[f"{layer}.ms"] = (stat.seconds * 1000.0, "ms")
    for layer in ("list_scheduler.run_lta", "annealing.run_sa"):
        metrics[f"{layer}.self_ms"] = (stats[layer].self_seconds * 1000.0, "ms")
    for caller in ("engine", "list_scheduler"):
        stat = stats[f"availability.find_earliest.{caller}"]
        metrics[f"availability.find_earliest.{caller}.noslot"] = (
            stat.noslot, "count")
        metrics[f"availability.find_earliest.{caller}.profile_len_mean"] = (
            _ratio(stat.size, stat.calls), "count")
    decode = stats["engine.place_sequences"]
    metrics["engine.place_sequences.noslot"] = (decode.noslot, "count")
    metrics["engine.place_sequences.us_per_op"] = (
        _ratio(decode.seconds * 1e6, decode.size), "us")
    select = stats["rules.select_assignment"]
    metrics["rules.select_assignment.candidates"] = (select.size, "count")
    metrics["rules.select_assignment.candidates_per_call"] = (
        _ratio(select.size, select.calls), "count")

    sa = [o.sa for o in traced.outcomes if o.sa is not None]
    counts = {key: sum(getattr(r, key) for r in sa) for key in (
        "iterations", "evaluated", "proposal_failures", "decode_failures",
        "accepted", "improved")}
    for key, value in counts.items():
        metrics[f"annealing.run_sa.{key}"] = (value, "count")
    iterations = counts["iterations"]
    metrics["annealing.run_sa.useful_ratio"] = (
        _ratio(counts["evaluated"], iterations), "ratio")
    metrics["annealing.run_sa.accept_ratio"] = (
        _ratio(counts["accepted"], counts["evaluated"]), "ratio")
    run_sa = stats["annealing.run_sa"]
    metrics["annealing.run_sa.decode_share"] = (
        _ratio(decode.seconds, run_sa.seconds), "ratio")
    metrics["annealing.run_sa.iters_per_s"] = (
        _ratio(iterations, run_sa.seconds), "1/s")
    for reason in ("optimum", "max-iterations", "dead-levels"):
        metrics[f"annealing.termination.{reason}"] = (
            sum(r.termination == reason for r in sa), "count")
    metrics["trace.overhead_frac"] = (
        traced.seconds / untraced_seconds - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    report, line = run(workloads.WORKLOADS[args.workload], args.seed,
                       args.seconds, bool(args.trace), benchmark_spec())
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run(workload, seed: int, seconds: float, trace: bool, spec: dict):
    """Set up, measure and check one workload; returns (report, result)."""
    points = workloads.design(workload, seed)
    task_list = workloads.tasks(workload, points)
    problems = []

    setup_seconds = []
    clock = LapClock()
    for _ in range(SETUP_REPEATS):
        instances = workloads.load_instances(points)
        setup_seconds.append(clock.lap()[1])
    if instances != [workloads.generator.generate_instance(cfg)
                     for cfg, _ in points]:
        problems.append("the JSON round trip changed an instance")

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workloads.run_pass(workload, instances, task_list))
        elapsed = time.perf_counter() - start
        if trace or elapsed + passes[-1].raw_seconds > seconds:
            break

    traced = None
    if trace:
        with Tracer() as tracer:
            traced_instances = workloads.load_instances(points)
            traced = workloads.run_pass(workload, traced_instances, task_list,
                                        tracer)

    checked = passes + ([traced] if traced else [])
    fingerprint = [o.fingerprint() for o in passes[0].outcomes]
    for p in checked[1:]:
        if [o.fingerprint() for o in p.outcomes] != fingerprint:
            problems.append("a repeated pass produced different results")
    for p in checked:
        if p.anova_problem:
            problems.append(p.anova_problem)
    failures = [f"{o.task.label} cell {o.task.cell}: {msg}"
                for p in checked for o in p.outcomes for msg in o.problems]

    if trace:
        metrics = layer_metrics(tracer, traced, passes[0].seconds)
        problems += _coverage_problems(workload, metrics)
        names = [m["name"] for m in spec["per_layer"]]
        _write_spans(workload, seed, tracer)
    else:
        metrics = end_to_end_metrics(passes, instances, setup_seconds)
        names = [m["name"] for m in spec["end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        problems.append(f"metrics not computed: {', '.join(missing)}")

    properties = _properties(instances, passes)
    if trace:
        properties["sa_decode_share"] = metrics[
            "annealing.run_sa.decode_share"][0]
    report = {
        "provenance": provenance(seed, workload, len(passes)),
        "properties": properties,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems + failures[:20],
    }
    line = {
        "correct": not problems and not failures,
        "attempted": sum(len(p.outcomes) for p in checked),
        "failed": sum(o.failed for p in checked for o in p.outcomes),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names if n in metrics},
    }
    return report, line


#: Layers only annealing reaches; workloads without annealing skip them.
ANNEALING_LAYERS = frozenset({
    "annealing.run_sa", "engine.place_sequences",
    "availability.find_earliest.engine", "availability.reserve_step.engine"})


def exercised_layers(workload) -> list[str]:
    """Layers a traced pass of `workload` must record calls on."""
    anneals = any(t in workloads.SA_TOKENS for t in workload.tokens)
    return [layer for layer in LAYERS
            if (anneals or layer not in ANNEALING_LAYERS)
            and (workload.anova or layer != "experiments.anova_effects")]


def _coverage_problems(workload, metrics) -> list[str]:
    return [f"layer {layer} recorded no calls on {workload.name}"
            for layer in exercised_layers(workload)
            if not metrics[f"{layer}.calls"][0]]


def _write_spans(workload, seed, tracer) -> None:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
