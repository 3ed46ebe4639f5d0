"""The benchmark's own tests: metric naming, determinism, layer coverage
and the schedule checks.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import re
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402
from chromsched import list_scheduler, model  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Every cell of the 70-job design, one rule and a short annealing run: the
# same code paths as the real workloads in a few seconds.
TINY = workloads.Workload("tiny", 70, ("atcoee", "op_pa_sa"), 20, False)
SPEC = run.benchmark_spec()


def _run(trace: bool):
    report, line = run.run(TINY, 3, 0.0, trace, SPEC)
    assert line["correct"], report["problems"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    return report, line


def _assert_named(metrics: dict) -> None:
    for name, entry in metrics.items():
        assert NAME.fullmatch(name), name
        assert set(entry) == {"value", "unit"}, name
        assert UNIT.fullmatch(entry["unit"]), (name, entry["unit"])
        assert isinstance(entry["value"], (int, float)), name


def test_every_printed_metric_has_a_name_and_a_unit():
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        report, line = _run(trace)
        _assert_named(report["metrics"])
        _assert_named(line["metrics"])
        listed = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {n: e["unit"] for n, e in line["metrics"].items()} == listed


def test_deterministic_metrics_repeat_across_invocations():
    def deterministic(report):
        metrics = report["metrics"]
        return {name: e["value"] for name, e in metrics.items()
                if name == "tardiness_log10_mean"
                or name == "rules.select_assignment.candidates"
                or (name.startswith("annealing.") and e["unit"] == "count")}

    first = deterministic(_run(True)[0])
    assert first["annealing.run_sa.iterations"] > 0
    assert first["rules.select_assignment.candidates"] > 0
    assert deterministic(_run(True)[0]) == first
    untraced = deterministic(_run(False)[0])
    assert untraced == deterministic(_run(False)[0])
    assert untraced["tardiness_log10_mean"] > 0


def test_every_listed_layer_is_exercised_by_some_workload():
    covered = set()
    for workload in workloads.WORKLOADS.values():
        covered.update(run.exercised_layers(workload))
    assert covered == set(LAYERS)
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        assert (name.startswith(("annealing.", "trace."))
                or any(name.startswith(layer + ".") for layer in LAYERS)), name


def test_tracer_puts_every_name_back():
    before = (list_scheduler.run_lta, list_scheduler.find_earliest,
              model.validate_schedule)
    with Tracer():
        assert list_scheduler.run_lta is not before[0]
    assert (list_scheduler.run_lta, list_scheduler.find_earliest,
            model.validate_schedule) == before


def test_checks_reject_what_the_validator_lets_through():
    cfg, seed = workloads.design(TINY, 0)[0]
    instance = workloads.generator.generate_instance(cfg)
    schedule = list_scheduler.run_lta(instance, seed=seed)
    _, problems = workloads.check_schedule(instance, schedule)
    assert problems == []

    shifted = replace(instance, horizon_origin=schedule.placements[-1].start)
    assert model.validate_schedule(shifted, schedule) == []
    assert any("horizon origin" in p
               for p in workloads.check_schedule(shifted, schedule)[1])

    task = workloads.tasks(TINY, [(cfg, seed)])[1]
    sa = workloads.annealing.run_sa(instance, schedule, task.sa_params, seed)
    lying = replace(sa, tardiness=sa.tardiness + 1)
    assert any("SaResult.tardiness" in p for p in workloads.check_schedule(
        instance, sa.schedule, schedule, lying)[1])
