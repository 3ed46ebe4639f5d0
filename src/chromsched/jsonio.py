"""JSON wire formats for instances and schedules.

Instances: {machines, column_types, operator_windows, jobs, horizon_origin}.
Operator windows are either an explicit [[start, end], ...] list or the
compact weekly form {"weekly": {"days": [...], "start": "08:00",
"end": "18:00"}, "from": a, "until": b}, where until - from spans at most
`availability.MAX_WEEKLY_SPAN_DAYS` days.
Schedules: [{operation, machine, setup, start, completion}, ...].
"""

from __future__ import annotations

import json
from pathlib import Path

from .availability import TimeWindowSet, weekly_windows
from .errors import InstanceFormatError
from .model import (ColumnType, Instance, Job, Operation, PlacedOperation,
                    Schedule)


def _need(obj, key, kind, where):
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    if key not in obj:
        raise InstanceFormatError(f"{where}.{key}: missing")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise InstanceFormatError(f"{where}.{key}: expected integer")
    if not isinstance(value, kind):
        raise InstanceFormatError(
            f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _integer_pair(pair) -> bool:
    return all(isinstance(v, int) and not isinstance(v, bool) for v in pair)


def _windows_from_json(raw, where) -> TimeWindowSet:
    if isinstance(raw, dict):
        weekly = _need(raw, "weekly", dict, where)
        try:
            return weekly_windows(
                _need(weekly, "days", list, f"{where}.weekly"),
                weekly.get("start", "08:00"),
                weekly.get("end", "18:00"),
                _need(raw, "from", int, where),
                _need(raw, "until", int, where),
            )
        except ValueError as exc:
            raise InstanceFormatError(f"{where}: {exc}") from exc
    if not isinstance(raw, list):
        raise InstanceFormatError(f"{where}: expected list or weekly object")
    windows = []
    for i, pair in enumerate(raw):
        if (not isinstance(pair, list) or len(pair) != 2
                or not _integer_pair(pair)):
            raise InstanceFormatError(
                f"{where}[{i}]: expected [start, end] integer pair")
        windows.append((pair[0], pair[1]))
    try:
        return TimeWindowSet(tuple(windows))
    except ValueError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def instance_from_dict(doc: dict) -> Instance:
    machines = _need(doc, "machines", list, "instance")
    for i, m in enumerate(machines):
        if not isinstance(m, str):
            raise InstanceFormatError(f"instance.machines[{i}]: expected string id")
    column_types = []
    for i, raw in enumerate(_need(doc, "column_types", list, "instance")):
        where = f"instance.column_types[{i}]"
        try:
            column_types.append(ColumnType(
                family=_need(raw, "family", str, where),
                units=_need(raw, "units", int, where)))
        except ValueError as exc:
            raise InstanceFormatError(f"{where}.units: {exc}") from exc
    windows = _windows_from_json(doc.get("operator_windows", []),
                                 "instance.operator_windows")
    jobs = []
    for i, raw in enumerate(_need(doc, "jobs", list, "instance")):
        where = f"instance.jobs[{i}]"
        job_id = _need(raw, "id", str, where)
        operations = []
        for k, op_raw in enumerate(_need(raw, "operations", list, where)):
            op_where = f"{where}.operations[{k}]"
            eligible = _need(op_raw, "eligible", list, op_where)
            for e, m in enumerate(eligible):
                if not isinstance(m, str):
                    raise InstanceFormatError(
                        f"{op_where}.eligible[{e}]: expected string id")
            try:
                operations.append(Operation(
                    id=_need(op_raw, "id", str, op_where),
                    job_id=job_id,
                    family=_need(op_raw, "family", str, op_where),
                    processing=_need(op_raw, "p", int, op_where),
                    setup=_need(op_raw, "s", int, op_where),
                    eligible=frozenset(eligible)))
            except ValueError as exc:
                raise InstanceFormatError(f"{op_where}: {exc}") from exc
        try:
            jobs.append(Job(
                id=job_id,
                release=_need(raw, "release", int, where),
                due=_need(raw, "due", int, where),
                operations=tuple(operations)))
        except ValueError as exc:
            raise InstanceFormatError(f"{where}: {exc}") from exc
    origin = doc.get("horizon_origin", 0)
    if not isinstance(origin, int) or isinstance(origin, bool):
        raise InstanceFormatError("instance.horizon_origin: expected integer")
    try:
        return Instance(
            machines=tuple(machines),
            column_types=tuple(column_types),
            operator_windows=windows,
            jobs=tuple(jobs),
            horizon_origin=origin)
    except ValueError as exc:
        raise InstanceFormatError(f"instance: {exc}") from exc


def instance_to_dict(instance: Instance) -> dict:
    for i, window in enumerate(instance.operator_windows):
        if not _integer_pair(window):
            raise InstanceFormatError(
                f"instance.operator_windows[{i}]: {list(window)} is not an "
                "integer pair; an unbounded or fractional window is not "
                "serializable")
    return {
        "machines": list(instance.machines),
        "column_types": [
            {"family": c.family, "units": c.units} for c in instance.column_types],
        "operator_windows": [[a, b] for a, b in instance.operator_windows],
        "jobs": [
            {
                "id": job.id,
                "release": job.release,
                "due": job.due,
                "operations": [
                    {
                        "id": op.id,
                        "family": op.family,
                        "p": op.processing,
                        "s": op.setup,
                        "eligible": sorted(op.eligible),
                    }
                    for op in job.operations
                ],
            }
            for job in instance.jobs
        ],
        "horizon_origin": instance.horizon_origin,
    }


def schedule_from_list(doc: list) -> Schedule:
    if not isinstance(doc, list):
        raise InstanceFormatError("schedule: expected a list of placements")
    placements = []
    for i, raw in enumerate(doc):
        where = f"schedule[{i}]"
        setup = _need(raw, "setup", bool, where)
        placements.append(PlacedOperation(
            operation_id=_need(raw, "operation", str, where),
            machine=_need(raw, "machine", str, where),
            setup_performed=setup,
            start=_need(raw, "start", int, where),
            completion=_need(raw, "completion", int, where)))
    return Schedule(tuple(placements))


def schedule_to_list(schedule: Schedule) -> list:
    return [
        {
            "operation": p.operation_id,
            "machine": p.machine,
            "setup": p.setup_performed,
            "start": p.start,
            "completion": p.completion,
        }
        for p in schedule.placements
    ]


def _dump(obj, path) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _load(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise InstanceFormatError(f"{path}: JSON nested too deeply") from None


def write_instance(instance: Instance, path) -> None:
    _dump(instance_to_dict(instance), path)


def read_instance(path) -> Instance:
    return instance_from_dict(_load(path))


def write_schedule(schedule: Schedule, path) -> None:
    _dump(schedule_to_list(schedule), path)


def read_schedule(path) -> Schedule:
    return schedule_from_list(_load(path))
