import json
import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chromsched.availability import TimeWindowSet
from chromsched.errors import InstanceFormatError
from chromsched.generator import GenConfig, generate_instance
from chromsched.jsonio import (instance_from_dict, instance_to_dict,
                               read_instance, read_schedule, schedule_from_list,
                               schedule_to_list, write_instance, write_schedule)
from chromsched.list_scheduler import run_lta
from chromsched.model import Instance

from oracles import always_open


@pytest.fixture
def instance():
    return generate_instance(GenConfig(n_jobs=6, n_routings=3, seed=5,
                                       unchecked=True))


def test_instance_round_trip(instance, tmp_path):
    path = tmp_path / "instance.json"
    write_instance(instance, path)
    assert read_instance(path) == instance


def test_schedule_round_trip(instance, tmp_path):
    schedule = run_lta(instance)
    path = tmp_path / "schedule.json"
    write_schedule(schedule, path)
    assert read_schedule(path) == schedule


def test_write_is_byte_stable(instance, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_instance(instance, a)
    write_instance(instance, b)
    assert a.read_bytes() == b.read_bytes()


def test_schedule_keys_are_wire_format(instance):
    schedule = run_lta(instance)
    row = schedule_to_list(schedule)[0]
    assert set(row) == {"operation", "machine", "setup", "start", "completion"}


def test_weekly_compact_form():
    doc = {
        "machines": ["m0"],
        "column_types": [{"family": "fA", "units": 1}],
        "operator_windows": {
            "weekly": {"days": ["MON", "TUE", "WED", "THU", "FRI"],
                       "start": "08:00", "end": "18:00"},
            "from": 0, "until": 7 * 1440},
        "jobs": [{"id": "j0", "release": 0, "due": 1000, "operations": [
            {"id": "j0.1", "family": "fA", "p": 60, "s": 30,
             "eligible": ["m0"]}]}],
    }
    inst = instance_from_dict(doc)
    assert inst.operator_windows.contains(480)
    assert not inst.operator_windows.contains(5 * 1440 + 600)


def test_error_cites_offending_field():
    doc = {
        "machines": ["m0"],
        "column_types": [{"family": "fA", "units": 1}],
        "operator_windows": [],
        "jobs": [{"id": "j0", "release": 0, "due": 100, "operations": [
            {"id": "j0.1", "family": "fA", "p": "sixty", "s": 0,
             "eligible": ["m0"]}]}],
    }
    with pytest.raises(InstanceFormatError, match=r"jobs\[0\].operations\[0\].p"):
        instance_from_dict(doc)


def test_missing_key_cited():
    with pytest.raises(InstanceFormatError, match="instance.machines"):
        instance_from_dict({"column_types": [], "jobs": []})


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InstanceFormatError, match="invalid JSON"):
        read_instance(path)


def test_too_deeply_nested_json_reported(tmp_path):
    # json.dumps cannot build this document, so the text is written directly
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    for read in (read_instance, read_schedule):
        with pytest.raises(InstanceFormatError,
                           match="deep.json: JSON nested too deeply"):
            read(path)


def test_semantic_errors_wrapped():
    doc = {
        "machines": ["m0"],
        "column_types": [],
        "operator_windows": [],
        "jobs": [{"id": "j0", "release": 0, "due": 100, "operations": [
            {"id": "j0.1", "family": "fA", "p": 60, "s": 0,
             "eligible": ["m0"]}]}],
    }
    with pytest.raises(InstanceFormatError, match="column type"):
        instance_from_dict(doc)
    doc["column_types"] = [{"family": "fA", "units": 0}]
    with pytest.raises(InstanceFormatError,
                       match=r"column_types\[0\].units: .*units must be >= 1"):
        instance_from_dict(doc)
    doc["column_types"] = [{"family": "fA", "units": 1}]
    for weekly, until, match in (
            ({"days": ["XYZ"]}, 1440, "unknown weekday 'XYZ'"),
            ({"days": [7]}, 1440, "weekday 7 is outside 0-6"),
            ({"days": ["MON"], "start": "25:00"}, 1440,
             "start '25:00' is outside 00:00-24:00"),
            ({"days": ["MON"], "end": "ab"}, 1440,
             "end 'ab' is not HH:MM or a minute count"),
            ({"days": ["MON"], "start": "18:00", "end": "08:00"}, 1440,
             "end must be after start"),
            ({"days": [True], "start": True, "end": "08:75"}, 1440,
             "start True is not HH:MM"),
            ({"days": [True]}, 1440, "unknown weekday True"),
            ({"days": ["MON"], "end": "08:75"}, 1440,
             "end '08:75' has minutes outside 00-59"),
            ({"days": ["MON"], "start": "08:-5"}, 1440,
             "start '08:-5' is not HH:MM"),
            ({"days": ["MON"], "end": "23:60"}, 1440,
             "end '23:60' has minutes outside 00-59"),
            ({"days": ["MON"], "end": "24:30"}, 1440,
             "end '24:30' is outside 00:00-24:00"),
            ({"days": ["MON"], "start": "+8:00"}, 1440,
             r"start '\+8:00' is not HH:MM"),
            ({"days": ["MON"], "start": " 8:00"}, 1440,
             "start ' 8:00' is not HH:MM"),
            ({"days": ["MON"], "start": "0_8:00"}, 1440,
             "start '0_8:00' is not HH:MM"),
            ({"days": ["MON"], "start": "08:"}, 1440,
             "start '08:' is not HH:MM"),
            ({"days": ["MON"], "start": "\uff10\uff18:\uff10\uff10"}, 1440,
             "start '\uff10\uff18:\uff10\uff10' is not HH:MM"),
            ({"days": ["MON"], "start": "8"}, 1440, "start '8' is not HH:MM"),
            ({"days": ["MON"], "end": "8:5"}, 1440, "end '8:5' is not HH:MM"),
            ({"days": ["MON"], "end": "18:00\n"}, 1440,
             r"end '18:00\\n' is not HH:MM"),
            ({"days": ["MON"]}, 10**12, "MAX_WEEKLY_SPAN_DAYS"),
            ({"days": ["MON"]}, 10**8, "MAX_WEEKLY_SPAN_DAYS")):
        doc["operator_windows"] = {"weekly": weekly, "from": 0, "until": until}
        with pytest.raises(InstanceFormatError,
                           match=f"instance.operator_windows: .*{match}"):
            instance_from_dict(doc)


def test_unbounded_windows_not_serializable(instance):
    unbounded = replace(instance, operator_windows=always_open(0))
    with pytest.raises(InstanceFormatError, match="unbounded"):
        instance_to_dict(unbounded)


@pytest.mark.parametrize("window", [(-math.inf, 100), (0, math.inf),
                                    (-math.inf, math.inf)])
def test_only_integer_windows_are_written(instance, window, tmp_path):
    # every window written must be one `read_instance` accepts; a
    # fractional bound is refused when the window set is built
    windows = TimeWindowSet((window, (200, 300)))
    with pytest.raises(InstanceFormatError,
                       match=r"instance.operator_windows\[0\]: .* not an integer"):
        write_instance(replace(instance, operator_windows=windows),
                       tmp_path / "instance.json")
    assert not (tmp_path / "instance.json").exists()


def test_schedule_setup_must_be_boolean():
    with pytest.raises(InstanceFormatError, match=r"schedule\[0\].setup"):
        schedule_from_list([{"operation": "a", "machine": "m", "setup": 1,
                             "start": 0, "completion": 5}])


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


def maybe(strategy):
    """The well-formed value, or one time in eight any JSON value."""
    return st.integers(0, 7).flatmap(
        lambda k: json_values if k == 7 else strategy)


machine_ids = st.sampled_from(["m0", "m1", ""])
families = st.sampled_from(["fA", "fB"])
operation_docs = st.fixed_dictionaries({
    "id": maybe(st.sampled_from(["j0.1", "j0.2", "j1.1"])),
    "family": maybe(families), "p": maybe(st.integers(-5, 500)),
    "s": maybe(st.integers(-5, 500)),
    "eligible": maybe(st.lists(machine_ids, max_size=2))})
job_docs = st.fixed_dictionaries({
    "id": maybe(st.sampled_from(["j0", "j1"])),
    "release": maybe(st.integers(-10**6, 10**6)),
    "due": maybe(st.integers(-10**6, 10**6)),
    "operations": maybe(st.lists(operation_docs, min_size=1, max_size=2))})
day_values = st.sampled_from(["MON", "fri", "Sunday", "XYZ", 0, 6, 7, -1])
time_values = st.sampled_from(["08:00", "18:00", "24:00", "25:00", "ab", "8",
                               "08:xx", 0, 1440, 1441, -1])
weekly_docs = st.fixed_dictionaries(
    {"weekly": maybe(st.fixed_dictionaries(
        {"days": maybe(st.lists(day_values, max_size=7))},
        optional={"start": maybe(time_values), "end": maybe(time_values)})),
     "from": maybe(st.integers(-10**6, 10**6)),
     "until": maybe(st.integers(-10**6, 10**6) | st.integers(-10**13, 10**13))})
window_lists = st.lists(maybe(st.lists(st.integers(-10**6, 10**6), max_size=3)),
                        max_size=4)
instance_docs = st.fixed_dictionaries(
    {"machines": maybe(st.lists(machine_ids, min_size=1, max_size=2,
                                unique=True)),
     "column_types": maybe(st.lists(st.fixed_dictionaries(
         {"family": maybe(families), "units": maybe(st.sampled_from([1, 2, 0]))}),
         min_size=1, max_size=2, unique_by=lambda c: repr(c["family"]))),
     "jobs": maybe(st.lists(job_docs, max_size=2))},
    optional={"operator_windows": maybe(weekly_docs | window_lists),
              "horizon_origin": maybe(st.integers(-10**6, 10**6))})


# The first text draw builds Hypothesis' Unicode table, over a second in a
# checkout with no example database; that is not the test being slow.
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(maybe(instance_docs))
def test_fuzzed_documents_load_or_fail_cleanly(doc):
    try:
        loaded = instance_from_dict(doc)
    except InstanceFormatError:
        return
    assert isinstance(loaded, Instance)
