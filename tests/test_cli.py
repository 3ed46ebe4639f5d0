import csv
import json

import pytest
from hypothesis import given, settings, strategies as st

from chromsched.cli import main
from chromsched.jsonio import write_instance

from test_annealing import shared_column_instance
from test_jsonio import instance_docs, maybe
from test_list_scheduler import no_window_left_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerateSolveValidate:
    def test_round_trip(self, tmp_path, capsys):
        instance = tmp_path / "instance.json"
        schedule = tmp_path / "schedule.json"
        code, out, _ = run(capsys, "generate", "--jobs", "12", "--routings", "4",
                           "--seed", "3", "--unchecked", "--out", str(instance))
        assert code == 0
        assert "jobs=12" in out

        code, out, _ = run(capsys, "solve", "--instance", str(instance),
                           "--out", str(schedule), "--seed", "1")
        assert code == 0
        assert out.startswith("tardiness=")
        assert "makespan=" in out

        code, out, _ = run(capsys, "validate", "--instance", str(instance),
                           "--schedule", str(schedule))
        assert code == 0
        assert out.strip() == "OK"

    def test_solve_is_byte_identical_across_reruns(self, tmp_path, capsys):
        instance = tmp_path / "instance.json"
        run(capsys, "generate", "--jobs", "12", "--routings", "4", "--seed", "5",
            "--unchecked", "--out", str(instance))
        outs = []
        bytes_ = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code, out, _ = run(capsys, "solve", "--instance", str(instance),
                               "--out", str(path), "--algorithm", "sa",
                               "--max-iters", "300", "--seed", "9")
            assert code == 0
            outs.append(out)
            bytes_.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert bytes_[0] == bytes_[1]

    def test_sa_writes_trace(self, tmp_path, capsys):
        instance = tmp_path / "instance.json"
        trace = tmp_path / "trace.csv"
        # overloaded shop so tardiness stays positive and the loop runs
        run(capsys, "generate", "--jobs", "36", "--routings", "5", "--machines",
            "3", "--column-types", "4", "--seed", "2", "--unchecked",
            "--out", str(instance))
        code, out, _ = run(capsys, "solve", "--instance", str(instance),
                           "--out", str(tmp_path / "s.json"), "--algorithm",
                           "sa", "--max-iters", "200", "--trace", str(trace))
        assert code == 0
        assert "sa iterations=" in out
        with open(trace, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["iteration", "temperature", "current", "best"]
        assert len(rows) > 1

    def test_sa_anneals_from_an_initial_schedule_on_a_shared_column(
            self, tmp_path, capsys):
        # the list scheduler's schedule decodes to itself and no move of
        # its one tardy operation exists, so the search runs out of levels
        instance = tmp_path / "instance.json"
        schedule = tmp_path / "s.json"
        write_instance(shared_column_instance(), instance)
        code, out, err = run(capsys, "solve", "--instance", str(instance),
                             "--out", str(schedule), "--algorithm", "sa")
        assert (code, err) == (0, "")
        assert "decode_failures=0 levels=3 termination=dead-levels" in out
        assert "tardiness=5 " in out
        code, out, _ = run(capsys, "validate", "--instance", str(instance),
                           "--schedule", str(schedule))
        assert (code, out.strip()) == (0, "OK")

    def test_validate_reports_violations(self, tmp_path, capsys):
        instance = tmp_path / "instance.json"
        schedule = tmp_path / "schedule.json"
        run(capsys, "generate", "--jobs", "12", "--routings", "4", "--seed",
            "3", "--unchecked", "--out", str(instance))
        run(capsys, "solve", "--instance", str(instance), "--out",
            str(schedule))
        # corrupt one placement's start
        import json
        doc = json.loads(schedule.read_text())
        doc[0]["start"] -= 10_000
        schedule.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--instance", str(instance),
                           "--schedule", str(schedule))
        assert code == 2
        assert "INVALID" in out


class TestUsageErrors:
    def test_missing_required_flag_exits_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--out", str(tmp_path / "s.json"))
        assert code == 1
        assert "usage" in err.lower() or "error" in err.lower()

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_unreadable_instance_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--instance",
                           str(tmp_path / "missing.json"), "--out",
                           str(tmp_path / "s.json"))
        assert code == 2
        assert "chromsched:" in err

    def test_malformed_instance_cites_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"machines": ["m0"], "column_types": [], "jobs": "x"}')
        code, _, err = run(capsys, "solve", "--instance", str(bad), "--out",
                           str(tmp_path / "s.json"))
        assert code == 2
        assert "jobs" in err

    def test_no_window_left_exits_2_with_the_cause(self, tmp_path, capsys):
        instance = tmp_path / "instance.json"
        schedule = tmp_path / "s.json"
        write_instance(no_window_left_instance(), instance)
        code, out, err = run(capsys, "solve", "--instance", str(instance),
                             "--out", str(schedule))
        assert code == 2
        assert out == ""
        assert err == ("chromsched: no open operation can be placed on any "
                       "machine: no operator window is left for the setup of "
                       "1 open operation(s), first j1.1 on m0\n")
        assert not schedule.exists()

    def test_negative_max_iters_exits_2(self, tmp_path, capsys):
        instance = tmp_path / "instance.json"
        schedule = tmp_path / "s.json"
        run(capsys, "generate", "--jobs", "12", "--routings", "4", "--seed",
            "3", "--unchecked", "--out", str(instance))
        code, out, err = run(capsys, "solve", "--instance", str(instance),
                             "--out", str(schedule), "--algorithm", "sa",
                             "--max-iters", "-1")
        assert code == 2
        assert "--max-iters" in err
        assert out == ""
        assert not schedule.exists()

    @pytest.mark.parametrize("algorithm", ["lta", "sa"])
    def test_bad_cooling_exits_2_before_reading(self, tmp_path, capsys,
                                                algorithm):
        # the instance does not exist: the flags are checked first
        schedule = tmp_path / "s.json"
        code, out, err = run(capsys, "solve", "--instance",
                             str(tmp_path / "missing.json"), "--out",
                             str(schedule), "--algorithm", algorithm,
                             "--cooling", "1.5")
        assert code == 2
        assert "cooling_factor must be in (0, 1)" in err
        assert out == ""
        assert not schedule.exists()

    def test_trace_without_annealing_exits_2(self, tmp_path, capsys):
        instance = tmp_path / "instance.json"
        schedule = tmp_path / "s.json"
        trace = tmp_path / "t.csv"
        run(capsys, "generate", "--jobs", "10", "--unchecked", "--out",
            str(instance))
        code, out, err = run(capsys, "solve", "--instance", str(instance),
                             "--out", str(schedule), "--trace", str(trace))
        assert code == 2
        assert "--trace needs --algorithm sa" in err
        assert out == ""
        assert not schedule.exists() and not trace.exists()

    def test_nan_flex_mean_exits_2(self, tmp_path, capsys):
        instance = tmp_path / "instance.json"
        code, out, err = run(capsys, "generate", "--flex-mean", "nan",
                             "--unchecked", "--out", str(instance))
        assert code == 2
        assert "flex_mean" in err
        assert out == ""
        assert not instance.exists()

    @pytest.mark.parametrize("value", ["-inf", "inf"])
    def test_infinite_flex_mean_exits_2(self, tmp_path, capsys, value):
        instance = tmp_path / "instance.json"
        code, out, err = run(capsys, "generate", "--jobs", "5",
                             f"--flex-mean={value}", "--unchecked", "--out",
                             str(instance))
        assert code == 2
        assert err == f"chromsched: flex_mean must be finite, got {value}\n"
        assert out == ""
        assert not instance.exists()

    @pytest.mark.parametrize("algorithm", ["lta", "sa"])
    def test_duplicate_job_id_exits_2(self, tmp_path, capsys, algorithm):
        instance = tmp_path / "instance.json"
        schedule = tmp_path / "s.json"
        instance.write_text(json.dumps({
            "machines": ["m0", "m1"],
            "column_types": [{"family": "fA", "units": 1}],
            "operator_windows": [[0, 100000]],
            "jobs": [
                {"id": "j1", "release": 0, "due": 10, "operations": [
                    {"id": "a.1", "family": "fA", "p": 50, "s": 5,
                     "eligible": ["m0"]}]},
                {"id": "j1", "release": 0, "due": 500, "operations": [
                    {"id": "b.1", "family": "fA", "p": 40, "s": 5,
                     "eligible": ["m0", "m1"]}]}]}))
        code, out, err = run(capsys, "solve", "--instance", str(instance),
                             "--out", str(schedule), "--algorithm", algorithm)
        assert code == 2
        assert err == "chromsched: instance: duplicate job id j1\n"
        assert out == ""
        assert not schedule.exists()

    def test_too_deeply_nested_instance_exits_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        for argv in (("validate", "--instance", str(deep), "--schedule",
                      str(deep)),
                     ("solve", "--instance", str(deep), "--out",
                      str(tmp_path / "s.json"))):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert err == f"chromsched: {deep}: JSON nested too deeply\n"
            assert out == ""

    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_parallel_below_1_exits_2(self, tmp_path, capsys, parallel):
        results = tmp_path / "results.csv"
        code, out, err = run(capsys, "experiment", "--cells", "1", "--seeds",
                             "1", "--algorithms", "edd", "--loads", "10",
                             "--unchecked", "--parallel", parallel, "--out",
                             str(results))
        assert code == 2
        assert "parallel must be 1 or more" in err
        assert out == ""
        assert not results.exists()

    def test_non_integer_load_names_the_flag_and_token(self, tmp_path,
                                                       capsys):
        results = tmp_path / "results.csv"
        code, out, err = run(capsys, "experiment", "--cells", "1", "--seeds",
                             "1", "--algorithms", "edd", "--loads", "10,x",
                             "--unchecked", "--out", str(results))
        assert code == 2
        assert err == "chromsched: --loads: 'x' is not a whole number\n"
        assert out == ""
        assert not results.exists()

    @pytest.mark.parametrize("flag, value", [("--k1", "nan"), ("--k2", "inf")])
    def test_non_finite_rule_constant_exits_2(self, tmp_path, capsys, flag,
                                              value):
        instance = tmp_path / "instance.json"
        schedule = tmp_path / "s.json"
        run(capsys, "generate", "--jobs", "10", "--unchecked", "--out",
            str(instance))
        code, out, err = run(capsys, "solve", "--instance", str(instance),
                             "--out", str(schedule), "--rule", "atcoeef",
                             flag, value)
        assert code == 2
        assert "positive and finite" in err
        assert out == ""
        assert not schedule.exists()

    def test_huge_weekly_span_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "machines": ["m0"], "column_types": [{"family": "fA", "units": 1}],
            "operator_windows": {"weekly": {"days": ["MON"]},
                                 "from": 0, "until": 10**12},
            "jobs": []}))
        code, _, err = run(capsys, "solve", "--instance", str(bad), "--out",
                           str(tmp_path / "s.json"))
        assert code == 2
        assert "instance.operator_windows" in err
        assert "MAX_WEEKLY_SPAN_DAYS" in err


class TestExperimentAndReport:
    def test_experiment_cardinality_and_report(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        code, out, _ = run(capsys, "experiment", "--cells", "16", "--seeds",
                           "2", "--algorithms", "atcoee,edd", "--loads", "10",
                           "--unchecked", "--master-seed", "5", "--out",
                           str(results))
        assert code == 0
        assert "rows=64" in out
        with open(results, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 65  # header + 16 cells x 2 seeds x 2 algorithms
        assert rows[0] == ["load", "nRoutings", "setupRatio", "flexMean",
                           "algorithm", "seed", "tardiness", "logTardiness",
                           "runtimeMs"]

        text = tmp_path / "effects.txt"
        csv_out = tmp_path / "effects.csv"
        code, out, _ = run(capsys, "report", "--results", str(results),
                           "--text", str(text), "--csv", str(csv_out))
        assert code == 0
        assert "algorithm" in out
        assert text.exists() and csv_out.exists()

    def test_report_refuses_failed_runs(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        code, _, _ = run(capsys, "experiment", "--cells", "16", "--seeds",
                         "2", "--algorithms", "edd", "--loads", "10",
                         "--unchecked", "--out", str(results))
        assert code == 0
        with open(results, newline="") as handle:
            rows = list(csv.reader(handle))
        rows[1][6:8] = ["-1", "0.0"]  # tardiness, logTardiness
        with open(results, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        code, out, err = run(capsys, "report", "--results", str(results))
        assert code == 2
        assert out == ""
        assert "1 of 32 observations are failed runs" in err

    def test_report_refuses_single_level_factor(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        code, _, _ = run(capsys, "experiment", "--cells", "16", "--seeds",
                         "2", "--algorithms", "edd", "--loads", "10",
                         "--unchecked", "--out", str(results))
        assert code == 0
        code, out, err = run(capsys, "report", "--results", str(results))
        assert code == 2
        assert out == ""
        assert "factor algorithm has a single level" in err
        assert "--factors" in err

    @pytest.mark.parametrize("factors", ["", ","])
    def test_report_refuses_no_factors(self, tmp_path, capsys, factors):
        results = tmp_path / "results.csv"
        code, _, _ = run(capsys, "experiment", "--cells", "16", "--seeds",
                         "2", "--algorithms", "atcoee,edd", "--loads", "10",
                         "--unchecked", "--out", str(results))
        assert code == 0
        code, out, err = run(capsys, "report", "--results", str(results),
                             "--factors", factors)
        assert code == 2
        assert out == ""
        assert "nothing to test" in err

    def test_experiment_refuses_a_shared_label(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        code, out, err = run(capsys, "experiment", "--cells", "1", "--seeds",
                             "1", "--algorithms", "atcoee,atcoee.10.1",
                             "--loads", "10", "--unchecked", "--out",
                             str(results))
        assert code == 2
        assert "share the label 'atcoee.10.1'" in err
        assert out == ""
        assert not results.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--response", "bogus"), ("--factors", "algorithm,bogus"),
        ("--response", "algorithm")])
    def test_report_refuses_a_column_it_cannot_use(self, tmp_path, capsys,
                                                   flag, value):
        results = tmp_path / "results.csv"
        code, _, _ = run(capsys, "experiment", "--cells", "16", "--seeds",
                         "2", "--algorithms", "atcoee,edd", "--loads", "10",
                         "--unchecked", "--out", str(results))
        assert code == 0
        code, out, err = run(capsys, "report", "--results", str(results),
                             flag, value)
        assert code == 2
        assert out == ""
        assert f"{value.split(',')[-1]!r} is not a" in err
        assert "columns are load,nRoutings,setupRatio,flexMean," in err
        assert "Traceback" not in err

    def test_partial_cells(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        code, out, _ = run(capsys, "experiment", "--cells", "3", "--seeds",
                           "1", "--algorithms", "edd", "--loads", "10",
                           "--unchecked", "--out", str(results))
        assert code == 0
        assert "rows=3" in out

    def test_help_lists_defaults(self, capsys):
        code = main(["solve", "--help"])  # argparse's exit is absorbed
        assert code == 0
        out = capsys.readouterr().out
        for fragment in ("--rule", "atcoee", "--k1", "default 10", "--cooling",
                         "0.95", "--max-iters", "15000"):
            assert fragment in out


@settings(max_examples=150, deadline=None)
@given(doc=maybe(instance_docs), algorithm=st.sampled_from(["lta", "sa"]))
def test_fuzzed_instances_exit_0_or_2(tmp_path_factory, doc, algorithm):
    # In-process: a traceback would escape `main` and fail the test.
    directory = tmp_path_factory.mktemp("fuzz")
    instance = directory / "instance.json"
    instance.write_text(json.dumps(doc))
    code = main(["solve", "--instance", str(instance), "--out",
                 str(directory / "schedule.json"), "--algorithm", algorithm,
                 "--max-iters", "50"])
    assert code in (0, 2)
