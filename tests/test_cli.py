import json
import warnings

import pytest

from parasched.cli import main
from parasched.model import dump_taskset, load_taskset

from conftest import fig1_task


@pytest.fixture()
def taskset_path(tmp_path):
    path = tmp_path / "set.json"
    rc = main(["gen", "--seed", "3", "--n-tasks", "2", "--p", "0.2",
               "--m", "4", "--util", "0.4", "--out", str(path)])
    assert rc == 0
    return path


def test_gen_writes_loadable_taskset(taskset_path):
    with open(taskset_path) as fp:
        tasks = load_taskset(fp)
    assert len(tasks) == 2
    assert all(t.period > 0 for t in tasks)


def test_gen_is_deterministic(tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        main(["gen", "--seed", "8", "--n-tasks", "3", "--out", str(path)])
        paths.append(path.read_text())
    assert paths[0] == paths[1]


def test_decompose_reports_omega_and_subtasks(taskset_path, tmp_path):
    out = tmp_path / "dec.json"
    rc = main(["decompose", str(taskset_path), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 2
    for entry in payload:
        assert "omega" in entry
        assert entry["segments"]
        assert entry["subtasks"]
        for st in entry["subtasks"]:
            assert set(st) == {"vertex", "release", "deadline", "wcet"}


def test_analyze_emits_one_verdict_per_test(taskset_path, tmp_path):
    out = tmp_path / "verdicts.jsonl"
    rc = main(["analyze", str(taskset_path), "--m", "8", "--out", str(out)])
    assert rc == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 5
    assert {l["test"] for l in lines} == {"decomposed", "federated", "sf1",
                                          "sf2", "gli-capacity"}
    assert all(isinstance(l["schedulable"], bool) for l in lines)


def test_analyze_single_test(taskset_path, tmp_path, capsys):
    rc = main(["analyze", str(taskset_path), "--m", "8", "--test", "sf1"])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(lines) == 1
    assert lines[0]["test"] == "sf1"


@pytest.fixture()
def constrained_path(tmp_path):
    # D = 9 < T = 14: outside the implicit-deadline decomposition's model
    path = tmp_path / "constrained.json"
    with open(path, "w") as fp:
        dump_taskset([fig1_task(period=14, deadline=9)], fp)
    return path


def test_analyze_rejects_constrained_deadline_in_dour_only(constrained_path,
                                                           capsys):
    rc = main(["analyze", str(constrained_path), "--m", "4"])
    assert rc == 0
    rows = {row["test"]: row for row in
            map(json.loads, capsys.readouterr().out.splitlines())}
    assert set(rows) == {"decomposed", "federated", "sf1", "sf2",
                         "gli-capacity"}
    assert rows["decomposed"]["schedulable"] is False
    assert "D=9 != T=14" in rows["decomposed"]["detail"]["reason"]


def test_package_error_is_one_line_with_status_2(constrained_path, capsys):
    rc = main(["decompose", str(constrained_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parasched: error: task fig1: D=9")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["analyze", "--m", "8"], ["decompose"],
                                  ["simulate", "--speeds", "1,1/2"]])
def test_taskset_file_is_closed(taskset_path, tmp_path, argv):
    command, *flags = argv
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        rc = main([command, str(taskset_path), *flags,
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert not [w for w in caught if w.category is ResourceWarning]


def test_simulate_uniform_summary(taskset_path, tmp_path):
    out = tmp_path / "trace.jsonl"
    rc = main(["simulate", str(taskset_path), "--engine", "uniform",
               "--speeds", "1,1/2", "--out", str(out)])
    assert rc == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    summary = lines[-1]
    assert summary["kind"] == "summary"
    assert "response_time" in summary


def test_simulate_dispatcher_summary(taskset_path, tmp_path):
    out = tmp_path / "trace.jsonl"
    rc = main(["simulate", str(taskset_path), "--engine", "dispatcher",
               "--speeds", "1,1/2,1/4", "--out", str(out)])
    assert rc == 0
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["kind"] == "summary"
    assert summary["splits"] >= 0


def test_simulate_gedf_exit_code_tracks_misses(taskset_path, tmp_path):
    out = tmp_path / "gedf.jsonl"
    rc = main(["simulate", str(taskset_path), "--engine", "gedf",
               "--m", "16", "--out", str(out)])
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["kind"] == "summary"
    assert (rc == 0) == (summary["misses"] == 0)


def test_experiment_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["experiment", "--axis", "utilization", "--trials", "2",
               "--n-tasks", "2", "--m", "4", "--seed", "5",
               "--buckets", "3/10,6/10", "--methods", "SF1,G-LI",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis,bucket,method,accepted,total,ratio,seed"
    assert len(lines) == 1 + 4


def test_unknown_subcommand_errors():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
