import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest

import parasched
from parasched import cli
from parasched.analysis import TESTS
from parasched.cli import main
from parasched.experiment import METHODS, run_methods
from parasched.gen import GenConfig, gen_taskset
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


# stdout of `decompose` on the fig-1 task, as the zip of the segments with
# their stretched copies wrote it
DECOMPOSE_FIG1 = [{
    "task": "fig1", "omega": "9/8",
    "segments": [
        {"start": 0, "end": 1, "workload": 1, "stretched": "14/9"},
        {"start": 1, "end": 5, "workload": 10, "stretched": "70/9"},
        {"start": 5, "end": 7, "workload": 4, "stretched": "28/9"},
        {"start": 7, "end": 8, "workload": 1, "stretched": "14/9"}],
    "subtasks": [
        {"vertex": 0, "release": 0, "deadline": "14/9", "wcet": 1},
        {"vertex": 1, "release": "14/9", "deadline": "112/9", "wcet": 5},
        {"vertex": 2, "release": "14/9", "deadline": "28/3", "wcet": 3},
        {"vertex": 3, "release": "14/9", "deadline": "28/3", "wcet": 4},
        {"vertex": 4, "release": "28/3", "deadline": "112/9", "wcet": 2},
        {"vertex": 5, "release": "112/9", "deadline": 14, "wcet": 1}]}]


def test_decompose_output_is_pinned(tmp_path, capsys):
    path = tmp_path / "fig1.json"
    with open(path, "w") as fp:
        dump_taskset([fig1_task()], fp)
    assert main(["decompose", str(path)]) == 0
    assert capsys.readouterr().out \
        == json.dumps(DECOMPOSE_FIG1, indent=2) + "\n"


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


def test_analyze_rejects_constrained_deadline_in_dour_and_gli(
        constrained_path, capsys):
    rc = main(["analyze", str(constrained_path), "--m", "4"])
    assert rc == 0
    rows = {row["test"]: row for row in
            map(json.loads, capsys.readouterr().out.splitlines())}
    assert set(rows) == {"decomposed", "federated", "sf1", "sf2",
                         "gli-capacity"}
    assert rows["decomposed"]["schedulable"] is False
    assert "D=9 != T=14" in rows["decomposed"]["reason"]
    # G-LI's bound is stated for implicit deadlines; F-LI, SF1 and SF2
    # take D <= T, and gamma = (16-8)/(9-8) = 8 processors are too many
    assert rows["gli-capacity"]["schedulable"] is False
    assert rows["gli-capacity"]["reason"] == (
        "task fig1: D=9 != T=14; the bound assumes implicit deadlines")
    assert rows["federated"]["reason"] == "needs 8 dedicated processors"
    assert rows["sf1"]["reason"] == rows["sf2"]["reason"] \
        == "insufficient dedicated"


def _analyze(tmp_path, tasks, m, capsys):
    path = tmp_path / "set.json"
    with open(path, "w") as fp:
        dump_taskset(tasks, fp)
    assert main(["analyze", str(path), "--m", str(m)]) == 0
    return [json.loads(line)
            for line in capsys.readouterr().out.splitlines()]


def test_analyze_agrees_with_run_methods(tmp_path, capsys):
    cases = [([fig1_task(period=14, deadline=9)], m) for m in (4, 9)]
    below_min_m = 0
    for seed in (1, 2, 3):
        tasks = gen_taskset(GenConfig(n_tasks=3, p=0.1, m=4, util=0.5,
                                      n_vertices=(6, 12)), seed=seed)
        rows = _analyze(tmp_path, tasks, 8, capsys)
        min_m = rows[0]["min_m"]
        cases += [(tasks, m) for m in (min_m - 1, min_m, 8) if m >= 1]
        below_min_m += min_m > 1
    assert below_min_m
    for tasks, m in cases:
        rows = _analyze(tmp_path, tasks, m, capsys)
        assert [r["test"] for r in rows] == ["decomposed", "federated",
                                             "sf1", "sf2", "gli-capacity"]
        printed = dict(zip(METHODS, (r["schedulable"] for r in rows)))
        assert printed == run_methods(tasks, m)


def test_package_error_is_one_line_with_status_2(constrained_path, capsys):
    rc = main(["decompose", str(constrained_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parasched: error: task fig1: D=9")
    assert len(captured.err.splitlines()) == 1


def _assert_one_error_line(path, prefix, capsys):
    for command, *flags in (["analyze", "--m", "2"], ["decompose"],
                            ["simulate"], ["simulate", "--engine", "gedf"]):
        rc = main([command, str(path), *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parasched: error: " + prefix)
        assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("vertices, edges, times", [
    ([[0, 1], [1, 1]], [[0, 5]], (10, 10)),       # edge to an unknown vertex
    ([[0, 1], [2, 1]], [], (10, 10)),             # vertex ids not dense
    ([[0, 1], [1, 1]], [[0, 1, 1]], (10, 10)),    # three-element edge
    ([[0, True], [1, 1]], [[0, 1]], (10, 10)),    # boolean WCET
    ([[0, "1/0"], [1, 1]], [[0, 1]], (10, 10)),   # zero WCET denominator
    ([[0, 1]], [], ("1/0", 10)),                  # zero period denominator
    ([[0, 1]], [], (0, 0)),                       # zero period
    ([[0, 1]], [], (10, -1)),                     # negative deadline
    ([[0, 1], [1, 0]], [[0, 1]], (10, 10)),       # zero WCET
    (None, [], (10, 10)),                         # no tasks at all
])
def test_malformed_dag_is_one_line_with_status_2(tmp_path, capsys, vertices,
                                                 edges, times):
    path = tmp_path / "bad.json"
    tasks = [] if vertices is None else [{
        "id": "bad", "period": times[0], "deadline": times[1],
        "edges": edges,
        "vertices": [{"id": v, "wcet": w} for v, w in vertices]}]
    path.write_text(json.dumps({"tasks": tasks}))
    prefix = "task set: " if vertices is None else "task bad: "
    _assert_one_error_line(path, prefix, capsys)


@pytest.mark.parametrize("text, prefix", [
    (b"abc", "task set: "),                       # not JSON
    (b"\xff\xfe", "task set: "),                  # not text
    (b"[1, 2]", "task set: "),                    # top level not an object
    (b'{"tasks": "abc"}', "task set: "),          # tasks not a list
    (b'{"tasks": [3]}', "task 0: "),              # task not an object
    (b'{"tasks": [{"id": "x", "period": 1, "deadline": 1, "edges": [], '
     b'"vertices": [[0, 1]]}]}', "task 0: "),     # vertex not an object
    (b'{"tasks": [{"id": "x", "period": null, "deadline": null, '
     b'"edges": [], "vertices": [{"id": 0, "wcet": 1}]}]}',
     "task x: period or deadline is null"),
], ids=["not-json", "not-text", "list", "tasks-string", "task-number",
        "vertex-list", "null-period"])
def test_malformed_file_is_one_line_with_status_2(tmp_path, capsys, text,
                                                  prefix):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    _assert_one_error_line(path, prefix, capsys)


def test_python_m_parasched_runs_the_cli(taskset_path, capsys):
    argv = ["analyze", str(taskset_path), "--m", "4"]
    src = Path(parasched.__file__).resolve().parents[1]
    for module in ("parasched", "parasched.cli"):
        proc = subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == main(argv) == 0, module
        assert proc.stdout == capsys.readouterr().out != "", module


# two heavy tasks (C = 16, L = 8, gamma 8/5 and 9/5) and a light one of
# density 1/2 with int ids: on m = 4, sf2 splits both fractional containers
GOLDEN_SET = """{"tasks": [
 {"id": 0, "period": 13, "deadline": 13, "edges": [],
  "vertices": [{"id": 0, "wcet": 8}, {"id": 1, "wcet": 8}]},
 {"id": 1, "period": "112/9", "deadline": "112/9", "edges": [],
  "vertices": [{"id": 0, "wcet": 8}, {"id": 1, "wcet": 8}]},
 {"id": 2, "period": 6, "deadline": 6, "edges": [],
  "vertices": [{"id": 0, "wcet": 1}, {"id": 1, "wcet": 1},
               {"id": 2, "wcet": 1}]}]}
"""

# stdout of `analyze GOLDEN_SET --m 4`, as the asdict-then-walk rows wrote it
GOLDEN_ANALYZE = (
    '{"test": "decomposed", "schedulable": false, "min_m": 7, '
    '"reason": "needs m >= 7", "detail": {"required": "432/65"}}\n'
    '{"test": "federated", "schedulable": false, "min_m": 5, '
    '"reason": "light tasks do not fit", '
    '"detail": {"dedicated": {"0": 2, "1": 2}}}\n'
    '{"test": "sf1", "schedulable": false, "min_m": null, '
    '"reason": "partition failure", "detail": {}}\n'
    '{"test": "sf2", "schedulable": true, "min_m": null, "reason": "", '
    '"detail": {"dedicated": {"0": 1, "1": 1}, "bins": [[{"owner": 2, '
    '"load": "1/2", "split_bound": "1/2", "light": true, '
    '"label": "light"}, {"owner": 1, "load": "16/45", '
    '"split_bound": "16/45", "light": false, "label": "frac\'\'"}, '
    '{"owner": 0, "load": "2/45", "split_bound": "2/45", "light": false, '
    '"label": "frac\'\'"}], [{"owner": 1, "load": "4/9", '
    '"split_bound": "4/9", "light": false, "label": "frac\'"}, '
    '{"owner": 0, "load": "5/9", "split_bound": "3/8", "light": false, '
    '"label": "frac\'"}]]}}\n'
    '{"test": "gli-capacity", "schedulable": false, "min_m": null, '
    '"reason": "U_sum/m = 549/728 > 1/b", "detail": {}}\n')


def test_analyze_golden_bytes(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(GOLDEN_SET)
    argv = ["analyze", str(path), "--m", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out == GOLDEN_ANALYZE
    src = Path(parasched.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "parasched", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout) == (0, GOLDEN_ANALYZE)


def _row(row):
    buf = io.StringIO()
    cli._write_row(buf, row)
    return buf.getvalue()


def test_verdict_rows_match_asdict():
    sets = [load_taskset(io.StringIO(GOLDEN_SET))] + [
        gen_taskset(GenConfig(n_tasks=3, p=0.1, m=4, util=u,
                              n_vertices=(6, 12)), seed=seed)
        for seed in (1, 2, 3) for u in (0.3, 0.6, 0.9)]
    for tasks in sets:
        for m in (2, 3, 4, 6, 8):
            for method in TESTS.values():
                verdict = method.run(tasks, m)
                assert _row(verdict) == _row(asdict(verdict))


def test_a_row_value_json_cannot_hold_raises_type_error():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        _row({"kind": "summary", "vertices": {1, 2}})


def test_analyze_resolves_its_command_at_call_time(taskset_path, capsys,
                                                   monkeypatch):
    argv = ["analyze", str(taskset_path), "--m", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out != ""
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze",
                        lambda args: seen.append(args.m) or 7)
    assert main(argv) == 7
    assert seen == [4]
    assert capsys.readouterr().out == ""


def test_in_process_calls_stay_independent(taskset_path, tmp_path, capsys):
    cli._parser.cache_clear()
    argv = ["analyze", str(taskset_path), "--m", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(taskset_path), "--m", "0"])
    assert exc.value.code == 2
    assert "error: argument --m: " in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().out == first != ""
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--axis", "processors", "--trials", "1",
              "--buckets", "4,0", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: parasched experiment ")
    assert "error: argument --buckets: '0' is not an integer >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["analyze", "--m", "4"], ["decompose"]])
def test_closed_stdout_is_status_1_and_silent(taskset_path, command):
    # as in `parasched analyze SET --m 4 | head -1` once head has exited:
    # the pipe's reader is closed before the CLI writes anything
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(parasched.__file__).resolve().parents[1]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "parasched", command[0],
             str(taskset_path), *command[1:]],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1


_EXPERIMENT = ["experiment", "--axis", "utilization", "--trials", "1"]
_BAD_ARGUMENTS = [
    (["analyze", "SET", "--m", "0"], "--m: '0' is not an integer >= 1"),
    (["analyze", "SET", "--m", "-1"], "--m: '-1' is not an integer >= 1"),
    (["gen", "--m", "0"], "--m: '0' is not an integer >= 1"),
    (["gen", "--util", "0"], "--util: '0' is not a positive number"),
    (["experiment", "--axis", "utilization", "--m", "0"],
     "--m: '0' is not an integer >= 1"),
    (["experiment", "--axis", "utilization", "--trials", "0"],
     "--trials: '0' is not an integer >= 1"),
    (["experiment", "--axis", "utilization", "--buckets", "abc"],
     "--buckets: 'abc' is not a positive number"),
    (["experiment", "--axis", "processors", "--trials", "1",
      "--buckets", "4,0"], "--buckets: '0' is not an integer >= 1"),
    (["simulate", "SET", "--engine", "gedf", "--m", "0"],
     "--m: '0' is not an integer >= 1"),
    (["simulate", "SET", "--speeds", "1,0"],
     "--speeds: '1,0' is not a list of positive numbers"),
    (["simulate", "SET", "--speeds", "abc"],
     "--speeds: 'abc' is not a list of positive numbers"),
    (_EXPERIMENT + ["--methods", "SF1,SF3,d-our"],
     "--methods: unknown method SF3, d-our"),
    (_EXPERIMENT + ["--methods", "SF1,SF1,G-LI"],
     "--methods: repeated method SF1"),
    (_EXPERIMENT + ["--buckets", "0.5,0.5", "--methods", "SF1",
                    "--n-tasks", "2"], "--buckets: repeated bucket 1/2"),
    (_EXPERIMENT + ["--buckets", "0.5,1/2", "--methods", "SF1",
                    "--n-tasks", "2"], "--buckets: repeated bucket 1/2"),
]


# the ids stay argv0, argv1, ..., as when argv was the only column
@pytest.mark.parametrize("argv, message", _BAD_ARGUMENTS,
                         ids=[f"argv{i}" for i in range(len(_BAD_ARGUMENTS))])
def test_bad_number_is_usage_error(taskset_path, tmp_path, capsys, argv,
                                   message):
    # a bad number, method or bucket, each named with its option
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([str(taskset_path) if a == "SET" else a for a in argv]
             + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: parasched ") \
        and f"error: argument {message}" in err
    assert not out.exists()


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


@pytest.mark.parametrize("engine", ["uniform", "dispatcher"])
def test_simulate_says_which_task_it_traced(taskset_path, tmp_path, capsys,
                                            engine):
    data = json.loads(taskset_path.read_text())
    argv = ["simulate", str(taskset_path), "--engine", engine,
            "--speeds", "1,1/2", "--out", str(tmp_path / "trace.jsonl")]
    assert main(argv) == 0
    assert capsys.readouterr().err == (
        f"parasched: traced task {data['tasks'][0]['id']!r}, the file's "
        "first; skipped 1 more\n")
    # one task: nothing was skipped, so nothing is said
    taskset_path.write_text(json.dumps({"tasks": data["tasks"][:1]}))
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_simulate_gedf_exit_code_tracks_misses(taskset_path, tmp_path):
    out = tmp_path / "gedf.jsonl"
    rc = main(["simulate", str(taskset_path), "--engine", "gedf",
               "--m", "16", "--out", str(out)])
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["kind"] == "summary"
    assert (rc == 0) == (summary["misses"] == 0)


def test_simulate_gedf_takes_ids_of_both_types(tmp_path, capsys):
    # the jobs of two equal tasks tie on release and deadline, and the
    # ties used to compare the ids 0 and "a"
    path = tmp_path / "ids.json"
    path.write_text(json.dumps({"tasks": [
        {"id": i, "period": 10, "deadline": 10, "edges": [[0, 1]],
         "vertices": [{"id": 0, "wcet": 1}, {"id": 1, "wcet": 2}]}
        for i in (0, "a")]}))
    rc = main(["simulate", str(path), "--engine", "gedf", "--m", "1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["misses"] == 0


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


# stdout of `simulate` on the fig-1 task, as the hand-built rows wrote it
SIMULATE_FIG1 = {
    ("--engine", "uniform", "--speeds", "1,1/2"): (0, [
        '[0, "start", 0, 0]', '[1, "finish", 0, 0]', '[1, "start", 1, 0]',
        '[1, "start", 2, 1]', '[6, "finish", 1, 0]',
        '[6, "migrate", 2, 1, 0]', '[6, "start", 3, 1]',
        '["13/2", "finish", 2, 0]', '["13/2", "migrate", 3, 1, 0]',
        '["41/4", "finish", 3, 0]', '["41/4", "start", 4, 0]',
        '["49/4", "finish", 4, 0]', '["49/4", "start", 5, 0]',
        '["53/4", "finish", 5, 0]',
        '{"kind": "summary", "response_time": "53/4", "splits": 0}']),
    ("--engine", "dispatcher", "--speeds", "1,1/2"): (0, [
        '[1, "finish", 0, 0]', '[1, "split", 2, "5/2", "1/2"]',
        '[6, "finish", 1, 0]', '[6, "finish", [2, "\'"], 1]',
        '[6, "split", 3, "1/4", "15/4"]', '["13/2", "finish", [2, "\'\'"], 0]',
        '["13/2", "finish", [3, "\'"], 1]',
        '["41/4", "finish", [3, "\'\'"], 0]', '["49/4", "finish", 4, 0]',
        '["53/4", "finish", 5, 0]',
        '{"kind": "summary", "response_time": "53/4", "splits": 2}']),
    ("--engine", "gedf", "--m", "1", "--horizon", "28"): (1, [
        '{"kind": "miss", "job": ["fig1", 1, 0], "deadline": "112/9"}',
        '{"kind": "miss", "job": ["fig1", 4, 0], "deadline": "112/9"}',
        '{"kind": "miss", "job": ["fig1", 1, 1], "deadline": "238/9"}',
        '{"kind": "miss", "job": ["fig1", 4, 1], "deadline": "238/9"}',
        '{"kind": "summary", "misses": 4, "horizon": 28}']),
}


@pytest.mark.parametrize("flags", SIMULATE_FIG1)
def test_simulate_output_is_pinned(tmp_path, capsys, flags):
    path = tmp_path / "fig1.json"
    with open(path, "w") as fp:
        dump_taskset([fig1_task()], fp)
    rc = main(["simulate", str(path), *flags])
    assert (rc, capsys.readouterr().out.splitlines()) == SIMULATE_FIG1[flags]


@pytest.mark.parametrize("argv", [["analyze", "PATH", "--m", "2"],
                                  ["decompose", "PATH"], ["simulate", "PATH"],
                                  ["gen", "--out", "PATH"]])
def test_missing_file_is_one_line_with_status_2(tmp_path, capsys, argv):
    path = str(tmp_path / "missing" / "set.json")
    rc = main([path if a == "PATH" else a for a in argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parasched: error: ")
    assert path in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["--n-tasks", "1"],
                                  ["--m", "1", "--util", "100"],
                                  ["--p", "1", "--n-tasks", "1", "--m", "2",
                                   "--util", "0.6"]])
def test_infeasible_utilization_is_one_line_with_status_2(tmp_path, capsys,
                                                          argv):
    out = tmp_path / "set.json"
    rc = main(["gen", *argv, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("parasched: error: could not draw valid "
                          "utilization shares")
    assert len(err.splitlines()) == 1


def _fork_copies(ids):
    """One copy per id of a fork task with C = 20, L = 12 and D = T = 14,
    so gamma = 4."""
    return {"tasks": [{"id": i, "period": 14, "deadline": 14,
                       "vertices": [{"id": v, "wcet": w}
                                    for v, w in enumerate((1, 10, 8, 1))],
                       "edges": [[0, 1], [0, 2], [1, 3], [2, 3]]}
                      for i in ids]}


@pytest.mark.parametrize("ids, prefix", [
    ([0, 0], "task 1: id 0 repeats"),
    ([0, "0"], "task 1: id '0' repeats"),
    ([[0], 1], "task 0: id is not"),
    ([None, 1], "task 0: id is not"),
    ([True, 1], "task 0: id is not"),
    ([1.5, 1], "task 0: id is not"),
], ids=["repeated", "repeated-as-string", "list", "null", "bool", "number"])
def test_task_ids_must_be_distinct_ints_or_strings(tmp_path, capsys, ids,
                                                   prefix):
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(_fork_copies(ids)))
    _assert_one_error_line(path, prefix, capsys)


def test_two_forks_need_four_processors_each(tmp_path, capsys):
    # the set a repeated id used to pass off as one task on m = 4
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(_fork_copies([0, "a"])))
    for m, ok in ((4, False), (8, True)):
        assert main(["analyze", str(path), "--m", str(m)]) == 0
        rows = {row["test"]: row for row in
                map(json.loads, capsys.readouterr().out.splitlines())}
        for test in ("federated", "sf1", "sf2"):
            assert rows[test]["schedulable"] is ok, (test, m)
        if ok:
            assert rows["sf1"]["detail"]["dedicated"] == {"0": 4, "a": 4}
