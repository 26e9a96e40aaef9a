import io
import sys
from collections import Counter
from fractions import Fraction

import pytest

from parasched.experiment import (DEFAULT_BUCKETS, METHODS, ExperimentRecord,
                                  _bucket_config, emit, run_methods, sweep,
                                  trial_seed)
import parasched.model
import parasched.semifed
from parasched.analysis import TESTS
from parasched.cli import main
from parasched.errors import EmptyTaskSet
from parasched.gen import GenConfig, gen_taskset
from parasched.model import DagTask, dump_taskset

from conftest import fig1_task
from reference import parse_csv


def _unit_chain(task_id, length, period):
    verts = [(i, 1) for i in range(length)]
    edges = [(i, i + 1) for i in range(length - 1)]
    return DagTask(task_id, verts, edges).with_period(period)


def test_trial_seed_deterministic_and_distinct():
    a = trial_seed(42, "utilization", Fraction(1, 2), 3)
    assert a == trial_seed(42, "utilization", Fraction(1, 2), 3)
    assert a != trial_seed(42, "utilization", Fraction(1, 2), 4)
    assert a != trial_seed(43, "utilization", Fraction(1, 2), 3)
    assert a != trial_seed(42, "p", Fraction(1, 2), 3)


def test_run_methods_accepts_trivially_light_set():
    tasks = [_unit_chain(i, 2, 100) for i in range(3)]
    verdicts = run_methods(tasks, 8)
    assert set(verdicts) == set(METHODS)
    assert all(verdicts.values())


def test_run_methods_rejects_overload_unanimously():
    # total utilization 4 on one processor: nothing should accept
    tasks = [_unit_chain(i, 4, 1) for i in range(1)]
    verdicts = run_methods(tasks, 1)
    assert not any(verdicts.values())


def test_run_methods_respects_method_subset():
    tasks = [_unit_chain(0, 2, 100)]
    verdicts = run_methods(tasks, 4, methods=("SF1", "G-LI"))
    assert set(verdicts) == {"SF1", "G-LI"}


def test_unknown_method_names_raise():
    # a typo'd name must not become a row of zero acceptances
    with pytest.raises(ValueError, match="d-our"):
        run_methods([_unit_chain(0, 2, 100)], 4, methods=("SF1", "d-our"))
    base = GenConfig(seed=9, n_tasks=2, p=0.1, m=4, n_vertices=(4, 8),
                     wcet_range=(1, 10))
    with pytest.raises(ValueError, match="SF3"):
        sweep("utilization", base, trials=1, methods=("SF1", "SF3"))


def test_run_methods_rejects_constrained_deadline_in_dour_only():
    # D = 9 < T = 14 is outside D-OUR's implicit-deadline model; the other
    # tests still run: gamma = (16-8)/(9-8) = 8 dedicated processors, and
    # L/D = 8/9 > 1/b
    verdicts = run_methods([fig1_task(period=14, deadline=9)], 9)
    assert verdicts == {"D-OUR": False, "F-LI": True, "SF1": True,
                        "SF2": True, "G-LI": False}


@pytest.mark.parametrize("name", list(TESTS))
def test_every_test_rejects_an_empty_task_set(name):
    # the message names the test as its verdicts do
    message = f"{TESTS[name].run([fig1_task()], 4).test}: cannot test an " \
        "empty task set"
    with pytest.raises(EmptyTaskSet) as info:
        TESTS[name].run([], 4)
    assert str(info.value) == message
    with pytest.raises(EmptyTaskSet) as info:
        run_methods([], 4, methods=(name,))
    assert str(info.value) == message


def _count_calls(monkeypatch) -> Counter:
    """Calls of the classification and the raw-set summary, counted in the
    modules that define them."""
    counts = Counter()
    for module, name in ((parasched.semifed, "_classify"),
                         (parasched.model, "summarize")):
        def counted(*args, _name=name, _run=getattr(module, name)):
            counts[_name] += 1
            return _run(*args)
        monkeypatch.setattr(module, name, counted)
    return counts


def test_each_task_set_is_classified_and_summarized_once_per_call(
        monkeypatch, tmp_path, capsys):
    sets = [gen_taskset(GenConfig(n_tasks=5, p=0.05, util=util), seed=seed)
            for seed in range(3) for util in (0.3, 0.6, 0.9)]
    counts = _count_calls(monkeypatch)
    for tasks in sets:
        run_methods(tasks, 8)
    assert counts == {"_classify": len(sets), "summarize": len(sets)}
    path = tmp_path / "set.json"
    with open(path, "w") as fp:
        dump_taskset(sets[0], fp)
    counts.clear()
    assert main(["analyze", str(path), "--m", "8", "--test", "all"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(TESTS)
    assert counts == {"_classify": 1, "summarize": 1}
    # the view lives for one call: two calls on one list build two
    counts.clear()
    for name in ("SF1", "F-LI", "D-OUR", "G-LI"):
        TESTS[name].run(sets[0], 8)
    assert counts == {"_classify": 2, "summarize": 2}


def test_sweep_deterministic():
    base = GenConfig(seed=9, n_tasks=2, p=0.1, m=4, n_vertices=(4, 8),
                     wcet_range=(1, 10))
    kwargs = dict(buckets=[Fraction(3, 10), Fraction(6, 10)],
                  methods=("SF1", "G-LI"))
    a = sweep("utilization", base, trials=5, **kwargs)
    b = sweep("utilization", base, trials=5, **kwargs)
    assert a == b
    assert len(a) == 4
    assert {r.method for r in a} == {"SF1", "G-LI"}
    assert all(0 <= r.accepted <= r.total == 5 for r in a)


def test_sweep_rejects_bad_inputs():
    base = GenConfig()
    with pytest.raises(ValueError):
        sweep("utilization", base, trials=0)
    with pytest.raises(ValueError):
        sweep("voltage", base, trials=1)
    with pytest.raises(ValueError, match="repeated bucket 1/2"):
        sweep("utilization", base, trials=1, buckets=[0.5, Fraction(1, 2)])


def test_default_buckets_cover_all_axes():
    assert set(DEFAULT_BUCKETS) == {"utilization", "processors", "p"}
    assert DEFAULT_BUCKETS["utilization"][-1] == 1


def test_emit_parse_csv_round_trip():
    base = GenConfig(seed=4, n_tasks=2, p=0.1, m=4, n_vertices=(4, 8),
                     wcet_range=(1, 10))
    records = sweep("p", base, trials=3, buckets=[0.05, 0.2],
                    methods=("SF2",))
    buf = io.StringIO()
    emit(records, buf)
    buf.seek(0)
    parsed = parse_csv(buf)
    assert len(parsed) == len(records)
    for got, want in zip(parsed, records):
        assert got.axis == want.axis
        assert got.bucket == str(float(want.bucket))
        assert got.method == want.method
        assert got.accepted == want.accepted
        assert got.total == want.total
        assert got.seed == want.seed
        assert got.ratio == pytest.approx(want.ratio)


def test_emit_jsonl_line_count():
    base = GenConfig(seed=4, n_tasks=2, p=0.1, m=4, n_vertices=(4, 8),
                     wcet_range=(1, 10))
    records = sweep("p", base, trials=2, buckets=[0.1],
                    methods=("SF1", "SF2"))
    buf = io.StringIO()
    emit(records, buf, fmt="jsonl")
    lines = [l for l in buf.getvalue().splitlines() if l]
    assert len(lines) == 2


def test_emit_empty_records_still_writes_header():
    buf = io.StringIO()
    emit([], buf)
    assert buf.getvalue().splitlines() == [
        "axis,bucket,method,accepted,total,ratio,seed"]
    buf.seek(0)
    assert parse_csv(buf) == []


def test_emit_golden_bytes():
    # two buckets (a fractional and a whole one) by two methods
    records = [ExperimentRecord("utilization", bucket, method, accepted, 3, 7)
               for bucket, method, accepted in [
                   (Fraction(1, 2), "SF1", 3), (Fraction(1, 2), "F-LI", 2),
                   (Fraction(1), "SF1", 1), (Fraction(1), "F-LI", 0)]]
    buf = io.StringIO(newline="")
    emit(records, buf)
    assert buf.getvalue() == (
        "axis,bucket,method,accepted,total,ratio,seed\r\n"
        "utilization,0.5,SF1,3,3,1.0,7\r\n"
        "utilization,0.5,F-LI,2,3,0.6666666666666666,7\r\n"
        "utilization,1,SF1,1,3,0.3333333333333333,7\r\n"
        "utilization,1,F-LI,0,3,0.0,7\r\n")
    buf = io.StringIO()
    emit(records, buf, fmt="jsonl")
    assert buf.getvalue() == "".join(
        '{"axis": "utilization", "bucket": "%s", "method": "%s", '
        '"accepted": %d, "total": 3, "ratio": %s, "seed": 7}\n' % row
        for row in [("0.5", "SF1", 3, "1.0"),
                    ("0.5", "F-LI", 2, "0.6666666666666666"),
                    ("1", "SF1", 1, "0.3333333333333333"),
                    ("1", "F-LI", 0, "0.0")])
    for fmt, empty in [("csv", "axis,bucket,method,accepted,total,ratio,"
                               "seed\r\n"), ("jsonl", "")]:
        buf = io.StringIO()
        emit([], buf, fmt=fmt)
        assert buf.getvalue() == empty


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit([], io.StringIO(), fmt="xml")


def test_sweep_op_validates_each_task_once(monkeypatch):
    calls = []
    validate = parasched.model.validate

    def counted(task):
        calls.append(task.id)
        return validate(task)
    # a module that imports the name calls it through its own global
    for name, module in list(sys.modules.items()):
        if name.startswith("parasched") \
                and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counted)
    config = GenConfig(n_tasks=4, p=0.1, m=4, util=0.5, n_vertices=(8, 16))
    for seed in (1, 2):
        calls.clear()
        run_methods(gen_taskset(config, seed=seed), config.m)
        assert sorted(calls) == [0, 1, 2, 3]


@pytest.mark.parametrize("trials, message", [
    (2.5, "trials must be an int, got 2.5"),
    (True, "trials must be an int, got True"),
    (0, "trials must be >= 1"),
    ("3", "trials must be an int, got '3'"),
])
def test_trials_must_be_an_int_of_at_least_one(trials, message):
    # a count, like m: a float, a bool or a string is not one
    with pytest.raises(ValueError) as info:
        sweep("p", GenConfig(n_tasks=1), trials)
    assert str(info.value) == message


def test_fewer_than_one_processor_is_rejected():
    tasks = [_unit_chain(0, 2, 100)]
    with pytest.raises(ValueError):
        run_methods(tasks, 0)
    with pytest.raises(ValueError):
        sweep("processors", GenConfig(n_tasks=1), 1, buckets=[0])
    with pytest.raises(ValueError):
        GenConfig(m=0)


def test_a_processor_count_that_is_not_an_int_is_rejected():
    # run_methods raised a bare AttributeError, and a processors bucket of
    # 2.5 ran as m = 2 and was reported as 2.5
    with pytest.raises(ValueError, match="m must be an int"):
        run_methods([_unit_chain(0, 2, 100)], 2.5)
    with pytest.raises(ValueError, match="processors bucket 2.5"):
        _bucket_config("processors", 2.5, GenConfig(n_tasks=1))
    cfg, m = _bucket_config("processors", Fraction(4), GenConfig(n_tasks=1))
    assert cfg.m == m == 4
