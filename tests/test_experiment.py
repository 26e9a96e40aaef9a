import io
import sys
from fractions import Fraction

import pytest

from parasched.experiment import (DEFAULT_BUCKETS, METHODS, _bucket_config,
                                  emit, run_methods, sweep, trial_seed)
import parasched.model
from parasched.analysis import TESTS
from parasched.errors import EmptyTaskSet
from parasched.gen import GenConfig, gen_taskset
from parasched.model import DagTask

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
    with pytest.raises(EmptyTaskSet):
        TESTS[name].run([], 4)
    with pytest.raises(EmptyTaskSet):
        run_methods([], 4, methods=(name,))


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
