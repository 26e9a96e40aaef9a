import io
from fractions import Fraction

import pytest

from parasched.errors import (CycleDetected, DeadlineExceedsPeriod,
                              EmptyTaskSet, MalformedTaskSet,
                              NonPositiveWcet)
from parasched.model import (DagTask, as_fraction, dump_taskset,
                             format_rational, load_taskset, summarize,
                             validate)
from conftest import diamond_task, fig1_task
from reference import sink, source


def test_as_fraction_handles_decimal_floats():
    assert as_fraction(0.3) == Fraction(3, 10)
    assert as_fraction("3/10") == Fraction(3, 10)
    assert as_fraction(7) == Fraction(7)


def test_format_rational():
    assert format_rational(Fraction(3, 10)) == "3/10"
    assert format_rational(Fraction(4)) == 4


def test_fig1_metrics():
    met = validate(fig1_task())
    assert met.work == 16
    assert met.critical_path == 8
    assert met.density == Fraction(16, 14)
    assert met.heavy


def test_light_task_not_heavy():
    met = validate(diamond_task(period=100))
    assert not met.heavy
    assert met.utilization == Fraction(8, 100)


def test_vertex_ids_must_be_dense():
    with pytest.raises(ValueError):
        DagTask(0, [(0, 1), (2, 1)], [], 10, 10)


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        DagTask(0, [(0, 1), (1, 1), (2, 1)], [(0, 1), (1, 2), (2, 0)], 9, 9)


def test_self_loop_rejected():
    with pytest.raises(CycleDetected):
        DagTask(0, [(0, 1)], [(0, 0)], 5, 5)


def test_nonpositive_wcet_rejected():
    with pytest.raises(NonPositiveWcet):
        validate(DagTask(0, [(0, 0)], [], 5, 5))


def test_deadline_beyond_period_rejected():
    with pytest.raises(DeadlineExceedsPeriod):
        validate(DagTask(0, [(0, 1)], [], period=5, deadline=6))


def test_several_sources_and_sinks():
    t = DagTask(0, [(0, 2), (1, 3)], [], 10, 10)
    # both vertices are sources and sinks, and no vertex is added
    assert t.wcets == {0: 2, 1: 3}
    assert t.succ == t.pred == [[], []]
    assert validate(t).work == 5
    assert validate(t).critical_path == 3


def test_edges_hold_the_input_edges_only():
    # two sources and two sinks: succ/pred hold the input graph, no more
    t = DagTask(0, [(0, 1), (1, 1), (2, 1), (3, 1)],
                [(0, 2), (1, 2), (0, 2), [1, 3]], 10, 10)
    assert t.edges == ((0, 2), (1, 2), (1, 3))
    assert t.succ == [[2], [2, 3], [], []]
    assert t.pred == [[], [], [0, 1], [1]]


@pytest.mark.parametrize("edges, error, message", [
    # the first bad edge in input order decides the error
    ([(1, 1), (0, 5)], CycleDetected, "task 0: self loop on vertex 1"),
    ([(0, 5), (1, 1)], MalformedTaskSet,
     "task 0: edge (0, 5) references an unknown vertex"),
    ([(0, True)], MalformedTaskSet,
     "task 0: edge (0, True) references an unknown vertex"),
    ([(0, 1, 2)], MalformedTaskSet, "task 0: bad vertex, edge or time"),
])
def test_malformed_edge_is_named(edges, error, message):
    with pytest.raises(error) as info:
        DagTask(0, [(0, 1), (1, 1)], edges, 5, 5)
    assert type(info.value) is error and message in str(info.value)


def test_int_fraction_and_string_wcets_build_the_same_core():
    # two sources and two sinks, and the core holds the five vertices only
    edges = [(0, 2), (1, 2), (2, 3), (2, 4)]
    wcets = [3, 1, 4, 1, 5]
    built = [DagTask(0, [(v, convert(w)) for v, w in enumerate(wcets)],
                     edges, 20, 20)
             for convert in (int, Fraction, lambda w: f"{w}/1")]
    ints, *others = built
    assert ints.wcets == {0: 3, 1: 1, 2: 4, 3: 1, 4: 5}
    assert all(type(w) is Fraction for w in ints.wcets.values())
    for task in others:
        assert (task.den, task.wcet_int, task.wcets) \
            == (ints.den, ints.wcet_int, ints.wcets)


def test_single_vertex_is_source_and_sink():
    t = DagTask(0, [(0, 4)], [], 10, 10)
    assert t.wcet_int == [4]
    assert source(t) == sink(t) == 0


def test_json_round_trip():
    tasks = [fig1_task(), diamond_task(period=Fraction(21, 2))]
    buf = io.StringIO()
    dump_taskset(tasks, buf)
    buf.seek(0)
    back = load_taskset(buf)
    for a, b in zip(tasks, back):
        assert a.id == b.id
        assert a.period == b.period
        assert {v: a.wcets[v] for v in a.real_vertex_ids} \
            == {v: b.wcets[v] for v in b.real_vertex_ids}
        assert sorted(a.edges) == sorted(b.edges)


@pytest.mark.parametrize("text, message", [
    ('{"tasks": [{"id": 1}]}', "task 0: missing field 'vertices'"),
    ('{"tasks": [{"id": 1, "period": 4, "deadline": 4, "edges": [],'
     ' "vertices": [{"id": 0, "wcet": 1}]}, {"id": 2, "period": 4,'
     ' "edges": [], "vertices": [{"id": 0, "wcet": 1}]}]}',
     "task 1: missing field 'deadline'"),
    ('{"tasks": [{"id": 1, "period": 4, "deadline": 4, "edges": [],'
     ' "vertices": [{"id": 0}]}]}', "task 0: missing field 'wcet'"),
    ('{"tasks": [{"id": 0, "period": null, "deadline": null,'
     ' "vertices": [{"id": 0, "wcet": 1}], "edges": []}]}',
     "task 0: period or deadline is null"),
    ('{"tasks": [{"id": 1, "period": 4, "deadline": 4, "edges": [],'
     ' "vertices": [{"id": 0, "wcet": 1}]}, {"id": 2, "period": 4,'
     ' "deadline": null, "edges": [], "vertices": [{"id": 0, "wcet": 1}]}]}',
     "task 1: period or deadline is null"),
    ('{"sets": []}', "missing field 'tasks'"),
])
def test_malformed_json_names_the_missing_field(text, message):
    with pytest.raises(MalformedTaskSet) as info:
        load_taskset(io.StringIO(text))
    assert message in str(info.value)


def test_summarize_empty_raises():
    with pytest.raises(EmptyTaskSet):
        summarize([])


def test_summarize_aggregates():
    tasks = [fig1_task(), diamond_task(period=100)]
    s = summarize(tasks, omegas=[Fraction(3, 2), Fraction(1)])
    assert s.u_sum == Fraction(16, 14) + Fraction(8, 100)
    assert s.gamma_top == Fraction(8, 14)
    assert s.omega_top == Fraction(3, 2)


def test_with_period_shares_the_core():
    shape = DagTask(0, [(0, 2), (1, Fraction(3, 2))], [(0, 1)])
    assert (shape.den, shape.wcet_int) == (2, [4, 3])
    assert shape.work == shape.critical_path == Fraction(7, 2)
    with pytest.raises(MalformedTaskSet, match="no period"):
        validate(shape)
    task = shape.with_period(5)
    assert task.period == task.deadline == 5
    assert task.rdy_int is shape.rdy_int and shape.period is None
    assert validate(task).utilization == Fraction(7, 10)


def test_deadline_defaults_to_the_period():
    vertices, edges = [(0, 2), (1, 3)], [(0, 1)]
    task = DagTask(0, vertices, edges, period=10)
    assert task.period == task.deadline == 10
    assert task.metrics == DagTask(0, vertices, edges).with_period(10).metrics


def test_timing_is_checked_at_construction():
    with pytest.raises(DeadlineExceedsPeriod):
        DagTask(0, [(0, 1)], [], period=5, deadline=6)
    with pytest.raises(NonPositiveWcet, match="task 0: vertex 1 has WCET 0"):
        DagTask(0, [(0, 1), (1, 0)], [(0, 1)], period=5, deadline=5)


def test_with_period_recomputes_the_metrics():
    task = DagTask(0, [(0, 2), (1, 3)], [(0, 1)], period=10, deadline=10)
    assert task.metrics.utilization == Fraction(1, 2)
    longer = task.with_period(20)
    assert longer.metrics == validate(longer)
    assert (longer.metrics.utilization, longer.metrics.elasticity) \
        == (Fraction(1, 4), Fraction(1, 4))
    assert task.metrics.utilization == Fraction(1, 2)
    assert DagTask(0, [(0, 2)], []).metrics is None
