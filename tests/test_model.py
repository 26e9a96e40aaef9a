import io
import json
import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parasched.errors import (CycleDetected, DeadlineExceedsPeriod,
                              EmptyTaskSet, MalformedTaskSet,
                              NonPositiveWcet)
from parasched.gen import PAPER_SCALE, GenConfig, gen_structure, gen_taskset
from parasched.model import (DagTask, TaskMetrics, _largest, as_fraction,
                             dump_taskset, format_rational, load_taskset,
                             summarize, validate)
from conftest import diamond_task, fig1_task, rational_variant, verify_sets
from reference import (CriticalPathExceedsDeadline, PairCopyDagTask,
                       capacity_requirement, fraction_validate, sink, source)


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
        DagTask(0, [(0, 1), (2, 1)], [])


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        DagTask(0, [(0, 1), (1, 1), (2, 1)], [(0, 1), (1, 2), (2, 0)])


def test_self_loop_rejected():
    with pytest.raises(CycleDetected):
        DagTask(0, [(0, 1)], [(0, 0)])


def test_nonpositive_wcet_rejected():
    with pytest.raises(NonPositiveWcet):
        DagTask(0, [(0, 0)], []).with_period(5)


@pytest.mark.parametrize("wcet", [0, -1, Fraction(-1, 2)])
def test_constructor_rejects_a_nonpositive_wcet(wcet):
    # every shape's core is checked once, when the DAG is built, so no
    # simulator or analysis reads a WCET <= 0
    with pytest.raises(NonPositiveWcet, match=f"vertex 1 has WCET {wcet}"):
        DagTask(0, [(0, 2), (1, wcet), (2, 1)], [(0, 1), (1, 2)])


def test_load_taskset_rejects_a_nonpositive_wcet():
    text = json.dumps({"tasks": [{
        "id": 0, "period": 9, "deadline": 9, "edges": [[0, 1], [1, 2]],
        "vertices": [{"id": 0, "wcet": 2}, {"id": 1, "wcet": "-1/2"},
                     {"id": 2, "wcet": 1}]}]})
    with pytest.raises(NonPositiveWcet,
                       match="task 0: vertex 1 has WCET -1/2"):
        load_taskset(io.StringIO(text))


def test_deadline_beyond_period_rejected():
    with pytest.raises(DeadlineExceedsPeriod):
        DagTask(0, [(0, 1)], []).with_period(5, 6)


def test_several_sources_and_sinks():
    t = DagTask(0, [(0, 2), (1, 3)], []).with_period(10)
    # both vertices are sources and sinks, and no vertex is added
    assert t.wcets == {0: 2, 1: 3}
    assert t.succ == t.pred == [[], []]
    assert validate(t).work == 5
    assert validate(t).critical_path == 3


def test_edges_hold_the_input_edges_only():
    # two sources and two sinks: succ/pred hold the input graph, no more;
    # a tuple edge is kept as the object given
    edges = [(0, 2), (1, 2), (0, 2), [1, 3]]
    t = DagTask(0, [(0, 1), (1, 1), (2, 1), (3, 1)], edges)
    assert t.edges == ((0, 2), (1, 2), (1, 3))
    assert t.edges[0] is edges[0] and t.edges[1] is edges[1]
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
    ([(0, 1), (0, 1, 2)], MalformedTaskSet,
     "task 0: bad vertex, edge or time"),
    # an edge that is not a pair comes first, wherever it stands
    ([(1, 1), (0, 1, 2)], MalformedTaskSet,
     "task 0: bad vertex, edge or time"),
    ([(0, 5), (0,)], MalformedTaskSet, "task 0: bad vertex, edge or time"),
    ([(0, 1), 5], MalformedTaskSet, "task 0: bad vertex, edge or time"),
    (5, MalformedTaskSet, "task 0: bad vertex, edge or time"),
    (["ab"], MalformedTaskSet,
     "task 0: edge (a, b) references an unknown vertex"),
    (((u, v) for u, v in [(0, 1), (1, 1)]), CycleDetected,
     "task 0: self loop on vertex 1"),
    ((e for e in [(0, 1), [0, 1, 2]]), MalformedTaskSet,
     "task 0: bad vertex, edge or time"),
])
def test_malformed_edge_is_named(edges, error, message):
    with pytest.raises(error) as info:
        DagTask(0, [(0, 1), (1, 1)], edges)
    assert type(info.value) is error and message in str(info.value)


@pytest.mark.parametrize("vertices", [
    [(0, 1), (0, "1/2")], [(0, 2), (1, 1), (0, Fraction(1, 2))],
    [(0, 1), (0, "x")], [[0, 1], (0, 2.5)],
])
def test_repeated_vertex_ids_with_mixed_wcet_types_are_malformed(vertices):
    with pytest.raises(MalformedTaskSet) as info:
        DagTask(0, vertices, [])
    assert type(info.value) is MalformedTaskSet


def test_int_fraction_and_string_wcets_build_the_same_core():
    # two sources and two sinks, and the core holds the five vertices only
    edges = [(0, 2), (1, 2), (2, 3), (2, 4)]
    wcets = [3, 1, 4, 1, 5]
    built = [DagTask(0, [(v, convert(w)) for v, w in enumerate(wcets)],
                     edges)
             for convert in (int, Fraction, lambda w: f"{w}/1")]
    ints, *others = built
    assert ints.wcets == {0: 3, 1: 1, 2: 4, 3: 1, 4: 5}
    assert all(type(w) is Fraction for w in ints.wcets.values())
    for task in others:
        assert (task.den, task.wcet_int, task.wcets) \
            == (ints.den, ints.wcet_int, ints.wcets)


def test_single_vertex_is_source_and_sink():
    t = DagTask(0, [(0, 4)], [])
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
     "task 2: period or deadline is null"),
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
    shape = DagTask(0, [(0, 2), (1, 3)], [(0, 1)])
    task = shape.with_period(10)
    assert task.period == task.deadline == 10
    assert task.metrics == shape.with_period(10, 10).metrics


def test_timing_is_checked_at_construction():
    # the timed task is built by with_period, which validates it once
    with pytest.raises(DeadlineExceedsPeriod):
        DagTask(0, [(0, 1)], []).with_period(5, 6)
    with pytest.raises(NonPositiveWcet, match="task 0: vertex 1 has WCET 0"):
        DagTask(0, [(0, 1), (1, 0)], [(0, 1)]).with_period(5, 5)


_BAD_TIMES = [
    (-5, None, MalformedTaskSet,
     "period and deadline must be positive"),
    (0, None, MalformedTaskSet,
     "period and deadline must be positive"),
    ("abc", None, MalformedTaskSet, "bad period or deadline"),
    (None, None, MalformedTaskSet, "bad period or deadline"),
    (float("nan"), None, MalformedTaskSet, "bad period or deadline"),
    (float("inf"), None, MalformedTaskSet, "bad period or deadline"),
    (True, None, MalformedTaskSet, "bad period or deadline"),
    ("1/0", None, MalformedTaskSet, "bad period or deadline"),
    (5, 0, MalformedTaskSet,
     "period and deadline must be positive"),
    (5, "-1/2", MalformedTaskSet,
     "period and deadline must be positive"),
    (5, "abc", MalformedTaskSet, "bad period or deadline"),
    (5, 6, DeadlineExceedsPeriod, "D=6 > T=5"),
]


@pytest.mark.parametrize("period, deadline, error, message", _BAD_TIMES)
def test_with_period_rejects_a_bad_time(period, deadline, error, message):
    shape = DagTask(0, [(0, 1)], [])
    with pytest.raises(error) as info:
        shape.with_period(period, deadline)
    assert type(info.value) is error
    assert str(info.value).startswith(f"task 0: {message}")
    assert shape.period is shape.deadline is shape.metrics is None


@pytest.mark.parametrize("period, deadline, error, message", _BAD_TIMES)
def test_load_taskset_rejects_a_bad_time(period, deadline, error, message):
    # JSON carries NaN and infinity as Python's json module writes them,
    # and a null period is named as such
    text = json.dumps({"tasks": [{
        "id": 0, "period": period,
        "deadline": period if deadline is None else deadline,
        "vertices": [{"id": 0, "wcet": 1}], "edges": []}]})
    if period is None:
        message = "period or deadline is null"
    with pytest.raises(error) as info:
        load_taskset(io.StringIO(text))
    assert type(info.value) is error
    assert str(info.value).startswith(f"task 0: {message}")


def test_structure_is_checked_before_timing():
    # a cycle with period 0: the shape is built, and rejected, before any
    # time is read; the one-step reference reads the times first
    args = (0, [(0, 1), (1, 1)], [(0, 1), (1, 0)], 0, 0)
    with pytest.raises(MalformedTaskSet):
        PairCopyDagTask(*args)
    with pytest.raises(CycleDetected):
        _timed(*args)
    text = json.dumps({"tasks": [{
        "id": 0, "period": 0, "deadline": 0, "edges": [[0, 1], [1, 0]],
        "vertices": [{"id": 0, "wcet": 1}, {"id": 1, "wcet": 1}]}]})
    with pytest.raises(CycleDetected):
        load_taskset(io.StringIO(text))


def test_structure_then_wcets_then_timing():
    # a cycle is found before the WCETs are read, and a WCET <= 0 before
    # the times
    with pytest.raises(CycleDetected):
        DagTask(0, [(0, 0), (1, 1)], [(0, 1), (1, 0)])
    with pytest.raises(NonPositiveWcet, match="task 0: vertex 0 has WCET 0"):
        DagTask(0, [(0, 0)], []).with_period(0)
    text = json.dumps({"tasks": [{
        "id": 0, "period": 0, "deadline": 0, "edges": [],
        "vertices": [{"id": 0, "wcet": 0}]}]})
    with pytest.raises(NonPositiveWcet, match="task 0: vertex 0 has WCET 0"):
        load_taskset(io.StringIO(text))


def test_dumping_a_shape_is_malformed():
    with pytest.raises(MalformedTaskSet) as info:
        dump_taskset([DagTask("t", [(0, 1)], [])], io.StringIO())
    assert str(info.value) == "task t: no period"


def test_with_period_recomputes_the_metrics():
    task = DagTask(0, [(0, 2), (1, 3)], [(0, 1)]).with_period(10, 10)
    assert task.metrics.utilization == Fraction(1, 2)
    longer = task.with_period(20)
    assert longer.metrics == validate(longer)
    assert (longer.metrics.utilization, longer.metrics.elasticity) \
        == (Fraction(1, 4), Fraction(1, 4))
    assert task.metrics.utilization == Fraction(1, 2)
    assert DagTask(0, [(0, 2)], []).metrics is None


# --- the two-step build against the one that copies every input pair ----

def _core(task) -> tuple:
    return (task.edges, task.succ, task.pred, task.den, task.wcet_int,
            task.rdy_int, task.work_int, task.cpl_int, task.period,
            task.deadline, task.metrics)


def _timed(task_id, vertices, edges, period=None, deadline=None):
    """The shape of the DAG, timed by ``with_period`` when a period is
    given; like the one-step build, it ignores a deadline without one."""
    shape = DagTask(task_id, vertices, edges)
    return shape if period is None else shape.with_period(period, deadline)


def _build(build, make):
    """What ``build`` makes of the arguments ``make()`` returns: a task, or
    the error it raises."""
    try:
        return build(*make())
    except Exception as exc:
        return exc


def _assert_builds_as_reference(make):
    """``make()`` returns fresh (id, vertices, edges, period, deadline)
    arguments, so a generator of edges is read once per build.  Returns
    the task, or the error."""
    built, copied = _build(_timed, make), _build(PairCopyDagTask, make)
    if isinstance(built, Exception) or isinstance(copied, Exception):
        assert type(built) is type(copied)
    else:
        assert _core(built) == _core(copied)
    return built


def _assert_keeps_tuple_edges(task, edges):
    """``task.edges`` holds each edge's first occurrence, and a tuple edge
    as the object given."""
    first = {}
    for edge in edges:
        first.setdefault(tuple(edge), edge)
    assert task.edges == tuple(first)
    assert all(kept is first[kept] for kept in task.edges
               if type(first[kept]) is tuple)


def _parts(task) -> tuple:
    vertices = (list(enumerate(task.wcet_int)) if task.den == 1
                else list(task.wcets.items()))
    return task.id, vertices, list(task.edges), task.period, task.deadline


def test_constructor_builds_as_reference_on_corpus(corpus):
    rng = random.Random(5)
    tasks = corpus + [rational_variant(t, rng) for t in corpus[:200]]
    for task in tasks:
        args = _parts(task)
        built = _assert_builds_as_reference(lambda: args)
        assert _core(built) == _core(task)
        _assert_keeps_tuple_edges(built, args[2])


@pytest.mark.parametrize("scale, sets", [((10, 50), 200), (PAPER_SCALE, 50)])
def test_constructor_builds_as_reference_on_generated_sets(scale, sets):
    # the sweep workloads' sets, each task rebuilt from the generator's own
    # output (gen_taskset draws the shapes first) and its period
    utils = (0.3, 0.5, 0.7, 0.9)
    for seed in range(sets):
        config = GenConfig(n_tasks=5, p=0.05, m=8, util=utils[seed % 4],
                           n_vertices=scale)
        rng = random.Random(seed)
        for i, task in enumerate(gen_taskset(config, seed=seed)):
            shape = gen_structure(config, rng, i)
            args = (shape.id, list(enumerate(shape.wcet_int)),
                    list(shape.edges), task.period, task.deadline)
            built = _assert_builds_as_reference(lambda: args)
            assert _core(built) == _core(task)
            _assert_keeps_tuple_edges(built, args[2])


def test_constructor_builds_as_reference_on_verify_json():
    # the JSON loader hands edges over as lists and times as strings
    for tasks in verify_sets():
        buf = io.StringIO()
        dump_taskset(tasks, buf)
        for data in json.loads(buf.getvalue())["tasks"]:
            args = (data["id"], [(v["id"], v["wcet"])
                                 for v in data["vertices"]],
                    data["edges"], data["period"], data["deadline"])
            assert type(_assert_builds_as_reference(lambda: args)) is DagTask


_RATIONALS = st.builds(Fraction, st.integers(min_value=1, max_value=99),
                       st.integers(min_value=1, max_value=12))
_WCETS = st.one_of(st.integers(min_value=1, max_value=20), _RATIONALS,
                   _RATIONALS.map(str))


@st.composite
def _dag_args(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    listed = draw(st.permutations(range(n)))
    wcets = draw(st.lists(_WCETS, min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    index = st.integers(min_value=0, max_value=n - 1)
    edges = [(order[min(a, b)], order[max(a, b)])
             for a, b in draw(st.lists(st.tuples(index, index), min_size=n,
                                       max_size=14))
             if a != b]
    edges += draw(st.lists(st.sampled_from(edges), max_size=3)) \
        if edges else []
    # bit k of a mask gives pair k as a list, not a tuple
    lists = draw(st.integers(min_value=0, max_value=(1 << 25) - 1))
    edges = [list(e) if lists >> k & 1 else e for k, e in enumerate(edges)]
    if edges and draw(st.booleans()):     # a string pair names no vertex
        k = draw(st.integers(min_value=0, max_value=len(edges) - 1))
        edges[k] = "".join(map(str, edges[k]))
    lists = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    vertices = [[v, wcets[v]] if lists >> v & 1 else (v, wcets[v])
                for v in listed]
    period = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=200),
                            _RATIONALS.map(lambda r: str(r * 20))))
    return 0, vertices, edges, period, draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(_dag_args())
def test_constructor_builds_as_reference_on_any_dag(args):
    *args, as_generator = args
    if as_generator:
        built = _assert_builds_as_reference(
            lambda: (*args[:2], (e for e in args[2]), *args[3:]))
    else:
        built = _assert_builds_as_reference(lambda: args)
    if type(built) is DagTask:
        _assert_keeps_tuple_edges(built, args[2])


@pytest.mark.parametrize("vertices, edges, period, deadline", [
    ([(0, 1), (1, 1)], [(0, 1), (0, 1, 2)], None, None),   # not a pair
    ([(0, 1), (1, 1)], [(1, 1), (0,)], None, None),
    ([(0, 1), (1, 1)], [(0, 5), [0, 1, 2]], None, None),
    ([(0, 1), (1, 1)], [(0, 1), 5], None, None),           # not iterable
    ([(0, 1), (1, 1)], 5, None, None),
    ([(0, 1), (1, 1)], [[0, [1]]], None, None),            # unhashable
    ([(0, 1), (1, 1)], [(0, 2)], None, None),              # out of range
    ([(0, 1), (1, 1)], [(-1, 0)], None, None),
    ([(0, 1), (1, 1)], ["01", (0, 1)], None, None),
    ([(0, 1), (1, 1)], [(0, True)], None, None),           # bool
    ([(0, 1), (1, 1)], [(1, 1)], None, None),              # self loop
    ([(0, 1), (1, 1), (2, 1)], [(0, 1), (1, 2), (2, 0)], 9, 9),  # cycle
    ([(0, 1), (2, 1)], [], None, None),                    # vertex ids
    ([(0, 1), ("a", 1)], [], None, None),
    ([], [], None, None),
    ([(0, 1, 2)], [], None, None),
    ([5], [], None, None),
    (5, [], None, None),
    ([(0, True)], [], None, None),
    ([(0, "x")], [], None, None),
    ([(0, "1/0")], [], None, None),
    ([(0, 1), (0, "1/2")], [], None, None),
    ([(0, 1)], [], "abc", None),                           # times
    ([(0, 1)], [], 5, 0),
    ([(0, 0)], [], 5, 5),
    ([(0, 1)], [], 5, 6),
])
def test_malformed_input_raises_as_reference(vertices, edges, period,
                                             deadline):
    args = (0, vertices, edges, period, deadline)
    assert isinstance(_assert_builds_as_reference(lambda: args), Exception)


def _assert_gamma_is_the_reference(tasks):
    """Each task's gamma is (C - L)/(D - L) in Fractions, and None exactly
    where the reference raises for L >= D; returns whether each kind was
    seen."""
    seen = set()
    for task in tasks:
        try:
            expected = capacity_requirement(task.work, task.critical_path,
                                            task.deadline)
        except CriticalPathExceedsDeadline:
            expected = None
        gamma = task.metrics.gamma
        assert (type(gamma), gamma) == (type(expected), expected), task.id
        seen.add(gamma is None)
    return seen


def test_gamma_is_the_reference_on_the_corpus_and_its_variants(corpus):
    rng = random.Random(31)
    assert _assert_gamma_is_the_reference(
        corpus + [rational_variant(t, rng) for t in corpus[:300]]) == {False}


def test_gamma_is_the_reference_on_generated_sets():
    sets = [gen_taskset(GenConfig(n_tasks=5, p=0.05, util=util,
                                  n_vertices=scale), seed=seed)
            for scale in ((10, 50), PAPER_SCALE) for seed in range(2)
            for util in (0.3, 0.9)] + list(verify_sets())
    assert _assert_gamma_is_the_reference(
        [task for tasks in sets for task in tasks]) == {False}


def test_gamma_reads_the_deadline():
    # C = 16, L = 8: (16 - 8)/(D - 8), whatever T is
    tasks = [fig1_task(period=40, deadline=d) for d in (8, 9, 12, 40)]
    assert [t.metrics.gamma for t in tasks] \
        == [None, Fraction(8), Fraction(2), Fraction(1, 4)]
    assert _assert_gamma_is_the_reference(tasks) == {False, True}


@st.composite
def _constrained_tasks(draw):
    """A DAG timed with D < T, its D drawn on either side of L and of C."""
    n = draw(st.integers(min_value=1, max_value=8))
    wcets = draw(st.lists(st.one_of(st.integers(min_value=1, max_value=20),
                                    _RATIONALS), min_size=n, max_size=n))
    index = st.integers(min_value=0, max_value=n - 1)
    edges = sorted({(min(a, b), max(a, b)) for a, b in draw(
        st.lists(st.tuples(index, index), max_size=14)) if a != b})
    shape = DagTask(0, list(enumerate(wcets)), edges)
    low, high = shape.critical_path / 2, 2 * shape.work
    deadline = draw(st.one_of(st.just(shape.critical_path), st.fractions(
        min_value=0, max_value=1, max_denominator=60).map(
            lambda x: low + (high - low) * x)))
    return shape.with_period(deadline + draw(_RATIONALS), deadline)


@settings(max_examples=200, deadline=None)
@given(_constrained_tasks())
def test_gamma_is_the_reference_on_any_constrained_dag(task):
    assert task.deadline < task.period
    _assert_gamma_is_the_reference([task])


def _assert_validates_as_reference(task):
    """``validate`` gives the Fraction form's metrics: equal values of
    equal types, field by field."""
    got, expected = validate(task), fraction_validate(task)
    assert [(type(getattr(got, f.name)), getattr(got, f.name))
            for f in fields(TaskMetrics)] \
        == [(type(getattr(expected, f.name)), getattr(expected, f.name))
            for f in fields(TaskMetrics)], task.id
    return got


@st.composite
def _timed_tasks(draw):
    """A DAG timed with D < T, or with D = T given as T itself, as another
    Fraction of the same value, or as a JSON-loaded task has it."""
    task = draw(_constrained_tasks())
    d = task.deadline
    kind = draw(st.sampled_from(["constrained", "same", "equal", "json"]))
    if kind == "same":
        return task.with_period(d)
    if kind == "equal":
        return task.with_period(d, Fraction(d.numerator, d.denominator))
    if kind == "json":
        buf = io.StringIO()
        dump_taskset([task.with_period(d)], buf)
        buf.seek(0)
        (task,) = load_taskset(buf)
        assert task.deadline is not task.period
    return task


@settings(max_examples=300, deadline=None)
@given(_timed_tasks())
def test_validate_matches_its_fraction_form(task):
    met = _assert_validates_as_reference(task)
    if task.deadline == task.period:    # C/D is U itself, as it was
        assert met.density is met.utilization


def test_validate_matches_its_fraction_form_on_the_corpus(corpus):
    tasks = corpus + [t for seed in range(4) for t in gen_taskset(
        GenConfig(n_tasks=5, p=0.05), seed=seed)]
    heavy = {_assert_validates_as_reference(t).heavy for t in tasks}
    assert heavy == {False, True}
    # L >= D: gamma is None in both forms
    assert _assert_validates_as_reference(
        fig1_task(period=40, deadline=8)).gamma is None


@pytest.mark.parametrize("deadline", [15, Fraction(141, 10), 10 ** 9])
def test_validate_rejects_d_above_t_as_its_fraction_form(deadline):
    task = object.__new__(DagTask)
    task.__dict__.update(fig1_task(period=14).__dict__)
    task.deadline = as_fraction(deadline)
    with pytest.raises(DeadlineExceedsPeriod) as got:
        validate(task)
    with pytest.raises(DeadlineExceedsPeriod) as expected:
        fraction_validate(task)
    assert str(got.value) == str(expected.value)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.fractions(), st.integers(),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=8))
def test_largest_is_the_first_max(values):
    assert _largest(values) is max(values)
