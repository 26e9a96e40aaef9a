import random
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import pytest

from parasched.analysis import (TESTS, UniformPlatform, uniform_response_bound,
                                weak_response_bound)
from parasched.decomposition import decompose
from parasched.errors import InvalidChoice, InvalidSpeeds, ParaschedError
from parasched.gen import PAPER_SCALE, GenConfig, gen_taskset
from parasched.model import DagTask, validate
from parasched.sim import (GedfReport, simulate_dispatcher, simulate_gedf,
                           simulate_uniform)
from conftest import (chain_task, fig1_task, random_small_task,
                      rational_variant, verify_sets)
from reference import migrations

SPEEDS = [1, Fraction(1, 2), Fraction(1, 4)]


def paper_order(t, eligible):
    """Tie order of the worked trace: at t=1 pick v4, v3, v2 (ids 3,2,1);
    at t=5 put v2 back on the fastest processor first."""
    if t == 1:
        return [3, 2, 1]
    if t == 5:
        return [1, 2]
    return sorted(eligible)


def test_uniform_golden_trace():
    tr = simulate_uniform(fig1_task(), SPEEDS, order=paper_order)
    assert tr.response_time == 11
    migs = [(t, v) for t, kind, v, *_ in tr.events if kind == "migrate"]
    assert (Fraction(5), 1) in migs    # v2 moves to the fastest at 5
    assert (Fraction(9), 4) in migs    # v5 moves to the fastest at 9
    times = [e[0] for e in tr.events]
    assert times == sorted(times)


def test_chain_runs_on_fastest():
    task = chain_task(4, wcet=3)
    tr = simulate_uniform(task, SPEEDS)
    assert tr.response_time == 12    # L / fastest speed
    assert not migrations(tr)


def _dispatcher_choice():
    queue = {Fraction(1): [3, 2, 1]}

    def choice(t, eligible):
        if t in queue and queue[t]:
            return queue[t].pop(0)
        return eligible[0]
    return choice


def test_dispatcher_golden_trace():
    tr = simulate_dispatcher(fig1_task(), SPEEDS,
                             choice=_dispatcher_choice())
    assert tr.response_time == 11
    assert tr.split_count == 3
    deadlines = [a[3] for a in tr.assignments]
    assert deadlines == [1, 5, 5, 5, 9, 7, 9, 10, 11]


def test_dispatcher_matches_uniform_workload_on_golden():
    disp = simulate_dispatcher(fig1_task(), SPEEDS,
                               choice=_dispatcher_choice())
    uni = simulate_uniform(fig1_task(), SPEEDS, order=paper_order)

    def uniform_done(t):
        total = Fraction(0)
        speeds = sorted((Fraction(s) for s in SPEEDS), reverse=True)
        for t0, t1, running in uni.intervals:
            overlap = max(Fraction(0), min(t, t1) - t0)
            total += overlap * sum(speeds[i] for i in running)
        return total

    def dispatcher_done(t):
        total = Fraction(0)
        for start, idx, _, deadline in disp.assignments:
            delta = Fraction([1, Fraction(1, 2), Fraction(1, 4)][idx])
            overlap = max(Fraction(0), min(t, deadline) - start)
            total += overlap * delta
        return total

    for t in sorted({a[0] for a in disp.assignments} | {disp.response_time}):
        assert dispatcher_done(t) == uniform_done(t)


def test_dispatcher_deadline_respect():
    # each assignment's workload share fits the container rate exactly
    tr = simulate_dispatcher(fig1_task(), SPEEDS,
                             choice=_dispatcher_choice())
    for (t, idx, exe, deadline) in tr.assignments:
        assert deadline > t


def test_uniform_bounds_random_sample():
    rng = random.Random(99)
    for i in range(100):
        task = random_small_task(rng, i)
        met = validate(task)
        k = rng.randint(1, 4)
        speeds = [Fraction(rng.randint(1, 8), rng.randint(1, 8))
                  for _ in range(k)]
        plat = UniformPlatform(speeds)
        shuffler = random.Random(i)

        def order(t, eligible):
            eligible = list(eligible)
            shuffler.shuffle(eligible)
            return eligible

        r = simulate_uniform(task, speeds, order=order).response_time
        assert r <= uniform_response_bound(met, plat)
        r2 = simulate_uniform(task, speeds, order=order,
                              migration=False).response_time
        assert r2 <= weak_response_bound(met, plat)


def test_gedf_single_chain_one_processor():
    task = chain_task(3, wcet=2, period=8)   # U = 6/8
    dec = decompose(task).decomposed
    report = simulate_gedf([dec], 1, 80)
    assert report.ok


def test_gedf_overload_misses():
    # two chains with U=1 each on one processor must miss
    tasks = [chain_task(2, wcet=2, period=4) for _ in range(2)]
    decs = [decompose(t).decomposed for t in tasks]
    report = simulate_gedf(decs, 1, 40)
    assert not report.ok


# The Fraction engine that integer time replaced, copied verbatim but for
# the name and the job key, which ties on the task's position, not its id,
# as the reference ``simulate_gedf`` must match.
def _reference_simulate_gedf(tasks, m, horizon):
    """Preemptive global EDF over the periodic subtask jobs of decomposed
    tasks, synchronous release, checked up to ``horizon``."""
    horizon = Fraction(horizon)
    jobs = []   # [release, deadline, remaining, (task position, subtask, k)]
    for pos, dt in enumerate(tasks):
        for si, sub in enumerate(dt.subtasks):
            if sub.wcet == 0:
                continue
            k = 0
            while k * dt.period + sub.release < horizon:
                jobs.append([k * dt.period + sub.release,
                             k * dt.period + sub.deadline,
                             Fraction(sub.wcet), (pos, si, k)])
                k += 1
    jobs.sort(key=lambda j: (j[0], j[1], j[3]))

    misses = []
    t = Fraction(0)
    pending = []
    i = 0
    while t < horizon:
        while i < len(jobs) and jobs[i][0] <= t:
            pending.append(jobs[i])
            i += 1
        active = sorted((j for j in pending if j[2] > 0),
                        key=lambda j: (j[1], j[3]))
        if not active:
            if i >= len(jobs):
                break
            t = jobs[i][0]
            continue
        run = active[:m]
        # next event: a completion, a release, or the horizon
        dt_candidates = [j[2] for j in run]
        if i < len(jobs):
            dt_candidates.append(jobs[i][0] - t)
        dt_candidates.append(horizon - t)
        step = min(c for c in dt_candidates if c > 0)
        for j in run:
            j[2] -= step
        t += step
        for j in list(pending):
            if j[2] == 0:
                pending.remove(j)
            elif j[1] <= t:
                misses.append((j[3], j[1], j[2]))
                pending.remove(j)
    for j in pending:
        if j[2] > 0 and j[1] <= horizon:
            misses.append((j[3], j[1], j[2]))
    return GedfReport(misses=[((tasks[pos].task_id, si, k), deadline, left)
                              for (pos, si, k), deadline, left in misses],
                      horizon=horizon)


def _assert_gedf_matches_reference(decs, m, horizon):
    report = simulate_gedf(decs, m, horizon)
    ref = _reference_simulate_gedf(decs, m, horizon)
    assert (report.misses, report.horizon) == (ref.misses, ref.horizon)
    assert all(type(deadline) is type(left) is Fraction
               for _, deadline, left in report.misses)
    return report


def test_gedf_matches_reference_on_verify_sets():
    # the sets the benchmark's verify workload simulates, on 1, 2 and 4
    # processors over two of the largest periods
    for tasks in verify_sets():
        decs = [decompose(t).decomposed for t in tasks]
        horizon = 2 * max(t.period for t in tasks)
        assert horizon.denominator > 1
        for m in (1, 2, 4):
            report = _assert_gedf_matches_reference(decs, m, horizon)
            assert report.misses or m > 1


def test_gedf_reports_simultaneous_misses_in_release_order():
    # three chains whose last subtasks share the deadline 8 and all miss
    # there on one processor: released c (at 4), a (5), b (48/7), they are
    # reported in that order, not in the EDF order a, b, c
    tasks = [DagTask(tid, list(enumerate(wcets)),
                     [(0, 1), (1, 2)]).with_period(8)
             for tid, wcets in (("a", (1, 4, 3)), ("b", (4, 2, 1)),
                                ("c", (1, 1, 2)))]
    decs = [decompose(t).decomposed for t in tasks]
    releases = {dt.task_id: dt.subtasks[2].release for dt in decs}
    assert releases["c"] < releases["a"] < releases["b"]
    report = _assert_gedf_matches_reference(decs, 1, 16)
    for period in (1, 2):
        assert [job for job, deadline, _ in report.misses
                if deadline == 8 * period] \
            == [("c", 2, period - 1), ("a", 2, period - 1),
                ("b", 2, period - 1)]


def test_gedf_ties_go_by_task_position_not_id():
    # equal tasks whose ids do not ascend in input order, of both types:
    # the run is the one the ids 0, 1, 2 give, with the ids mapped back
    def run(ids):
        tasks = [DagTask(tid, [(0, 2), (1, 2)], [(0, 1)]).with_period(4)
                 for tid in ids]
        decs = [decompose(t).decomposed for t in tasks]
        return _assert_gedf_matches_reference(decs, 1, 12).misses

    ids = ("b", 0, "a")
    misses = run(ids)
    assert misses == [((ids[pos], si, k), deadline, left)
                      for (pos, si, k), deadline, left in run((0, 1, 2))]
    # "b", first in the input, wins the first tie; the two others miss
    assert [job for job, _, _ in misses[:2]] == [(0, 0, 0), ("a", 0, 0)]


def test_gedf_memory_does_not_grow_with_the_horizon():
    # a verify-shaped set that meets every deadline on 4 processors: the
    # engine holds the next job of each subtask and the live ones, so ten
    # times the horizon must not take ten times the memory
    tasks = verify_sets()[0]
    decs = [decompose(t).decomposed for t in tasks]
    period = max(t.period for t in tasks)
    simulate_gedf(decs, 4, 2 * period)     # one-time allocations go here

    def peak(periods):
        tracemalloc.start()
        try:
            assert simulate_gedf(decs, 4, periods * period).ok
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200) <= 2 * peak(20)


@pytest.mark.parametrize("m", [0, -1])
def test_gedf_rejects_fewer_than_one_processor(m):
    # a slice ready[:m] would run no job at 0, and all but the last at -1
    task = fig1_task()
    dec = decompose(task).decomposed
    with pytest.raises(ValueError, match="m must be >= 1"):
        simulate_gedf([dec], m, 10 * task.period)


@pytest.mark.parametrize("m, horizon, match", [
    (1.5, 10, "m must be an int"), (True, 10, "m must be an int"),
    (2, 0, "horizon must be positive"), (2, -5, "horizon must be positive"),
    (2, None, "horizon must be a number, got None"),
    (2, "abc", "horizon must be a number, got 'abc'"),
    (2, "1/0", "horizon must be a number, got '1/0'"),
])
def test_gedf_rejects_a_bad_m_or_horizon(m, horizon, match):
    # a horizon of -5 gave an empty report, m = 1.5 and a horizon of None
    # a bare TypeError, and "1/0" a ZeroDivisionError
    dec = decompose(fig1_task()).decomposed
    with pytest.raises(ValueError, match=match):
        simulate_gedf([dec], m, horizon)


def test_float_speeds_bounds_and_horizons_read_as_decimals():
    chain = chain_task(5, wcet=1)
    uni = simulate_uniform(chain, [0.3])
    assert uni.response_time == Fraction(50, 3)
    assert uni.events == simulate_uniform(chain, [Fraction(3, 10)]).events
    task = fig1_task()
    disp = simulate_dispatcher(task, [0.7, 0.3])
    exact = simulate_dispatcher(task, [Fraction(7, 10), Fraction(3, 10)])
    assert (disp.response_time, disp.assignments) \
        == (exact.response_time, exact.assignments)
    dec = decompose(task).decomposed
    report = simulate_gedf([dec], 1, 0.3)
    assert report.horizon == Fraction(3, 10)
    assert report.misses == simulate_gedf([dec], 1, Fraction(3, 10)).misses


def test_gedf_matches_reference_on_rational_wcets():
    tasks = [DagTask("a", [(0, "1/3"), (1, "5/7"), (2, 1)],
                     [(0, 1), (0, 2)]).with_period("9/4", "9/4"),
             DagTask("b", [(0, "5/7"), (1, "1/3")],
                     [(0, 1)]).with_period("3/2", "3/2")]
    decs = [decompose(t).decomposed for t in tasks]
    for m in (1, 2):
        report = _assert_gedf_matches_reference(decs, m, Fraction(67, 5))
        assert report.horizon == Fraction(67, 5)
        assert report.misses or m > 1


# The Fraction engines that integer time replaced, copied verbatim but for
# the names, as the references ``simulate_uniform`` and
# ``simulate_dispatcher`` must match.

@dataclass
class _ReferenceTrace:
    response_time: Fraction
    events: list = field(default_factory=list)
    split_count: int = 0
    assignments: list = field(default_factory=list)
    intervals: list = field(default_factory=list)   # (t0, t1, {proc: vertex})

    @property
    def migrations(self):
        return [e for e in self.events if e[1] == "migrate"]


def _reference_real_graph(task: DagTask):
    """Vertex ids, WCETs and predecessor sets with the zero-cost dummy
    source/sink stripped out."""
    real = set(task.real_vertex_ids)
    preds = {v: {u for u in task.pred[v] if u in real} for v in real}
    return sorted(real), preds


def _reference_simulate_uniform(task: DagTask, speeds: Sequence,
                     order: Optional[Callable] = None,
                     migration: bool = True) -> _ReferenceTrace:
    """Run one DAG job on processors with the given speeds.

    At every event the eligible vertices, ordered by ``order(t, ids)``
    (default: ascending id), are placed on the fastest processors.  With
    ``migration=False`` a started vertex stays pinned to its processor and
    only idle processors pick up fresh work.
    """
    speeds = sorted((Fraction(s) for s in speeds), reverse=True)
    vids, preds = _reference_real_graph(task)
    remaining = {v: Fraction(task.wcets[v]) for v in vids}
    done = set()
    where = {}          # vertex -> processor index it last ran on
    trace = _ReferenceTrace(response_time=Fraction(0))
    t = Fraction(0)

    while len(done) < len(vids):
        eligible = [v for v in vids
                    if v not in done and preds[v] <= done]
        assert eligible, "deadlock in precedence graph"
        if order is not None:
            eligible = list(order(t, list(eligible)))

        running = {}    # processor index -> vertex
        if migration:
            for idx, v in enumerate(eligible[:len(speeds)]):
                running[idx] = v
        else:
            free = [i for i in range(len(speeds))]
            for v in list(eligible):
                if v in where:
                    running[where[v]] = v
                    free.remove(where[v])
            fresh = [v for v in eligible if v not in where]
            for idx, v in zip(sorted(free), fresh):
                running[idx] = v

        for idx, v in running.items():
            if v in where and where[v] != idx:
                trace.events.append((t, "migrate", v, where[v], idx))
            elif v not in where:
                trace.events.append((t, "start", v, idx))
            where[v] = idx

        # advance to the earliest completion
        dt = min(remaining[v] / speeds[idx] for idx, v in running.items())
        assert dt > 0
        trace.intervals.append((t, t + dt, dict(running)))
        t += dt
        for idx, v in running.items():
            remaining[v] -= dt * speeds[idx]
            if remaining[v] == 0:
                done.add(v)
                trace.events.append((t, "finish", v, idx))

    trace.response_time = t
    return trace


@dataclass
class _ReferenceContainer:
    index: int
    delta: Fraction
    deadline: Optional[Fraction] = None   # None when empty
    exe: Optional[object] = None


def _reference_simulate_dispatcher(task: DagTask, deltas: Sequence,
                        choice: Optional[Callable] = None) -> _ReferenceTrace:
    """Execute one DAG job through container tasks with load bounds
    ``deltas``.

    Whenever an eligible vertex and an empty container exist, the vertex is
    assigned to the empty container with the largest load bound with
    deadline t + c(v)/delta.  If a strictly faster occupied container would
    empty earlier, the vertex is split at that deadline and its remainder
    goes back to the head of the ready list.  Occupied containers empty
    exactly at their deadlines.
    """
    vids, preds = _reference_real_graph(task)
    containers = [_ReferenceContainer(i, Fraction(getattr(d, "load", d)))
                  for i, d in enumerate(deltas)]
    # ready list S: (key, wcet, pred keys); vertex keys are the id or
    # (id, suffix) for split parts
    s_list = [(v, Fraction(task.wcets[v])) for v in vids]
    pred_of = {v: set(preds[v]) for v in vids}
    done = set()
    trace = _ReferenceTrace(response_time=Fraction(0))
    t = Fraction(0)

    def eligible():
        return [entry for entry in s_list if pred_of[entry[0]] <= done]

    while s_list or any(c.exe is not None for c in containers):
        # vacate containers whose deadline is now
        for c in containers:
            if c.deadline is not None and c.deadline == t:
                done.add(c.exe)
                trace.events.append((t, "finish", c.exe, c.index))
                c.deadline = None
                c.exe = None

        while True:
            empty = [c for c in containers if c.deadline is None]
            elig = eligible()
            if not empty or not elig:
                break
            if choice is not None:
                key = choice(t, [e[0] for e in elig])
                entry = next(e for e in elig if e[0] == key)
            else:
                entry = elig[0]
            s_list.remove(entry)
            v, c_v = entry
            phi = max(empty, key=lambda c: (c.delta, -c.index))
            faster = [c.deadline for c in containers
                      if c.deadline is not None and c.delta > phi.delta]
            d_prime = min(faster) if faster else None
            if d_prime is None or d_prime >= t + c_v / phi.delta:
                phi.deadline = t + c_v / phi.delta
                phi.exe = v
            else:
                phi.deadline = d_prime
                head = (d_prime - t) * phi.delta
                v1 = (v, "'") if not isinstance(v, tuple) else (v[0], v[1] + "'")
                v2 = (v, "''") if not isinstance(v, tuple) else (v[0], v[1] + "''")
                phi.exe = v1
                # the remainder inherits v's role in the graph
                pred_of[v2] = {v1}
                for w, ps in pred_of.items():
                    if v in ps:
                        ps.discard(v)
                        ps.add(v2)
                s_list.insert(0, (v2, c_v - head))
                trace.split_count += 1
                trace.events.append((t, "split", v, head, c_v - head))
            trace.assignments.append((t, phi.index, phi.exe, phi.deadline))

        future = [c.deadline for c in containers if c.deadline is not None]
        if not future:
            assert not s_list, "stuck with unassigned vertices"
            break
        t = min(future)

    trace.response_time = t
    return trace


SPEED_SETS = ([1, Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)],
              [Fraction(2, 3), Fraction(5, 7), 1, Fraction(1, 3)],
              [Fraction(3, 2), Fraction(1, 5), Fraction(4, 9)])


def _assert_sims_match_reference(tasks, speed_sets=SPEED_SETS):
    for task in tasks:
        for speeds in speed_sets:
            runs = [(simulate_uniform(task, speeds, migration=mig),
                     _reference_simulate_uniform(task, speeds, migration=mig))
                    for mig in (True, False)]
            runs.append((simulate_dispatcher(task, speeds),
                         _reference_simulate_dispatcher(task, speeds)))
            for got, ref in runs:
                assert type(got.response_time) is Fraction
                assert (got.response_time, got.events, got.intervals,
                        got.assignments, got.split_count, migrations(got)) \
                    == (ref.response_time, ref.events, ref.intervals,
                        ref.assignments, ref.split_count, ref.migrations), \
                    (task.id, speeds)


def test_sims_match_reference_on_corpus(corpus):
    _assert_sims_match_reference(corpus)


def test_sims_match_reference_on_rational_wcets(corpus):
    rng = random.Random(15)
    tasks = [rational_variant(task, rng) for task in corpus[:300]]
    assert any(t.den > 1 for t in tasks)
    _assert_sims_match_reference(tasks)


def test_sims_match_reference_on_verify_and_paper_scale_tasks():
    # the shapes the benchmark's verify workload simulates, and two paper
    # scale DAGs, whose time unit grows to hundreds of bits
    config = GenConfig(n_tasks=3, p=0.1, m=4, util=0.6,
                       n_vertices=(14, 16), period_mode="gamma-formula")
    tasks = [t for seed in (1, 2, 3) for t in gen_taskset(config, seed=seed)]
    paper = GenConfig(p=0.05, n_vertices=PAPER_SCALE, n_tasks=2)
    tasks += gen_taskset(paper, seed=4)
    assert simulate_uniform(tasks[-1], SPEED_SETS[1]).response_time \
        .denominator.bit_length() > 100
    _assert_sims_match_reference(tasks)


def test_sims_pass_fractions_to_the_callbacks():
    task = rational_variant(fig1_task(), random.Random(3))
    seen = []

    def order(t, eligible):
        seen.append(t)
        return eligible[::-1]

    def choice(t, eligible):
        seen.append(t)
        return eligible[-1]

    for speeds in SPEED_SETS:
        for mig in (True, False):
            assert simulate_uniform(task, speeds, order=order,
                                    migration=mig).events \
                == _reference_simulate_uniform(task, speeds, order=order,
                                               migration=mig).events
        assert simulate_dispatcher(task, speeds, choice=choice).assignments \
            == _reference_simulate_dispatcher(task, speeds,
                                              choice=choice).assignments
    assert all(type(t) is Fraction for t in seen)
    assert any(t.denominator > 1 for t in seen)


def test_callbacks_get_a_copy(corpus):
    # callbacks that reverse their argument in place: the engines' own
    # ready structures must not change with it
    def order(t, eligible):
        eligible.reverse()
        return eligible

    def choice(t, eligible):
        eligible.reverse()
        return eligible[0]

    for task in [fig1_task()] + corpus[:40]:
        for speeds in SPEED_SETS:
            for mig in (True, False):
                assert simulate_uniform(task, speeds, order=order,
                                        migration=mig).events \
                    == _reference_simulate_uniform(task, speeds, order=order,
                                                   migration=mig).events
            got = simulate_dispatcher(task, speeds, choice=choice)
            ref = _reference_simulate_dispatcher(task, speeds, choice=choice)
            assert (got.events, got.assignments) \
                == (ref.events, ref.assignments)


@pytest.mark.parametrize("run", [
    lambda: simulate_uniform(fig1_task(), [1, Fraction(1, 2)],
                             order=lambda t, e: [99]),
    lambda: simulate_uniform(fig1_task(), [1, Fraction(1, 2)],
                             order=lambda t, e: [1]),
    lambda: simulate_uniform(fig1_task(), [1, Fraction(1, 2)],
                             order=lambda t, e: e + e, migration=False),
    lambda: simulate_uniform(fig1_task(), [1, Fraction(1, 2)],
                             order=lambda t, e: e[:-1]),
    lambda: simulate_dispatcher(fig1_task(), [1, Fraction(1, 2)],
                                choice=lambda t, e: 99),
    lambda: simulate_dispatcher(fig1_task(), [1, Fraction(1, 2)],
                                choice=lambda t, e: 1),
], ids=["uniform-unknown", "uniform-not-ready", "uniform-twice",
        "uniform-missing", "dispatcher-unknown", "dispatcher-not-ready"])
def test_callback_picking_an_ineligible_vertex_raises(run):
    # at t = 0 only vertex 0, fig1's source, is eligible
    with pytest.raises(InvalidChoice, match="t=0") as info:
        run()
    assert isinstance(info.value, ParaschedError)
    assert isinstance(info.value, ValueError)
    assert "eligible vertices [0]" in str(info.value)


def test_trace_lists_and_wcets_are_built_on_first_read():
    task = fig1_task()
    dec = decompose(task, compute_load=True)
    assert "stretched" not in vars(dec)
    assert "subtasks" not in vars(dec.decomposed)
    simulate_gedf([dec.decomposed], 2, 3 * task.period)
    assert "subtasks" not in vars(dec.decomposed)
    for method in TESTS.values():
        method.run([task], 4)
    uni = simulate_uniform(task, SPEED_SETS[0])
    pinned = simulate_uniform(task, SPEED_SETS[0], migration=False)
    disp = simulate_dispatcher(task, SPEED_SETS[0])
    lists = {"events", "intervals", "assignments"}
    for trace in (uni, pinned, disp):
        assert not lists & set(vars(trace))
    assert "wcets" not in vars(task)
    # read on demand, they hold Fractions and are kept
    assert uni.events[0] == (0, "start", 0, 0)
    assert all(type(e[0]) is Fraction for e in uni.events + disp.events)
    assert sum((t1 - t0) * len(running)
               for t0, t1, running in pinned.intervals) > 0
    assert disp.assignments[-1][3] == disp.response_time
    assert all(lists & set(vars(trace)) for trace in (uni, pinned, disp))
    assert task.wcets[0] == 1 and "wcets" in vars(task)
    assert sum(s.d for s in dec.stretched) == task.period
    assert dec.decomposed.subtasks[0].wcet == 1
    assert "stretched" in vars(dec) and "subtasks" in vars(dec.decomposed)


@pytest.mark.parametrize("speeds", [[], [0], [-1], [1, 0],
                                    [Fraction(-1, 2), 2], ["fast"], [None],
                                    [1, float("nan")], ["1/0"]])
def test_bad_speeds_raise_a_parasched_error(speeds):
    runs = (lambda: simulate_uniform(fig1_task(), speeds),
            lambda: simulate_uniform(fig1_task(), speeds, migration=False),
            lambda: simulate_dispatcher(fig1_task(), speeds),
            lambda: UniformPlatform(speeds))
    for run in runs:
        with pytest.raises(InvalidSpeeds) as info:
            run()
        assert isinstance(info.value, ParaschedError)
        assert isinstance(info.value, ValueError)
