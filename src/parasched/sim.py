"""Discrete-event simulators.

Three exact engines, with no float:

* ``simulate_uniform`` -- a single DAG on uniform (heterogeneous speed)
  processors under work-conserving list scheduling, with or without
  migration.
* ``simulate_dispatcher`` -- a single DAG executed through container tasks
  with load bounds, splitting vertices so that faster containers never
  idle while slower ones are busy.
* ``simulate_gedf`` -- periodic subtask jobs of decomposed tasks under
  preemptive global EDF, reporting deadline misses; each subtask's next
  job is released only when its time comes.

All three run on integer time.  ``simulate_gedf`` only adds and subtracts,
so it reads the decomposed tasks' ints, rescaled once to one ``den``.  The
first two divide by speeds such as 3/4: each speed is an int over ``scale``,
the LCM of the speed denominators; times are ints over ``den``, which
starts at the task's ``den``; and work is in units of 1/(scale * den), so
a processor of speed sigma does sigma * dt work in dt ticks.  Before a
division by sigma whose result is not a whole tick, ``den`` and every
time and remaining work are multiplied by sigma / gcd(work, sigma); an
untouched vertex's work is its WCET times ``unit``, which takes every
such factor, so only the started or split ones keep theirs.
Fractions are built for what is returned: the response time at once, the
trace lists on first read.

The two single-DAG engines keep readiness as it changes: each vertex
counts its unfinished predecessors, and a vertex's end lowers its
successors' counts; a task may have several sources and sinks.
``simulate_uniform`` keeps the eligible vertices in a sorted list.
``simulate_dispatcher`` keeps its ready list of unassigned parts, in the
order that decides the default pick, with the set of those eligible, and
maps each split head to its remainder: the head's end makes the
remainder eligible, and only the last part's end counts for the
successors.  The ``order``/``choice`` callbacks get a copy of the
eligible ids, and a pick that is not eligible raises ``InvalidChoice``.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .decomposition import DecomposedTask
from .errors import InvalidChoice
from .model import DagTask, as_fraction, check_m, scale_speeds

# a ready GEDF job's deadline, and its key for reporting misses in
# release order
_DEADLINE = itemgetter(0)
_RELEASE_ORDER = itemgetter(3, 0, 1)


@dataclass
class SimTrace:
    """One simulated DAG job.  The trace lists are kept as int records,
    each with the ``den`` its times are over (works are over
    ``scale * den``), and built as Fractions on first read:

    * ``events`` -- (t, "start" | "migrate" | "finish", vertex, processor
      ...) and (t, "split", vertex, head work, tail work);
    * ``intervals`` -- (t0, t1, {processor: vertex});
    * ``assignments`` -- (t, container, vertex, deadline).
    """
    response_time: Fraction
    split_count: int
    scale: int
    event_ints: list        # (t, den, kind, ...)
    interval_ints: list     # (t0, t1, den, running)
    assignment_ints: list   # (t, den, container, vertex, deadline)

    @cached_property
    def events(self) -> list:
        out = []
        for t, den, kind, *rest in self.event_ints:
            if kind == "split":
                v, head, tail = rest
                unit = self.scale * den
                rest = (v, Fraction(head, unit), Fraction(tail, unit))
            out.append((Fraction(t, den), kind, *rest))
        return out

    @cached_property
    def intervals(self) -> list:
        return [(Fraction(t0, den), Fraction(t1, den), running)
                for t0, t1, den, running in self.interval_ints]

    @cached_property
    def assignments(self) -> list:
        return [(Fraction(t, den), index, exe, Fraction(deadline, den))
                for t, den, index, exe, deadline in self.assignment_ints]


def simulate_uniform(task: DagTask, speeds: Sequence,
                     order: Optional[Callable] = None,
                     migration: bool = True) -> SimTrace:
    """Run one DAG job on processors with the given speeds.

    At every event the eligible vertices, ordered by ``order(t, ids)``
    (default: ascending id), are placed on the fastest processors.  With
    ``migration=False`` a started vertex stays pinned to its processor and
    only idle processors pick up fresh work.  Raises ``InvalidSpeeds``
    unless there is a speed and all are positive, and ``InvalidChoice``
    if ``order`` returns anything but a permutation of ``ids``.
    """
    scale, speeds = scale_speeds(speeds)
    speeds.sort(reverse=True)
    den = task.den
    wcet, succ = task.wcet_int, task.succ
    n = unfinished = len(wcet)
    waiting = [len(p) for p in task.pred]   # unfinished predecessors
    ready = [v for v in range(n) if not waiting[v]]     # ascending id
    unit = scale        # an unstarted vertex's work is wcet[v] * unit
    left = {}           # started, unfinished vertex -> remaining work
    where = {}          # vertex -> processor index it last ran on
    events, intervals = [], []
    t = 0

    while unfinished:
        assert ready, "deadlock in precedence graph"
        eligible = ready
        if order is not None:
            now = Fraction(t, den)
            eligible = list(order(now, ready[:]))
            try:
                ok = (len(eligible) == len(ready)
                      and set(eligible) == set(ready))
            except TypeError:   # an unhashable id
                ok = False
            if not ok:
                raise InvalidChoice(
                    f"order at t={now} returned {eligible}, not a "
                    f"permutation of the eligible vertices {ready}")

        # processor index -> vertex; without migration, pinned vertices
        # keep their processor and fresh ones take the free ones in order
        if migration:
            running = dict(enumerate(eligible[:len(speeds)]))
        else:
            running, fresh = {}, []
            for v in eligible:
                if v in where:
                    running[where[v]] = v
                else:
                    fresh.append(v)
            free = [i for i in range(len(speeds)) if i not in running]
            running.update(zip(free, fresh))

        # record starts and migrations, and find the earliest completion,
        # the least work / speed
        work = speed = None
        for idx, v in running.items():
            if v not in where:
                events.append((t, den, "start", v, idx))
                left[v] = wcet[v] * unit
            elif where[v] != idx:
                events.append((t, den, "migrate", v, where[v], idx))
            where[v] = idx
            if work is None or left[v] * speed < work * speeds[idx]:
                work, speed = left[v], speeds[idx]
        k = speed // math.gcd(work, speed)
        if k > 1:   # work / speed is not a whole tick: refine the tick
            den, t, work, unit = den * k, t * k, work * k, unit * k
            for v in left:
                left[v] *= k
        dt = work // speed
        assert dt > 0
        intervals.append((t, t + dt, den, running))
        t += dt
        for idx, v in running.items():
            left[v] -= dt * speeds[idx]
            if not left[v]:
                del left[v]
                unfinished -= 1
                events.append((t, den, "finish", v, idx))
                ready.remove(v)
                for w in succ[v]:
                    waiting[w] -= 1
                    if not waiting[w]:
                        bisect.insort(ready, w)

    return SimTrace(Fraction(t, den), 0, scale, events, intervals, [])


@dataclass(slots=True)
class _Container:
    index: int
    delta: int
    deadline: Optional[int] = None   # None when empty
    exe: Optional[object] = None


def simulate_dispatcher(task: DagTask, deltas: Sequence,
                        choice: Optional[Callable] = None) -> SimTrace:
    """Execute one DAG job through container tasks with load bounds
    ``deltas``.

    Whenever an eligible vertex and an empty container exist, the vertex is
    assigned to the empty container with the largest load bound with
    deadline t + c(v)/delta.  If a strictly faster occupied container would
    empty earlier, the vertex is split at that deadline and its remainder
    goes back to the head of the ready list.  Occupied containers empty
    exactly at their deadlines.  Raises ``InvalidSpeeds`` unless there is
    a load bound and all are positive, and ``InvalidChoice`` if
    ``choice`` names a vertex that is not eligible.
    """
    scale, deltas = scale_speeds(deltas)
    containers = [_Container(i, d) for i, d in enumerate(deltas)]
    by_speed = sorted(containers, key=lambda c: (-c.delta, c.index))
    busy = 0
    den = task.den
    wcet, succ = task.wcet_int, task.succ
    waiting = [len(p) for p in task.pred]   # unfinished predecessors
    # the ready list S holds the keys of the unassigned parts, the id or
    # (id, suffix) for split parts; ``eligible`` holds those whose
    # predecessors are done, and ``after`` maps each split head to its
    # remainder, which becomes eligible when the head ends
    s_list = list(range(len(wcet)))
    eligible = {v for v in s_list if not waiting[v]}
    after = {}
    unit = scale        # an unsplit vertex's work is wcet[v] * unit
    rest = {}           # remainder key -> its work
    events, assignments = [], []
    split_count = 0
    t = 0

    while s_list or busy:
        # vacate containers whose deadline is now
        for c in containers:
            if c.deadline == t:
                key = c.exe
                events.append((t, den, "finish", key, c.index))
                c.deadline = None
                c.exe = None
                busy -= 1
                if key in after:
                    eligible.add(after.pop(key))
                else:   # the vertex's last part
                    for w in succ[key if type(key) is int else key[0]]:
                        waiting[w] -= 1
                        if not waiting[w]:
                            eligible.add(w)

        while eligible and busy < len(containers):
            if choice is None:
                for i, v in enumerate(s_list):
                    if v in eligible:
                        break
            else:
                now = Fraction(t, den)
                ids = [key for key in s_list if key in eligible]
                v = choice(now, ids)
                if v not in ids:
                    raise InvalidChoice(
                        f"choice at t={now} named {v!r}, not one of the "
                        f"eligible vertices {ids}")
                i = s_list.index(v)
            v = s_list.pop(i)
            eligible.remove(v)
            c_v = rest.pop(v) if type(v) is tuple else wcet[v] * unit
            for phi in by_speed:    # the fastest empty container
                if phi.deadline is None:
                    break
            d_prime = None          # the first deadline of a faster one
            for c in by_speed:
                if c.delta <= phi.delta:
                    break
                if d_prime is None or c.deadline < d_prime:
                    d_prime = c.deadline
            if d_prime is None or (d_prime - t) * phi.delta >= c_v:
                k = phi.delta // math.gcd(c_v, phi.delta)
                if k > 1:   # as in simulate_uniform
                    den, t, c_v, unit = den * k, t * k, c_v * k, unit * k
                    for key in rest:
                        rest[key] *= k
                    for c in containers:
                        if c.deadline is not None:
                            c.deadline *= k
                phi.deadline = t + c_v // phi.delta
                phi.exe = v
            else:
                phi.deadline = d_prime
                head = (d_prime - t) * phi.delta
                orig, mark = (v, "") if type(v) is int else v
                v1, v2 = (orig, mark + "'"), (orig, mark + "''")
                phi.exe = v1
                # the remainder inherits v's role in the graph
                after[v1] = v2
                rest[v2] = c_v - head
                s_list.insert(0, v2)
                split_count += 1
                events.append((t, den, "split", v, head, c_v - head))
            busy += 1
            assignments.append((t, den, phi.index, phi.exe, phi.deadline))

        if not busy:
            assert not s_list, "stuck with unassigned vertices"
            break
        t = min([c.deadline for c in containers if c.deadline is not None])

    return SimTrace(Fraction(t, den), split_count, scale, events, [],
                    assignments)


@dataclass
class GedfReport:
    misses: list
    horizon: Fraction

    @property
    def ok(self):
        return not self.misses


def simulate_gedf(tasks: Sequence[DecomposedTask], m: int,
                  horizon) -> GedfReport:
    """Preemptive global EDF over the periodic subtask jobs of decomposed
    tasks, synchronous release, checked up to ``horizon``.

    The run is on integer time: each task's ints are rescaled once to
    ``den``, the LCM of the tasks' ``den`` and the horizon's denominator.
    Jobs are released lazily: a heap holds each subtask's next job, and
    releasing one pushes the next, so memory follows the subtask count
    and the live jobs, not the horizon.  A job is keyed (task position,
    subtask, k), so ties between tasks go by their place in ``tasks``,
    as in the plans, and task ids are never compared.  The ready jobs are
    kept in EDF order, by (deadline, key); the first m run, and the late
    ones, a prefix of that order, are reported in release order as
    ((task_id, subtask, k), deadline, remaining work), with the deadline
    and the work as Fractions.  Raises ``ValueError`` unless m is an int
    >= 1 and the horizon is a positive number."""
    check_m(m)
    try:
        horizon = as_fraction(horizon)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(
            f"horizon must be a number, got {horizon!r}") from None
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    den = math.lcm(horizon.denominator, *(dt.den for dt in tasks))
    end = horizon.numerator * (den // horizon.denominator)
    # each subtask's next job as (release, deadline, key, wcet, period),
    # and the horizon (end,), which sorts ahead of any job released later
    heap = [(end,)]
    for pos, dt in enumerate(tasks):
        x = den // dt.den
        heap += [(release * x, deadline * x, (pos, si, 0), wcet * x,
                  dt.period_int * x)
                 for si, (release, deadline, wcet) in enumerate(
                     zip(dt.releases, dt.deadlines, dt.wcets))]
    heapq.heapify(heap)

    misses = []
    ready = []  # [deadline, key, remaining, release], EDF order
    t = 0
    while t < end:
        while heap[0][0] <= t:
            release, deadline, (pos, si, k), wcet, period = heap[0]
            heapq.heapreplace(heap, (release + period, deadline + period,
                                     (pos, si, k + 1), wcet, period))
            bisect.insort(ready, [deadline, (pos, si, k), wcet, release])
        run = ready[:m]
        # next event: a completion, a release, or the horizon
        step = heap[0][0] - t
        for j in run:
            if j[2] < step:
                step = j[2]
        for j in run:
            j[2] -= step
        t += step
        ready[:m] = [j for j in run if j[2]]
        if ready and ready[0][0] <= t:
            late = bisect.bisect_right(ready, t, key=_DEADLINE)
            misses += sorted(ready[:late], key=_RELEASE_ORDER)
            del ready[:late]
    return GedfReport(misses=[((tasks[pos].task_id, si, k),
                               Fraction(deadline, den), Fraction(left, den))
                              for deadline, (pos, si, k), left, _ in misses],
                      horizon=horizon)
