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
time and remaining work are multiplied by sigma / gcd(work, sigma).
Fractions are built for what is returned: the response time at once, the
trace lists on first read.
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
from .model import DagTask, scale_speeds


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
    unless there is a speed and all are positive.
    """
    scale, speeds = scale_speeds(speeds)
    speeds.sort(reverse=True)
    den = task.den
    remaining = {v: task.wcet_int[v] * scale      # unfinished, in id order
                 for v in task.real_vertex_ids}
    done = set(task.dummy_ids)
    where = {}          # vertex -> processor index it last ran on
    events, intervals = [], []
    t = 0

    while remaining:
        eligible = [v for v in remaining if done.issuperset(task.pred[v])]
        assert eligible, "deadlock in precedence graph"
        if order is not None:
            eligible = list(order(Fraction(t, den), eligible))

        # processor index -> vertex; without migration, pinned vertices
        # keep their processor and fresh ones take the free ones in order
        if migration:
            running = dict(enumerate(eligible[:len(speeds)]))
        else:
            running = {where[v]: v for v in eligible if v in where}
            free = [i for i in range(len(speeds)) if i not in running]
            running.update(zip(free, [v for v in eligible if v not in where]))

        for idx, v in running.items():
            if v in where and where[v] != idx:
                events.append((t, den, "migrate", v, where[v], idx))
            elif v not in where:
                events.append((t, den, "start", v, idx))
            where[v] = idx

        # advance to the earliest completion, the least work / speed
        work = speed = None
        for idx, v in running.items():
            if work is None or remaining[v] * speed < work * speeds[idx]:
                work, speed = remaining[v], speeds[idx]
        k = speed // math.gcd(work, speed)
        if k > 1:   # work / speed is not a whole tick: refine the tick
            den, t, work = den * k, t * k, work * k
            for v in remaining:
                remaining[v] *= k
        dt = work // speed
        assert dt > 0
        intervals.append((t, t + dt, den, dict(running)))
        t += dt
        for idx, v in running.items():
            remaining[v] -= dt * speeds[idx]
            if remaining[v] == 0:
                del remaining[v]
                done.add(v)
                events.append((t, den, "finish", v, idx))

    return SimTrace(Fraction(t, den), 0, scale, events, intervals, [])


@dataclass
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
    a load bound and all are positive.
    """
    scale, deltas = scale_speeds([getattr(d, "load", d) for d in deltas])
    containers = [_Container(i, d) for i, d in enumerate(deltas)]
    den = task.den
    vids = task.real_vertex_ids
    # ready list S: [key, remaining work]; vertex keys are the id or
    # (id, suffix) for split parts
    s_list = [[v, task.wcet_int[v] * scale] for v in vids]
    pred_of = {v: set(task.pred[v]) for v in vids}
    done = set(task.dummy_ids)
    events, assignments = [], []
    split_count = 0
    t = 0

    def eligible():
        return [entry for entry in s_list if pred_of[entry[0]] <= done]

    while s_list or any(c.exe is not None for c in containers):
        # vacate containers whose deadline is now
        for c in containers:
            if c.deadline is not None and c.deadline == t:
                done.add(c.exe)
                events.append((t, den, "finish", c.exe, c.index))
                c.deadline = None
                c.exe = None

        while True:
            empty = [c for c in containers if c.deadline is None]
            elig = eligible()
            if not empty or not elig:
                break
            if choice is not None:
                key = choice(Fraction(t, den), [e[0] for e in elig])
                entry = next(e for e in elig if e[0] == key)
            else:
                entry = elig[0]
            s_list.remove(entry)
            v, c_v = entry
            phi = max(empty, key=lambda c: (c.delta, -c.index))
            faster = [c.deadline for c in containers
                      if c.deadline is not None and c.delta > phi.delta]
            d_prime = min(faster) if faster else None
            if d_prime is None or (d_prime - t) * phi.delta >= c_v:
                k = phi.delta // math.gcd(c_v, phi.delta)
                if k > 1:   # as in simulate_uniform
                    den, t, c_v = den * k, t * k, c_v * k
                    for waiting in s_list:
                        waiting[1] *= k
                    for c in containers:
                        if c.deadline is not None:
                            c.deadline *= k
                phi.deadline = t + c_v // phi.delta
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
                s_list.insert(0, [v2, c_v - head])
                split_count += 1
                events.append((t, den, "split", v, head, c_v - head))
            assignments.append((t, den, phi.index, phi.exe, phi.deadline))

        future = [c.deadline for c in containers if c.deadline is not None]
        if not future:
            assert not s_list, "stuck with unassigned vertices"
            break
        t = min(future)

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
    and the work as Fractions."""
    horizon = Fraction(horizon)
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
        step = min([j[2] for j in run] + [heap[0][0] - t])
        for j in run:
            j[2] -= step
        t += step
        ready[:m] = [j for j in run if j[2]]
        late = bisect.bisect_right(ready, t, key=itemgetter(0))
        misses += sorted(ready[:late], key=itemgetter(3, 0, 1))
        del ready[:late]
    return GedfReport(misses=[((tasks[pos].task_id, si, k),
                               Fraction(deadline, den), Fraction(left, den))
                              for deadline, (pos, si, k), left, _ in misses],
                      horizon=horizon)
