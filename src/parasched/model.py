"""DAG task model: representation, validation and basic metrics.

A task is a directed acyclic graph of WCET-labelled vertices with a period
and a relative deadline; a task may have several sources and sinks.  All
quantities on the analysis path are exact: each task keeps its structure
as integers scaled by the LCM of its WCET denominators, and results come
back as ``fractions.Fraction`` values.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    CycleDetected,
    DeadlineExceedsPeriod,
    EmptyTaskSet,
    InvalidSpeeds,
    MalformedTaskSet,
    NonPositiveWcet,
)


def as_fraction(value) -> Fraction:
    """Convert ints, decimal strings, "num/den" strings or floats to Fraction.

    Floats go through their repr so that e.g. 0.3 becomes 3/10, not the
    binary approximation.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def check_m(m) -> None:
    """Raise ``ValueError`` unless the processor count m is an int >= 1;
    a bool or a float is not."""
    if type(m) is not int:
        raise ValueError(f"m must be an int, got {m!r}")
    if m < 1:
        raise ValueError("m must be >= 1")


def scale_to_ints(values) -> tuple[int, list]:
    """``den``, the LCM of the denominators of ``values`` (ints or
    Fractions), and each value times ``den`` as an int."""
    if set(map(type, values)) == {int}:
        return 1, list(values)
    den = math.lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def scale_speeds(speeds) -> tuple[int, list]:
    """``scale_to_ints`` for processor speeds or load bounds, in the given
    order, read by ``as_fraction``; raises ``InvalidSpeeds`` unless there
    is at least one and every one is a positive number."""
    try:
        speeds = [as_fraction(s) for s in speeds]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidSpeeds(f"speeds must be numbers ({exc})") from None
    if not speeds or min(speeds) <= 0:
        raise InvalidSpeeds("speeds must be positive, and at least one; "
                            f"got [{', '.join(map(str, speeds))}]")
    return scale_to_ints(speeds)


def format_rational(value: Fraction):
    """JSON-friendly form: plain int when integral, "num/den" otherwise."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


class DagTask:
    """Immutable DAG task.

    Vertex ids must be dense integers 0..n-1, and a task may have several
    sources and sinks.  A built task is a shape, whose ``period``,
    ``deadline`` and ``metrics`` are None; ``with_period`` times it.
    Construction checks the structure once
    (``MalformedTaskSet``, ``CycleDetected``) and keeps a period-free
    integer core that ``with_period`` shares: ``den``, the LCM of the WCET
    denominators; the WCETs (``wcet_int``), earliest ready times
    (``rdy_int``), C (``work_int``) and L (``cpl_int``), all times ``den``.
    Int WCETs are read as they are, with no Fraction per input; ``wcets``
    (each vertex's WCET), ``work`` (C) and ``critical_path`` (L), the
    Fraction views, are built on first read, once per shape: ``with_period``
    copies the shape's attributes, so a timed copy inherits what the shape
    has built.  ``succ``/``pred`` describe the graph of ``edges``, the
    input edges without repeats: a tuple edge is kept as the object given,
    and a list or other pair is converted to a tuple once.  The vertex
    pairs are sorted by id as given, and only their WCETs are converted.
    """

    def __init__(self, task_id, vertices, edges):
        self.id = task_id
        self.period = self.deadline = self.metrics = None
        try:
            vertices = sorted(vertices, key=operator.itemgetter(0))
            wcets = [w if type(w) is int else as_fraction(w)
                     for _, w in vertices]
            self.edges = edges = tuple(dict.fromkeys(map(tuple, edges)))
            if not {*map(len, edges)} <= {2}:
                raise ValueError("an edge is not a pair")
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise MalformedTaskSet(
                f"task {task_id}: bad vertex, edge or time ({exc})") from None
        n = len(vertices)
        if not n or any(type(vid) is not int or vid != i
                        for i, (vid, _) in enumerate(vertices)):
            raise MalformedTaskSet(f"task {task_id}: vertex ids must be "
                                   "dense integers 0..n-1, n >= 1")
        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for u, v in edges:
            if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
                raise MalformedTaskSet(
                    f"task {task_id}: edge ({u}, {v}) references an unknown "
                    "vertex")
            if u == v:
                raise CycleDetected(f"task {task_id}: self loop on vertex {u}")
            succ[u].append(v)
            pred[v].append(u)
        self.succ, self.pred = succ, pred
        self.den, ints = scale_to_ints(wcets)
        # Kahn's algorithm, pushing each finish time on to the successors
        indeg = [len(p) for p in pred]
        order = [v for v, d in enumerate(indeg) if not d]
        rdy = [0] * n
        for v in order:
            finish = rdy[v] + ints[v]
            for u in succ[v]:
                if rdy[u] < finish:
                    rdy[u] = finish
                indeg[u] -= 1
                if not indeg[u]:
                    order.append(u)
        if len(order) != n:
            raise CycleDetected(f"task {task_id} contains a cycle")
        self.wcet_int, self.rdy_int = ints, rdy
        self.work_int = sum(ints)
        self.cpl_int = max(map(operator.add, rdy, ints))

    def with_period(self, period, deadline=None) -> "DagTask":
        """This DAG, sharing its integer core, with period T, deadline D (T
        when not given) and ``validate``'s result as ``metrics``.  A T or D
        that is not a positive number raises ``MalformedTaskSet``."""
        try:
            period = as_fraction(period)
            deadline = period if deadline is None else as_fraction(deadline)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise MalformedTaskSet(
                f"task {self.id}: bad period or deadline ({exc})") from None
        if period.numerator <= 0 or deadline.numerator <= 0:
            raise MalformedTaskSet(
                f"task {self.id}: period and deadline must be positive")
        task = object.__new__(type(self))
        task.__dict__.update(self.__dict__)
        task.period, task.deadline = period, deadline
        task.metrics = validate(task)
        return task

    @cached_property
    def wcets(self) -> dict:
        """Each vertex's WCET as a Fraction."""
        return {v: Fraction(w, self.den) for v, w in enumerate(self.wcet_int)}

    @cached_property
    def work(self) -> Fraction:
        """C, the summed WCET of the vertices."""
        return Fraction(self.work_int, self.den)

    @cached_property
    def critical_path(self) -> Fraction:
        """L, the summed WCET of the longest path."""
        return Fraction(self.cpl_int, self.den)

    @property
    def real_vertex_ids(self):
        return list(range(len(self.wcet_int)))


@dataclass(frozen=True)
class TaskMetrics:
    work: Fraction          # C
    critical_path: Fraction  # L
    utilization: Fraction   # U = C / T
    density: Fraction       # C / D
    elasticity: Fraction    # L / T
    heavy: bool             # density > 1


@dataclass(frozen=True)
class TaskSetSummary:
    u_sum: Fraction
    gamma_top: Fraction
    omega_top: Optional[Fraction] = None
    delta_top: Optional[Fraction] = None
    ell_sum: Optional[Fraction] = None


@dataclass
class Verdict:
    """One schedulability test's answer on one task set: why it rejects
    (``reason``), the fewest processors it needs when it can say, and
    test-specific quantities such as a container plan (``detail``)."""
    test: str
    schedulable: bool
    min_m: Optional[int] = None
    reason: str = ""
    detail: dict = field(default_factory=dict)


def validate(task: DagTask) -> TaskMetrics:
    """Check the task's timing invariants and read C, L, U, density and
    elasticity off its integer core."""
    if task.period is None:
        raise MalformedTaskSet(f"task {task.id}: no period")
    if min(task.wcet_int) <= 0:
        vid = next(v for v, w in enumerate(task.wcet_int) if w <= 0)
        raise NonPositiveWcet(
            f"task {task.id}: vertex {vid} has WCET {task.wcets[vid]}")
    if task.deadline > task.period:
        raise DeadlineExceedsPeriod(
            f"task {task.id}: D={task.deadline} > T={task.period}")
    work, critical_path = task.work, task.critical_path
    utilization = work / task.period
    density = (utilization if task.deadline == task.period
               else work / task.deadline)
    return TaskMetrics(
        work=work,
        critical_path=critical_path,
        utilization=utilization,
        density=density,
        elasticity=critical_path / task.period,
        heavy=density > 1,
    )


def summarize(tasks: Sequence[DagTask],
              metrics: Optional[Sequence[TaskMetrics]] = None,
              omegas: Optional[Sequence[Fraction]] = None,
              loads: Optional[Sequence[Fraction]] = None,
              max_densities: Optional[Sequence[Fraction]] = None,
              ) -> TaskSetSummary:
    """Aggregate per-task results into the task-set level quantities.

    ``metrics`` defaults to each task's own.  omegas / loads /
    max_densities come from the decomposition pipeline and are optional;
    when absent the corresponding summary fields stay None.
    """
    if not tasks:
        raise EmptyTaskSet("cannot summarize an empty task set")
    if metrics is None:
        metrics = [t.metrics for t in tasks]
    return TaskSetSummary(
        u_sum=sum((m.utilization for m in metrics), Fraction(0)),
        gamma_top=max(m.elasticity for m in metrics),
        omega_top=max(omegas) if omegas else None,
        delta_top=max(max_densities) if max_densities else None,
        ell_sum=sum(loads, Fraction(0)) if loads else None,
    )


# --- task-set JSON schema -------------------------------------------------
#
# { "tasks": [ { "id", "period", "deadline",
#                "vertices": [{"id", "wcet"}, ...],
#                "edges": [[pred, succ], ...] } ] }
#
# Rational values are serialized as "num/den" strings (or plain numbers).

def task_to_dict(task: DagTask) -> dict:
    if task.period is None:
        raise MalformedTaskSet(f"task {task.id}: no period")
    return {
        "id": task.id,
        "period": format_rational(task.period),
        "deadline": format_rational(task.deadline),
        "vertices": [{"id": v, "wcet": format_rational(task.wcets[v])}
                     for v in task.real_vertex_ids],
        "edges": [[u, v] for u, v in task.edges],
    }


def task_from_dict(data: dict, index: int = 0) -> DagTask:
    """Build a task from its JSON form; ``index`` is its place in the set.

    Raises ``MalformedTaskSet`` naming the task index and the missing field,
    or a null period or deadline.
    """
    if not isinstance(data, dict):
        raise MalformedTaskSet(f"task {index}: not a JSON object")
    try:
        task_id, vertices, edges, period, deadline = (
            data["id"], [(v["id"], v["wcet"]) for v in data["vertices"]],
            data["edges"], data["period"], data["deadline"])
    except KeyError as exc:
        raise MalformedTaskSet(
            f"task {index}: missing field {exc.args[0]!r}") from None
    except TypeError:
        raise MalformedTaskSet(
            f"task {index}: 'vertices' is not a list of objects") from None
    if None in (period, deadline):
        raise MalformedTaskSet(f"task {index}: period or deadline is null")
    return DagTask(task_id, vertices, edges).with_period(period, deadline)


def dump_taskset(tasks: Iterable[DagTask], fp) -> None:
    json.dump({"tasks": [task_to_dict(t) for t in tasks]}, fp, indent=2)


def load_taskset(fp) -> list[DagTask]:
    """Read a task set in the schema above, with distinct int or string task
    ids; raises ``MalformedTaskSet`` for a file not JSON of that form."""
    try:
        # parse_float keeps decimal literals exact (0.3 -> 3/10)
        data = json.load(fp, parse_float=lambda s: Fraction(s))
    except ValueError as exc:       # JSONDecodeError, UnicodeDecodeError
        raise MalformedTaskSet(f"task set: not JSON ({exc})") from None
    if not isinstance(data, dict):
        raise MalformedTaskSet("task set: not a JSON object")
    if "tasks" not in data:
        raise MalformedTaskSet("task set: missing field 'tasks'")
    if not isinstance(data["tasks"], list):
        raise MalformedTaskSet("task set: 'tasks' is not a list")
    if not data["tasks"]:
        raise EmptyTaskSet("task set: no tasks")
    tasks = [task_from_dict(t, i) for i, t in enumerate(data["tasks"])]
    first = {}                      # verdicts key tasks by str(id)
    for i, task in enumerate(tasks):
        if type(task.id) not in (int, str):
            raise MalformedTaskSet(f"task {i}: id is not an int or a string")
        if first.setdefault(str(task.id), i) != i:
            raise MalformedTaskSet(f"task {i}: id {task.id!r} repeats")
    return tasks
