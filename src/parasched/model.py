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


def check_m(value, name: str = "m") -> None:
    """Raise ``ValueError`` unless the count ``name``, by default the
    processor count m, is an int >= 1; a bool or a float is not."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def check_timed(task) -> None:
    """Raise ``MalformedTaskSet`` for a shape, which has no period."""
    if task.period is None:
        raise MalformedTaskSet(f"task {task.id}: no period")


def scale_to_ints(values) -> tuple[int, list]:
    """``den``, the LCM of the denominators of ``values`` (ints or
    Fractions), and each value times ``den`` as an int."""
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
    Construction checks the caller's structure once (``MalformedTaskSet``,
    ``CycleDetected``), finds the ready times in the walk of Kahn's
    algorithm, and keeps a period-free integer core that ``with_period``
    shares; a shape the generator draws is built from its own draw order,
    with no structure check, by ``_drawn_shape``.  Both set the core in
    ``_set_core``, which raises ``NonPositiveWcet`` for a WCET <= 0, so
    every vertex of every task has a positive WCET.  The core: ``den``, the
    LCM of the WCET denominators; the WCETs (``wcet_int``), earliest ready
    times (``rdy_int``), C (``work_int``) and L (``cpl_int``), all times
    ``den``; and C and L as Fractions, ``work`` and ``critical_path``.  Int
    WCETs are read as they are, with no Fraction per input; ``wcets``, each
    vertex's WCET as a Fraction, is built on first read, once per shape:
    ``with_period`` copies the shape's attributes, so a timed copy inherits
    what the shape has built.  ``succ``/``pred`` describe the graph of
    ``edges``, the input edges without repeats: a tuple edge is kept as the
    object given, and a list or other pair is converted to a tuple once.
    The vertex pairs are sorted by id as given, and only their WCETs are
    converted.
    """

    def __init__(self, task_id, vertices, edges):
        try:
            vertices = sorted(vertices, key=operator.itemgetter(0))
            wcets = [w if type(w) is int else as_fraction(w)
                     for _, w in vertices]
            edges = tuple(dict.fromkeys(map(tuple, edges)))
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
        den, ints = scale_to_ints(wcets)
        # Kahn's algorithm: a topological order, or a cycle; a vertex's
        # ready time is final when reached, so its finish time is pushed on
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
        self._set_core(task_id, wcets, edges, succ, pred, den, ints, rdy)

    def _set_core(self, task_id, wcets, edges, succ, pred, den, ints, rdy):
        """Set a shape's attributes: the id, no timing, and the integer core
        of the DAG with these WCETs (ints or Fractions), edge tuple,
        ``succ``/``pred`` lists, WCETs times ``den`` (``ints``) and ready
        times (``rdy``).  Raises ``NonPositiveWcet`` naming the first vertex
        whose WCET is not positive."""
        if min(ints) <= 0:
            vid = next(v for v, w in enumerate(ints) if w <= 0)
            raise NonPositiveWcet(
                f"task {task_id}: vertex {vid} has WCET {wcets[vid]}")
        self.id = task_id
        self.period = self.deadline = self.metrics = None
        self.edges, self.succ, self.pred = edges, succ, pred
        self.den, self.wcet_int, self.rdy_int = den, ints, rdy
        self.work_int = work = sum(ints)
        self.cpl_int = cpl = max(map(operator.add, rdy, ints))
        self.work, self.critical_path = Fraction(work, den), Fraction(cpl, den)

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

    @property
    def real_vertex_ids(self):
        return list(range(len(self.wcet_int)))


def _drawn_shape(task_id, wcets: list, edges: list) -> DagTask:
    """The shape ``gen.gen_structure`` drew: ``wcets`` are the n vertices'
    int WCETs, ``edges`` distinct (u, v) pairs of ids in 0..n-1, a row per
    source u, in a topological order; so no dedupe, no id, type or range
    scan, and no Kahn pass.  A row's source is ready when its row starts,
    so the walk that fills ``succ``/``pred`` pushes its finish time, found
    once per row, on to the row.  ``_set_core`` checks the WCETs."""
    n = len(wcets)
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    rdy = [0] * n
    row = None
    for u, v in edges:
        if u != row:
            row, finish = u, rdy[u] + wcets[u]
        succ[u].append(v)
        pred[v].append(u)
        if rdy[v] < finish:
            rdy[v] = finish
    task = object.__new__(DagTask)
    task._set_core(task_id, wcets, tuple(edges), succ, pred, 1, wcets, rdy)
    return task


@dataclass(frozen=True)
class TaskMetrics:
    """A timed task's quantities, computed once, by ``validate``."""
    work: Fraction          # C
    critical_path: Fraction  # L
    utilization: Fraction   # U = C / T
    density: Fraction       # C / D
    elasticity: Fraction    # L / T
    heavy: bool             # density > 1
    gamma: Optional[Fraction]  # (C - L) / (D - L); None when L >= D


@dataclass(frozen=True)
class TaskSetSummary:
    """``summarize``'s aggregates.  ``gamma_top`` is Gamma_top = max L_i/T_i,
    not ``TaskMetrics.gamma`` = (C-L)/(D-L); the decomposition's three
    stay None unless ``summarize`` is given them."""
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
    """Check the task's timing (its WCETs were checked when its DAG was
    built) and read C, L, U, density, elasticity and gamma off its integer
    core.  With T = p/q and D = a/b, D > T and density > 1 are int
    compares, and U, C/D, L/T and gamma = (work_int - cpl_int)*b /
    (a*den - cpl_int*b), None when L >= D, are each built from one int
    pair; a D equal to T shares U as its density."""
    check_timed(task)
    den, work_int, cpl = task.den, task.work_int, task.cpl_int
    (p, q), (a, b) = (task.period.as_integer_ratio(),
                      task.deadline.as_integer_ratio())
    if task.deadline is not task.period and a * q > p * b:
        raise DeadlineExceedsPeriod(
            f"task {task.id}: D={task.deadline} > T={task.period}")
    utilization = Fraction(work_int * q, den * p)
    gap = a * den - cpl * b                  # (D - L)*b*den
    return TaskMetrics(
        work=task.work,
        critical_path=task.critical_path,
        utilization=utilization,
        density=(utilization if a == p and b == q
                 else Fraction(work_int * b, den * a)),
        elasticity=Fraction(cpl * q, den * p),
        heavy=work_int * b > den * a,
        gamma=Fraction((work_int - cpl) * b, gap) if gap > 0 else None,
    )


def _largest(values):
    """The first largest of these numbers, by int cross-multiplication."""
    best, *rest = values
    num, den = best.as_integer_ratio()
    for x in rest:
        n, d = x.as_integer_ratio()
        if n * den > num * d:
            best, num, den = x, n, d
    return best


def summarize(tasks: Sequence[DagTask],
              metrics: Optional[Sequence[TaskMetrics]] = None,
              omegas: Optional[Sequence[Fraction]] = None,
              loads: Optional[Sequence[Fraction]] = None,
              max_densities: Optional[Sequence[Fraction]] = None,
              ) -> TaskSetSummary:
    """Aggregate per-task results into the task-set level quantities.

    ``metrics`` defaults to each task's own.  omegas / loads /
    max_densities come from the decomposition pipeline and are optional;
    when absent the corresponding summary fields stay None.  The maxima
    are taken by int cross-multiplication.
    """
    if not tasks:
        raise EmptyTaskSet("cannot summarize an empty task set")
    if metrics is None:
        for task in tasks:
            check_timed(task)
        metrics = [t.metrics for t in tasks]
    den, utils = scale_to_ints([m.utilization for m in metrics])
    return TaskSetSummary(
        u_sum=Fraction(sum(utils), den),
        gamma_top=_largest([m.elasticity for m in metrics]),
        omega_top=_largest(omegas) if omegas else None,
        delta_top=_largest(max_densities) if max_densities else None,
        ell_sum=sum(loads, Fraction(0)) if loads else None,
    )


class TaskSet(tuple):
    """One call's tasks, with ``summary`` (``summarize``'s U_sum and
    Gamma_top) and ``classification`` (``semifed._classify``) each built
    on first read.  ``run_methods`` and ``parasched analyze`` wrap a set
    once for the five tests; nothing is kept on the tasks or the module,
    so the cache goes with the view when the call returns."""

    @classmethod
    def of(cls, tasks, test: str = "") -> "TaskSet":
        """``tasks`` as a view, itself when it is one; given a ``test``,
        ``EmptyTaskSet`` in its name for no task."""
        view = tasks if isinstance(tasks, cls) else cls(tasks)
        if test and not view:
            raise EmptyTaskSet(f"{test}: cannot test an empty task set")
        return view

    @cached_property
    def summary(self) -> TaskSetSummary:
        return summarize(self)

    @cached_property
    def classification(self):
        from .semifed import _classify      # semifed imports this module
        return _classify(self)


# --- task-set JSON schema -------------------------------------------------
#
# { "tasks": [ { "id", "period", "deadline",
#                "vertices": [{"id", "wcet"}, ...],
#                "edges": [[pred, succ], ...] } ] }
#
# Rational values are serialized as "num/den" strings (or plain numbers).

def task_to_dict(task: DagTask) -> dict:
    check_timed(task)
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
    or the task id for a null period or deadline.
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
        raise MalformedTaskSet(f"task {task_id}: period or deadline is null")
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
