"""DAG task model: representation, validation and basic metrics.

A task is a directed acyclic graph of WCET-labelled vertices with a period
and a relative deadline.  Multi-source / multi-sink graphs are augmented
with zero-WCET dummy head/tail vertices on construction, so every task has
exactly one source and one sink.  All quantities on the analysis path are
exact ``fractions.Fraction`` values.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    CycleDetected,
    DeadlineExceedsPeriod,
    EmptyTaskSet,
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
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def format_rational(value: Fraction):
    """JSON-friendly form: plain int when integral, "num/den" otherwise."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


class DagTask:
    """Immutable DAG task.

    Vertex ids must be dense integers 0..n-1.  If the graph has several
    sources (or sinks), a dummy vertex with WCET 0 is appended; dummy ids
    are listed in ``dummy_ids``.
    """

    def __init__(self, task_id, vertices, edges, period, deadline):
        self.id = task_id
        self.period = as_fraction(period)
        self.deadline = as_fraction(deadline)

        wcets = {}
        for vid, wcet in vertices:
            if vid in wcets:
                raise ValueError(f"duplicate vertex id {vid}")
            wcets[vid] = as_fraction(wcet)
        n = len(wcets)
        if n == 0:
            raise ValueError("task must have at least one vertex")
        if set(wcets) != set(range(n)):
            raise ValueError("vertex ids must be dense integers 0..n-1")

        edge_set = []
        seen = set()
        for u, v in edges:
            if u not in wcets or v not in wcets:
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            if u == v:
                raise CycleDetected(f"self loop on vertex {u}")
            if (u, v) not in seen:
                seen.add((u, v))
                edge_set.append((u, v))

        succ = {vid: [] for vid in wcets}
        pred = {vid: [] for vid in wcets}
        for u, v in edge_set:
            succ[u].append(v)
            pred[v].append(u)

        sources = [v for v in sorted(wcets) if not pred[v]]
        sinks = [v for v in sorted(wcets) if not succ[v]]
        dummy_ids = set()
        if len(sources) > 1:
            head = n
            wcets[head] = Fraction(0)
            succ[head] = list(sources)
            pred[head] = []
            for s in sources:
                pred[s].append(head)
                edge_set.append((head, s))
            dummy_ids.add(head)
            n += 1
        if len(sinks) > 1:
            tail = n
            wcets[tail] = Fraction(0)
            pred[tail] = list(sinks)
            succ[tail] = []
            for s in sinks:
                succ[s].append(tail)
                edge_set.append((s, tail))
            dummy_ids.add(tail)
            n += 1

        self.wcets = dict(wcets)
        self.edges = tuple(edge_set)
        self.succ = {v: tuple(sorted(u)) for v, u in succ.items()}
        self.pred = {v: tuple(sorted(u)) for v, u in pred.items()}
        self.dummy_ids = frozenset(dummy_ids)

    @property
    def vertex_ids(self):
        return sorted(self.wcets)

    @property
    def real_vertex_ids(self):
        return [v for v in sorted(self.wcets) if v not in self.dummy_ids]

    def wcet(self, vid) -> Fraction:
        return self.wcets[vid]

    def source(self):
        (src,) = [v for v in self.wcets if not self.pred[v]]
        return src

    def sink(self):
        (snk,) = [v for v in self.wcets if not self.succ[v]]
        return snk

    def topological_order(self):
        """Kahn's algorithm; raises CycleDetected if the graph has a cycle."""
        indeg = {v: len(self.pred[v]) for v in self.wcets}
        queue = deque(sorted(v for v, d in indeg.items() if d == 0))
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in self.succ[v]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    queue.append(u)
        if len(order) != len(self.wcets):
            raise CycleDetected(f"task {self.id} contains a cycle")
        return order


@dataclass(frozen=True)
class TaskMetrics:
    work: Fraction          # C, dummies excluded
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
    """Check the task invariants and compute C, L, U, density, elasticity.

    C sums real vertices only; L is the longest path, computed in
    topological order (dummies carry zero WCET so they never change it).
    """
    for vid, wcet in task.wcets.items():
        if vid not in task.dummy_ids and wcet <= 0:
            raise NonPositiveWcet(f"vertex {vid} has WCET {wcet}")
    if task.deadline > task.period:
        raise DeadlineExceedsPeriod(
            f"task {task.id}: D={task.deadline} > T={task.period}")

    order = task.topological_order()
    work = sum((task.wcets[v] for v in task.real_vertex_ids), Fraction(0))

    finish = {}
    for v in order:
        start = max((finish[u] for u in task.pred[v]), default=Fraction(0))
        finish[v] = start + task.wcets[v]
    critical_path = max(finish.values())

    density = work / task.deadline
    return TaskMetrics(
        work=work,
        critical_path=critical_path,
        utilization=work / task.period,
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

    omegas / loads / max_densities come from the decomposition pipeline and
    are optional; when absent the corresponding summary fields stay None.
    """
    if not tasks:
        raise EmptyTaskSet("cannot summarize an empty task set")
    if metrics is None:
        metrics = [validate(t) for t in tasks]
    summary = TaskSetSummary(
        u_sum=sum((m.utilization for m in metrics), Fraction(0)),
        gamma_top=max(m.elasticity for m in metrics),
        omega_top=max(omegas) if omegas else None,
        delta_top=max(max_densities) if max_densities else None,
        ell_sum=sum(loads, Fraction(0)) if loads else None,
    )
    return summary


# --- task-set JSON schema -------------------------------------------------
#
# { "tasks": [ { "id", "period", "deadline",
#                "vertices": [{"id", "wcet"}, ...],
#                "edges": [[pred, succ], ...] } ] }
#
# Rational values are serialized as "num/den" strings (or plain numbers).

def task_to_dict(task: DagTask) -> dict:
    return {
        "id": task.id,
        "period": format_rational(task.period),
        "deadline": format_rational(task.deadline),
        "vertices": [{"id": v, "wcet": format_rational(task.wcets[v])}
                     for v in task.real_vertex_ids],
        "edges": [[u, v] for u, v in task.edges
                  if u not in task.dummy_ids and v not in task.dummy_ids],
    }


def task_from_dict(data: dict, index: int = 0) -> DagTask:
    """Build a task from its JSON form; ``index`` is its place in the set.

    Raises ``MalformedTaskSet`` naming the task index and the missing field.
    """
    try:
        fields = dict(
            task_id=data["id"],
            vertices=[(v["id"], as_fraction(v["wcet"]))
                      for v in data["vertices"]],
            edges=[tuple(e) for e in data["edges"]],
            period=as_fraction(data["period"]),
            deadline=as_fraction(data["deadline"]),
        )
    except KeyError as exc:
        raise MalformedTaskSet(
            f"task {index}: missing field {exc.args[0]!r}") from None
    return DagTask(**fields)


def dump_taskset(tasks: Iterable[DagTask], fp) -> None:
    json.dump({"tasks": [task_to_dict(t) for t in tasks]}, fp, indent=2)


def load_taskset(fp) -> list[DagTask]:
    # parse_float keeps decimal literals exact (0.3 -> 3/10)
    data = json.load(fp, parse_float=lambda s: Fraction(s))
    if "tasks" not in data:
        raise MalformedTaskSet("task set: missing field 'tasks'")
    return [task_from_dict(t, i) for i, t in enumerate(data["tasks"])]
