"""Reference code that the tests compare the package against and that no
CLI path, registered test or simulator runs: an exact max-flow oracle for
the optimal Omega, the Fraction segments it cuts, the Fraction F-LI, SF1
and SF2 plans that the int plans must match, the Fraction forms of
``uunifast``, ``validate`` and ``decomposed_test``, the generator's structure
drawn through ``randint`` and ``shuffle``, the ``DagTask`` constructor
that copies every input pair, a single-DAG generator, the
speed and capacity bounds of a decomposed set, and readers of views and
records that only the tests take."""

from __future__ import annotations

import csv
import math
import operator
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from parasched.decomposition import (Segment, SegmentationResult,
                                     TimingDiagram, timing_diagram)
from parasched.errors import (CycleDetected, DeadlineExceedsPeriod,
                              MalformedTaskSet, NonPositiveWcet,
                              ParaschedError)
from parasched.experiment import ExperimentRecord
from parasched.gen import GenConfig, gen_period, gen_structure
from parasched.model import (DagTask, TaskMetrics, TaskSetSummary, Verdict,
                             as_fraction, scale_to_ints, validate)
from parasched.semifed import ContainerTask
from parasched.sim import SimTrace


class DegenerateWindow(ParaschedError):
    pass


class OracleTooLarge(ParaschedError):
    pass


class CriticalPathExceedsDeadline(ParaschedError):
    pass


# --- exact maximum flow ---------------------------------------------------
#
# Edmonds-Karp (BFS augmenting paths) over an adjacency-list residual graph.
# Capacities are Fractions, so the result is exact; intended for the
# segmentation optimality oracle and other desk-scale instances only.

INF = Fraction(1 << 62)


class FlowNetwork:
    def __init__(self):
        self.adj: dict[object, list[int]] = {}
        # edge i and its reverse i^1 are stored adjacently
        self.to: list[object] = []
        self.cap: list[Fraction] = []

    def add_node(self, node) -> None:
        self.adj.setdefault(node, [])

    def add_edge(self, u, v, capacity) -> None:
        self.add_node(u)
        self.add_node(v)
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(Fraction(capacity))
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(Fraction(0))

    def max_flow(self, source, sink) -> Fraction:
        total = Fraction(0)
        while True:
            # BFS for a shortest augmenting path
            parent_edge = {source: None}
            queue = deque([source])
            while queue and sink not in parent_edge:
                u = queue.popleft()
                for ei in self.adj[u]:
                    v = self.to[ei]
                    if v not in parent_edge and self.cap[ei] > 0:
                        parent_edge[v] = ei
                        queue.append(v)
            if sink not in parent_edge:
                return total
            # bottleneck along the path
            bottleneck = INF
            v = sink
            while parent_edge[v] is not None:
                ei = parent_edge[v]
                bottleneck = min(bottleneck, self.cap[ei])
                v = self.to[ei ^ 1]
            v = sink
            while parent_edge[v] is not None:
                ei = parent_edge[v]
                self.cap[ei] -= bottleneck
                self.cap[ei ^ 1] += bottleneck
                v = self.to[ei ^ 1]
            total += bottleneck


# --- segmentation optimality oracle ---------------------------------------

@dataclass(frozen=True)
class OracleResult:
    omega_opt: Fraction


def build_segments(task: DagTask, td: TimingDiagram) -> list:
    """Cut [0, L] at every distinct rdy/fsh value."""
    if task.cpl_int == 0:
        raise DegenerateWindow("critical path has zero length")
    points = [Fraction(t, task.den) for t in td.cuts]
    return [Segment(index=i, start=a, end=b)
            for i, (a, b) in enumerate(zip(points, points[1:]))]


def segmentation_oracle(task: DagTask, max_vertices: int = 12
                        ) -> OracleResult:
    """Optimal omega via exact rational max flow.

    source -> vertex (cap c(v)) -> segment (iff covered, cap inf) -> sink
    (cap e(s) * C/L).  The workload that cannot be routed is exactly the
    minimal overflow C_out, and omega_opt = 1 + C_out / C.
    """
    real = task.real_vertex_ids
    if len(real) > max_vertices:
        raise OracleTooLarge(
            f"{len(real)} vertices exceeds the oracle cap {max_vertices}")
    td = timing_diagram(task)
    segments = build_segments(task, td)
    work, cpl = task.metrics.work, task.metrics.critical_path

    los, his = td.windows
    net = FlowNetwork()
    for v in real:
        net.add_edge("src", ("v", v), task.wcets[v])
        for seg in segments[los[v]:his[v]]:
            net.add_edge(("v", v), ("s", seg.index), work + 1)
    for seg in segments:
        net.add_edge(("s", seg.index), "snk", seg.e * work / cpl)

    c_out = work - net.max_flow("src", "snk")
    return OracleResult(omega_opt=1 + c_out / work)


# --- the Fraction plans of F-LI, SF1 and SF2 -----------------------------
#
# The plans as they were before they decided on ints over one denominator:
# each load and split bound a Fraction, each bin keeping Fraction running
# sums.  The package's int plans must give equal verdicts, detail included.

def capacity_requirement(work, critical_path, deadline) -> Fraction:
    """Minimal capacity requirement (C - L) / (D - L)."""
    work, critical_path, deadline = (
        Fraction(work), Fraction(critical_path), Fraction(deadline))
    if critical_path >= deadline:
        raise CriticalPathExceedsDeadline(
            f"critical path {critical_path} >= deadline {deadline}")
    return (work - critical_path) / (deadline - critical_path)


def gamma(metrics: TaskMetrics) -> Fraction:
    """Minimal capacity requirement of a task, from its metrics."""
    return capacity_requirement(metrics.work, metrics.critical_path,
                                metrics.work / metrics.density)


def delta_star(g: Fraction) -> Fraction:
    """Minimal load bound of the larger part when a fractional container of
    a task with requirement g is divided in two:
    max(frac(g)/2, frac(g)/g)."""
    g = Fraction(g)
    frac = g - math.floor(g)
    return max(frac / 2, frac / g)


def item_id(item):
    """The packing order's tie-break: (str(owner), label)."""
    return (str(item.owner), item.label)


class Bin:
    """A processor: its items and the running sums of their load and delta*."""

    def __init__(self, index: int):
        self.index = index
        self.items: list = []
        self.load = Fraction(0)
        self.dstar_sum = Fraction(0)

    def add(self, item) -> None:
        self.items.append(item)
        self.load += item.load
        self.dstar_sum += item.split_bound


def worst_fit_into(items: Sequence, bins: list) -> bool:
    """Place items (already ordered) on the least-loaded bin, ties by
    index, as no bin with a higher load fits an item that this one cannot.
    Mutates ``bins``; False at the first item that fits on no bin."""
    for item in items:
        best = min(bins, key=lambda b: (b.load, b.index), default=None)
        if best is None or best.load + item.load > 1:
            return False
        best.add(item)
    return True


def worst_fit_partition(items: Sequence, n_bins: int) -> Optional[list]:
    """Worst-fit decreasing: sort by load non-increasing (ties by item id),
    always pick the bin with the least load; None if an item fits on none."""
    bins = [Bin(i) for i in range(n_bins)]
    ordered = sorted(items, key=lambda i: (-i.load, str(item_id(i))))
    return bins if worst_fit_into(ordered, bins) else None


def classify(tasks, test: str):
    """The plan F-LI, SF1 and SF2 share: (dedicated counts floor(gamma) and
    fractional containers frac(gamma), split bound delta*(gamma), of the
    heavy tasks, and light containers C/D); or ``test``'s rejection naming
    a heavy task with L >= D.  A heavy task id repeated as a string raises
    MalformedTaskSet."""
    dedicated = {}
    fractional = []
    lights = []
    for task in tasks:
        met = task.metrics
        if not met.heavy:
            lights.append(ContainerTask(
                owner=task.id, load=met.density, split_bound=met.density,
                light=True, label="light"))
            continue
        if str(task.id) in map(str, dedicated):
            raise MalformedTaskSet(f"heavy task id {task.id!r} repeats")
        if met.critical_path >= task.deadline:
            return Verdict(test, False,
                           reason="critical path exceeds deadline",
                           detail={"task": task.id})
        g = gamma(met)
        dedicated[task.id] = math.floor(g)
        if g > dedicated[task.id]:
            fractional.append(ContainerTask(
                owner=task.id, load=g - dedicated[task.id],
                split_bound=delta_star(g), label="frac"))
    return dedicated, fractional, lights


def sf1(tasks, m: int) -> Verdict:
    plan = classify(tasks, "sf1")
    if isinstance(plan, Verdict):
        return plan
    dedicated, fractional, lights = plan
    used = sum(dedicated.values())
    if used > m:
        return Verdict("sf1", False, reason="insufficient dedicated")
    bins = worst_fit_partition(fractional + lights, m - used)
    if bins is None:
        return Verdict("sf1", False, reason="partition failure")
    return Verdict("sf1", True, detail={"dedicated": dedicated,
                                        "bins": [b.items for b in bins]})


def sf2(tasks, m: int) -> Verdict:
    plan = classify(tasks, "sf2")
    if isinstance(plan, Verdict):
        return plan
    dedicated, fractional, lights = plan
    used = sum(dedicated.values())
    if used > m:
        return Verdict("sf2", False, reason="insufficient dedicated")

    bins = [Bin(i) for i in range(m - used)]
    open_bins = list(bins)
    remainders = []

    items = sorted(fractional + lights,
                   key=lambda i: (-i.split_bound, str(item_id(i))))
    for item in items:
        best = min(open_bins, key=lambda b: (b.dstar_sum, b.index),
                   default=None)
        if best is None or best.dstar_sum + item.split_bound > 1:
            return Verdict("sf2", False, reason="sched* failure")
        best.add(item)
        if best.load > 1:
            open_bins.remove(best)
            remainders += scrape(best)

    ordered = sorted(remainders, key=lambda i: (-i.load, str(item_id(i))))
    if not worst_fit_into(ordered, open_bins):
        return Verdict("sf2", False, reason="remainder partition failure")

    return Verdict("sf2", True, detail={"dedicated": dedicated,
                                        "bins": [b.items for b in bins]})


def scrape(b: Bin) -> list:
    """Split containers on an overfull bin until its load is exactly 1.

    Every split keeps at least delta* on the bin; the excess containers are
    returned for replacement elsewhere; a light task (delta* = load) stays.
    """
    excess = b.load - 1
    assert excess > 0
    out = []
    for pos, item in enumerate(b.items):
        if item.load - item.split_bound > excess:
            kept, spill = item.load - excess, excess
        else:
            kept, spill = item.split_bound, item.load - item.split_bound
        if spill == 0:
            continue
        assert kept >= item.split_bound
        b.items[pos] = ContainerTask(
            owner=item.owner, load=kept, split_bound=item.split_bound,
            label=item.label + "'")
        b.load -= spill
        out.append(ContainerTask(
            owner=item.owner, load=spill, split_bound=spill,
            label=item.label + "''"))
        excess -= spill
        if excess == 0:
            break
    assert excess == 0 and b.load == 1, \
        "scrape could not reduce the bin to load 1"
    return out


def federated_allocate(tasks, m: int) -> Verdict:
    plan = classify(tasks, "federated")
    if isinstance(plan, Verdict):
        return plan
    dedicated, fractional, lights = plan
    for container in fractional:
        dedicated[container.owner] += 1
    used = sum(dedicated.values())
    detail = {"dedicated": dedicated}
    if used > m:
        return Verdict("federated", False,
                       reason=f"needs {used} dedicated processors",
                       detail=detail)
    min_m = used + fewest_bins(lights)
    bins = worst_fit_partition(lights, m - used)
    if bins is None:
        return Verdict("federated", False, min_m=min_m,
                       reason="light tasks do not fit", detail=detail)
    detail["bins"] = [b.items for b in bins]
    return Verdict("federated", True, min_m=min_m, detail=detail)


def fewest_bins(items) -> int:
    """Fewest processors that worst-fit packs the items onto; fewer than
    their summed load cannot hold them."""
    total = sum((i.load for i in items), Fraction(0))
    return next((k for k in range(max(1, math.ceil(total)), len(items) + 1)
                 if worst_fit_partition(items, k) is not None), len(items))


# --- the Fraction forms of a sweep trial's arithmetic ---------------------
#
# ``gen.uunifast``, ``model.validate`` and ``analysis.decomposed_test`` as
# they were before they decided on ints: each share, quantity and
# comparison a Fraction.  The int forms must give equal values of equal
# types, and equal verdicts.

def fraction_uunifast(total, n: int, rng: random.Random) -> list:
    """UUniFast with each share carried as a Fraction."""
    total = Fraction(total)
    parts = []
    remaining = total
    for i in range(n - 1, 0, -1):
        draw = Fraction(rng.random() ** (1.0 / i))
        nxt = remaining * draw
        parts.append(remaining - nxt)
        remaining = nxt
    parts.append(remaining)
    return parts


def fraction_validate(task: DagTask) -> TaskMetrics:
    """The metrics by Fraction arithmetic on C, L, T and D."""
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
        gamma=(capacity_requirement(work, critical_path, task.deadline)
               if critical_path < task.deadline else None),
    )


def fraction_decomposed_test(u_sum: Fraction, gamma_top: Fraction,
                             omega_top: Fraction, m: int) -> Verdict:
    """m >= (U_sum - Gamma_top) / (1/Omega_top - Gamma_top) in Fractions."""
    denom = 1 / omega_top - gamma_top
    if denom <= 0:
        return Verdict("decomposed", False, reason="degenerate denominator",
                       detail={"omega_gamma": omega_top * gamma_top})
    need = (u_sum - gamma_top) / denom
    min_m = max(1, math.ceil(need))
    return Verdict("decomposed", m >= need, min_m=min_m,
                   reason="" if m >= need else f"needs m >= {min_m}",
                   detail={"required": need})


# --- bounds and generators ------------------------------------------------

def capacity_bound(omega_top: Fraction, m: int) -> Fraction:
    """Capacity augmentation bound (2 - 1/m) * Omega_top."""
    return (2 - Fraction(1, m)) * Fraction(omega_top)


def speed_requirement(summary: TaskSetSummary, m: int) -> Fraction:
    """Minimal processor speed making a decomposed set schedulable:
    s >= Omega*U_sum/m + Omega*Gamma_top*(1 - 1/m)."""
    omega = summary.omega_top
    return (omega * summary.u_sum / m
            + omega * summary.gamma_top * (1 - Fraction(1, m)))


def randint_gen_structure(config: GenConfig, rng: random.Random, task_id):
    """``gen.gen_structure`` as written on ``randint`` and ``shuffle``: the
    draw stream the direct ``getrandbits`` form must reproduce."""
    n = rng.randint(*config.n_vertices)
    wcets = [rng.randint(*config.wcet_range) for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    draw, p = rng.random, config.p
    edges = [(u, order[b]) for a, u in enumerate(order)
             for b in range(a + 1, n) if draw() < p]
    return task_id, list(enumerate(wcets)), edges


class PairCopyDagTask(DagTask):
    """``DagTask`` built from a copy of every input pair: each vertex is
    re-created as (id, converted WCET) before the sort, and each edge as
    (u, v), the unpacking that rejects a non-pair, before the dedupe.  A
    deadline given without a period is dropped.  ``DagTask`` must build
    the same core and raise the same error type."""

    def __init__(self, task_id, vertices, edges, period=None, deadline=None):
        self.id = task_id
        self.period = self.deadline = None
        try:
            if period is not None:
                self.period = as_fraction(period)
                self.deadline = (self.period if deadline is None
                                 else as_fraction(deadline))
            vertices = sorted((vid, w if type(w) is int else as_fraction(w))
                              for vid, w in vertices)
            edges = list(dict.fromkeys((u, v) for u, v in edges))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise MalformedTaskSet(
                f"task {task_id}: bad vertex, edge or time ({exc})") from None
        if period is not None and min(self.period, self.deadline) <= 0:
            raise MalformedTaskSet(
                f"task {task_id}: period and deadline must be positive")
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
        self.edges = tuple(edges)
        self.succ, self.pred = succ, pred
        self.den, ints = scale_to_ints([w for _, w in vertices])
        for vid, wcet in vertices:
            if wcet <= 0:
                raise NonPositiveWcet(
                    f"task {task_id}: vertex {vid} has WCET {wcet}")
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
        self.work = Fraction(self.work_int, self.den)
        self.critical_path = Fraction(self.cpl_int, self.den)
        self.metrics = None if period is None else validate(self)


def gen_dag(config: GenConfig, rng: random.Random, task_id=0) -> DagTask:
    """A single DAG; the period comes from the gamma formula so that no
    utilization split is needed."""
    shape = gen_structure(config, rng, task_id)
    return shape.with_period(
        gen_period(shape.work, shape.critical_path, config, rng))


# --- readers of views and records that only the tests take ----------------

def source(task: DagTask) -> int:
    """The one vertex without predecessors."""
    (src,) = [v for v, p in enumerate(task.pred) if not p]
    return src


def sink(task: DagTask) -> int:
    """The one vertex without successors."""
    (snk,) = [v for v, s in enumerate(task.succ) if not s]
    return snk


def assignment(seg: SegmentationResult) -> dict:
    """Segment index -> {vertex id: portion of its WCET}, as Fractions: the
    segmentation's pieces, those of one vertex in one segment summed."""
    unit = seg.den * seg.cuts[-1]
    slots = [{} for _ in seg.load]
    for i, v, w in seg.pieces:
        slots[i][v] = slots[i].get(v, 0) + w
    return {i: {v: Fraction(w, unit) for v, w in slot.items()}
            for i, slot in enumerate(slots)}


def c_heavy(seg: SegmentationResult) -> Fraction:
    """The summed workload of the heavy segments."""
    return Fraction(seg.heavy, seg.den * seg.cuts[-1])


def l_light(seg: SegmentationResult) -> Fraction:
    """The summed length of the light segments."""
    return Fraction(seg.light, seg.den)


def migrations(trace: SimTrace) -> list:
    """The trace's "migrate" events."""
    return [e for e in trace.events if e[1] == "migrate"]


def parse_csv(fp) -> list:
    """Inverse of emit(..., fmt='csv'); buckets come back as strings."""
    reader = csv.DictReader(fp)
    return [ExperimentRecord(axis=row["axis"], bucket=row["bucket"],
                             method=row["method"],
                             accepted=int(row["accepted"]),
                             total=int(row["total"]),
                             seed=int(row["seed"]))
            for row in reader]
