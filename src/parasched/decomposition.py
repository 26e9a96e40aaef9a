"""Decomposition of a DAG task into sporadic subtasks.

Pipeline: timing diagram -> segments -> three-phase workload segmentation
-> laxity distribution -> vertex reassembly -> demand-bound load.  The
segmentation minimizes the structure characteristic value

    omega = C_heavy / C  +  L_light / L

which drives all downstream bounds.  ``segmentation_oracle`` recomputes the
optimum independently as a bipartite max-flow (transportation) problem and
is used to cross-check the greedy algorithm on small instances.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

from .errors import ConstrainedDeadline, DegenerateWindow, OracleTooLarge
from .flow import FlowNetwork
from .model import DagTask, TaskMetrics, validate


@dataclass(frozen=True)
class TimingDiagram:
    rdy: dict    # vertex -> earliest ready time
    fsh: dict    # vertex -> latest finish time
    critical_path: Fraction


@dataclass
class Segment:
    index: int
    start: Fraction
    end: Fraction
    c: Fraction = Fraction(0)        # assigned workload
    d: Optional[Fraction] = None     # stretched length, set by laxity step

    @property
    def e(self) -> Fraction:
        return self.end - self.start


@dataclass
class SegmentationResult:
    segments: list
    assignment: dict                 # segment index -> {vertex id: portion}
    split_count: int
    work: Fraction                   # C
    critical_path: Fraction          # L
    c_heavy: Fraction
    l_light: Fraction
    omega: Fraction

    def is_heavy(self, seg: Segment) -> bool:
        return seg.c * self.critical_path > self.work * seg.e


@dataclass(frozen=True)
class Subtask:
    origin: int
    release: Fraction
    deadline: Fraction
    wcet: Fraction


@dataclass(frozen=True)
class DecomposedTask:
    task_id: object
    period: Fraction
    subtasks: tuple


@dataclass(frozen=True)
class OracleResult:
    max_assignable: Fraction
    c_out: Fraction
    omega_opt: Fraction


def timing_diagram(task: DagTask, metrics: Optional[TaskMetrics] = None
                   ) -> TimingDiagram:
    """Earliest ready / latest finish times on the [0, L] axis.

    rdy(v) = max over predecessors of rdy(u) + c(u), 0 for the source;
    fsh(v) = min over successors of rdy(u), L for the sink.
    """
    if metrics is None:
        metrics = validate(task)
    order = task.topological_order()
    rdy = {}
    for v in order:
        rdy[v] = max((rdy[u] + task.wcets[u] for u in task.pred[v]),
                     default=Fraction(0))
    fsh = {}
    for v in reversed(order):
        fsh[v] = min((rdy[u] for u in task.succ[v]),
                     default=metrics.critical_path)
    return TimingDiagram(rdy=rdy, fsh=fsh, critical_path=metrics.critical_path)


def build_segments(td: TimingDiagram) -> list:
    """Cut [0, L] at every distinct rdy/fsh value."""
    if td.critical_path == 0:
        raise DegenerateWindow("critical path has zero length")
    boundaries = {Fraction(0), td.critical_path}
    boundaries.update(td.rdy.values())
    boundaries.update(td.fsh.values())
    points = sorted(boundaries)
    return [Segment(index=i, start=a, end=b)
            for i, (a, b) in enumerate(zip(points, points[1:]))]


def _scaled(x: Fraction, den: int) -> int:
    """x * den for a den that x's denominator divides."""
    return x.numerator * (den // x.denominator)


def _cover_ranges(task: DagTask, td: TimingDiagram, segments: list
                  ) -> tuple[int, list, dict]:
    """Integer time axis and the segments each real vertex covers.

    Returns ``den``, the LCM of the denominators of the segment boundaries
    and the WCETs; the boundaries times ``den`` as ints; and vertex ->
    (lo, hi) such that the vertex covers exactly ``segments[lo:hi]``.  The
    segments cut [0, L] at every rdy/fsh value, so a vertex window
    [rdy, fsh] is the contiguous run of segments between the boundary
    indices of rdy and fsh.
    """
    real = task.real_vertex_ids
    points = [s.start for s in segments]
    points.append(segments[-1].end)
    den = math.lcm(*(x.denominator for x in points),
                   *(task.wcets[v].denominator for v in real))
    ends = [_scaled(x, den) for x in points]
    index = {t: i for i, t in enumerate(ends)}
    ranges = {v: (index[_scaled(td.rdy[v], den)],
                  index[_scaled(td.fsh[v], den)]) for v in real}
    return den, ends, ranges


def segment_workload(task: DagTask, td: TimingDiagram, segments: list,
                     metrics: Optional[TaskMetrics] = None
                     ) -> SegmentationResult:
    """Three-phase workload assignment minimizing omega.

    Phase 1 places vertices whose lifetime window is a single segment.
    Phase 2 walks light segments in time order and fills them with covering
    vertices in earliest-fsh order, splitting a vertex exactly when the
    segment load would cross the C/L threshold.  Phase 3 spreads leftovers
    over their covered segments (earliest first, at most e(s) per segment).

    The phases run on ints: time is scaled by ``den``, the LCM of the
    denominators on the time axis and among the WCETs, and workload by
    ``den * L_int``.  The light test c*L <= C*e then reads w <= C_int*e_int
    and the phase-2 capacity (C*e - c*L)/L is C_int*e_int - w.  Workloads
    go back to ``Fraction`` only in the result.
    """
    if metrics is None:
        metrics = validate(task)
    work, cpl = metrics.work, metrics.critical_path
    den, ends, ranges = _cover_ranges(task, td, segments)
    l_int, c_int = _scaled(cpl, den), _scaled(work, den)
    unit = den * l_int                       # workload units per unit time
    lengths = [b - a for a, b in zip(ends, ends[1:])]
    caps = [c_int * e for e in lengths]      # C/L threshold, workload units
    load = [0] * len(segments)
    slots = [{} for _ in segments]           # vertex -> portion, per segment
    split_count = 0

    def put(i: int, vid, amount: int) -> None:
        load[i] += amount
        slots[i][vid] = slots[i].get(vid, 0) + amount

    # earliest-fsh order; ties broken by ascending vertex id
    real = sorted(task.real_vertex_ids, key=lambda v: (ranges[v][1], v))
    rest = {}                                # workload not yet placed
    starting = [[] for _ in segments]        # the parts whose window begins

    # Phase 1: single-segment vertices
    for v in real:
        lo, hi = ranges[v]
        w = _scaled(task.wcets[v], unit)
        if hi - lo == 1:
            put(lo, v, w)
        else:
            rest[v] = w
            starting[lo].append(v)

    # Phase 2: fill light segments up to the threshold, in time order.  The
    # heap holds the parts whose window has begun, keyed by fsh; a split
    # remainder sorts ahead of its equal-fsh peers, the latest first, or
    # the EDF-like fill loses its optimality.  Parts whose window has ended
    # are dropped when they reach the top.
    heap = []
    for i in range(len(segments)):
        for v in starting[i]:
            heapq.heappush(heap, (ranges[v][1], 1, v, v))
        capacity = caps[i] - load[i]
        if capacity < 0:
            continue
        while heap:
            hi, _, _, v = heap[0]
            if hi <= i:
                heapq.heappop(heap)
                continue
            if rest[v] < capacity:
                capacity -= rest[v]
                put(i, v, rest.pop(v))
                heapq.heappop(heap)
                continue
            # the segment lands exactly on the threshold
            if capacity > 0:
                put(i, v, capacity)
                rest[v] -= capacity
                if rest[v]:
                    split_count += 1
                    heapq.heapreplace(heap, (hi, 0, -split_count, v))
                else:
                    del rest[v]
                    heapq.heappop(heap)
            break

    # Phase 3: leftovers go to covered segments (all at or above threshold)
    for v, left in rest.items():
        lo, hi = ranges[v]
        pieces = 0
        for i in range(lo, hi):
            assert load[i] >= caps[i], \
                "phase 3 reached a below-threshold segment"
            take = min(left, lengths[i] * l_int)
            put(i, v, take)
            left -= take
            pieces += 1
            if left == 0:
                break
        assert left == 0, "phase 3 could not place all leftover workload"
        split_count += pieces - 1

    assert sum(load) == c_int * l_int, "workload not conserved"

    heavy = sum(w for w, cap in zip(load, caps) if w > cap)
    light = sum(e for w, cap, e in zip(load, caps, lengths) if w <= cap)
    return SegmentationResult(
        segments=[replace(s, c=Fraction(w, unit))
                  for s, w in zip(segments, load)],
        assignment={s.index: {v: Fraction(w, unit) for v, w in slot.items()}
                    for s, slot in zip(segments, slots)},
        split_count=split_count,
        work=work,
        critical_path=cpl,
        c_heavy=Fraction(heavy, unit),
        l_light=Fraction(light, den),
        omega=Fraction(heavy + light * c_int, l_int * c_int),
    )


def segmentation_oracle(task: DagTask, td: Optional[TimingDiagram] = None,
                        segments: Optional[list] = None,
                        metrics: Optional[TaskMetrics] = None,
                        max_vertices: int = 12) -> OracleResult:
    """Optimal omega via exact rational max flow.

    source -> vertex (cap c(v)) -> segment (iff covered, cap inf) -> sink
    (cap e(s) * C/L).  The workload that cannot be routed is exactly the
    minimal overflow C_out, and omega_opt = 1 + C_out / C.
    """
    if metrics is None:
        metrics = validate(task)
    if td is None:
        td = timing_diagram(task, metrics)
    if segments is None:
        segments = build_segments(td)
    real = task.real_vertex_ids
    if len(real) > max_vertices:
        raise OracleTooLarge(
            f"{len(real)} vertices exceeds the oracle cap {max_vertices}")
    work, cpl = metrics.work, metrics.critical_path

    ranges = _cover_ranges(task, td, segments)[2]
    net = FlowNetwork()
    for v in real:
        net.add_edge("src", ("v", v), task.wcets[v])
        lo, hi = ranges[v]
        for seg in segments[lo:hi]:
            net.add_edge(("v", v), ("s", seg.index), work + 1)
    for seg in segments:
        net.add_edge(("s", seg.index), "snk", seg.e * work / cpl)

    max_assignable = net.max_flow("src", "snk")
    c_out = work - max_assignable
    return OracleResult(
        max_assignable=max_assignable,
        c_out=c_out,
        omega_opt=1 + c_out / work,
    )


def distribute_laxity(task: DagTask, seg: SegmentationResult) -> list:
    """Stretch segments from total length L to total length T.

    With lam = rho = omega, heavy segments get d = c*T/(omega*C) and light
    segments d = e*T/(omega*L); the stretched lengths sum to T exactly.
    """
    omega = seg.omega
    period = task.period
    stretched = []
    for s in seg.segments:
        if seg.is_heavy(s):
            d = s.c * period / (omega * seg.work)
        else:
            d = s.e * period / (omega * seg.critical_path)
        stretched.append(replace(s, d=d))
    assert sum(s.d for s in stretched) == period, "stretched lengths != T"
    return stretched


def reassemble(task: DagTask, td: TimingDiagram, stretched: list
               ) -> DecomposedTask:
    """One sporadic subtask per vertex.

    The vertex window [rdy, fsh] is carried over to the stretched time
    axis: the release is the stretched position of rdy(v) and the deadline
    the stretched position of fsh(v).  Since c(v) never exceeds the summed
    original length of the covered segments, the subtask density stays
    within the per-segment bounds, and fsh(u) <= rdy(v) across every edge
    keeps precedence intact.
    """
    pos = {stretched[0].start: Fraction(0)}
    t = Fraction(0)
    for s in stretched:
        t += s.d
        pos[s.end] = t

    subtasks = []
    for v in task.real_vertex_ids:
        subtasks.append(Subtask(
            origin=v,
            release=pos[td.rdy[v]],
            deadline=pos[td.fsh[v]],
            wcet=task.wcets[v],
        ))
    return DecomposedTask(task_id=task.id, period=task.period,
                          subtasks=tuple(subtasks))


def dbf_and_load(dt: DecomposedTask, hyper_windows: int = 2
                 ) -> tuple[Callable, Fraction]:
    """Demand bound function and load of a decomposed task.

    The load max(dbf(t)/t) is attained with the window starting at some
    subtask release and ending at some subtask absolute deadline: dbf is a
    step function that only jumps at deadlines, and sliding the start right
    to the next release can only shrink t without losing demand.  Deadlines
    within ``hyper_windows`` extra periods cover the maximum because demand
    grows by exactly C per period afterwards, which can only dilute the
    ratio already achieved within the first windows.

    The load is a running-sum sweep: the jobs k*T + (release, deadline)
    with 0 <= k <= ``hyper_windows`` are sorted once by absolute deadline,
    and their distinct deadlines are exactly the candidate window ends.
    For each distinct window start, one pass over that list adds the WCET
    of every job released at or after the start and takes the ratio at
    each distinct deadline.  For n subtasks and a fixed ``hyper_windows``
    that is one O(n log n) sort plus O(n^2) for the passes, against O(n^4)
    for evaluating ``demand`` on every window.
    """
    period = dt.period
    subtasks = dt.subtasks

    def demand(start: Fraction, end: Fraction) -> Fraction:
        total = Fraction(0)
        for st in subtasks:
            k_min = math.ceil((start - st.release) / period)
            k_max = math.floor((end - st.deadline) / period)
            if k_max >= k_min:
                total += (k_max - k_min + 1) * st.wcet
        return total

    def dbf(t: Fraction) -> Fraction:
        t = Fraction(t)
        if t <= 0:
            return Fraction(0)
        return max(demand(st.release, st.release + t) for st in subtasks)

    # Window starts are releases, which lie in [0, T), so no job with k < 0
    # starts inside a window; window ends are the deadlines with
    # k <= hyper_windows, and every job with a larger k ends after them.
    jobs = sorted((st.deadline + k * period, st.release + k * period,
                   st.wcet)
                  for st in subtasks for k in range(hyper_windows + 1))
    load = Fraction(0)
    for start in {st.release for st in subtasks}:
        total = Fraction(0)
        for i, (end, release, wcet) in enumerate(jobs):
            if release >= start:
                total += wcet
            if end > start and (i + 1 == len(jobs) or jobs[i + 1][0] != end):
                load = max(load, total / (end - start))
    return dbf, load


@dataclass(frozen=True)
class Decomposition:
    """Everything the downstream tests need from one task's decomposition."""
    task: DagTask
    metrics: TaskMetrics
    diagram: TimingDiagram
    segmentation: SegmentationResult
    stretched: list
    decomposed: DecomposedTask
    load: Optional[Fraction]         # only when decompose(compute_load=True)
    max_vertex_density: Fraction

    @property
    def omega(self) -> Fraction:
        return self.segmentation.omega


def _segmentation(task: DagTask, metrics: TaskMetrics
                  ) -> tuple[TimingDiagram, SegmentationResult]:
    """The pipeline up to the segmentation, shared by ``segment_omega``
    and ``decompose``.

    The model is implicit-deadline only: the laxity step stretches the
    segments to the period, so a task with D < T would get subtask
    deadlines past D.  Such a task raises ``ConstrainedDeadline``.
    """
    if task.deadline != task.period:
        raise ConstrainedDeadline(
            f"task {task.id}: D={task.deadline} != T={task.period}; the "
            "decomposition assumes implicit deadlines")
    td = timing_diagram(task, metrics)
    return td, segment_workload(task, td, build_segments(td), metrics)


def segment_omega(task: DagTask, metrics: Optional[TaskMetrics] = None
                  ) -> Fraction:
    """The structure characteristic value omega of one implicit-deadline
    task, without the laxity, reassembly and load steps that only
    ``decompose`` needs.  Raises ``ConstrainedDeadline`` for D != T."""
    if metrics is None:
        metrics = validate(task)
    return _segmentation(task, metrics)[1].omega


def decompose(task: DagTask, metrics: Optional[TaskMetrics] = None,
              compute_load: bool = False) -> Decomposition:
    """Run the full pipeline on one implicit-deadline task; raises
    ``ConstrainedDeadline`` for D != T.

    The dbf-based load is only computed on request (one sort and one pass
    per release, within O(n^2 log n) in the vertex count n, and not needed
    for the omega-based tests)."""
    if metrics is None:
        metrics = validate(task)
    td, seg = _segmentation(task, metrics)
    stretched = distribute_laxity(task, seg)
    decomposed = reassemble(task, td, stretched)
    load = dbf_and_load(decomposed)[1] if compute_load else None
    max_density = max(st.wcet / (st.deadline - st.release)
                      for st in decomposed.subtasks)
    return Decomposition(task=task, metrics=metrics, diagram=td,
                         segmentation=seg, stretched=stretched,
                         decomposed=decomposed, load=load,
                         max_vertex_density=max_density)
