"""Decomposition of a DAG task into sporadic subtasks.

Pipeline: timing diagram -> segments -> three-phase workload segmentation
-> laxity distribution -> vertex reassembly -> demand-bound load.  The
segmentation minimizes the structure characteristic value

    omega = C_heavy / C  +  L_light / L

which drives all downstream bounds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .errors import ConstrainedDeadline
from .model import DagTask, TaskMetrics, check_timed


@dataclass(frozen=True)
class TimingDiagram:
    """The latest finish times, the segment cuts and each vertex window's
    cut indices, as ints in units of the task's 1/den; the task keeps den,
    the ready times, C and L."""
    fsh_int: list    # vertex -> latest finish time times den
    cuts: list       # the segment boundaries: every rdy/fsh value, sorted
    windows: tuple   # (lo, hi), by vertex: the indices in cuts of rdy, fsh


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
    """One segmentation as ints, times in units of 1/den and workload in
    1/(den * L_int), and its exact ``omega``; ``segments``, the Fraction
    view, is built on first read."""
    den: int
    cuts: list                       # segment boundaries times den
    load: list                       # segment index -> workload
    pieces: list                     # (segment index, vertex id, portion)
    split_count: int
    heavy: int                       # summed workload of heavy segments
    light: int                       # summed length of light segments
    omega: Fraction

    @cached_property
    def segments(self) -> list:
        points = [Fraction(t, self.den) for t in self.cuts]
        unit = self.den * self.cuts[-1]
        return [Segment(index=i, start=a, end=b, c=Fraction(w, unit))
                for i, (a, b, w) in enumerate(zip(points, points[1:],
                                                  self.load))]


@dataclass(frozen=True)
class Subtask:
    origin: int
    release: Fraction
    deadline: Fraction
    wcet: Fraction


@dataclass(frozen=True)
class DecomposedTask:
    """One sporadic subtask per vertex, as ints over ``den``: the
    period and each subtask's release, deadline and WCET times ``den``;
    ``subtasks`` builds them as Fractions on first read."""
    task_id: object
    period: Fraction
    den: int
    period_int: int
    origins: list                    # vertex id of each subtask
    releases: list
    deadlines: list
    wcets: list

    @cached_property
    def subtasks(self) -> tuple:
        return tuple(Subtask(v, Fraction(r, self.den), Fraction(d, self.den),
                             Fraction(w, self.den))
                     for v, r, d, w in zip(self.origins, self.releases,
                                           self.deadlines, self.wcets))


def timing_diagram(task: DagTask) -> TimingDiagram:
    """Latest finish times, segment cuts and vertex windows, as ints.

    fsh(v) = min over successors of rdy(u), L for a sink, on the ready
    times the task keeps, found by lowering fsh of each predecessor from L
    along the edges; the cuts are every distinct rdy and fsh value (0 and
    L among them), and a vertex window is the segments lo..hi-1."""
    rdy, cpl = task.rdy_int, task.cpl_int
    fsh = [cpl] * len(rdy)
    for r, before in zip(rdy, task.pred):
        for u in before:
            if r < fsh[u]:
                fsh[u] = r
    cuts = sorted({*rdy, *fsh})
    index = dict(zip(cuts, range(len(cuts)))).__getitem__
    return TimingDiagram(fsh_int=fsh, cuts=cuts, windows=(
        list(map(index, rdy)), list(map(index, fsh))))


def segment_workload(task: DagTask, td: TimingDiagram) -> SegmentationResult:
    """Three-phase workload assignment minimizing omega over the segments
    that cut [0, L] at every distinct rdy/fsh value.

    Phase 1 places vertices whose lifetime window is a single segment.
    Phase 2 walks light segments in time order and fills them with covering
    vertices in earliest-fsh order, splitting a vertex exactly when the
    segment load would cross the C/L threshold.  Phase 3 spreads leftovers
    over their covered segments (earliest first, at most e(s) per segment).

    The phases run on ints: time is scaled by the task's ``den``, the LCM
    of its WCET denominators, and workload by ``den * L_int``.  The light
    test c*L <= C*e then reads w <= C_int*e_int and the phase-2 capacity
    (C*e - c*L)/L is C_int*e_int - w.  The result keeps these ints, with a
    (segment, vertex, portion) piece per placement; omega is its one
    Fraction, and its views build the rest when read.  Each call sorts the
    vertices by fsh once, for phases 1 and 3, and phase 2's heap compares
    ints, not tuples; nothing is kept past the call.
    """
    (los, his), ends = td.windows, td.cuts
    l_int, c_int, wcet = task.cpl_int, task.work_int, task.wcet_int
    lengths = [b - a for a, b in zip(ends, ends[1:])]
    caps = [c_int * e for e in lengths]      # C/L threshold, workload units
    nseg, n = len(lengths), len(wcet)
    load = [0] * nseg
    pieces = []
    split_count = 0

    # earliest-fsh order; the stable sort keeps ascending ids on ties
    order = sorted(range(n), key=his.__getitem__)
    rest = [0] * n                           # workload not yet placed
    starting = [[] for _ in lengths]         # the parts whose window begins

    # Phase 1: single-segment vertices
    for v in order:
        lo, w = los[v], wcet[v] * l_int
        if his[v] - lo == 1:
            load[lo] += w
            pieces.append((lo, v, w))
        else:
            rest[v] = w
            starting[lo].append(v)

    # Phase 2: fill light segments up to the threshold, in time order.  The
    # heap holds the parts whose window has begun as ints that order them
    # by (fsh, rank, vertex).  A split remainder ranks nseg - its split
    # number (a segment splits at most once), ahead of its equal-fsh peers,
    # the latest first, or the EDF-like fill loses its optimality; a whole
    # vertex ranks nseg.  Parts whose window has ended are dropped when
    # they reach the top.
    stride = (nseg + 1) * n                  # one fsh step of a key
    heap = []
    for i, cap in enumerate(caps):
        for v in starting[i]:
            heapq.heappush(heap, his[v] * stride + nseg * n + v)
        capacity = cap - load[i]
        ended = (i + 1) * stride             # the keys of fsh <= i lie below
        while heap and capacity > 0:
            key = heap[0]
            if key < ended:
                heapq.heappop(heap)
            elif rest[v := key % n] > capacity:     # split at C/L
                pieces.append((i, v, capacity))
                rest[v] -= capacity
                capacity = 0
                split_count += 1
                heapq.heapreplace(heap, key - key % stride
                                  + (nseg - split_count) * n + v)
            else:                       # the whole part fits
                pieces.append((i, v, rest[v]))
                capacity -= rest[v]
                rest[v] = 0
                heapq.heappop(heap)
        load[i] = cap - capacity

    # Phase 3: leftovers go to covered segments (all at or above threshold)
    for v in filter(rest.__getitem__, order):
        lo, left = los[v], rest[v]
        for i in range(lo, his[v]):
            assert load[i] >= caps[i], \
                "phase 3 reached a below-threshold segment"
            take = min(left, lengths[i] * l_int)
            load[i] += take
            pieces.append((i, v, take))
            left -= take
            if not left:
                break
        assert left == 0, "phase 3 could not place all leftover workload"
        split_count += i - lo

    assert sum(load) == c_int * l_int, "workload not conserved"

    heavy = sum(w for w, cap in zip(load, caps) if w > cap)
    light = sum(e for w, cap, e in zip(load, caps, lengths) if w <= cap)
    return SegmentationResult(
        den=task.den, cuts=ends, load=load, pieces=pieces,
        split_count=split_count, heavy=heavy, light=light,
        omega=Fraction(heavy + light * c_int, l_int * c_int))


def distribute_laxity(task: DagTask, seg: SegmentationResult) -> list:
    """Stretch segments from total length L to total length T; returns the
    prefix sums X of the stretched lengths, in units of T/N.

    With lam = rho = omega, heavy segments get d = c*T/(omega*C) and light
    segments d = e*T/(omega*L).  On the segmentation's ints that is the
    identity d_s = T*x_s/N, where x_s is the workload w_s of a heavy
    segment (w_s > C_int*e_s) and C_int*e_s of a light one, and
    N = sum x_s is the numerator of omega = N/(L_int*C_int).  So cut k
    lands at T*X[k]/N, and X[-1] = N: the lengths sum to T exactly.
    """
    c_int, cuts = task.work_int, seg.cuts
    prefix = list(accumulate((max(w, c_int * (b - a)) for a, b, w
                              in zip(cuts, cuts[1:], seg.load)), initial=0))
    assert prefix[-1] == seg.heavy + seg.light * c_int, "X[-1] != N"
    return prefix


def reassemble(task: DagTask, td: TimingDiagram, laxity: list
               ) -> DecomposedTask:
    """One sporadic subtask per vertex.

    The vertex window [rdy, fsh] is carried over to the stretched time
    axis: the release is the stretched position of rdy(v) and the deadline
    the stretched position of fsh(v), T*X[k]/N at their cuts k for the
    prefix sums X that ``distribute_laxity`` returns, in units of T/N.
    Since c(v) never exceeds the summed original length of the covered
    segments, the subtask density stays within the per-segment bounds, and
    fsh(u) <= rdy(v) across every edge keeps precedence intact.  Times and
    WCETs are kept over ``den``, the LCM of the denominators of T/N and of
    the WCETs.
    """
    unit = task.period / laxity[-1]
    den = math.lcm(unit.denominator, task.den)
    step, grain = unit.numerator * (den // unit.denominator), den // task.den
    los, his = td.windows
    return DecomposedTask(
        task_id=task.id, period=task.period, den=den,
        period_int=step * laxity[-1], origins=task.real_vertex_ids,
        releases=[step * laxity[k] for k in los],
        deadlines=[step * laxity[k] for k in his],
        wcets=[grain * w for w in task.wcet_int])


def dbf_and_load(dt: DecomposedTask) -> Fraction:
    """Load max(dbf(t)/t) of a decomposed task's demand bound function,
    from the windows that end in the first period.

    Each subtask has a release r in [0, T) and a deadline d in (r, T],
    and its jobs are (r + kT, d + kT) for every k; demand(s, e) sums the
    WCET of the jobs released at or after s and due by e.  The load is
    attained with the window starting at some release and ending at some
    deadline: dbf only jumps at deadlines, and sliding the start right to
    the next release can only shrink t without losing demand.

    No window that ends in a later period sets the maximum.  Take a start
    s in [0, T), write C for the summed WCET, and use the mediant
    inequality (a + b)/(x + y) <= max(a/x, b/y) for x, y > 0:
    - An end e > 2T counts the jobs of demand(s, e - T), shifted by T,
      and the one job of each subtask released in [s, s + T), which is
      due by 2T.  So demand(s, e) = demand(s, e - T) + C over the length
      (e - T - s) + T, which is at most max(ratio(s, e - T), C/T); and
      C/T is the ratio of [0, T].  By induction on the period, such a
      window is covered by one that ends in the first two periods.
    - An end T + d, with d in (0, T], counts the first-period jobs
      released at or after s, all due by T, and the second-period jobs
      due by T + d, all released after s; the later periods' are due
      after 2T.  That is A(s) + P(d), where A(s) sums the subtasks with
      r >= s and P(d) those with deadline at most d, over the length
      (T - s) + d.  It is at most max(A(s)/(T - s), P(d)/d), the ratios
      of [s, T] and [0, d], two windows that end in the first period.

    The load is then a running-sum sweep over the subtasks sorted once by
    deadline: for each distinct release s, one pass adds the WCET of each
    subtask released at or after s and takes the ratio at its deadline;
    a ratio taken before the last of several equal deadlines is at most
    the one taken at the last.  For n subtasks that is one O(n log n)
    sort plus at most n passes of n steps, against O(n^4) for evaluating
    the demand of every window.  The sweep runs on the task's ints over
    ``den`` and keeps the best ratio as a pair of ints compared by
    cross-multiplication; the load is built as a Fraction once, at the
    end.
    """
    jobs = sorted(zip(dt.deadlines, dt.releases, dt.wcets))
    best, best_t = 0, 1             # the load so far, as best / best_t
    for start in set(dt.releases):
        total = 0
        for end, release, wcet in jobs:
            if release >= start:
                total += wcet
                if total * best_t > best * (end - start):
                    best, best_t = total, end - start
    return Fraction(best, best_t)


@dataclass
class Decomposition:
    """One task's decomposition.  ``decompose`` runs the timing diagram and
    the segmentation, which ``omega`` reads; ``laxity``, ``decomposed``,
    ``max_vertex_density`` and ``stretched`` each run once, when first
    read, and ``load`` is None unless ``decompose(compute_load=True)``."""
    task: DagTask
    diagram: TimingDiagram
    segmentation: SegmentationResult
    load: Optional[Fraction] = None

    @property
    def metrics(self) -> TaskMetrics:
        return self.task.metrics

    @property
    def omega(self) -> Fraction:
        return self.segmentation.omega

    @cached_property
    def laxity(self) -> list:           # distribute_laxity's prefix sums X
        return distribute_laxity(self.task, self.segmentation)

    @cached_property
    def decomposed(self) -> DecomposedTask:
        return reassemble(self.task, self.diagram, self.laxity)

    @cached_property
    def max_vertex_density(self) -> Fraction:
        dt = self.decomposed
        best, span = 0, 1               # max wcet / window, as best / span
        for w, r, d in zip(dt.wcets, dt.releases, dt.deadlines):
            if w * span > best * (d - r):
                best, span = w, d - r
        return Fraction(best, span)

    @cached_property
    def stretched(self) -> list:
        """The segments, each with its stretched length d = T*x_s/N."""
        unit, lax = self.task.period / self.laxity[-1], self.laxity
        return [replace(s, d=unit * (b - a)) for s, a, b
                in zip(self.segmentation.segments, lax, lax[1:])]


def decompose(task: DagTask, compute_load: bool = False) -> Decomposition:
    """Check the task, then run the timing diagram and the segmentation;
    the later stages wait for a first read (see ``Decomposition``), but
    ``compute_load=True`` runs the laxity, reassembly and load now.

    The model is implicit-deadline only: the laxity step stretches the
    segments to the period, so a task with D < T would get subtask
    deadlines past D.  Such a task raises ``ConstrainedDeadline``, and a
    shape, which has no period, ``MalformedTaskSet``."""
    check_timed(task)
    if task.deadline != task.period:
        raise ConstrainedDeadline(
            f"task {task.id}: D={task.deadline} != T={task.period}; the "
            "decomposition assumes implicit deadlines")
    td = timing_diagram(task)
    dec = Decomposition(task, td, segment_workload(task, td))
    if compute_load:
        dec.load = dbf_and_load(dec.decomposed)
    return dec
