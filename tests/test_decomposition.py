from __future__ import annotations

import hashlib
import math
import random
from collections import Counter, deque
from dataclasses import dataclass, replace
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parasched.analysis import TESTS
from parasched.decomposition import (Segment, SegmentationResult, Subtask,
                                     dbf_and_load, decompose,
                                     segment_workload, timing_diagram)
from parasched.errors import (ConstrainedDeadline, CycleDetected,
                              DeadlineExceedsPeriod, MalformedTaskSet,
                              NonPositiveWcet)
from parasched.gen import PAPER_SCALE, GenConfig, gen_taskset
from parasched.model import DagTask, TaskMetrics, scale_to_ints, validate
from conftest import (chain_task, diamond_task, fig1_task, rational_variant,
                      sample_cases, verify_sets)
import reference
from reference import (DegenerateWindow, OracleTooLarge, build_segments,
                       segmentation_oracle)


def _is_heavy(task: DagTask, s: Segment) -> bool:
    """A segment is heavy when its load is above the task's: c*L > C*e."""
    return s.c * task.metrics.critical_path > task.metrics.work * s.e


def test_diamond_timing_diagram():
    t = diamond_task()
    td = timing_diagram(t)
    assert (t.den, t.cpl_int) == (1, 6)
    assert t.rdy_int == [0, 1, 1, 5]
    assert td.fsh_int == [1, 5, 5, 6]


def _assert_fsh_is_earliest_successor_ready(task):
    rdy, fsh = task.rdy_int, timing_diagram(task).fsh_int
    assert fsh == [min(rdy[u] for u in after) if after else task.cpl_int
                   for after in task.succ], task.id


@st.composite
def _multi_end_dags(draw, n=None):
    """A DAG on n vertices (2..14 when not given) with at least two
    sources and two sinks: a forward-edge subset over a shuffled order,
    with the two first and the two last vertices of that order kept free
    of in- and out-edges respectively."""
    if n is None:
        n = draw(st.integers(min_value=2, max_value=14))
    order = draw(st.permutations(range(n)))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if b > 1 and a < n - 2]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    sixths = draw(st.lists(st.integers(min_value=1, max_value=180),
                           min_size=n, max_size=n))
    return DagTask("h", [(v, Fraction(w, 6)) for v, w in enumerate(sixths)],
                   [(order[a], order[b])
                    for (a, b), kept in zip(pairs, keep) if kept])


@settings(max_examples=200, deadline=None)
@given(_multi_end_dags())
def test_fsh_is_earliest_successor_ready_with_several_sources_and_sinks(
        task):
    assert sum(not before for before in task.pred) >= 2
    assert sum(not after for after in task.succ) >= 2
    _assert_fsh_is_earliest_successor_ready(task)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=14))
def test_a_task_keeps_the_graph_it_was_given(data, n):
    # no vertex or edge is added for the several sources and sinks
    task = data.draw(_multi_end_dags(n))
    td = timing_diagram(task)
    assert len(task.wcet_int) == n
    assert len(task.rdy_int) == len(td.fsh_int) == len(task.wcets) == n
    assert len(task.succ) == len(task.pred) == n
    assert sorted((u, v) for v, before in enumerate(task.pred)
                  for u in before) == sorted(task.edges)
    assert sorted((u, v) for u, after in enumerate(task.succ)
                  for v in after) == sorted(task.edges)


def test_segments_partition_critical_path():
    t = fig1_task()
    segs = build_segments(t, timing_diagram(t))
    assert segs[0].start == 0
    assert segs[-1].end == 8
    for a, b in zip(segs, segs[1:]):
        assert a.end == b.start


def test_chain_omega_is_one():
    for k in range(1, 6):
        assert decompose(chain_task(k)).omega == 1


def test_oracle_rejects_large_graphs():
    rng = random.Random(0)
    from conftest import random_small_task
    big = random_small_task(rng, 0, max_vertices=8)
    with pytest.raises(OracleTooLarge):
        segmentation_oracle(big, max_vertices=2)


def test_dbf_and_load_basics():
    dec = decompose(fig1_task(), compute_load=True)
    load = dbf_and_load(dec.decomposed)
    assert load == dec.load
    assert dec.metrics.utilization <= load \
        <= dec.omega * dec.metrics.utilization


def _brute_load(dt, hyper_windows=2):
    """Reference load: ``demand`` on every (release, k*T + deadline)
    window, O(n^4), on the task's ints over ``den``; the best ratio is
    kept as a pair of ints, and its Fraction built once."""
    period = dt.period_int
    jobs = list(zip(dt.releases, dt.deadlines, dt.wcets))

    def demand(start, end):
        total = 0
        for release, deadline, wcet in jobs:
            k_min = -((release - start) // period)  # ceil((start - r) / T)
            k_max = (end - deadline) // period
            if k_max >= k_min:
                total += (k_max - k_min + 1) * wcet
        return total

    best, best_t = 0, 1
    for start in dt.releases:
        for k in range(hyper_windows + 1):
            for deadline in dt.deadlines:
                end = k * period + deadline
                t = end - start
                if t > 0:
                    total = demand(start, end)
                    if total * best_t > best * t:
                        best, best_t = total, t
    return Fraction(best, best_t)


def test_load_matches_window_enumeration_on_corpus(corpus):
    for task in corpus[:300]:
        dt = decompose(task).decomposed
        assert dbf_and_load(dt) == _brute_load(dt)


def test_load_matches_window_enumeration_at_desk_scale():
    config = GenConfig(p=0.05, n_vertices=(10, 50), n_tasks=2)
    for seed in range(3):
        for task in gen_taskset(config, seed=seed):
            dt = decompose(task).decomposed
            assert dbf_and_load(dt) == _brute_load(dt)


def test_load_matches_window_enumeration_on_rational_wcets(corpus):
    rng = random.Random(13)
    tasks = [rational_variant(task, rng) for task in corpus[:200]]
    assert any(t.den > 1 for t in tasks)
    for task in tasks:
        dt = decompose(task).decomposed
        assert dbf_and_load(dt) == _brute_load(dt)


def test_load_matches_window_enumeration_on_verify_sets():
    # the sets the benchmark's verify workload computes the load of
    for tasks in verify_sets():
        for task in tasks:
            dt = decompose(task).decomposed
            assert dbf_and_load(dt) == _brute_load(dt)


@pytest.mark.parametrize("name", ["corpus", "verify", "rational"])
def test_no_window_past_the_first_period_sets_the_brute_load(corpus, name):
    # the theorem dbf_and_load rests on, checked on the reference alone;
    # the load over k <= 1 extra periods lies between those over 0 and 4,
    # so a load equal to the brute load over 2 equals that over 4 as well
    rng = random.Random(13)
    tasks = {"corpus": corpus,
             "verify": [t for tasks in verify_sets() for t in tasks],
             "rational": [rational_variant(t, rng) for t in corpus[:200]]
             }[name]
    for task in tasks:
        dt = decompose(task).decomposed
        assert _brute_load(dt, hyper_windows=0) \
            == _brute_load(dt, hyper_windows=4), task.id


def test_shape_without_a_period_is_rejected():
    # a shape has the integer core but no period to stretch the segments to
    shape = DagTask("shape", [(0, 1), (1, 2)], [(0, 1)])
    with pytest.raises(MalformedTaskSet, match="task shape: no period"):
        decompose(shape)


def test_paper_worked_segmentation_threshold():
    # C/L = 2 for the six-vertex example; phase-2 fills light segments
    # exactly to the threshold, so no light segment exceeds it.
    task = fig1_task()
    seg, met = decompose(task).segmentation, task.metrics
    for s in seg.segments:
        if not _is_heavy(task, s):
            assert s.c * met.critical_path <= met.work * s.e


def test_decompose_omega_is_the_segmentation_omega(corpus):
    for task in corpus[:300]:
        assert decompose(task).omega \
            == segment_workload(task, timing_diagram(task)).omega
    # stretching to T = 40 would give subtask deadlines up to 40 > D = 9,
    # and D-OUR would accept a C = 16 task on one processor
    with pytest.raises(ConstrainedDeadline, match="fig1"):
        decompose(fig1_task(period=40, deadline=9))


def test_omega_builds_no_fraction_views(monkeypatch):
    import parasched.decomposition as dec
    original, results = dec.segment_workload, []

    def keep(task, td):
        results.append(original(task, td))
        return results[-1]

    monkeypatch.setattr(dec, "segment_workload", keep)
    task = fig1_task()
    omega, met = decompose(task).omega, task.metrics
    (seg,) = results
    assert "segments" not in vars(seg)
    # read on demand, the views agree with the ints and ``segments`` is kept
    assert seg.omega == omega == reference.c_heavy(seg) / met.work \
        + reference.l_light(seg) / met.critical_path
    assert sum(s.c for s in seg.segments) == met.work == sum(
        (sum(slot.values()) for slot in reference.assignment(seg).values()),
        Fraction(0))
    assert "segments" in vars(seg)


def test_decompose_runs_the_later_stages_once_when_first_read(monkeypatch):
    import parasched.decomposition as dec
    calls = Counter()
    for name in ("distribute_laxity", "reassemble", "dbf_and_load"):
        def counted(*args, name=name, run=getattr(dec, name)):
            calls[name] += 1
            return run(*args)
        monkeypatch.setattr(dec, name, counted)
    task = fig1_task()
    d = decompose(task)
    assert (d.omega, d.metrics, d.load) == (Fraction(9, 8), task.metrics,
                                            None)
    assert not calls
    for _ in range(2):
        assert (len(d.decomposed.wcets), len(d.stretched),
                d.max_vertex_density) == (6, 4, Fraction(9, 14))
    assert calls == {"distribute_laxity": 1, "reassemble": 1}
    calls.clear()
    d = decompose(task, compute_load=True)
    assert calls == {"distribute_laxity": 1, "reassemble": 1,
                     "dbf_and_load": 1}
    assert (d.load, d.max_vertex_density) == (Fraction(9, 7),
                                              Fraction(9, 14))
    assert sum(calls.values()) == 3


# The Fraction segmentation that the integer core replaced, copied verbatim
# with its helpers, as the reference the core must match bit for bit.

def _covered(diagram: _ReferenceDiagram, vid, seg: Segment) -> bool:
    return diagram.rdy[vid] <= seg.start and seg.end <= diagram.fsh[vid]


@dataclass
class _Part:
    vid: int
    c: Fraction
    fsh: Fraction


def _reference_segment_workload(task: DagTask, diagram: _ReferenceDiagram,
                                segments: list,
                                metrics: Optional[TaskMetrics] = None
                                ) -> SimpleNamespace:
    """Three-phase workload assignment minimizing omega.

    Phase 1 places vertices whose lifetime window is a single segment.
    Phase 2 walks light segments in time order and fills them with covering
    vertices in earliest-fsh order, splitting a vertex exactly when the
    segment load would cross the C/L threshold.  Phase 3 spreads leftovers
    over their covered segments (earliest first, at most e(s) per segment).
    """
    if metrics is None:
        metrics = validate(task)
    work, cpl = metrics.work, metrics.critical_path
    segments = [replace(s) for s in segments]

    # earliest-fsh order; ties broken by ascending vertex id
    parts = [_Part(v, task.wcets[v], diagram.fsh[v])
             for v in task.real_vertex_ids]
    parts.sort(key=lambda p: (p.fsh, p.vid))

    assignment = {s.index: {} for s in segments}
    split_count = 0

    def put(seg: Segment, part: _Part, amount: Fraction) -> None:
        seg.c += amount
        slot = assignment[seg.index]
        slot[part.vid] = slot.get(part.vid, Fraction(0)) + amount

    def is_light(seg: Segment) -> bool:
        return seg.c * cpl <= work * seg.e

    # Phase 1: single-segment vertices
    remaining = []
    for part in parts:
        cover = [s for s in segments if _covered(diagram, part.vid, s)]
        if len(cover) == 1:
            put(cover[0], part, part.c)
        else:
            remaining.append(part)
    parts = remaining

    # Phase 2: fill light segments up to the threshold, in time order
    for seg in segments:
        if not is_light(seg):
            continue
        while True:
            part = next((p for p in parts
                         if _covered(diagram, p.vid, seg)), None)
            if part is None:
                break
            capacity = (work * seg.e - seg.c * cpl) / cpl
            if part.c < capacity:
                put(seg, part, part.c)
                parts.remove(part)
                continue
            # the segment lands exactly on the threshold
            if capacity > 0:
                put(seg, part, capacity)
                if part.c == capacity:
                    parts.remove(part)
                else:
                    part.c -= capacity
                    split_count += 1
                    # the remainder inherits fsh and must keep the list in
                    # earliest-fsh order (ahead of equal-fsh peers), or the
                    # EDF-like fill loses its optimality
                    parts.remove(part)
                    at = next((j for j, p in enumerate(parts)
                               if p.fsh >= part.fsh), len(parts))
                    parts.insert(at, part)
            break

    # Phase 3: leftovers go to covered segments (all at or above threshold)
    for part in parts:
        cover = [s for s in segments if _covered(diagram, part.vid, s)]
        left = part.c
        pieces = 0
        for seg in cover:
            assert not is_light(seg) or seg.c * cpl == work * seg.e, \
                "phase 3 reached a below-threshold segment"
            take = min(left, seg.e)
            if take > 0:
                put(seg, part, take)
                left -= take
                pieces += 1
            if left == 0:
                break
        assert left == 0, "phase 3 could not place all leftover workload"
        split_count += max(0, pieces - 1)

    assert sum(s.c for s in segments) == work, "workload not conserved"

    c_heavy = sum((s.c for s in segments if s.c * cpl > work * s.e),
                  Fraction(0))
    l_light = sum((s.e for s in segments if s.c * cpl <= work * s.e),
                  Fraction(0))
    return SimpleNamespace(
        segments=segments,
        assignment=assignment,
        split_count=split_count,
        work=work,
        critical_path=cpl,
        c_heavy=c_heavy,
        l_light=l_light,
        omega=c_heavy / work + l_light / cpl,
    )


def _reference_omega(task: DagTask) -> Fraction:
    """Omega from the Fraction reference pipeline alone."""
    met = _reference_validate(task)
    diagram = _reference_timing_diagram(task, met)
    return _reference_segment_workload(
        task, diagram, _reference_build_segments(diagram), met).omega


def test_d_our_verdict_matches_its_certificate():
    # D-OUR accepts on m processors iff m >= (U_sum - Gamma_top) /
    # (1/Omega_top - Gamma_top), recomputed here from each task's metrics
    # and its reference Omega, apart from decomposed_test and decompose
    config = GenConfig(p=0.05, n_vertices=PAPER_SCALE, util=0.4)
    cases = sample_cases() + [(gen_taskset(config, seed=seed), m)
                              for seed in (1, 2, 3) for m in (2, 8)]
    omegas = {}
    seen = set()
    for tasks, m in cases:
        for task in tasks:
            if id(task) not in omegas:
                omegas[id(task)] = _reference_omega(task)
        mets = [_reference_validate(task) for task in tasks]
        omega_top = max(omegas[id(task)] for task in tasks)
        u_sum = sum((met.utilization for met in mets), Fraction(0))
        gamma_top = max(met.elasticity for met in mets)
        verdict = TESTS["D-OUR"].run(tasks, m)
        if 1 / omega_top - gamma_top <= 0:
            assert (verdict.schedulable, verdict.reason) \
                == (False, "degenerate denominator")
            seen.add("degenerate")
            continue
        required = (u_sum - gamma_top) / (1 / omega_top - gamma_top)
        assert (verdict.schedulable, verdict.min_m,
                verdict.detail["required"]) \
            == (m >= required, max(1, math.ceil(required)), required)
        seen.add(verdict.schedulable)
    assert {True, False} <= seen


def _assert_same_segmentation(tasks):
    # The reference places each vertex whole, in covered segments only, so
    # equal loads and portions also conserve the workload and keep every
    # piece in its window; omega = C_heavy/C + L_light/L is 1 + C_out/C.
    for task in tasks:
        met = validate(task)
        new = segment_workload(task, timing_diagram(task))
        ref_diagram = _reference_timing_diagram(task, met)
        ref = _reference_segment_workload(
            task, ref_diagram, _reference_build_segments(ref_diagram), met)
        assert [(s.start, s.end, s.c) for s in new.segments] \
            == [(s.start, s.end, s.c) for s in ref.segments], task.id
        assert reference.assignment(new) == {
            i: {v: p for v, p in slot.items() if p}
            for i, slot in ref.assignment.items()}, task.id
        assert all(portion > 0 for _, _, portion in new.pieces), task.id
        assert (new.split_count, reference.c_heavy(new),
                reference.l_light(new), new.omega) \
            == (ref.split_count, ref.c_heavy, ref.l_light, ref.omega), \
            task.id
        assert 1 <= new.omega < 2, task.id


def test_segmentation_matches_reference_on_corpus(corpus):
    _assert_same_segmentation(corpus)


def test_segmentation_matches_reference_on_rational_wcets(corpus):
    # a denominator above 1 separates time from workload units, which
    # integer WCETs cannot
    rng = random.Random(12)
    tasks = [rational_variant(task, rng) for task in corpus[:400]]
    assert any(validate(t).work.denominator > 1 for t in tasks)
    _assert_same_segmentation(tasks)


def test_segmentation_matches_reference_at_paper_scale():
    config = GenConfig(p=0.05, n_vertices=PAPER_SCALE, n_tasks=5)
    _assert_same_segmentation([task for seed in range(3)
                               for task in gen_taskset(config, seed=seed)])


# sha256 over (omega, stretched lengths, subtasks) of every corpus task,
# taken on the Fraction segmentation before the integer core replaced it
CORPUS_DIGEST = \
    "aaf0795cf97bcfa6a41b19fd1b0739aad60ffe65eb4e8e985aab469554ac53f1"


def test_decomposition_digest_is_pinned(corpus):
    digest = hashlib.sha256()
    for task in corpus:
        dec = decompose(task)
        digest.update(repr((
            str(dec.omega), [str(s.d) for s in dec.stretched],
            [(st.origin, str(st.release), str(st.deadline), str(st.wcet))
             for st in dec.decomposed.subtasks])).encode())
    assert digest.hexdigest() == CORPUS_DIGEST


# sha256 over the segmentation's ints of every corpus task: the loads, the
# pieces in the order they were placed, the split count, the heavy and
# light sums and omega, taken before phase 2's heap held int keys
SEGMENTATION_DIGEST = \
    "53cf22ec0d8288c49c3ae84a7a6e38a69e9e9742326b63965d2863f4aeabc946"


def test_segmentation_digest_is_pinned(corpus):
    digest = hashlib.sha256()
    for task in corpus:
        seg = segment_workload(task, timing_diagram(task))
        digest.update(repr((seg.load, seg.pieces, seg.split_count,
                            seg.heavy, seg.light, str(seg.omega))).encode())
    assert digest.hexdigest() == SEGMENTATION_DIGEST


# The Fraction task model that the integer core replaced: the topological
# sort, ``validate``, ``timing_diagram`` and ``build_segments``, copied
# verbatim but for the names, as the reference the core must match.

@dataclass(frozen=True)
class _ReferenceDiagram:
    rdy: dict    # vertex -> earliest ready time
    fsh: dict    # vertex -> latest finish time
    critical_path: Fraction


def _reference_topological_order(task):
    """Kahn's algorithm; raises CycleDetected if the graph has a cycle."""
    indeg = {v: len(task.pred[v]) for v in task.wcets}
    queue = deque(sorted(v for v, d in indeg.items() if d == 0))
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for u in task.succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    if len(order) != len(task.wcets):
        raise CycleDetected(f"task {task.id} contains a cycle")
    return order


def _reference_validate(task: DagTask) -> TaskMetrics:
    """Check the task invariants and compute C, L, U, density, elasticity
    and gamma.

    C sums the WCETs; L is the longest path, computed in topological order.
    """
    for vid, wcet in task.wcets.items():
        if wcet <= 0:
            raise NonPositiveWcet(f"vertex {vid} has WCET {wcet}")
    if task.deadline > task.period:
        raise DeadlineExceedsPeriod(
            f"task {task.id}: D={task.deadline} > T={task.period}")

    order = _reference_topological_order(task)
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
        gamma=((work - critical_path) / (task.deadline - critical_path)
               if critical_path < task.deadline else None),
    )


def _reference_timing_diagram(task: DagTask,
                              metrics: Optional[TaskMetrics] = None
                              ) -> _ReferenceDiagram:
    """Earliest ready / latest finish times on the [0, L] axis.

    rdy(v) = max over predecessors of rdy(u) + c(u), 0 for the source;
    fsh(v) = min over successors of rdy(u), L for the sink.
    """
    if metrics is None:
        metrics = _reference_validate(task)
    order = _reference_topological_order(task)
    rdy = {}
    for v in order:
        rdy[v] = max((rdy[u] + task.wcets[u] for u in task.pred[v]),
                     default=Fraction(0))
    fsh = {}
    for v in reversed(order):
        fsh[v] = min((rdy[u] for u in task.succ[v]),
                     default=metrics.critical_path)
    return _ReferenceDiagram(rdy=rdy, fsh=fsh,
                             critical_path=metrics.critical_path)


def _reference_build_segments(diagram: _ReferenceDiagram) -> list:
    """Cut [0, L] at every distinct rdy/fsh value."""
    if diagram.critical_path == 0:
        raise DegenerateWindow("critical path has zero length")
    boundaries = {Fraction(0), diagram.critical_path}
    boundaries.update(diagram.rdy.values())
    boundaries.update(diagram.fsh.values())
    points = sorted(boundaries)
    return [Segment(index=i, start=a, end=b)
            for i, (a, b) in enumerate(zip(points, points[1:]))]


def _assert_same_core(tasks):
    # The reference's fsh is the earliest successor's rdy (L for a sink),
    # so equal diagrams give each vertex a window as wide as its WCET, and
    # equal cuts at every rdy and fsh make each window a run of segments.
    for task in tasks:
        met, ref_met = validate(task), _reference_validate(task)
        assert met == ref_met, task.id
        td, ref_diagram = timing_diagram(task), _reference_timing_diagram(task)
        den = task.den
        assert (dict(enumerate(task.rdy_int)), dict(enumerate(td.fsh_int)),
                task.cpl_int) \
            == ({v: t * den for v, t in ref_diagram.rdy.items()},
                {v: t * den for v, t in ref_diagram.fsh.items()},
                ref_diagram.critical_path * den), task.id
        assert build_segments(task, td) \
            == _reference_build_segments(ref_diagram), task.id


def test_core_matches_reference_on_corpus(corpus):
    _assert_same_core(corpus)


def test_core_matches_reference_on_rational_wcets(corpus):
    rng = random.Random(13)
    tasks = [rational_variant(task, rng) for task in corpus[:400]]
    assert any(t.den > 1 for t in tasks)
    _assert_same_core(tasks)


def test_core_matches_reference_on_multi_source_and_sink_dags():
    # sparse G(n, p) DAGs with rational WCETs, most with several sources
    # and sinks
    rng = random.Random(14)
    tasks = []
    for i in range(300):
        n = rng.randint(2, 14)
        vertices = [(v, Fraction(rng.randint(1, 30), rng.randint(1, 6)))
                    for v in range(n)]
        order = rng.sample(range(n), n)
        edges = [(order[a], order[b]) for a in range(n)
                 for b in range(a + 1, n) if rng.random() < 0.15]
        shape = DagTask(i, vertices, edges)
        tasks.append(shape.with_period(shape.critical_path + 1))
    assert sum(sum(not p for p in t.pred) >= 2
               and sum(not s for s in t.succ) >= 2 for t in tasks) > 200
    _assert_same_core(tasks)


# The Fraction laxity, reassembly and load steps that the integer prefix
# sums replaced, copied verbatim but for the names, as the reference the
# int path must match.

@dataclass(frozen=True)
class _ReferenceDecomposedTask:
    task_id: object
    period: Fraction
    subtasks: tuple


def _reference_distribute_laxity(task: DagTask,
                                 seg: SegmentationResult) -> list:
    """Stretch segments from total length L to total length T.

    With lam = rho = omega, heavy segments get d = c*T/(omega*C) and light
    segments d = e*T/(omega*L); the stretched lengths sum to T exactly.
    """
    omega, met = seg.omega, task.metrics
    period = task.period
    stretched = []
    for s in seg.segments:
        if _is_heavy(task, s):
            d = s.c * period / (omega * met.work)
        else:
            d = s.e * period / (omega * met.critical_path)
        stretched.append(replace(s, d=d))
    assert sum(s.d for s in stretched) == period, "stretched lengths != T"
    return stretched


def _reference_reassemble(task: DagTask, diagram: _ReferenceDiagram,
                          stretched: list) -> _ReferenceDecomposedTask:
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
            release=pos[diagram.rdy[v]],
            deadline=pos[diagram.fsh[v]],
            wcet=Fraction(task.wcet_int[v], task.den),
        ))
    return _ReferenceDecomposedTask(task_id=task.id, period=task.period,
                                    subtasks=tuple(subtasks))


def _reference_dbf_and_load(dt: _ReferenceDecomposedTask,
                            hyper_windows: int = 2) -> Fraction:
    """Load max(dbf(t)/t) of a decomposed task's demand bound function.

    The load is attained with the window starting at some subtask release
    and ending at some subtask absolute deadline: dbf is a step function
    that only jumps at deadlines, and sliding the start right to the next
    release can only shrink t without losing demand.  Deadlines within
    ``hyper_windows`` extra periods cover the maximum because demand grows
    by exactly C per period afterwards, which can only dilute the ratio
    already achieved within the first windows.

    The load is a running-sum sweep: the jobs k*T + (release, deadline)
    with 0 <= k <= ``hyper_windows`` are sorted once by absolute deadline,
    and their distinct deadlines are exactly the candidate window ends.
    For each distinct window start, one pass over that list adds the WCET
    of every job released at or after the start and takes the ratio at
    each distinct deadline.  For n subtasks and a fixed ``hyper_windows``
    that is one O(n log n) sort plus O(n^2) for the passes, against O(n^4)
    for evaluating the demand of every window.  The sweep runs on ints,
    every time and WCET times the LCM of their denominators, and keeps the
    best ratio as a pair of ints compared by cross-multiplication; the
    load is built as a Fraction once, at the end.
    """
    # Scaling times and WCETs by one factor leaves each ratio as it is.
    # Window starts are releases, which lie in [0, T), so no job with k < 0
    # starts inside a window; window ends are the deadlines with
    # k <= hyper_windows, and every job with a larger k ends after them.
    _, ints = scale_to_ints([dt.period] + [
        x for st in dt.subtasks for x in (st.release, st.deadline, st.wcet)])
    scaled_period = ints[0]
    triples = list(zip(ints[2::3], ints[1::3], ints[3::3]))
    jobs = sorted((end + k * scaled_period, release + k * scaled_period, wcet)
                  for end, release, wcet in triples
                  for k in range(hyper_windows + 1))
    best, best_t = 0, 1             # the load so far, as best / best_t
    for start in {release for _, release, _ in triples}:
        total = 0
        for i, (end, release, wcet) in enumerate(jobs):
            if release >= start:
                total += wcet
            if end > start and (i + 1 == len(jobs) or jobs[i + 1][0] != end) \
                    and total * best_t > best * (end - start):
                best, best_t = total, end - start
    return Fraction(best, best_t)


def _assert_same_decomposition(tasks):
    for task in tasks:
        dec = decompose(task, compute_load=True)
        stretched = _reference_distribute_laxity(task, dec.segmentation)
        ref = _reference_reassemble(task, _reference_timing_diagram(task),
                                    stretched)
        assert dec.stretched == stretched, task.id
        dt = dec.decomposed
        assert (dt.task_id, dt.period, dt.subtasks) \
            == (ref.task_id, ref.period, ref.subtasks), task.id
        assert dec.max_vertex_density == max(
            st.wcet / (st.deadline - st.release) for st in ref.subtasks)
        assert dec.load == _reference_dbf_and_load(ref), task.id


def test_decomposition_matches_reference_on_corpus(corpus):
    _assert_same_decomposition(corpus)


def test_decomposition_matches_reference_on_rational_wcets(corpus):
    rng = random.Random(15)
    tasks = [rational_variant(task, rng) for task in corpus[:400]]
    assert any(t.den > 1 for t in tasks)
    _assert_same_decomposition(tasks)


def test_decomposition_matches_reference_on_verify_and_paper_scale_sets():
    # the verify workload's sets (gamma-formula periods), then two sets of
    # two paper-scale tasks
    tasks = [task for tasks in verify_sets() for task in tasks]
    assert any(t.period.denominator > 1 for t in tasks)
    config = GenConfig(p=0.05, n_vertices=PAPER_SCALE, n_tasks=2)
    tasks += [task for seed in range(2)
              for task in gen_taskset(config, seed=seed)]
    _assert_same_decomposition(tasks)
