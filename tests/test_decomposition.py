import hashlib
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import pytest

from parasched.decomposition import (SegmentationResult, Segment,
                                     TimingDiagram, build_segments,
                                     dbf_and_load, decompose, segment_omega,
                                     segment_workload, segmentation_oracle,
                                     timing_diagram)
from parasched.errors import ConstrainedDeadline, OracleTooLarge
from parasched.gen import PAPER_SCALE, GenConfig, gen_taskset
from parasched.model import DagTask, TaskMetrics, validate
from conftest import (build_corpus, chain_task, diamond_task, fig1_task,
                      fork_task)


def test_diamond_timing_diagram():
    t = diamond_task()
    td = timing_diagram(t)
    assert td.critical_path == 6
    assert td.rdy[0] == 0 and td.fsh[0] == 1
    assert td.rdy[1] == 1 and td.fsh[1] == 5
    assert td.rdy[2] == 1 and td.fsh[2] == 5
    assert td.rdy[3] == 5 and td.fsh[3] == 6


def test_windows_are_wide_enough(corpus):
    for task in corpus[:200]:
        td = timing_diagram(task)
        for v in task.real_vertex_ids:
            assert td.fsh[v] - td.rdy[v] >= task.wcets[v]


def test_segments_partition_critical_path():
    t = fig1_task()
    segs = build_segments(timing_diagram(t))
    assert segs[0].start == 0
    assert segs[-1].end == 8
    for a, b in zip(segs, segs[1:]):
        assert a.end == b.start


def test_segment_boundaries_align_with_windows(corpus):
    # every vertex window is exactly a union of consecutive segments
    for task in corpus[:200]:
        td = timing_diagram(task)
        bounds = {s.start for s in build_segments(td)} | {td.critical_path}
        for v in task.real_vertex_ids:
            assert td.rdy[v] in bounds and td.fsh[v] in bounds


def test_workload_is_conserved(corpus):
    for task in corpus[:200]:
        met = validate(task)
        td = timing_diagram(task, met)
        seg = segment_workload(task, td, build_segments(td), met)
        total = sum((sum(portions.values(), Fraction(0))
                     for portions in seg.assignment.values()), Fraction(0))
        assert total == met.work


def test_chain_omega_is_one():
    for k in range(1, 6):
        assert decompose(chain_task(k)).omega == 1


def test_fork_omega_matches_oracle():
    for w in range(1, 6):
        task = fork_task(w)
        dec = decompose(task)
        oracle = segmentation_oracle(task)
        assert dec.omega == oracle.omega_opt


def test_omega_identity_and_range(corpus):
    for task in corpus[:300]:
        seg = decompose(task).segmentation
        heavy = [s for s in seg.segments if seg.is_heavy(s)]
        c_out = sum((s.c - seg.work / seg.critical_path * s.e
                     for s in heavy), Fraction(0))
        assert seg.omega == 1 + c_out / seg.work
        assert 1 <= seg.omega < 2


def test_oracle_rejects_large_graphs():
    rng = random.Random(0)
    from conftest import random_small_task
    big = random_small_task(rng, 0, max_vertices=8)
    with pytest.raises(OracleTooLarge):
        segmentation_oracle(big, max_vertices=2)


def test_laxity_sums_to_period(corpus):
    for task in corpus[:300]:
        dec = decompose(task)
        assert sum(s.d for s in dec.stretched) == task.period


def test_segment_load_and_density_bounds(corpus):
    for task in corpus[:300]:
        dec = decompose(task)
        met = dec.metrics
        omega = dec.omega
        for s in dec.stretched:
            assert s.c / s.d <= omega * met.utilization
            assert s.e / s.d <= omega * met.elasticity


def test_reassembled_precedence_and_windows(corpus):
    for task in corpus[:300]:
        dec = decompose(task)
        sub = {st.origin: st for st in dec.decomposed.subtasks}
        for u, v in task.edges:
            if u in task.dummy_ids or v in task.dummy_ids:
                continue
            assert sub[u].deadline <= sub[v].release
        feasible = dec.omega * dec.metrics.elasticity <= 1
        for st in dec.decomposed.subtasks:
            assert 0 <= st.release < st.deadline <= task.period
            if feasible:   # density <= omega*Gamma <= 1 implies wcet fits
                assert st.wcet <= st.deadline - st.release


def test_vertex_density_bounded(corpus):
    for task in corpus[:300]:
        dec = decompose(task)
        assert dec.max_vertex_density \
            <= dec.omega * dec.metrics.elasticity


def test_dbf_and_load_basics():
    dec = decompose(fig1_task(), compute_load=True)
    dbf, load = dbf_and_load(dec.decomposed)
    assert dbf(dec.decomposed.period) == dec.metrics.work
    assert dbf(Fraction(0)) == 0
    assert load == dec.load
    assert dec.metrics.utilization <= load \
        <= dec.omega * dec.metrics.utilization


def _brute_load(dt, hyper_windows=2):
    """Reference load: ``demand`` on every (release, k*T + deadline)
    window, O(n^4)."""
    period = dt.period
    subtasks = dt.subtasks

    def demand(start, end):
        total = Fraction(0)
        for st in subtasks:
            k_min = math.ceil((start - st.release) / period)
            k_max = math.floor((end - st.deadline) / period)
            if k_max >= k_min:
                total += (k_max - k_min + 1) * st.wcet
        return total

    load = Fraction(0)
    for st_a in subtasks:
        for k in range(hyper_windows + 1):
            for st_b in subtasks:
                end = k * period + st_b.deadline
                t = end - st_a.release
                if t > 0:
                    load = max(load, demand(st_a.release, end) / t)
    return load


def test_load_matches_window_enumeration_on_corpus(corpus):
    for task in corpus[:300]:
        dt = decompose(task).decomposed
        assert dbf_and_load(dt)[1] == _brute_load(dt)


def test_load_matches_window_enumeration_at_desk_scale():
    config = GenConfig(p=0.05, n_vertices=(10, 50), n_tasks=2)
    for seed in range(3):
        for task in gen_taskset(config, seed=seed):
            dt = decompose(task).decomposed
            assert dbf_and_load(dt)[1] == _brute_load(dt)


def test_load_stable_beyond_two_hyper_windows(corpus):
    for task in corpus[:300]:
        dt = decompose(task).decomposed
        assert dbf_and_load(dt)[1] == dbf_and_load(dt, hyper_windows=4)[1]


def test_constrained_deadline_is_rejected():
    # stretching to T = 40 would give subtask deadlines up to 40 > D = 9,
    # and D-OUR would accept a C = 16 task on one processor
    with pytest.raises(ConstrainedDeadline, match="fig1"):
        decompose(fig1_task(period=40, deadline=9))


def test_load_bounded_on_sample(corpus):
    for task in corpus[:60]:
        dec = decompose(task, compute_load=True)
        assert dec.load <= dec.omega * dec.metrics.utilization


def test_paper_worked_segmentation_threshold():
    # C/L = 2 for the six-vertex example; phase-2 fills light segments
    # exactly to the threshold, so no light segment exceeds it.
    dec = decompose(fig1_task())
    seg = dec.segmentation
    for s in seg.segments:
        if not seg.is_heavy(s):
            assert s.c * seg.critical_path <= seg.work * s.e


def test_segment_omega_is_decompose_omega(corpus):
    for task in corpus[:300]:
        assert segment_omega(task) == decompose(task).omega
    with pytest.raises(ConstrainedDeadline, match="fig1"):
        segment_omega(fig1_task(period=40, deadline=9))


# The Fraction segmentation that the integer core replaced, copied verbatim
# with its helpers, as the reference the core must match bit for bit.

def _covered(td: TimingDiagram, vid, seg: Segment) -> bool:
    return td.rdy[vid] <= seg.start and seg.end <= td.fsh[vid]


@dataclass
class _Part:
    vid: int
    c: Fraction
    fsh: Fraction


def _reference_segment_workload(task: DagTask, td: TimingDiagram,
                                segments: list,
                                metrics: Optional[TaskMetrics] = None
                                ) -> SegmentationResult:
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
    parts = [_Part(v, task.wcets[v], td.fsh[v]) for v in task.real_vertex_ids]
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
        cover = [s for s in segments if _covered(td, part.vid, s)]
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
            part = next((p for p in parts if _covered(td, p.vid, seg)), None)
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
        cover = [s for s in segments if _covered(td, part.vid, s)]
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
    return SegmentationResult(
        segments=segments,
        assignment=assignment,
        split_count=split_count,
        work=work,
        critical_path=cpl,
        c_heavy=c_heavy,
        l_light=l_light,
        omega=c_heavy / work + l_light / cpl,
    )


def _assert_same_segmentation(tasks):
    for task in tasks:
        met = validate(task)
        td = timing_diagram(task, met)
        segments = build_segments(td)
        new = segment_workload(task, td, segments, met)
        ref = _reference_segment_workload(task, td, segments, met)
        assert [(s.start, s.end, s.c) for s in new.segments] \
            == [(s.start, s.end, s.c) for s in ref.segments], task.id
        assert new.assignment == {
            i: {v: p for v, p in slot.items() if p}
            for i, slot in ref.assignment.items()}, task.id
        assert (new.split_count, new.c_heavy, new.l_light, new.omega) \
            == (ref.split_count, ref.c_heavy, ref.l_light, ref.omega), \
            task.id


def _rational_variant(task, rng):
    """The same DAG with WCETs drawn as fractions with denominators up to
    12, and a period just above its critical path."""
    real = task.real_vertex_ids
    vertices = [(v, Fraction(rng.randint(1, 40), rng.randint(1, 12)))
                for v in real]
    edges = [(u, v) for u, v in task.edges if u in real and v in real]
    cpl = validate(DagTask(task.id, vertices, edges, period=10 ** 6,
                           deadline=10 ** 6)).critical_path
    period = cpl + Fraction(rng.randint(1, 80), rng.randint(1, 4))
    return DagTask(task.id, vertices, edges, period=period, deadline=period)


def test_segmentation_matches_reference_on_corpus(corpus):
    _assert_same_segmentation(corpus)


def test_segmentation_matches_reference_on_rational_wcets(corpus):
    # a denominator above 1 separates time from workload units, which
    # integer WCETs cannot
    rng = random.Random(12)
    tasks = [_rational_variant(task, rng) for task in corpus[:400]]
    assert any(validate(t).work.denominator > 1 for t in tasks)
    _assert_same_segmentation(tasks)


def test_segmentation_matches_reference_at_paper_scale():
    config = GenConfig(p=0.05, n_vertices=PAPER_SCALE, n_tasks=2)
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
