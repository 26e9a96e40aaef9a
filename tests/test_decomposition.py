import math
import random
from fractions import Fraction

import pytest

from parasched.decomposition import (build_segments, dbf_and_load, decompose,
                                     distribute_laxity, reassemble,
                                     segment_workload, segmentation_oracle,
                                     timing_diagram)
from parasched.errors import ConstrainedDeadline, OracleTooLarge
from parasched.gen import GenConfig, gen_taskset
from parasched.model import validate
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
