"""End-to-end acceptance checks, one test per pinned criterion.

Each test prints a single `PASS criterion N` / `FAIL criterion N` line so
the outcome is readable in captured output as well as in the pytest
verdict list.  Tolerances and runtime budgets are pinned in the asserts.
"""

import math
import random
import time
from fractions import Fraction

from parasched.analysis import (UniformPlatform, decomposed_test,
                                federated_allocate, gedf_density_test,
                                uniform_response_bound, weak_response_bound)
from parasched.decomposition import decompose
from parasched.experiment import (DEFAULT_BUCKETS, _bucket_config, sweep,
                                  trial_seed)
from parasched.gen import GenConfig, gen_taskset
from parasched.model import DagTask, TaskSetSummary, summarize, validate
from parasched.semifed import sf1, sf2
from parasched.sim import simulate_dispatcher, simulate_gedf, simulate_uniform

from conftest import fig1_task, heavy_stub, light_stub, random_small_task
from reference import capacity_bound, capacity_requirement, segmentation_oracle


def _verdict(n, ok, note=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}"
    if note:
        line += f": {note}"
    print(line)
    assert ok, line


def test_criterion_01_container_packing_goldens():
    t0 = time.monotonic()
    pairs = [heavy_stub(1, Fraction(8, 5)), heavy_stub(2, Fraction(8, 5)),
             heavy_stub(3, Fraction(3, 2)), light_stub(4, Fraction(3, 10))]
    tasks = [p[0] for p in pairs]

    fed = federated_allocate(tasks, 7)
    ok = fed.schedulable and fed.min_m == 7
    ok = ok and not federated_allocate(tasks, 6).schedulable

    ok = ok and sf1(tasks, 6).schedulable
    ok = ok and not sf1(tasks, 5).schedulable

    v2 = sf2(tasks, 5)
    ok = ok and v2.schedulable and not sf2(tasks, 4).schedulable
    loads = sorted(tuple(sorted(i.load for i in b))
                   for b in v2.detail["bins"])
    ok = ok and loads == [(Fraction(1, 10), Fraction(3, 10), Fraction(3, 5)),
                          (Fraction(1, 2), Fraction(1, 2))]
    elapsed = time.monotonic() - t0
    _verdict(1, ok and elapsed < 1.0,
             f"federated=7, sf1=6, sf2=5, bins {loads}, {elapsed:.3f}s")


def test_criterion_02_capacity_and_uniformity_goldens():
    ok = capacity_requirement(16, 8, 14) == Fraction(4, 3)
    ok = ok and UniformPlatform([1, Fraction(1, 3)]).uniformity \
        == Fraction(1, 3)
    ok = ok and UniformPlatform(
        [1, Fraction(1, 4), Fraction(1, 12)]).uniformity == Fraction(1, 3)
    ok = ok and UniformPlatform(
        [1, Fraction(1, 6), Fraction(1, 6)]).uniformity == 1
    _verdict(2, ok, "gamma(16,8,14)=4/3 and three uniformity values exact")


def test_criterion_03_segmentation_matches_oracle(corpus):
    t0 = time.monotonic()
    mismatches = 0
    for task in corpus:
        dec = decompose(task)
        orc = segmentation_oracle(task)
        if dec.omega != orc.omega_opt:
            mismatches += 1
    elapsed = time.monotonic() - t0
    _verdict(3, mismatches == 0 and elapsed < 60.0,
             f"{len(corpus)} DAGs, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_04_laxity_identities(corpus):
    bad = 0
    for task in corpus:
        dec = decompose(task, compute_load=True)
        met, omega = dec.metrics, dec.omega
        if sum(s.d for s in dec.stretched) != task.period:
            bad += 1
            continue
        seg_ok = all(s.c / s.d <= omega * met.utilization
                     and s.e / s.d <= omega * met.elasticity
                     for s in dec.stretched)
        subtasks = dec.decomposed.subtasks
        by_origin = {st.origin: st for st in subtasks}
        prec_ok = all(by_origin[u].deadline <= by_origin[v].release
                      for u, v in task.edges)
        # density <= omega*Gamma <= 1 implies each WCET fits its window
        fits = omega * met.elasticity <= 1
        window_ok = all(0 <= st.release < st.deadline <= task.period
                        and (not fits or st.wcet <= st.deadline - st.release)
                        for st in subtasks)
        density_ok = dec.max_vertex_density <= omega * met.elasticity
        load_ok = dec.load <= omega * met.utilization
        if not (seg_ok and prec_ok and window_ok and density_ok and load_ok):
            bad += 1
    _verdict(4, bad == 0, f"{len(corpus)} DAGs, {bad} violations, all exact")


def test_criterion_05_uniform_bound_soundness():
    t0 = time.monotonic()
    rng = random.Random(777)
    violations = 0
    for i in range(1000):
        task = random_small_task(rng, i)
        met = validate(task)
        k = rng.randint(1, 4)
        speeds = [Fraction(rng.randint(1, 8), rng.randint(1, 8))
                  for _ in range(k)]
        plat = UniformPlatform(speeds)
        shuffler = random.Random(i)

        def order(t, eligible):
            eligible = list(eligible)
            shuffler.shuffle(eligible)
            return eligible

        r = simulate_uniform(task, speeds, order=order).response_time
        r2 = simulate_uniform(task, speeds, order=order,
                              migration=False).response_time
        if r > uniform_response_bound(met, plat) \
                or r2 > weak_response_bound(met, plat):
            violations += 1
    elapsed = time.monotonic() - t0
    _verdict(5, violations == 0 and elapsed < 120.0,
             f"1000 triples, {violations} bound violations, {elapsed:.1f}s")


def test_criterion_06_dispatcher_golden_trace():
    queue = {Fraction(1): [3, 2, 1]}

    def choice(t, eligible):
        if t in queue and queue[t]:
            return queue[t].pop(0)
        return eligible[0]

    tr = simulate_dispatcher(fig1_task(),
                             [1, Fraction(1, 2), Fraction(1, 4)],
                             choice=choice)
    deadlines = [a[3] for a in tr.assignments]
    ok = deadlines == [1, 5, 5, 5, 9, 7, 9, 10, 11] and tr.response_time == 11
    ok = ok and tr.split_count == 3 and all(d > t for t, _, _, d
                                            in tr.assignments)
    _verdict(6, ok, f"deadlines {deadlines}, {tr.split_count} splits, "
             f"finish {tr.response_time}")


def test_criterion_07_split_count_bounds(corpus):
    checked = bad = 0
    for task in corpus:
        met = validate(task)
        c, l = met.work, met.critical_path
        if c == l:
            continue    # a pure chain cannot be made heavy
        d = l + (c - l) * Fraction(3, 10)
        g = capacity_requirement(c, l, d)     # = 10/3 here
        whole, frac = math.floor(g), g - math.floor(g)
        heavy = DagTask(task.id, [(v, task.wcets[v])
                                  for v in task.real_vertex_ids],
                        task.edges).with_period(d)
        n = len(heavy.real_vertex_ids)

        one_piece = [Fraction(1)] * whole + ([frac] if frac else [])
        tr1 = simulate_dispatcher(heavy, one_piece)
        two_piece = [Fraction(1)] * whole \
            + ([frac * Fraction(2, 5), frac * Fraction(3, 5)] if frac else [])
        tr2 = simulate_dispatcher(heavy, two_piece)
        checked += 1
        if tr1.split_count > n or tr2.split_count > 2 * n:
            bad += 1
    _verdict(7, checked > 0 and bad == 0,
             f"{checked} heavy variants, {bad} over the N / 2N split bounds")


def test_criterion_08_test_implication_and_capacity_range():
    rng = random.Random(2025)
    bad = 0
    for _ in range(10000):
        m = rng.randint(2, 32)
        omega = 1 + Fraction(rng.randint(0, 999), 1000)
        gamma_top = Fraction(rng.randint(1, 300), 300)
        u_sum = Fraction(rng.randint(1, 64 * m), 64)
        summary = TaskSetSummary(u_sum=u_sum, gamma_top=gamma_top,
                                 omega_top=omega)
        if decomposed_test(summary, m).schedulable:
            g = gedf_density_test(omega * u_sum, omega * gamma_top, m)
            if not g.schedulable:
                bad += 1
        b = capacity_bound(omega, m)
        if not (2 - Fraction(1, m) <= b < 4 - Fraction(2, m)):
            bad += 1
    _verdict(8, bad == 0, f"10000 summaries, {bad} violations")


def test_criterion_09_acceptance_trends():
    t0 = time.monotonic()
    methods = ("D-OUR", "F-LI", "SF1", "SF2")
    base = GenConfig(seed=20240, n_tasks=5, p=0.01, m=8, util=0.5)
    trials = 500
    util_recs = sweep("utilization", base, trials=trials, methods=methods)
    ratios = {meth: [] for meth in methods}
    for r in util_recs:
        ratios[r.method].append((r.bucket, r.ratio))
    for meth in methods:
        ratios[meth].sort()

    def crossing_of(pts):
        """50% crossing, linearly interpolated between buckets."""
        for (b0, r0), (b1, r1) in zip(pts, pts[1:]):
            if r0 >= 0.5 > r1:
                return float(b0) + float(b1 - b0) * (r0 - 0.5) / (r0 - r1)
        return None

    # Reference: D-OUR's condition at the smallest possible Omega_top = 1,
    # i.e. the global-EDF density bound U_sum <= m - (m-1) * Gamma_top,
    # counted on the same generated sets from validate() alone.  Omega >= 1
    # for every task, so D-OUR can never accept more sets than this.
    ref_counts = {}
    for bucket in DEFAULT_BUCKETS["utilization"]:
        cfg, m = _bucket_config("utilization", bucket, base)
        ref_counts[bucket] = 0
        for trial in range(trials):
            seed = trial_seed(base.seed, "utilization", bucket, trial)
            s = summarize(gen_taskset(cfg, seed=seed))
            ref_counts[bucket] += s.u_sum <= m - (m - 1) * s.gamma_top
    dour_counts = {r.bucket: r.accepted for r in util_recs
                   if r.method == "D-OUR"}
    crossing = crossing_of(ratios["D-OUR"])
    ref_crossing = crossing_of(sorted((b, n / trials)
                                      for b, n in ref_counts.items()))
    bound_ok = all(dour_counts[b] <= ref_counts[b] for b in ref_counts)
    crossing_ok = (crossing is not None and ref_crossing is not None
                   and ref_crossing - 0.1 <= crossing <= ref_crossing)
    diff = {float(b): (dour_counts[b], n) for b, n in ref_counts.items()
            if dour_counts[b] != n}

    slack = 0.02
    order_ok = all(
        s2 >= s1 - slack and s1 >= f - slack
        for (_, s2), (_, s1), (_, f) in zip(ratios["SF2"], ratios["SF1"],
                                            ratios["F-LI"]))
    mono_util_ok = all(
        all(a >= b - slack for (_, a), (_, b) in zip(pts, pts[1:]))
        for pts in ratios.values())

    proc_base = GenConfig(seed=20241, n_tasks=5, p=0.01, m=8,
                          util=Fraction(3, 8))   # total utilization 3
    proc_recs = sweep("processors", proc_base, trials=200, methods=methods)
    by_meth = {meth: [] for meth in methods}
    for r in proc_recs:
        by_meth[r.method].append((r.bucket, r.ratio))
    mono_m_ok = all(
        all(b >= a - slack
            for (_, a), (_, b) in zip(sorted(pts), sorted(pts)[1:]))
        for pts in by_meth.values())

    def fmt(x):
        return "none" if x is None else f"{x:.2f}"

    elapsed = time.monotonic() - t0
    note = (f"D-OUR 50% crossing at {fmt(crossing)} "
            f"(Omega=1 reference {fmt(ref_crossing)}, allowed "
            f"[ref-0.1, ref]), D-OUR <= reference in every bucket "
            f"{bound_ok}, (D-OUR, reference) counts where they differ "
            f"{diff}, SF2>=SF1>=F-LI {order_ok}, "
            f"monotone util {mono_util_ok}, monotone m {mono_m_ok}, "
            f"{elapsed:.0f}s")
    _verdict(9, bound_ok and crossing_ok and order_ok and mono_util_ok
             and mono_m_ok and elapsed < 600.0, note)


def test_criterion_10_gedf_simulation_honors_decomposed_test():
    checked = misses = 0
    for seed in range(40):
        cfg = GenConfig(seed=seed, n_tasks=3, p=0.1, m=8, util=0.4,
                        n_vertices=(4, 10), wcet_range=(2, 10))
        tasks = gen_taskset(cfg)
        decs = [decompose(t) for t in tasks]
        summary = summarize(tasks, omegas=[d.omega for d in decs])
        verdict = decomposed_test(summary, 10 ** 6)
        if verdict.min_m is None or not verdict.schedulable:
            continue
        m = verdict.min_m
        assert decomposed_test(summary, m).schedulable
        horizon = 10 * max(t.period for t in tasks)
        report = simulate_gedf([d.decomposed for d in decs], m, horizon)
        checked += 1
        misses += len(report.misses)
    _verdict(10, checked >= 10 and misses == 0,
             f"{checked} accepted sets simulated at minimal m, "
             f"{misses} deadline misses")
