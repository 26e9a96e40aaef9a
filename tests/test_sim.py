import random
from fractions import Fraction

from parasched.analysis import (UniformPlatform, uniform_response_bound,
                                weak_response_bound)
from parasched.decomposition import decompose
from parasched.gen import GenConfig, gen_taskset
from parasched.model import DagTask, validate
from parasched.sim import (GedfReport, simulate_dispatcher, simulate_gedf,
                           simulate_uniform)
from conftest import chain_task, fig1_task, random_small_task

SPEEDS = [1, Fraction(1, 2), Fraction(1, 4)]


def paper_order(t, eligible):
    """Tie order of the worked trace: at t=1 pick v4, v3, v2 (ids 3,2,1);
    at t=5 put v2 back on the fastest processor first."""
    if t == 1:
        return [3, 2, 1]
    if t == 5:
        return [1, 2]
    return sorted(eligible)


def test_uniform_golden_trace():
    tr = simulate_uniform(fig1_task(), SPEEDS, order=paper_order)
    assert tr.response_time == 11
    migs = [(t, v) for t, kind, v, *_ in tr.events if kind == "migrate"]
    assert (Fraction(5), 1) in migs    # v2 moves to the fastest at 5
    assert (Fraction(9), 4) in migs    # v5 moves to the fastest at 9
    times = [e[0] for e in tr.events]
    assert times == sorted(times)


def test_chain_runs_on_fastest():
    task = chain_task(4, wcet=3)
    tr = simulate_uniform(task, SPEEDS)
    assert tr.response_time == 12    # L / fastest speed
    assert not tr.migrations


def _dispatcher_choice():
    queue = {Fraction(1): [3, 2, 1]}

    def choice(t, eligible):
        if t in queue and queue[t]:
            return queue[t].pop(0)
        return eligible[0]
    return choice


def test_dispatcher_golden_trace():
    tr = simulate_dispatcher(fig1_task(), SPEEDS,
                             choice=_dispatcher_choice())
    assert tr.response_time == 11
    assert tr.split_count == 3
    deadlines = [a[3] for a in tr.assignments]
    assert deadlines == [1, 5, 5, 5, 9, 7, 9, 10, 11]


def test_dispatcher_matches_uniform_workload_on_golden():
    disp = simulate_dispatcher(fig1_task(), SPEEDS,
                               choice=_dispatcher_choice())
    uni = simulate_uniform(fig1_task(), SPEEDS, order=paper_order)

    def uniform_done(t):
        total = Fraction(0)
        speeds = sorted((Fraction(s) for s in SPEEDS), reverse=True)
        for t0, t1, running in uni.intervals:
            overlap = max(Fraction(0), min(t, t1) - t0)
            total += overlap * sum(speeds[i] for i in running)
        return total

    def dispatcher_done(t):
        total = Fraction(0)
        for start, idx, _, deadline in disp.assignments:
            delta = Fraction([1, Fraction(1, 2), Fraction(1, 4)][idx])
            overlap = max(Fraction(0), min(t, deadline) - start)
            total += overlap * delta
        return total

    for t in sorted({a[0] for a in disp.assignments} | {disp.response_time}):
        assert dispatcher_done(t) == uniform_done(t)


def test_dispatcher_deadline_respect():
    # each assignment's workload share fits the container rate exactly
    tr = simulate_dispatcher(fig1_task(), SPEEDS,
                             choice=_dispatcher_choice())
    for (t, idx, exe, deadline) in tr.assignments:
        assert deadline > t


def test_uniform_bounds_random_sample():
    rng = random.Random(99)
    for i in range(100):
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
        assert r <= uniform_response_bound(met, plat)
        r2 = simulate_uniform(task, speeds, order=order,
                              migration=False).response_time
        assert r2 <= weak_response_bound(met, plat)


def test_gedf_single_chain_one_processor():
    task = chain_task(3, wcet=2, period=8)   # U = 6/8
    dec = decompose(task).decomposed
    report = simulate_gedf([dec], 1, 80)
    assert report.ok


def test_gedf_overload_misses():
    # two chains with U=1 each on one processor must miss
    tasks = [chain_task(2, wcet=2, period=4) for _ in range(2)]
    decs = [decompose(t).decomposed for t in tasks]
    report = simulate_gedf(decs, 1, 40)
    assert not report.ok


# The Fraction engine that integer time replaced, copied verbatim but for
# the name, as the reference ``simulate_gedf`` must match.
def _reference_simulate_gedf(tasks, m, horizon):
    """Preemptive global EDF over the periodic subtask jobs of decomposed
    tasks, synchronous release, checked up to ``horizon``."""
    horizon = Fraction(horizon)
    jobs = []   # [release, deadline, remaining, (task, subtask, k)]
    for dt in tasks:
        for si, sub in enumerate(dt.subtasks):
            if sub.wcet == 0:
                continue
            k = 0
            while k * dt.period + sub.release < horizon:
                jobs.append([k * dt.period + sub.release,
                             k * dt.period + sub.deadline,
                             Fraction(sub.wcet), (dt.task_id, si, k)])
                k += 1
    jobs.sort(key=lambda j: (j[0], j[1], j[3]))

    misses = []
    t = Fraction(0)
    pending = []
    i = 0
    while t < horizon:
        while i < len(jobs) and jobs[i][0] <= t:
            pending.append(jobs[i])
            i += 1
        active = sorted((j for j in pending if j[2] > 0),
                        key=lambda j: (j[1], j[3]))
        if not active:
            if i >= len(jobs):
                break
            t = jobs[i][0]
            continue
        run = active[:m]
        # next event: a completion, a release, or the horizon
        dt_candidates = [j[2] for j in run]
        if i < len(jobs):
            dt_candidates.append(jobs[i][0] - t)
        dt_candidates.append(horizon - t)
        step = min(c for c in dt_candidates if c > 0)
        for j in run:
            j[2] -= step
        t += step
        for j in list(pending):
            if j[2] == 0:
                pending.remove(j)
            elif j[1] <= t:
                misses.append((j[3], j[1], j[2]))
                pending.remove(j)
    for j in pending:
        if j[2] > 0 and j[1] <= horizon:
            misses.append((j[3], j[1], j[2]))
    return GedfReport(misses=misses, horizon=horizon)


def _assert_gedf_matches_reference(decs, m, horizon):
    report = simulate_gedf(decs, m, horizon)
    ref = _reference_simulate_gedf(decs, m, horizon)
    assert (report.misses, report.horizon) == (ref.misses, ref.horizon)
    assert all(type(deadline) is type(left) is Fraction
               for _, deadline, left in report.misses)
    return report


def test_gedf_matches_reference_on_verify_sets():
    # the sets the benchmark's verify workload simulates, on 1, 2 and 4
    # processors over two of the largest periods
    for seed, util in ((1, 0.5), (2, 0.6), (3, 0.9)):
        config = GenConfig(n_tasks=3, p=0.1, m=4, util=util,
                           n_vertices=(14, 16), period_mode="gamma-formula")
        tasks = gen_taskset(config, seed=seed)
        decs = [decompose(t).decomposed for t in tasks]
        horizon = 2 * max(t.period for t in tasks)
        assert horizon.denominator > 1
        for m in (1, 2, 4):
            report = _assert_gedf_matches_reference(decs, m, horizon)
            assert report.misses or m > 1


def test_gedf_matches_reference_on_rational_wcets():
    tasks = [DagTask("a", [(0, "1/3"), (1, "5/7"), (2, 1)],
                     [(0, 1), (0, 2)], period="9/4", deadline="9/4"),
             DagTask("b", [(0, "5/7"), (1, "1/3")], [(0, 1)],
                     period="3/2", deadline="3/2")]
    decs = [decompose(t).decomposed for t in tasks]
    for m in (1, 2):
        report = _assert_gedf_matches_reference(decs, m, Fraction(67, 5))
        assert report.horizon == Fraction(67, 5)
        assert report.misses or m > 1
