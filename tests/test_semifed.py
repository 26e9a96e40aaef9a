import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from parasched.analysis import (TESTS, UniformPlatform, federated_allocate,
                                uniform_response_bound)
from parasched.cli import main
from parasched.errors import EmptyTaskSet, MalformedTaskSet
from parasched.gen import GenConfig, gen_taskset
from parasched.model import DagTask, TaskSet, Verdict, dump_taskset
from parasched.semifed import ContainerTask, sf1, sf2
from conftest import (chain_task, fig1_task, heavy_stub, light_stub,
                      rational_variant, sample_cases)
from reference import (Bin, CriticalPathExceedsDeadline, capacity_requirement,
                       delta_star, fewest_bins, gamma, item_id, scrape,
                       worst_fit_partition)


def appendix_set():
    pairs = [heavy_stub(1, Fraction(8, 5)), heavy_stub(2, Fraction(8, 5)),
             heavy_stub(3, Fraction(3, 2)), light_stub(4, Fraction(3, 10))]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def test_gamma_values():
    _, mets = appendix_set()
    assert [gamma(m) for m in mets[:3]] == [Fraction(8, 5), Fraction(8, 5),
                                            Fraction(3, 2)]


def test_gamma_requires_slack():
    with pytest.raises(CriticalPathExceedsDeadline):
        capacity_requirement(16, 8, 8)


def test_delta_star_goldens():
    assert delta_star(Fraction(8, 5)) == Fraction(3, 8)
    assert delta_star(Fraction(3, 2)) == Fraction(1, 3)
    assert delta_star(Fraction(2)) == 0
    # frac/2 dominates when gamma < 2
    assert delta_star(Fraction(3, 2)) == Fraction(1, 2) / Fraction(3, 2)


def test_worst_fit_decreasing_golden():
    items = [ContainerTask(i, Fraction(l, 10), Fraction(l, 10))
             for i, l in enumerate([6, 6, 5, 3])]
    bins = worst_fit_partition(items, 3)
    loads = sorted(b.load for b in bins)
    assert loads == [Fraction(3, 5), Fraction(3, 5),
                     Fraction(1, 2) + Fraction(3, 10)]


def test_worst_fit_returns_none_when_full():
    items = [ContainerTask(i, Fraction(3, 5), Fraction(3, 5))
             for i in range(3)]
    assert worst_fit_partition(items, 2) is None


def test_sf2_dominates_sf1():
    tasks, mets = appendix_set()
    for m in range(3, 9):
        if sf1(tasks, m).schedulable:
            assert sf2(tasks, m).schedulable


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=Fraction(1, 100),
                             max_value=Fraction(99, 100)),
                min_size=1, max_size=10),
       st.integers(min_value=1, max_value=12))
def test_worst_fit_never_overfills(loads, nbins):
    items = [ContainerTask(i, l, l) for i, l in enumerate(loads)]
    bins = worst_fit_partition(items, nbins)
    if bins is None:
        return
    assert all(b.load <= 1 for b in bins)
    placed = sorted(item_id(i) for b in bins for i in b.items)
    assert placed == sorted(item_id(i) for i in items)


def test_delta_star_bounds():
    rng = random.Random(5)
    for _ in range(500):
        g = Fraction(rng.randint(101, 900), 100)
        ds = delta_star(g)
        frac = g - math.floor(g)
        if frac == 0:
            assert ds == 0
        else:
            # larger half of any feasible split is at least ds
            assert ds >= frac / 2
            assert ds >= frac / g


def test_bin_running_sums_follow_placement_and_scraping():
    b = Bin(0)
    for owner, load, bound in ((1, Fraction(3, 5), Fraction(3, 8)),
                               (2, Fraction(3, 5), Fraction(1, 3)),
                               (3, Fraction(1, 10), Fraction(1, 10))):
        b.add(ContainerTask(owner=owner, load=load, split_bound=bound))
        assert b.load == sum(i.load for i in b.items)
        assert b.dstar_sum == sum(i.split_bound for i in b.items)
    spilled = scrape(b)
    assert b.load == sum(i.load for i in b.items) == 1
    assert b.dstar_sum == sum(i.split_bound for i in b.items)
    assert sum(i.load for i in spilled) == Fraction(3, 10)


# Worst-fit as it was before it took the least-loaded bin directly: the
# trial sum of every bin, then the least loaded of those that fit.  Copied
# verbatim but for the names, as the reference the packing must match.
def _reference_worst_fit_into(items, bins):
    for item in items:
        candidates = [b for b in bins if b.load + item.load <= 1]
        if not candidates:
            return False
        best = min(candidates, key=lambda b: (b.load, b.index))
        best.add(item)
    return True


def _reference_sf2(tasks, m):
    plan = reference.classify(tasks, "sf2")
    if isinstance(plan, Verdict):
        return plan
    dedicated, fractional, lights = plan
    used = sum(dedicated.values())
    if used > m:
        return Verdict("sf2", False, reason="insufficient dedicated")

    bins = [Bin(i) for i in range(m - used)]
    open_bins = list(bins)
    over_bins = []

    items = sorted(fractional + lights,
                   key=lambda i: (-i.split_bound, str(item_id(i))))
    for item in items:
        candidates = [b for b in open_bins
                      if b.dstar_sum + item.split_bound <= 1]
        if not candidates:
            return Verdict("sf2", False, reason="sched* failure")
        best = min(candidates, key=lambda b: (b.dstar_sum, b.index))
        best.add(item)
        if best.load > 1:
            open_bins.remove(best)
            over_bins.append(best)

    remainders = []
    for b in over_bins:
        remainders.extend(scrape(b))

    ordered = sorted(remainders, key=lambda i: (-i.load, str(item_id(i))))
    if not _reference_worst_fit_into(ordered, open_bins):
        return Verdict("sf2", False, reason="remainder partition failure")

    return Verdict("sf2", True, detail={"dedicated": dedicated,
                                        "bins": [b.items for b in bins]})


def test_worst_fit_matches_trial_sums_on_sample(monkeypatch):
    # the int plans against the Fraction ones packing by trial sums
    cases = sample_cases()
    verdicts = [(federated_allocate(ts, m), sf1(ts, m), sf2(ts, m))
                for ts, m in cases]
    monkeypatch.setattr(reference, "worst_fit_into",
                        _reference_worst_fit_into)
    assert verdicts == [(reference.federated_allocate(ts, m),
                         reference.sf1(ts, m), _reference_sf2(ts, m))
                        for ts, m in cases]
    reasons = {v.reason for triple in verdicts for v in triple}
    assert {"", "partition failure", "sched* failure"} <= reasons


# Federated allocation as it was before it read ``_classify``: its own
# heavy/light loop, ceil(gamma) per heavy task and a plain worst-fit item.
# Copied verbatim but for the names, as the reference F-LI must match; the
# item carries an owner and a label in place of its id, which the Fraction
# worst-fit in ``reference`` breaks ties by.
@dataclass(frozen=True)
class _ReferenceWfItem:
    owner: object
    load: Fraction
    label: str = "light"

    @property
    def split_bound(self) -> Fraction:
        return self.load             # never split


def _reference_federated_allocate(tasks, m):
    dedicated = {}
    light_items = []
    for task in tasks:
        met = task.metrics
        if met.heavy:
            try:
                g = gamma(met)
            except CriticalPathExceedsDeadline:
                return Verdict("federated", False,
                               reason="critical path exceeds deadline",
                               detail={"task": task.id})
            dedicated[task.id] = math.ceil(g)
        else:
            light_items.append(_ReferenceWfItem(owner=task.id,
                                                load=met.density))

    used = sum(dedicated.values())
    detail = {"dedicated": dedicated}
    if used > m:
        return Verdict("federated", False,
                       reason=f"needs {used} dedicated processors",
                       detail=detail)
    min_m = used + fewest_bins(light_items)
    bins = worst_fit_partition(light_items, m - used)
    if bins is None:
        return Verdict("federated", False, min_m=min_m,
                       reason="light tasks do not fit", detail=detail)
    detail["bins"] = [[(i.owner, i.load) for i in b.items] for b in bins]
    return Verdict("federated", True, min_m=min_m, detail=detail)


def sf2_gap_set():
    """A heavy task with C = 1719/25, L = 21 and D = 45, so gamma = 199/100,
    and five lights: F-LI and SF1 accept it on four processors, SF2 does
    not."""
    heavy = heavy_stub(0, Fraction(199, 100), c=Fraction(1719, 25), l=21)[0]
    assert heavy.deadline == 45
    return [heavy] + [light_stub(i, d)[0] for i, d in enumerate(
        (Fraction(33, 100), Fraction(21, 50), Fraction(13, 100),
         Fraction(2, 5), Fraction(33, 50)), start=1)]


def _small_cases():
    """The appendix set, fig 1, four lights of density 1/2, three lights
    just over one processor's load, two heavy tasks (gamma 8/5 and 9/5)
    with a light one, whose containers SF2 splits on four processors,
    ``sf2_gap_set``, and three lights of one density given against the
    order of their ids, which only the tie-break sorts; each on 1 to 8
    processors."""
    sets = [appendix_set()[0], [fig1_task()],
            [chain_task(1, wcet=1, period=2) for _ in range(4)],
            [light_stub(i, d)[0] for i, d in enumerate(
                (Fraction(1, 2), Fraction(1, 2), Fraction(1, 200)))],
            [heavy_stub(0, Fraction(8, 5))[0],
             heavy_stub(1, Fraction(9, 5))[0],
             light_stub(2, Fraction(1, 2))[0]],
            sf2_gap_set(),
            [light_stub(i, Fraction(1, 3))[0] for i in (2, 1, 0)]]
    return [(tasks, m) for tasks in sets for m in range(1, 9)]


def test_sf2_can_reject_a_set_sf1_accepts():
    """A property of the heuristic, not of semi-federated scheduling: SF2's
    stage 1 orders by delta* = 99/199, so the container shares a bin with
    lights, that bin goes over 1 and the scraped remainders fit nowhere."""
    tasks = sf2_gap_set()
    f_li, one, two = (test(tasks, 4) for test in (federated_allocate, sf1,
                                                   sf2))
    assert f_li.schedulable and one.schedulable
    assert f_li.detail["dedicated"] == {0: 2}
    assert one.detail["dedicated"] == {0: 1}
    assert [sum(i.load for i in b) for b in one.detail["bins"]] \
        == [Fraction(99, 100), Fraction(99, 100), Fraction(19, 20)]
    assert not two.schedulable
    assert two.reason == "remainder partition failure"
    assert delta_star(Fraction(199, 100)) == Fraction(99, 199)


def _stub_set(gammas, densities):
    return [heavy_stub(i, g)[0] for i, g in enumerate(gammas)] \
        + [light_stub(len(gammas) + i, d)[0] for i, d in enumerate(densities)]


def _rejects_empty(tasks, m) -> bool:
    """True, once F-LI, SF1 and SF2 have each raised EmptyTaskSet, for an
    empty set; False for any other."""
    if tasks:
        return False
    for test in (federated_allocate, sf1, sf2):
        with pytest.raises(EmptyTaskSet):
            test(tasks, m)
    return True


_STUB_SETS = (st.lists(st.fractions(min_value=Fraction(101, 100),
                                    max_value=Fraction(9, 2)), max_size=5),
              st.lists(st.fractions(min_value=Fraction(1, 100),
                                    max_value=Fraction(99, 100)), max_size=6),
              st.integers(min_value=1, max_value=24))


def test_sf1_accepts_every_set_f_li_accepts_on_sample():
    # an F-LI plan is an SF1 plan with each container alone on a bin
    accepted = 0
    for tasks, m in sample_cases() + _small_cases():
        if federated_allocate(tasks, m).schedulable:
            accepted += 1
            assert sf1(tasks, m).schedulable, m
    assert accepted > 0


@settings(max_examples=200, deadline=None)
@given(*_STUB_SETS)
def test_sf1_accepts_every_set_f_li_accepts_on_stub_sets(gammas, densities,
                                                         m):
    tasks = _stub_set(gammas, densities)
    if _rejects_empty(tasks, m):
        return
    if federated_allocate(tasks, m).schedulable:
        assert sf1(tasks, m).schedulable


def test_federated_matches_its_own_loop():
    cases = sample_cases() + _small_cases()
    for tasks, m in cases:
        v = federated_allocate(tasks, m)
        ref = _reference_federated_allocate(tasks, m)
        assert (v.schedulable, v.min_m, v.reason) \
            == (ref.schedulable, ref.min_m, ref.reason)
        assert v.detail["dedicated"] == ref.detail["dedicated"]
        assert [[(i.owner, i.load) for i in b]
                for b in v.detail.get("bins", [])] \
            == ref.detail.get("bins", [])
    outcomes = {_reference_federated_allocate(ts, m).reason
                for ts, m in cases}
    assert {"", "light tasks do not fit"} <= outcomes
    assert any(r.startswith("needs ") for r in outcomes)


def test_min_m_is_exact_on_sample():
    """Every verdict that reports min_m accepts on min_m processors and,
    when min_m > 1, rejects on one fewer."""
    checked = set()
    for tasks, m in sample_cases():
        for name, method in TESTS.items():
            min_m = method.run(tasks, m).min_m
            if min_m is None:
                continue
            checked.add(name)
            assert method.run(tasks, min_m).schedulable, (name, min_m)
            if min_m > 1:
                assert not method.run(tasks, min_m - 1).schedulable, \
                    (name, min_m)
    assert checked == {"D-OUR", "F-LI"}


def _check_plan(tasks, m, verdict):
    """Checks an accepting F-LI, SF1 or SF2 plan against the task set: the
    dedicated processors and containers of each heavy task, every light
    task in one bin, no bin above load 1, and m processors in all.  For SF1
    and SF2, the uniform bound (C + lambda*L)/S on each heavy task's own
    platform, its dedicated processors and its containers, meets D."""
    plan = verdict.detail
    items = [i for b in plan["bins"] for i in b]
    assert all(i.load > 0 for i in items)
    for task in tasks:
        met = task.metrics
        mine = sorted((i.load for i in items if i.owner == task.id),
                      reverse=True)
        if not met.heavy:
            assert mine == [met.density] * len(mine)
            continue
        g = ((met.work - met.critical_path)
             / (task.deadline - met.critical_path))
        frac = g - math.floor(g)
        if verdict.test == "federated":
            assert plan["dedicated"][task.id] == math.ceil(g)
            assert mine == []
            continue
        assert plan["dedicated"][task.id] == math.floor(g)
        assert sum(mine) == frac
        platform = UniformPlatform([1] * plan["dedicated"][task.id] + mine)
        assert uniform_response_bound(met, platform) <= task.deadline
        if verdict.test == "sf1":
            assert mine == ([frac] if frac else [])
        else:
            assert len(mine) <= 2
            assert not mine or mine[0] >= max(frac / 2, frac / g)
    lights = sorted(str(t.id) for t in tasks if not t.metrics.heavy)
    assert sorted(str(i.owner) for i in items if i.light) == lights
    assert all(i.light == (i.label == "light") for i in items)
    for b in plan["bins"]:
        assert sum(i.load for i in b) <= 1
    assert sum(plan["dedicated"].values()) + len(plan["bins"]) == m


def _verify_and_rational_cases(corpus):
    """Sets shaped as perfbench's ``verify`` workload (three tasks of 14 to
    16 vertices, gamma-formula periods, m = 4), nearly all light, and sets
    of three rational-WCET variants of the corpus DAGs, a fifth of them
    heavy, on 2 to 8 processors."""
    verify = [gen_taskset(GenConfig(n_tasks=3, p=0.1, m=4, util=util / 10,
                                    n_vertices=(14, 16),
                                    period_mode="gamma-formula"), seed=seed)
              for seed in range(10) for util in range(1, 11)]
    rng = random.Random(11)
    variants = [rational_variant(t, rng) for t in corpus]
    return [(tasks, 4) for tasks in verify] \
        + [(variants[i:i + 3], m) for i in range(0, len(variants) - 2, 3)
           for m in range(2, 9)]


def _assert_matches_reference(tasks, m):
    """The int plans of F-LI, SF1 and SF2 on ``tasks`` and m, each equal to
    the Fraction plan in ``reference``, detail included."""
    verdicts = (federated_allocate(tasks, m), sf1(tasks, m), sf2(tasks, m))
    assert verdicts == (reference.federated_allocate(tasks, m),
                        reference.sf1(tasks, m), reference.sf2(tasks, m))
    return verdicts


def test_accepted_plans_hold_on_sample(corpus):
    checked = {"federated": 0, "sf1": 0, "sf2": 0}
    split = 0
    for tasks, m in (sample_cases() + _small_cases()
                     + _verify_and_rational_cases(corpus)):
        for v in _assert_matches_reference(tasks, m):
            if v.schedulable:
                _check_plan(tasks, m, v)
                checked[v.test] += 1
                split += v.test == "sf2" and any(
                    i.label.endswith("'") for b in v.detail["bins"]
                    for i in b)
    assert min(checked.values()) > 0 and split > 0


@settings(max_examples=300, deadline=None)
@given(*_STUB_SETS)
# heavy tasks alone: on m = 7, SF2 splits one of their containers
@example([Fraction(8, 5), Fraction(9, 5), Fraction(7, 2)], [], 7)
def test_accepted_plans_hold_on_stub_sets(gammas, densities, m):
    tasks = _stub_set(gammas, densities)
    if _rejects_empty(tasks, m):
        return
    for v in _assert_matches_reference(tasks, m):
        if v.schedulable:
            _check_plan(tasks, m, v)


def _outcome(run, tasks, m):
    """A test's verdict as its fields, or the type and message of what it
    raised."""
    try:
        v = run(tasks, m)
    except Exception as exc:        # a stub has no DAG for D-OUR
        return type(exc), str(exc)
    return v.test, v.schedulable, v.min_m, v.reason, v.detail


def _assert_the_view_changes_no_verdict(tasks, m):
    # the five tests share one view, in registry order, so each reads what
    # the earlier ones built; each must answer as on a list of its own
    view = TaskSet.of(tasks)
    for name, method in TESTS.items():
        assert _outcome(method.run, view, m) \
            == _outcome(method.run, list(tasks), m), (name, m)


def test_the_view_changes_no_verdict_on_corpus_and_sample(corpus):
    for i in range(0, len(corpus), 5):
        _assert_the_view_changes_no_verdict(corpus[i:i + 5], 1 + i % 8)
    for tasks, m in sample_cases():
        _assert_the_view_changes_no_verdict(tasks, m)


@settings(max_examples=200, deadline=None)
@given(*_STUB_SETS)
def test_the_view_changes_no_verdict_on_stub_sets(gammas, densities, m):
    _assert_the_view_changes_no_verdict(_stub_set(gammas, densities), m)


def test_the_view_changes_no_verdict_on_error_paths():
    shape = DagTask("t", [(0, 2), (1, 3)], [(0, 1)])
    # task 0: a chain of three WCET-4 vertices, L = 12 >= D = 10
    long = DagTask(0, [(i, 4) for i in range(3)], [(0, 1), (1, 2)])
    cases = [[], [shape], [fig1_task(), shape],
             [long.with_period(10), chain_task(1, wcet=1, period=2)],
             [_fork(0), _fork("0")]]
    for tasks in cases:
        _assert_the_view_changes_no_verdict(tasks, 4)
    # the shared rejection of the long task is rebuilt in each plan's name
    view = TaskSet.of(cases[3])
    assert [(v.test, v.reason, v.detail) for v in (
        TESTS[name].run(view, 4) for name in ("F-LI", "SF1", "SF2"))] \
        == [(test, "critical path exceeds deadline", {"task": 0})
            for test in ("federated", "sf1", "sf2")]


def _fork(task_id):
    """A fork task with C = 20, L = 12 and D = T = 14, so gamma = 4."""
    return DagTask(task_id, list(enumerate((1, 10, 8, 1))),
                   [(0, 1), (0, 2), (1, 3), (2, 3)]).with_period(14)


def test_repeated_heavy_id_is_malformed():
    lights = [chain_task(1, wcet=1, period=2) for _ in range(4)]
    for test in (federated_allocate, sf1, sf2):
        assert not test([_fork(0), _fork(1)], 4).schedulable
        for ids in ((0, 0), (0, "0")):
            with pytest.raises(MalformedTaskSet, match="repeats"):
                test([_fork(i) for i in ids], 4)
        assert test(lights, 2).schedulable      # light ids may repeat


def test_critical_path_at_deadline_rejects_alike(tmp_path, capsys):
    # task 0 is a chain of three WCET-4 vertices: L = 12 >= D = 10
    path = tmp_path / "set.json"
    with open(path, "w") as fp:
        dump_taskset([DagTask(0, [(i, 4) for i in range(3)],
                              [(0, 1), (1, 2)]).with_period(10),
                      DagTask(1, [(0, 1)], []).with_period(10)], fp)
    assert main(["analyze", str(path), "--m", "4"]) == 0
    rows = {row["test"]: row for row in
            map(json.loads, capsys.readouterr().out.splitlines())}
    for test in ("federated", "sf1", "sf2"):
        assert rows[test]["schedulable"] is False
        assert rows[test]["reason"] == "critical path exceeds deadline"
        assert rows[test]["detail"] == {"task": 0}
