"""Semi-federated scheduling: container-task construction and partitioning.

A heavy task with capacity requirement gamma = (C-L)/(D-L) gets
floor(gamma) dedicated processors; the fractional remainder becomes one
container task (SF1) or up to two (SF2, split on demand during bin
packing).  Containers and light tasks share the remaining processors under
partitioned EDF with worst-fit packing.  Federated scheduling (F-LI) is
the same plan with each fractional container rounded up to a processor.

Each test classifies the tasks once and decides on ints: the loads and
split bounds of one call are scaled to ``den``, the LCM of their
denominators, so every sum, compare and tie-break is one over ints.  The
``ContainerTask`` Fractions are built only for an accepting plan.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EmptyTaskSet, MalformedTaskSet
from .model import DagTask, Verdict, check_m


@dataclass(frozen=True)
class ContainerTask:
    owner: object            # owning task id, or the light task itself
    load: Fraction           # delta: load bound, or density for light tasks
    split_bound: Fraction    # delta*: minimal larger part when divided
    light: bool = False
    label: str = ""


def _classify(tasks, test: str):
    """The plan F-LI, SF1 and SF2 share, as ints: (dedicated, fractional,
    lights).  ``dedicated`` maps each heavy task's id to floor(gamma);
    ``fractional`` holds (id, p, q), gamma = p/q in lowest terms, for each
    heavy task whose gamma is not an integer; ``lights`` holds (id, C/D)
    for each light task.  Or ``test``'s rejection naming a heavy task with
    L >= D.  A heavy task id repeated as a string raises
    MalformedTaskSet, and no task at all EmptyTaskSet."""
    if not tasks:
        raise EmptyTaskSet(f"{test}: cannot test an empty task set")
    dedicated = {}
    fractional = []
    lights = []
    for task in tasks:
        met = task.metrics
        if not met.heavy:
            lights.append((task.id, met.density))
            continue
        if str(task.id) in map(str, dedicated):
            raise MalformedTaskSet(f"heavy task id {task.id!r} repeats")
        # gamma = (C-L)/(D-L) on the numerators and denominators of C, L, D
        c, cpl, d = met.work, met.critical_path, task.deadline
        slack = d.numerator * cpl.denominator - cpl.numerator * d.denominator
        if slack <= 0:
            return Verdict(test, False,
                           reason="critical path exceeds deadline",
                           detail={"task": task.id})
        p = (c.numerator * cpl.denominator
             - cpl.numerator * c.denominator) * d.denominator
        q = slack * c.denominator
        g = math.gcd(p, q)
        p, q = p // g, q // g
        dedicated[task.id] = p // q
        if q > 1:
            fractional.append((task.id, p, q))
    return dedicated, fractional, lights


def _containers(fractional, lights):
    """The containers over one denominator: ``den`` and, fractional ones
    first, (load, delta*, owner, label, density) with load and delta* times
    ``den``; a light task's delta* is its load, and it keeps its density
    for the plan.  The container of gamma = p/q has load frac(gamma) = r/q
    and delta* = max(frac/2, frac/gamma), the minimal larger part when it
    is divided in two: r/p when gamma <= 2, r/(2q) above; each row below
    holds r and the two denominators."""
    rows = [(owner, "frac", p % q, q, min(p, 2 * q), None)
            for owner, p, q in fractional] + [
        (owner, "light", x.numerator, x.denominator, x.denominator, x)
        for owner, x in lights]
    den = math.lcm(*(row[3] for row in rows), *(row[4] for row in rows))
    return den, [(r * (den // b), r * (den // d), owner, label, x)
                 for owner, label, r, b, d, x in rows]


def _order(containers, field: int) -> list:
    """The containers by load (``field`` 0) or delta* (1), non-increasing;
    ties by the string of (str(owner), label), then input order."""
    return sorted(containers,
                  key=lambda c: (-c[field], str((str(c[2]), c[3]))))


def _worst_fit(containers, bins: list, cap: int, heap=None) -> bool:
    """Place the containers, in order, each on the least-loaded bin, ties
    by index, as no bin with a higher load fits one that this bin cannot.
    ``heap`` holds the (load, index) of each bin open to them, all empty
    ones when not given, and is updated in place.  False at the first
    container that would take a bin above ``cap``."""
    if heap is None:
        heap = [(0, i) for i in range(len(bins))]
    for c in containers:
        if not heap or heap[0][0] + c[0] > cap:
            return False
        load, i = heap[0]
        heapq.heapreplace(heap, (load + c[0], i))
        bins[i].append(c)
    return True


def _plan(dedicated, bins, den) -> dict:
    """An accepting plan's ``detail``, its containers as Fractions."""
    return {"dedicated": dedicated, "bins": [[
        ContainerTask(owner, x, x, True, label) if x is not None else
        ContainerTask(owner, Fraction(load, den), Fraction(bound, den),
                      False, label)
        for load, bound, owner, label, x in b] for b in bins]}


def sf1(tasks: Sequence[DagTask], m: int) -> Verdict:
    """First semi-federated algorithm (Jiang et al., 2017): one fractional
    container per heavy task; containers and light tasks partitioned by
    worst-fit decreasing.  Task model: sporadic DAG tasks with D <= T, heavy
    iff C > D, gamma = (C-L)/(D-L); a heavy task with L >= D is rejected,
    named in ``detail["task"]``.  Raises ``ValueError`` unless m is an int
    >= 1."""
    check_m(m)
    plan = _classify(tasks, "sf1")
    if isinstance(plan, Verdict):
        return plan
    dedicated, fractional, lights = plan
    used = sum(dedicated.values())
    if used > m:
        return Verdict("sf1", False, reason="insufficient dedicated")
    den, containers = _containers(fractional, lights)
    bins = [[] for _ in range(m - used)]
    if not _worst_fit(_order(containers, 0), bins, den):
        return Verdict("sf1", False, reason="partition failure")
    return Verdict("sf1", True, detail=_plan(dedicated, bins, den))


def sf2(tasks: Sequence[DagTask], m: int) -> Verdict:
    """Second semi-federated algorithm (Jiang et al., 2017): containers may
    be split in two.  Its task model is that of ``sf1``.

    Stage 1 packs by the split lower bounds delta*; a bin whose real load
    exceeds 1 is closed, and stage 2 scrapes it down to load exactly 1,
    emitting remainder containers.  Stage 3 worst-fit places the
    remainders on the bins still open.

    SF2 can reject a set that SF1 accepts.  On m = 4, a heavy task with
    C = 1719/25, L = 21 and D = 45 (gamma = 199/100) and lights of density
    33/100, 21/50, 13/100, 2/5 and 33/50 pass SF1 (and F-LI); stage 1
    orders by delta* = 99/199, so the container lands beside lights, its
    bin goes over 1, and the remainders do not fit ("remainder partition
    failure").  Raises ``ValueError`` unless m is an int >= 1.
    """
    check_m(m)
    plan = _classify(tasks, "sf2")
    if isinstance(plan, Verdict):
        return plan
    dedicated, fractional, lights = plan
    used = sum(dedicated.values())
    if used > m:
        return Verdict("sf2", False, reason="insufficient dedicated")
    den, containers = _containers(fractional, lights)

    bins = [[] for _ in range(m - used)]
    loads = [0] * len(bins)
    open_bins = [(0, i) for i in range(len(bins))]   # (delta* sum, index)
    remainders = []
    for c in _order(containers, 1):
        if not open_bins or open_bins[0][0] + c[1] > den:
            return Verdict("sf2", False, reason="sched* failure")
        bound_sum, i = open_bins[0]
        bins[i].append(c)
        loads[i] += c[0]
        if loads[i] > den:
            heapq.heappop(open_bins)
            remainders += _scrape(bins[i], loads[i] - den)
            loads[i] = den
        else:
            heapq.heapreplace(open_bins, (bound_sum + c[1], i))

    open_bins = [(loads[i], i) for _, i in open_bins]
    heapq.heapify(open_bins)
    if not _worst_fit(_order(remainders, 0), bins, den, open_bins):
        return Verdict("sf2", False, reason="remainder partition failure")
    return Verdict("sf2", True, detail=_plan(dedicated, bins, den))


def _scrape(items: list, excess: int) -> list:
    """Split containers on an overfull bin, in place, until its load has
    dropped by ``excess``.

    Every split keeps at least delta* on the bin; the excess containers are
    returned for replacement elsewhere; a light task (delta* = load) stays.
    """
    out = []
    for pos, (load, bound, owner, label, _) in enumerate(items):
        kept = load - excess if load - bound > excess else bound
        if kept == load:
            continue
        items[pos] = (kept, bound, owner, label + "'", None)
        out.append((load - kept, load - kept, owner, label + "''", None))
        excess -= load - kept
        if excess == 0:
            break
    assert excess == 0, "scrape could not reduce the bin to load 1"
    return out
