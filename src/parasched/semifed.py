"""Semi-federated scheduling: container-task construction and partitioning.

A heavy task with capacity requirement gamma = (C-L)/(D-L) gets
floor(gamma) dedicated processors; the fractional remainder becomes one
container task (SF1) or up to two (SF2, split on demand during bin
packing).  Containers and light tasks share the remaining processors under
partitioned EDF with worst-fit packing.  Federated scheduling (F-LI) is
the same plan with each fractional container rounded up to a processor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CriticalPathExceedsDeadline, MalformedTaskSet
from .model import DagTask, TaskMetrics, Verdict


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


@dataclass(frozen=True)
class ContainerTask:
    owner: object            # owning task id, or the light task itself
    load: Fraction           # delta: load bound, or density for light tasks
    split_bound: Fraction    # delta*: minimal larger part when divided
    light: bool = False
    label: str = ""

    @property
    def item_id(self):
        return (str(self.owner), self.label)


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
    ordered = sorted(items, key=lambda i: (-i.load, str(i.item_id)))
    return bins if worst_fit_into(ordered, bins) else None


def _classify(tasks, test: str):
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


def sf1(tasks: Sequence[DagTask], m: int) -> Verdict:
    """First semi-federated algorithm (Jiang et al., 2017): one fractional
    container per heavy task; containers and light tasks partitioned by
    worst-fit decreasing.  Task model: sporadic DAG tasks with D <= T, heavy
    iff C > D, gamma = (C-L)/(D-L); a heavy task with L >= D is rejected,
    named in ``detail["task"]``."""
    plan = _classify(tasks, "sf1")
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


def sf2(tasks: Sequence[DagTask], m: int) -> Verdict:
    """Second semi-federated algorithm (Jiang et al., 2017): containers may
    be split in two.  Its task model is that of ``sf1``.

    Stage 1 packs by the split lower bounds delta*; a bin whose real load
    exceeds 1 is closed, and stage 2 scrapes it down to load exactly 1,
    emitting remainder containers.  Stage 3 worst-fit places the
    remainders on the bins still open.
    """
    plan = _classify(tasks, "sf2")
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
                   key=lambda i: (-i.split_bound, str(i.item_id)))
    for item in items:
        best = min(open_bins, key=lambda b: (b.dstar_sum, b.index),
                   default=None)
        if best is None or best.dstar_sum + item.split_bound > 1:
            return Verdict("sf2", False, reason="sched* failure")
        best.add(item)
        if best.load > 1:
            open_bins.remove(best)
            remainders += _scrape(best)

    ordered = sorted(remainders, key=lambda i: (-i.load, str(i.item_id)))
    if not worst_fit_into(ordered, open_bins):
        return Verdict("sf2", False, reason="remainder partition failure")

    return Verdict("sf2", True, detail={"dedicated": dedicated,
                                        "bins": [b.items for b in bins]})


def _scrape(b: Bin) -> list:
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
