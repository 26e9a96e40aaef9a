"""Schedulability tests and response-time bounds.

Covers the density/load global-EDF test, the decomposition-based processor
count test, federated allocation, the capacity-bound baseline, and
response-time bounds for a single DAG on a uniform (heterogeneous speed)
platform.  Everything is exact rational arithmetic; the irrational
constant of the capacity-bound baseline is compared by squaring.

``TESTS`` is the one ordered registry of the tests that the sweeps and
``parasched analyze`` run.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .decomposition import segment_omega
from .errors import ConstrainedDeadline
from .model import (DagTask, TaskMetrics, TaskSetSummary, Verdict,
                    as_fraction, check_m, scale_speeds, summarize)
from .semifed import (_classify, _containers, _order, _plan, _worst_fit,
                      sf1, sf2)


class UniformPlatform:
    """Processors with speeds sorted non-increasing; S_x are prefix sums and
    lambda = max_x (S_m - S_x) / delta_x is the uniformity."""

    def __init__(self, speeds: Sequence):
        scale, ints = scale_speeds(speeds)
        ints.sort(reverse=True)
        self.speeds = tuple(Fraction(s, scale) for s in ints)
        total = sum(ints)
        self.total_speed = Fraction(total, scale)
        self.uniformity = max(Fraction(total - sx, dx) for sx, dx
                              in zip(itertools.accumulate(ints), ints))


def gedf_density_test(ell_sum: Fraction, delta_top: Fraction, m: int
                      ) -> Verdict:
    """Global EDF density/load test: ell_sum <= m - (m-1) * delta_top.
    Raises ``ValueError`` unless m is an int >= 1."""
    check_m(m)
    ell_sum, delta_top = as_fraction(ell_sum), as_fraction(delta_top)
    ok = ell_sum <= m - (m - 1) * delta_top
    min_m = None
    if delta_top < 1:
        # smallest m with ell_sum <= m - (m-1)*delta_top
        min_m = max(1, math.ceil((ell_sum - delta_top) / (1 - delta_top)))
    elif ell_sum <= 1:
        min_m = 1
    return Verdict(schedulable=ok, test="gedf-density", min_m=min_m,
                   detail={"bound": m - (m - 1) * delta_top})


def decomposed_test(summary: TaskSetSummary, m: int) -> Verdict:
    """Processor-count test for decomposed task sets:
    m >= (U_sum - Gamma_top) / (1/Omega_top - Gamma_top).

    D-OUR rests on the decomposition of Jiang et al. (RTSS 2016): each
    stretched segment of task i carries density c/d <= Omega*U_i, and each
    subtask's density is <= Omega*Gamma_i (Gamma_i = L_i/T_i).  The
    global-EDF density bound after Goossens, Funk and Baruah (2003),
    summed density <= m - (m-1)*delta_max, with Omega_top for every Omega,
    then reads as the test above.  Raises ``ValueError`` unless m is an
    int >= 1."""
    check_m(m)
    omega, gamma_top = summary.omega_top, summary.gamma_top
    if omega is None:
        raise ValueError("summary lacks omega_top; run the decomposition")
    denom = 1 / omega - gamma_top
    if denom <= 0:
        return Verdict("decomposed", False, reason="degenerate denominator",
                       detail={"omega_gamma": omega * gamma_top})
    need = (summary.u_sum - gamma_top) / denom
    min_m = max(1, math.ceil(need))
    return Verdict("decomposed", m >= need, min_m=min_m,
                   reason="" if m >= need else f"needs m >= {min_m}",
                   detail={"required": need})


def federated_allocate(tasks: Sequence[DagTask], m: int) -> Verdict:
    """Federated scheduling (Li et al., ECRTS 2014; Baruah, DATE 2015 for
    D < T): SF1's classification with each fractional container rounded
    up, so a heavy task gets ceil(gamma) dedicated processors; light tasks
    are partitioned by worst-fit decreasing EDF.  Task model: sporadic DAG
    tasks with D <= T, heavy iff C > D, gamma = (C-L)/(D-L); a heavy task
    with L >= D is rejected, named in ``detail["task"]``.  Raises
    ``ValueError`` unless m is an int >= 1."""
    check_m(m)
    plan = _classify(tasks, "federated")
    if isinstance(plan, Verdict):
        return plan
    dedicated, fractional, lights = plan
    for owner, _, _ in fractional:
        dedicated[owner] += 1
    used = sum(dedicated.values())
    detail = {"dedicated": dedicated}
    if used > m:
        return Verdict("federated", False,
                       reason=f"needs {used} dedicated processors",
                       detail=detail)
    den, containers = _containers([], lights)
    ordered = _order(containers, 0)
    bins = [[] for _ in range(m - used)]
    fits = _worst_fit(ordered, bins, den)
    min_m = used + _fewest_bins(ordered, den, m - used, fits)
    if not fits:
        return Verdict("federated", False, min_m=min_m,
                       reason="light tasks do not fit", detail=detail)
    return Verdict("federated", True, min_m=min_m,
                   detail=_plan(dedicated, bins, den))


def _fewest_bins(ordered, cap: int, known: int, fits: bool) -> int:
    """Fewest bins of capacity ``cap`` that worst-fit packs the ordered
    containers onto; fewer than ceil(summed load / cap) cannot hold them.
    ``fits`` is the outcome already found on ``known`` bins."""
    least = max(1, -(-sum(c[0] for c in ordered) // cap))
    return next((k for k in range(least, len(ordered) + 1)
                 if (fits if k == known else _worst_fit(
                     ordered, [[] for _ in range(k)], cap))), len(ordered))


def gli_capacity_test(tasks: Sequence[DagTask], m: int) -> Verdict:
    """Capacity-bound baseline (Li et al., ECRTS 2013): U_sum/m <= 1/b and
    L_i/D_i <= 1/b with b = (3+sqrt(5))/2.  Exact: x <= 1/b =
    (3-sqrt(5))/2 holds iff 3-2x >= 0 and (3-2x)^2 >= 5.  The bound is
    stated for implicit deadlines, so a task with D < T is rejected, named
    in the reason.  Raises ``ValueError`` unless m is an int >= 1, and
    ``EmptyTaskSet`` (from ``summarize``) for no task at all."""
    check_m(m)
    for task in tasks:
        if task.deadline != task.period:
            return Verdict("gli-capacity", False, reason=(
                f"task {task.id}: D={task.deadline} != T={task.period}; "
                "the bound assumes implicit deadlines"))
    x = summarize(tasks).u_sum / m
    if not _within_gli(x):
        return Verdict("gli-capacity", False, reason=f"U_sum/m = {x} > 1/b")
    for task in tasks:
        x = task.metrics.elasticity          # L/T, and here T = D
        if not _within_gli(x):
            return Verdict("gli-capacity", False,
                           reason=f"task {task.id}: L/D = {x} > 1/b")
    return Verdict("gli-capacity", True)


def _within_gli(x: Fraction) -> bool:
    """x <= 1/b, decided on x = num/den as ints: 3 - 2x >= 0 and
    (3 - 2x)^2 >= 5, both sides times den > 0 (den^2)."""
    num, den = x.numerator, x.denominator
    y = 3 * den - 2 * num
    return y >= 0 and y * y >= 5 * den * den


def uniform_response_bound(metrics: TaskMetrics,
                           platform: UniformPlatform) -> Fraction:
    """Work-conserving response-time bound (C + lambda*L) / S_m."""
    return ((metrics.work + platform.uniformity * metrics.critical_path)
            / platform.total_speed)


def weak_response_bound(metrics: TaskMetrics,
                        platform: UniformPlatform) -> Fraction:
    """No-migration (weakly work-conserving) bound L/delta_m + (C-L)/S_m."""
    return (metrics.critical_path / platform.speeds[-1]
            + (metrics.work - metrics.critical_path) / platform.total_speed)


def _decomposed(tasks, m) -> Verdict:
    """D-OUR from each task's Omega; a task outside the decomposition's
    implicit-deadline model makes it reject, and the other tests still
    run.  Raises ``ValueError`` unless m is an int >= 1."""
    check_m(m)
    try:
        omegas = [segment_omega(t) for t in tasks]
    except ConstrainedDeadline as exc:
        return Verdict("decomposed", False, reason=str(exc))
    return decomposed_test(summarize(tasks, omegas=omegas), m)


class Method(NamedTuple):
    flag: str          # its `parasched analyze --test` value
    run: Callable      # (tasks, m) -> Verdict


# Method name -> test, in output order.  The entries look the test
# functions up when called, so a rebound module attribute is what runs.
TESTS = {
    "D-OUR": Method("decomposed", _decomposed),
    "F-LI": Method("federated", lambda ts, m: federated_allocate(ts, m)),
    "SF1": Method("sf1", lambda ts, m: sf1(ts, m)),
    "SF2": Method("sf2", lambda ts, m: sf2(ts, m)),
    "G-LI": Method("gli", lambda ts, m: gli_capacity_test(ts, m)),
}
