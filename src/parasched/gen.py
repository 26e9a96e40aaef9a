"""Random workload generation.

DAG structure follows the Erdos-Renyi recipe G(n, p): draw a vertex count,
fix a random topological order, and keep each forward edge with
probability p.  Periods come in two flavours: a target-utilization split
of a configured total (UUniFast-style), or the gamma-noise formula
T = (L + C/(0.4*m*U)) * (1 + 0.25*Gamma(2,1)).

A set is a function of (config, seed), drawn as ``randint`` and
``shuffle`` would draw it (see ``gen_structure``); ``GenConfig`` rejects
an ``m`` or ``n_tasks`` that is not an int >= 1, a ``p`` or ``util`` that
is not an int, float or Fraction, a ``p`` outside [0, 1], a ``util`` that
is not positive and finite, a vertex-count or WCET range that is not ints
1 <= lo <= hi, and an unknown ``period_mode``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import UtilizationInfeasible
from .model import DagTask, _drawn_shape, check_m


_REALS = frozenset({int, float, Fraction})   # by type(), so no bool


@dataclass
class GenConfig:
    seed: int = 1
    n_tasks: int = 5
    p: float = 0.1
    m: int = 8
    util: float = 0.5            # normalized utilization U_sum / m
    n_vertices: tuple = (10, 50)  # desk-scale default; papers use (50, 250)
    wcet_range: tuple = (50, 100)
    period_mode: str = "target-utilization"   # or "gamma-formula"

    def __post_init__(self):
        if type(self.p) not in _REALS or type(self.util) not in _REALS:
            name = "p" if type(self.p) not in _REALS else "util"
            raise ValueError(f"{name} must be an int, float or Fraction, "
                             f"got {getattr(self, name)!r}")
        if not 0 <= self.p <= 1:
            raise ValueError(f"edge probability p must be in [0, 1], got "
                             f"{self.p!r}")
        if not (math.isfinite(self.util) and self.util > 0):
            raise ValueError(f"util must be positive and finite, got "
                             f"{self.util!r}")
        if self.period_mode not in ("target-utilization", "gamma-formula"):
            raise ValueError(f"unknown period_mode {self.period_mode!r}")
        check_m(self.m)
        check_m(self.n_tasks, "n_tasks")
        for name in ("n_vertices", "wcet_range"):
            bounds = getattr(self, name)
            if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2
                    and type(bounds[0]) is type(bounds[1]) is int
                    and 1 <= bounds[0] <= bounds[1]):
                raise ValueError(f"{name} must be a pair of ints lo, hi "
                                 f"with 1 <= lo <= hi, got {bounds!r}")


PAPER_SCALE = (50, 250)


def gen_structure(config: GenConfig, rng: random.Random,
                  task_id) -> DagTask:
    """One DAG shape, without a period yet: vertices, WCETs, G(n,p) edges
    over a random topological order.  The shape is built from these draws
    with the drawn order as its topological order, and without the
    structure checks ``DagTask`` runs on a caller's input, which every draw
    meets by construction.  n, the WCETs and the order draw through
    ``rng.getrandbits`` with ``Random._randbelow``'s rejection loop, the
    edges through ``rng.random``: CPython's ``randint``/``shuffle`` stream,
    except for a ``Random`` subclass overriding ``random()`` alone, whose
    ``_randbelow`` the stdlib builds on ``random()``."""
    bits, draw, p = rng.getrandbits, rng.random, config.p
    lo, hi = config.n_vertices
    span = hi - lo + 1
    k = span.bit_length()
    n = bits(k)
    while n >= span:
        n = bits(k)
    n += lo
    lo, hi = config.wcet_range
    span = hi - lo + 1
    k = span.bit_length()
    wcets = []
    for _ in range(n):
        w = bits(k)
        while w >= span:
            w = bits(k)
        wcets.append(lo + w)
    order = list(range(n))
    for i in range(n - 1, 0, -1):       # shuffle: swap i with j in 0..i
        k = (i + 1).bit_length()
        j = bits(k)
        while j > i:
            j = bits(k)
        order[i], order[j] = order[j], order[i]
    edges = [(u, order[b]) for a, u in enumerate(order)
             for b in range(a + 1, n) if draw() < p]
    return _drawn_shape(task_id, wcets, edges, order)


def uunifast(total: Fraction, n: int, rng: random.Random) -> list:
    """Uniform split of `total` into n non-negative parts (Bini and
    Buttazzo, 2005); ValueError unless n is an int >= 1 and `total` > 0.
    Draws are floats but the parts are exact rationals summing to `total`
    exactly; a draw of exactly 0.0 gives zero parts."""
    check_m(n, "n")
    num, den = Fraction(total).as_integer_ratio()
    if num <= 0:
        raise ValueError(f"total must be positive, got {total}")
    return [Fraction(a, b) for a, b in _split(num, den, n, rng)]


def _split(num: int, den: int, n: int, rng: random.Random) -> list:
    """``uunifast``'s parts of num/den as unreduced (numerator, denominator)
    int pairs: each draw is a dyadic a/b, so the part cut off is
    num*(b - a)/(den*b) and the rest num*a/(den*b)."""
    parts = []
    for i in range(n - 1, 0, -1):
        a, b = (rng.random() ** (1.0 / i)).as_integer_ratio()
        den *= b
        parts.append((num * (b - a), den))
        num *= a
    parts.append((num, den))
    return parts


def gen_period(work, critical_path, config: GenConfig,
               rng: random.Random) -> Fraction:
    """The gamma-formula period T = (L + C/(0.4*m*U)) * (1 + 0.25*Gamma(2,1))
    of a task with total work C and critical path L; T > L."""
    noise = Fraction(rng.gammavariate(2.0, 1.0))
    base = Fraction(critical_path) + Fraction(work) / (
        Fraction(2, 5) * config.m * Fraction(config.util))
    return base * (1 + Fraction(1, 4) * noise)


def gen_taskset(config: GenConfig,
                seed: Optional[int] = None) -> list[DagTask]:
    """A full task set; deterministic for a given (config, seed).

    In target-utilization mode the utilization shares are resampled until
    every task gets a valid period T = C/u_i > L, i.e. 0 < u_i < C_i/L_i; the
    shares sum to util*m exactly.  The shares, that test and T are ints
    until each period is built, once, as a Fraction.  In gamma-formula
    mode each period comes from ``gen_period``.
    """
    rng = random.Random(config.seed if seed is None else seed)
    shapes = [gen_structure(config, rng, i) for i in range(config.n_tasks)]

    if config.period_mode == "target-utilization":
        num, den = config.util.as_integer_ratio()
        for _ in range(10000):
            # 0 < u = a/b < C/L, on the ints of u and the shape's core
            shares = _split(num * config.m, den, config.n_tasks, rng)
            if all(0 < a and a * t.cpl_int < t.work_int * b
                   for (a, b), t in zip(shares, shapes)):
                break
        else:
            raise UtilizationInfeasible(
                "could not draw valid utilization shares; total utilization "
                "too sequential")
        # T = C/u = (work_int/den) / (a/b)
        periods = [Fraction(t.work_int * b, t.den * a)
                   for t, (a, b) in zip(shapes, shares)]
    else:
        periods = [gen_period(t.work, t.critical_path, config, rng)
                   for t in shapes]

    tasks = []
    for shape, period in zip(shapes, periods):
        assert period.numerator * shape.den \
            > shape.cpl_int * period.denominator
        tasks.append(shape.with_period(period))
    return tasks
