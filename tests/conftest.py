"""Shared task builders and the random-DAG corpus."""

import functools
import random
from fractions import Fraction

import pytest

from parasched.gen import PAPER_SCALE, GenConfig, gen_taskset
from parasched.model import DagTask


def fig1_task(period=14, deadline=None):
    """Six-vertex DAG with C=16, L=8 (longest path 0-3-4-5); D = T unless
    a deadline is given."""
    vertices = [(0, 1), (1, 5), (2, 3), (3, 4), (4, 2), (5, 1)]
    edges = [(0, 1), (0, 2), (0, 3), (2, 4), (3, 4), (1, 5), (4, 5)]
    return DagTask("fig1", vertices, edges).with_period(period, deadline)


def diamond_task(period=10):
    """0 -> {1, 2} -> 3 with WCETs 1, 4, 2, 1."""
    vertices = [(0, 1), (1, 4), (2, 2), (3, 1)]
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    return DagTask("diamond", vertices, edges).with_period(period)


def chain_task(length, wcet=3, period=None):
    vertices = [(i, wcet) for i in range(length)]
    edges = [(i, i + 1) for i in range(length - 1)]
    period = period if period is not None else wcet * length * 2
    return DagTask(f"chain{length}", vertices, edges).with_period(period)


def fork_task(width, period=None):
    """source -> width parallel vertices -> sink, unequal WCETs."""
    vertices = [(0, 1)] + [(i, i + 1) for i in range(1, width + 1)] \
        + [(width + 1, 1)]
    edges = [(0, i) for i in range(1, width + 1)] \
        + [(i, width + 1) for i in range(1, width + 1)]
    period = period if period is not None else 4 * (width + 3)
    return DagTask(f"fork{width}", vertices, edges).with_period(period)


def random_small_task(rng, task_id, max_vertices=8):
    """Random G(n,p) DAG with integer WCETs and a valid period T >= L."""
    n = rng.randint(1, max_vertices)
    wcets = [(i, rng.randint(1, 10)) for i in range(n)]
    p = rng.choice([0.0, 0.1, 0.3, 0.5, 0.8])
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)
             if rng.random() < p]
    shape = DagTask(task_id, wcets, edges)
    # longest path for a valid period
    period = shape.critical_path + Fraction(rng.randint(1, 80),
                                            rng.randint(1, 4))
    return shape.with_period(period)


def rational_variant(task, rng):
    """The same DAG with WCETs drawn as fractions with denominators up to
    12, and a period just above its critical path."""
    real = task.real_vertex_ids
    vertices = [(v, Fraction(rng.randint(1, 40), rng.randint(1, 12)))
                for v in real]
    edges = [(u, v) for u, v in task.edges if u in real and v in real]
    shape = DagTask(task.id, vertices, edges)
    return shape.with_period(
        shape.critical_path + Fraction(rng.randint(1, 80), rng.randint(1, 4)))


def build_corpus(count=1000, seed=2024):
    rng = random.Random(seed)
    tasks = [random_small_task(rng, i) for i in range(count)]
    tasks += [chain_task(k) for k in range(1, 6)]
    tasks += [fork_task(w) for w in range(1, 6)]
    return tasks


def sample_cases():
    """(tasks, m) pairs: generated sets at desk scale (8 seeds) and paper
    scale (1 seed), at three utilizations, each on 2, 4, 8 and 16
    processors."""
    sets = [gen_taskset(GenConfig(n_tasks=5, p=0.05, util=util,
                                  n_vertices=scale), seed=seed)
            for scale, seeds in (((10, 50), range(8)), (PAPER_SCALE, [0]))
            for seed in seeds for util in (0.3, 0.6, 0.9)]
    return [(tasks, m) for tasks in sets for m in (2, 4, 8, 16)]


@functools.cache
def verify_sets():
    """Three sets drawn as the benchmark's verify workload draws its sets
    (three tasks of 14-16 vertices, gamma-formula periods for m = 4), at
    (seed, util) (1, 0.5), (2, 0.6) and (3, 0.9)."""
    return tuple(gen_taskset(GenConfig(n_tasks=3, p=0.1, m=4, util=util,
                                       n_vertices=(14, 16),
                                       period_mode="gamma-formula"),
                             seed=seed)
                 for seed, util in ((1, 0.5), (2, 0.6), (3, 0.9)))


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()
