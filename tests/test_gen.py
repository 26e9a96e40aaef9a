import hashlib
import io
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parasched.errors import UtilizationInfeasible
from parasched.gen import (PAPER_SCALE, GenConfig, gen_period, gen_structure,
                           gen_taskset, uunifast)
from parasched.model import DagTask, dump_taskset, validate
from reference import (PairCopyDagTask, fraction_uunifast, gen_dag,
                       randint_gen_structure)


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(p=1.5)
    with pytest.raises(ValueError):
        GenConfig(util=0)


def test_seed_reproducibility_byte_for_byte():
    cfg = GenConfig(seed=123, n_tasks=4, p=0.2)
    a, b = io.StringIO(), io.StringIO()
    dump_taskset(gen_taskset(cfg), a)
    dump_taskset(gen_taskset(cfg), b)
    assert a.getvalue() == b.getvalue()


def test_p_zero_gives_edgeless_dag():
    cfg = GenConfig(seed=5, p=0.0, period_mode="gamma-formula")
    task = gen_dag(cfg, random.Random(5))
    assert not task.edges
    met = validate(task)
    assert met.critical_path == max(task.wcets[v]
                                    for v in task.real_vertex_ids)


def test_p_one_gives_total_order():
    cfg = GenConfig(seed=5, p=1.0, period_mode="gamma-formula")
    task = gen_dag(cfg, random.Random(5))
    met = validate(task)
    assert met.critical_path == met.work


def test_critical_path_grows_with_p():
    means = []
    for p in (0.01, 0.1, 0.5):
        cfg = GenConfig(seed=7, p=p, period_mode="gamma-formula")
        rng = random.Random(7)
        ratios = []
        for i in range(200):
            task = gen_dag(cfg, rng, task_id=i)
            met = validate(task)
            ratios.append(met.critical_path / met.work)
        means.append(statistics.mean(ratios))
    assert means[0] < means[1] < means[2]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=10 ** 6),
       st.fractions(min_value=Fraction(1, 10), max_value=Fraction(10)))
def test_uunifast_sums_exactly(n, seed, total):
    parts = uunifast(total, n, random.Random(seed))
    assert sum(parts) == total
    assert all(p > 0 for p in parts)
    assert len(parts) == n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=10 ** 6),
       st.one_of(st.fractions(min_value=Fraction(1, 10 ** 6),
                              max_value=Fraction(100)),
                 st.integers(min_value=1, max_value=64),
                 st.floats(min_value=1e-6, max_value=64)))
def test_uunifast_matches_its_fraction_form(n, seed, total):
    rng, ref = random.Random(seed), random.Random(seed)
    parts = uunifast(total, n, rng)
    assert parts == fraction_uunifast(total, n, ref)
    assert {type(p) for p in parts} == {Fraction}
    assert rng.random() == ref.random()     # the same draws were taken


class _Draws(random.Random):
    """A ``random()`` that returns the given draws, then 1/2."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0) if self.draws else 0.5


@pytest.mark.parametrize("draws", [[0.0], [1 - 2 ** -53] * 4, [5e-324],
                                   [0.25, 0.0, 0.75]])
def test_uunifast_matches_its_fraction_form_at_extreme_draws(draws):
    # a zero draw leaves zero shares, as the Fraction form does
    for total in (Fraction(7, 3), 5, 0.1):
        assert uunifast(total, 5, _Draws(draws)) \
            == fraction_uunifast(total, 5, _Draws(draws))


@pytest.mark.parametrize("n, total, message", [
    (0, 1, "n must be >= 1"), (-2, 1, "n must be >= 1"),
    (2.0, 1, "n must be an int"), (True, 1, "n must be an int"),
    (3, 0, "total must be positive"), (3, -1, "total must be positive"),
    (3, Fraction(-1, 2), "total must be positive"),
    (3, -0.5, "total must be positive")])
def test_uunifast_rejects_a_bad_count_or_total(n, total, message):
    # no count below 1 splits, and no total <= 0 has n positive parts
    with pytest.raises(ValueError, match=message):
        uunifast(total, n, random.Random(1))


@pytest.mark.parametrize("util", [Fraction(7, 10), 1, 0.55, 0.1])
def test_target_utilization_periods_match_the_fraction_draws(util):
    # the shares, their limits and T = C/u, all in Fractions
    cfg = GenConfig(n_tasks=4, p=0.1, m=4, util=util)
    for seed in range(10):
        rng = random.Random(seed)
        shapes = [gen_structure(cfg, rng, i) for i in range(cfg.n_tasks)]
        for _ in range(10000):
            shares = fraction_uunifast(Fraction(util) * cfg.m, cfg.n_tasks,
                                       rng)
            if all(u < t.work / t.critical_path
                   for u, t in zip(shares, shapes)):
                break
        else:
            pytest.fail("no valid share draw")
        assert [t.period for t in gen_taskset(cfg, seed)] \
            == [t.work / u for t, u in zip(shapes, shares)]


def test_gamma_formula_at_zero_noise():
    class ZeroNoise(random.Random):
        def gammavariate(self, a, b):
            return 0.0

    cfg = GenConfig(m=8, util=0.5, period_mode="gamma-formula")
    t = gen_period(100, 10, cfg, ZeroNoise())
    assert t == 10 + Fraction(100) / (Fraction(2, 5) * 8 * Fraction(1, 2))


def test_periods_always_exceed_critical_path():
    rng = random.Random(3)
    for mode in ("target-utilization", "gamma-formula"):
        cfg = GenConfig(seed=3, n_tasks=4, p=0.15, util=0.6,
                        period_mode=mode)
        for s in range(50):
            tasks = gen_taskset(cfg, seed=s)
            for task in tasks:
                assert validate(task).critical_path < task.period


def test_target_utilization_sums_exactly():
    cfg = GenConfig(seed=11, n_tasks=5, util=Fraction(7, 10), m=8)
    for s in range(20):
        tasks = gen_taskset(cfg, seed=s)
        total = sum((validate(t).utilization for t in tasks), Fraction(0))
        assert total == Fraction(7, 10) * 8


def test_structure_respects_vertex_range():
    cfg = GenConfig(seed=2, n_vertices=(3, 6))
    rng = random.Random(2)
    for i in range(50):
        shape = gen_structure(cfg, rng, i)
        assert 3 <= len(shape.wcet_int) <= 6
        assert all(50 <= w <= 100 for w in shape.wcet_int)


# sha256 over the JSON of gen_taskset at seeds 0-4, desk and paper scale,
# both period modes, taken before the task model moved to an integer core:
# it fixes the number and order of the generator's RNG draws
GEN_DIGEST = \
    "93249d6d43f1318b3d02d9a1b7e488766ab95bde1e9316d486f39c796ca1f441"


def test_gen_taskset_digest_is_pinned():
    digest = hashlib.sha256()
    for mode in ("target-utilization", "gamma-formula"):
        for scale in ((10, 50), PAPER_SCALE):
            cfg = GenConfig(p=0.05, n_vertices=scale, period_mode=mode)
            for seed in range(5):
                buf = io.StringIO()
                dump_taskset(gen_taskset(cfg, seed=seed), buf)
                digest.update(buf.getvalue().encode())
    assert digest.hexdigest() == GEN_DIGEST


def test_wcet_range_must_be_positive():
    with pytest.raises(ValueError):
        GenConfig(wcet_range=(0, 10))


@pytest.mark.parametrize("field, bounds", [
    ("n_vertices", (5, 3)),
    ("wcet_range", (100, 50)),
    ("n_vertices", (0, 0)),
    ("n_vertices", (10.0, 50)),
    ("wcet_range", (50, 100.5)),
    ("period_mode", "bogus"),
    ("util", float("inf")),
    ("util", float("nan")),
    ("n_tasks", 2.5),
    ("n_tasks", 0),
    ("m", True),
    ("m", 4.0),
    ("p", "0.1"),
    ("util", "0.5"),
    ("util", None),
], ids=["n-reversed", "wcet-reversed", "n-zero", "n-float", "wcet-float",
        "mode-unknown", "util-inf", "util-nan", "n_tasks-float",
        "n_tasks-zero", "m-bool", "m-float", "p-str", "util-str",
        "util-none"])
def test_bad_ranges_are_rejected_at_construction(field, bounds):
    with pytest.raises(ValueError, match=field):
        GenConfig(**{field: bounds})


def test_too_sequential_a_set_is_utilization_infeasible():
    # one chain (C = L) cannot have utilization 6/5 and a period above L
    with pytest.raises(UtilizationInfeasible):
        gen_taskset(GenConfig(p=1.0, n_tasks=1, m=2, util=0.6))


def _spans(top):
    """Span 1, power-of-two spans and any span up to ``top``."""
    return st.one_of(st.just(1), st.sampled_from(
        [2 ** k for k in range(1, top.bit_length())]),
        st.integers(min_value=1, max_value=top))


@st.composite
def _ranges(draw, spans, top):
    lo = draw(st.integers(min_value=1, max_value=top))
    return draw(st.sampled_from([(1, 1), (lo, lo + draw(spans) - 1)]))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 64),
       _ranges(_spans(64), 40), _ranges(_spans(2 ** 40), 1000),
       st.one_of(st.sampled_from([0.0, 1.0]),
                 st.floats(min_value=0, max_value=1)))
def test_structure_draws_the_randint_stream(seed, n_vertices, wcet_range, p):
    config = GenConfig(p=p, n_vertices=n_vertices, wcet_range=wcet_range)
    ours, theirs = random.Random(seed), random.Random(seed)
    for i in range(3):
        shape = gen_structure(config, ours, i)
        assert (shape.id, list(enumerate(shape.wcet_int)), list(shape.edges)) \
            == randint_gen_structure(config, theirs, i)
    assert ours.getstate() == theirs.getstate()


# --- a generated shape against its checked build --------------------------

_CORE = ("edges", "succ", "pred", "den", "wcet_int", "rdy_int", "work_int",
         "cpl_int")


def _assert_checked_builds_match(shapes):
    """Each generated shape (or a timed task, which shares its shape's
    core) has the core that ``DagTask`` and the reference constructor build
    from its id, WCETs and edges."""
    for shape in shapes:
        args = (shape.id, list(enumerate(shape.wcet_int)), shape.edges)
        core = [getattr(shape, name) for name in _CORE]
        for build in (DagTask, PairCopyDagTask):
            assert [getattr(build(*args), name) for name in _CORE] == core


@pytest.mark.parametrize("scale, sets", [((10, 50), 200), (PAPER_SCALE, 20)])
def test_generated_shapes_match_their_checked_build(scale, sets):
    # the sweep workloads' sets
    utils = (0.3, 0.5, 0.7, 0.9)
    for seed in range(sets):
        config = GenConfig(n_tasks=5, p=0.05, m=8, util=utils[seed % 4],
                           n_vertices=scale)
        _assert_checked_builds_match(gen_taskset(config, seed=seed))


@pytest.mark.parametrize("n_vertices", [(1, 1), (10, 50)])
@pytest.mark.parametrize("p", [0, 1, Fraction(1, 3)])
def test_generated_shapes_match_their_checked_build_at_any_p(p, n_vertices):
    rng = random.Random(9)
    shapes = [gen_structure(GenConfig(p=p, n_vertices=n_vertices), rng, i)
              for i in range(40)]
    assert all(s.period is s.deadline is s.metrics is None for s in shapes)
    _assert_checked_builds_match(shapes)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 64),
       _ranges(_spans(64), 40), _ranges(_spans(2 ** 40), 1000),
       st.one_of(st.sampled_from([0.0, 1.0, Fraction(1, 3)]),
                 st.floats(min_value=0, max_value=1)))
def test_generated_shapes_match_their_checked_build_on_any_config(
        seed, n_vertices, wcet_range, p):
    config = GenConfig(p=p, n_vertices=n_vertices, wcet_range=wcet_range)
    rng = random.Random(seed)
    _assert_checked_builds_match(gen_structure(config, rng, i)
                                 for i in range(3))
