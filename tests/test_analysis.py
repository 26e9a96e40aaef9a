import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parasched.analysis import (TESTS, UniformPlatform, _fewest_bins,
                                _within_gli, decomposed_test,
                                federated_allocate, gedf_density_test,
                                gli_capacity_test, uniform_response_bound,
                                weak_response_bound)
from parasched.decomposition import segment_omega
from parasched.model import (DagTask, TaskSetSummary, scale_to_ints,
                             summarize, validate)
from parasched.semifed import ContainerTask
from conftest import chain_task, fig1_task
from reference import (capacity_bound, capacity_requirement,
                       speed_requirement, worst_fit_partition)


def test_capacity_requirement_golden():
    assert capacity_requirement(16, 8, 14) == Fraction(4, 3)


def test_uniformity_goldens():
    assert UniformPlatform([1, Fraction(1, 3)]).uniformity == Fraction(1, 3)
    assert UniformPlatform(
        [1, Fraction(1, 4), Fraction(1, 12)]).uniformity == Fraction(1, 3)
    assert UniformPlatform(
        [1, Fraction(1, 6), Fraction(1, 6)]).uniformity == 1


def test_unit_speed_uniformity_is_m_minus_one():
    for m in range(1, 8):
        assert UniformPlatform([1] * m).uniformity == m - 1


def test_platform_sorts_speeds():
    p = UniformPlatform([Fraction(1, 2), 2, 1])
    assert p.speeds == (2, 1, Fraction(1, 2))
    assert p.total_speed == Fraction(7, 2)
    # a float speed is read as its decimal, as task times are
    p = UniformPlatform([0.1, 0.3])
    assert p.speeds == (Fraction(3, 10), Fraction(1, 10))
    assert p.total_speed == Fraction(2, 5)


def test_gedf_density_test_threshold():
    # ell_sum = m - (m-1)*delta is exactly schedulable
    v = gedf_density_test(Fraction(5, 2), Fraction(1, 2), 4)
    assert v.schedulable
    assert not gedf_density_test(Fraction(5, 2) + Fraction(1, 100),
                                 Fraction(1, 2), 4).schedulable
    assert v.min_m == 4
    # float loads are read as their decimals
    assert gedf_density_test(0.3, 0.1, 2).detail["bound"] == Fraction(19, 10)


def test_decomposed_test_min_m_is_tight():
    s = TaskSetSummary(u_sum=Fraction(4), gamma_top=Fraction(1, 5),
                       omega_top=Fraction(3, 2), delta_top=None,
                       ell_sum=None)
    v = decomposed_test(s, 16)
    assert v.schedulable
    m = v.min_m
    assert decomposed_test(s, m).schedulable
    assert not decomposed_test(s, m - 1).schedulable


def test_decomposed_test_degenerate():
    # omega * gamma >= 1: no processor count suffices
    s = TaskSetSummary(u_sum=Fraction(4), gamma_top=Fraction(2, 3),
                       omega_top=Fraction(3, 2), delta_top=None,
                       ell_sum=None)
    assert not decomposed_test(s, 10 ** 6).schedulable


def test_capacity_bound_range():
    for m in (1, 2, 8, 64):
        for omega in (Fraction(1), Fraction(3, 2), Fraction(199, 100)):
            b = capacity_bound(omega, m)
            assert 2 - Fraction(1, m) <= b < 4 - Fraction(2, m)


def test_speed_requirement_formula():
    s = TaskSetSummary(u_sum=Fraction(4), gamma_top=Fraction(1, 5),
                       omega_top=Fraction(3, 2), delta_top=None,
                       ell_sum=None)
    expected = (Fraction(3, 2) * 4 / 8
                + Fraction(3, 2) * Fraction(1, 5) * Fraction(7, 8))
    assert speed_requirement(s, 8) == expected


def test_federated_needs_ceil_gamma():
    # gamma(fig1 @ D=14) = 4/3 -> 2 dedicated processors
    v = federated_allocate([fig1_task()], 2)
    assert v.schedulable
    assert not federated_allocate([fig1_task()], 1).schedulable


def test_federated_lights_worst_fit():
    # four light tasks with density 1/2 each pack onto two processors
    lights = [chain_task(1, wcet=1, period=2) for _ in range(4)]
    v = federated_allocate(lights, 2)
    assert v.schedulable
    assert v.min_m == 2
    assert not federated_allocate(lights, 1).schedulable


def test_gli_capacity_boundary():
    b = (3 + math.sqrt(5)) / 2
    task = chain_task(2, wcet=1, period=b)  # L = 2, D = b: L > D/b
    assert not gli_capacity_test([task], 4).schedulable
    easy = chain_task(2, wcet=1, period=100)
    assert gli_capacity_test([easy], 4).schedulable
    # the same chain with D < T is outside the bound's task model
    constrained = DagTask("c", [(0, 1), (1, 1)],
                          [(0, 1)]).with_period(100, 90)
    v = gli_capacity_test([easy, constrained], 4)
    assert not v.schedulable
    assert v.reason.startswith("task c: D=90 != T=100")
    # utilization boundary: U_sum just above m/b fails even with short L
    tight = [chain_task(1, wcet=1, period=Fraction(100, 13))
             for _ in range(3)]  # U_sum = 0.39 > 1/b ~ 0.382
    assert not gli_capacity_test(tight, 1).schedulable


@pytest.mark.parametrize("m", [0, -1])
def test_gli_capacity_rejects_fewer_than_one_processor(m):
    with pytest.raises(ValueError, match="m must be >= 1"):
        gli_capacity_test([chain_task(2, wcet=1, period=100)], m)


def _decomposed_on_summary(tasks, m):
    return decomposed_test(
        summarize(tasks, omegas=[segment_omega(t) for t in tasks]), m)


@pytest.mark.parametrize("m", [0, -1, 2.5])
@pytest.mark.parametrize("run", [
    *(method.run for method in TESTS.values()), _decomposed_on_summary,
    lambda tasks, m: gedf_density_test(Fraction(1, 2), Fraction(1, 4), m),
], ids=[*TESTS, "decomposed_test", "gedf_density_test"])
def test_tests_take_only_an_int_m_of_at_least_one(run, m):
    # a one-chain set: D-OUR accepted it at m = 0, and G-LI raised a bare
    # AttributeError at m = 2.5
    with pytest.raises(ValueError, match="m must be"):
        run([chain_task(2, wcet=1, period=100)], m)


def test_gli_capacity_is_exact_at_the_utilization_bound():
    # 1/b = (3 - sqrt(5))/2 = 0.3819660112501051517954...; ten parallel
    # unit vertices keep L/D = U/10 far below it
    def parallel(u):
        return DagTask("par", [(i, 1) for i in range(10)],
                       []).with_period(10 / u)

    above = Fraction(381966011250106, 10 ** 15)   # 8.5e-16 above 1/b
    below = Fraction(381966011250105, 10 ** 15)   # 1.5e-16 below 1/b
    v = gli_capacity_test([parallel(above)], 1)
    assert not v.schedulable
    assert v.reason.startswith("U_sum/m = ")
    assert gli_capacity_test([parallel(below)], 1).schedulable


def _within_gli_by_fractions(x: Fraction) -> bool:
    y = 3 - 2 * x
    return y >= 0 and y * y >= 5


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.fractions(),
                 st.fractions(min_value=0, max_value=1,
                              max_denominator=10 ** 12)))
def test_within_gli_on_ints_matches_fractions(x):
    assert _within_gli(x) == _within_gli_by_fractions(x)


def test_within_gli_on_both_sides_of_one_over_b():
    # F(k)/F(k+2), Fibonacci ratios, converge to 1/b = (3 - sqrt(5))/2
    # from below for even k and from above for odd k
    fib = [0, 1]
    while len(fib) < 100:
        fib.append(fib[-1] + fib[-2])
    for k in range(2, 98):
        x = Fraction(fib[k], fib[k + 2])
        assert _within_gli(x) == _within_gli_by_fractions(x) \
            == (k % 2 == 0), k


def test_response_bounds_formulas():
    met = validate(fig1_task())
    plat = UniformPlatform([1, Fraction(1, 2), Fraction(1, 4)])
    lam = plat.uniformity
    assert uniform_response_bound(met, plat) == (16 + lam * 8) / plat.total_speed
    assert weak_response_bound(met, plat) == 8 / Fraction(1, 4) \
        + (16 - 8) / plat.total_speed


def test_platform_rejects_bad_speeds():
    with pytest.raises(ValueError):
        UniformPlatform([])
    with pytest.raises(ValueError):
        UniformPlatform([1, 0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=Fraction(1, 100),
                             max_value=Fraction(3, 2)), max_size=10),
       st.integers(min_value=0, max_value=11))
def test_fewest_bins_matches_the_search_from_one(loads, known):
    # starting at ceil(sum of loads) skips only k that cannot fit, and the
    # outcome handed in for ``known`` bins is the one the search would find
    items = [ContainerTask(i, load, load) for i, load in enumerate(loads)]

    def fits(k):
        return worst_fit_partition(items, k) is not None
    expected = next((k for k in range(1, len(items) + 1) if fits(k)),
                    len(items))
    den, sizes = scale_to_ints(sorted(loads, reverse=True))
    assert _fewest_bins([(size,) for size in sizes], den, known,
                        fits(known)) == expected
