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
from parasched.decomposition import decompose
from parasched.errors import MalformedTaskSet
from parasched.model import (DagTask, TaskSetSummary, scale_to_ints,
                             summarize, task_to_dict, validate)
from parasched.semifed import ContainerTask
from conftest import chain_task, fig1_task
from reference import (capacity_bound, fraction_decomposed_test,
                       speed_requirement, worst_fit_partition)


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
    # delta_top >= 1: the bound is ell_sum <= 1 on any m, so one processor
    # is the fewest when it holds, and no count helps when it does not
    for delta in (Fraction(1), Fraction(3, 2)):
        assert gedf_density_test(Fraction(1), delta, 4).min_m == 1
        assert gedf_density_test(Fraction(101, 100), delta, 4).min_m is None


def _assert_decides_as_reference(u_sum, gamma_top, omega_top, m):
    """``decomposed_test`` gives the Fraction form's verdict: every field,
    with the same types in ``min_m`` and ``detail``."""
    got, expected = (decomposed_test(u_sum, gamma_top, omega_top, m),
                     fraction_decomposed_test(u_sum, gamma_top, omega_top, m))
    assert got == expected
    assert [[type(x) for x in (v.schedulable, v.min_m, *v.detail.values())]
            for v in (got, expected)] in ([[bool, int, Fraction]] * 2,
                                          [[bool, type(None), Fraction]] * 2)
    return got


_POSITIVE = st.fractions(min_value=Fraction(1, 10 ** 6), max_value=100)


@settings(max_examples=300, deadline=None)
@given(_POSITIVE, st.fractions(min_value=Fraction(1, 10 ** 6), max_value=1),
       st.one_of(st.fractions(min_value=1, max_value=2), _POSITIVE),
       st.one_of(st.integers(min_value=1, max_value=64),
                 st.integers(min_value=1, max_value=10 ** 40)))
def test_decomposed_test_matches_its_fraction_form(u_sum, gamma_top, omega,
                                                   m):
    _assert_decides_as_reference(u_sum, gamma_top, omega, m)


_DEGENERATE = (False, None, "degenerate denominator")


@pytest.mark.parametrize("u_sum, gamma_top, omega, m, outcome", [
    # omega * gamma >= 1: no processor count suffices
    (4, Fraction(2, 3), Fraction(3, 2), 8, _DEGENERATE),
    (4, Fraction(4, 5), Fraction(3, 2), 10 ** 40, _DEGENERATE),
    (Fraction(1, 10), Fraction(1, 20), 1, 1, (True, 1, "")),   # need <= 1
    (Fraction(1, 20), Fraction(1, 20), Fraction(7, 4), 1,
     (True, 1, "")),                                          # need 0
    # need = 57/7, so min_m = 9 at every m, and it is tight
    (4, Fraction(1, 5), Fraction(3, 2), 10 ** 40, (True, 9, "")),
    (4, Fraction(1, 5), Fraction(3, 2), 3, (False, 9, "needs m >= 9")),
    (Fraction(21, 5), Fraction(1, 5), 1, 5, (True, 5, "")),    # need = 5
    (Fraction(21, 5), Fraction(1, 5), 1, 4, (False, 5, "needs m >= 5")),
    (4, Fraction(1, 5), Fraction(3, 2), 16, (True, 9, "")),
    (4, Fraction(1, 5), Fraction(3, 2), 9, (True, 9, "")),
    (4, Fraction(1, 5), Fraction(3, 2), 8, (False, 9, "needs m >= 9")),
    (4, Fraction(2, 3), Fraction(3, 2), 10 ** 6, _DEGENERATE),
])
def test_decomposed_test_matches_its_fraction_form_at_the_edges(
        u_sum, gamma_top, omega, m, outcome):
    # the verdict, its min_m and its reason, each as the Fraction form's
    v = _assert_decides_as_reference(Fraction(u_sum), gamma_top,
                                     Fraction(omega), m)
    assert (v.schedulable, v.min_m, v.reason) == outcome


@pytest.mark.parametrize("omega", [Fraction(0), Fraction(-3, 2)])
def test_decomposed_test_needs_a_positive_omega_top(omega):
    with pytest.raises(ValueError, match="omega_top must be positive"):
        decomposed_test(Fraction(4), Fraction(1, 5), omega, 8)


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
    s = summarize(tasks, omegas=[decompose(t).omega for t in tasks])
    return decomposed_test(s.u_sum, s.gamma_top, s.omega_top, m)


@pytest.mark.parametrize("m", [0, -1, 2.5])
@pytest.mark.parametrize("run", [
    *(method.run for method in TESTS.values()), _decomposed_on_summary,
    lambda tasks, m: gedf_density_test(Fraction(1, 2), Fraction(1, 4), m),
], ids=[*TESTS, "decomposed_test", "gedf_density_test"])
def test_tests_take_only_an_int_m_of_at_least_one(run, m):
    # a one-chain set: D-OUR accepted it at m = 0, and G-LI raised a bare
    # AttributeError at m = 2.5
    match = "m must be an int" if m == 2.5 else "m must be >= 1"
    with pytest.raises(ValueError, match=match):
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


_SHAPE_READERS = {
    **{name: (lambda ts, method=method: method.run(ts, 2))
       for name, method in TESTS.items()},
    "summarize": summarize,
    **{f.__name__: (lambda ts, f=f: [f(t) for t in ts])
       for f in (task_to_dict, decompose)},
}


@pytest.mark.parametrize("run", _SHAPE_READERS.values(), ids=_SHAPE_READERS)
@pytest.mark.parametrize("timed", [[], [fig1_task()]], ids=["alone",
                                                           "after-fig1"])
def test_a_shape_is_malformed_wherever_it_is_read(run, timed):
    # every reader names the shape through one rule, not AttributeError
    shape = DagTask("t", [(0, 2), (1, 3)], [(0, 1)])
    with pytest.raises(MalformedTaskSet) as info:
        run(timed + [shape])
    assert str(info.value) == "task t: no period"
