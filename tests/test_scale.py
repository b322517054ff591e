"""Estimators read the size of their data only through OperatorRep.norm.

Each case runs an estimator on s f (and s g) and compares with s = 1.
The scales reach past the range where a plain sum of squares overflows
(s = 1e160) or underflows (s = 1e-170); no RuntimeWarning may come out
on the way.
"""
import math

import numpy as np
import numpy.testing as npt
import pytest

from heatlab import assemble
from heatlab.asymptotics import TimeGrid, rate_inner, strong_convergence_check
from heatlab.operators import eigendecompose, spectral_measure
from heatlab.perturbation import (
    admissibility_check,
    approximated_solution,
    lambda0,
    sv_limit,
)
from heatlab.verify import random_graph, random_vector

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SCALES = (1e-170, 1.0, 1e160)
GRID = TimeGrid.geometric(t0=0.5, ratio=2.0, count=6)


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(np.uint64(19))
    op = assemble(random_graph(rng, n_max=12, c_scale=0.5))
    V = 3.0 * random_vector(rng, op.n, positive=True)
    f = random_vector(rng, op.n, positive=True)
    g = random_vector(rng, op.n, positive=True)
    ks = (0.0, 1.0, 2.0, float(V.max()) + 0.5)
    return op, V, f, g, ks


@pytest.mark.parametrize("s", SCALES)
def test_sv_limit_gaps_scale_with_f(case, s):
    op, V, f, _, ks = case
    unit = sv_limit(op, V, 1.0, f, ks)
    scaled = sv_limit(op, V, 1.0, s * f, ks)
    npt.assert_allclose(scaled.ladder_gaps / s, unit.ladder_gaps, rtol=1e-12)
    npt.assert_allclose(scaled.continuity_gaps / s, unit.continuity_gaps,
                        rtol=1e-12)


@pytest.mark.parametrize("s", SCALES)
def test_spectral_measure_support_is_scale_free(case, s):
    op, _, f, _, _ = case
    sd = eigendecompose(op)
    signed = f - np.mean(f)
    for u in (f, signed):
        unit = spectral_measure(sd, u).inf_support
        assert spectral_measure(sd, s * u).inf_support == pytest.approx(
            unit, rel=1e-12)


@pytest.mark.parametrize("s", SCALES)
def test_admissibility_is_homogeneous_in_f_and_g(case, s):
    op, V, f, g, ks = case
    lam = lambda0(op, V)
    for E in (lam - 0.3, lam + 0.3):
        unit = admissibility_check(op, V, E, f, g, GRID, ks)
        scaled = admissibility_check(op, V, E, s * f, s * g, GRID, ks)
        assert ((scaled.holds_i, scaled.holds_ii, scaled.holds_iii)
                == (unit.holds_i, unit.holds_ii, unit.holds_iii))
        assert scaled.M == pytest.approx(unit.M, abs=1e-12)


@pytest.mark.parametrize("s", SCALES)
def test_rate_inner_logs_shift_by_the_scale(case, s):
    op, _, f, g, _ = case
    unit = rate_inner(op, f, g, GRID)
    scaled = rate_inner(op, s * f, s * g, GRID)
    assert scaled.target == pytest.approx(unit.target, abs=1e-12)
    npt.assert_allclose(scaled.log_values - 2.0 * math.log(s),
                        unit.log_values, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("s", SCALES)
def test_approximated_solution_margins_are_scale_free(case, s):
    op, V, f, _, ks = case
    unit = approximated_solution(op, V, f, GRID, ks)
    scaled = approximated_solution(op, V, s * f, GRID, ks)
    npt.assert_allclose(scaled.log_bound_margins, unit.log_bound_margins,
                        rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("s", SCALES + (2.0 ** -1030,))
def test_approximated_solution_residuals_are_scale_free(case, s):
    # the residuals are rounding noise of the central differences: a
    # scale that rounds f moves them, but not by orders of magnitude, and
    # a subnormal f is no exception
    op, V, f, _, ks = case
    unit = approximated_solution(op, V, f, GRID, ks)
    scaled = approximated_solution(op, V, s * f, GRID, ks)
    assert np.max(scaled.ode_residuals) == pytest.approx(
        np.max(unit.ode_residuals), rel=0.5)


def test_approximated_solution_is_exact_under_a_power_of_two(case):
    op, V, f, _, ks = case
    s = 2.0 ** -900
    unit = approximated_solution(op, V, f, GRID, ks)
    scaled = approximated_solution(op, V, s * f, GRID, ks)
    npt.assert_array_equal(scaled.values, s * unit.values)
    npt.assert_array_equal(scaled.ode_residuals, unit.ode_residuals)
    npt.assert_array_equal(scaled.log_bound_margins, unit.log_bound_margins)


def test_approximated_solution_of_zero_is_zero(case):
    # u = 0 solves the equation exactly; the bound 0 <= 0 holds, and a
    # zero norm reads margin -inf as for a u(t) below the floating range
    op, V, _, _, ks = case
    sol = approximated_solution(op, V, np.zeros(op.n), GRID, ks)
    assert not sol.values.any() and not sol.ode_residuals.any()
    assert np.all(sol.log_bound_margins == -np.inf)


@pytest.mark.parametrize("s", SCALES)
def test_strong_convergence_residuals_scale_with_f(case, s):
    op, _, f, _, _ = case
    unit = strong_convergence_check(op, f, GRID)
    scaled = strong_convergence_check(op, s * f, GRID)
    npt.assert_allclose(scaled / s, unit, rtol=1e-12)
