import numpy as np
import numpy.testing as npt
import pytest

from heatlab.asymptotics import TimeGrid
from heatlab.counterexample import (
    closed_orbit,
    counterexample_rate,
    is_positivity_improving_shift,
    shift_model,
    shift_orbit,
)
from heatlab.errors import (
    NegativeTime,
    NonPositivePairing,
    NonPositiveTime,
    ResonantParameters,
    TruncationInsufficient,
    ValidationError,
)


def test_model_structure():
    m = shift_model(0.25, N=40)
    npt.assert_array_equal(m.y_mu, 0.25 ** np.arange(1, 41))
    # columns: L1 e_j = e_{j-1} for j >= 2, L1 e_1 = y_mu
    e2 = np.zeros(40)
    e2[1] = 1.0
    got = m.L1 @ e2
    want = np.zeros(40)
    want[0] = 1.0
    npt.assert_array_equal(got, want)
    e1 = np.zeros(40)
    e1[0] = 1.0
    npt.assert_array_equal(m.L1 @ e1, m.y_mu)
    assert np.all(m.L1 >= 0)


def test_model_tail_bound_enforced():
    with pytest.raises(TruncationInsufficient):
        shift_model(0.9, N=50)
    with pytest.raises(ValueError):
        shift_model(1.2, N=50)
    with pytest.raises(ValueError):
        shift_model(0.0, N=50)


def test_orbit_t0_is_y_lambda():
    m = shift_model(0.25, N=200)
    npt.assert_array_equal(shift_orbit(m, 0.75, 0.0), m.geometric(0.75))


@pytest.mark.parametrize("lam", [0.75, 0.6])
def test_orbit_matches_closed_form(lam):
    m = shift_model(0.25, N=200)
    for t in (1.0, 5.0, 20.0, 40.0 / lam):
        got = shift_orbit(m, lam, t)
        want = closed_orbit(m, lam, t)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_orbit_rejects_bad_parameters():
    m = shift_model(0.25, N=200)
    with pytest.raises(ResonantParameters):
        shift_orbit(m, 0.5, 1.0)
    with pytest.raises(NegativeTime):
        shift_orbit(m, 0.75, -1.0)
    with pytest.raises(ValueError):
        shift_orbit(m, 1.5, 1.0)
    with pytest.raises(TruncationInsufficient):
        shift_orbit(shift_model(0.25, N=40), 0.75, 1.0)


def test_orbit_satisfies_ode():
    m = shift_model(0.25, N=200)
    lam = 0.75
    for t in (1.0, 4.0, 10.0):
        h = 1e-5
        deriv = (closed_orbit(m, lam, t + h) - closed_orbit(m, lam, t - h)) \
            / (2 * h)
        rhs = m.L1 @ closed_orbit(m, lam, t)
        assert np.linalg.norm(deriv - rhs) <= 1e-6 * np.linalg.norm(rhs)


def test_growth_rates_reach_lambda():
    m = shift_model(0.25, N=200)
    x = m.geometric(0.5)
    grid = TimeGrid(times=np.linspace(1.0, 60.0, 60))
    r1 = counterexample_rate(m, 0.75, x, grid)
    r2 = counterexample_rate(m, 0.6, x, grid)
    assert r1.target == 0.75 and r2.target == 0.6
    assert r1.differenced == pytest.approx(0.75, abs=1e-2)
    assert r2.differenced == pytest.approx(0.6, abs=1e-2)
    # the two limits separate: this generator admits no
    # datum-independent rate
    assert abs(r1.differenced - r2.differenced) >= 0.9 * 0.15


def test_rate_limit_independent_of_positive_probe():
    m = shift_model(0.25, N=200)
    x = np.zeros(200)
    x[0] = x[1] = 1.0
    grid = TimeGrid(times=np.linspace(1.0, 60.0, 60))
    est = counterexample_rate(m, 0.75, x, grid)
    assert est.differenced == pytest.approx(0.75, abs=1e-2)


def test_rate_requires_growth_window():
    m = shift_model(0.3, N=200)
    grid = TimeGrid(times=np.linspace(1.0, 10.0, 10))
    with pytest.raises(ValueError):
        counterexample_rate(m, 0.5, m.geometric(0.5), grid)  # lam < 2 mu


def test_rate_rejects_bad_probe():
    m = shift_model(0.25, N=200)
    grid = TimeGrid(times=np.linspace(1.0, 10.0, 10))
    with pytest.raises(ValueError):
        counterexample_rate(m, 0.75, -np.ones(200), grid)
    with pytest.raises(ValueError):
        counterexample_rate(m, 0.75, np.zeros(200), grid)


def test_doubling_truncation_is_stable():
    grid = TimeGrid(times=np.linspace(1.0, 30.0, 30))
    vals = []
    for N in (200, 400):
        m = shift_model(0.25, N=N)
        x = m.geometric(0.5)
        vals.append(counterexample_rate(m, 0.75, x, grid).differenced)
    assert abs(vals[0] - vals[1]) <= 1e-10


def test_positivity_improving_within_float_range():
    # an entry of e^{t L1} reached only through the feedback entry
    # L1[i, 0] = mu^{i+1} and k shift steps carries mu^{i+1} t^k / k!, not
    # just t^k / k!: at N = 200 and t = 5, e^{5 L1}[199, 198] is about
    # 1.2e-354 (a 40-digit series), below the smallest double, so the
    # verdict cannot be read off the computed entries; it is decided on
    # the pattern of L1
    assert is_positivity_improving_shift(shift_model(0.25, N=24), 1.0)
    assert is_positivity_improving_shift(shift_model(0.25, N=200), 5.0)


def test_positivity_pure_shift_never():
    m = shift_model(0.25, N=24)
    assert not is_positivity_improving_shift(m, 1.0, shift_only=True)
    assert not is_positivity_improving_shift(m, 5.0, shift_only=True)


def test_positivity_small_time_underflows_to_not_yet():
    # at t -> 0+ the far corner ~t^{N-1}/(N-1)! sits far below the
    # smallest subnormal for N = 200, yet it is positive: the feedback
    # column makes the pattern of L1 strongly connected, so e^{t L1} > 0
    # at every t > 0, while the bare shift never gets there
    m = shift_model(0.25, N=200)
    for t in (1e-8, 1.0, 5.0):
        assert is_positivity_improving_shift(m, t) is True
        assert is_positivity_improving_shift(m, t, shift_only=True) is False


def test_positivity_shift_computes_no_exponential(monkeypatch):
    import heatlab.counterexample as cx

    def refused(M):
        raise AssertionError("the positivity verdict computed e^(tM)")

    monkeypatch.setattr(cx, "series_expm", refused)
    for N in (1, 2, 24):
        m = shift_model(1e-8, N=N)
        assert is_positivity_improving_shift(m, 0.5)
        assert is_positivity_improving_shift(m, 0.5, shift_only=True) == (
            N == 1)


def test_positivity_shift_reads_the_stored_pattern():
    # at N = 2000, mu^k = 4^-k underflows to 0 from k = 538 on, so the last
    # row of the stored L1 is zero and the last row of e^{t L1} is e_N
    m = shift_model(0.25, N=2000)
    assert not m.L1[-1].any() and m.L1[536, 0] > 0
    assert not is_positivity_improving_shift(m, 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_times_name_the_time(t):
    m = shift_model(0.25)
    match = f"t = {t} is not finite"
    with pytest.raises(ValidationError, match=match):
        shift_orbit(m, 0.75, t)
    with pytest.raises(ValidationError, match=match):
        is_positivity_improving_shift(m, t)


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_positivity_shift_needs_positive_time(t):
    with pytest.raises(NonPositiveTime):
        is_positivity_improving_shift(shift_model(0.25, N=40), t)
