import numpy as np
import numpy.testing as npt
import pytest

from heatlab import assemble, build_graph
from heatlab.operators import eigendecompose, shift_by_potential
from heatlab.errors import ValidationError
from heatlab.reference import OracleReport, contour_expm, rayleigh_min
from heatlab.verify import random_graph

# lambda0 of the single edge with V = (3, 0): bottom root of
# x^2 + x - 3 = 0, frozen from the characteristic polynomial of
# [[1-3, -1], [-1, 1]]
EDGE_WELL_LAMBDA0 = (-1.0 - np.sqrt(13.0)) / 2.0


def test_contour_zero_matrix():
    npt.assert_allclose(contour_expm(np.zeros((3, 3)), 1.0), np.eye(3),
                        rtol=0, atol=1e-13)


def test_contour_scalar():
    assert contour_expm(np.array([[2.0]]), 1.0)[0, 0] == pytest.approx(
        np.exp(-2.0), rel=1e-13)


def test_contour_single_edge_closed_form(single_edge_op):
    e = np.exp(-2.0)
    want = np.array([[(1 + e) / 2, (1 - e) / 2], [(1 - e) / 2, (1 + e) / 2]])
    npt.assert_allclose(contour_expm(single_edge_op.S, 1.0), want,
                        rtol=0, atol=1e-13)


def test_contour_unit_path_closed_form(path3):
    # L of the unit 3-path has eigenvalues 0, 1, 3 with the spectral
    # projections below; t spans fifteen decades
    ones, odd, even = (np.array(v, dtype=float) for v in
                       ((1, 1, 1), (1, 0, -1), (1, -2, 1)))
    P = [np.outer(v, v) / (v @ v) for v in (ones, odd, even)]
    op = assemble(path3)
    for t in np.logspace(-12, 3, 16):
        want = P[0] + np.exp(-t) * P[1] + np.exp(-3.0 * t) * P[2]
        npt.assert_allclose(contour_expm(op.S, t), want, rtol=0, atol=1e-13,
                            err_msg=f"t = {t}")


def test_contour_matches_eigh_at_a_long_time(rng):
    # a killing rate up to 2 puts t(S - E0) far out on the real axis
    op = assemble(random_graph(rng, n_max=20, c_scale=2.0))
    sd = eigendecompose(op)
    D = np.diag(np.sqrt(op.m))
    expS = D @ sd.vectors @ np.diag(np.exp(-25.0 * sd.eigenvalues)) \
        @ sd.vectors.T @ D
    got = contour_expm(op.S, 25.0)
    assert np.linalg.norm(got - expS) <= 1e-12 * np.linalg.norm(expS)


def test_contour_follows_the_time_rule(single_edge_op):
    with pytest.raises(ValidationError, match="time t = nan is not finite"):
        contour_expm(single_edge_op.S, float("nan"))


def test_rayleigh_diagonal():
    g = build_graph(["1", "2", "3"], [], c=[5.0, 1.0, 3.0])
    assert rayleigh_min(assemble(g), samples=50, seed=1) == pytest.approx(
        1.0, abs=1e-9)


def test_rayleigh_single_edge(single_edge_op):
    assert rayleigh_min(single_edge_op, samples=50, seed=1) == pytest.approx(
        0.0, abs=1e-9)


def test_rayleigh_edge_with_well(single_edge_op):
    shifted = shift_by_potential(single_edge_op, np.array([3.0, 0.0]))
    val = rayleigh_min(shifted, samples=100, seed=2)
    assert val == pytest.approx(EDGE_WELL_LAMBDA0, abs=1e-6)
    assert val == pytest.approx(-2.302775637731995, abs=1e-9)


def test_rayleigh_upper_bounds_e0(rng):
    for _ in range(5):
        op = assemble(random_graph(rng, n_max=30, c_scale=1.0))
        e0 = eigendecompose(op).E0
        val = rayleigh_min(op, samples=100, seed=3)
        assert val >= e0 - 1e-10 * (1 + abs(e0))
        assert val - e0 <= 1e-6


@pytest.mark.parametrize("samples", [0, -1, 2.5, True])
def test_rayleigh_rejects_a_bad_sample_count(single_edge_op, samples):
    with pytest.raises(ValidationError, match="samples = .* is not an integer"):
        rayleigh_min(single_edge_op, samples=samples)


def test_oracle_report_pass_logic():
    ok = OracleReport.compare("q", 1.0, 1.0 + 1e-12, 1e-9, seed=0)
    assert ok.passed and ok.rel_dev <= 1e-9
    bad = OracleReport.compare("q", 1.0, 1.1, 1e-9, seed=0)
    assert not bad.passed
    # the rule is absolute: rel_dev is 1 here, abs_dev within tolerance
    near_zero = OracleReport.compare("z", 0.0, 5e-10, 1e-9, seed=0)
    assert near_zero.passed and near_zero.rel_dev == 1.0
    d = ok.to_dict()
    assert {"name", "oracle", "production", "tolerance", "passed"} <= set(d)
