import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse import csr_array, issparse

from heatlab import assemble, build_graph, semigroup
from heatlab.asymptotics import TimeGrid, positivity_improving, rate_kernel
from heatlab.errors import (
    KrylovBreakdown,
    NegativeTime,
    NonPositiveTime,
    NumericsError,
    SingularShift,
    UnknownVertex,
    ValidationError,
)
from heatlab.operators import eigendecompose, kernel_sum, shift_by_potential
from heatlab.semigroup import (
    KRYLOV,
    SCALING_SQUARING,
    SPECTRAL,
    apply,
    chapman_kolmogorov_defect,
    heat_kernel,
    kernel_column,
    kernel_symmetry_defect,
    series_expm,
    resolvent,
    trotter,
)
from heatlab.verify import random_graph, random_vector

METHODS = [SPECTRAL, SCALING_SQUARING, KRYLOV]


@pytest.mark.parametrize("method", METHODS)
def test_apply_t0_is_identity(single_edge_op, method):
    f = np.array([0.3, -1.7])
    npt.assert_array_equal(apply(single_edge_op, 0.0, f, method), f)


@pytest.mark.parametrize("method", METHODS)
def test_apply_single_edge_closed_form(single_edge_op, method):
    for t in (0.1, 1.0, 7.5):
        got = apply(single_edge_op, t, np.array([1.0, 0.0]), method)
        want = np.array([(1 + np.exp(-2 * t)) / 2, (1 - np.exp(-2 * t)) / 2])
        npt.assert_allclose(got, want, atol=1e-12)


NON_FINITE = [np.inf, -np.inf, np.nan]
NON_FINITE_IDS = ["inf", "-inf", "nan"]
TAGS = [m.tag for m in METHODS]


@pytest.mark.parametrize("method", METHODS, ids=TAGS)
@pytest.mark.parametrize("t", [-0.5] + NON_FINITE,
                         ids=["negative"] + NON_FINITE_IDS)
def test_apply_rejects_negative_time(single_edge_op, t, method):
    error, match = ((NegativeTime, "< 0") if t == -0.5
                    else (ValidationError, "not finite"))
    f = np.array([1.0, 0.0])
    with pytest.raises(error, match=match):
        apply(single_edge_op, t, f, method)
    with pytest.raises(error, match=match):
        trotter(single_edge_op, np.zeros(2), t, 1, f)


@pytest.mark.parametrize("method", METHODS, ids=TAGS)
def test_apply_rejects_a_non_finite_datum(path3, method, decompositions):
    # named as the datum's fault before any evaluation starts, not as an
    # overflow of e^{-tL} or a solver's ValueError
    op = assemble(path3)
    with pytest.raises(ValidationError, match="datum f is not finite"):
        apply(op, 1.0, [np.nan, 0.0, 0.0], method)
    assert decompositions == []
    assert "exp(-S)" not in vars(op)


def test_semigroup_law(rng):
    op = assemble(random_graph(rng, n_max=30))
    f = random_vector(rng, op.n)
    lhs = apply(op, 0.6, apply(op, 1.1, f))
    rhs = apply(op, 1.7, f)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * op.norm(f)


def test_methods_agree(rng):
    for _ in range(5):
        op = assemble(random_graph(rng, n_max=40, c_scale=1.0))
        f = random_vector(rng, op.n)
        ref = apply(op, 1.3, f, SPECTRAL)
        for method in (SCALING_SQUARING, KRYLOV):
            dev = np.linalg.norm(apply(op, 1.3, f, method) - ref)
            assert dev <= 1e-9 * op.norm(f)


def test_spectral_apply_is_the_kernel_sum(rng, stiff_star_op):
    # e^{-tL} f = sum_i e^{-t E_i} <phi_i, f>_m phi_i on the stored phi_i,
    # also where E0 < 0 makes e^{-t E0} > 1
    shifted = _shifted_graph_op(rng)
    assert shifted.lower_bound < 0
    assert np.exp(-eigendecompose(shifted).E0) > 1
    for op in (stiff_star_op, shifted):
        sd = eigendecompose(op)
        for t in (0.01, 0.1, 1.0, 10.0):
            for f in (random_vector(rng, op.n),
                      random_vector(rng, op.n, positive=True)):
                want = kernel_sum(sd, t) @ (op.m * f)
                got = apply(op, t, f, SPECTRAL)
                assert op.norm(got - want) <= 1e-13 * op.norm(want)


def test_spectral_routes_hold_no_second_basis():
    # with the eigendata and ||S||_1 held, a spectral apply and a Trotter
    # product work on vectors: each peaks below n^2 bytes, an eighth of
    # one n x n copy
    op = assemble(random_graph(np.random.default_rng(593), n_max=300))
    assert op.n >= 300
    eigendecompose(op), op.s_norm1
    rng = np.random.default_rng(3)
    f, V = random_vector(rng, op.n), rng.uniform(0.0, 2.0, op.n)
    for call in (lambda: apply(op, 1.0, f, SPECTRAL),
                 lambda: trotter(op, V, 1.0, 4, f)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < op.n ** 2


@pytest.mark.parametrize("method", METHODS, ids=TAGS)
@pytest.mark.parametrize("t", [1.0, 10.0])
def test_apply_zero_datum_is_zero(path3, method, t):
    got = apply(assemble(path3), t, np.zeros(3), method)
    npt.assert_array_equal(got, np.zeros(3))


def _assert_krylov_matches_spectral(op, t, f):
    eps = np.finfo(float).eps
    ref = apply(op, t, f, SPECTRAL)
    bound = (1e-9 + 100 * eps * t * np.linalg.norm(op.S, 1)) * op.norm(ref)
    assert op.norm(apply(op, t, f, KRYLOV) - ref) <= bound


def _refused_cholesky(*args, **kwargs):
    raise AssertionError("the Krylov route took a dense Cholesky")


@pytest.mark.parametrize("t", [1.0, 10.0])
def test_krylov_on_the_stiff_star(monkeypatch, t, single_edge_op,
                                  stiff_star_op, fine_star_op):
    # ||S|| ~ 1e4 on the stars: e^{-tL} f decays to ~1e-11 of f by t = 10,
    # and the answer is held to a bound relative to itself.  Every order,
    # from 2 to 300, factors its shifted matrix once, by sparse LU
    monkeypatch.setattr(scipy.linalg, "cho_factor", _refused_cholesky)
    factorizations = []
    splu = scipy.sparse.linalg.splu

    def counted(M):
        factorizations.append(M.shape)
        return splu(M)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    ops = [single_edge_op,
           assemble(random_graph(np.random.default_rng(0), n_max=255)),
           stiff_star_op, fine_star_op,
           assemble(random_graph(np.random.default_rng(593), n_max=300))]
    assert [op.n for op in ops] == [2, 218, 118, 298, 300]
    for calls, op in enumerate(ops, 1):
        f = np.random.default_rng(6).uniform(0.1, 1.0, op.n)
        _assert_krylov_matches_spectral(op, t, f)
        assert len(factorizations) == calls
        assert factorizations[-1] == (op.n, op.n)


def test_krylov_on_a_long_path_at_large_time():
    n = 500
    op = assemble(build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)]))
    f = np.random.default_rng(7).uniform(0.1, 1.0, n)
    _assert_krylov_matches_spectral(op, 1000.0, f)


@pytest.mark.parametrize("t", [1.0, 10.0])
def test_krylov_below_a_negative_lower_bound(rng, t):
    op = assemble(random_graph(rng, n_max=60))
    shifted = shift_by_potential(op, rng.uniform(0.0, 3.0, op.n))
    assert shifted.lower_bound < 0
    _assert_krylov_matches_spectral(shifted, t, random_vector(rng, op.n))


def test_held_csr_is_read_once_per_operator(single_edge_op):
    op = single_edge_op
    assert issparse(op.S_csr) and op.S_csr.format == "csr"
    assert op.S_csr is op.S_csr
    npt.assert_array_equal(op.S_csr.toarray(), op.S)


def _dense_built_krylov_matrix(op, t):
    """The shifted Krylov matrix as it was built from the dense S."""
    gamma, sigma = t / 10, op.lower_bound
    M = gamma * op.S
    M[np.diag_indices(op.n)] += 1 - gamma * sigma
    return scipy.sparse.csc_array(M)


@pytest.mark.parametrize("t", [0.3, 1.0, 10.0])
def test_krylov_matrix_from_the_held_csr_is_the_dense_build(monkeypatch, t,
                                                            stiff_star_op):
    ops = [assemble(random_graph(np.random.default_rng(0), n_max=255)),
           stiff_star_op]
    splu = scipy.sparse.linalg.splu
    for op in ops:
        f = np.random.default_rng(6).uniform(0.1, 1.0, op.n)
        handed = []

        def recorded(M):
            handed.append(M)
            return splu(M)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
        got = apply(op, t, f, KRYLOV), kernel_column(op, t, 3, KRYLOV)
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda M: splu(_dense_built_krylov_matrix(op, t)))
        want = apply(op, t, f, KRYLOV), kernel_column(op, t, 3, KRYLOV)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        ref = _dense_built_krylov_matrix(op, t)
        assert len(handed) == 2
        for M in handed:
            assert M.format == "csc"
            for part in ("indptr", "indices", "data"):
                assert getattr(M, part).tobytes() == \
                    getattr(ref, part).tobytes()


def test_krylov_route_does_not_read_the_dense_s():
    tree = ast.parse(inspect.getsource(semigroup._krylov_apply))
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "op"}
    assert "S_csr" in reads and "S" not in reads


def test_lanczos_eigensolver_is_eigh_tridiagonal_bit_for_bit():
    # the Krylov steps call LAPACK ?stevd directly, as eigh_tridiagonal's
    # default driver does; eigenvalues and eigenvectors keep every bit
    rng = np.random.default_rng(24)
    stevd, = scipy.linalg.get_lapack_funcs(("stevd",), (np.empty(0),))
    for k in range(1, 61):
        for scale in (1e-3, 1.0, 1e4):
            d = scale * rng.standard_normal(k)
            e = scale * rng.uniform(0.0, 1.0, k - 1)
            got = semigroup._tridiagonal_eigh(stevd, d, e)
            want = scipy.linalg.eigh_tridiagonal(d, e)
            for g, w in zip(got, want):
                assert (g.dtype, g.shape) == (w.dtype, w.shape)
                assert g.tobytes() == w.tobytes()


def test_lanczos_eigensolver_raises_on_lapack_failure():
    def failed(d, e):
        return d.copy(), np.eye(len(d)), 2

    with pytest.raises(np.linalg.LinAlgError, match="info=2"):
        semigroup._tridiagonal_eigh(failed, np.ones(3), np.ones(2))


@pytest.mark.parametrize("t", [1.0, 100.0])
def test_krylov_apply_is_unchanged_by_the_direct_eigensolver(monkeypatch, t,
                                                              stiff_star_op):
    ops = [assemble(build_graph(300, [(i, i + 1, 1.0 + (i % 3))
                                      for i in range(299)])),
           stiff_star_op]
    for op in ops:
        f = np.random.default_rng(6).uniform(0.1, 1.0, op.n)
        got = apply(op, t, f, KRYLOV)
        with monkeypatch.context() as patch:
            patch.setattr(semigroup, "_tridiagonal_eigh",
                          lambda stevd, d, e: scipy.linalg.eigh_tridiagonal(
                              d, e))
            want = apply(op, t, f, KRYLOV)
        assert got.tobytes() == want.tobytes()


def test_krylov_names_its_step_cap(monkeypatch, fine_star_op):
    monkeypatch.setattr(semigroup, "_KRYLOV_DIM", 4)
    f = np.random.default_rng(6).uniform(0.1, 1.0, fine_star_op.n)
    with pytest.raises(KrylovBreakdown, match="in 4 steps"):
        apply(fine_star_op, 1.0, f, KRYLOV)


def test_pade13_against_dense_spectral():
    rng = np.random.default_rng(np.uint64(3))
    B = rng.standard_normal((12, 12))
    S = (B + B.T) / 2
    F, squarings = series_expm(S)
    w, U = np.linalg.eigh(S)
    npt.assert_allclose(F, U @ np.diag(np.exp(w)) @ U.T, atol=1e-11)
    assert squarings >= 0


@pytest.mark.parametrize("n", [1, 2, 200])
def test_pade13_of_zero_is_exact_identity(n):
    F, squarings = series_expm(np.zeros((n, n)))
    npt.assert_array_equal(F, np.eye(n))
    assert squarings == 0


def _unit_path(n):
    return assemble(build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)]))


def _closed_form_unit_path(n, t):
    """e^{-tS} of the unit path on n vertices, from its cosine eigenbasis
    (eigenvalues 2 - 2 cos(pi k / n)), summed at 60 + 1.5 n digits so that
    entries near 1e-80 come out exact to double precision."""
    import mpmath
    with mpmath.workdps(60 + 3 * n // 2):
        C = [[mpmath.cos(mpmath.pi * k * (x + mpmath.mpf(1) / 2) / n)
              for x in range(n)] for k in range(n)]
        w = [(1 if k == 0 else 2) * mpmath.exp(
            -t * (2 - 2 * mpmath.cos(mpmath.pi * k / n))) / n
             for k in range(n)]
        return np.array([[float(mpmath.fsum(w[k] * C[k][x] * C[k][y]
                                            for k in range(n)))
                          for y in range(n)] for x in range(n)])


@pytest.mark.parametrize("n", [12, 60])
@pytest.mark.parametrize("t", [1.0, 10.0, 37.5])
def test_series_matches_the_closed_form_on_unit_paths(n, t):
    # the series of N = d - tS >= 0 adds non-negative terms: its error is
    # at rounding level against the largest entry, it never exceeds an
    # entry by more than rounding, and it is exactly 0 for pairs further
    # apart than the 24 2^s edges its terms reach; once every pair is
    # within reach, every entry in the normal range is relatively accurate
    op, eps = _unit_path(n), np.finfo(float).eps
    F, s = series_expm(-t * op.S)
    exact = _closed_form_unit_path(n, t)
    normal = exact >= np.finfo(float).tiny
    assert normal.all() and np.all(F >= 0)
    scale = np.max(exact)
    assert np.max(np.abs(F - exact)) <= (1e-14 + eps * t * op.s_norm1) * scale
    assert np.all(F <= exact * (1 + 1e-12))
    x, y = np.indices((n, n))
    reach = 24 * 2 ** s
    assert np.all((F > 0) == (np.abs(x - y) <= reach))
    if reach >= n - 1:
        assert np.max(np.abs(F - exact) / exact) <= 1e-11


def test_series_matches_eigsy_on_a_stiff_star():
    # a discretized star with Dirichlet leaves, ||S||_1 ~ 1.2e3: every
    # entry of e^{-tS} against a 40-digit eigen-expansion
    import mpmath
    from conftest import _stiff_star
    op, eps = _stiff_star(0.06), np.finfo(float).eps
    assert 30 <= op.n <= 50
    with mpmath.workdps(40):
        w, U = mpmath.eigsy(mpmath.matrix(op.S.tolist()))
        for t in (1.0, 100.0):
            E = U * mpmath.diag([mpmath.exp(-t * w[k])
                                 for k in range(op.n)]) * U.T
            exact = np.array([[float(E[x, y]) for y in range(op.n)]
                              for x in range(op.n)])
            F, _ = series_expm(-t * op.S)
            assert np.all(exact >= np.finfo(float).tiny) and np.all(F >= 0)
            bound = 1e-13 + eps * t * op.s_norm1
            assert np.max(np.abs(F - exact) / exact) <= bound


def _graph_families(rng):
    """One operator of every graph family these tests build."""
    yield from (_unit_path(n) for n in (2, 12, 60))
    yield from (_seeded_path(n) for n in (300, 700))
    yield from (assemble(random_graph(rng, n_max=n, connected=connected))
                for n in (12, 60, 300) for connected in (True, False))
    yield _shifted_graph_op(rng)
    yield assemble(_weighted_path(60, 3, m_spread=2.0))
    yield assemble(build_graph(1, [], c=[2.0]))
    yield assemble(build_graph(101, [(i, (i + 1) % 101, 1.0)
                                     for i in range(101)]))
    from conftest import _stiff_star
    yield from (_stiff_star(h) for h in (0.06, 0.02, 0.008))


@pytest.mark.parametrize("t", [1.0, 100.5])
def test_series_of_minus_s_has_no_negative_entry(rng, t, single_edge, path3,
                                                 path3_killed, k4,
                                                 two_triangles):
    # -tS has no negative entry off its diagonal; shifted by d it has none
    # at all, and the series and squarings only add and multiply
    # non-negative numbers
    small = [assemble(g) for g in (single_edge, path3, path3_killed, k4,
                                   two_triangles)]
    for op in [*small, *_graph_families(rng)]:
        for M in (op.S * -t, csr_array(op.S) * -t):
            F, _ = series_expm(M)
            assert np.all(F >= 0), op.n


def test_series_of_a_multiple_of_the_identity_is_exact():
    # d = 3 shifts -3 I to N = 0, whose series is I: e^{-3} I exactly, as
    # the zero matrix (N = 0, d = 0) gives I in either format
    for M in (csr_array((5, 5)), np.zeros((5, 5))):
        F, s = series_expm(M)
        assert s == 0 and F.tobytes() == np.eye(5).tobytes()
    for M in (-3.0 * np.eye(5), csr_array(-3.0 * np.eye(5))):
        F, s = series_expm(M)
        assert s == 0 and F.tobytes() == (math.exp(-3.0) * np.eye(5)).tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_series_of_a_non_finite_matrix_names_it(bad):
    M = np.zeros((3, 3))
    M[0, 1] = bad
    for given in (M, csr_array(M)):
        with pytest.raises(NumericsError, match="no finite 1-norm"):
            series_expm(given)


def test_series_of_sparse_and_dense_input_agree(rng):
    # the two formats evaluate the same sums in another order, which the
    # squarings amplify with the conditioning of e^{-tS}; the sparse route
    # also zeroes entries below sqrt(tiny) max|F| before squaring
    eps = np.finfo(float).eps
    for op in _graph_families(rng):
        for t in (1.0, 100.5):
            want, s = series_expm(op.S * -t)
            got, s_sparse = series_expm(csr_array(op.S) * -t)
            assert s_sparse == s
            bound = (1e-13 + eps * t * op.s_norm1) * np.max(want)
            assert np.max(np.abs(got - want)) <= bound


def test_heat_kernel_single_edge(single_edge_op):
    K = heat_kernel(single_edge_op, 1.25)
    p12 = (1 - np.exp(-2 * 1.25)) / 2
    assert K.p[0, 1] == pytest.approx(p12, rel=1e-12)
    assert K.p[1, 0] == pytest.approx(p12, rel=1e-12)
    assert kernel_symmetry_defect(K) <= 1e-10


@pytest.mark.parametrize("method", METHODS, ids=TAGS)
@pytest.mark.parametrize("t", [0.0] + NON_FINITE,
                         ids=["zero"] + NON_FINITE_IDS)
def test_heat_kernel_rejects_nonpositive_time(single_edge_op, t, method):
    error, match = ((NonPositiveTime, "t > 0") if t == 0.0
                    else (ValidationError, "not finite"))
    with pytest.raises(error, match=match):
        heat_kernel(single_edge_op, t, method)
    with pytest.raises(error, match=match):
        kernel_column(single_edge_op, t, 0, method)


def test_kernel_reproduces_semigroup(rng):
    op = assemble(random_graph(rng, n_max=25))
    K = heat_kernel(op, 0.8)
    f = random_vector(rng, op.n)
    npt.assert_allclose(K.p @ (f * op.m), apply(op, 0.8, f), atol=1e-10)


def test_kernel_column_matches_full(rng):
    op = assemble(random_graph(rng, n_max=20))
    K = heat_kernel(op, 0.5)
    npt.assert_allclose(kernel_column(op, 0.5, 3), K.p[:, 3], atol=1e-12)


def test_kernel_column_resolves_its_vertex(path3):
    op = assemble(path3)
    npt.assert_array_equal(kernel_column(op, 1.0, "1"),
                           kernel_column(op, 1.0, 0))
    for y, match in ((-1, "index -1 out of range"),
                     (3, "index 3 out of range"), ("9", "unknown vertex id")):
        with pytest.raises(UnknownVertex, match=match):
            kernel_column(op, 1.0, y)


def test_chapman_kolmogorov(rng, single_edge_op):
    assert chapman_kolmogorov_defect(single_edge_op, 0.5, 0.5) <= 1e-10
    op = assemble(random_graph(rng, n_max=30))
    assert chapman_kolmogorov_defect(op, 0.3, 1.7) <= 1e-10


def test_disconnected_kernel_vanishes_exactly(two_triangles):
    op = assemble(two_triangles)
    K = heat_kernel(op, 1.0, SPECTRAL)
    # cross-component block is exactly zero for the spectral evaluator
    assert np.max(np.abs(K.p[:3, 3:])) == 0.0


def _unit_time_results(op_for, f):
    grid = TimeGrid.geometric(1.0, 2.0, 4)
    ids = op_for().graph.vertices
    return (apply(op_for(), 1.0, f, SCALING_SQUARING),
            heat_kernel(op_for(), 1.0, SCALING_SQUARING).p,
            [rate_kernel(op_for(), ids[0], y, grid).log_values
             for y in (ids[1], ids[-1])],
            positivity_improving(op_for()))


def test_unit_time_exponential_computed_once_per_operator(monkeypatch):
    calls = []

    def counted(M):
        calls.append(M.shape)
        return series_expm(M)

    monkeypatch.setattr(semigroup, "series_expm", counted)
    g = random_graph(np.random.default_rng(7), n_max=12)
    op = assemble(g)
    assert op.n > 2
    f = random_vector(np.random.default_rng(8), op.n)
    got = _unit_time_results(lambda: op, f)
    assert len(calls) == 1
    apply(op, 2.5, f, SCALING_SQUARING)
    apply(op, 2.5, f, SCALING_SQUARING)
    assert len(calls) == 3

    # every result again, each on its own new operator, so each computes
    # e^{-S} afresh
    fresh = _unit_time_results(lambda: assemble(g), f)
    assert len(calls) == 8
    npt.assert_array_equal(got[0], fresh[0])
    npt.assert_array_equal(got[1], fresh[1])
    for a, b in zip(got[2], fresh[2]):
        npt.assert_array_equal(a, b)
    assert got[3] is fresh[3] is True

    stored = _held_exponential(op)
    assert not stored.flags.writeable
    p = heat_kernel(op, 1.0, SCALING_SQUARING).p
    assert p.flags.writeable and not np.shares_memory(p, stored)


def _seeded_path(n=300):
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 2.0, n - 1)
    return assemble(build_graph(
        n, [(i, i + 1, float(w[i])) for i in range(n - 1)],
        m=rng.uniform(0.5, 2.0, n)))


def _fully_squared(op, t, f):
    """Scaling-squaring e^{-tL} f with every squaring done on the matrix."""
    rs = np.sqrt(op.m)
    return (series_expm(-t * op.S)[0] @ (rs * f)) / rs


def _refused(*args, **kwargs):
    raise AssertionError("scaling-squaring apply took a sparse LU")


@pytest.mark.parametrize("t", [10.0, 100.0, 1000.0, 2.5, 10.5, 100.5])
def test_powered_apply_matches_full_squaring_and_spectral(monkeypatch, t,
                                                          stiff_star_op):
    # F^j v is the one route: no sparse LU, also on
    # the long path whose factors stay sparse
    monkeypatch.setattr(scipy.sparse.linalg, "splu", _refused)
    eps = np.finfo(float).eps
    ops = (_seeded_path(700),) if t % 1 else (_seeded_path(), stiff_star_op)
    for op in ops:
        f = np.random.default_rng(6).uniform(0.1, 1.0, op.n)
        got = apply(op, t, f, SCALING_SQUARING)
        cond = 100 * eps * t * np.linalg.norm(op.S, 1)
        for ref in (_fully_squared(op, t, f), apply(op, t, f, SPECTRAL)):
            # relative to the answer, as long-time asymptotics need; results
            # that underflow compare absolutely
            bound = (1e-9 + cond) * op.norm(ref) + 1e-280 * op.norm(f)
            assert op.norm(got - ref) <= bound


def _csr_fully_squared(op, t, f):
    """As _fully_squared, with S handed to series_expm in CSR format, the
    way the scaling-squaring apply hands it from n = 256 on."""
    rs = np.sqrt(op.m)
    return (series_expm(csr_array(op.S) * -t)[0] @ (rs * f)) / rs


def _dense(M):
    return M.toarray() if issparse(M) else M


def _recorded_series(monkeypatch):
    calls = []

    def recorded(M):
        out = series_expm(M)
        calls.append((M, out))
        return out

    monkeypatch.setattr(semigroup, "series_expm", recorded)
    return calls


def test_powered_apply_without_vector_factors_is_unchanged(monkeypatch, rng):
    # whole times power e^{-S} instead (test_whole_time_apply_*)
    cases = [(assemble(build_graph(1, [])), 10.5),
             (assemble(build_graph(1, [], c=[2.0])), 10.5)]
    op = assemble(random_graph(rng, n_max=20))
    t = 2.0 / np.linalg.norm(op.S, 1)
    assert series_expm(-t * op.S)[1] == 0
    cases.append((op, t))
    for op, t in cases:
        f = random_vector(rng, op.n)
        npt.assert_array_equal(apply(op, t, f, SCALING_SQUARING),
                               _fully_squared(op, t, f))
    # from n = 256 on S is handed over in CSR format; s = 0, so k = 0
    op = assemble(random_graph(rng, n_max=400))
    while op.n < 256:
        op = assemble(random_graph(rng, n_max=400))
    t = 2.0 / np.linalg.norm(op.S, 1)
    f = random_vector(rng, op.n)
    want = _csr_fully_squared(op, t, f)
    calls = _recorded_series(monkeypatch)
    npt.assert_array_equal(apply(op, t, f, SCALING_SQUARING), want)
    (M, (_, squarings)), = calls
    assert issparse(M) and squarings == 0
    npt.assert_array_equal(M.toarray(), (csr_array(op.S) * -t).toarray())


def test_powered_apply_leaves_last_squarings_to_the_vector(
        monkeypatch, stiff_star_op, fine_star_op):
    # the small star reaches series_expm dense, the large one in CSR format
    for op, sparse in ((stiff_star_op, False), (fine_star_op, True)):
        assert sparse == (op.n >= 256)
        S = csr_array(op.S) if sparse else op.S
        calls = _recorded_series(monkeypatch)
        apply(op, 100.5, np.ones(op.n), SCALING_SQUARING)
        (M, (F, squarings)), = calls
        full, s = series_expm(S * -100.5)
        k = s - squarings
        assert k == min(s, int(np.log2(op.n)) - 1) > 0
        assert issparse(M) == sparse
        npt.assert_array_equal(_dense(M), _dense(S * (-100.5 / 2.0 ** k)))
        # F is the matrix the full route holds with k squarings to go
        for _ in range(k):
            F = F @ F
        npt.assert_array_equal(F, full)


def _held_exponential(op):
    """The e^{-S} held on op, read through ``OperatorRep.held``; fails the
    test where op holds none."""
    return op.held("exp(-S)", lambda: pytest.fail("op holds no e^{-S}"))


def _held(op):
    """op, with e^{-S} computed and kept by a scaling-squaring apply at
    t = 1."""
    apply(op, 1.0, np.ones(op.n), SCALING_SQUARING)
    _held_exponential(op)
    return op


def _assert_scaling_squaring_bound(op, t, f, got):
    cond = 100 * np.finfo(float).eps * t * np.linalg.norm(op.S, 1)
    for ref in (_fully_squared(op, t, f), apply(op, t, f, SPECTRAL)):
        # relative to the answer; results that underflow compare absolutely
        bound = (1e-9 + cond) * op.norm(ref) + 1e-280 * op.norm(f)
        assert op.norm(got - ref) <= bound


def test_whole_time_apply_powers_the_held_exponential(monkeypatch, rng,
                                                      stiff_star_op):
    ops = [_seeded_path(700), stiff_star_op,
           assemble(random_graph(rng, n_max=60))]
    for op in ops:
        _held(op)
        held = _held_exponential(op)
        kept = held.copy()
        f = np.random.default_rng(6).uniform(0.1, 1.0, op.n)
        calls = _recorded_series(monkeypatch)
        floors = []
        floor = semigroup._floor
        monkeypatch.setattr(semigroup, "_floor",
                            lambda F: floors.append(floor(F)))
        times = (2.0, 10.0, 100.0, 1000.0)
        got = {t: apply(op, t, f, SCALING_SQUARING) for t in times}
        assert calls == []
        # one floor per squaring, at most ceil(log2(j / 2^k)) squarings
        budget = 2 ** (op.n.bit_length() - 2)
        assert 0 < len(floors) <= sum(max(math.ceil(math.log2(t / budget)), 0)
                                      for t in times)
        monkeypatch.undo()
        assert _held_exponential(op) is held
        assert not held.flags.writeable
        npt.assert_array_equal(held, kept)
        for t, out in got.items():
            _assert_scaling_squaring_bound(op, t, f, out)


@pytest.mark.parametrize("t", [2.0, 10.0, 1000.0])
def test_whole_time_apply_is_independent_of_earlier_calls(rng, t,
                                                          stiff_star_op):
    # a fresh operator builds e^{-S} and powers it, as one that already
    # held it from a call at t = 1 does
    for op in (_seeded_path(700), stiff_star_op,
               assemble(random_graph(rng, n_max=60))):
        f = np.random.default_rng(6).uniform(0.1, 1.0, op.n)
        fresh = assemble(op.graph)
        got = apply(fresh, t, f, SCALING_SQUARING)
        npt.assert_array_equal(got, apply(_held(op), t, f, SCALING_SQUARING))
        assert not _held_exponential(fresh).flags.writeable


def test_whole_time_apply_takes_integer_times(monkeypatch, path3):
    op = _held(assemble(path3))
    f = np.array([1.0, 0.0, 0.0])
    want = apply(op, 7.0, f, SCALING_SQUARING)
    calls = _recorded_series(monkeypatch)
    for t in (7, np.int64(7)):
        npt.assert_array_equal(apply(op, t, f, SCALING_SQUARING), want)
    assert calls == []


@pytest.mark.parametrize("t", [2.0, 10.0])
def test_whole_time_apply_grows_below_a_negative_lower_bound(rng, t):
    # E0 < 0: ||e^{-S}|| > 1 and its powers grow
    op = _held(_shifted_graph_op(rng))
    assert op.lower_bound < 0
    f = random_vector(rng, op.n)
    _assert_scaling_squaring_bound(op, t, f,
                                   apply(op, t, f, SCALING_SQUARING))


@pytest.mark.parametrize("t", [1e15, 1e300])
def test_whole_time_apply_names_unresolvable_time(monkeypatch, path3, t):
    op = _held(assemble(path3))
    floors = []
    monkeypatch.setattr(semigroup, "_floor", floors.append)
    with pytest.raises(NumericsError, match=re.escape(f"t = {t}")) as exc:
        apply(op, t, [1.0, 0.0, 0.0], SCALING_SQUARING)
    assert "s = " in str(exc.value)
    assert floors == []  # raised before the first squaring


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_whole_time_apply_reports_an_overflowing_power(monkeypatch, path3):
    # E0 = -3: E^300 grows like e^900 and leaves the floating range
    op = _held(shift_by_potential(assemble(path3), np.full(3, 3.0)))
    calls = _recorded_series(monkeypatch)
    with pytest.raises(NumericsError, match=re.escape("t = 300.0")):
        apply(op, 300.0, [1.0, 0.0, 0.0], SCALING_SQUARING)
    assert calls == []


def test_whole_time_heat_kernel_runs_a_fresh_chain(monkeypatch, path3):
    # whole-time kernels stay independent of e^{-S}, so that
    # p_{t+s} = p_t p_s remains a check and not an identity
    op = _held(assemble(path3))
    calls = _recorded_series(monkeypatch)
    heat_kernel(op, 2.0, SCALING_SQUARING)
    assert len(calls) == 1


def test_floor_matches_boolean_indexing(rng):
    F = rng.standard_normal((40, 40)) * 10.0 ** rng.integers(-320, 2,
                                                            (40, 40))
    for G in (F, np.where(F > 1, np.inf, F)):
        want = G.copy()
        size = np.abs(want)
        with np.errstate(invalid="ignore", over="ignore"):
            want[size < semigroup._SQUARING_FLOOR * size.max()] = 0.0
            got = G.copy()
            semigroup._floor(got)
        npt.assert_array_equal(got, want)


@pytest.mark.parametrize("t", [1e300, 1e308])
def test_scaling_squaring_names_overflow_at_huge_time(path3, t):
    # at 1e300 the squarings overflow, at 1e308 so does t ||S||_1
    op = assemble(path3)
    for evaluate in (lambda: apply(op, t, [1.0, 0.0, 0.0], SCALING_SQUARING),
                     lambda: heat_kernel(op, t, SCALING_SQUARING)):
        with pytest.raises(NumericsError, match=re.escape(f"t = {t}")) as exc:
            evaluate()
        assert "s = " in str(exc.value)


def _shifted_graph_op(rng):
    op = assemble(random_graph(rng, n_max=40))
    shifted = shift_by_potential(op, np.full(op.n, 3.0))
    energies = np.linalg.eigvalsh(shifted.S)
    assert energies[0] < 0 < energies[-1]
    return shifted


def test_pade13_sparse_input_agrees_with_dense(rng, stiff_star_op):
    ops = [_seeded_path(), stiff_star_op, _shifted_graph_op(rng),
           assemble(random_graph(rng, n_max=40, connected=False))]
    eps = np.finfo(float).eps
    for op in ops:
        for t in (1.0, 10.0):
            want, s = series_expm(-t * op.S)
            got, s_sparse = series_expm(csr_array(op.S) * -t)
            assert isinstance(got, np.ndarray) and s_sparse == s
            bound = 1e-9 + 100 * eps * t * np.linalg.norm(op.S, 1)
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def _fitted(monkeypatch):
    """The powers and partial sums of every series built from now on, as
    ``semigroup._fit`` returns them."""
    out = []
    fit = semigroup._fit
    monkeypatch.setattr(semigroup, "_fit",
                        lambda P: out.append(fit(P)) or out[-1])
    return out


def test_pade13_factors_of_short_diameter_graph_come_back_dense(monkeypatch):
    rng = np.random.default_rng(11)
    op = assemble(random_graph(rng, n_max=200))
    while op.n < 100:
        op = assemble(random_graph(rng, n_max=200))
    fitted = _fitted(monkeypatch)
    series_expm(csr_array(-op.S))
    assert isinstance(fitted[-1], np.ndarray)
    fitted.clear()
    # a path's partial sums reach band width 24 on each side: below a
    # tenth fill from n = 490 on
    series_expm(csr_array(-_seeded_path(700).S))
    assert fitted and all(issparse(P) for P in fitted)


def _unfloored_series(M):
    """series_expm of a sparse M with every squaring done on the matrix as
    it is: the series of M / 2^s, which takes no squaring, squared s times;
    also the number of its entries below the squaring floor."""
    _, s = series_expm(M)
    F, unscaled = series_expm(M / 2.0 ** s)
    assert unscaled == 0
    size = np.abs(F)
    below = int(np.sum(size < semigroup._SQUARING_FLOOR * size.max()))
    for _ in range(s):
        F = F @ F
    return F, s, below


@pytest.mark.parametrize("t", [1.0, 1000.0])
def test_sparse_pade_floor_stays_below_the_approximation_error(t):
    # the far entries of e^{-tS / 2^s} on a long path lie below
    # sqrt(tiny) max|F| and are zeroed before each squaring
    op = _seeded_path(700)
    M = csr_array(op.S) * -t
    got, s = series_expm(M)
    want, s_want, below = _unfloored_series(M)
    assert s == s_want and below > 0
    scale = np.max(np.abs(want))
    bound = op.n * 2.0 ** s * semigroup._SQUARING_FLOOR * scale
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("t", [1.0, 100.0])
def test_sparse_pade_floor_leaves_the_star_unchanged(fine_star_op, t):
    M = csr_array(fine_star_op.S) * -t
    got, _ = series_expm(M)
    want, _, below = _unfloored_series(M)
    assert below > 0
    npt.assert_array_equal(got, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sparse_pade_floor_keeps_overflow_visible(monkeypatch):
    # E0 < 0: e^{-tS} grows; the sparse-built series of the path is floored
    # before each squaring, and an infinite max |F| must not floor the
    # overflow away
    op = shift_by_potential(_seeded_path(), np.full(300, 3.0))
    t = 400.0
    s, S = semigroup._squarings(op, t), csr_array(op.S)
    floors = []
    floor = semigroup._floor
    monkeypatch.setattr(semigroup, "_floor",
                        lambda F: floors.append(floor(F)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(series_expm(S * -t)[0]))
    assert len(floors) == s > 0
    monkeypatch.undo()
    for evaluate in (lambda: apply(op, t, np.ones(op.n), SCALING_SQUARING),
                     lambda: heat_kernel(op, t, SCALING_SQUARING)):
        with pytest.raises(NumericsError, match=re.escape(f"t = {t}")):
            evaluate()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", METHODS, ids=TAGS)
@pytest.mark.parametrize("t", [300.0, 1000.0])
def test_overflowing_results_raise_naming_time(path3, method, t):
    # E0 = -3: e^{-tL} grows like e^{3t} and leaves the floating range
    op = shift_by_potential(assemble(path3), np.full(3, 3.0))
    for evaluate in (lambda: apply(op, t, [1.0, 0.0, 0.0], method),
                     lambda: heat_kernel(op, t, method)):
        with pytest.raises(NumericsError, match=re.escape(f"t = {t}")):
            evaluate()


@pytest.mark.parametrize("method", METHODS, ids=TAGS)
@pytest.mark.parametrize("t", [1e15, 1e16])
def test_unresolvable_time_raises_for_every_method(path3, method, t):
    # 100 eps t ||S||_1 >= 1: rounding S alone leaves no correct digit
    op = assemble(path3)
    for evaluate in (lambda: apply(op, t, [1.0, 0.0, 0.0], method),
                     lambda: heat_kernel(op, t, method)):
        with pytest.raises(NumericsError, match=re.escape(f"t = {t}")):
            evaluate()


@pytest.mark.parametrize("method", METHODS, ids=TAGS)
def test_large_resolvable_time_stays_within_bound(path3, method):
    op = assemble(path3)
    t = 1e12
    f = np.array([1.0, 0.0, 0.0])
    ref = np.full(3, 1.0 / 3.0)  # the mean of f; e^{-t} is 0 beyond it
    cond = 100 * np.finfo(float).eps * t * np.linalg.norm(op.S, 1)
    got = apply(op, t, f, method)
    assert op.norm(got - ref) <= (1e-9 + cond) * op.norm(ref)


@pytest.mark.parametrize("method", ["spectral", "expm", "krylov"])
def test_cli_huge_time_writes_one_json_error_line(tmp_path, method):
    graph = tmp_path / "path.json"
    graph.write_text(json.dumps({
        "vertices": [{"id": v} for v in "123"],
        "edges": [{"u": "1", "v": "2", "b": 1.0},
                  {"u": "2", "v": "3", "b": 1.0}]}))
    src = Path(semigroup.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-m", "heatlab.cli", "kernel", "--graph",
         str(graph), "--t", "1e300", "--method", method,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert out.returncode == 2
    lines = out.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "NumericsError" and "t = 1e+300" in err["message"]


def test_import_leaves_scipy_sparse_unloaded():
    # nor any other scipy module: dense LAPACK goes through numpy
    src = Path(semigroup.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, heatlab; print(sorted(m for m in sys.modules "
         "if m.startswith('scipy')))"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_resolvent_diagonal():
    g = build_graph(["1", "2"], [], c=[3.0, 1.0])
    op = assemble(g)
    npt.assert_allclose(resolvent(op, 2.0), np.diag([0.2, 1 / 3]), atol=1e-13)


def test_resolvent_single_edge(single_edge_op):
    R = resolvent(single_edge_op, 1.0)
    npt.assert_allclose(R, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3,
                        atol=1e-12)


def test_resolvent_neumann_regime(rng):
    op = assemble(random_graph(rng, n_max=20))
    alpha = 1e6
    R = resolvent(op, alpha)
    dev = np.linalg.norm(R - np.eye(op.n) / alpha, 2)
    rs = np.sqrt(op.m)
    A = op.S * rs[None, :] / rs[:, None]
    assert dev <= 10 * np.linalg.norm(A, 2) / alpha ** 2 + 1e-15


def test_resolvent_identity(rng):
    op = assemble(random_graph(rng, n_max=20, c_scale=1.0))
    R = resolvent(op, 0.7)
    rs = np.sqrt(op.m)
    A = op.S * rs[None, :] / rs[:, None]
    npt.assert_allclose(R @ (A + 0.7 * np.eye(op.n)), np.eye(op.n),
                        atol=1e-9)


def test_resolvent_singular_shift(single_edge_op):
    with pytest.raises(SingularShift):
        resolvent(single_edge_op, 0.0)
    with pytest.raises(SingularShift):
        resolvent(single_edge_op, -0.5)


def _weighted_path(n, seed, m_spread=0.0):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, n - 1)
    return build_graph(n, [(i, i + 1, float(w[i])) for i in range(n - 1)],
                       m=10.0 ** rng.uniform(-m_spread, m_spread, n))


def _lu_route_resolvent(op, alpha):
    """The resolvent as np.linalg.inv of the whole Cholesky factor forms it."""
    C = np.linalg.cholesky(op.S + alpha * np.eye(op.n))
    C_inv = np.linalg.inv(C)
    rs = np.sqrt(op.m)
    return (C_inv.T @ C_inv) * np.outer(1.0 / rs, rs)


def _exact_resolvent(g, alpha):
    """(L + alpha)^{-1} at 50 digits, from the graph's own data."""
    import mpmath
    with mpmath.workdps(50):
        A = mpmath.zeros(g.n, g.n)
        for i, j, w in g.edges:
            for x, y in ((i, j), (j, i)):
                A[x, x] += w
                A[x, y] -= w
        for x in range(g.n):
            A[x, x] += g.c[x]
            for y in range(g.n):
                A[x, y] /= mpmath.mpf(float(g.m[x]))
            A[x, x] += alpha
        R = A ** -1
        return np.array([[float(R[x, y]) for y in range(g.n)]
                         for x in range(g.n)])


@pytest.mark.parametrize("graph", [
    build_graph(40, [(i, i + 1, 1.0) for i in range(39)]),
    _weighted_path(60, 3, m_spread=2.0),
])
def test_resolvent_is_entrywise_accurate(graph):
    # S + alpha is an M-matrix: its inverse is positive on a connected
    # graph and formed without cancellation, so every entry, the far
    # ones near 1e-40 included, carries nearly full relative accuracy
    R = resolvent(assemble(graph), 1.0)
    exact = _exact_resolvent(graph, 1.0)
    assert np.all(R > 0)
    assert np.max(np.abs(R - exact) / exact) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, semigroup._TRIANGULAR_LEAF - 1,
                               semigroup._TRIANGULAR_LEAF,
                               semigroup._TRIANGULAR_LEAF + 1,
                               2 * semigroup._TRIANGULAR_LEAF + 1, 257])
def test_resolvent_agrees_with_the_lu_route(n):
    rng = np.random.default_rng(n)
    edges = [(i, i + 1, float(w)) for i, w in
             enumerate(rng.uniform(0.5, 2.0, n - 1))]
    edges += [(i, j, 0.3) for i, j in rng.integers(0, n, (n // 8, 2))
              if abs(int(i) - int(j)) > 1 and i < j]
    g = build_graph(n, sorted(set(edges)), m=rng.uniform(0.5, 2.0, n),
                    c=rng.uniform(0.0, 0.1, n))
    op = assemble(g)
    R, want = resolvent(op, 0.5), _lu_route_resolvent(op, 0.5)
    if n <= semigroup._TRIANGULAR_LEAF:  # the same LAPACK call
        assert R.tobytes() == want.tobytes()
    else:
        npt.assert_allclose(R, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [semigroup._TRIANGULAR_LEAF + 1, 257])
def test_resolvent_is_exactly_symmetric(n):
    # m = 1: the resolvent is C^{-T} C^{-1} itself
    op = assemble(build_graph(n, [(i, i + 1, 1.0 + i % 3)
                                  for i in range(n - 1)]))
    R = resolvent(op, 1.0)
    npt.assert_array_equal(R, R.T)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_resolvent_rejects_a_non_finite_shift(path3, alpha):
    with pytest.raises(ValidationError, match="not finite"):
        resolvent(assemble(path3), alpha)


def test_resolvent_singular_shift_above_the_leaf():
    op = assemble(_weighted_path(3 * semigroup._TRIANGULAR_LEAF, 4))
    with pytest.raises(SingularShift):
        resolvent(op, -1e-3)


def _hub_first_tree(arms, length, seed):
    """Weighted paths joined at vertex 0, numbered arm after arm."""
    rng = np.random.default_rng(seed)
    n = 1 + arms * length
    edges = []
    for first in range(1, n, length):
        edges.append((0, first, float(rng.uniform(0.5, 2.0))))
        edges += [(k, k + 1, float(rng.uniform(0.5, 2.0)))
                  for k in range(first, first + length - 1)]
    return build_graph(n, edges, m=rng.uniform(0.5, 2.0, n))


def _weighted_cycle(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, n)
    return build_graph(n, [(k, (k + 1) % n, float(w[k])) for k in range(n)],
                       m=rng.uniform(0.5, 2.0, n))


@pytest.mark.parametrize("graph", [_hub_first_tree(4, 20, 1),
                                   _weighted_cycle(90, 2)],
                         ids=["hub-first tree", "weighted cycle"])
def test_resolvent_is_entrywise_accurate_off_the_band(graph):
    # above the leaf the coupling block holds the hub's edges to the arms
    # in the second half, or the cycle's closing edge: not a band
    assert graph.n > semigroup._TRIANGULAR_LEAF
    R = resolvent(assemble(graph), 1.0)
    exact = _exact_resolvent(graph, 1.0)
    assert np.all(R > 0)
    assert np.max(np.abs(R - exact) / exact) <= 1e-13


@pytest.mark.parametrize("interleaved", [False, True],
                         ids=["in halves", "interleaved"])
def test_resolvent_of_two_components_is_zero_between_them(interleaved):
    n = 2 * semigroup._TRIANGULAR_LEAF + 6
    rng = np.random.default_rng(7)
    parts = ([range(0, n, 2), range(1, n, 2)] if interleaved
             else [range(n // 2), range(n // 2, n)])
    edges = [(a, b, float(rng.uniform(0.5, 2.0)))
             for part in parts for a, b in zip(part, part[1:])]
    op = assemble(build_graph(n, edges, m=rng.uniform(0.5, 2.0, n)))
    R = resolvent(op, 1.0)
    second = np.isin(np.arange(n), parts[1])
    between = second[:, None] != second[None, :]
    assert np.all(R[between] == 0)
    assert np.all(R[~between] > 0)
    assert positivity_improving(op) is False


def test_resolvent_of_a_short_diameter_graph_agrees_with_the_lu_route():
    rng = np.random.default_rng(11)
    g = next(g for g in iter(lambda: random_graph(rng, n_max=300), None)
             if g.n > 2 * semigroup._TRIANGULAR_LEAF)
    op = assemble(g)
    # most rows of the first coupling block hold a nonzero, so the
    # recursion multiplies whole blocks there
    h = op.n // 2
    assert 2 * np.count_nonzero(op.S[h:, :h].any(axis=1)) > op.n - h
    npt.assert_allclose(resolvent(op, 0.5), _lu_route_resolvent(op, 0.5),
                        rtol=1e-13, atol=0)


def test_trotter_rejects_bad_potential(path3):
    op = assemble(path3)
    f = np.ones(op.n)
    for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]):
        with pytest.raises(ValidationError, match="potential"):
            trotter(op, bad, 1.0, 4, f)
    with pytest.raises(ValueError, match=r"potential must have shape \(3,\)"):
        trotter(op, np.zeros(2), 1.0, 4, f)


def test_trotter_rejects_a_non_finite_datum(path3, decompositions):
    op = assemble(path3)
    for bad in ([np.nan, 1.0, 1.0], [1.0, -np.inf, 1.0]):
        with pytest.raises(ValidationError, match="datum f is not finite"):
            trotter(op, np.zeros(op.n), 1.0, 4, bad)
    assert decompositions == []


def test_trotter_zero_potential(rng):
    op = assemble(random_graph(rng, n_max=15))
    f = random_vector(rng, op.n)
    npt.assert_allclose(trotter(op, np.zeros(op.n), 1.0, 7, f),
                        apply(op, 1.0, f), atol=1e-10)


def test_trotter_constant_potential_exact(rng):
    # constant V commutes with L, so splitting is exact at every n
    op = assemble(random_graph(rng, n_max=15))
    f = random_vector(rng, op.n)
    for n in (1, 3, 10):
        got = trotter(op, np.full(op.n, 0.7), 1.4, n, f)
        want = np.exp(1.4 * 0.7) * apply(op, 1.4, f)
        npt.assert_allclose(got, want, rtol=1e-11)


def test_trotter_error_halves(single_edge_op):
    from heatlab.perturbation import truncated_semigroup

    V = np.array([1.0, 0.0])
    f = np.array([1.0, 1.0])
    exact = truncated_semigroup(single_edge_op, V, 2.0, 1.0, f)
    errs = [np.linalg.norm(trotter(single_edge_op, V, 1.0, n, f) - exact)
            for n in (64, 128)]
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)


def test_positivity_preserving(rng):
    for _ in range(50):
        op = assemble(random_graph(rng, n_max=25, c_scale=0.5))
        f = random_vector(rng, op.n, positive=True)
        for t in (0.1, 1.0, 10.0):
            u = apply(op, t, f)
            assert np.min(u) >= -1e-12 * np.linalg.norm(f)


def test_contraction_after_ground_shift(rng):
    for _ in range(10):
        op = assemble(random_graph(rng, n_max=25, c_scale=1.0))
        e0 = eigendecompose(op).E0
        f = random_vector(rng, op.n)
        shifted = np.exp(2.0 * e0) * apply(op, 2.0, f)
        assert op.norm(shifted) <= (1 + 1e-12) * op.norm(f)


def test_kernel_monotone_in_killing(rng):
    # enlarging c can only lower the kernel
    g = random_graph(rng, n_max=12, c_scale=0.2)
    bump = random_vector(rng, g.n, positive=True)
    g2 = build_graph(g.vertices,
                     [(g.vertices[i], g.vertices[j], w) for i, j, w in g.edges],
                     m=g.m, c=g.c + bump)
    for t in (0.5, 2.0):
        p = heat_kernel(assemble(g), t).p
        p2 = heat_kernel(assemble(g2), t).p
        assert np.all(p2 <= p + 1e-12)
