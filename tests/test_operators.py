import dataclasses
import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from scipy.special import logsumexp

from heatlab import assemble, build_graph, dirichlet_energy, operators
from heatlab.errors import ValidationError, ZeroVector
from heatlab.operators import (
    GROUPING_TOL,
    OperatorRep,
    SpectralAtoms,
    _group_eigenvalues,
    coefficients,
    eigendecompose,
    log_sum_exp,
    shift_by_potential,
    spectral_measure,
)
from heatlab.verify import random_graph, random_vector


def _matrix_of(op):
    """L as a matrix on functions, D_m^{-1/2} S D_m^{1/2}."""
    rs = np.sqrt(op.m)
    return op.S * rs[None, :] / rs[:, None]


def test_assemble_single_edge(single_edge_op):
    A = _matrix_of(single_edge_op)
    npt.assert_allclose(A, [[1.0, -1.0], [-1.0, 1.0]])
    npt.assert_allclose(single_edge_op.S, A)
    assert single_edge_op.lower_bound == 0.0


def test_operator_holds_S_m_lower_bound_and_graph(rng):
    g = random_graph(rng, n_max=12, c_scale=1.0)
    op = assemble(g)
    shifted = shift_by_potential(op, rng.uniform(0.5, 2.0, g.n))
    assert [f.name for f in dataclasses.fields(OperatorRep)] == [
        "S", "m", "lower_bound", "graph"]
    for rep in (op, shifted):
        assert rep.n == rep.S.shape[0] == g.n
        # S is the one n x n array an operator holds
        assert [k for k, v in vars(rep).items()
                if isinstance(v, np.ndarray) and v.ndim == 2] == ["S"]


def test_eigendata_die_with_their_operator(rng):
    op = assemble(random_graph(rng, n_max=12))
    sd = weakref.ref(eigendecompose(op))
    held = weakref.ref(op)
    del op
    gc.collect()
    assert held() is None
    assert sd() is None


def test_shifted_operator_keeps_its_eigendata(rng):
    # the memoized shift comes back with the eigendata it already holds
    op = assemble(random_graph(rng, n_max=12))
    V = rng.uniform(0.0, 2.0, size=op.n)
    sd = eigendecompose(shift_by_potential(op, V))
    assert eigendecompose(shift_by_potential(op, V.copy())) is sd


def test_assemble_pure_potential():
    g = build_graph(["1", "2", "3"], [], m=[1.0, 2.0, 4.0], c=[3.0, 0.0, 2.0])
    op = assemble(g)
    npt.assert_allclose(_matrix_of(op), np.diag([3.0, 0.0, 0.5]))
    sd = eigendecompose(op)
    npt.assert_allclose(sd.eigenvalues, [0.0, 0.5, 3.0], atol=1e-14)


def test_doubling_measure_halves_operator(rng):
    g = random_graph(rng, n_max=12, c_scale=1.0)
    g2 = build_graph(g.vertices,
                     [(g.vertices[i], g.vertices[j], w) for i, j, w in g.edges],
                     m=2.0 * g.m, c=g.c)
    op, op2 = assemble(g), assemble(g2)
    npt.assert_allclose(_matrix_of(op2), 0.5 * _matrix_of(op),
                        rtol=1e-13, atol=1e-13)
    npt.assert_allclose(eigendecompose(op2).eigenvalues,
                        0.5 * eigendecompose(op).eigenvalues,
                        rtol=1e-10, atol=1e-12)


def test_form_identity_random(rng):
    # <Lu, v>_m recovers the quadratic form, both on the basis and on
    # random vectors
    for _ in range(20):
        g = random_graph(rng, n_max=30, c_scale=1.0)
        op = assemble(g)
        u = rng.standard_normal(g.n)
        v = rng.standard_normal(g.n)
        q = dirichlet_energy(g, u, v)
        Lu = _matrix_of(op) @ u
        assert abs(op.inner(Lu, v) - q) <= 1e-10 * (1 + abs(q))


def test_s_symmetric_and_bounded_below(rng):
    for _ in range(10):
        op = assemble(random_graph(rng, n_max=25, c_scale=1.0))
        defect = np.linalg.norm(op.S - op.S.T) / max(np.linalg.norm(op.S), 1)
        assert defect <= 1e-12
        assert op.lower_bound <= eigendecompose(op).E0 + 1e-12


def test_eigendecompose_single_edge(single_edge_op):
    sd = eigendecompose(single_edge_op)
    npt.assert_allclose(sd.eigenvalues, [0.0, 2.0], atol=1e-14)
    npt.assert_allclose(sd.vectors[:, 0], [2 ** -0.5, 2 ** -0.5])
    assert sd.E0 == pytest.approx(0.0, abs=1e-14)
    assert sd.gap == pytest.approx(2.0)


def test_trace_identity(rng):
    for _ in range(10):
        op = assemble(random_graph(rng, n_max=30, c_scale=0.7))
        sd = eigendecompose(op)
        assert np.sum(sd.eigenvalues) == pytest.approx(
            np.trace(op.S), rel=1e-10, abs=1e-10)


def test_m_orthonormality_and_projection(rng):
    for _ in range(10):
        op = assemble(random_graph(rng, n_max=25))
        sd = eigendecompose(op)
        G = sd.vectors.T @ np.diag(op.m) @ sd.vectors
        npt.assert_allclose(G, np.eye(op.n), atol=1e-10)
        P = sd.P
        npt.assert_allclose(P @ P, P, atol=1e-10)
        # m-selfadjoint: D_m P symmetric
        npt.assert_allclose(np.diag(op.m) @ P, (np.diag(op.m) @ P).T,
                            atol=1e-10)


def test_perron_ground_state(rng):
    for _ in range(15):
        op = assemble(random_graph(rng, n_max=40, c_scale=0.5))
        sd = eigendecompose(op)
        ground = sd.vectors[:, 0]
        assert np.all(ground > 0)
        assert ground.min() >= 1e-12 * ground.max()
        assert sd.groups[0] == (0, 1)


def _disjoint_union(g1, g2):
    verts = [f"L{v}" for v in g1.vertices] + [f"R{v}" for v in g2.vertices]
    edges = ([(f"L{g1.vertices[i]}", f"L{g1.vertices[j]}", w)
              for i, j, w in g1.edges]
             + [(f"R{g2.vertices[i]}", f"R{g2.vertices[j]}", w)
                for i, j, w in g2.edges])
    return build_graph(verts, edges,
                       m=np.concatenate([g1.m, g2.m]),
                       c=np.concatenate([g1.c, g2.c]))


def test_disconnected_direct_sum_spectrum(rng):
    g1 = random_graph(rng, n_max=10)
    g2 = random_graph(rng, n_max=10)
    ev = eigendecompose(assemble(_disjoint_union(g1, g2))).eigenvalues
    parts = np.sort(np.concatenate([
        eigendecompose(assemble(g1)).eigenvalues,
        eigendecompose(assemble(g2)).eigenvalues]))
    npt.assert_allclose(ev, parts, atol=1e-9)


def _signed_by_loop(phi):
    """Column-by-column sign convention: reference for the vectorized one."""
    phi = phi.copy()
    for i in range(phi.shape[1]):
        col = phi[:, i]
        lead = np.flatnonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        if lead.size and col[lead[0]] < 0:
            phi[:, i] = -col
    return phi


def test_eigenvector_signs_match_loop_reference(rng):
    ops = []
    for n in (1, 2, 7, 40, 120):
        X = rng.standard_normal((n, n))
        S = X + X.T
        m = rng.uniform(0.5, 2.0, n)
        # eigendecompose reads only S and m
        ops.append(OperatorRep(S=S, m=m, lower_bound=-np.inf))
    # nearly decoupled blocks: leading entries below the 1e-12 cut
    n = 30
    S = scipy.linalg.block_diag(*(X + X.T for X in
                                  rng.standard_normal((2, n, n))))
    C = rng.standard_normal((2 * n, 2 * n))
    S += 1e-15 * (C + C.T)
    ops.append(OperatorRep(S=S, m=np.ones(2 * n), lower_bound=-np.inf))
    # eigenvectors of one component vanish on the other: leading zeros
    ops += [assemble(_disjoint_union(random_graph(rng, n_max=10),
                                     random_graph(rng, n_max=10)))
            for _ in range(5)]
    for op in ops:
        _, U = np.linalg.eigh(op.S)
        want = _signed_by_loop(U / np.sqrt(op.m)[:, None])
        npt.assert_array_equal(eigendecompose(op).vectors, want)
    assert any(np.any(eigendecompose(op).vectors[0] == 0.0) for op in ops)


def test_variational_characterization(rng, single_edge_op):
    op = assemble(random_graph(rng, n_max=20, c_scale=1.0))
    sd = eigendecompose(op)
    A = _matrix_of(op)
    for _ in range(1000):
        u = rng.standard_normal(op.n)
        u /= op.norm(u)
        assert op.inner(A @ u, u) >= sd.E0 - 1e-12
    ground = sd.vectors[:, 0]
    assert op.inner(A @ ground, ground) == pytest.approx(sd.E0, abs=1e-10)


def test_eigendecompose_cached(single_edge_op):
    assert eigendecompose(single_edge_op) is eigendecompose(single_edge_op)


def test_spectral_measure_eigenvector_single_atom(rng):
    # atoms enumerate every eigenvalue group; an eigenvector charges
    # exactly one of them
    op = assemble(random_graph(rng, n_max=15))
    sd = eigendecompose(op)
    k = 2
    sm = spectral_measure(sd, sd.vectors[:, k])
    heavy = [(e, w) for e, w in sm.atoms if w > 1e-12]
    assert len(heavy) == 1
    e, w = heavy[0]
    assert e == pytest.approx(sd.eigenvalues[k])
    assert w == pytest.approx(1.0, rel=1e-10)
    assert sm.inf_support == pytest.approx(sd.eigenvalues[k])


def test_spectral_measure_delta_on_edge(single_edge_op):
    sd = eigendecompose(single_edge_op)
    sm = spectral_measure(sd, np.array([1.0, 0.0]))
    assert len(sm.atoms) == 2
    npt.assert_allclose([a[0] for a in sm.atoms], [0.0, 2.0], atol=1e-14)
    npt.assert_allclose([a[1] for a in sm.atoms], [0.5, 0.5], rtol=1e-12)
    assert sm.inf_support == pytest.approx(0.0, abs=1e-12)


def test_spectral_measure_parseval(rng):
    for _ in range(10):
        op = assemble(random_graph(rng, n_max=25))
        f = random_vector(rng, op.n)
        sm = spectral_measure(eigendecompose(op), f)
        assert sm.total_mass == pytest.approx(op.norm(f) ** 2, rel=1e-10)
        assert sum(a[1] for a in sm.atoms) == pytest.approx(
            sm.total_mass, rel=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("size", [1e200, -1e200, 1e-200, 0.0])
def test_norm_is_scale_safe(rng, size):
    # the squares of these entries leave the floating range
    op = assemble(random_graph(rng, n_max=12))
    expected = abs(size) * np.sqrt(np.sum(op.m))
    assert op.norm(np.full(op.n, size)) == pytest.approx(expected, rel=1e-14,
                                                          abs=0.0)


def test_spectral_measure_rejects_zero(single_edge_op):
    with pytest.raises(ZeroVector):
        spectral_measure(eigendecompose(single_edge_op), np.zeros(2))


def test_coefficients_reconstruct(rng):
    op = assemble(random_graph(rng, n_max=15))
    sd = eigendecompose(op)
    f = rng.standard_normal(op.n)
    npt.assert_allclose(sd.vectors @ coefficients(sd, f), f, atol=1e-10)


def test_shift_by_potential_lowers_diagonal(single_edge_op):
    shifted = shift_by_potential(single_edge_op, np.array([3.0, 0.0]))
    npt.assert_allclose(_matrix_of(shifted), [[-2.0, -1.0], [-1.0, 1.0]])
    assert shifted.lower_bound <= eigendecompose(shifted).E0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_shift_by_potential_rejects_a_non_finite_potential(single_edge_op,
                                                           bad):
    with pytest.raises(ValidationError, match="not finite"):
        shift_by_potential(single_edge_op, np.array([1.0, bad]))


def test_shift_by_potential_memoizes_read_only_operators(single_edge_op):
    op = single_edge_op
    V = np.array([3.0, 0.0])
    shifted = shift_by_potential(op, V)
    assert shift_by_potential(op, V.copy()) is shifted
    assert shift_by_potential(op, np.minimum(V, 5.0)) is shifted
    # one differing entry is another potential
    other = shift_by_potential(op, np.array([3.0, 1e-300]))
    assert other is not shifted
    assert shift_by_potential(op, np.array([3.0, 1e-300])) is other
    assert not shifted.S.flags.writeable
    with pytest.raises(ValueError):
        shifted.S[0, 0] = 1.0
    npt.assert_array_equal(shifted.S, [[-2.0, -1.0], [-1.0, 1.0]])


def test_shift_memo_keeps_only_the_latest_base(rng):
    g = random_graph(rng, n_max=10)
    V = rng.uniform(0.0, 2.0, size=g.n)
    first, second = assemble(g), assemble(g)
    held = weakref.ref(shift_by_potential(first, V))
    gc.collect()
    assert held() is not None
    # shifting another base operator releases the first one's shifts
    kept = shift_by_potential(second, V)
    gc.collect()
    assert held() is None
    assert list(operators._shift_cache.keys()) == [second]
    npt.assert_array_equal(kept.S, shift_by_potential(first, V).S)
    # and the entry dies with its base operator
    assert list(operators._shift_cache.keys()) == [first]
    held = weakref.ref(shift_by_potential(first, V))
    del first
    gc.collect()
    assert held() is None
    assert len(operators._shift_cache) == 0


def test_dense_solver_size_cutoff():
    from heatlab.operators import DENSE_LIMIT, OperatorRep

    n = DENSE_LIMIT + 1
    d = np.ones(n)
    op = OperatorRep(S=np.diag(d), m=np.ones(n), lower_bound=0.0, graph=None)
    with pytest.raises(ValueError):
        eigendecompose(op)


def _groups_by_loop(w):
    """Eigenvalue grouping as a scan: reference for the vectorized one."""
    groups = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > GROUPING_TOL * (1.0 + abs(w[k])):
            groups.append((start, k))
            start = k
    return tuple(groups)


def test_eigenvalue_groups_match_loop_reference(rng):
    spectra = [np.array([0.7]), np.full(6, 2.5), np.zeros(3)]
    for clusters in (1, 3, 20, 80):
        # planted clusters: members split by exact ties, by far less than
        # the tolerance, and by half and twice of it
        centers = np.sort(rng.uniform(-5.0, 50.0, clusters))
        w = []
        for c in centers:
            steps = rng.choice([0.0, 1e-3, 0.5, 2.0], size=rng.integers(0, 4))
            w += list(c + np.cumsum(np.concatenate([[0.0], steps]))
                      * GROUPING_TOL * (1.0 + abs(c)))
        spectra.append(np.sort(np.array(w)))
    spectra += [eigendecompose(assemble(random_graph(rng, n_max=40))).eigenvalues
                for _ in range(5)]
    sizes = []
    for w in spectra:
        groups = _group_eigenvalues(w)
        assert groups == _groups_by_loop(w)
        sizes += [b - a for a, b in groups]
    assert max(sizes) > 1 and min(sizes) == 1


def _complete_graph(n, c=0.0):
    names = [str(i) for i in range(n)]
    edges = [(u, v, 1.0) for i, u in enumerate(names) for v in names[i + 1:]]
    return build_graph(names, edges, c=np.full(n, c))


def test_grouped_atoms_match_loop_reference(rng):
    g = random_graph(rng, n_max=10)
    # K8: E = 8 has multiplicity 7; a graph joined to its own copy doubles
    # every eigenvalue
    for op in (assemble(_complete_graph(8)), assemble(_disjoint_union(g, g))):
        sd = eigendecompose(op)
        assert max(b - a for a, b in sd.groups) > 1
        f = rng.uniform(0.1, 1.0, op.n)
        h = rng.uniform(0.1, 1.0, op.n)
        products = coefficients(sd, f) * coefficients(sd, h)
        atoms = SpectralAtoms.grouped(sd, products)
        want_e, want_w = [], []
        for a, b in sd.groups:
            want_e.append(np.mean(sd.eigenvalues[a:b]))
            want_w.append(np.sum(products[a:b]))
        npt.assert_array_equal(atoms.energies, want_e)
        npt.assert_array_equal(atoms.weights, want_w)
        pairing = SpectralAtoms.pairing(sd, f, h)
        npt.assert_array_equal(pairing.weights, atoms.weights)
        assert np.sum(atoms.weights) == pytest.approx(op.inner(f, h),
                                                      rel=1e-12)


def test_log_pairing_matches_direct_sum_and_survives_underflow(rng):
    # killing c = 1 puts E0 at 1, so every e^{-tE} underflows at t = 1e4
    op = assemble(_complete_graph(8, c=1.0))
    atoms = SpectralAtoms.pairing(eigendecompose(op),
                                  rng.uniform(0.1, 1.0, 8),
                                  rng.uniform(0.1, 1.0, 8))
    times = np.array([0.01, 0.1, 0.5, 1.0, 2.0, 5.0])
    logs, signs = atoms.log_pairing(times)
    direct = np.exp(-np.outer(times, atoms.energies)) @ atoms.weights
    npt.assert_array_equal(signs, np.sign(direct))
    npt.assert_allclose(logs, np.log(np.abs(direct)), rtol=0.0, atol=1e-13)
    t = 1e4
    assert np.exp(-t * atoms.energies) @ atoms.weights == 0.0
    (late,), (sign,) = atoms.log_pairing([t])
    assert sign == 1.0
    assert late == pytest.approx(
        np.log(atoms.weights[0]) - t * atoms.energies[0], rel=1e-13)


def test_log_sum_exp_matches_scipy_bit_for_bit(rng):
    # seeded signed atoms: zero weights, tied energies (several terms at
    # the largest exponent), weights over 25 decades and t in 1e-2..1e5
    times = np.geomspace(1e-2, 1e5, 15)
    for _ in range(300):
        k = int(rng.integers(1, 12))
        energies = np.sort(rng.uniform(-2.0, 10.0, k))
        energies[rng.integers(k)] = energies[0]
        weights = (rng.choice([-1.0, 1.0], k)
                   * 10.0 ** rng.uniform(-20.0, 5.0, k))
        weights[rng.random(k) < 0.2] = 0.0
        a = -np.outer(times, energies)
        logs, signs = log_sum_exp(a, weights)
        want_logs, want_signs = logsumexp(a, b=weights[None, :], axis=1,
                                          return_sign=True)
        npt.assert_array_equal(logs, want_logs)
        npt.assert_array_equal(signs, want_signs)
    # all weights zero, and a sum that cancels exactly: log 0, sign 0
    for weights in ([0.0, 0.0], [1.0, -1.0]):
        a = -np.outer(times, [0.5, 0.5])
        got = log_sum_exp(a, weights)
        want = logsumexp(a, b=np.array(weights)[None, :], axis=1,
                         return_sign=True)
        npt.assert_array_equal(got, want)
        npt.assert_array_equal(got, (np.full(15, -np.inf), np.zeros(15)))


def test_supported_is_strict_at_threshold():
    atoms = SpectralAtoms(np.array([0.0, 1.0, 2.0, 3.0]),
                          np.array([0.5, -0.25, 0.25, 1e-3]))
    kept = atoms.supported(0.25)
    npt.assert_array_equal(kept.energies, [0.0])
    npt.assert_array_equal(kept.weights, [0.5])
    below = atoms.supported(np.nextafter(0.25, 0.0))
    npt.assert_array_equal(below.energies, [0.0, 1.0, 2.0])
    npt.assert_array_equal(below.weights, [0.5, -0.25, 0.25])
