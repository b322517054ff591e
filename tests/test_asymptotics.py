import math

import numpy as np
import numpy.testing as npt
import pytest

from heatlab import assemble, build_graph, restrict
from heatlab.asymptotics import (
    TimeGrid,
    groundstate_limit,
    kernel_factorization_defects,
    positivity_improving,
    rate_inner,
    rate_kernel,
    strong_convergence_check,
)
from heatlab.errors import (
    NonPositivePairing,
    PositivityConnectivityMismatch,
    ValidationError,
    ZeroKernelEntry,
)
from heatlab.operators import (
    coefficients,
    decay_factors,
    eigendecompose,
    kernel_sum,
    spectral_measure,
)
from heatlab.semigroup import (SCALING_SQUARING, apply, heat_kernel,
                               resolvent, trotter)
from heatlab.verify import random_graph, random_vector


def test_timegrid_validation():
    with pytest.raises(ValidationError):
        TimeGrid(times=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        TimeGrid(times=np.array([1.0, 2.0, 2.0]))
    with pytest.raises(ValidationError):
        TimeGrid(times=np.array([0.0, 1.0, 2.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="finite"):
            TimeGrid(times=np.array([1.0, 2.0, bad]))
    grid = TimeGrid.geometric(t0=1.0, ratio=1.5, count=20)
    assert len(grid.times) == 20
    assert grid.times[0] == 1.0
    assert grid.times[1] / grid.times[0] == pytest.approx(1.5)


def test_timegrid_leaves_caller_array_writable(single_edge_op):
    a = np.array([1.0, 2.0, 3.0])
    grid = TimeGrid(a)
    assert a.flags.writeable and not grid.times.flags.writeable
    a[0] = 0.5
    assert grid.times[0] == 1.0
    b = np.array([1.0, 2.0, 3.0])
    rate_inner(single_edge_op, np.array([1.0, 0.0]), np.array([1.0, 0.0]),
               grid=b)
    assert b.flags.writeable


def test_rate_inner_positive_pair_reaches_ground_energy(single_edge_op):
    grid = TimeGrid.geometric(t0=1.0, ratio=1.4, count=16)
    est = rate_inner(single_edge_op, np.array([1.0, 0.0]),
                     np.array([0.0, 1.0]), grid)
    assert est.target == pytest.approx(0.0, abs=1e-12)
    assert est.differenced == pytest.approx(0.0, abs=1e-6)
    # the one-sided average converges like 1/t, much slower
    assert abs(est.cesaro) < 0.1


def test_rate_inner_excited_eigenvector_sees_its_own_atom(rng):
    op = assemble(random_graph(rng, n_max=15))
    sd = eigendecompose(op)
    phi1 = sd.vectors[:, 1]
    grid = TimeGrid.geometric(t0=1.0, ratio=1.5, count=25)
    est = rate_inner(op, phi1, phi1, grid)
    assert est.target == pytest.approx(sd.eigenvalues[1], rel=1e-9)
    assert est.differenced == pytest.approx(sd.eigenvalues[1], abs=1e-6)


def test_rate_inner_disconnected_component_rate():
    # two components with ground energies 0 and 5; f on the second sees 5
    g = build_graph(["1", "2", "3", "4"],
                    [("1", "2", 1.0), ("3", "4", 1.0)],
                    c=[0.0, 0.0, 5.0, 5.0])
    op = assemble(g)
    f = np.array([0.0, 0.0, 1.0, 1.0])
    grid = TimeGrid.geometric(t0=1.0, ratio=1.4, count=14)
    est = rate_inner(op, f, f, grid)
    assert est.target == pytest.approx(5.0, rel=1e-12)
    assert est.differenced == pytest.approx(5.0, abs=1e-6)
    assert eigendecompose(op).E0 == pytest.approx(0.0, abs=1e-12)


def test_rate_inner_rejects_sign_changing_pairing(two_triangles):
    op = assemble(two_triangles)
    f = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    g = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    grid = TimeGrid.geometric(t0=1.0, ratio=1.5, count=5)
    with pytest.raises(NonPositivePairing):
        rate_inner(op, f, g, grid)


def test_rate_inner_target_matches_spectral_measure(rng):
    for _ in range(100):
        op = assemble(random_graph(rng, n_max=20, c_scale=0.5))
        f = random_vector(rng, op.n)
        est = rate_inner(op, f, f, TimeGrid.geometric(count=5))
        sm = spectral_measure(eigendecompose(op), f)
        assert est.target == pytest.approx(sm.inf_support, abs=1e-12)


def test_rate_kernel_single_edge(single_edge_op):
    grid = TimeGrid(times=np.linspace(10.0, 100.0, 10))
    est = rate_kernel(single_edge_op, "1", "2", grid)
    assert est.target == pytest.approx(0.0, abs=1e-12)
    assert est.differenced == pytest.approx(0.0, abs=1e-6)


def test_rate_kernel_diagonal_same_limit(path3_killed):
    op = assemble(path3_killed)
    e0 = eigendecompose(op).E0
    grid = TimeGrid.geometric(t0=2.0, ratio=1.4, count=16)
    est = rate_kernel(op, "2", "2", grid)
    assert est.target == pytest.approx(e0, rel=1e-12)
    assert est.differenced == pytest.approx(e0, abs=1e-6)


def test_rate_kernel_verifies_two_step_factorization(path3_killed):
    op = assemble(path3_killed)
    grid = TimeGrid.geometric(t0=1.0, ratio=1.5, count=8)
    defects = kernel_factorization_defects(op, 0, 1, grid)
    assert np.max(defects) <= 1e-9
    est = rate_kernel(op, "1", "2", grid)
    assert est.target == pytest.approx(eigendecompose(op).E0)


def test_rate_kernel_disconnected_pair_raises(two_triangles):
    op = assemble(two_triangles)
    grid = TimeGrid.geometric(count=5)
    with pytest.raises(ZeroKernelEntry):
        rate_kernel(op, "a", "d", grid)


def test_groundstate_limit_single_edge(single_edge_op):
    prof = groundstate_limit(single_edge_op, TimeGrid.geometric(count=12))
    npt.assert_allclose(prof.Phi, [2 ** -0.5, 2 ** -0.5], atol=1e-10)
    assert prof.is_eigenvalue_detected


def test_groundstate_limit_k4_constant(k4):
    prof = groundstate_limit(assemble(k4), TimeGrid.geometric(count=12))
    npt.assert_allclose(prof.Phi, np.full(4, 0.5), atol=1e-10)


def test_groundstate_limit_matches_perron(path3_killed):
    op = assemble(path3_killed)
    sd = eigendecompose(op)
    t_star = 35.0 / sd.gap
    grid = TimeGrid(times=np.array([1.0, 2.0, 4.0, t_star / 2, t_star]))
    prof = groundstate_limit(op, grid)
    npt.assert_allclose(prof.Phi, sd.vectors[:, 0], atol=1e-8)
    assert np.sum(prof.Phi ** 2 * op.m) == pytest.approx(1.0, abs=1e-8)


def test_groundstate_profile_residuals_decay(path3_killed):
    op = assemble(path3_killed)
    prof = groundstate_limit(op, TimeGrid.geometric(t0=1.0, ratio=1.5,
                                                    count=12))
    res = np.asarray(prof.residual_history)
    assert res[-1] <= res[0]
    assert res[-1] <= 1e-8


def test_eigenvalue_detector_finite_graphs(single_edge_op, k4):
    grid = TimeGrid.geometric(count=12)
    for op, x in ((single_edge_op, "1"), (assemble(k4), "c")):
        prof = groundstate_limit(op, grid)
        assert prof.is_eigenvalue_detected
        assert prof.Phi[op.graph.vertex_index(x)] > 1e-6


def test_eigenvalue_detector_exhaustion_drains():
    # Dirichlet truncations of the half-line: E0 is detected at every
    # finite stage while the profile value at the origin sinks
    grid = TimeGrid.geometric(t0=1.0, ratio=1.6, count=14)
    values = []
    for n in (50, 100, 200):
        verts = [str(j) for j in range(n + 1)]
        edges = [(str(j), str(j + 1), 1.0) for j in range(n)]
        g = restrict(build_graph(verts, edges), verts[:-1])
        prof = groundstate_limit(assemble(g), grid)
        assert prof.is_eigenvalue_detected
        values.append(prof.Phi[g.vertex_index("0")])
    assert values[0] > values[1] > values[2] > 0


def test_decay_factors_have_no_subnormals(stiff_star_op):
    sd = eigendecompose(stiff_star_op)
    assert np.max(sd.eigenvalues) > 9e3
    tiny = np.finfo(float).tiny
    raw_subnormal = False
    for t in TimeGrid.geometric(t0=0.1, ratio=1.5, count=16).times:
        for shift in (0.0, sd.E0):
            raw = np.exp(-t * (sd.eigenvalues - shift))
            raw_subnormal |= bool(np.any((raw > 0) & (raw < tiny)))
            decay = decay_factors(sd.eigenvalues, t, shift)
            live = np.flatnonzero(decay)
            assert np.all(decay[live] >= tiny)
            npt.assert_array_equal(live, np.arange(live.size))
            npt.assert_array_equal(decay[live], raw[live])
    # the grid does cross the subnormal range of plain np.exp
    assert raw_subnormal


def _tiny_cut_kernel_sum(sd, t):
    # every atom whose factor is a normal float, as kernel_sum took them
    # before it also left out factors below sqrt(tiny) of the largest
    decay = decay_factors(sd.eigenvalues, t)
    k = int(np.count_nonzero(decay))
    live = sd.vectors[:, :k]
    return (live * decay[:k]) @ live.T


def test_groundstate_residuals_match_dense_full_rank_reference():
    # residuals are read off the diagonal of the excited remainder; the
    # reference forms every entry of the full-rank remainder, subnormal
    # factors included, and takes the largest
    rng = np.random.default_rng(23)
    n = 200
    w = rng.uniform(0.5, 2.0, n - 1)
    op = assemble(build_graph(n, [(i, i + 1, float(w[i]))
                                  for i in range(n - 1)],
                              m=rng.uniform(0.5, 2.0, n)))
    sd = eigendecompose(op)
    V, E, E0 = sd.vectors, sd.eigenvalues, sd.E0
    grid = TimeGrid.geometric(t0=1.0, ratio=2.0, count=11)
    assert grid.times[-1] == 1024.0
    ground = np.outer(V[:, 0], V[:, 0])
    kernels = [(V * np.exp(-t * (E - E0))) @ V.T for t in grid.times]
    want = np.array([np.max(np.abs(K - ground)) for K in kernels])
    kernel_scale = max(np.max(np.abs(K)) for K in kernels)
    prof = groundstate_limit(op, grid)
    npt.assert_allclose(prof.residual_history, want, rtol=0,
                        atol=1e-13 * kernel_scale)


def test_stiff_star_residuals_are_the_excited_diagonal(stiff_star_op):
    # E1 - E0 ~ 8 on the stiff star: from t ~ 6 on the excited remainder
    # lies below the rounding of the O(1) kernel entries, where a residual
    # read as a difference of kernels reads 0.0; the diagonal sum of
    # non-negative terms stays resolved down to the normal floating range
    op = stiff_star_op
    sd = eigendecompose(op)
    V, E, E0 = sd.vectors, sd.eigenvalues, sd.E0
    grid = TimeGrid.geometric(t0=0.1, ratio=2.0, count=10)
    assert sd.gap * grid.times[-1] < 0.9 * -np.log(np.finfo(float).tiny)
    exact = np.array([max(math.fsum(V[x, 1:] ** 2 * np.exp(-t * (E[1:] - E0)))
                          for x in range(op.n))
                      for t in grid.times])
    prof = groundstate_limit(op, grid)
    assert np.all(prof.residual_history > 0)
    assert exact[-1] < 1e-150
    npt.assert_allclose(prof.residual_history, exact, rtol=1e-12, atol=0)


def test_kernel_sum_cut_is_relative_to_the_largest_factor():
    # with shift 0 and E0 = 2 the largest factor e^{-t E0} is itself far
    # below 1: at t = 100 the cut at sqrt(tiny) of it drops atoms with
    # normal factors, at t = 300 it lies below sqrt(tiny), where a cut at
    # sqrt(tiny) itself would leave no atom at all
    n = 60
    op = assemble(build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)],
                              c=np.full(n, 2.0)))
    sd = eigendecompose(op)
    tiny = np.finfo(float).tiny
    for t, dropped in ((100.0, True), (300.0, False)):
        decay = decay_factors(sd.eigenvalues, t)
        band = (decay >= tiny) & (decay < np.sqrt(tiny) * decay[0])
        assert bool(band.any()) is dropped
        p = kernel_sum(sd, t)
        full = (sd.vectors * decay) @ sd.vectors.T
        npt.assert_allclose(p, full, rtol=0, atol=1e-13 * np.max(full))
        assert p.tobytes() == _tiny_cut_kernel_sum(sd, t).tobytes()
    assert 0 < decay[0] < np.sqrt(tiny)


def test_spectral_sums_match_full_rank_reference(rng, stiff_star_op):
    op = stiff_star_op
    sd = eigendecompose(op)
    V, E, E0 = sd.vectors, sd.eigenvalues, sd.E0
    grid = TimeGrid.geometric(t0=0.1, ratio=2.0, count=11)
    tol = 1e-13
    kernels = [(V * np.exp(-t * (E - E0))) @ V.T for t in grid.times]
    history = np.sqrt(np.array([np.diag(K) for K in kernels]))
    ground = np.outer(V[:, 0], V[:, 0])
    residuals = np.array([np.max(np.abs(K - ground)) for K in kernels])
    kernel_scale = max(np.max(np.abs(K)) for K in kernels)

    prof = groundstate_limit(op, grid)
    npt.assert_allclose(prof.Phi, history[-1], rtol=0,
                        atol=tol * np.max(history))
    npt.assert_allclose(prof.Phi_t_history, history, rtol=0,
                        atol=tol * np.max(history))
    npt.assert_allclose(prof.residual_history, residuals, rtol=0,
                        atol=tol * kernel_scale)

    f = rng.uniform(0.1, 1.0, op.n)
    exc = coefficients(sd, f)[sd.groups[0][1]:]
    want = np.array([np.sqrt(np.sum(exc ** 2 * np.exp(
        -2.0 * t * (E[sd.groups[0][1]:] - E0)))) for t in grid.times])
    npt.assert_allclose(strong_convergence_check(op, f, grid), want,
                        rtol=0, atol=tol * np.max(want))

    for t in (0.05, 0.1, 1.0, 10.0):
        p_ref = (V * np.exp(-t * E)) @ V.T
        npt.assert_allclose(heat_kernel(op, t).p, p_ref, rtol=0,
                            atol=tol * np.max(np.abs(p_ref)))


def test_spectral_apply_matches_full_rank_reference(rng, stiff_star_op):
    op = stiff_star_op
    sd = eigendecompose(op)
    tol = 1e-13
    rs = np.sqrt(op.m)
    U = sd.vectors * rs[:, None]
    f = rng.uniform(-1.0, 1.0, op.n)
    tiny = np.finfo(float).tiny
    for t in (0.08, 0.1, 0.2):
        raw = np.exp(-t * sd.eigenvalues)
        assert np.any((raw > 0) & (raw < tiny))
        want = (U @ (raw * (U.T @ (rs * f)))) / rs
        atol = tol * np.max(np.abs(want))
        npt.assert_allclose(apply(op, t, f), want, rtol=0, atol=atol)
        npt.assert_allclose(trotter(op, np.zeros(op.n), t, 1, f), want,
                            rtol=0, atol=atol)


def test_strong_convergence_ground_vector(rng):
    op = assemble(random_graph(rng, n_max=15))
    sd = eigendecompose(op)
    res = strong_convergence_check(op, sd.vectors[:, 0],
                                   TimeGrid.geometric(count=6))
    npt.assert_allclose(res, 0.0, atol=1e-10)


def test_strong_convergence_two_mode_exact_rate(rng):
    op = assemble(random_graph(rng, n_max=15))
    sd = eigendecompose(op)
    f = sd.vectors[:, 0] + sd.vectors[:, 1]
    grid = TimeGrid.geometric(t0=0.5, ratio=1.5, count=8)
    res = strong_convergence_check(op, f, grid)
    want = np.exp(-(sd.eigenvalues[1] - sd.E0) * grid.times)
    npt.assert_allclose(res, want, rtol=1e-9, atol=1e-12)


def test_strong_convergence_spectral_bound(rng):
    from heatlab.operators import coefficients

    for _ in range(20):
        op = assemble(random_graph(rng, n_max=25, c_scale=0.5))
        sd = eigendecompose(op)
        f = random_vector(rng, op.n)
        grid = TimeGrid.geometric(t0=0.5, ratio=1.5, count=7)
        res = strong_convergence_check(op, f, grid)
        coeff = coefficients(sd, f)
        _, stop = sd.groups[0]
        rest = spectral_measure(sd, f).atoms[1:]
        supported = [e for e, w in rest
                     if w > 1e-12 * float(np.sum(coeff ** 2))]
        e_prime = min(supported) if supported else np.inf
        bound = op.norm(f) * np.exp(-(e_prime - sd.E0) * grid.times) + 1e-10
        assert np.all(res <= bound)


def test_positivity_improving_examples(rng, two_triangles):
    op = assemble(random_graph(rng, n_max=30))
    assert positivity_improving(op)
    assert not positivity_improving(assemble(two_triangles))
    lone = build_graph(["x"], [], c=[2.0])
    assert positivity_improving(assemble(lone))


def test_positivity_verdict_is_a_strict_sign_on_weighted_paths():
    # weighted paths of 10-23 vertices whose far corner of e^{-S} lies
    # below 1e-13 of its largest entry on most draws: a threshold there
    # answered "internal bug" on connected graphs, the strict sign does not
    rng = np.random.default_rng(np.uint64(20))
    for _ in range(120):
        n = int(rng.integers(10, 24))
        edges = [(k, k + 1, float(rng.uniform(0.2, 2.0)))
                 for k in range(n - 1)]
        op = assemble(build_graph(n, edges, m=rng.uniform(0.1, 5.0, n)))
        assert positivity_improving(op) is True
    # past 24 2^s edges the series leaves exact zeros: only the kernel
    # side of the unit 60-path still disagrees with connectivity
    unit = assemble(build_graph(60, [(k, k + 1, 1.0) for k in range(59)]))
    with pytest.raises(PositivityConnectivityMismatch,
                       match="kernel positivity False, resolvent positivity"
                             " True, connectivity True"):
        positivity_improving(unit)


def _interleaved_components(rng, n):
    """A graph on n vertices in 2-4 components, each a random recursive
    tree plus chords, its vertices shuffled so that the components
    interleave, and the component of each vertex."""
    cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(1, 4)),
                              replace=False))
    part, keys = np.empty(n, dtype=int), set()
    for c, block in enumerate(np.split(rng.permutation(n), cuts)):
        part[block] = c
        pairs = [(x, block[rng.integers(0, a)])
                 for a, x in enumerate(block[1:], 1)]
        pairs += [rng.choice(block, 2) for _ in range(len(block) // 2)]
        keys |= {(int(min(x, y)), int(max(x, y))) for x, y in pairs if x != y}
    edges = [(x, y, float(rng.uniform(0.2, 2.0))) for x, y in sorted(keys)]
    c = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 0.5, n), 0.0)
    return build_graph(n, edges, m=rng.uniform(0.5, 2.0, n), c=c), part


def test_cross_component_entries_are_exact_zeros():
    # p_1 and the resolvent add only non-negative terms, so an entry
    # between two components is an exact 0 and one within a component is
    # > 0, up to n = 400, where the series is built from sparse S
    rng = np.random.default_rng(32)
    for n in [*rng.integers(5, 130, 24), 260, 330, 400]:
        g, part = _interleaved_components(rng, int(n))
        op = assemble(g)
        within = part[:, None] == part[None, :]
        for K in (heat_kernel(op, 1.0, SCALING_SQUARING).p,
                  resolvent(op, 1.0 - eigendecompose(op).E0)):
            assert np.all(K[~within] == 0) and np.all(K[within] > 0)
        assert positivity_improving(op) is False


def test_resolvent_has_no_negative_entry_under_a_spread_measure():
    # m over 1e-3 .. 1e3 scales the entries of S + alpha far apart; the
    # factor inverse still adds no negative rounding
    rng = np.random.default_rng(33)
    for _ in range(40):
        g = random_graph(rng, n_max=400)
        op = assemble(build_graph(g.vertices, [
            (g.vertices[i], g.vertices[j], w) for i, j, w in g.edges],
            m=10.0 ** rng.uniform(-3.0, 3.0, g.n), c=g.c))
        assert np.min(resolvent(op, 1.0 - eigendecompose(op).E0)) > 0
        assert positivity_improving(op) is True


def test_totality_and_sandwich(rng):
    # sampling 0 <= u <= h below a strictly positive h reaches E0, and
    # the pairings are ordered the way the positivity argument needs
    op = assemble(random_graph(rng, n_max=12, c_scale=0.5))
    sd = eigendecompose(op)
    f = random_vector(rng, op.n, positive=True)
    g = random_vector(rng, op.n, positive=True)
    h = np.minimum(f, g)
    best = np.inf
    for _ in range(200):
        u = rng.uniform(0.0, 1.0, op.n) * h
        sm = spectral_measure(sd, u)
        best = min(best, sm.inf_support)
        for t in (0.5, 2.0):
            pair_fg = op.inner(f, apply(op, t, g))
            pair_h = op.inner(h, apply(op, t, h))
            pair_u = op.inner(u, apply(op, t, u))
            assert pair_fg >= pair_h - 1e-12
            assert pair_h >= pair_u - 1e-12
    assert best == pytest.approx(sd.E0, abs=1e-9)


def test_argmax_stability(rng):
    op = assemble(random_graph(rng, n_max=25, c_scale=0.8))
    sd = eigendecompose(op)
    t_star = np.log(op.n) / sd.gap + 5.0 / sd.gap
    grid = TimeGrid(times=np.array([0.5, 1.0, t_star, 1.5 * t_star]))
    prof = groundstate_limit(op, grid)
    late = [int(np.argmax(phi_t)) for phi_t in prof.Phi_t_history[-2:]]
    assert late[0] == late[1] == int(np.argmax(sd.vectors[:, 0]))
