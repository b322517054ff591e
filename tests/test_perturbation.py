import numpy as np
import numpy.testing as npt
import pytest

from heatlab import assemble, build_graph, perturbation
from heatlab.asymptotics import TimeGrid, rate_inner
from heatlab.errors import (
    NegativeInitialDatum,
    NegativeWeight,
    ValidationError,
)
from heatlab.operators import eigendecompose, shift_by_potential
from heatlab.perturbation import (
    Potential,
    admissibility_check,
    approximated_solution,
    exhaustion_divergence_probe,
    lambda0,
    sv_limit,
    truncated_semigroup,
    truncation_ladder,
)
from heatlab.semigroup import apply, trotter
from heatlab.verify import random_graph, random_vector

# bottom root of x^2 + x - 3 = 0: lambda0 of the unit edge with V=(3,0)
EDGE_WELL_LAMBDA0 = (-1.0 - np.sqrt(13.0)) / 2.0


def test_potential_validation(path3):
    with pytest.raises(NegativeWeight):
        Potential(np.array([1.0, -0.1, 0.0]))
    with pytest.raises(NegativeWeight):
        Potential(np.array([np.inf, 0.0]))
    p = Potential.from_mapping(path3, {"1": 3.0, "3": 0.5})
    npt.assert_array_equal(p.values, [3.0, 0.0, 0.5])


def test_lambda0_zero_potential_is_e0(rng):
    op = assemble(random_graph(rng, n_max=20, c_scale=0.5))
    assert lambda0(op, np.zeros(op.n)) == pytest.approx(
        eigendecompose(op).E0, abs=1e-12)


def test_lambda0_constant_potential_shifts(rng):
    op = assemble(random_graph(rng, n_max=20, c_scale=0.5))
    e0 = eigendecompose(op).E0
    assert lambda0(op, np.full(op.n, 0.75)) == pytest.approx(
        e0 - 0.75, abs=1e-10)


def test_lambda0_edge_well_closed_form(single_edge_op):
    val = lambda0(single_edge_op, np.array([3.0, 0.0]))
    assert val == pytest.approx(EDGE_WELL_LAMBDA0, abs=1e-12)
    assert val == pytest.approx(-2.302775637731995, abs=1e-12)


def test_truncation_ladder_monotone(rng):
    # the domination 0 <= V^k <= V^l for k <= l reverses into monotone
    # growth of the semigroups on non-negative data
    op = assemble(random_graph(rng, n_max=15, c_scale=0.5))
    V = 4.0 * random_vector(rng, op.n, positive=True)
    f = random_vector(rng, op.n, positive=True)
    grid = TimeGrid.geometric(t0=0.5, ratio=1.5, count=6)
    ks = [0.0, 0.5, 1.5, 3.0, float(V.max()) + 1.0]
    lad = truncation_ladder(op, V, f, grid, ks)
    traj = np.asarray(lad.trajectories)
    for a in range(len(ks) - 1):
        assert np.all(traj[a + 1] >= traj[a] - 1e-11)


@pytest.mark.parametrize("level", [np.nan, -1.0, -np.inf])
def test_truncation_levels_are_numbers_at_least_zero(path3, level):
    op = assemble(path3)
    V = np.array([2.0, 0.0, 0.5])
    f = np.ones(op.n)
    grid = TimeGrid.geometric(1.0, 1.5, 4)
    calls = [
        lambda: truncated_semigroup(op, V, level, 1.0, f),
        lambda: truncation_ladder(op, V, f, grid, [1.0, level]),
        lambda: sv_limit(op, V, 1.0, f, [1.0, level]),
        lambda: admissibility_check(op, V, -3.0, f, f, grid, [1.0, level]),
        lambda: exhaustion_divergence_probe([(path3, V)], 1.0, [level]),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="truncation level"):
            call()


def test_truncation_ladder_accepts_an_infinite_level(path3):
    op = assemble(path3)
    V = np.array([2.0, 0.0, 0.5])
    f = np.ones(op.n)
    ladder = truncation_ladder(op, V, f, TimeGrid.geometric(1.0, 1.5, 4),
                               [np.inf, 1, 0.0])
    assert ladder.ks == (0.0, 1.0, np.inf)
    npt.assert_array_equal(truncated_semigroup(op, V, np.inf, 1.0, f),
                           apply(shift_by_potential(op, V), 1.0, f))


def test_truncated_semigroup_saturates_at_max(rng):
    op = assemble(random_graph(rng, n_max=12))
    V = np.round(2.0 * random_vector(rng, op.n, positive=True), 1)
    f = random_vector(rng, op.n, positive=True)
    k = float(V.max())
    npt.assert_array_equal(truncated_semigroup(op, V, k, 1.0, f),
                           truncated_semigroup(op, V, k + 5.0, 1.0, f))


def test_domination_chain(rng):
    # E0(L - V^k) decreases in k and stays above lambda0 = E0(L - V)
    op = assemble(random_graph(rng, n_max=15, c_scale=0.5))
    V = 5.0 * random_vector(rng, op.n, positive=True)
    lam = lambda0(op, V)
    previous = np.inf
    for k in (0.0, 1.0, 2.5, 5.0, float(V.max())):
        ek = eigendecompose(
            shift_by_potential(op, np.minimum(V, k))).E0
        assert ek <= previous + 1e-12
        assert ek >= lam - 1e-10 * (1 + abs(lam))
        previous = ek
    assert previous == pytest.approx(lam, abs=1e-10)


def test_trotter_consistent_with_truncated_semigroup(rng):
    op = assemble(random_graph(rng, n_max=12))
    V = 2.0 * random_vector(rng, op.n, positive=True)
    f = random_vector(rng, op.n, positive=True)
    k = 1.0
    exact = truncated_semigroup(op, V, k, 1.0, f)
    errs = [np.linalg.norm(trotter(op, np.minimum(V, k), 1.0, n, f) - exact)
            for n in (40, 80)]
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)


def test_rate_inner_on_shifted_operator(rng):
    # the decay rate of the truncated semigroup pairing recovers its
    # ground energy, tying the rate machinery to the truncation ladder
    op = assemble(random_graph(rng, n_max=12, c_scale=0.5))
    V = 3.0 * random_vector(rng, op.n, positive=True)
    shifted = shift_by_potential(op, np.minimum(V, 1.5))
    f = random_vector(rng, op.n, positive=True)
    est = rate_inner(shifted, f, f, TimeGrid.geometric(t0=1.0, ratio=1.5,
                                                       count=20))
    sd = eigendecompose(shifted)
    from heatlab.operators import spectral_measure
    assert est.target == pytest.approx(spectral_measure(sd, f).inf_support)
    assert est.differenced == pytest.approx(est.target, abs=1e-6)


def test_sv_limit_converges_and_obeys_law(single_edge_op):
    V = np.array([3.0, 0.0])
    f = np.array([1.0, 1.0])
    rep = sv_limit(single_edge_op, V, 1.0, f, ks=[0.0, 1.0, 2.0, 3.0, 4.0])
    assert rep.k_converged is not None and rep.k_converged <= 4.0
    assert rep.semigroup_law_residual <= 1e-10
    assert np.all(np.asarray(rep.ladder_gaps) >= -1e-11)
    gaps = np.asarray(rep.continuity_gaps)
    assert np.all(gaps >= -1e-12)


def test_sv_limit_value_is_full_semigroup(single_edge_op):
    V = np.array([3.0, 0.0])
    f = np.array([1.0, 1.0])
    rep = sv_limit(single_edge_op, V, 0.7, f, ks=[0.0, 3.0])
    direct = truncated_semigroup(single_edge_op, V, 3.0, 0.7, f)
    npt.assert_allclose(rep.value, direct, rtol=1e-12)


def test_admissibility_verdicts_flip_at_lambda0(single_edge_op):
    V = np.array([3.0, 0.0])
    lam = lambda0(single_edge_op, V)
    f = np.array([1.0, 0.5])
    g = np.array([0.5, 1.0])
    grid = TimeGrid.geometric(t0=0.5, ratio=1.5, count=6)
    ks = [0.0, 1.0, 2.0, 3.0]
    below = admissibility_check(single_edge_op, V, lam - 0.3, f, g, grid, ks)
    above = admissibility_check(single_edge_op, V, lam + 0.3, f, g, grid, ks)
    for verdict, expected in ((below, True), (above, False)):
        assert verdict.holds_i == expected
        assert verdict.holds_ii == expected
        assert verdict.holds_iii == expected
        assert verdict.admissible == expected
    assert below.lambda0 == pytest.approx(lam)


def test_admissibility_requires_positive_probes(single_edge_op):
    V = np.array([3.0, 0.0])
    grid = TimeGrid.geometric(count=4)
    with pytest.raises(ValidationError):
        admissibility_check(single_edge_op, V, -3.0, np.array([1.0, 0.0]),
                            np.array([1.0, 1.0]), grid, ks=[0.0, 3.0])


@pytest.mark.parametrize("E", [np.nan, np.inf, -np.inf, 1e308, -1e308])
def test_admissibility_rejects_a_non_finite_bound(single_edge_op, E,
                                                  decompositions):
    f = np.array([1.0, 0.5])
    with pytest.raises(ValidationError, match=r"\bE = "):
        admissibility_check(single_edge_op, np.array([3.0, 0.0]), E, f, f,
                            TimeGrid.geometric(count=4), ks=[0.0, 3.0])
    assert decompositions == []


def test_admissibility_random_triples(rng):
    for _ in range(10):
        op = assemble(random_graph(rng, n_max=10, c_scale=0.5))
        V = 3.0 * random_vector(rng, op.n, positive=True)
        lam = lambda0(op, V)
        f = random_vector(rng, op.n, positive=True)
        g = random_vector(rng, op.n, positive=True)
        grid = TimeGrid.geometric(t0=0.5, ratio=1.6, count=5)
        ks = [0.0, 1.0, 2.0, float(V.max()) + 0.5]
        for offset in (-0.2, 0.2):
            verdict = admissibility_check(op, V, lam + offset, f, g, grid, ks)
            assert (verdict.holds_i == verdict.holds_ii
                    == verdict.holds_iii == (offset < 0))


def test_approximated_solution_certificates(single_edge_op):
    V = np.array([3.0, 0.0])
    f = np.array([1.0, 1.0])
    grid = TimeGrid(times=np.array([0.25, 0.5, 1.0, 2.0]))
    sol = approximated_solution(single_edge_op, V, f, grid,
                                ks=[0.0, 1.0, 2.0, 4.0])
    assert np.max(sol.ode_residuals) <= 1e-6
    assert np.all(np.asarray(sol.log_bound_margins) <= 1e-9)
    # frozen closed form: ||u(1)||_m <= ||f|| e^{-lambda0}
    norm_u1 = float(np.sqrt(np.sum(sol.values[2] ** 2 * single_edge_op.m)))
    assert norm_u1 <= np.sqrt(2.0) * np.exp(-EDGE_WELL_LAMBDA0) * (1 + 1e-9)
    assert sol.lambda0 == pytest.approx(EDGE_WELL_LAMBDA0, abs=1e-12)


def test_approximated_solution_rejects_negative_datum(single_edge_op):
    grid = TimeGrid.geometric(count=4)
    with pytest.raises(NegativeInitialDatum):
        approximated_solution(single_edge_op, np.array([3.0, 0.0]),
                              np.array([1.0, -0.2]), grid, ks=[0.0, 3.0])


def test_probe_flags_divergence():
    stages = []
    for n in (3, 5, 7, 9, 11):
        verts = [str(j) for j in range(n)]
        edges = [(str(j), str(j + 1), 1.0) for j in range(n - 1)]
        g = build_graph(verts, edges)
        stages.append((g, {str(j): float(j * j) for j in range(n)}))
    rep = exhaustion_divergence_probe(stages, margin=1.0)
    assert rep.diverging
    assert rep.lambda0_limit == -np.inf
    lams = np.asarray(rep.lambda0s)
    assert np.all(np.diff(lams) < 0)


def test_probe_flat_family_not_diverging():
    stages = []
    for n in (3, 5, 7):
        verts = [str(j) for j in range(n)]
        edges = [(str(j), str(j + 1), 1.0) for j in range(n - 1)]
        stages.append((build_graph(verts, edges), np.zeros(n)))
    rep = exhaustion_divergence_probe(stages, margin=1.0)
    assert not rep.diverging
    assert np.isfinite(rep.lambda0_limit)


def test_probe_truncation_bounds_dominate():
    stages = []
    for n in (3, 5, 7):
        verts = [str(j) for j in range(n)]
        edges = [(str(j), str(j + 1), 1.0) for j in range(n - 1)]
        g = build_graph(verts, edges)
        stages.append((g, {str(j): float(j * j) for j in range(n)}))
    rep = exhaustion_divergence_probe(stages, margin=1.0, ks=(0.0, 4.0, 16.0))
    for lam, row in zip(rep.lambda0s, rep.truncation_energies):
        bounds = np.asarray(row)
        assert np.all(np.diff(bounds) <= 1e-12)
        assert np.all(bounds >= lam - 1e-10 * (1 + abs(lam)))


def test_potential_leaves_caller_array_writable(single_edge_op):
    v = np.array([3.0, 0.0])
    Potential(v)
    v[1] = 0.5
    lambda0(single_edge_op, v)
    v[0] = 2.0
    npt.assert_array_equal(v, [2.0, 0.5])


def test_probe_rejects_empty_stage_list():
    with pytest.raises(ValidationError, match="at least one stage"):
        exhaustion_divergence_probe([])


def _count_shifts(monkeypatch):
    calls = []

    def counted(op, V):
        calls.append(op)
        return shift_by_potential(op, V)

    monkeypatch.setattr(perturbation, "shift_by_potential", counted)
    return calls


def test_perturbation_calls_build_l_minus_v_once(rng, monkeypatch):
    # one L - V per call plus one L - V^k per truncation level
    op = assemble(random_graph(rng, n_max=20))
    V = rng.uniform(0.0, 2.0, size=op.n)
    f = random_vector(rng, op.n, positive=True)
    grid = TimeGrid.geometric(count=4)
    ks = [0.0, 1.0, 3.0]
    E = lambda0(op, V) - 0.1
    calls = _count_shifts(monkeypatch)
    admissibility_check(op, V, E, f, f, grid, ks)
    assert len(calls) == len(ks) + 1
    calls.clear()
    approximated_solution(op, V, f, grid, ks)
    assert len(calls) == len(ks) + 1


def test_approximated_solution_values_are_the_full_semigroup(rng):
    op = assemble(random_graph(rng, n_max=20))
    V = rng.uniform(0.0, 2.0, size=op.n)
    f = random_vector(rng, op.n, positive=True)
    grid = TimeGrid.geometric(count=4)
    sol = approximated_solution(op, V, f, grid, ks=[0.0, 1.0])
    full = shift_by_potential(op, V)
    for t, u in zip(grid.times, sol.values):
        npt.assert_array_equal(u, apply(full, t, f))


def _perturbation_outputs(make_op, V, f, grid, ks):
    lam = lambda0(make_op(), V)
    return [lam,
            admissibility_check(make_op(), V, lam - 0.5, f, f, grid, ks),
            admissibility_check(make_op(), V, lam + 0.5, f, f, grid, ks),
            truncation_ladder(make_op(), V, f, grid, ks),
            approximated_solution(make_op(), V, f, grid, ks),
            sv_limit(make_op(), V, 1.0, f, ks)]


def test_sv_limit_zero_level_shares_the_base_decomposition(rng,
                                                          decompositions):
    # L - V^0 is L: sv_limit decomposes L, L - V^1 and L - V (= L - V^3)
    op = assemble(random_graph(rng, n_max=20))
    V = rng.uniform(0.0, 3.0, size=op.n)
    f = random_vector(rng, op.n, positive=True)
    assert shift_by_potential(op, np.zeros(op.n)) is op
    sv_limit(op, V, 1.0, f, [0.0, 1.0, 3.0])
    assert len(decompositions) == len(set(decompositions)) == 3


def _assert_same(a, b):
    if hasattr(a, "__dict__"):
        assert vars(a).keys() == vars(b).keys()
        for key in vars(a):
            _assert_same(vars(a)[key], vars(b)[key])
    else:
        npt.assert_array_equal(a, b)


def test_perturbation_calls_decompose_each_matrix_once(rng, decompositions):
    # the calls share the shifts of their operator, so each distinct
    # matrix is decomposed once: L (sv_limit's free evolution), L - V
    # and L - V^k for k = 0.5 and 1 (k = 3 exceeds max V, so V^3 = V)
    g = random_graph(rng, n_max=20)
    op = assemble(g)
    V = rng.uniform(0.0, 2.0, size=op.n)
    f = random_vector(rng, op.n, positive=True)
    grid = TimeGrid.geometric(count=4)
    ks = [0.5, 1.0, 3.0]
    got = _perturbation_outputs(lambda: op, V, f, grid, ks)
    assert len(decompositions) == len(set(decompositions)) == 4

    # every output again, each call on its own new operator
    fresh = _perturbation_outputs(lambda: assemble(g), V, f, grid, ks)
    for a, b in zip(got, fresh):
        _assert_same(a, b)
