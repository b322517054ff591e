"""Potentials, truncation ladders, admissibility and Schroedinger evolution.

A potential V >= 0 perturbs the operator to L - V, realized by moving V
into the killing term (c is replaced by c - V m, which flips its sign
constraint but changes nothing structurally).  Because V may be huge on
parts of the graph, everything is organized around monotone truncations
V ^ k = min(V, k):

* e^{-t(L - V^k)} increases entrywise in k and converges (here: becomes
  exact once k >= max V) to S_V(t), the minimal Schroedinger semigroup.
* A bound S_V(t) <= e^{-Et} holds iff every truncated pairing satisfies
  <f, e^{-t(L-V^k)} g> <= ||f|| ||g|| e^{-Et} iff the variational ground
  energy lambda0(L, V) is >= E.  :func:`admissibility_check` reads the
  first as the third (lambda0 >= E) and checks the second against it.
* Exhaustion sequences of growing graphs can push lambda0 to -infinity;
  :func:`exhaustion_divergence_probe` flags that divergence.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    EquivalenceViolation,
    InvariantViolation,
    NegativeInitialDatum,
    NegativeWeight,
    NumericsError,
    UnknownVertex,
    ValidationError,
)
from .graphs import WeightedGraph, is_connected, read_section
from .operators import (
    SUPPORT_MASS_TOL,
    OperatorRep,
    SpectralAtoms,
    assemble,
    checked_datum,
    checked_potential,
    eigendecompose,
    power_of_two_scale,
    shift_by_potential,
)
from .semigroup import apply as sg_apply
from .asymptotics import TimeGrid

__all__ = [
    "Potential",
    "TruncationLadder",
    "SvReport",
    "AdmissibilityVerdict",
    "ApproximatedSolution",
    "ProbeReport",
    "lambda0",
    "truncated_semigroup",
    "truncation_ladder",
    "sv_limit",
    "admissibility_check",
    "approximated_solution",
    "exhaustion_divergence_probe",
]


@dataclass(frozen=True, eq=False)
class Potential:
    """Non-negative potential aligned with a graph's vertex order.

    Only the sign is checked here; shape and finiteness are checked where
    the potential is read (:func:`~heatlab.operators.checked_potential`).
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if np.any(values < 0):
            raise NegativeWeight("potentials must be non-negative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_mapping(cls, g: WeightedGraph, mapping: dict) -> "Potential":
        """Build from {vertex id: value}; missing vertices get 0.

        Read by :func:`~heatlab.graphs.read_section`; a key that is not a
        vertex id raises UnknownVertex.
        """
        values = read_section(mapping, None, dict.fromkeys(g.vertices, 0.0),
                              "potential")
        for vid in mapping:
            if vid not in g.index:
                raise UnknownVertex(f"potential key {vid!r} is not a vertex id")
        return cls([column[0] for column in values])


def _as_values(op: OperatorRep, V) -> np.ndarray:
    """A Potential, a {vertex id: value} mapping or an array, as values."""
    if isinstance(V, dict):
        if op.graph is None:
            raise ValueError("mapping potentials need a graph-backed operator")
        V = Potential.from_mapping(op.graph, V)
    elif not isinstance(V, Potential):
        V = Potential(V)
    return checked_potential(V, op.n)


def _levels(ks) -> tuple[float, ...]:
    """Truncation levels as floats in the order given, each >= 0 (or inf);
    the one home of the level rule, for levels ``float`` cannot read too."""
    levels = []
    for k in ks:
        try:
            levels.append(float(k))
        except (TypeError, ValueError):
            levels.append(math.nan)
        if not levels[-1] >= 0:
            raise ValidationError(f"truncation level {k} is not a number >= 0")
    return tuple(levels)


def lambda0(op: OperatorRep, V) -> float:
    """Variational ground energy inf spec(L - V).

    Equals min over u of Q(u) - <V u, u>_m with ||u||_m = 1; computed as
    the bottom eigenvalue of the shifted operator.  The Perron structure
    survives the sign-indefinite killing term: the ground vector of the
    shifted operator is still strictly positive on a connected graph,
    which is asserted here.
    """
    return _ground_energy(shift_by_potential(op, _as_values(op, V)))


def _ground_energy(full: OperatorRep) -> float:
    """Bottom eigenvalue of ``full`` = L - V, checking its Perron vector."""
    sd = eigendecompose(full)
    if full.graph is not None:
        ground = sd.vectors[:, 0]
        # strictly positive in exact arithmetic; leave room for entries
        # that localization pushes below resolution
        floor = -1e-12 * float(np.max(np.abs(ground)))
        start, stop = sd.groups[0]
        if (is_connected(full.graph) and stop - start == 1
                and not np.all(ground >= floor)):
            raise InvariantViolation(
                "ground state of L - V lost strict positivity"
            )
    return sd.E0


def truncated_semigroup(op: OperatorRep, V, k: float, t: float, f
                        ) -> np.ndarray:
    """e^{-t(L - V^k)} f with the truncated potential V^k = min(V, k)."""
    (k,) = _levels((k,))
    values = _as_values(op, V)
    shifted = shift_by_potential(op, np.minimum(values, k))
    return sg_apply(shifted, t, f)


@dataclass(frozen=True, eq=False)
class TruncationLadder:
    """Joint truncation of potential and initial datum.

    ``trajectories[i, j]`` is e^{-t_j (L - V^{k_i})} f_{k_i} with
    f_k = min(f, k); both families increase in k, so the trajectories
    increase entrywise as well.
    """

    ks: tuple[float, ...]
    trajectories: np.ndarray


def truncation_ladder(op: OperatorRep, V, f, grid, ks) -> TruncationLadder:
    grid = TimeGrid.of(grid)
    values = _as_values(op, V)
    f = checked_datum(f, op.n, "f")  # min(f, k) would hide an inf
    ks = tuple(sorted(_levels(ks)))
    trajectories = np.empty((len(ks), len(grid.times), op.n))
    for i, k in enumerate(ks):
        shifted = shift_by_potential(op, np.minimum(values, k))
        f_k = np.minimum(f, k)
        for j, t in enumerate(grid.times):
            trajectories[i, j] = sg_apply(shifted, t, f_k)
    return TruncationLadder(ks=ks, trajectories=trajectories)


@dataclass(frozen=True, eq=False)
class SvReport:
    """Limit of the truncated semigroups applied to f at one time.

    ``k_converged`` is the first ladder level whose distance to the
    previous one fell below 1e-12 (None if the ladder never settled);
    the law and continuity fields record the internal consistency
    checks.
    """

    value: np.ndarray
    ladder_gaps: np.ndarray
    k_converged: float | None
    semigroup_law_residual: float
    continuity_gaps: np.ndarray


def sv_limit(op: OperatorRep, V, t: float, f, ks) -> SvReport:
    """S_V(t) f as the monotone limit of truncated semigroups.

    On a finite graph the limit is attained at any k >= max V; the
    report records where the supplied ladder settled, the semigroup law
    residual ||S_V(0.3 t) S_V(0.7 t) f - S_V(t) f||_m and the small-time
    continuity gaps ||S_V(tau) f - f||_m along tau = t 2^{-j}.  The
    continuity gaps are also checked against the closed inequality
    ||S_V(tau) f - e^{-tau L} f||^2 <= ||S_V(tau) f||^2 - ||e^{-tau L} f||^2
    (norms in units of max(1, ||f||_m)), which makes them collapse as tau -> 0.
    """
    values = _as_values(op, V)
    f = np.asarray(f, dtype=float)
    ks = tuple(sorted(_levels(ks)))
    full = shift_by_potential(op, values)
    value = sg_apply(full, t, f)
    prev = None
    gaps = []
    k_converged = None
    for k in ks:
        cur = truncated_semigroup(op, values, k, t, f)
        if prev is not None:
            gap = op.norm(cur - prev)
            gaps.append(gap)
            if k_converged is None and gap < 1e-12:
                k_converged = k
        prev = cur
    half_a = sg_apply(full, 0.3 * t, f)
    composed = sg_apply(full, 0.7 * t, half_a)
    law_residual = op.norm(composed - value)
    taus = t * 0.5 ** np.arange(1, 11)
    cont_gaps = np.empty(len(taus))
    scale = max(1.0, op.norm(f))
    for j, tau in enumerate(taus):
        u_v = sg_apply(full, tau, f)
        u_free = sg_apply(op, tau, f)
        cont_gaps[j] = op.norm(u_v - f)
        lhs, plus, minus = (op.norm(u) / scale
                            for u in (u_v - u_free, u_v, u_free))
        if lhs * lhs > plus * plus - minus * minus + 1e-12:
            raise InvariantViolation(
                f"small-time continuity inequality violated at tau = {tau}"
            )
    return SvReport(value=value, ladder_gaps=np.asarray(gaps),
                    k_converged=k_converged,
                    semigroup_law_residual=law_residual,
                    continuity_gaps=cont_gaps)


@dataclass(frozen=True, eq=False)
class AdmissibilityVerdict:
    """Outcome of the three equivalent admissibility readings for (V, E).

    (i)   ||S_V(t)|| <= e^{-Et} (exact operator norm, read off lambda0),
    (ii)  <f, S_V(t) g> <= ||f|| ||g|| e^{-Et} for all t (decided on the
          exact exponential rate of the pairing),
    (iii) lambda0(L, V) >= E.

    ``M`` is the worst log-margin of the truncated pairings against the
    (ii) bound over the grid; it is <= ~0 when the verdict is positive
    and grows linearly in t when it is not.
    """

    E: float
    lambda0: float
    M: float
    holds_i: bool
    holds_ii: bool
    holds_iii: bool

    @property
    def admissible(self) -> bool:
        return self.holds_iii

    def to_dict(self) -> dict:
        return {**asdict(self), "admissible": self.admissible}


def admissibility_check(op: OperatorRep, V, E: float, f, g, grid, ks
                        ) -> AdmissibilityVerdict:
    """Evaluate the admissibility criteria (i), (ii), (iii).

    (i) is read off lambda0: the exact operator norm e^{-t lambda0} of
    the limit semigroup stays below e^{-tE} for every t > 0 exactly when
    lambda0 >= E, so (i) is the comparison of (iii), tolerance included;
    (ii) asks that the pairing <f, S_V(t) g> never outgrows
    ||f|| ||g|| e^{-tE}, decided on the exact exponential rate of the
    pairing (the bottom of its spectral support) because at any finite
    time the Cauchy-Schwarz prefactor can mask an E that exceeds lambda0
    by an arbitrarily small margin; (iii) compares lambda0 and E
    directly.  f and g are read by
    :func:`~heatlab.operators.checked_datum` and divided first by a
    power of two (:func:`~heatlab.operators.power_of_two_scale`), then
    by their m-norms, so no reading depends on their scale.
    All three must agree; a disagreement raises EquivalenceViolation
    since on a finite graph they are provably equivalent.  The truncated
    pairings along ``ks`` are additionally required to obey the (ii)
    bound at the grid times whenever the verdict is positive, and ``M``
    records their worst log-margin.  An E with E t not finite at some
    grid time (E itself not finite, or so large that E t overflows)
    raises ValidationError before any work.
    """
    grid = TimeGrid.of(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        unbounded = ~np.isfinite(E * grid.times)
    if unbounded.any():
        raise ValidationError(
            f"energy bound E = {E}: E t is not finite at grid time t = "
            f"{grid.times[unbounded][0]}")
    values = _as_values(op, V)
    ks = _levels(ks)
    f, g = checked_datum(f, op.n, "f"), checked_datum(g, op.n, "g")
    if not (np.all(f > 0) and np.all(g > 0)):
        raise ValidationError(
            "the pairing criterion needs entrywise positive f and g"
        )
    f, g = f / power_of_two_scale(f), g / power_of_two_scale(g)
    f, g = f / op.norm(f), g / op.norm(g)
    slack = math.log1p(1e-10)
    tol = 1e-10 * (1.0 + abs(E))

    full = shift_by_potential(op, values)
    lam = _ground_energy(full)
    # (i): ||S_V(t)|| = e^{-t lambda0} <= e^{-tE} for every t > 0 exactly
    # when lambda0 >= E, the comparison of (iii); products t lambda0 would
    # round differently from t E at subnormal t
    holds_i = holds_iii = bool(lam >= E - tol)

    # (ii): the pairing grows like e^{-t inf supp}; the bound holds for
    # all t iff that bottom stays at or above E
    atoms = SpectralAtoms.pairing(eigendecompose(full), f, g)
    support = atoms.supported(SUPPORT_MASS_TOL).energies
    if support.size == 0:
        raise EquivalenceViolation(
            "positive f, g lost all spectral mass under L - V"
        )
    holds_ii = bool(np.min(support) >= E - tol)

    if not (holds_i == holds_ii == holds_iii):
        raise EquivalenceViolation(
            f"admissibility criteria disagree: (i)={holds_i} "
            f"(ii)={holds_ii} (iii)={holds_iii} for E={E}, lambda0={lam}"
        )

    worst = -math.inf
    for k in ks:
        shifted = shift_by_potential(op, np.minimum(values, k))
        atoms = SpectralAtoms.pairing(eigendecompose(shifted), f, g)
        logs, _ = atoms.log_pairing(grid.times)
        margins = logs + E * grid.times
        worst = max(worst, float(np.max(margins)))
        if holds_ii and np.any(margins > slack):
            raise EquivalenceViolation(
                f"truncated pairing at k={k} breaks the admitted bound "
                f"(margin {np.max(margins):.2e})"
            )
    return AdmissibilityVerdict(E=float(E), lambda0=float(lam), M=worst,
                                holds_i=holds_i, holds_ii=holds_ii,
                                holds_iii=holds_iii)


@dataclass(frozen=True, eq=False)
class ApproximatedSolution:
    """Evolution u(t) = e^{-t(L - V)} f = lim_k e^{-t(L - V^k)} f_k, f >= 0.

    u is computed at the full V.  Carries the truncation ladder alongside
    (nothing reads it), central-difference ODE residuals at the interior
    grid times (relative to ||u||_m) and the log-domain margins of the
    exponential bound ||u(t)||_m <= ||f||_m e^{-lambda0 t}.
    """

    times: np.ndarray
    values: np.ndarray
    ladder: TruncationLadder
    ode_residuals: np.ndarray
    log_bound_margins: np.ndarray
    lambda0: float


def approximated_solution(op: OperatorRep, V, f, grid, ks
                          ) -> ApproximatedSolution:
    """Solve u' + (L - V) u = 0, u(0) = f, by e^{-t(L - V)} f at the full V.

    The truncation ladder at ``ks`` is built alongside, not used for u.

    The evolution, its residuals and its margins are computed for f
    divided by the power of two that brings max f into [1, 2), and u is
    scaled back; both steps are exact short of the floating range, so u
    is e^{-t(L - V)} f bit for bit and no reading depends on the scale
    of f.  Where u(t) lies below the floating range (norm 0) its margin
    is -inf and its residual is taken unnormalized, on that scaled
    datum.  A zero f has the exact solution u = 0, with every residual 0
    and every margin -inf.

    Raises
    ------
    ValueError, ValidationError
        If f is not a finite vertex function
        (:func:`~heatlab.operators.checked_datum`).
    NegativeInitialDatum
        If f has a negative entry; the approximating scheme
        f_k = min(f, k) needs f >= 0.
    NumericsError
        If u(t) overflows the floating-point range.
    """
    grid = TimeGrid.of(grid)
    values = _as_values(op, V)
    f = checked_datum(f, op.n, "f")
    if np.any(f < 0):
        raise NegativeInitialDatum("initial datum must be non-negative")
    ladder = truncation_ladder(op, values, f, grid, ks)
    full = shift_by_potential(op, values)
    scale = power_of_two_scale(f)
    unit = f / scale
    u = np.array([sg_apply(full, t, unit) for t in grid.times])
    lam = _ground_energy(full)

    # central differences with a step tuned to the curvature scale
    rho = max(full.s_norm1, 1.0)
    delta = (3.0 * np.finfo(float).eps) ** (1.0 / 3.0) / rho
    rs = np.sqrt(op.m)
    residuals = np.empty(max(len(grid.times) - 2, 0))
    for j in range(1, len(grid.times) - 1):
        t = grid.times[j]
        forward = sg_apply(full, t + delta, unit)
        backward = sg_apply(full, t - delta, unit)
        du = (forward - backward) / (2.0 * delta)
        res = op.norm(du + (full.S @ (rs * u[j])) / rs)
        residuals[j - 1] = res / (op.norm(u[j]) or 1.0)

    # log ||u(t)||_m - log ||f||_m + lambda0 t
    with np.errstate(divide="ignore"):
        log_norms = np.log([op.norm(v) for v in u])
    log_f = math.log(op.norm(unit)) if f.any() else 0.0
    log_margins = log_norms - log_f + lam * grid.times
    with np.errstate(over="ignore"):
        u = scale * u
    if not np.all(np.isfinite(u)):
        raise NumericsError(
            "u(t) = e^(-t(L - V)) f overflows the floating-point range")
    return ApproximatedSolution(times=grid.times, values=u, ladder=ladder,
                                ode_residuals=residuals,
                                log_bound_margins=log_margins, lambda0=lam)


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Per-stage ground energies of an exhaustion experiment.

    ``diverging`` is set when lambda0 keeps dropping by at least the
    probe's ``margin`` per stage across three or more stages;
    ``lambda0_limit`` is then the sentinel -inf.
    """

    lambda0s: tuple[float, ...]
    sizes: tuple[int, ...]
    diverging: bool
    lambda0_limit: float
    truncation_energies: tuple[tuple[float, ...], ...]


def exhaustion_divergence_probe(stages, margin: float = 1.0,
                                ks=()) -> ProbeReport:
    """Track lambda0 along growing (graph, potential) stages.

    Parameters
    ----------
    stages : sequence of (WeightedGraph, potential) pairs
        Typically restrictions of one infinite model to growing balls.
    margin : float
        Drop per stage that counts as divergence, finite and > 0; the
        flag is raised once the last two stage-to-stage drops both reach
        it across at least three stages, and the limit becomes -inf.
    ks : sequence of float, optional
        Truncation levels; per stage the report then also carries
        E0(L - V^k), the upper bounds dominating lambda0, each the lowest
        eigenvalue of its shifted S (``np.linalg.eigvalsh``, no vectors).
    """
    if not 0 < margin < math.inf:
        raise ValidationError(f"margin = {margin} is not a finite number > 0")
    ks = _levels(ks)
    lams = []
    sizes = []
    bounds = []
    for g, V in stages:
        op = assemble(g)
        values = _as_values(op, V)
        lams.append(lambda0(op, values))
        sizes.append(g.n)
        bounds.append(tuple(float(np.linalg.eigvalsh(
            shift_by_potential(op, np.minimum(values, k)).S)[0]) for k in ks))
    if not lams:
        raise ValidationError("the exhaustion probe needs at least one stage")
    drops = [lams[i] - lams[i + 1] for i in range(len(lams) - 1)]
    diverging = len(lams) >= 3 and len(drops) >= 2 and all(
        d >= margin for d in drops[-2:]
    )
    limit = -math.inf if diverging else min(lams)
    return ProbeReport(lambda0s=tuple(lams), sizes=tuple(sizes),
                       diverging=diverging, lambda0_limit=limit,
                       truncation_energies=tuple(bounds))
