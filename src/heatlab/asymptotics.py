"""Large-time behaviour: decay rates, ground-state limits, positivity.

The quantities of interest all have spectral expansions

    <f, e^{-tL} g>_m = sum_i w_i e^{-t E_i},      w_i = <phi_i, f>_m <phi_i, g>_m,
    p_t(x, y)        = sum_i phi_i(x) phi_i(y) e^{-t E_i},

and every estimator here works on the log of such sums (log-sum-exp over
the atoms), so arbitrarily large grid times cost nothing and never
underflow.  The headline limits realized below:

* -log <f, e^{-tL} g> / t converges to the bottom of the joint spectral
  support; for positive f, g on a connected graph that bottom is E0.
* e^{t E0} p_t(x, y) converges to phi0(x) phi0(y) with phi0 the
  normalized positive ground state, at rate e^{-(E1 - E0) t}; the
  diagonal profile Phi = (e^{t E0} p_t(x, x))^{1/2} converges to phi0.
* e^{-tL} is entrywise positive for some (all) t > 0 exactly when the
  graph is connected.

The linear-scale sums (diagonal profiles, residuals) weight each atom by
:func:`~heatlab.operators.decay_factors`; a factor below the normal
floating range counts as exactly zero.  No self-check here forms an
n x n kernel: the ground-state residuals are sums over the diagonal of
the excited remainder, O(n k) per time, and the factorization identity
reads its two kernel functions as two columns of the held e^{-S}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantViolation,
    NonPositivePairing,
    NoSpectralGap,
    NumericsError,
    PositivityConnectivityMismatch,
    ValidationError,
    ZeroKernelEntry,
)
from .graphs import is_connected
from .operators import (
    SUPPORT_MASS_TOL,
    OperatorRep,
    SpectralAtoms,
    checked_datum,
    coefficients,
    decay_factors,
    eigendecompose,
    power_of_two_scale,
)
from .semigroup import (SCALING_SQUARING, check_count, heat_kernel,
                        kernel_column, resolvent)

__all__ = [
    "TimeGrid",
    "RateEstimate",
    "GroundStateProfile",
    "rate_inner",
    "rate_kernel",
    "kernel_factorization_defects",
    "groundstate_limit",
    "strong_convergence_check",
    "positivity_improving",
]

_FACTORIZATION_TOL = 1e-9
# max Phi above this detects E0 as an eigenvalue (groundstate_limit)
_DETECTION_THRESHOLD = 1e-6


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing positive finite evaluation times, at least three.

    ``times`` is a read-only copy; the caller's array is left as it was.
    """

    times: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or len(times) < 3:
            raise ValidationError("a time grid needs at least 3 times")
        if not np.all(np.isfinite(times)):
            raise ValidationError("grid times must be finite")
        if not np.all(times > 0):
            raise ValidationError("grid times must be positive")
        if not np.all(np.diff(times) > 0):
            raise ValidationError("grid times must be strictly increasing")
        times.setflags(write=False)

    @classmethod
    def geometric(cls, t0: float = 1.0, ratio: float = 1.5,
                  count: int = 20) -> "TimeGrid":
        """Times t0 ratio^j, j < count, count an integer >= 3."""
        check_count(count, "count", 3)
        if t0 <= 0 or ratio <= 1:
            raise ValidationError("need t0 > 0 and ratio > 1")
        return cls(t0 * ratio ** np.arange(count))

    @classmethod
    def of(cls, grid) -> "TimeGrid":
        """``grid`` itself if it is a TimeGrid, else a grid of its times."""
        return grid if isinstance(grid, cls) else cls(grid)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, eq=False)
class RateEstimate:
    """Rate estimators along a grid, with the spectral target.

    Sign convention: estimates approach ``target`` which is E0 (or the
    bottom of the joint spectral support), i.e. minus the exponential
    rate of the quantity itself.  ``cesaro`` is -log q(t)/t at the last
    grid time, ``differenced`` the difference quotient over the last
    pair; the histories carry one value per grid time, with the leading
    entry of the differenced/residual columns undefined (nan).
    """

    times: np.ndarray
    log_values: np.ndarray
    target: float
    cesaro_history: np.ndarray
    differenced_history: np.ndarray
    residual_history: np.ndarray

    @property
    def cesaro(self) -> float:
        return float(self.cesaro_history[-1])

    @property
    def differenced(self) -> float:
        return float(self.differenced_history[-1])

    @classmethod
    def from_logs(cls, times: np.ndarray, logs: np.ndarray, target: float
                  ) -> "RateEstimate":
        """Estimators from log q(t) at the grid ``times``."""
        cesaro = -logs / times
        diffs = np.full_like(times, np.nan)
        diffs[1:] = -np.diff(logs) / np.diff(times)
        residuals = np.abs(diffs - target)
        return cls(times=times, log_values=logs, target=float(target),
                   cesaro_history=cesaro, differenced_history=diffs,
                   residual_history=residuals)


def _rate_from_atoms(atoms: SpectralAtoms, threshold: float, grid: TimeGrid,
                     error: type[Exception], quantity: str, cause: str = "",
                     log_scale: float = 0.0) -> RateEstimate:
    """Rate estimators for log_scale + log of the atoms above threshold."""
    # atoms of sub-resolution mass are projection noise, not support;
    # carried along they would hijack the estimate once t is large
    # enough for their energy to win
    atoms = atoms.supported(threshold)
    if atoms.energies.size == 0:
        raise error(f"{quantity} vanishes identically{cause}")
    logs, signs = atoms.log_pairing(grid.times)
    if np.any(signs <= 0):
        t_bad = grid.times[np.flatnonzero(signs <= 0)[0]]
        raise error(f"{quantity} <= 0 at t = {t_bad}")
    return RateEstimate.from_logs(grid.times, logs + log_scale,
                                  np.min(atoms.energies))


def rate_inner(op: OperatorRep, f, g, grid) -> RateEstimate:
    """Rate estimators for q(t) = <f, e^{-tL} g>_m along the grid.

    The target is the smallest eigenvalue carrying joint spectral mass
    of f and g; for f = g that is the bottom of supp rho_f, and for
    positive f, g on a connected graph it is E0.  It pairs f/||f||_m with
    g/||g||_m and adds log ||f||_m ||g||_m back, so no scale is lost;
    the norms are taken of f and g divided by a power of two
    (:func:`~heatlab.operators.power_of_two_scale`), so they stay finite
    where ||f||_m itself would overflow.

    Raises
    ------
    ValueError, ValidationError
        If f or g is not a finite vertex function
        (:func:`~heatlab.operators.checked_datum`).
    NonPositivePairing
        If q(t) fails to be strictly positive at some grid time, or f or
        g is zero.
    """
    f, g = checked_datum(f, op.n, "f"), checked_datum(g, op.n, "g")
    grid = TimeGrid.of(grid)
    scales = power_of_two_scale(f), power_of_two_scale(g)
    f, g = f / scales[0], g / scales[1]
    norms = op.norm(f), op.norm(g)
    if 0.0 in norms:
        raise NonPositivePairing("<f, e^{-tL} g> vanishes identically")
    atoms = SpectralAtoms.pairing(eigendecompose(op), np.divide(f, norms[0]),
                                  np.divide(g, norms[1]))
    return _rate_from_atoms(atoms, SUPPORT_MASS_TOL, grid,
                            NonPositivePairing, "<f, e^{-tL} g>",
                            log_scale=_log_norm(norms[0], scales[0])
                            + _log_norm(norms[1], scales[1]))


def _log_norm(norm: float, scale: float) -> float:
    # log(norm * scale) for a power-of-two scale: the log of the product
    # wherever that is a normal float (so it is log ||f||_m bit for bit),
    # the sum of the two logs where the product over- or underflows
    product = norm * scale
    if np.finfo(float).tiny <= product < math.inf:
        return math.log(product)
    return math.log(norm) + math.log(scale)


def kernel_factorization_defects(op: OperatorRep, x, y, grid) -> np.ndarray:
    """|log| defects of p_{t+2}(x,y) = <g_x, e^{-tL} g_y>_m per grid time.

    The kernel functions g_x = p_1(., x) are produced by the
    scaling-squaring evaluator while the left-hand side comes from the
    spectral expansion, so the identity genuinely ties two independent
    paths together.  Each is one :func:`~heatlab.semigroup.kernel_column`,
    a matrix-vector product with the e^{-S} that evaluator computes once
    per operator and keeps, so no n x n kernel is formed.
    """
    grid = TimeGrid.of(grid)
    ix = op.vertex_index(x)
    iy = op.vertex_index(y)
    sd = eigendecompose(op)
    g_x = kernel_column(op, 1.0, ix, SCALING_SQUARING)
    g_y = kernel_column(op, 1.0, iy, SCALING_SQUARING)
    rhs_atoms = SpectralAtoms.pairing(sd, g_x, g_y)
    lhs_atoms = SpectralAtoms.grouped(sd, sd.vectors[ix] * sd.vectors[iy])
    # both sides carry the same atoms (weight_rhs = e^{-2E} weight_lhs),
    # so one noise mask keeps the two sums comparable at every t
    scale = op.norm(g_x) * op.norm(g_y)
    keep = np.abs(rhs_atoms.weights) > SUPPORT_MASS_TOL * scale
    if not keep.any():
        raise ZeroKernelEntry(
            f"p_t({x},{y}) vanishes identically; vertices are not connected"
        )
    rhs, _ = rhs_atoms[keep].log_pairing(grid.times)
    lhs, _ = lhs_atoms[keep].log_pairing(grid.times + 2.0)
    return np.abs(lhs - rhs)


def rate_kernel(op: OperatorRep, x, y, grid) -> RateEstimate:
    """Rate estimators for the kernel entry t -> p_t(x, y).

    On a connected graph both estimators approach E0.  Each call also
    verifies the two-sided kernel identity p_{t+2}(x,y) =
    <p_1(x,.), e^{-tL} p_1(y,.)>_m at every grid time to 1e-9 and raises
    InvariantViolation when it fails.

    Raises
    ------
    ZeroKernelEntry
        If x and y lie in different connected components.
    """
    grid = TimeGrid.of(grid)
    ix = op.vertex_index(x)
    iy = op.vertex_index(y)
    sd = eigendecompose(op)
    atoms = SpectralAtoms.grouped(sd, sd.vectors[ix] * sd.vectors[iy])
    scale = np.sqrt(np.sum(sd.vectors[ix, :] ** 2)
                    * np.sum(sd.vectors[iy, :] ** 2))
    estimate = _rate_from_atoms(atoms, 1e-13 * scale, grid, ZeroKernelEntry,
                                f"p_t({x},{y})",
                                "; vertices are not connected")
    defects = kernel_factorization_defects(op, x, y, grid)
    if np.any(defects > _FACTORIZATION_TOL):
        raise InvariantViolation(
            "kernel factorization identity violated: max log-defect "
            f"{np.max(defects):.2e} over the grid"
        )
    return estimate


@dataclass(frozen=True, eq=False)
class GroundStateProfile:
    """Ground state extracted from the kernel diagonal.

    ``Phi`` is (e^{t E0} p_t(x,x))^{1/2} at the last grid time; on a
    connected graph it is entrywise positive with ||Phi||_m = 1 up to
    the leftover excited mass e^{-(E1-E0) t}.  ``Phi_t_history`` stacks
    the same quantity for every grid time, ``residual_history`` the
    distances max_{x,y} |e^{t E0} p_t(x,y) - phi0(x) phi0(y)| from the
    ground-state projection kernel, phi0 the normalized ground state.
    """

    times: np.ndarray
    Phi: np.ndarray
    Phi_t_history: np.ndarray
    residual_history: np.ndarray
    is_eigenvalue_detected: bool


def groundstate_limit(op: OperatorRep, grid) -> GroundStateProfile:
    """Ground-state profile and factorization residuals along the grid.

    Each residual is the sup-norm distance of e^{t E0} p_t from the
    ground-state projection kernel phi0(x) phi0(y).  The remainder
    sum_{i excited} phi_i(x) phi_i(y) e^{-t(E_i - E0)} is positive
    semidefinite, so its largest entry lies on its diagonal: the
    residual is max_x sum_{i excited} phi_i(x)^2 e^{-t(E_i - E0)}, a sum
    of non-negative terms at O(n k) per time with no cancellation, which
    stays resolved long after it falls below the rounding of an O(1)
    kernel entry.  The residuals are required to decay like
    e^{-(E1-E0) t}: each one is checked against
    10 * C * e^{-(E1-E0)(t-2)} with the constant C calibrated from the
    kernel functions as e^{2 E0} max_x p_2(x, x).  In the diagonal
    profiles and the residuals, atoms whose factor e^{-t(E_i - E0)} falls
    below the normal floating range count as exactly zero.

    Raises
    ------
    NoSpectralGap
        If E1 - E0 is numerically zero.
    InvariantViolation
        If some residual escapes the decay envelope.
    """
    grid = TimeGrid.of(grid)
    sd = eigendecompose(op)
    # gap counted with multiplicity: a degenerate ground state (always a
    # disconnected graph) has no product-state limit in the first place
    if op.n > 1:
        gap = float(sd.eigenvalues[1] - sd.eigenvalues[0])
        if gap <= 1e-8 * (1.0 + abs(sd.E0)):
            raise NoSpectralGap(f"E1 - E0 = {gap:.2e} is below resolution")
    _, stop = sd.groups[0]
    squares = sd.vectors ** 2
    diag_profiles, residuals = [], []
    for t in grid.times:
        decay = decay_factors(sd.eigenvalues, t, sd.E0)
        diag_profiles.append(np.sqrt(squares @ decay))
        residuals.append(np.max(squares[:, stop:] @ decay[stop:]))
    history = np.array(diag_profiles)
    Phi = history[-1]
    residuals = np.array(residuals)
    if op.n > 1:
        # decay envelope, constant calibrated from the kernel functions g_x
        p2_diag = squares @ decay_factors(sd.eigenvalues, 2.0, sd.E0)
        C = float(np.max(p2_diag))
        envelope = 10.0 * C * np.exp(
            np.minimum(-gap * (grid.times - 2.0), 700.0))
        floor = 64.0 * op.n * np.finfo(float).eps * C
        bad = residuals > np.maximum(envelope, floor)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise InvariantViolation(
                f"factorization residual {residuals[j]:.2e} at t = "
                f"{grid.times[j]} escapes the spectral-gap envelope "
                f"{envelope[j]:.2e}"
            )
    detected = bool(np.max(Phi) > _DETECTION_THRESHOLD)
    return GroundStateProfile(times=grid.times, Phi=Phi,
                              Phi_t_history=history,
                              residual_history=residuals,
                              is_eigenvalue_detected=detected)


def strong_convergence_check(op: OperatorRep, f, grid) -> np.ndarray:
    """Residuals ||e^{t E0} e^{-tL} f - P f||_m per grid time.

    They are bounded by ||f||_m e^{-(E' - E0) t} with E' the bottom of
    the spectral support of (I - P) f, which is what the calling tests
    assert.  They are summed for f/||f||_m and scaled back, the norm
    taken of f divided by a power of two
    (:func:`~heatlab.operators.power_of_two_scale`) and that power
    multiplied in last, so ||f||_m may lie beyond the floating range;
    f is read by :func:`~heatlab.operators.checked_datum`.

    Raises
    ------
    NumericsError
        If a residual itself overflows the floating-point range.
    """
    f = checked_datum(f, op.n, "f")
    grid = TimeGrid.of(grid)
    sd = eigendecompose(op)
    scale = power_of_two_scale(f)
    f = f / scale
    norm = op.norm(f)
    coeff = coefficients(sd, np.divide(f, norm or 1.0))
    _, stop = sd.groups[0]
    exc_coeff = coeff[stop:]
    exc_energies = sd.eigenvalues[stop:]
    residuals = np.empty(len(grid.times))
    for j, t in enumerate(grid.times):
        decay = decay_factors(exc_energies, 2.0 * t, sd.E0)
        residuals[j] = np.sqrt(np.sum(exc_coeff ** 2 * decay))
    with np.errstate(over="ignore"):
        residuals = norm * residuals * scale
    if not np.all(np.isfinite(residuals)):
        raise NumericsError("a strong-convergence residual "
                            "||e^{t E0} e^{-tL} f - P f||_m overflows the "
                            "floating-point range")
    return residuals


def positivity_improving(op: OperatorRep) -> bool:
    """Entrywise positivity of e^{-L}, cross-checked two independent ways.

    The verdict is the strict sign, with no threshold, of every entry of
    p_1 = D^{-1/2} e^{-S} D^{-1/2} by scaling-squaring, whose series adds
    only non-negative terms: an entry is an exact 0 where no term reaches
    it (across components, or past 24 2^s edges for s squarings) or where
    it underflows.  It is cross-checked against the strict sign of the
    resolvent at alpha = 1 - E0, built from products of non-negative
    blocks, and against graph connectivity.  Any disagreement raises
    PositivityConnectivityMismatch, because for graphs these three are
    provably the same thing.
    """
    if op.graph is None:
        raise ValueError("operator carries no graph; cannot cross-check")
    kernel_verdict = bool(np.min(heat_kernel(op, 1.0, SCALING_SQUARING).p) > 0)
    resolvent_verdict = bool(
        np.min(resolvent(op, 1.0 - eigendecompose(op).E0)) > 0)
    connected = is_connected(op.graph)
    if kernel_verdict != connected or resolvent_verdict != connected:
        raise PositivityConnectivityMismatch(
            f"kernel positivity {kernel_verdict}, resolvent positivity "
            f"{resolvent_verdict}, connectivity {connected}"
        )
    return kernel_verdict
