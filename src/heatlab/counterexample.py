"""A non-selfadjoint semigroup whose orbit rates move with the datum.

The generator acts on one-sided sequences by the left shift plus a
rank-one feedback,

    L1 x = (x_2, x_3, ...) + x_1 y_mu,        y_r = (r, r^2, r^3, ...),

truncated here to N coordinates.  Two exact relations drive everything:

    L1 y_mu  = 2 mu y_mu,
    L1 y_lam = lam y_lam + lam y_mu           (any 0 < lam < 1),

so the orbit of y_lam under the forward semigroup has the closed form

    e^{t L1} y_lam = e^{lam t} y_lam
                     + (lam / (lam - 2 mu)) (e^{lam t} - e^{2 mu t}) y_mu.

For lam > 2 mu the pairing <x, e^{t L1} y_lam> therefore grows at the
rate lam for every positive x -- a rate that moves with the initial
datum, impossible for a selfadjoint generator, where every positive
pairing is pinned to the bottom of the spectrum.  The
rank-one term also couples every coordinate to every other, while the
bare shift is triangular and never improves positivity.  L1 has no
negative entry: :func:`~heatlab.semigroup.series_expm` sums its
exponential without cancellation, and positivity is read off its pattern.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonPositivePairing,
    ResonantParameters,
    TruncationInsufficient,
)
from .operators import DENSE_LIMIT
from .semigroup import check_count, check_time, series_expm
from .asymptotics import RateEstimate, TimeGrid

__all__ = [
    "ShiftModel",
    "shift_model",
    "closed_orbit",
    "shift_orbit",
    "counterexample_rate",
    "is_positivity_improving_shift",
]

_TAIL_TOL = 1e-14


def _tail(r: float, N: int) -> float:
    """l^1 mass of y_r beyond coordinate N."""
    return r ** (N + 1) / (1.0 - r)


@dataclass(frozen=True, eq=False)
class ShiftModel:
    """N-coordinate truncation of the shift-plus-feedback generator.

    ``L1`` carries ones on the superdiagonal (L1 e_j = e_{j-1}) and
    y_mu as its first column (L1 e_1 = y_mu); all entries are
    non-negative, so the forward semigroup preserves positivity.
    """

    N: int
    mu: float
    y_mu: np.ndarray = field(repr=False)
    L1: np.ndarray = field(repr=False)

    def geometric(self, r: float) -> np.ndarray:
        """y_r = (r, r^2, ..., r^N)."""
        return r ** np.arange(1, self.N + 1, dtype=float)


def shift_model(mu: float, N: int = 200) -> ShiftModel:
    """Build the truncated model, enforcing the 1e-14 tail bound on y_mu.

    Raises
    ------
    ValidationError
        If N is not an integer from 1 to the dense limit ``DENSE_LIMIT``.
    TruncationInsufficient
        If mu^{N+1}/(1-mu) > 1e-14 -- large mu demands a larger N.
    """
    mu = float(mu)
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    check_count(N, "truncation size N", 1, DENSE_LIMIT)
    if _tail(mu, N) > _TAIL_TOL:
        raise TruncationInsufficient(
            f"y_mu tail {_tail(mu, N):.3e} exceeds {_TAIL_TOL} at N = {N}"
        )
    y_mu = mu ** np.arange(1, N + 1, dtype=float)
    L1 = np.zeros((N, N))
    idx = np.arange(N - 1)
    L1[idx, idx + 1] = 1.0
    L1[:, 0] += y_mu
    y_mu.setflags(write=False)
    L1.setflags(write=False)
    return ShiftModel(N=int(N), mu=mu, y_mu=y_mu, L1=L1)


def _check_lam(model: ShiftModel, lam: float) -> float:
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    if abs(lam - 2.0 * model.mu) <= 1e-12:
        raise ResonantParameters(
            f"lam = {lam} resonates with 2 mu = {2 * model.mu}"
        )
    if _tail(lam, model.N) > _TAIL_TOL:
        raise TruncationInsufficient(
            f"y_lam tail {_tail(lam, model.N):.3e} exceeds {_TAIL_TOL}; "
            f"rebuild the model with a larger N"
        )
    return lam


def _check_orbit_time(model: ShiftModel, lam: float, t: float) -> None:
    """t checked by :func:`~heatlab.semigroup.check_time` (t >= 0), and
    small enough that the orbit's growth e^{r t}, r = max(lam, 2 mu),
    stays in floating range; a larger t raises ValueError."""
    check_time(t, positive=False)
    rate = max(lam, 2.0 * model.mu)
    if rate * t > 700.0:
        raise ValueError(
            f"e^(r t) overflows at r t = {rate * t:.1f}, with r = "
            f"max(lam, 2 mu) = {rate}; use counterexample_rate for large "
            "times"
        )


def closed_orbit(model: ShiftModel, lam: float, t: float) -> np.ndarray:
    """The two-eigenmode closed form of e^{t L1} y_lam.

    Independent of the matrix: only scalars e^{lam t}, e^{2 mu t} and
    the stored geometric vectors enter, which makes it the reference
    the matrix-exponential orbit is tested against.  t is checked as in
    :func:`shift_orbit`.
    """
    lam = _check_lam(model, lam)
    _check_orbit_time(model, lam, t)
    a = lam / (lam - 2.0 * model.mu)
    grow = math.exp(lam * t)
    return (grow * model.geometric(lam)
            + a * (grow - math.exp(2.0 * model.mu * t)) * model.y_mu)


def shift_orbit(model: ShiftModel, lam: float, t: float) -> np.ndarray:
    """e^{t L1} y_lam by the series exponential
    :func:`~heatlab.semigroup.series_expm`.

    Matches :func:`closed_orbit` to relative 1e-8 for lam * t <= 40;
    the deviation is the truncation error surfacing, controlled by the
    tail bounds on y_mu and y_lam.  At t = 0 it returns y_lam exactly.
    A t that is not finite or negative raises as in
    :func:`~heatlab.semigroup.check_time`, and one with
    max(lam, 2 mu) t > 700, where the orbit leaves the floating range,
    raises ValueError.
    """
    lam = _check_lam(model, lam)
    _check_orbit_time(model, lam, t)
    F, _ = series_expm(t * model.L1)
    return F @ model.geometric(lam)


def counterexample_rate(model: ShiftModel, lam: float, x, grid
                        ) -> RateEstimate:
    """Growth rate of t -> <x, e^{t L1} y_lam> along a grid.

    The orbit is advanced step by step and renormalized after each
    step, with the log-norm accumulated separately, so the grid may run
    far beyond the ~940/lam overflow horizon of a direct orbit.  Sign
    convention: ``log_values`` stores the negated log-pairing so the
    decay-oriented estimators of RateEstimate converge to the positive
    target lam.  Different lam give different limits -- the witness
    that L1 admits no datum-independent rate.

    Parameters
    ----------
    model : ShiftModel
        Requires mu < 1/2 so the window (2 mu, 1) of admissible lam is
        non-empty.
    lam : float
        Must lie in (2 mu, 1), where the e^{lam t} mode dominates.
    x : array
        Non-negative, non-zero probe vector of length N.
    """
    if not model.mu < 0.5:
        raise ValueError("rate experiment requires mu < 1/2")
    lam = _check_lam(model, lam)
    if not lam > 2.0 * model.mu:
        raise ValueError(
            f"lam = {lam} must exceed 2 mu = {2 * model.mu} "
            "for the orbit rate to be lam"
        )
    grid = TimeGrid.of(grid)
    x = np.asarray(x, dtype=float)
    if x.shape != (model.N,):
        raise ValueError(f"probe vector must have shape ({model.N},)")
    if np.any(x < 0) or not np.any(x > 0):
        raise ValueError("probe vector must be non-negative and non-zero")

    steppers: dict[float, np.ndarray] = {}
    v = model.geometric(lam)
    acc = 0.0
    prev_t = 0.0
    logs = np.empty(len(grid.times))
    for j, t in enumerate(grid.times):
        h = t - prev_t
        P = steppers.get(h)
        if P is None:
            P, _ = series_expm(h * model.L1)
            steppers[h] = P
        v = P @ v
        norm = float(np.linalg.norm(v))
        acc += math.log(norm)
        v /= norm
        prev_t = t
        pairing = float(x @ v)
        if pairing <= 0.0:
            raise NonPositivePairing(
                f"<x, orbit> fell to {pairing} at t = {t}"
            )
        logs[j] = -(acc + math.log(pairing))
    return RateEstimate.from_logs(grid.times, logs, target=lam)


def is_positivity_improving_shift(model: ShiftModel, t: float, *,
                                  shift_only: bool = False) -> bool:
    """Whether e^{tM} has all entries strictly positive, for t > 0.

    M is ``model.L1``, or the bare shift with ``shift_only``; neither has
    a negative entry, so e^{tM} = e^{-td} sum_k (t(M + d))^k / k! adds
    non-negative terms, and its (x, y) entry is positive exactly when a
    chain of nonzero entries M(x, z1), ..., M(zk, y) leads from x to y.
    The verdict is therefore the strong connectivity of M's stored pattern
    (Perron-Frobenius), the same at every t > 0 and decided without the
    exponential, whose far entries can lie below the floating range
    (about 1.2e-354 at N = 200 and t = 5): True with the feedback column,
    False for the bare shift (N > 1).
    """
    check_time(t, positive=True)
    pattern = (np.eye(model.N, k=1, dtype=bool) if shift_only
               else model.L1 != 0)
    return _reaches_all(pattern) and _reaches_all(pattern.T)


def _reaches_all(pattern: np.ndarray) -> bool:
    """Whether every index is reached from index 0 along the True entries
    of ``pattern``, each leading from its row to its column."""
    seen, front = np.zeros((2, len(pattern)), dtype=bool)
    front[0] = True
    while front.any():
        seen |= front
        front = pattern[front].any(axis=0) & ~seen
    return bool(seen.all())
