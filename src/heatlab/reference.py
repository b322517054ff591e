"""Brute-force reference computations, deliberately naive.

Everything here exists to cross-check the production paths:

* :func:`taylor_expm` sums the alternating Taylor series of e^{-tS} with
  a certified remainder bound.  It is independent of the spectral
  default that ``verify`` compares it with, but not of scaling-squaring,
  whose :func:`~heatlab.semigroup.series_expm` is a Taylor sum too, of
  the shifted, non-negative dI - tS.
* :func:`rayleigh_min` approaches E0 variationally from above by random
  probing plus exact coordinate minimization of the Rayleigh quotient,
  never calling an eigensolver.

All randomness is drawn from an explicitly seeded 64-bit generator and
the seed is recorded in every report.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["TaylorExpm", "taylor_expm", "rayleigh_min", "OracleReport"]

_MAX_TERMS = 120
_TARGET = 1e-14
# split until the scaled norm is at most this: merely meeting the
# truncation bound is not enough, at larger norms the alternating sum
# cancels away significant digits
_SPLIT_NORM = 1.0
# rayleigh_min runs at least _MIN_SWEEPS and at most _MAX_SWEEPS sweeps
_MIN_SWEEPS, _MAX_SWEEPS = 50, 2000


@dataclass(frozen=True, eq=False)
class TaylorExpm:
    """Taylor evaluation of e^{-tS} with a certified error bound.

    ``bound`` is a rigorous absolute bound (in the 2-norm) on the
    difference to the exact exponential, propagated through any
    squarings; ``terms`` is the series length actually summed and
    ``splits`` the number of exact e^A = (e^{A/2})^2 halvings.
    """

    matrix: np.ndarray
    bound: float
    terms: int
    splits: int


def _terms_for(norm: float) -> int | None:
    """Smallest K with norm^{K+1}/(K+1)! * e^norm <= 1e-14, if K <= 120."""
    if norm == 0.0:
        return 0
    log_target = math.log(_TARGET)
    for K in range(_MAX_TERMS + 1):
        log_tail = (K + 1) * math.log(norm) - math.lgamma(K + 2) + norm
        if log_tail <= log_target:
            return K
    return None


def taylor_expm(S: np.ndarray, t: float) -> TaylorExpm:
    """e^{-tS} by truncated Taylor series with certified remainder.

    At most 120 terms are summed, K of them chosen so the remainder
    bound ||tS||^{K+1}/(K+1)! * e^{||tS||} drops below 1e-14.  The input
    is first halved via the exact law e^A = (e^{A/2})^2 until its 1-norm
    is at most 1, then squared back up; the reported bound covers the
    truncation error propagated through those squarings.
    """
    M = -t * np.asarray(S, dtype=float)
    n = M.shape[0]
    norm = float(np.linalg.norm(M, 1))
    splits = 0
    while (norm / 2 ** splits > _SPLIT_NORM
           or _terms_for(norm / 2 ** splits) is None):
        splits += 1
    base = M / 2 ** splits
    base_norm = norm / 2 ** splits
    K = _terms_for(base_norm)
    F = np.eye(n)
    term = np.eye(n)
    for k in range(1, K + 1):
        term = term @ base / k
        F = F + term
    if K == 0:
        bound = 0.0 if norm == 0.0 else _TARGET
    else:
        bound = math.exp((K + 1) * math.log(base_norm)
                         - math.lgamma(K + 2) + base_norm)
    # each squaring maps error E to at most E (||F|| + ||e^A||)
    #   <= E (2 ||F|| + E), with ||F||_2 read off the computed factor
    for _ in range(splits):
        nf = float(np.linalg.norm(F, 2))
        bound = bound * (2.0 * nf + bound)
        F = F @ F
    return TaylorExpm(matrix=F, bound=float(bound), terms=K, splits=splits)


def rayleigh_min(op, samples: int = 200, seed: int = 0) -> float:
    """Variational upper bound on E0 = inf spec(L).

    Draws ``samples`` random vectors, keeps the one with the smallest
    Rayleigh quotient v^T S v / v^T v, then minimizes the quotient one
    coordinate at a time in deterministic cyclic sweeps.  At least 50
    full sweeps are run; after that the descent continues until a sweep
    no longer improves the value (up to 2000 sweeps, a cap that is never
    reached in practice).  The result upper-bounds E0 and for n <= 40
    lands within 1e-6 of it.
    """
    S = op.S
    n = op.n
    rng = np.random.default_rng(np.uint64(seed))
    best = None
    best_val = np.inf
    for _ in range(samples):
        v = rng.standard_normal(n)
        val = (v @ S @ v) / (v @ v)
        if val < best_val:
            best_val = val
            best = v
    v = best / np.linalg.norm(best)
    Sv = S @ v
    quad = v @ Sv
    norm2 = v @ v
    value = quad / norm2
    for sweep in range(_MAX_SWEEPS):
        previous = value
        for i in range(n):
            a = S[i, i]
            b = Sv[i] - a * v[i]
            c = quad - 2.0 * v[i] * Sv[i] + a * v[i] ** 2
            d = norm2 - v[i] ** 2
            # minimize (a x^2 + 2 b x + c) / (x^2 + d) over x
            if d <= 0.0:
                continue
            if b == 0.0:
                candidates = [0.0]
            else:
                p = c - a * d
                disc = math.sqrt(p * p + 4.0 * b * b * d)
                candidates = [(-p + disc) / (2.0 * b), (-p - disc) / (2.0 * b)]
            x_cur = v[i]
            r_cur = (a * x_cur ** 2 + 2 * b * x_cur + c) / (x_cur ** 2 + d)
            x_best, r_best = x_cur, r_cur
            for x in candidates:
                r = (a * x ** 2 + 2 * b * x + c) / (x ** 2 + d)
                if r < r_best:
                    x_best, r_best = x, r
            if x_best != x_cur:
                step = x_best - x_cur
                Sv = Sv + S[:, i] * step
                norm2 = norm2 + 2.0 * x_cur * step + step * step
                v[i] = x_best
                quad = v @ Sv
        scale = np.linalg.norm(v)
        v /= scale
        Sv /= scale
        quad /= scale * scale
        norm2 = 1.0
        value = quad
        if sweep + 1 >= _MIN_SWEEPS and not value < previous:
            break
    return float(value)


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Oracle-vs-production comparison, passed when abs_dev <= tolerance."""

    name: str
    oracle: float
    production: float
    abs_dev: float
    rel_dev: float
    tolerance: float
    passed: bool
    seed: int

    @classmethod
    def compare(cls, name: str, oracle: float, production: float,
                tolerance: float, seed: int) -> "OracleReport":
        abs_dev = abs(oracle - production)
        scale = max(abs(oracle), abs(production))
        rel_dev = abs_dev / scale if scale > 0 else 0.0
        return cls(name=name, oracle=float(oracle), production=float(production),
                   abs_dev=float(abs_dev), rel_dev=float(rel_dev),
                   tolerance=float(tolerance),
                   passed=bool(abs_dev <= tolerance),
                   seed=int(seed))

    def to_dict(self) -> dict:
        return asdict(self)
