"""Brute-force reference computations, deliberately naive.

Everything here exists to cross-check the production paths, and shares
no algorithm with them:

* :func:`contour_expm` integrates e^z times the resolvent of -tS along a
  parabola around the negative real axis.  It takes complex linear
  solves only: no power series (scaling-squaring sums one), no
  eigenvector (the spectral default reads them) and no Lanczos step
  (the Krylov route takes them).
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

from .semigroup import check_count, check_time

__all__ = ["contour_expm", "rayleigh_min", "OracleReport"]

# quadrature nodes on the parabola; the error falls like 2.85^{-N}
_NODES = 32
# rayleigh_min runs at least _MIN_SWEEPS and at most _MAX_SWEEPS sweeps
_MIN_SWEEPS, _MAX_SWEEPS = 50, 2000


def contour_expm(S: np.ndarray, t: float) -> np.ndarray:
    """e^{-tS} of a symmetric S by a contour integral of the resolvent.

    e^{-tS} = e^{-t sigma} (1/2 pi i) int e^z (z + t(S - sigma))^{-1} dz
    along the parabola z(u) = N(0.1309 - 0.1194 u^2 + 0.25 i u),
    -pi < u < pi, by the midpoint rule with N = 32 nodes (Trefethen,
    Weideman & Schmelzer, BIT 46, 2006); conjugate symmetry halves them
    to 16 complex solves.  The value is the same for every shift sigma;
    sigma = E0 from ``eigvalsh`` only keeps the quadrature error, about
    1e-14, relative to e^{-tE0}.  ``t`` follows the time rule, t >= 0.
    """
    check_time(t, positive=False)
    S = np.asarray(S, dtype=float)
    sigma = float(np.linalg.eigvalsh(S)[0])
    eye = np.eye(S.shape[0])
    u = np.pi * np.arange(1, _NODES, 2) / _NODES
    z = _NODES * (0.1309 - 0.1194 * u ** 2 + 0.25j * u)
    dz = _NODES * (-0.2388 * u + 0.25j)
    R = np.linalg.solve(z[:, None, None] * eye + t * (S - sigma * eye), eye)
    # the pair at -u adds the conjugate: 2 Re(h/2 pi i ...) = (2/N) Im(...)
    F = np.tensordot(np.exp(z) * dz, R, axes=1).imag * (2.0 / _NODES)
    return math.exp(-t * sigma) * F


def rayleigh_min(op, samples: int = 200, seed: int = 0) -> float:
    """Variational upper bound on E0 = inf spec(L).

    Draws ``samples`` random vectors, keeps the one with the smallest
    Rayleigh quotient v^T S v / v^T v, then minimizes the quotient one
    coordinate at a time in deterministic cyclic sweeps.  At least 50
    full sweeps are run; after that the descent continues until a sweep
    no longer improves the value (up to 2000 sweeps, a cap that is never
    reached in practice).  The result upper-bounds E0 and for n <= 40
    lands within 1e-6 of it.  ``samples`` is an integer >= 1, else
    ValidationError.
    """
    check_count(samples, "samples", 1)
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
