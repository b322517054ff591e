"""Reference answers by routes independent of the code under test.

Dense matrices are built here from a graph's edge list without
heatlab.operators, and diagonalized with LAPACK routines other than the
one heatlab's spectral path uses (a tridiagonal solver for paths,
numpy's ``eigh`` otherwise).
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.optimize
from scipy.special import logsumexp


def dense_s(g: hl.WeightedGraph) -> np.ndarray:
    """Symmetrized operator D_m^{-1/2} (diag(deg + c) - B) D_m^{-1/2},
    built from the edge list without heatlab.operators."""
    i, j, w = (np.array(col) for col in zip(*g.edges))
    i, j = i.astype(int), j.astype(int)
    K = np.zeros((g.n, g.n))
    K[i, j] = -w
    K[j, i] = -w
    K[np.diag_indices(g.n)] = (np.bincount(i, w, g.n) + np.bincount(j, w, g.n)
                               + g.c)
    rs = np.sqrt(g.m)
    return K / np.outer(rs, rs)


class Reference:
    """Eigendata of S (minus an optional potential), from LAPACK routines
    other than the one heatlab's spectral path uses."""

    def __init__(self, g, potential=None, tridiagonal=False):
        S = dense_s(g)
        if potential is not None:
            S = S - np.diag(potential)
        if tridiagonal:
            w, U = scipy.linalg.eigh_tridiagonal(np.diag(S).copy(),
                                                 np.diag(S, 1).copy())
        else:
            w, U = np.linalg.eigh(S)
        self.S = S
        self.m = np.asarray(g.m)
        self.w = w
        self.phi = U / np.sqrt(self.m)[:, None]

    @property
    def E0(self) -> float:
        return float(self.w[0])

    def norm(self, u) -> float:
        return float(np.sqrt(np.sum(np.asarray(u) ** 2 * self.m)))

    def coeff(self, f) -> np.ndarray:
        return self.phi.T @ (self.m * f)

    def apply(self, t, f) -> np.ndarray:
        return self.phi @ (np.exp(-t * self.w) * self.coeff(f))

    def kernel(self, t) -> np.ndarray:
        return (self.phi * np.exp(-t * self.w)) @ self.phi.T

    def log_sum(self, times, weights) -> np.ndarray:
        logs, _ = logsumexp(-np.outer(times, self.w), b=weights, axis=1,
                            return_sign=True)
        return logs

    def ground_profile(self, t) -> np.ndarray:
        return np.sqrt((self.phi ** 2) @ np.exp(-t * (self.w - self.w[0])))

    def excited_residuals(self, times, f) -> np.ndarray:
        c = self.coeff(f)[1:]
        return np.array([np.sqrt(np.sum(c ** 2 * np.exp(
            -2.0 * t * (self.w[1:] - self.w[0])))) for t in times])


def close(got, want, rtol, atol=0.0) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


def near(got, want, rtol) -> bool:
    """Each vector (last axis) within rtol of the reference in norm."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(
        np.linalg.norm(got - want, axis=-1)
        <= rtol * np.linalg.norm(want, axis=-1)))


def star_ground_energy(lengths) -> float:
    """Lowest eigenvalue k^2 of -d^2/dx^2 on a star with Kirchhoff centre
    and Dirichlet leaves: the first root of sum_e cot(k l_e) = 0."""
    def secular(k):
        return float(np.sum(1.0 / np.tan(k * lengths)))
    hi = np.pi / np.max(lengths)
    k = scipy.optimize.brentq(secular, 1e-9 * hi, hi * (1 - 1e-12))
    return k * k


def trotter_product(g, V, t, steps, f) -> np.ndarray:
    """(e^{-(t/n) L} e^{(t/n) V})^n f with scipy's expm for the step."""
    h = t / steps
    rs = np.sqrt(g.m)
    step = scipy.linalg.expm(-h * dense_s(g))
    boost = np.exp(h * np.asarray(V))
    cur = np.asarray(f, dtype=float)
    for _ in range(steps):
        cur = (step @ (rs * boost * cur)) / rs
    return cur
