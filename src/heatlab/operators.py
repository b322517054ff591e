"""Operator realization and dense spectral data.

The graph operator acts by

    (L f)(x) = (1/m(x)) ( sum_y b(x,y) (f(x) - f(y)) + c(x) f(x) ),

so with K = diag(deg + c) - B (B the weight matrix, deg its row sums) L
acts as D_m^{-1} K, selfadjoint on l^2(X, m) and unitarily equivalent to

    S = D_m^{-1/2} K D_m^{-1/2},

the one matrix an operator stores and every numerical path works with.
Eigenvectors returned here are m-orthonormal eigenvectors of L; for a
connected graph the ground one is strictly positive.  Eigendata are kept
on the operator and die with it.

Dense eigendecomposition is limited to n <= 2000; larger operators must go
through the iterative semigroup paths.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (EigensolverFailure, InvariantViolation, ValidationError,
                     ZeroVector)
from .graphs import WeightedGraph

__all__ = [
    "OperatorRep",
    "SpectralData",
    "SpectralAtoms",
    "SpectralMeasure",
    "assemble",
    "checked_datum",
    "checked_potential",
    "decay_factors",
    "kernel_sum",
    "log_sum_exp",
    "shift_by_potential",
    "eigendecompose",
    "coefficients",
    "spectral_measure",
    "DENSE_LIMIT",
    "GROUPING_TOL",
    "SUPPORT_MASS_TOL",
]

DENSE_LIMIT = 2000
# eigenvalues within 1e-9 * (1 + |E|) of each other count as one atom
GROUPING_TOL = 1e-9
# relative mass below which an atom does not count as spectral support
SUPPORT_MASS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OperatorRep:
    """Matrix realization of the graph operator.

    ``S`` is the symmetrization D_m^{1/2} L D_m^{-1/2} and ``m`` the
    vertex measure; ``lower_bound`` is a certified constant with
    L >= lower_bound (0 whenever c >= 0, a Gershgorin bound for
    potential-shifted operators).
    """

    S: np.ndarray
    m: np.ndarray
    lower_bound: float
    graph: WeightedGraph | None = None

    @property
    def n(self) -> int:
        """Number of vertices, the order of S."""
        return self.S.shape[0]

    def inner(self, u, v) -> float:
        """m-weighted inner product <u, v>_m."""
        return float(np.sum(np.conj(u) * v * self.m))

    def norm(self, u) -> float:
        """||u||_m, finite and nonzero whenever its value is in range."""
        return _m_norm(u, self.m)

    @cached_property
    def s_norm1(self) -> float:
        """||S||_1, the largest absolute column sum of S; computed once."""
        return float(np.linalg.norm(self.S, 1))

    @cached_property
    def _eigendata(self) -> SpectralData:
        # read through eigendecompose, which documents it
        if self.n > DENSE_LIMIT:
            raise ValueError(
                f"n = {self.n} exceeds the dense eigensolver limit "
                f"{DENSE_LIMIT}; use the iterative semigroup paths instead"
            )
        try:
            w, U = np.linalg.eigh(self.S)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
            raise EigensolverFailure(str(exc)) from exc
        phi = U / np.sqrt(self.m)[:, None]
        # sign convention: first coordinate of nonnegligible size made positive
        mag = np.abs(phi)
        sizable = mag > 1e-12 * np.max(mag, axis=0)
        lead = phi[np.argmax(sizable, axis=0), np.arange(phi.shape[1])]
        flip = sizable.any(axis=0) & (lead < 0)
        phi[:, flip] = -phi[:, flip]
        return SpectralData(eigenvalues=w, vectors=phi, m=self.m,
                            E0=float(w[0]), groups=_group_eigenvalues(w))


def _m_norm(u, m) -> float:
    # the one m-norm; math.hypot scales, so no square over- or underflows
    return math.hypot(*(np.sqrt(m) * np.abs(u)).tolist())


def _gershgorin_lower(S: np.ndarray) -> float:
    radii = np.sum(np.abs(S), axis=1) - np.abs(np.diag(S))
    return float(np.min(np.diag(S) - radii))


def assemble(g: WeightedGraph) -> OperatorRep:
    """Assemble S for a validated graph.

    The row sums frozen at validation are reused; a mismatch with the
    recomputed ones would mean the graph was mutated and raises.
    """
    deg = g.recompute_row_sums()
    if not np.array_equal(deg, g.row_sums):
        raise InvariantViolation("stored row sums disagree with edge list")
    K = np.diag(deg + g.c)
    for i, j, w in g.edges:
        K[i, j] = -w
        K[j, i] = -w
    rs = np.sqrt(g.m)
    S = K / np.outer(rs, rs)
    return OperatorRep(S=S, m=g.m.copy(), lower_bound=0.0, graph=g)


def checked_datum(f, n: int, name: str) -> np.ndarray:
    """The vertex function ``f`` (called ``name`` in messages) as floats.

    The one home of the datum rule: shape (n,), else ValueError naming
    the shape, and every entry finite, else ValidationError counting the
    entries that are not.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise ValueError(f"datum {name} must have shape ({n},), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValidationError(
            f"datum {name} is not finite ({np.count_nonzero(~np.isfinite(f))}"
            f" of its {n} entries are inf or nan)")
    return f


def checked_potential(V, n: int) -> np.ndarray:
    """A potential (an array or anything with ``values``) as floats.

    The one home of the potential rule: shape (n,), else ValueError, and
    every entry finite, else ValidationError.  The sign is free here;
    :class:`~heatlab.perturbation.Potential` adds V >= 0.
    """
    V = np.asarray(getattr(V, "values", V), dtype=float)
    if V.shape != (n,):
        raise ValueError(f"potential must have shape ({n},)")
    if not np.all(np.isfinite(V)):
        raise ValidationError(
            f"potential V is not finite ({np.count_nonzero(~np.isfinite(V))}"
            f" of its {n} entries are inf or nan)")
    return V


# shifted operators of the most recently shifted base operator, by the
# bytes of the potential; the entry dies with its base operator
_shift_cache: "weakref.WeakKeyDictionary[OperatorRep, dict]" = (
    weakref.WeakKeyDictionary()
)


def shift_by_potential(op: OperatorRep, V) -> OperatorRep:
    """Operator for L - V, i.e. c replaced by c - V m.

    V >= 0 makes the effective killing term sign-indefinite, so the
    certified lower bound falls back to Gershgorin on S - diag(V).  An
    all-zero V returns ``op`` itself, whose eigendata are then shared.

    The shifts of the latest base operator are kept: for an equal
    potential (bit for bit) on the same ``op`` the same read-only
    operator comes back, so :func:`eigendecompose` decomposes each
    L - V once across calls.  They are released when another base
    operator is shifted or ``op`` dies, so the memory held is at most
    one base operator's levels (their S, and the eigendata kept on them).
    V is read by :func:`checked_potential`.
    """
    V = checked_potential(V, op.n)
    if not V.any():
        return op
    if op not in _shift_cache:
        _shift_cache.clear()
    shifts = _shift_cache.setdefault(op, {})
    key = V.tobytes()
    shifted = shifts.get(key)
    if shifted is None:
        S = op.S - np.diag(V)
        S.setflags(write=False)
        shifted = OperatorRep(S=S, m=op.m, lower_bound=_gershgorin_lower(S),
                              graph=op.graph)
        shifts[key] = shifted
    return shifted


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Full eigendata of an operator.

    ``eigenvalues`` ascending; ``vectors`` has m-orthonormal eigenvector
    columns, each signed so its first nonvanishing coordinate is positive.
    ``groups`` lists the index ranges of numerically equal eigenvalues.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    m: np.ndarray
    E0: float
    groups: tuple[tuple[int, int], ...]

    @cached_property
    def P(self) -> np.ndarray:
        """Projection onto the E0 eigenspace (m-selfadjoint, P @ P = P);
        formed on first read."""
        g0, g1 = self.groups[0]
        ground = self.vectors[:, g0:g1]
        return ground @ (ground.T * self.m)

    @property
    def gap(self) -> float:
        """E1 - E0 across the ground eigenvalue group."""
        _, stop = self.groups[0]
        if stop >= len(self.eigenvalues):
            return 0.0
        return float(self.eigenvalues[stop] - self.E0)


def decay_factors(eigenvalues, t: float, shift: float = 0.0) -> np.ndarray:
    """Decay factors e^{-t (E_i - shift)} of the spectral atoms.

    Factors below the normal floating range (``np.finfo(float).tiny``)
    are set to exactly 0: each adds at most |phi_i(x) phi_i(y)| 2^-1022
    to a kernel entry, and arithmetic on subnormal operands is slow.  For
    ascending eigenvalues and t > 0 the nonzero factors form a prefix.
    """
    decay = np.exp(-t * (np.asarray(eigenvalues, dtype=float) - shift))
    decay[decay < np.finfo(float).tiny] = 0.0
    return decay


def kernel_sum(sd: SpectralData, t: float, shift: float = 0.0) -> np.ndarray:
    """sum_i phi_i phi_i^T e^{-t (E_i - shift)} as an n x n matrix.

    Only the atoms with a nonzero :func:`decay_factors` factor enter, so
    the product is rank k with k the length of that prefix; the dropped
    atoms change no entry by more than n max|phi|^2 2^-1022.  With
    shift 0 this is the heat kernel p_t.
    """
    decay = decay_factors(sd.eigenvalues, t, shift)
    k = int(np.count_nonzero(decay))
    live = sd.vectors[:, :k]
    return (live * decay[:k]) @ live.T


def _group_eigenvalues(w: np.ndarray) -> tuple[tuple[int, int], ...]:
    # a group ends wherever the next eigenvalue is more than the tolerance up
    cuts = np.flatnonzero(np.diff(w) > GROUPING_TOL * (1.0 + np.abs(w[1:])))
    bounds = [0, *(int(k) + 1 for k in cuts), len(w)]
    return tuple(zip(bounds[:-1], bounds[1:]))


def eigendecompose(op: OperatorRep) -> SpectralData:
    """Dense eigendecomposition of S, mapped back to m-orthonormal vectors.

    The result is kept on the operator (operators are immutable): a
    second call returns the same object, and it dies with the operator.
    :func:`shift_by_potential` keeps the shifts of the latest base
    operator, so each of its L - V is decomposed once.

    Raises
    ------
    ValueError
        If n exceeds the dense limit of 2000.
    EigensolverFailure
        If the LAPACK solver does not converge.
    """
    return op._eigendata


def coefficients(sd: SpectralData, f) -> np.ndarray:
    """Expansion coefficients <phi_i, f>_m of f in the eigenbasis."""
    f = np.asarray(f, dtype=float)
    return sd.vectors.T @ (sd.m * f)


def log_sum_exp(a, b) -> tuple[np.ndarray, np.ndarray]:
    """log |sum_j b_j e^{a_j}| and its sign, summed over the last axis.

    The package's one log-domain sum.  It takes the steps of
    ``scipy.special.logsumexp(a, b=b, axis=-1, return_sign=True)`` in
    scipy 1.17, so the two agree bit for bit: terms of zero weight are
    dropped whatever their a, the terms at the largest a are taken out of
    the sum, and the rest enter through log1p.  Where that leaves no
    finite value (all weights zero, or a sum that cancels exactly) the
    direct log |sum_j b_j e^{a_j}| is returned, with sign 0 for a zero
    sum.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.sum(b * np.exp(a), axis=-1)
        a = np.where(b == 0, -np.inf, a)
        a_max = np.max(a, axis=-1, keepdims=True)
        top = a == a_max
        m = np.sum(b * top, axis=-1, keepdims=True)
        rest = np.sum(b * np.exp(np.where(top, -np.inf, a) - a_max),
                      axis=-1, keepdims=True)
        rest = np.where(rest == 0, rest, rest / m)
        sign = np.sign(rest + 1) * np.sign(m)
        rest = np.where(rest < -1, -rest - 2, rest)
        logs = (np.log1p(rest) + np.log(np.abs(m)) + a_max)[..., 0]
        finite = np.isfinite(logs)
        return (np.where(finite, logs, np.log(np.abs(direct))),
                np.where(finite, sign[..., 0], np.sign(direct)))


@dataclass(frozen=True, eq=False)
class SpectralAtoms:
    """Atoms (E_i, w_i) of a spectral sum t -> sum_i w_i e^{-t E_i}.

    One atom per eigenvalue group: ``energies`` ascending, ``weights``
    real and possibly signed.  Pairings <f, e^{-tL} g>_m and kernel
    entries p_t(x, y) are both sums of this form; :meth:`log_pairing`
    evaluates them in the log domain, so large times never underflow.
    """

    energies: np.ndarray
    weights: np.ndarray

    @classmethod
    def grouped(cls, sd: SpectralData, products) -> "SpectralAtoms":
        """Merge per-eigenvector ``products`` over the eigenvalue groups.

        An atom's energy is the mean eigenvalue of its group and its
        weight the sum of the group's products.
        """
        energies = np.array([np.mean(sd.eigenvalues[a:b])
                             for a, b in sd.groups])
        weights = np.array([np.sum(products[a:b]) for a, b in sd.groups])
        return cls(energies, weights)

    @classmethod
    def pairing(cls, sd: SpectralData, f, g) -> "SpectralAtoms":
        """Atoms of t -> <f, e^{-tL} g>_m, w_i = <phi_i, f>_m <phi_i, g>_m."""
        return cls.grouped(sd, coefficients(sd, f) * coefficients(sd, g))

    def __getitem__(self, keep) -> "SpectralAtoms":
        return SpectralAtoms(self.energies[keep], self.weights[keep])

    def supported(self, threshold: float) -> "SpectralAtoms":
        """The atoms with |w_i| strictly above ``threshold``."""
        return self[np.abs(self.weights) > threshold]

    def log_pairing(self, times) -> tuple[np.ndarray, np.ndarray]:
        """log |sum_i w_i e^{-t E_i}| and its sign, per time."""
        return log_sum_exp(-np.outer(times, self.energies), self.weights)


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Finite atomic measure rho_f with <f, e^{-tL} f> = sum_i w_i e^{-t E_i}.

    ``atoms`` are (E_i, w_i) pairs over eigenvalue groups, w_i >= 0 summing
    to ``total_mass`` = ||f||_m^2 (inf where that square overflows);
    ``inf_support`` ignores atoms of relative mass below 1e-12, so it does
    not depend on the scale of f.
    """

    atoms: tuple[tuple[float, float], ...]
    total_mass: float
    inf_support: float


def spectral_measure(sd: SpectralData, f) -> SpectralMeasure:
    """Spectral measure of f with respect to the operator.

    Raises
    ------
    ValueError, ValidationError
        If f is not a finite vertex function (:func:`checked_datum`).
    ZeroVector
        If f has no nonzero entry.
    """
    f = checked_datum(f, sd.m.size, "f")
    if not f.any():
        raise ZeroVector("the zero vector has no spectral measure")
    norm = _m_norm(f, sd.m)
    unit = SpectralAtoms.grouped(sd, coefficients(sd, f / norm) ** 2)
    supported = unit.supported(SUPPORT_MASS_TOL).energies
    inf_support = np.min(supported) if supported.size else np.inf
    with np.errstate(over="ignore"):  # inf masses for f beyond ~1e154
        atoms = SpectralAtoms.grouped(sd, coefficients(sd, f) ** 2)
    return SpectralMeasure(
        atoms=tuple(zip(atoms.energies.tolist(), atoms.weights.tolist())),
        total_mass=norm * norm, inf_support=float(inf_support))
