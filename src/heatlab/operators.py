"""Operator realization and dense spectral data.

The graph operator acts by

    (L f)(x) = (1/m(x)) ( sum_y b(x,y) (f(x) - f(y)) + c(x) f(x) ),

so with K = diag(deg + c) - B (B the weight matrix, deg its row sums) the
matrix representation is A = D_m^{-1} K.  A is selfadjoint on l^2(X, m) and
unitarily equivalent to the symmetric matrix

    S = D_m^{-1/2} K D_m^{-1/2},

which is what every numerical path works with.  Eigenvectors returned here
are m-orthonormal eigenvectors of A; for a connected graph the ground one
is strictly positive.

Dense eigendecomposition is limited to n <= 2000; larger operators must go
through the iterative semigroup paths.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.special import logsumexp

from .errors import EigensolverFailure, InvariantViolation, ZeroVector
from .graphs import WeightedGraph

__all__ = [
    "OperatorRep",
    "SpectralData",
    "SpectralAtoms",
    "SpectralMeasure",
    "assemble",
    "decay_factors",
    "kernel_sum",
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
SUPPORT_MASS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OperatorRep:
    """Matrix realization of the graph operator.

    ``A`` acts on functions, ``S`` is its symmetrization; ``lower_bound``
    is a certified constant with L >= lower_bound (0 whenever c >= 0,
    a Gershgorin bound for potential-shifted operators).
    """

    n: int
    A: np.ndarray
    S: np.ndarray
    m: np.ndarray
    lower_bound: float
    graph: WeightedGraph | None = None

    def inner(self, u, v) -> float:
        """m-weighted inner product <u, v>_m."""
        return float(np.sum(np.conj(u) * v * self.m))

    def norm(self, u) -> float:
        return float(np.sqrt(np.sum(np.abs(u) ** 2 * self.m)))

    @cached_property
    def s_norm1(self) -> float:
        """||S||_1, the largest absolute column sum of S; computed once."""
        return float(np.linalg.norm(self.S, 1))


def _gershgorin_lower(S: np.ndarray) -> float:
    radii = np.sum(np.abs(S), axis=1) - np.abs(np.diag(S))
    return float(np.min(np.diag(S) - radii))


def assemble(g: WeightedGraph) -> OperatorRep:
    """Assemble A and S for a validated graph.

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
    A = K / g.m[:, None]
    rs = np.sqrt(g.m)
    S = K / np.outer(rs, rs)
    return OperatorRep(n=g.n, A=A, S=S, m=g.m.copy(), lower_bound=0.0, graph=g)


def shift_by_potential(op: OperatorRep, V) -> OperatorRep:
    """Operator for L - V, i.e. c replaced by c - V m.

    V >= 0 makes the effective killing term sign-indefinite, so the
    certified lower bound falls back to Gershgorin on S - diag(V).
    """
    V = np.asarray(getattr(V, "values", V), dtype=float)
    if V.shape != (op.n,):
        raise ValueError(f"potential must have shape ({op.n},)")
    S = op.S - np.diag(V)
    return OperatorRep(n=op.n, A=op.A - np.diag(V), S=S, m=op.m,
                       lower_bound=_gershgorin_lower(S), graph=op.graph)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Full eigendata of an operator.

    ``eigenvalues`` ascending; ``vectors`` has m-orthonormal eigenvector
    columns, each signed so its first nonvanishing coordinate is positive.
    ``P`` projects onto the E0 eigenspace (m-selfadjoint, P @ P = P) and
    ``groups`` lists the index ranges of numerically equal eigenvalues.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    m: np.ndarray
    E0: float
    P: np.ndarray
    groups: tuple[tuple[int, int], ...]

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


_spectral_cache: "weakref.WeakKeyDictionary[OperatorRep, SpectralData]" = (
    weakref.WeakKeyDictionary()
)


def eigendecompose(op: OperatorRep) -> SpectralData:
    """Dense eigendecomposition of S, mapped back to m-orthonormal vectors.

    Results are cached per operator (operators are immutable).

    Raises
    ------
    ValueError
        If n exceeds the dense limit of 2000.
    EigensolverFailure
        If the LAPACK solver does not converge.
    """
    cached = _spectral_cache.get(op)
    if cached is not None:
        return cached
    if op.n > DENSE_LIMIT:
        raise ValueError(
            f"n = {op.n} exceeds the dense eigensolver limit {DENSE_LIMIT}; "
            "use the iterative semigroup paths instead"
        )
    try:
        w, U = scipy.linalg.eigh(op.S)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise EigensolverFailure(str(exc)) from exc
    phi = U / np.sqrt(op.m)[:, None]
    # sign convention: first coordinate of nonnegligible size made positive
    mag = np.abs(phi)
    sizable = mag > 1e-12 * np.max(mag, axis=0)
    lead = phi[np.argmax(sizable, axis=0), np.arange(phi.shape[1])]
    flip = sizable.any(axis=0) & (lead < 0)
    phi[:, flip] = -phi[:, flip]
    groups = _group_eigenvalues(w)
    g0, g1 = groups[0]
    ground = phi[:, g0:g1]
    P = ground @ (ground.T * op.m)
    sd = SpectralData(eigenvalues=w, vectors=phi, m=op.m, E0=float(w[0]),
                      P=P, groups=groups)
    _spectral_cache[op] = sd
    return sd


def coefficients(sd: SpectralData, f) -> np.ndarray:
    """Expansion coefficients <phi_i, f>_m of f in the eigenbasis."""
    f = np.asarray(f, dtype=float)
    return sd.vectors.T @ (sd.m * f)


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
        a = -np.outer(times, self.energies)
        return logsumexp(a, b=self.weights[None, :], axis=1, return_sign=True)


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Finite atomic measure rho_f with <f, e^{-tL} f> = sum_i w_i e^{-t E_i}.

    ``atoms`` are (E_i, w_i) pairs over eigenvalue groups, w_i >= 0 summing
    to ||f||_m^2; ``inf_support`` ignores atoms of relative mass below
    1e-12.
    """

    atoms: tuple[tuple[float, float], ...]
    total_mass: float
    inf_support: float


def spectral_measure(sd: SpectralData, f) -> SpectralMeasure:
    """Spectral measure of f with respect to the operator.

    Raises
    ------
    ZeroVector
        If f vanishes identically.
    """
    f = np.asarray(f, dtype=float)
    total = float(np.sum(f * f * sd.m))
    if total == 0.0:
        raise ZeroVector("the zero vector has no spectral measure")
    atoms = SpectralAtoms.grouped(sd, coefficients(sd, f) ** 2)
    supported = atoms.supported(SUPPORT_MASS_TOL * total).energies
    inf_support = np.min(supported) if supported.size else np.inf
    return SpectralMeasure(
        atoms=tuple(zip(atoms.energies.tolist(), atoms.weights.tolist())),
        total_mass=total, inf_support=float(inf_support))
