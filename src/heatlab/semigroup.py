"""Heat semigroup evaluation: e^{-tL} f, heat kernels, resolvents, Trotter.

Three interchangeable evaluators are provided and must agree within
1e-9 * ||f||_m on moderate problems (n <= 200):

``spectral``
    Dense eigendecomposition of S; the reference path and the default.
``scaling-squaring``
    13th-order diagonal rational approximant of the matrix exponential,
    input scaled so the scaled 1-norm is below 5.37, then repeatedly
    squared.  From n = 256 on, the approximant's numerator and denominator
    are built from S in CSR format, in sparse products while they stay
    below a tenth fill (long-diameter graphs); the solve and the
    squarings are dense, and before each squaring of sparse-built factors
    the entries below sqrt(tiny) max|F| are set to 0, which keeps the
    squarings out of subnormal arithmetic.
    e^{-S} is kept per operator once computed.  :func:`apply` at a whole
    time j >= 2 on an operator that holds it returns (e^{-S})^j v: a copy
    of e^{-S} is squared, floored the same way, only while j exceeds
    2^k matrix-vector products (k <= log2(n) - 1), with no Padé factors
    and no solve.  At other times, and before e^{-S} is held, it either
    stops squaring while 2^k factors remain and applies them to the
    vector, or, when 2^s <= n and the factors stayed sparse, applies all
    2^s factors to the vector through one sparse LU.
    :func:`heat_kernel` at t != 1 always runs its own Padé chain.
``krylov``
    Shift-and-invert Lanczos (van den Eshof and Hochbruck, SIAM J. Sci.
    Comput. 27, 2006): one pass of at most 60 steps on solves with
    I + (t/10)(S - lower_bound), factored once, until steps k and k - 2
    agree to 1e-13 of the answer.

All of them go through the symmetrization S; kernels come out symmetric
up to rounding and are never symmetrized by hand.  :func:`apply` and
:func:`heat_kernel` raise NumericsError, naming t, for every method once
100 eps t ||S||_1 >= 1, where rounding S alone leaves the result without
a correct digit, and when the result overflows; overflow inside an
evaluation prints no RuntimeWarning.
"""
from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    KrylovBreakdown,
    NegativeTime,
    NonPositiveTime,
    NumericsError,
    SingularShift,
    ValidationError,
)
from .operators import OperatorRep, decay_factors, eigendecompose, kernel_sum

__all__ = [
    "SemigroupMethod",
    "HeatKernel",
    "apply",
    "heat_kernel",
    "kernel_column",
    "kernel_symmetry_defect",
    "chapman_kolmogorov_defect",
    "resolvent",
    "trotter",
    "pade13_expm",
]

# largest scaled 1-norm for which the degree-13 approximant is accurate
_THETA13 = 5.371920351148152

# normalized to b_0 = 1 so that e^0 = I exactly, whether the BLAS triangular
# solve divides by each pivot or multiplies by its rounded reciprocal
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
])
_PADE13 = _PADE13 / _PADE13[0]
# a Padé power or factor that stores more than this share of its n^2
# entries is converted to dense.  Factor builds timed on 27 banded
# weighted Laplacians (n = 300-700, factors 4-100 % full; scipy 1.17,
# 2 vCPU) summed to 530-535 ms at 0.075-0.125, 578 ms at 0.05 and 645 ms
# at 0.25 (worst graph 97 ms against 42 ms at 0.1).  Short-diameter
# graphs, whose powers fill within a few products (random graphs by M^4),
# fall back to BLAS-3; the factors of long paths and discretized metric
# graphs stay a few percent full
_DENSE_FILL = 0.1
# entries below this share of max |F| are set to 0 before each squaring of
# sparse-built factors.  Squaring e^{-tS / 2^s} of a long path or a
# discretized metric graph otherwise runs in subnormal arithmetic: on a
# weighted path with n = 700 a fifth of its entries lie in 1e-324..1e-154,
# and a squaring took 46 ms against 8.7 ms with them zeroed (2 vCPU).  The
# cut is sqrt(tiny), not tiny: products of two entries below sqrt(tiny)
# underflow inside the product too, and zeroing only the subnormal entries
# left 33 ms.  It sits some 140 orders below the normwise accuracy of
# scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_SQUARING_FLOOR = math.sqrt(np.finfo(float).tiny)
# 100 eps t ||S||_1 >= 1 leaves no evaluator a correct digit
# (_check_resolution)
_ROUNDING = 100 * np.finfo(float).eps
# below this order S reaches the Padé evaluation dense: the ~30
# scipy.sparse calls of a sparse evaluation cost 0.6-2.5 ms whatever the
# size, and a dense evaluation on a weighted path breaks even with the
# sparse one near n = 192 with one BLAS thread, later with two
_SPARSE_MIN_N = 256
# step cap and tolerance of the shift-and-invert Lanczos pass; the
# benchmark graphs took <= 35 steps, random graphs (n <= 300) <= 40
_KRYLOV_DIM = 60
_KRYLOV_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class SemigroupMethod:
    """Evaluation strategy for e^{-tL}."""

    tag: str = "spectral"

    def __post_init__(self):
        if self.tag not in ("spectral", "scaling-squaring", "krylov"):
            raise ValueError(f"unknown method tag {self.tag!r}")


SPECTRAL = SemigroupMethod("spectral")
SCALING_SQUARING = SemigroupMethod("scaling-squaring")
KRYLOV = SemigroupMethod("krylov")


def _fit(P):
    """P, as an ndarray once it stores more than ``_DENSE_FILL`` of its
    entries."""
    if not isinstance(P, np.ndarray) and P.nnz > _DENSE_FILL * P.shape[0] ** 2:
        return P.toarray()
    return P


def _pade13_factors(M):
    """(V + U, V - U): numerator and denominator of the degree-13 diagonal
    Padé approximant of e^M, evaluated in M's own format.

    An ndarray M gives ndarrays.  A scipy.sparse M keeps its powers and
    factors sparse until one of them stores more than a tenth of its
    entries (``_DENSE_FILL``); from that power on the evaluation is dense.
    """
    b = _PADE13
    n = M.shape[0]
    if isinstance(M, np.ndarray):
        ident = np.eye(n)
    else:
        from scipy.sparse import eye_array
        ident = eye_array(n, format="csr")
    M2 = _fit(M @ M)
    M4 = _fit(M2 @ M2)
    M6 = _fit(M2 @ M4)
    U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * ident)
    V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * ident)
    return _fit(V + U), _fit(V - U)


def _dense(P) -> np.ndarray:
    return P if isinstance(P, np.ndarray) else P.toarray()


def _solved(P, Q, squarings: int) -> np.ndarray:
    """Q^{-1} P, dense, squared ``squarings`` times.

    When both factors are sparse, entries below ``_SQUARING_FLOOR`` times
    the largest are set to 0 before each squaring; factors that filled,
    and those of dense input, are squared as they are.
    """
    floor = not isinstance(P, np.ndarray) and not isinstance(Q, np.ndarray)
    F = np.linalg.solve(_dense(Q), _dense(P))
    for _ in range(squarings):
        if floor:
            _floor(F)
        F = F @ F
    return F


def _floor(F: np.ndarray) -> None:
    """Set the entries of F below ``_SQUARING_FLOOR`` max|F| to 0, in place.

    ``np.putmask`` writes the same zeros as boolean indexing without
    collecting their indices first.  An infinite max|F| zeroes every
    finite entry and keeps the infinite ones, so an overflow stays visible.
    """
    size = np.abs(F)
    np.putmask(F, size < _SQUARING_FLOOR * size.max(), 0.0)


def pade13_expm(M) -> tuple[np.ndarray, int]:
    """Matrix exponential e^M by scaling and squaring.

    Returns the exponential, always a dense ndarray, together with the
    squaring count.  Works for general square matrices, given as an
    ndarray or in a scipy.sparse format; the degree-13 diagonal
    approximant is used unconditionally, with the input scaled down until
    its 1-norm is at most 5.37.  A sparse M has its Padé factors built in
    sparse products while they stay sparse (see :func:`_pade13_factors`);
    the solve and the squarings are dense.  When the factors stayed
    sparse, entries of F below sqrt(tiny) max|F| (about 1.5e-154 max|F|)
    are set to 0 before each squaring.  The far entries of a long path's
    e^M lie there, and squaring them ran in subnormal arithmetic, about
    five times slower; products of two entries above the cut stay normal
    while max|F| is near 1.  The entries dropped sit far below the
    normwise accuracy of scaling and squaring.  Dense M, and factors that
    filled, are squared as they are, bit-for-bit as before.  The zero
    matrix maps to the identity exactly, with 0 squarings.
    """
    sparse = False
    if not isinstance(M, np.ndarray):
        # only non-ndarray input pays the scipy.sparse import
        from scipy.sparse import issparse
        sparse = issparse(M)
    if sparse:
        from scipy.sparse import csr_array
        from scipy.sparse.linalg import norm as sparse_norm
        M = csr_array(M, dtype=float)
        norm = sparse_norm(M, 1)
    else:
        M = np.asarray(M, dtype=float)
        norm = np.linalg.norm(M, 1)
    squarings = 0
    if norm > _THETA13:
        squarings = int(math.ceil(math.log2(norm / _THETA13)))
        M = M / (2.0 ** squarings)
    return _solved(*_pade13_factors(M), squarings), squarings


_unit_time_cache: "weakref.WeakKeyDictionary[OperatorRep, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)


def _check_resolution(norm: float, where: str) -> None:
    """Raise NumericsError once rounding S leaves e^{-tS} no correct digit.

    A rounding-size relative change of S moves e^{-tS} by up to about
    100 eps t ||S||_1 relative to its size; that is the error term of the
    accuracy bound every evaluator is held to.  From 1 on no evaluator can
    return a correct digit: on the unit 3-path at t = 1e15 the three
    methods gave 0.02, 0.24 and 0.30 for 1/3.  ``norm`` is t ||S||_1.
    """
    if _ROUNDING * norm >= 1:
        raise NumericsError(
            f"{where}: 100 eps t ||S||_1 = {_ROUNDING * norm:.3g} >= 1, so "
            f"rounding S alone leaves e^(-tS) without a correct digit")


def _squarings(op: OperatorRep, t: float):
    """s, the squaring count of e^{-tS}.

    Raises NumericsError when 100 eps t ||S||_1 >= 1 (see
    :func:`_check_resolution`), in particular when t ||S||_1 overflows,
    which no scaling can bring into the approximant's range (s = inf).
    """
    norm = t * op.s_norm1
    s = 0
    if norm > _THETA13:
        s = (math.ceil(math.log2(norm / _THETA13)) if math.isfinite(norm)
             else math.inf)
    _check_resolution(norm,
                      f"scaling-squaring at t = {t} with s = {s} squarings")
    return s


def _scaling(op: OperatorRep, t: float):
    """(s, S): the squaring count of e^{-tS} (checked by
    :func:`_squarings`), and S in the format its Padé factors are built in,
    CSR from order ``_SPARSE_MIN_N`` on."""
    s = _squarings(op, t)
    if op.n < _SPARSE_MIN_N:
        return s, op.S
    from scipy.sparse import csr_array
    return s, csr_array(op.S)


def _finite(x: np.ndarray, t: float, method: SemigroupMethod) -> np.ndarray:
    """x, checked to hold no overflow of the evaluation at time t."""
    if not np.all(np.isfinite(x)):
        raise NumericsError(
            f"{method.tag} at t = {t}: e^(-tL) overflows the floating-point "
            f"range (the result is not finite)")
    return x


def _exponential(op: OperatorRep, t: float) -> np.ndarray:
    """e^{-tS} by :func:`pade13_expm`; read-only and kept per operator at t = 1.

    Only t = 1 recurs inside the library (kernel functions, the
    factorization identity, positivity), so one n x n matrix per live
    operator is stored; every other time is computed afresh.  The
    scaling-squaring :func:`apply` at whole times also powers the stored
    matrix (:func:`_held_power_apply`); whole-time kernels do not.
    """
    E = _unit_time_cache.get(op) if t == 1.0 else None
    if E is None:
        _, S = _scaling(op, t)
        E, _ = pade13_expm(S * -t)
        if t == 1.0:
            E.setflags(write=False)
            _unit_time_cache[op] = E
    return E


def _vector_squarings(n: int) -> int:
    """max(floor(log2 n) - 1, 0): the most squarings that a scaling-squaring
    apply on order n leaves to the vector, as 2^k matrix-vector products
    (see :func:`_powered_apply`)."""
    return max(n.bit_length() - 2, 0)


def _held_power_apply(op: OperatorRep, t: float, v: np.ndarray
                      ) -> np.ndarray:
    """e^{-tS} v = E^j v for a whole time j = t >= 2, with E = e^{-S} the
    matrix kept for ``op`` at t = 1.

    While j exceeds the 2^k matrix-vector products that
    :func:`_powered_apply` allows (k = :func:`_vector_squarings`), j is
    halved, the bit it drops goes to the vector, and a copy of E is
    squared, its entries below ``_SQUARING_FLOOR`` max|F| set to 0 first as
    in :func:`_solved`; the remaining power goes to the vector.  No Padé
    factors and no solve: at most ceil(log2(j / 2^k)) squarings, against
    s - k for a fresh chain.  Raises the fresh route's NumericsError,
    naming t and s, before any work.
    """
    _squarings(op, t)
    E = _unit_time_cache[op]
    j, budget = int(t), 2 ** _vector_squarings(op.n)
    F = E
    while j > budget:
        if j & 1:
            v = F @ v
        if F is E:  # the held matrix is read-only
            F = E.copy()
        _floor(F)
        F = F @ F
        j >>= 1
    for _ in range(j):
        v = F @ v
    return v


def _powered_apply(op: OperatorRep, t: float, v: np.ndarray) -> np.ndarray:
    """e^{-tS} v by the Padé approximant F of e^{-tS / 2^s} that
    ``pade13_expm(-tS)`` squares s times, applied to v by one of two
    routes.

    Vector route, when S is handed over in CSR format, 2^s <= n and the
    Padé factors V + U and V - U of -tS / 2^s stay sparse: V - U is
    factored once by a sparse LU, and 2^s steps v <- lu.solve((V + U) v)
    apply F^(2^s) without forming an n x n matrix.  Timed against the
    dense route on weighted paths (n = 300-1200, 2 vCPU) it was 1.1-10x
    faster at every s with 2^s <= n, and still faster up to 2^s = 6n from
    n = 400 on.

    Dense route, otherwise: F is the matrix ``pade13_expm(-tS)`` holds
    with k of its s squarings still to do, and the last 2^k factors go to
    the vector.  Leaving the k-th squaring to the vector saves 2n^3 flops
    and costs 2^(k-1) more matrix-vector products of 2n^2 flops each.
    Those are memory-bound and run at a few times lower flop rate, so
    they count four-fold, and the trade pays while 2^(k+1) <= n, i.e. for
    k <= floor(log2 n) - 1.  Scaling S by -t / 2^k is exact, so F is
    bit-for-bit that intermediate matrix.  Factors built for the vector
    route that filled (short-diameter graphs) are finished here rather
    than built again.
    """
    s, S = _scaling(op, t)
    k = min(s, _vector_squarings(op.n))
    if isinstance(S, np.ndarray) or 2 ** s > op.n:
        F, _ = pade13_expm(S * (-t / 2.0 ** k))
    else:
        P, Q = _pade13_factors(S * (-t / 2.0 ** s))
        if not isinstance(P, np.ndarray) and not isinstance(Q, np.ndarray):
            from scipy.sparse.linalg import splu
            lu = splu(Q.tocsc())
            for _ in range(2 ** s):
                v = lu.solve(P @ v)
            return v
        F = _solved(P, Q, s - k)
    for _ in range(2 ** k):
        v = F @ v
    return v


def _krylov_apply(op: OperatorRep, t: float, v: np.ndarray) -> np.ndarray:
    """e^{-tS} v by one shift-and-invert Lanczos pass: full
    reorthogonalization (twice) on solves with I + gamma (S - sigma I),
    gamma = t / 10, factored once.  sigma = ``op.lower_bound`` is certified,
    so that matrix has eigenvalues >= 1.  A Ritz value theta maps to the
    energy sigma + (1/theta - 1)/gamma.  Steps k and k - 2 are compared
    scaled by e^{tE}, E the lowest energy of step k, so an answer that
    decayed, even below the floating range, is judged relative to itself.
    """
    n = op.n
    beta0 = np.linalg.norm(v)
    if beta0 == 0:
        return np.zeros(n)
    gamma, sigma = t / 10, op.lower_bound
    M = gamma * op.S
    M[np.diag_indices(n)] += 1 - gamma * sigma
    # the Krylov route, like the sparse one, pays the scipy import at
    # first use
    import scipy.linalg
    if n < _SPARSE_MIN_N:
        solve = functools.partial(scipy.linalg.cho_solve,
                                  scipy.linalg.cho_factor(M))
    else:
        from scipy.sparse import csc_array
        from scipy.sparse.linalg import splu
        solve = splu(csc_array(M)).solve
    dim = min(_KRYLOV_DIM, n)
    V = np.empty((n, dim + 1))
    alpha, beta = np.empty(dim), np.empty(dim)
    V[:, 0] = v / beta0
    scaled, change = [], np.inf  # per step: coefficients e^{t low}, low
    for k in range(1, dim + 1):
        w = solve(V[:, k - 1])
        alpha[k - 1] = V[:, k - 1] @ w
        size = np.linalg.norm(w)
        for _ in range(2):
            w -= V[:, :k] @ (V[:, :k].T @ w)
        beta[k - 1] = np.linalg.norm(w)
        theta, Q = scipy.linalg.eigh_tridiagonal(alpha[:k], beta[:k - 1])
        energies = sigma + (1 / theta - 1) / gamma
        low = energies.min()
        y = Q @ (np.exp(-t * (energies - low)) * Q[0])
        if k > 2:  # step k - 2, padded and brought to the scale of step k
            y2, low2 = scaled[-2]
            y2 = np.r_[np.exp(-t * (low2 - low)) * y2, 0.0, 0.0]
            change = np.linalg.norm(y - y2) / np.linalg.norm(y)
        scaled.append((y, low))
        if (k == n or beta[k - 1] <= np.finfo(float).eps * size
                or change <= _KRYLOV_TOL):
            return beta0 * (V[:, :k] @ (Q @ (np.exp(-t * energies) * Q[0])))
        V[:, k] = w / beta[k - 1]
    raise KrylovBreakdown(
        f"shift-and-invert Lanczos did not converge in {dim} steps: steps "
        f"{dim - 2} and {dim} differ by {change:.2e} of the answer")


def _check_finite(t: float) -> None:
    if not math.isfinite(t):
        raise ValidationError(f"time t = {t} is not finite")


def apply(op: OperatorRep, t: float, f, method: SemigroupMethod | None = None
          ) -> np.ndarray:
    """Evaluate e^{-tL} f.

    Parameters
    ----------
    op : OperatorRep
    t : float
        Time, >= 0; ``t = 0`` returns f unchanged for every method.
    f : array_like
        Function on the vertices.
    method : SemigroupMethod, optional
        Defaults to the spectral path.  Scaling-squaring at t = 1 multiplies
        by the e^{-S} kept per operator, and at a whole time j >= 2 on an
        operator that keeps it applies (e^{-S})^j, with no new Padé
        factors.  At other times, or before e^{-S} is kept, it applies the
        last 2^k Padé factors to the vector, or, when 2^s <= n and the
        factors are sparse, all 2^s of them through one sparse LU.

    Raises
    ------
    ValidationError
        If t is not finite, or f has a non-finite entry.
    NegativeTime
        If t < 0.
    NumericsError
        If 100 eps t ||S||_1 >= 1, where rounding S alone leaves the
        result without a correct digit (for scaling-squaring the message
        names the squaring count s), or if the result overflows.
    KrylovBreakdown
        If the Krylov pass does not converge within its 60 steps.
    """
    _check_finite(t)
    if t < 0:
        raise NegativeTime(f"t = {t} < 0")
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValidationError(
            f"datum f is not finite ({np.count_nonzero(~np.isfinite(f))} "
            f"of its {f.size} entries are inf or nan)")
    if t == 0:
        return f.copy()
    method = method or SPECTRAL
    if method.tag != "scaling-squaring":  # _scaling checks, naming s
        _check_resolution(t * op.s_norm1, f"{method.tag} at t = {t}")
    rs = np.sqrt(op.m)
    v = rs * f
    # an overflow is reported once, by _finite, not as RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore"):
        if method.tag == "spectral":
            sd = eigendecompose(op)
            U = sd.vectors * rs[:, None]
            ev = U @ (decay_factors(sd.eigenvalues, t) * (U.T @ v))
        elif method.tag == "scaling-squaring" and t == 1.0:
            ev = _exponential(op, t) @ v
        elif (method.tag == "scaling-squaring" and t % 1 == 0
              and op in _unit_time_cache):
            ev = _held_power_apply(op, t, v)
        elif method.tag == "scaling-squaring":
            ev = _powered_apply(op, t, v)
        else:
            ev = _krylov_apply(op, t, v)
        ev = ev / rs
    return _finite(ev, t, method)


@dataclass(frozen=True, eq=False)
class HeatKernel:
    """Heat kernel p_t(x, y) = (e^{-tL} delta_y)(x) / m(y) as a matrix."""

    t: float
    p: np.ndarray
    m: np.ndarray


def heat_kernel(op: OperatorRep, t: float,
                method: SemigroupMethod | None = None) -> HeatKernel:
    """Full heat kernel matrix at time t > 0.

    With the spectral method p_t = Phi e^{-t Lambda} Phi^T, where
    factors e^{-t E_i} below the normal floating range count as exactly
    zero (see :func:`~heatlab.operators.kernel_sum`); with
    scaling-squaring p_t = D^{-1/2} e^{-tS} D^{-1/2}, where e^{-S} (t = 1)
    is computed once per operator and reused by later calls, by the
    scaling-squaring :func:`apply` at t = 1 and at whole times, and by
    the positivity and kernel-factorization checks.  Every other t,
    whole times included, runs a fresh Padé chain and is not cached, so
    that :func:`chapman_kolmogorov_defect` compares independent
    evaluations rather than powers of one matrix.  The
    returned ``p`` is always a fresh, writable array.  The Krylov method
    assembles the kernel column by column, which is also the fallback for
    selected entries when n is large (see :func:`kernel_column`).

    Raises
    ------
    ValidationError
        If t is not finite.
    NonPositiveTime
        If t <= 0.
    NumericsError
        If 100 eps t ||S||_1 >= 1, where rounding S alone leaves the
        kernel without a correct digit (for scaling-squaring the message
        names the squaring count s), or if the kernel overflows.
    KrylovBreakdown
        If a Krylov column does not converge within 60 steps.
    """
    _check_finite(t)
    if t <= 0:
        raise NonPositiveTime(f"heat kernel needs t > 0, got t = {t}")
    method = method or SPECTRAL
    if method.tag != "scaling-squaring":  # _scaling checks, naming s
        _check_resolution(t * op.s_norm1, f"{method.tag} at t = {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        if method.tag == "spectral":
            p = kernel_sum(eigendecompose(op), t)
        elif method.tag == "scaling-squaring":
            rs = np.sqrt(op.m)
            p = _exponential(op, t) / np.outer(rs, rs)
        else:
            p = np.column_stack([kernel_column(op, t, y, method)
                                 for y in range(op.n)])
    _finite(p, t, method)
    return HeatKernel(t=float(t), p=p, m=op.m)


def kernel_column(op: OperatorRep, t: float, y: int,
                  method: SemigroupMethod | None = None) -> np.ndarray:
    """Single kernel column p_t(., y) via one semigroup application."""
    _check_finite(t)
    if t <= 0:
        raise NonPositiveTime(f"heat kernel needs t > 0, got t = {t}")
    delta = np.zeros(op.n)
    delta[y] = 1.0
    return apply(op, t, delta, method) / op.m[y]


def kernel_symmetry_defect(K: HeatKernel) -> float:
    """max |p - p^T| relative to the largest kernel entry."""
    scale = np.max(np.abs(K.p))
    if scale == 0:
        return 0.0
    return float(np.max(np.abs(K.p - K.p.T)) / scale)


def chapman_kolmogorov_defect(op: OperatorRep, t: float, s: float,
                              method: SemigroupMethod | None = None,
                              method_parts: SemigroupMethod | None = None
                              ) -> float:
    """Relative defect of p_{t+s}(x,y) = sum_z p_t(x,z) p_s(z,y) m(z).

    ``method`` evaluates the left-hand side, ``method_parts`` the two
    factors, so cross-method combinations give an honest consistency
    check.
    """
    whole = heat_kernel(op, t + s, method).p
    pt = heat_kernel(op, t, method_parts or method).p
    ps = heat_kernel(op, s, method_parts or method).p
    composed = pt @ (op.m[:, None] * ps)
    scale = np.max(np.abs(whole))
    return float(np.max(np.abs(whole - composed)) / scale)


def resolvent(op: OperatorRep, alpha: float, e0: float | None = None
              ) -> np.ndarray:
    """Resolvent (L + alpha)^{-1} for alpha > -E0.

    If ``e0`` is supplied the shift is validated against it directly;
    either way a failed Cholesky factorization S + alpha = C C^T (i.e.
    the shifted operator not being positive definite) raises
    SingularShift.  (S + alpha)^{-1} is formed as C^{-T} C^{-1}, which
    comes out exactly symmetric.
    """
    if e0 is not None and alpha <= -e0:
        raise SingularShift(f"alpha = {alpha} <= -E0 = {-e0}")
    shifted = op.S + alpha * np.eye(op.n)
    try:
        C = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError as exc:
        raise SingularShift(
            f"S + {alpha} I is not positive definite; alpha <= -E0"
        ) from exc
    C_inv = np.linalg.inv(C)
    RS = C_inv.T @ C_inv
    rs = np.sqrt(op.m)
    return RS * np.outer(1.0 / rs, rs)


def trotter(op: OperatorRep, V, t: float, n: int, f) -> np.ndarray:
    """Trotter product (e^{-(t/n) L} e^{(t/n) V})^n f.

    Converges to e^{-t(L-V)} f at rate O(1/n); each factor preserves
    positivity, which is what several entrywise comparison checks lean
    on.
    """
    _check_finite(t)
    if t < 0:
        raise NegativeTime(f"t = {t} < 0")
    if n < 1:
        raise ValueError("n must be a positive integer")
    V = np.asarray(getattr(V, "values", V), dtype=float)
    f = np.asarray(f, dtype=float)
    h = t / n
    sd = eigendecompose(op)
    rs = np.sqrt(op.m)
    U = sd.vectors * rs[:, None]
    decay = decay_factors(sd.eigenvalues, h)
    boost = np.exp(h * V)
    cur = f
    for _ in range(n):
        v = rs * (boost * cur)
        cur = (U @ (decay * (U.T @ v))) / rs
    return cur
