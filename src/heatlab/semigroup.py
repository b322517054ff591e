"""Heat semigroup evaluation: e^{-tL} f, heat kernels, resolvents, Trotter.

Three interchangeable evaluators are provided and must agree within
1e-9 * ||f||_m on moderate problems (n <= 200):

``spectral``
    sum_i e^{-t E_i} <phi_i, f>_m phi_i on the m-orthonormal eigenvectors
    that :func:`~heatlab.operators.eigendecompose` keeps; the default.
``scaling-squaring``
    :func:`series_expm`: the degree-24 Taylor series of e^N, N = d - tS
    >= 0 with d = t max(0, max diag S), scaled to ||N||_1 <= 2 and squared
    back, so that no term cancels.  From n = 256 on, it is built from the
    operator's held ``S_csr``, in sparse products while they stay below a
    tenth fill (long-diameter graphs); the squarings are dense, each after
    the entries below sqrt(tiny) max|F| are set to 0, which keeps them out
    of subnormal arithmetic.
    e^{-S} is held on its operator once computed.  :func:`apply` returns
    F^j v: at a whole time j, F = e^{-S}; at any other time, F is the
    exponential with its last k squarings still to do and j = 2^k.  A copy
    of F is squared, floored the same way, only while j exceeds 2^K
    matrix-vector products, K = floor(log2 n) - 1 >= k.
    :func:`heat_kernel` at t != 1 always runs its own chain.
``krylov``
    Shift-and-invert Lanczos (van den Eshof and Hochbruck, SIAM J. Sci.
    Comput. 27, 2006): one pass of at most 60 steps on solves with
    I + (t/10)(S - lower_bound), built sparse from ``S_csr`` and factored
    once by sparse LU at every order, until steps k and k - 2 agree to
    max(1e-13, 100 eps t |E|) of the answer, E the lowest Ritz energy:
    rounding moves E by about eps |E|, so no closer agreement is owed.

:func:`resolvent` forms C^{-1}, C C^T = S + alpha, in one recursion by
halves that skips the zero rows of each coupling block, leaves of order 64
or less by ``np.linalg.inv(np.linalg.cholesky(.))``; no route here imports
scipy before it needs sparse matrices or the tridiagonal eigensolver.

The spectral route and :func:`trotter` expand in the stored phi_i; only
the matrix routes work on the symmetrization S, scaling f by sqrt(m) on
the way in and out.  Kernels come out symmetric up to rounding and are
never symmetrized by hand.  :func:`apply` and :func:`heat_kernel` raise
NumericsError, naming t, for every method once 100 eps t ||S||_1 >= 1,
where rounding S alone leaves the result without a correct digit, and
when the result overflows; overflow inside an evaluation prints no
RuntimeWarning.
"""
from __future__ import annotations

import math
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
from .operators import (OperatorRep, checked_datum, checked_potential,
                        coefficients, decay_factors, eigendecompose,
                        kernel_sum)

__all__ = [
    "SemigroupMethod",
    "SPECTRAL",
    "SCALING_SQUARING",
    "KRYLOV",
    "HeatKernel",
    "apply",
    "heat_kernel",
    "kernel_column",
    "kernel_symmetry_defect",
    "chapman_kolmogorov_defect",
    "resolvent",
    "trotter",
    "check_time",
    "check_count",
    "series_expm",
]

# the series sums N^k / k!, k <= 24, of ||N||_1 <= 2: the terms left out
# have a 1-norm below sum_{k > 24} 2^k / k! < 3e-18, and e^N >= I for
# N >= 0.  Paterson-Stockmeyer in blocks of five: N^2 .. N^5 and four
# Horner steps in N^5 take eight products, a term-by-term sum 24
_THETA = 2.0
_INV_FACTORIALS = np.array([1.0 / math.factorial(k) for k in range(25)])
_BLOCK = 5
# a power or partial sum of the series that stores more than this share of
# its n^2 entries is converted to dense.  Series of e^{-S} timed on weighted
# paths (n = 300-700) and discretized stars (n = 298-478; scipy 1.17,
# 2 vCPU) summed to 152 ms at 0.1, 151 ms at 0.2 and 154 ms at 0.05.
# Short-diameter graphs, whose powers fill within a few products (random
# graphs by N^4), fall back to BLAS-3; on a path the partial sums reach
# band width 24 on each side, below a tenth fill from n = 490 on
_DENSE_FILL = 0.1
# entries below this share of max |F| are set to 0 before each squaring of
# a series built from sparse input.  Squaring e^{-tS / 2^s} of a long path
# or a discretized metric graph otherwise runs in subnormal arithmetic: on a
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
# below this order _exponential hands S to the series dense: the ~60
# scipy.sparse calls of a sparse build cost some 2.7 ms at n = 128, where a
# dense one takes 1.7 ms, and on a weighted path the two break even near
# n = 192 (2 vCPU)
_SPARSE_MIN_N = 256
# step cap and tolerance of the shift-and-invert Lanczos pass; the
# benchmark graphs took <= 35 steps, random graphs (n <= 300) <= 40
_KRYLOV_DIM = 60
_KRYLOV_TOL = 1e-13
# largest leaf of _inverse_factor.  At n = 700 leaves of 32-128 took
# 3.5-4.7 ms on a weighted path and 9.5-10.4 ms on a random graph, against
# 44 ms for one leaf of order 700 (2 vCPU)
_TRIANGULAR_LEAF = 64


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


def _floor(F: np.ndarray) -> None:
    """Set the entries of F below ``_SQUARING_FLOOR`` max|F| to 0, in place.

    ``np.putmask`` writes the same zeros as boolean indexing without
    collecting their indices first.  An infinite max|F| zeroes every
    finite entry and keeps the infinite ones, so an overflow stays visible.
    """
    size = np.abs(F)
    np.putmask(F, size < _SQUARING_FLOOR * size.max(), 0.0)


def _halvings(norm: float):
    """The least s >= 0 with norm / 2^s <= 2, inf for a norm that is not
    finite: the one scaling rule of :func:`series_expm` and
    :func:`_squarings`."""
    if norm <= _THETA:
        return 0
    return math.ceil(math.log2(norm / _THETA)) if norm < math.inf \
        else math.inf


def series_expm(M) -> tuple[np.ndarray, int]:
    """e^M, a dense ndarray, and its squaring count s, for M an ndarray or
    a scipy.sparse matrix.

    With d = max(0, -min diag M) and N = M + dI, e^M = e^{-d} e^N: the
    degree-24 Taylor polynomial of N / 2^s, s = :func:`_halvings` of
    ||N||_1, is summed by Paterson-Stockmeyer (SIAM J. Comput. 2, 1973),
    multiplied by e^{-d/2^s} and squared s times.  Where M has no negative
    entry off its diagonal, as -tS and the shift model's t L1 have not,
    N >= 0 and every sum and product adds non-negative numbers (Xue and
    Ye, Math. Comp. 82, 2013): e^M has no negative entry, and pairs that
    only terms past degree 24 reach are exactly 0 before the squarings.
    A sparse M keeps its powers and partial sums sparse below a tenth fill
    (``_DENSE_FILL``), and F is floored (``_SQUARING_FLOOR``) before each
    squaring; a dense M is squared as it is.  The zero matrix maps to the
    identity exactly, with s = 0.
    """
    sparse = False
    if not isinstance(M, np.ndarray):  # only this input imports scipy
        from scipy.sparse import csr_array, eye_array, issparse
        sparse = issparse(M)
    M = csr_array(M, dtype=float) if sparse else np.asarray(M, dtype=float)
    ident = eye_array(M.shape[0]) if sparse else np.eye(len(M))
    d = max(0.0, -float(M.diagonal().min()))
    N = M + d * ident
    s = _halvings(float(abs(N).sum(axis=0).max()))
    if s == math.inf:
        raise NumericsError("series_expm: M + dI has no finite 1-norm")
    if s:
        N = N / 2.0 ** s
    powers = [ident, N]
    for _ in range(_BLOCK - 1):
        powers.append(_fit(powers[-1] @ N))
    top, F = powers.pop(), None  # N^5
    for j in reversed(range(0, len(_INV_FACTORIALS), _BLOCK)):
        block = sum(c * P for c, P in zip(_INV_FACTORIALS[j:], powers))
        F = block if F is None else _fit(top @ F + block)
    F = F if isinstance(F, np.ndarray) else F.toarray()
    F *= math.exp(-d / 2.0 ** s)
    for _ in range(s):
        if sparse:
            _floor(F)
        F = F @ F
    return F, s


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
    """s, the squaring count of e^{-tS}: :func:`_halvings` of t ||dI - S||_1,
    d = max(0, max diag S), the norm :func:`series_expm` scales (held on op).

    Raises NumericsError when 100 eps t ||S||_1 >= 1 (see
    :func:`_check_resolution`), in particular when t ||S||_1 overflows.
    """
    s = _halvings(t * op.held("||dI - S||_1", lambda: float(np.linalg.norm(
        max(0.0, op.S.diagonal().max()) * np.eye(op.n) - op.S, 1))))
    _check_resolution(t * op.s_norm1,
                      f"scaling-squaring at t = {t} with s = {s} squarings")
    return s


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    """x, checked to hold no overflow of the evaluation ``what`` names."""
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"{what} overflows the floating-point range (the "
                            f"result is not finite)")
    return x


def _exponential(op: OperatorRep, t: float) -> np.ndarray:
    """e^{-tS} by :func:`series_expm`; at t = 1 read-only and held on op.

    The one place S reaches the series, in CSR from order
    ``_SPARSE_MIN_N`` on, after :func:`_squarings` has checked t.  Only
    t = 1 recurs in the library (whole-time :func:`apply`, kernel
    functions, the factorization identity, positivity), so e^{-S} is held
    as "exp(-S)" and dies with op; other times are computed afresh.
    """
    sparse = op.n >= _SPARSE_MIN_N

    def build():
        _squarings(op, t)
        E, _ = series_expm((op.S_csr if sparse else op.S) * -t)
        E.setflags(write=t != 1.0)  # only the held e^{-S} is read-only
        return E
    return op.held("exp(-S)", build) if t == 1.0 else build()


def _vector_squarings(n: int) -> int:
    """max(floor(log2 n) - 1, 0): the most squarings that a scaling-squaring
    apply on order n leaves to the vector, as 2^k matrix-vector products
    (see :func:`_powered_apply`)."""
    return max(n.bit_length() - 2, 0)


def _powered_apply(op: OperatorRep, t: float, v: np.ndarray) -> np.ndarray:
    """e^{-tS} v = F^j v, with (F, j) chosen from t alone.

    At a whole time, F = e^{-S}, built and kept by :func:`_exponential`,
    and j = t.  At any other time, F = ``_exponential(op, t / 2^k)`` with
    k = min(s, :func:`_vector_squarings`) and j = 2^k: dividing t by 2^k is
    exact, so F is bit-for-bit the matrix that ``series_expm(-tS)`` holds
    with k of its s squarings still to do.  While j exceeds the budget of
    2^K matrix-vector products, K = :func:`_vector_squarings`, j is halved,
    the bit it drops goes to the vector, and a copy of F is squared, its
    entries below ``_SQUARING_FLOOR`` max|F| set to 0 first; the remaining
    j factors go to the vector.  A squaring pays once j/2 products cost
    more: with its copy and floor, from j = 280-300 on a weighted path
    with n = 700 and j = 90-135 on a discretized star with n = 496 (2 vCPU),
    against 2^K = 256 and 128.  Raises the NumericsError of
    :func:`_squarings`, naming t and s, before any work.
    """
    if t % 1 == 0:
        _squarings(op, t)  # checks t, which the held e^{-S} does not
        F, j = _exponential(op, 1.0), int(t)
    else:
        k = min(_squarings(op, t), _vector_squarings(op.n))
        F, j = _exponential(op, t / 2 ** k), 2 ** k
    while j > 2 ** _vector_squarings(op.n):
        if j & 1:
            v = F @ v
        if not F.flags.writeable:  # the held e^{-S}
            F = F.copy()
        _floor(F)
        F = F @ F
        j >>= 1
    for _ in range(j):
        v = F @ v
    return v


def _krylov_apply(op: OperatorRep, t: float, v: np.ndarray) -> np.ndarray:
    """e^{-tS} v by one shift-and-invert Lanczos pass: full
    reorthogonalization (twice) on solves with I + gamma (S - sigma I),
    gamma = t / 10, factored once by sparse LU (SuperLU, on the CSC form of
    that matrix) at every order, built from the operator's held ``S_csr``
    without reading the dense S.  sigma = ``op.lower_bound``, the bound
    the operator derives from its S and m (min c/m on a graph operator),
    gives that matrix eigenvalues >= 1.  A Ritz value theta maps to the
    energy sigma + (1/theta - 1)/gamma.  Steps k and k - 2 are compared
    scaled by e^{tE}, E the lowest energy of step k, so an answer that
    decayed, even below the floating range, is judged relative to itself.
    """
    n = op.n
    beta0 = np.linalg.norm(v)
    if beta0 == 0:
        return np.zeros(n)
    gamma, sigma = t / 10, op.lower_bound
    # the Krylov route, like the sparse series, pays the scipy import
    # at first use
    from scipy.linalg import get_lapack_funcs
    from scipy.sparse import eye_array
    from scipy.sparse.linalg import splu
    M = gamma * op.S_csr + (1 - gamma * sigma) * eye_array(n, format="csr")
    M.eliminate_zeros()  # an entry gamma s_ij may underflow
    solve = splu(M.tocsc()).solve
    dim = min(_KRYLOV_DIM, n)
    V = np.empty((n, dim + 1))
    alpha, beta = np.empty(dim), np.empty(dim)
    stevd, = get_lapack_funcs(("stevd",), (alpha,))
    V[:, 0] = v / beta0
    scaled, change = [], np.inf  # per step: coefficients e^{t low}, low
    for k in range(1, dim + 1):
        w = solve(V[:, k - 1])
        alpha[k - 1] = V[:, k - 1] @ w
        size = np.linalg.norm(w)
        for _ in range(2):
            w -= V[:, :k] @ (V[:, :k].T @ w)
        beta[k - 1] = np.linalg.norm(w)
        theta, Q = _tridiagonal_eigh(stevd, alpha[:k], beta[:k - 1])
        energies = sigma + (1 / theta - 1) / gamma
        low = energies.min()
        y = Q @ (np.exp(-t * (energies - low)) * Q[0])
        if k > 2:  # step k - 2, padded and brought to the scale of step k
            y2, low2 = scaled[-2]
            y2 = np.r_[np.exp(-t * (low2 - low)) * y2, 0.0, 0.0]
            change = np.linalg.norm(y - y2) / np.linalg.norm(y)
        scaled.append((y, low))
        if (k == n or beta[k - 1] <= np.finfo(float).eps * size
                or change <= max(_KRYLOV_TOL, _ROUNDING * t * abs(low))):
            return beta0 * (V[:, :k] @ (Q @ (np.exp(-t * energies) * Q[0])))
        V[:, k] = w / beta[k - 1]
    raise KrylovBreakdown(
        f"shift-and-invert Lanczos did not converge in {dim} steps: steps "
        f"{dim - 2} and {dim} differ by {change:.2e} of the answer")


def _tridiagonal_eigh(stevd, d: np.ndarray, e: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eigh_tridiagonal(d, e)`` bit for bit, by the LAPACK
    ``?stevd`` that its default driver calls, without the wrapper's
    per-call checks and dispatch (about 15 us a call on a 2-vCPU Xeon,
    paid at every Lanczos step).  Order 1 is answered without LAPACK, as
    the wrapper does; a nonzero ``info`` raises LinAlgError.
    """
    if len(d) == 1:
        return np.array([d[0]]), np.array([[1.0]])
    w, v, info = stevd(d, e)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"stevd (eigh_tridiagonal) failed (LAPACK info={info})")
    return w, v


def check_time(t: float, positive: bool) -> None:
    """The one home of the time rule.

    t must be finite (else ValidationError), >= 0 (else NegativeTime)
    and, where ``positive``, > 0 (else NonPositiveTime, for t <= 0).
    """
    if not math.isfinite(t):
        raise ValidationError(f"time t = {t} is not finite")
    if positive and t <= 0:
        raise NonPositiveTime(f"needs t > 0, got t = {t}")
    if t < 0:
        raise NegativeTime(f"t = {t} < 0")


def check_count(value, name: str, low: int, high: int | None = None
                ) -> None:
    """The one home of the count rule: ``value`` is a Python or numpy
    integer, not a bool, from low to high (if given), else ValidationError
    naming it as ``name``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bounds = f">= {low}" if high is None else f"from {low} to {high}"
        raise ValidationError(f"{name} = {value} is not an integer {bounds}")


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
        Defaults to the spectral path.  Scaling-squaring returns F^j f:
        at a whole time j, F = e^{-S}, built on first use and held on the
        operator; at any other time, F is the series exponential with its
        last k squarings left to the 2^k matrix-vector products j = 2^k.

    Raises
    ------
    ValidationError
        If t is not finite (:func:`check_time`), or f has a non-finite
        entry (:func:`~heatlab.operators.checked_datum`).
    ValueError
        If f does not have shape (n,).
    NegativeTime
        If t < 0.
    NumericsError
        If 100 eps t ||S||_1 >= 1, where rounding S alone leaves the
        result without a correct digit (for scaling-squaring the message
        names the squaring count s), or if the result overflows.
    KrylovBreakdown
        If the Krylov pass does not converge within its 60 steps.
    """
    check_time(t, positive=False)
    f = checked_datum(f, op.n, "f")
    if t == 0:
        return f.copy()
    method = method or SPECTRAL
    if method.tag != "scaling-squaring":  # _squarings checks, naming s
        _check_resolution(t * op.s_norm1, f"{method.tag} at t = {t}")
    # an overflow is reported once, by _finite, not as RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore"):
        if method.tag == "spectral":
            sd = eigendecompose(op)
            u = sd.vectors @ (decay_factors(sd.eigenvalues, t)
                              * coefficients(sd, f))
        else:
            rs = np.sqrt(op.m)
            route = (_powered_apply if method.tag == "scaling-squaring"
                     else _krylov_apply)
            u = route(op, t, rs * f) / rs
    return _finite(u, f"{method.tag} at t = {t}: e^(-tL)")


@dataclass(frozen=True, eq=False)
class HeatKernel:
    """Heat kernel p_t(x, y) = (e^{-tL} delta_y)(x) / m(y) as a matrix."""

    p: np.ndarray


def heat_kernel(op: OperatorRep, t: float,
                method: SemigroupMethod | None = None) -> HeatKernel:
    """Full heat kernel matrix at time t > 0.

    With the spectral method p_t = Phi e^{-t Lambda} Phi^T, where
    factors e^{-t E_i} below the normal floating range, or below sqrt(tiny)
    times e^{-t E0}, count as exactly zero (see
    :func:`~heatlab.operators.kernel_sum`); with
    scaling-squaring p_t = D^{-1/2} e^{-tS} D^{-1/2}, where e^{-S} (t = 1)
    is the matrix held on the operator that whole-time :func:`apply` powers.
    Every other t, whole times included, runs a fresh chain and is
    not cached, so that :func:`chapman_kolmogorov_defect` compares
    independent evaluations rather than powers of one matrix.  The
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
    check_time(t, positive=True)
    method = method or SPECTRAL
    if method.tag != "scaling-squaring":  # _squarings checks, naming s
        _check_resolution(t * op.s_norm1, f"{method.tag} at t = {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        if method.tag == "spectral":
            p = kernel_sum(eigendecompose(op), t)
        elif method.tag == "scaling-squaring":
            rs = np.sqrt(op.m)
            p = _exponential(op, t) / np.outer(rs, rs)
        else:
            p = np.column_stack([apply(op, t, delta, method)
                                 for delta in np.eye(op.n)]) / op.m
    _finite(p, f"{method.tag} at t = {t}: e^(-tL)")
    return HeatKernel(p=p)


def kernel_column(op: OperatorRep, t: float, y: str | int,
                  method: SemigroupMethod | None = None) -> np.ndarray:
    """Single kernel column p_t(., y) via one semigroup application.

    ``y`` is a vertex id or a position in ``0 .. n - 1``, else
    UnknownVertex; a graph-less operator raises ValueError.
    """
    check_time(t, positive=True)
    iy = op.vertex_index(y)
    delta = np.zeros(op.n)
    delta[iy] = 1.0
    return apply(op, t, delta, method) / op.m[iy]


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
    check.  Where both sides are identically 0 (underflow) the defect is 0.
    """
    whole = heat_kernel(op, t + s, method).p
    pt = heat_kernel(op, t, method_parts or method).p
    ps = heat_kernel(op, s, method_parts or method).p
    composed = pt @ (op.m[:, None] * ps)
    scale = np.max(np.abs(whole))
    if scale == 0 and not composed.any():  # both sides underflowed
        return 0.0
    return float(np.max(np.abs(whole - composed)) / scale)


def resolvent(op: OperatorRep, alpha: float) -> np.ndarray:
    """Resolvent (L + alpha)^{-1} for alpha > -E0, as C^{-T} C^{-1}.

    C^{-1}, for the Cholesky factor S + alpha = C C^T, comes from one
    recursion by halves (:func:`_inverse_factor`); up to order 64 it is
    ``np.linalg.inv(np.linalg.cholesky(S + alpha))``.  The result is
    exactly symmetric.  A failed factorization at any block (alpha <= -E0)
    raises SingularShift, an alpha that is not finite ValidationError.
    S + alpha is an M-matrix, so C^{-1} >= 0 is formed without subtraction:
    on a weighted path of 700 vertices the entries, down to 1e-307, are
    within 5e-15 relative of the LU route's.
    """
    if not math.isfinite(alpha):
        raise ValidationError(f"resolvent shift alpha = {alpha} is not finite")
    A, X = op.S.copy(), np.zeros((op.n, op.n))
    A.flat[::op.n + 1] += alpha
    try:
        _inverse_factor(A, X)
    except np.linalg.LinAlgError as exc:
        raise SingularShift(
            f"S + {alpha} I is not positive definite; alpha <= -E0"
        ) from exc
    RS, rs = X.T @ X, np.sqrt(op.m)
    RS *= np.outer(1.0 / rs, rs)
    return RS


def _inverse_factor(A: np.ndarray, X: np.ndarray) -> None:
    """Write C^{-1} into the zeroed X, where C C^T = A; A is overwritten.

    With X11 = C11^{-1} from the first half, C21 = A21 X11^T, the second
    half is the Schur complement A22 - C21 C21^T and X21 = -X22 C21 X11.
    Only the rows of A21 that hold a nonzero enter: one on a path, a few
    on a discretized star, so long-diameter graphs cost O(n^2) above the
    leaves.  For an M-matrix C21 <= 0 and X >= 0, so every off-diagonal
    block is a product of non-negative matrices.
    """
    n = A.shape[0]
    if n <= _TRIANGULAR_LEAF:
        X[...] = np.linalg.inv(np.linalg.cholesky(A))
        return
    h = n // 2
    X11, A22 = X[:h, :h], A[h:, h:]
    _inverse_factor(A[:h, :h], X11)
    r = np.flatnonzero(A[h:, :h].any(axis=1))
    D = -A[h:, :h][r] @ X11.T  # -C21 on the coupled rows
    A22[np.ix_(r, r)] -= D @ D.T
    _inverse_factor(A22, X[h:, h:])
    np.matmul(X[h:, h:][:, r], D @ X11, out=X[h:, :h])


def trotter(op: OperatorRep, V, t: float, n: int, f) -> np.ndarray:
    """Trotter product (e^{-(t/n) L} e^{(t/n) V})^n f.

    Converges to e^{-t(L-V)} f at rate O(1/n); each factor preserves
    positivity, which is what several entrywise comparison checks lean
    on.  Each step expands in the stored m-orthonormal eigenbasis.  t,
    V and f are checked by :func:`check_time`,
    :func:`~heatlab.operators.checked_potential` and
    :func:`~heatlab.operators.checked_datum` before any work, and the step
    count n by :func:`check_count`.  A step factor e^{(t/n) V} or a
    product that overflows raises NumericsError naming t and n.
    """
    check_time(t, positive=False)
    check_count(n, "trotter step count n", 1)
    V = checked_potential(V, op.n)
    f = checked_datum(f, op.n, "f")
    h = t / n
    sd = eigendecompose(op)
    decay = decay_factors(sd.eigenvalues, h)
    cur = f
    with np.errstate(over="ignore", invalid="ignore"):
        boost = np.exp(h * V)
        for _ in range(n):
            cur = sd.vectors @ (decay * coefficients(sd, boost * cur))
    return _finite(cur, f"trotter at t = {t}, n = {n}: the product "
                        f"(e^(-hL) e^(hV))^n f")
