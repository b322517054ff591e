"""Heat semigroup evaluation: e^{-tL} f, heat kernels, resolvents, Trotter.

Three interchangeable evaluators are provided and must agree within
1e-9 * ||f||_m on moderate problems (n <= 200):

``spectral``
    sum_i e^{-t E_i} <phi_i, f>_m phi_i on the m-orthonormal eigenvectors
    that :func:`~heatlab.operators.eigendecompose` keeps; the default.
``scaling-squaring``
    13th-order diagonal rational approximant of the matrix exponential,
    input scaled so the scaled 1-norm is below 5.37, then repeatedly
    squared.  From n = 256 on, the approximant's numerator and denominator
    are built from the operator's held ``S_csr``, in sparse products while
    they stay below a tenth fill (long-diameter graphs); the solve and the
    squarings are dense, and before each squaring of sparse-built factors
    the entries below sqrt(tiny) max|F| are set to 0, which keeps the
    squarings out of subnormal arithmetic.
    e^{-S} is held on its operator once computed.  :func:`apply` returns
    F^j v: at a whole time j, F = e^{-S}; at any other time, F is the
    approximant with its last k squarings still to do and j = 2^k.  A copy
    of F is squared, floored the same way, only while j exceeds 2^K
    matrix-vector products, K = floor(log2 n) - 1 >= k.
    :func:`heat_kernel` at t != 1 always runs its own Padé chain.
``krylov``
    Shift-and-invert Lanczos (van den Eshof and Hochbruck, SIAM J. Sci.
    Comput. 27, 2006): one pass of at most 60 steps on solves with
    I + (t/10)(S - lower_bound), built sparse from ``S_csr`` and factored
    once by sparse LU at every order, until steps k and k - 2 agree to
    1e-13 of the answer.

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
# below this order _exponential hands S to the Padé build dense: the ~30
# scipy.sparse calls of a sparse build cost 0.6-2.5 ms whatever the size,
# and a dense build on a weighted path breaks even with the sparse one
# near n = 192 with one BLAS thread, later with two
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
    sparse, entries of F below sqrt(tiny) max|F| are set to 0 before each
    squaring, which keeps a long path's far entries out of subnormal
    arithmetic (see ``_SQUARING_FLOOR``).  Dense M, and factors that
    filled, are squared as they are.  The zero matrix maps to the identity
    exactly, with 0 squarings.
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
    P, Q = _pade13_factors(M)
    floor = not isinstance(P, np.ndarray) and not isinstance(Q, np.ndarray)
    if not isinstance(P, np.ndarray):
        P = P.toarray()
    if not isinstance(Q, np.ndarray):
        Q = Q.toarray()
    F = np.linalg.solve(Q, P)
    for _ in range(squarings):
        if floor:
            _floor(F)
        F = F @ F
    return F, squarings


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


def _finite(x: np.ndarray, t: float, method: SemigroupMethod) -> np.ndarray:
    """x, checked to hold no overflow of the evaluation at time t."""
    if not np.all(np.isfinite(x)):
        raise NumericsError(
            f"{method.tag} at t = {t}: e^(-tL) overflows the floating-point "
            f"range (the result is not finite)")
    return x


def _exponential(op: OperatorRep, t: float) -> np.ndarray:
    """e^{-tS} by :func:`pade13_expm`; at t = 1 read-only and held on op.

    The one place S reaches the Padé build, in CSR from order
    ``_SPARSE_MIN_N`` on, after :func:`_squarings` has checked t.  Only
    t = 1 recurs in the library (whole-time :func:`apply`, kernel
    functions, the factorization identity, positivity), so e^{-S} is held
    as "exp(-S)" and dies with op; other times are computed afresh.
    """
    sparse = op.n >= _SPARSE_MIN_N

    def build():
        _squarings(op, t)
        E, _ = pade13_expm((op.S_csr if sparse else op.S) * -t)
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
    exact, so F is bit-for-bit the matrix that ``pade13_expm(-tS)`` holds
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
    # the Krylov route, like the sparse Padé build, pays the scipy import
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
                or change <= _KRYLOV_TOL):
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
        operator; at any other time, F is the Padé approximant with its
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
    return _finite(u, t, method)


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
    Every other t, whole times included, runs a fresh Padé chain and is
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
    _finite(p, t, method)
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
    check.
    """
    whole = heat_kernel(op, t + s, method).p
    pt = heat_kernel(op, t, method_parts or method).p
    ps = heat_kernel(op, s, method_parts or method).p
    composed = pt @ (op.m[:, None] * ps)
    scale = np.max(np.abs(whole))
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
    leaves.  When most rows couple (short diameter) the blocks multiply
    whole, gathering nothing.  For an M-matrix C21 <= 0 and X >= 0, so
    every off-diagonal block is a product of non-negative matrices.
    """
    n = A.shape[0]
    if n <= _TRIANGULAR_LEAF:
        X[...] = np.linalg.inv(np.linalg.cholesky(A))
        return
    h = n // 2
    X11, A22 = X[:h, :h], A[h:, h:]
    _inverse_factor(A[:h, :h], X11)
    r = np.flatnonzero(A[h:, :h].any(axis=1))
    rr = np.ix_(r, r)
    if 2 * len(r) > n - h:
        r, rr = slice(None), np.s_[:, :]
    D = -A[h:, :h][r] @ X11.T  # -C21 on the coupled rows
    A22[rr] -= D @ D.T
    _inverse_factor(A22, X[h:, h:])
    np.matmul(X[h:, h:][:, r], D @ X11, out=X[h:, :h])


def trotter(op: OperatorRep, V, t: float, n: int, f) -> np.ndarray:
    """Trotter product (e^{-(t/n) L} e^{(t/n) V})^n f.

    Converges to e^{-t(L-V)} f at rate O(1/n); each factor preserves
    positivity, which is what several entrywise comparison checks lean
    on.  Each step expands in the stored m-orthonormal eigenbasis.  t,
    V and f are checked by :func:`check_time`,
    :func:`~heatlab.operators.checked_potential` and
    :func:`~heatlab.operators.checked_datum` before any work, and a step
    count n that is not a Python or numpy integer >= 1 raises
    ValidationError.
    """
    check_time(t, positive=False)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(
            f"trotter step count n = {n} is not an integer >= 1")
    V = checked_potential(V, op.n)
    f = checked_datum(f, op.n, "f")
    h = t / n
    sd = eigendecompose(op)
    decay = decay_factors(sd.eigenvalues, h)
    boost = np.exp(h * V)
    cur = f
    for _ in range(n):
        cur = sd.vectors @ (decay * coefficients(sd, boost * cur))
    return cur
