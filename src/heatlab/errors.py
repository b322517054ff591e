"""Exception hierarchy.

Three families, mapped onto CLI exit codes:

* :class:`ValidationError` (exit 1) -- the input violates a precondition
  (bad weights, negative time, disconnected pair, ...).  The math state is
  fine; the request is not.
* :class:`NumericsError` (exit 2) -- a numerical method failed to converge
  or an algorithmic limit was exceeded.
* :class:`InvariantViolation` (exit 3) -- two independent computations of
  the same quantity disagree.  This always indicates a bug, never a state
  of the input.
"""

__all__ = [
    "HeatlabError",
    "ValidationError",
    "NumericsError",
    "InvariantViolation",
    "NonSymmetricWeights",
    "NegativeWeight",
    "NonPositiveMeasure",
    "SelfLoop",
    "DuplicateVertexId",
    "DuplicateEdge",
    "EmptyGraph",
    "EmptySubset",
    "UnknownVertex",
    "ZeroVector",
    "NegativeTime",
    "NonPositiveTime",
    "SingularShift",
    "NonPositivePairing",
    "ZeroKernelEntry",
    "NegativeInitialDatum",
    "ResonantParameters",
    "TruncationInsufficient",
    "NonPositiveLength",
    "DanglingEdgeEndpoint",
    "IsolatedVertex",
    "MeshTooCoarse",
    "EigensolverFailure",
    "KrylovBreakdown",
    "NoSpectralGap",
    "PositivityConnectivityMismatch",
    "EquivalenceViolation",
]


class HeatlabError(Exception):
    """Base class for every error raised by heatlab."""


class ValidationError(HeatlabError):
    """Input rejected by a precondition check."""


class NumericsError(HeatlabError):
    """A numerical routine failed; results would be untrustworthy."""


class InvariantViolation(HeatlabError):
    """Independent computations of one quantity disagree (internal bug)."""


# -- graph validation ------------------------------------------------------

class NonSymmetricWeights(ValidationError):
    """b(x, y) != b(y, x) in the raw input; nothing is symmetrized silently."""


class NegativeWeight(ValidationError):
    """An edge weight b or a killing coefficient c is negative."""


class NonPositiveMeasure(ValidationError):
    """Some vertex has m <= 0."""


class SelfLoop(ValidationError):
    """b(x, x) != 0 requested; the diagonal of b must vanish."""


class DuplicateVertexId(ValidationError):
    """Two vertices share an id."""


class DuplicateEdge(ValidationError):
    """The same undirected edge is listed twice with equal weight."""


class EmptyGraph(ValidationError):
    """A graph needs at least one vertex."""


class EmptySubset(ValidationError):
    """Restriction onto the empty vertex set."""


class UnknownVertex(ValidationError):
    """A vertex id was referenced that the graph does not contain."""


# -- vectors, times, shifts ------------------------------------------------

class ZeroVector(ValidationError):
    """The zero vector has no spectral measure / no normalization."""


class NegativeTime(ValidationError):
    """Semigroup times must satisfy t >= 0."""


class NonPositiveTime(ValidationError):
    """Heat kernels are defined for t > 0 only."""


class SingularShift(ValidationError):
    """Resolvent requested at alpha <= -E0 where L + alpha is not invertible."""


class NonPositivePairing(ValidationError):
    """log of a pairing <f, e^{-tL} g> that is not strictly positive."""


class ZeroKernelEntry(ValidationError):
    """p_t(x, y) vanishes identically (x and y in different components)."""


class NegativeInitialDatum(ValidationError):
    """Approximated solutions are defined for f >= 0."""


# -- shift model -----------------------------------------------------------

class ResonantParameters(ValidationError):
    """lambda == 2*mu: the closed-form orbit degenerates."""


class TruncationInsufficient(ValidationError):
    """Truncation level N too small for the requested tail accuracy."""


# -- metric graphs ---------------------------------------------------------

class NonPositiveLength(ValidationError):
    """Edge lengths must be finite and > 0."""


class DanglingEdgeEndpoint(ValidationError):
    """An edge endpoint is not a declared vertex."""


class IsolatedVertex(ValidationError):
    """Every metric-graph vertex must meet at least one edge."""


class MeshTooCoarse(ValidationError):
    """Discretization step h must satisfy h <= l_min / 4."""


# -- numerics --------------------------------------------------------------

class EigensolverFailure(NumericsError):
    """The dense symmetric eigensolver did not converge."""


class KrylovBreakdown(NumericsError):
    """Shift-and-invert Lanczos did not converge within its step cap."""


class NoSpectralGap(NumericsError):
    """E1 - E0 below resolution; asymptotic rates are meaningless."""


# -- invariants ------------------------------------------------------------

class PositivityConnectivityMismatch(InvariantViolation):
    """Positivity-improving verdict disagrees with graph connectivity."""


class EquivalenceViolation(InvariantViolation):
    """The admissibility criteria (i), (ii), (iii) returned different verdicts."""
