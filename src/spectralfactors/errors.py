"""Exception hierarchy for the spectralfactors package.

All errors signal either a violated precondition (the input is outside the
supported class) or a numerical breakdown (a rank/definiteness decision could
not be made at the configured tolerances).  Mathematical failure of a
*candidate* object under verification is reported through reports, not
exceptions.
"""


class SpectralFactorsError(Exception):
    """Base class for all package errors."""


# --- dense matrix kernels ---------------------------------------------------

class SingularSteinOperator(SpectralFactorsError):
    """The Stein operator is singular: an eigenvalue pair of the state
    matrix has product one (min |1 - lambda_i lambda_j| names the margin)."""


class NotPositiveDefinite(SpectralFactorsError):
    """A symmetric matrix required to be positive definite is not."""


class RankDeficientBasis(SpectralFactorsError):
    """A matrix supplied as a subspace basis does not have full column rank."""


class AmbiguousEigenspace(SpectralFactorsError):
    """A selected eigenvalue has multiplicity greater than one; the invariant
    subspace is not unique and an explicit basis must be supplied."""


class ComplexPairSplit(SpectralFactorsError):
    """A selection includes only one member of a complex-conjugate eigenvalue
    pair; pairs must be selected atomically."""


# --- state-space algebra ----------------------------------------------------

class DimensionMismatch(SpectralFactorsError):
    """Realization dimensions are incompatible for the requested operation."""


class EvaluationAtPole(SpectralFactorsError):
    """Evaluation point is too close to a pole of the realization."""


class SingularFeedthrough(SpectralFactorsError):
    """The feedthrough matrix D is singular or too ill conditioned to
    invert."""


class ParameterHitsSpectrum(SpectralFactorsError):
    """The Moebius parameter collides with the spectrum of the state
    matrix."""


class NoParameterFound(SpectralFactorsError):
    """No admissible Moebius parameter was found (practically
    unreachable)."""


# --- extremal factors and conjugate phase -----------------------------------

class NotOuter(SpectralFactorsError):
    """The supplied realization is not a valid outer (minimum-phase) factor:
    poles or zeros are not strictly inside the unit circle, the state or zero
    matrix is singular, or the zero-direction Stein solution X fails its
    definiteness test: its largest eigenvalue must lie below
    -rank_rel_tol |lambda_min(X)|.  That also refuses a negative definite X
    with cond X above 1/rank_rel_tol, so the message names the eigenvalue,
    the threshold and cond X.  It is the only sign test on a Stein
    solution: with Z > 0 it makes Y = Z - X^{-1} positive definite."""


class GramianIdentityViolation(SpectralFactorsError):
    """An all-pass completion (the conjugate phase function or one of its
    divisors) violates M^T diag(Q, -I) M = diag(Q, -I) beyond tolerance,
    with M = [[A, B], [C, D]] and Q its Stein solution; the message names
    the relative residuals."""


# --- all-pass divisors --------------------------------------------------------

class InvalidSubspace(SpectralFactorsError):
    """A subspace specification does not describe an invariant subspace of
    the conjugate phase state matrix."""


class NotInvariant(SpectralFactorsError):
    """The range of the supplied projector is not an invariant subspace."""


class CompressionNotPD(SpectralFactorsError):
    """An all-pass completion failed: [A^T Q, -C^T] has rank below n, so the
    diag(Q, -I)-orthogonal complement of [A; C] is not m-dimensional, or the
    complement's Gram matrix [B; D]^T diag(Q, -I) [B; D] is not negative
    definite: the compressed Stein solution Q is numerically singular."""


class DegreeAdditivityViolation(SpectralFactorsError):
    """A divisor's degrees cannot be certified to add up to the degree of
    the conjugate phase function: the projector's range and P0 times its
    orthogonal complement fail to form a direct sum (the message names the
    margin)."""


# --- factor generation and verification --------------------------------------

class DegreeViolation(SpectralFactorsError):
    """A generated factor's closed form fails its certificate: the modes it
    deflates get input (numerical failure; the message names the residual)."""


class SpectrumMismatch(SpectralFactorsError):
    """A generated factor does not reproduce the spectral density of the
    outer factor (numerical failure signal)."""


class NotAFactor(SpectralFactorsError):
    """The candidate is not a spectral factor of the same spectral density
    (extracted quotient is not all-pass)."""


class NotMinimalFactor(SpectralFactorsError):
    """The candidate is a spectral factor but not minimal: its degree, or
    its divisor's, differs from what its pole/zero inventory certifies."""
