"""Extremal spectral factors and the conjugate phase function.

Input contract: a minimal realization of the outer (minimum-phase) spectral
factor W-, square with invertible feedthrough, poles and zeros strictly
inside the unit circle.  :func:`extremal_set` is the one construction of

* the stable/maximum-phase factor W+ and the all-pass quotient T1 =
  W-^{-1} W+  (zeros flipped outside the circle),
* the conjugate outer factor Wbar+ and the all-pass quotient T2 =
  W+^{-1} Wbar+  (poles flipped outside the circle);

:func:`conjugate_phase` assembles T = T1 T2 with its structural Gramian P0
and the explicit inverse used by the divisor parametrization.  A constant
W- runs the same code on empty state blocks.

Outer-ness is validated rather than trusted: every sign and definiteness
claim downstream depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EvaluationAtPole,
    GramianIdentityViolation,
    NotOuter,
    NotPositiveDefiniteY,
)
from .matnum import DEFAULT_TOL, ToleranceConfig, solve_stein, sym_sqrt
from .statespace import (
    Realization,
    _circle,
    evalfr_many,
    inverse,
    mcmillan_degree,
)

__all__ = [
    "ExtremalSet",
    "ConjugatePhase",
    "GramianCheck",
    "validate_outer",
    "extremal_set",
    "conjugate_phase",
    "spectrum_sample",
    "spectrum_samples",
    "is_all_pass",
    "allpass_residual",
    "check_gramian_identities",
]

_STABILITY_MARGIN = 1e-8

# Sampled all-pass certificates accumulate circle-evaluation error, so they
# run at a looser threshold than equation residuals.
ALLPASS_CERT_TOL = 1e-7


def validate_outer(w: Realization, config: ToleranceConfig = DEFAULT_TOL):
    """Check that ``w`` is a usable minimal outer factor.

    Requires: square with invertible D; A and the zero matrix invertible and
    with spectra strictly inside the open unit disc (margin 1e-8); minimal
    state dimension.  Returns the inverse W^{-1} on success: its state matrix
    is the zero matrix Gamma = A - B D^{-1} C and its feedthrough is D^{-1}.

    Raises NotOuter (spectrum, invertibility or minimality violations) or
    SingularFeedthrough.
    """
    if w.n_in != w.n_out:
        raise NotOuter(f"outer factor must be square, got {w.n_out}x{w.n_in}")
    w_inv = inverse(w, config)
    if w.n == 0:
        return w_inv
    for m, what in ((w.a, "pole"), (w_inv.a, "zero")):
        eigs = np.linalg.eigvals(m)
        radius = float(np.max(np.abs(eigs)))
        if radius >= 1.0 - _STABILITY_MARGIN:
            raise NotOuter(
                f"not outer: {what} at modulus {radius:.6g} is not strictly "
                "inside the unit circle"
            )
        if float(np.min(np.abs(eigs))) <= _STABILITY_MARGIN:
            raise NotOuter(
                f"{what} matrix is singular; apply a Moebius change of "
                "variable first"
            )
    if mcmillan_degree(w, config) != w.n:
        raise NotOuter("realization is not minimal")
    return w_inv


@dataclass(frozen=True)
class ExtremalSet:
    """The extremal factors of the spectral density of W- together with the
    stage quotients and the Stein solutions of the construction chain.

    The stage blocks are read from the realizations: Gamma, G1, H1, U1 are
    ``t1.a/.b/.c/.d``, G2, H2, U2 are ``t2.b/.c/.d`` (``t2.a`` is A^{-T}),
    and B+, D+ are ``w_plus.b/.d``.
    """

    w_minus: Realization
    w_plus: Realization
    w_bar_plus: Realization
    t1: Realization
    t2: Realization
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


def extremal_set(w_minus: Realization,
                 config: ToleranceConfig = DEFAULT_TOL) -> ExtremalSet:
    """Validate W- and build its extremal factors in two all-pass stages.

    * Zero flip: X solves  Gamma^T X Gamma = X + H1^T H1  (H1 = D^{-1} C)
      and must be negative definite; T1 = W-^{-1} W+, and W+ = W- T1 keeps
      A and carries the zeros of W- reflected outside the circle.
    * Pole flip: Y solves  Y = A Y A^T + B+ B+^T  and must be positive
      definite; T2 = W+^{-1} Wbar+, and Wbar+ = W+ T2 is realized directly
      on n states with state matrix A^{-T}.

    Z = Y + X^{-1} is then checked against  Z = B B^T + A Z A^T.  Raises
    NotOuter, SingularFeedthrough, NotPositiveDefiniteY or
    GramianIdentityViolation.
    """
    w_inv = validate_outer(w_minus, config)
    a, b, c, d = w_minus.a, w_minus.b, w_minus.c, w_minus.d
    eye = np.eye(w_minus.n_in)

    gamma = w_inv.a
    h1 = w_inv.d @ c
    x = solve_stein(gamma, h1.T @ h1, config)
    wx = np.linalg.eigvalsh(x)
    if x.size and wx[-1] >= -config.rank_rel_tol * abs(wx[0]):
        raise NotOuter(
            "zero-direction Stein solution is not negative definite; the "
            "realization is not a minimal outer factor"
        )
    x_inv = np.linalg.inv(x)
    u1 = sym_sqrt(eye + h1 @ x_inv @ h1.T, config)
    g1 = gamma @ x_inv @ h1.T @ np.linalg.inv(u1)
    t1 = Realization(gamma, g1, h1, u1)
    w_plus = Realization(a, b @ u1 + g1, c, d @ u1)

    a_inv_t = np.linalg.inv(a).T
    b_plus = w_plus.b
    h2 = b_plus.T @ a_inv_t
    # Reachability form Y = A Y A^T + B+ B+^T of the pole-direction Stein
    # equation; its right-hand side is far better scaled than H2^T H2 when
    # A has small eigenvalues.
    y = solve_stein(a.T, -(b_plus @ b_plus.T), config)
    wy = np.linalg.eigvalsh(y)
    if y.size and wy[0] <= config.rank_rel_tol * abs(wy[-1]):
        raise NotPositiveDefiniteY(
            "pole-direction Stein solution is not positive definite"
        )
    y_inv = np.linalg.inv(y)
    u2 = sym_sqrt(eye + h2 @ y_inv @ h2.T, config)
    g2 = a_inv_t @ y_inv @ h2.T @ np.linalg.inv(u2)
    t2 = Realization(a_inv_t, g2, h2, u2)
    # Direct n-state realization of W+ T2: the stable part cancels exactly.
    w_bar_plus = Realization(a_inv_t, g2, c @ y + w_plus.d @ h2,
                             w_plus.d @ u2)

    z = y + x_inv
    resid = np.linalg.norm(z - b @ b.T - a @ z @ a.T)
    if resid > config.residual_tol * (1.0 + np.linalg.norm(z)):
        raise GramianIdentityViolation(
            f"Z = B B^T + A Z A^T fails with residual {resid:.3e}"
        )
    return ExtremalSet(w_minus=w_minus, w_plus=w_plus, w_bar_plus=w_bar_plus,
                       t1=t1, t2=t2, x=x, y=y, z=z)


@dataclass(frozen=True)
class GramianCheck:
    """Residuals of the structural identities of the conjugate phase
    realization and its Gramian."""

    state_residual: float        # A P0 A^T - P0 - B B^T
    cross_residual: float        # A P0 C^T - B D^T
    output_residual: float       # I + C P0 C^T - D D^T
    inverse_residual: float      # A^T P0^{-1} A - P0^{-1} - C^T C
    passed: bool

    def residuals(self):
        return {
            "state": self.state_residual,
            "cross": self.cross_residual,
            "output": self.output_residual,
            "inverse": self.inverse_residual,
        }


@dataclass(frozen=True)
class ConjugatePhase:
    """Minimal realization of the conjugate phase function T = W-^{-1} Wbar+
    with its structural Gramian.

    The state matrix of ``t`` is block diagonal: the leading ``n_gamma``
    states carry the zero matrix of W- (spectrum inside the circle), the
    trailing ``n_a`` states carry A^{-T} (spectrum outside).  ``p0_inv`` is
    assembled from the closed form [[X, -I], [-I, Z]] rather than by
    numerical inversion.  ``gramian`` holds the identity residuals that
    :func:`conjugate_phase` certified.
    """

    t: Realization
    p0: np.ndarray
    p0_inv: np.ndarray
    n_gamma: int
    n_a: int
    gamma: np.ndarray
    a_inv_t: np.ndarray
    extremals: ExtremalSet
    gramian: GramianCheck


def check_gramian_identities(cp: ConjugatePhase,
                             config: ToleranceConfig = DEFAULT_TOL) -> GramianCheck:
    """Residuals of the four defining identities of the structural Gramian.

    Residual fields are absolute; the pass decision is relative to the
    magnitude of the terms entering each identity (the Gramian and its
    inverse can span many orders of magnitude).
    """
    a, b, c, d = cp.t.a, cp.t.b, cp.t.c, cp.t.d
    p0, p0_inv = cp.p0, cp.p0_inv
    m = d.shape[0]
    nrm = np.linalg.norm
    r1 = nrm(a @ p0 @ a.T - p0 - b @ b.T)
    r2 = nrm(a @ p0 @ c.T - b @ d.T)
    r3 = nrm(np.eye(m) + c @ p0 @ c.T - d @ d.T)
    r4 = nrm(a.T @ p0_inv @ a - p0_inv - c.T @ c)
    tol = config.residual_tol
    ok = (
        r1 <= tol * (1.0 + nrm(p0) + nrm(b @ b.T))
        and r2 <= tol * (1.0 + nrm(b @ d.T) + nrm(p0))
        and r3 <= tol * (1.0 + nrm(d @ d.T) + nrm(p0))
        and r4 <= tol * (1.0 + nrm(p0_inv) + nrm(c.T @ c))
    )
    return GramianCheck(
        state_residual=float(r1), cross_residual=float(r2),
        output_residual=float(r3), inverse_residual=float(r4),
        passed=bool(ok),
    )


def conjugate_phase(w_minus: Realization,
                    config: ToleranceConfig = DEFAULT_TOL) -> ConjugatePhase:
    """Assemble the conjugate phase function of the spectral density of W-.

    The 2n-state realization is built in the basis that decouples the two
    blocks: state matrix diag(Gamma, A^{-T}), input matrix stacked from
    [G1 U2 + X^{-1} G2; G2], output matrix [H1 | B^T A^{-T}], feedthrough
    U1 U2.  The structural Gramian identities are verified before returning.

    Raises GramianIdentityViolation if any identity residual exceeds
    tolerance or if the realization is not minimal of dimension 2n.
    """
    ext = extremal_set(w_minus, config)
    n = w_minus.n
    t1, t2 = ext.t1, ext.t2
    x_inv = np.linalg.inv(ext.x)
    y_inv = np.linalg.inv(ext.y)

    a_t = np.zeros((2 * n, 2 * n))
    a_t[:n, :n] = t1.a
    a_t[n:, n:] = t2.a
    b_t = np.vstack([t1.b @ t2.d + x_inv @ t2.b, t2.b])
    c_t = np.hstack([t1.c, w_minus.b.T @ t2.a])
    t = Realization(a_t, b_t, c_t, t1.d @ t2.d)

    p0 = np.block([[x_inv + x_inv @ y_inv @ x_inv, x_inv @ y_inv],
                   [y_inv @ x_inv, y_inv]])
    p0 = 0.5 * (p0 + p0.T)
    p0_inv = np.block([[ext.x, -np.eye(n)], [-np.eye(n), ext.z]])

    inv_resid = np.linalg.norm(p0 @ p0_inv - np.eye(2 * n))
    if inv_resid > config.residual_tol * (1.0 + np.linalg.norm(p0_inv)):
        raise GramianIdentityViolation(
            f"closed-form Gramian inverse fails with residual {inv_resid:.3e}"
        )
    # The check reads only t, p0 and p0_inv; its result is carried in the
    # returned record.
    cp = ConjugatePhase(t=t, p0=p0, p0_inv=p0_inv, n_gamma=n, n_a=n,
                        gamma=t1.a, a_inv_t=t2.a, extremals=ext, gramian=None)
    check = check_gramian_identities(cp, config)
    if not check.passed:
        raise GramianIdentityViolation(
            f"structural Gramian identities fail: {check.residuals()}"
        )
    if mcmillan_degree(t, config) != 2 * n:
        raise GramianIdentityViolation(
            "conjugate phase realization is not minimal of dimension 2n"
        )
    return replace(cp, gramian=check)


def spectrum_sample(w: Realization, z,
                    config: ToleranceConfig = DEFAULT_TOL):
    """Spectral density sample Phi(z) = W(z) W^T(1/z).

    On the unit circle this equals W(z) W(z)^H and is Hermitian positive
    semi-definite by construction.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) <= 1e-9:
        return spectrum_samples(w, [z], config)[0]
    if z == 0:
        raise EvaluationAtPole("spectral density sample undefined at z = 0")
    v = evalfr_many(w, [z], config)[0]
    v_rec = evalfr_many(w, [1.0 / z], config)[0]
    return v @ v_rec.T


def spectrum_samples(w: Realization, zs,
                     config: ToleranceConfig = DEFAULT_TOL):
    """Batched spectral density samples on the unit circle."""
    vals = evalfr_many(w, zs, config)
    phi = vals @ np.conj(np.swapaxes(vals, -1, -2))
    return 0.5 * (phi + np.conj(np.swapaxes(phi, -1, -2)))


def allpass_residual(r: Realization,
                     config: ToleranceConfig = DEFAULT_TOL) -> float:
    """Max deviation of G(z) G(z)^H from the identity over circle samples.

    Returns ``inf`` when a sample hits a pole (a pole on the circle rules
    out the all-pass property by definition).
    """
    if r.n_in != r.n_out:
        raise ValueError("all-pass check requires a square system")
    zs = _circle(config.circle_samples)
    try:
        vals = evalfr_many(r, zs, config)
    except EvaluationAtPole:
        return float("inf")
    gap = vals @ np.conj(np.swapaxes(vals, -1, -2)) - np.eye(r.n_out)
    return float(np.max(np.abs(gap)))


def is_all_pass(r: Realization, tol: float | None = None,
                config: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff ||G(z) G(z)^H - I|| <= tol at every circle sample."""
    if tol is None:
        tol = config.residual_tol
    return allpass_residual(r, config) <= tol
