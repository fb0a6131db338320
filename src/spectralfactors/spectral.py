"""Extremal spectral factors and the conjugate phase function.

Input contract: a minimal realization of the outer (minimum-phase) spectral
factor W-, square with invertible feedthrough, poles and zeros strictly
inside the unit circle.  :func:`conjugate_phase` is the one construction.

It builds T = W-^{-1} Wbar+ from its state and output matrices alone,
A_T = diag(Gamma, A^{-T}) and C_T = [D^{-1} C | B^T A^{-T}], whose Stein
solution Q = [[X, -I], [-I, Z]] needs no inverse: its input and feedthrough
are the all-pass completion of (C_T, A_T) from Q (Glover, Int. J. Control
39, 1984).  An all-pass function is fixed by an observable (C, A) up to a
constant orthogonal right factor, so every left divisor T_l is the same
completion of a compression (:mod:`.divisors`), and every minimal factor
is W- T_l, in closed form on n states with no reduction.  The extremal
factors are two members of that family:

* the stable maximum-phase factor W+ = W- T_Gamma, with T_Gamma the divisor
  of the full Gamma block (zeros flipped outside the circle),
* the conjugate outer factor Wbar+ = W- T (poles flipped outside the
  circle).

A constant W- runs the same code on empty state blocks.  Outer-ness is
validated rather than trusted: every sign and definiteness claim downstream
depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import polar, svd

from .errors import (
    CompressionNotPD,
    DegreeViolation,
    DimensionMismatch,
    EvaluationAtPole,
    GramianIdentityViolation,
    NotOuter,
)
from .matnum import (
    DEFAULT_TOL,
    ToleranceConfig,
    _block_diag,
    eigen_blocks,
    solve_stein,
)
from .statespace import (
    Realization,
    _circle,
    _inventory,
    choose_moebius_parameter,
    evalfr_many,
    inverse,
    mcmillan_degree,
    moebius,
)

__all__ = [
    "ExtremalSet",
    "ConjugatePhase",
    "GramianCheck",
    "validate_outer",
    "extremal_set",
    "conjugate_phase",
    "spectrum_samples",
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
    degree = mcmillan_degree(w, config)
    if degree != w.n:
        raise NotOuter(f"realization is not minimal: McMillan degree "
                       f"{degree} on {w.n} states")
    return w_inv


@dataclass(frozen=True)
class ExtremalSet:
    """The extremal factors W+ = W- T_Gamma and Wbar+ = W- T of the
    spectral density of W-, with the Stein solutions X and Z (the diagonal
    blocks of Q) and Y = A Y A^T + B+ B+^T, B+ = ``w_plus.b``.  Y equals
    Z - X^{-1}, positive definite because X < 0 < Z."""

    w_minus: Realization
    w_plus: Realization
    w_bar_plus: Realization
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class GramianCheck:
    """Relative residuals of the identities that make (A, B, C, D) all-pass
    with the Stein solution Q:  M^T J M = J  for M = [[A, B], [C, D]] and
    J = diag(Q, -I), each block divided by the size of its terms."""

    cross_residual: float        # A^T Q B - C^T D
    output_residual: float       # B^T Q B - D^T D + I
    inverse_residual: float      # A^T Q A - Q - C^T C
    passed: bool

    def residuals(self):
        return {
            "cross": self.cross_residual,
            "output": self.output_residual,
            "inverse": self.inverse_residual,
        }

    def require(self, what: str) -> GramianCheck:
        """Return the check, or raise GramianIdentityViolation naming
        ``what`` and the residuals if it failed."""
        if not self.passed:
            raise GramianIdentityViolation(
                f"{what} fails its all-pass identities: relative residuals "
                f"{self.residuals()}"
            )
        return self


def _j_identities(a, b, c, d, q, config) -> GramianCheck:
    """Check M^T diag(Q, -I) M = diag(Q, -I) block by block, each residual
    relative to the norms of the terms of its block, against
    ``config.residual_tol``."""
    nrm = np.linalg.norm
    na, nb, nc, nd, nq = (nrm(x) for x in (a, b, c, d, q))
    qa, qb = q @ a, q @ b
    blocks = (
        (a.T @ qb - c.T @ d, na * nq * nb + nc * nd),
        (b.T @ qb - d.T @ d + np.eye(d.shape[1]),
         nb * nq * nb + nd * nd + np.sqrt(d.shape[1])),
        (a.T @ qa - q - c.T @ c, na * nq * na + nq + nc * nc),
    )
    res = [float(nrm(r) / s) if s else 0.0 for r, s in blocks]
    return GramianCheck(*res, passed=max(res) <= config.residual_tol)


def _allpass_completion(a, c, q, what, config):
    """Certified all-pass completion (A, B, C, D) of an observable (C, A)
    from its Stein solution Q, with  A^T Q A - Q = C^T C.

    [B; D] spans the diag(Q, -I)-orthogonal complement of [A; C], the last m
    right singular vectors of [A^T Q, -C^T]; its m x m Gram matrix is
    negative definite whenever Q is nonsingular (inertia), and scaling by it
    gives B^T Q B - D^T D = -I, D taken to its positive definite polar
    factor.  Returns the realization and its :func:`_j_identities` check.

    Raises CompressionNotPD if the gap s_n / s_1 <= eps (n + m) or the Gram
    matrix fails the definiteness test, and GramianIdentityViolation naming
    ``what`` if the identities fail.
    """
    n, m = a.shape[0], c.shape[0]
    _, s, vh = svd(np.hstack([a.T @ q, -c.T]))  # vh = I if n = 0
    if n and s[-1] <= np.finfo(float).eps * (n + m) * s[0]:
        raise CompressionNotPD(f"completion complement is not {m}-dimensional"
                               f": gap s_n/s_1 = {s[-1]:.3e}/{s[0]:.3e}")
    top, bottom = vh[n:, :n].T, vh[n:, n:].T
    gram = bottom.T @ bottom - top.T @ q @ top
    w, u = np.linalg.eigh(0.5 * (gram + gram.T))
    if w[0] <= config.rank_rel_tol * w[-1]:
        raise CompressionNotPD(
            f"completion Gram matrix is not negative definite (eigenvalues "
            f"of its negative span {w[0]:.3e} to {w[-1]:.3e})"
        )
    bd = vh[n:].T @ (u / np.sqrt(w))
    rot, _ = polar(bd[n:], side="left")
    bd = bd @ rot.T
    b, d = bd[:n], bd[n:]
    check = _j_identities(a, b, c, d, q, config).require(what)
    return Realization(a, b, c, d), check


def _factor(w, z, f, v, t_l, k_a, config):
    """W- T_l in closed form on n states, for W- = ``w`` = (A, B, C, D),
    Z = A Z A^T + B B^T, F = A^{-T} and T_l on the invariant range of
    V = [V_top; V_bot].  As W- H1 (zI - Gamma)^{-1} = C (zI - A)^{-1} and
    B B^T F = (zI - A) Z - Z (zI - F), W- T_l = D D_l + C (zI - A)^{-1} B0 +
    (C Z + D B^T F) (zI - F)^{-1} V_bot B_l, B0 = B D_l + (V_top - Z V_bot) B_l.
    The ``k_a`` modes of A along V_a, the basis of the A^T-invariant range
    V_bot, get no input, so they deflate onto U, the basis of its
    A-invariant complement (Bart, Gohberg, Kaashoek & Van Dooren 1980).
    Raises DegreeViolation, naming the residual, when ||V_a^T B0|| exceeds
    ``config.residual_tol`` times the size of its terms."""
    a, b, c, d, n = w.a, w.b, w.c, w.d, w.n
    # V_bot V_bot^T projects onto range V_bot: eigenvalues 0 (U), then 1 (V_a)
    e = np.linalg.eigh(v[n:] @ v[n:].T)[1]
    u, v_a = e[:, :n - k_a], e[:, n - k_a:]
    b_d, b_top, b_bot = b @ t_l.d, v[:n] @ t_l.b, v[n:] @ t_l.b
    b0 = b_d + b_top - z @ b_bot
    nrm = np.linalg.norm
    residual = float(nrm(v_a.T @ b0))
    scale = nrm(b_d) + nrm(b_top) + nrm(z) * nrm(b_bot)
    if residual > config.residual_tol * scale:
        raise DegreeViolation(
            f"cancelled modes of the generated factor get input: residual "
            f"{residual:.3e} > {config.residual_tol:.1e} x {scale:.3e}"
        )
    return Realization(_block_diag(u.T @ a @ u, v_a.T @ f @ v_a),
                       np.vstack([u.T @ b0, v_a.T @ b_bot]),
                       np.hstack([c @ u, (c @ z + d @ b.T @ f) @ v_a]),
                       d @ t_l.d)


@dataclass(frozen=True)
class ConjugatePhase:
    """Minimal realization of the conjugate phase function T = W-^{-1} Wbar+
    with its Stein solution: the context of the whole factor family, since
    every minimal factor is W- T_l for a left divisor T_l of T.

    The state matrix of ``t`` is diag(Gamma, A^{-T}): ``n_gamma`` states
    carry the zero matrix ``gamma`` of W- (spectrum inside the circle), the
    ``n_a`` after them ``a_inv_t`` (outside).  ``p0_inv`` is its Stein
    solution Q = [[X, -I], [-I, Z]], the inverse of the structural Gramian
    P0, assembled without any inversion; ``gramian`` holds the identity
    residuals certified with it.  T is minimal by construction: (C_T, A_T)
    is observable blockwise, and an all-pass realization with observable
    (C, A) and nonsingular Q is controllable.  ``gamma_blocks`` and
    ``a_blocks`` are the :func:`.matnum.eigen_blocks` that the enumeration
    toggles and that ``SubspaceSpec`` indices refer to.

    ``config`` is the config T was built with.  ``extremals.w_minus`` is
    the working W-: ``w_original``, the caller's W- object, or its image
    under the Moebius change of variable with parameter ``moebius_a`` (None
    when the family is ungated, and then the two are one object).  Every
    divisor carries its phase, and :mod:`.factors` reads the densities of
    both W- from it, each sampled on first read at the half-circle points
    of ``config`` and None where a sample hits a pole.
    """

    t: Realization
    p0_inv: np.ndarray
    n_gamma: int
    n_a: int
    gamma: np.ndarray
    a_inv_t: np.ndarray
    extremals: ExtremalSet
    gramian: GramianCheck
    gamma_blocks: tuple
    a_blocks: tuple
    config: ToleranceConfig
    moebius_a: float | None
    w_original: Realization

    @cached_property
    def w_minus_density(self):
        return _density(self.extremals.w_minus, self.config)

    @cached_property
    def w_original_density(self):
        return _density(self.w_original, self.config)


def check_gramian_identities(cp: ConjugatePhase,
                             config: ToleranceConfig = DEFAULT_TOL) -> GramianCheck:
    """Relative residuals of the three all-pass identities of T with its
    Stein solution Q (see :class:`GramianCheck`)."""
    return _j_identities(cp.t.a, cp.t.b, cp.t.c, cp.t.d, cp.p0_inv, config)


def _gate(w, moebius_param, config):
    """The working model and Moebius parameter: ``None`` or ``False`` keeps
    ``w`` (parameter None), ``True`` picks a parameter clear of the
    eigenvalues of its A and zero matrix, read unreduced, and a float is
    the parameter."""
    if moebius_param is None or moebius_param is False:
        return w, None
    if moebius_param is True:
        pz = _inventory(w, config)
        zeros = pz.zeros if pz.zeros is not None else []
        a = choose_moebius_parameter(pz.poles, zeros, config)
    else:
        a = float(moebius_param)
    return moebius(w, a, config), a


def conjugate_phase(w_minus: Realization,
                    config: ToleranceConfig = DEFAULT_TOL,
                    moebius_param: float | bool | None = None
                    ) -> ConjugatePhase:
    """Validate W- and build its conjugate phase function and extremal set,
    after the Moebius change of variable that ``moebius_param`` gates
    (:func:`_gate`; the default works on W- as given).

    X solves  Gamma^T X Gamma = X + H1^T H1  (H1 = D^{-1} C) and must be
    negative definite, its largest eigenvalue below -rank_rel_tol
    |lambda_min(X)|; Z solves  Z = A Z A^T + B B^T.  The 2n-state
    realization of T has state matrix diag(Gamma, A^{-T}) and output matrix
    [H1 | B^T A^{-T}]; its input and feedthrough matrices are the all-pass
    completion from Q = [[X, -I], [-I, Z]], with a symmetric positive
    definite feedthrough.  The off-diagonal -I is exact: it is the identity
    Gamma^T + H1^T B^T = A^T.  The extremal factors are the closed form
    (:func:`_factor`) of W- T_Gamma, with T_Gamma the completion of
    (H1, Gamma) from X, and of Wbar+ = W- T.  Gamma and A^{-T} are clustered
    once, here.

    Raises NotOuter, SingularFeedthrough, CompressionNotPD if a completion
    Gram matrix is not definite, GramianIdentityViolation if T or T_Gamma
    fails its all-pass identities, DegreeViolation from the closed form,
    and from the gate the errors of :func:`.statespace.moebius`.
    """
    w_original = w_minus
    w_minus, a_moebius = _gate(w_original, moebius_param, config)
    w_inv = validate_outer(w_minus, config)
    a, b, c, d = w_minus.a, w_minus.b, w_minus.c, w_minus.d
    n = w_minus.n
    gamma = w_inv.a
    h1 = w_inv.d @ c
    x = solve_stein(gamma, h1.T @ h1, config)
    wx = np.linalg.eigvalsh(x)
    if x.size and wx[-1] >= -config.rank_rel_tol * abs(wx[0]):
        size = np.abs(wx)
        cond = size.max() / size.min() if size.min() else float("inf")
        raise NotOuter(
            f"zero-direction Stein solution X fails the definiteness test: "
            f"its largest eigenvalue {wx[-1]:.3e} is not below "
            f"-rank_rel_tol |lambda_min(X)| = "
            f"{-config.rank_rel_tol * abs(wx[0]):.3e} (cond X = {cond:.3e})"
        )
    z = solve_stein(a.T, -(b @ b.T), config)
    a_inv_t = np.linalg.inv(a).T
    a_t = _block_diag(gamma, a_inv_t)
    c_t = np.hstack([h1, b.T @ a_inv_t])
    q = np.block([[x, -np.eye(n)], [-np.eye(n), z]])
    t, check = _allpass_completion(a_t, c_t, q, "conjugate phase", config)
    t_gamma, _ = _allpass_completion(gamma, h1, x, "full-Gamma divisor",
                                     config)
    w_plus = _factor(w_minus, z, a_inv_t, np.eye(2 * n, n), t_gamma, 0, config)
    w_bar_plus = _factor(w_minus, z, a_inv_t, np.eye(2 * n), t, n, config)
    y = solve_stein(a.T, -(w_plus.b @ w_plus.b.T), config)
    ext = ExtremalSet(w_minus=w_minus, w_plus=w_plus, w_bar_plus=w_bar_plus,
                      x=x, y=y, z=z)
    return ConjugatePhase(t=t, p0_inv=q, n_gamma=n, n_a=n, gamma=gamma,
                          a_inv_t=a_inv_t, extremals=ext, gramian=check,
                          gamma_blocks=tuple(eigen_blocks(gamma, config)),
                          a_blocks=tuple(eigen_blocks(a_inv_t, config)),
                          config=config, moebius_a=a_moebius,
                          w_original=w_original)


def extremal_set(w_minus: Realization,
                 config: ToleranceConfig = DEFAULT_TOL) -> ExtremalSet:
    """The extremal set that :func:`conjugate_phase` builds with T.

    No library path calls it: it stays because the benchmark's span tracer
    names it as a layer."""
    return conjugate_phase(w_minus, config).extremals


def spectrum_samples(w: Realization, zs,
                     config: ToleranceConfig = DEFAULT_TOL):
    """Batched spectral density samples on the unit circle."""
    vals = evalfr_many(w, zs, config)
    phi = vals @ np.conj(np.swapaxes(vals, -1, -2))
    return 0.5 * (phi + np.conj(np.swapaxes(phi, -1, -2)))


def _density(w, config):
    """The density of ``w`` at the half-circle points of ``config``, or
    None if a sample hits a pole."""
    try:
        return spectrum_samples(w, _circle(config.circle_samples), config)
    except EvaluationAtPole:
        return None


def allpass_residual(r: Realization,
                     config: ToleranceConfig = DEFAULT_TOL) -> float:
    """Max deviation of G(z) G(z)^H from the identity over circle samples.

    The max over ``circle_samples`` points is taken at the floor(k/2) + 1
    of them on the closed upper half-circle: G(conj z) = conj G(z) for a
    real system, so the others repeat their deviations.  Returns ``inf``
    when a sample hits a pole (a pole on the circle rules out the all-pass
    property by definition).  Raises DimensionMismatch for a non-square
    system.
    """
    if r.n_in != r.n_out:
        raise DimensionMismatch("all-pass check requires a square system")
    zs = _circle(config.circle_samples)
    try:
        vals = evalfr_many(r, zs, config)
    except EvaluationAtPole:
        return float("inf")
    gap = vals @ np.conj(np.swapaxes(vals, -1, -2)) - np.eye(r.n_out)
    return float(np.max(np.abs(gap)))
