"""Algebra of rational matrices carried as state-space realizations.

A rational matrix G(z) = C (zI - A)^{-1} B + D is represented by the
quadruple (A, B, C, D); n = 0 encodes a constant.  All operations return new
realizations and never mutate their inputs.  Realizations are compared by
sampling, never by canonical forms: :func:`eval_gap` bounds the gap between
two transfer functions, ``factors.spectrum_gap`` between two spectral
densities, and ``spectral.allpass_residual`` measures the distance from the
all-pass property.  Each takes its max |.| over k equally spaced circle
points but evaluates only the floor(k/2) + 1 of them on the closed upper
half-circle (:func:`_circle`): a realization is real, so G(conj z) =
conj G(z), and the result is the same as over all k.

Every sample goes through one frequency-response kernel that reduces A once
for all points (Laub, IEEE TAC 26, 1981; SLICOT TB05AD implements his
Hessenberg variant).  For more than ``_LU_MAX_POINTS`` points it takes the
complex Schur form A = U T U^H (LAPACK ``gees``), whose diagonal also gives
the pole guard its eigenvalues, and solves each point by one
back-substitution through zI - T, in O(n^3 + k n^2 m) for k points of an
m-input system; for fewer points the Schur form costs more than it saves,
and each point is solved by batched LU in O(k n^3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import (
    DimensionMismatch,
    EvaluationAtPole,
    NoParameterFound,
    ParameterHitsSpectrum,
    SingularFeedthrough,
)
from .matnum import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "Realization",
    "PoleZeroReport",
    "constant",
    "identity",
    "evalfr_many",
    "series",
    "inverse",
    "moebius",
    "choose_moebius_parameter",
    "minimal",
    "mcmillan_degree",
    "poles_zeros",
    "eval_gap",
]


@dataclass(frozen=True)
class Realization:
    """State-space quadruple (A, B, C, D) of a proper rational matrix.

    ``n`` is the state dimension (0 for constants), ``n_in``/``n_out`` the
    input/output widths.  Construction validates dimension compatibility and
    finiteness of all entries.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        a = a.reshape(0, 0) if a.size == 0 else np.atleast_2d(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"A must be square, got {a.shape}")
        n = a.shape[0]
        d = np.atleast_2d(np.asarray(self.d, dtype=float))
        b = np.asarray(self.b, dtype=float)
        b = b.reshape(n, d.shape[1]) if b.size == 0 else np.atleast_2d(b)
        c = np.asarray(self.c, dtype=float)
        c = c.reshape(d.shape[0], n) if c.size == 0 else np.atleast_2d(c)
        for m_, name in ((a, "A"), (b, "B"), (c, "C"), (d, "D")):
            if m_.size and not np.all(np.isfinite(m_)):
                raise ValueError(f"{name} contains non-finite entries")
        if b.shape[0] != n or c.shape[1] != n:
            raise DimensionMismatch("B/C state dimensions do not match A")
        if d.shape != (c.shape[0], b.shape[1]):
            raise DimensionMismatch(
                f"D must be {(c.shape[0], b.shape[1])}, got {d.shape}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def n_in(self) -> int:
        return self.d.shape[1]

    @property
    def n_out(self) -> int:
        return self.d.shape[0]

    def __repr__(self):
        return f"Realization(n={self.n}, n_out={self.n_out}, n_in={self.n_in})"


def constant(d) -> Realization:
    """Constant rational matrix (state dimension zero)."""
    d = np.atleast_2d(np.asarray(d, dtype=float))  # Realization checks it
    return Realization(np.zeros((0, 0)), np.zeros((0, d.shape[1])),
                       np.zeros((d.shape[0], 0)), d)


def identity(m: int) -> Realization:
    return constant(np.eye(m))


@dataclass(frozen=True)
class PoleZeroReport:
    """Pole/zero inventory of the minimal realization.

    Poles and zeros are listed with multiplicity (repeated entries), sorted
    by real then imaginary part.  ``zeros`` is None when the feedthrough is
    not square invertible.
    """

    poles: np.ndarray
    zeros: np.ndarray | None
    degree: int

    def to_dict(self):
        def enc(v):
            return [[float(x.real), float(x.imag)] for x in v]
        return {
            "degree": self.degree,
            "poles": enc(self.poles),
            "zeros": None if self.zeros is None else enc(self.zeros),
        }


def _sorted_eigs(m):
    e = np.linalg.eigvals(m) if m.shape[0] else np.zeros(0, complex)
    return e[np.lexsort((e.imag, e.real))]


def _pole_distance(r: Realization, zs, eigs):
    """Distance of each sample in ``zs`` to the nearest of the eigenvalues
    ``eigs`` of A and the scale max(||A||, 1) that pole guards measure it
    against."""
    dist = np.min(np.abs(zs[:, None] - eigs[None, :]), axis=1)
    return dist, max(np.linalg.norm(r.a), 1.0)


# Point count up to which batched LU is faster than the Schur kernel: below
# about 48 points the Schur form costs more than the O(n) per point it
# saves (measured at n = 2..64, m = 2..16 with one OpenBLAS thread on a
# 2-core x86-64 virtual machine).
_LU_MAX_POINTS = 48
_ZGEES = get_lapack_funcs(("gees",), (np.zeros(0, complex),))[0]


def _points(zs):
    zs = np.asarray(zs, dtype=complex).ravel()
    if not np.all(np.isfinite(zs)):
        raise ValueError("evaluation points contain non-finite entries")
    return zs


def _decompose(a, k, eigs=None):
    """The decomposition of A that evaluating at k points needs: its
    eigenvalues, and for more than ``_LU_MAX_POINTS`` points the complex
    Schur form (T, U) whose diagonal they are read from; else None, for
    batched LU.  Eigenvalues the caller has already computed are reused."""
    if k <= _LU_MAX_POINTS or a.shape[0] == 0:
        return (np.linalg.eigvals(a) if eigs is None else eigs), None
    t, _, w, u, _, info = _ZGEES(lambda z: None, a.astype(complex),
                                 overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Schur decomposition did not converge (LAPACK info {info})")
    return w, (t, u)


def evalfr_many(r: Realization, zs, config: ToleranceConfig = DEFAULT_TOL):
    """Evaluate the transfer matrix at a batch of complex points.

    Returns an array of shape (len(zs), n_out, n_in).  For more than
    ``_LU_MAX_POINTS`` points A is reduced once to complex Schur form and
    each point costs one triangular solve, O(n^3 + k n^2 m) in all; fewer
    points are solved by batched LU, O(k n^3).  Raises ValueError for a
    non-finite point and EvaluationAtPole if any point is within the
    relative pole guard of the spectrum of A.
    """
    zs = _points(zs)
    return _evalfr(r, zs, _decompose(r.a, zs.size), config)


def _evalfr(r: Realization, zs, form, config):
    """:func:`evalfr_many` at the finite flat complex points ``zs``, with
    the decomposition ``form`` of A from :func:`_decompose`."""
    if r.n == 0:
        return np.broadcast_to(r.d.astype(complex),
                               (zs.size, r.n_out, r.n_in)).copy()
    eigs, schur = form
    dist, norm_a = _pole_distance(r, zs, eigs)
    bad = dist <= config.rank_rel_tol * (1.0 + np.abs(zs)) * norm_a
    if np.any(bad):
        raise EvaluationAtPole(
            f"evaluation point {zs[np.argmax(bad)]} is too close to a pole"
        )
    n, k, m = r.n, zs.size, r.n_in
    # Next to a pole the solve may overflow; the finiteness test below is
    # the signal, so numpy's warnings are not raised.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if schur is None:
            lhs = zs[:, None, None] * np.eye(n) - r.a
            rhs = np.broadcast_to(r.b.astype(complex), (k, n, m))
            try:
                vals = r.c @ np.linalg.solve(lhs, rhs) + r.d
            except np.linalg.LinAlgError as exc:  # exact hit despite the guard
                raise EvaluationAtPole("evaluation point is a pole") from exc
        else:
            # Back-substitution through (zI - T) x = U^H B for all points
            # at once: row i of x, shape (k, m), is stored as x[i].
            t, u = schur
            g = u.conj().T @ r.b
            shift = zs[None, :] - np.diag(t)[:, None]
            x = np.empty((n, k, m), dtype=complex)
            for i in range(n - 1, -1, -1):
                above = t[i, i + 1:] @ x[i + 1:].reshape(n - i - 1, k * m)
                x[i] = (g[i] + above.reshape(k, m)) / shift[i][:, None]
            vals = np.matmul(r.c @ u, x.transpose(1, 0, 2)) + r.d
    if not np.all(np.isfinite(vals)):
        raise EvaluationAtPole("evaluation overflowed next to a pole")
    return vals


def series(r1: Realization, r2: Realization) -> Realization:
    """Cascade realization of the product G1(z) G2(z).

    ``evalfr_many(series(r1, r2), zs) == evalfr_many(r1, zs) @
    evalfr_many(r2, zs)``.  The
    result has state dimension n1 + n2 and is not reduced.
    """
    if r1.n_in != r2.n_out:
        raise DimensionMismatch(
            f"cannot compose: left input width {r1.n_in} != right output "
            f"width {r2.n_out}"
        )
    n1, n2 = r1.n, r2.n
    a = np.zeros((n1 + n2, n1 + n2))
    a[:n1, :n1] = r1.a
    a[:n1, n1:] = r1.b @ r2.c
    a[n1:, n1:] = r2.a
    b = np.vstack([r1.b @ r2.d, r2.b])
    c = np.hstack([r1.c, r1.d @ r2.c])
    d = r1.d @ r2.d
    return Realization(a, b, c, d)


def _inv(m, err, what, config):
    """Inverse of ``m`` through its SVD; raises ``err`` naming ``what`` when
    ``m`` is not square or its relative rank gap is within tolerance."""
    if m.shape[0] != m.shape[1]:
        raise err(f"{what} is not square")
    if m.shape[0] == 0:
        return m.copy()
    u, s, vt = np.linalg.svd(m)
    if s[0] == 0.0 or s[-1] / s[0] <= config.rank_rel_tol:
        raise err(f"{what} is singular "
                  f"(condition ~{s[0] / max(s[-1], 1e-300):.2e})")
    return (vt.T / s) @ u.T


def _circle(k):
    """The floor(k/2) + 1 points e^{2 pi i j / k}, j = 0..floor(k/2), of the
    k equally spaced points on the unit circle: one of each conjugate pair
    z_j, z_{k-j} = conj z_j.  A real system has G(conj z) = conj G(z), and
    its poles come in conjugate pairs, so a max |.| over the k points, and
    whether any of them is at a pole, is decided on these."""
    return np.exp(2j * np.pi * np.arange(k // 2 + 1) / k)


def inverse(r: Realization, config: ToleranceConfig = DEFAULT_TOL) -> Realization:
    """Realization of G(z)^{-1} for square G with invertible feedthrough.

    The state matrix of the inverse is the zero matrix A - B D^{-1} C.
    """
    d_inv = _inv(r.d, SingularFeedthrough, "feedthrough D", config)
    a = r.a - r.b @ d_inv @ r.c
    return Realization(a, r.b @ d_inv, -d_inv @ r.c, d_inv)


def moebius(r: Realization, a: float,
            config: ToleranceConfig = DEFAULT_TOL) -> Realization:
    """Change of frequency variable G(lam) = F((lam + a) / (1 + a lam)).

    Poles move by p -> (p - a)/(1 - a p), the unit circle maps to itself and
    the McMillan degree is preserved.  ``moebius(moebius(r, a), -a)`` is
    eval-equal to ``r``.

    Raises
    ------
    ParameterHitsSpectrum
        If |a| >= 1 or 1/a is an eigenvalue of A (the transformed system
        would be improper).
    """
    if not abs(a) < 1.0:
        raise ParameterHitsSpectrum(f"|a| must be < 1, got {a}")
    if a == 0.0 or r.n == 0:
        return Realization(r.a, r.b, r.c, r.d)
    n = r.n
    e_inv = _inv(np.eye(n) - a * r.a, ParameterHitsSpectrum,
                 f"I - a A (1/a = {1.0 / a:.6g} hits the spectrum of A)",
                 config)
    a_new = e_inv @ (r.a - a * np.eye(n))
    b_new = e_inv @ r.b
    c_new = (1.0 - a * a) * r.c @ e_inv
    d_new = r.d + a * r.c @ e_inv @ r.b
    return Realization(a_new, b_new, c_new, d_new)


_PARAM_GRID = tuple(
    s * v for v in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9) for s in (1, -1)
)


def choose_moebius_parameter(poles, zeros,
                             config: ToleranceConfig = DEFAULT_TOL) -> float:
    """Pick a real Moebius parameter clear of the given poles and zeros.

    Scans the fixed grid +-0.1, ..., +-0.9, then 1000 uniform draws, and
    returns the first ``a`` with |a| <= 0.9 such that a, -a, 1/a and -1/a
    all keep a scale-relative distance from every listed pole and zero.
    """
    pts = [complex(p) for p in list(poles) + list(zeros)]

    def admissible(a):
        for q in (a, -a, 1.0 / a, -1.0 / a):
            for p in pts:
                if abs(q - p) < 10.0 * config.rank_rel_tol * (1.0 + abs(p)):
                    return False
        return True

    for a in _PARAM_GRID:
        if admissible(a):
            return a
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a = float(rng.uniform(-0.9, 0.9))
        if abs(a) > 1e-3 and admissible(a):
            return a
    raise NoParameterFound("no admissible Moebius parameter found")


def _sample_radii(moduli):
    """Evaluation radii interleaving the pole moduli on a log scale.

    Every log-gap between consecutive pole moduli contributes a radius (its
    geometric midpoint), plus one radius just inside and one just outside
    the annulus; this keeps every mode visible in the samples regardless of
    how widely the pole magnitudes are spread.
    """
    moduli = np.asarray([m for m in np.atleast_1d(moduli) if m > 0.0])
    if not moduli.size:
        return [1.0, 0.67]
    logs = np.sort(np.log(np.unique(moduli)))
    radii = [float(np.exp(logs[0] - 0.5)), float(np.exp(logs[-1] + 0.5))]
    radii.extend(float(np.exp(0.5 * (a + b)))
                 for a, b in zip(logs[:-1], logs[1:]) if b - a > 1e-6)
    if np.min(np.abs(logs)) > 0.05:
        radii.append(1.0)
    # Radii closest to the unit circle first: they carry the most weight in
    # the downstream circle-sampled checks.
    radii.sort(key=lambda rho: abs(np.log(rho)))
    return radii


def _half_points(radii, k_half, offset):
    """k_half upper-half-plane points cycling through the given radii;
    conjugates are accounted for analytically."""
    rho = np.asarray([radii[t % len(radii)] for t in range(k_half)])
    theta = np.pi * (((offset + 0.381966 * np.arange(k_half)) % 1.0) * 0.96
                     + 0.02)
    return rho * np.exp(1j * theta)


def _block_matrix(grid):
    """(p, q, a, b) block grid -> (p*a, q*b) matrix."""
    p, q, a, b = grid.shape
    return np.ascontiguousarray(grid.transpose(0, 2, 1, 3)).reshape(p * a, q * b)


def minimal(r: Realization, config: ToleranceConfig = DEFAULT_TOL) -> Realization:
    """Minimal realization with the same transfer function.

    The McMillan degree is decided at the transfer-function level: block
    samples of G(z) - D at points interleaving the pole magnitudes form a
    Loewner matrix whose numerical rank (relative tolerance) is the degree.
    State-space rank tests (staircase/Krylov) are not used because
    near-cancellations of a cascade can be invisible to reachability and
    observability separately while the transfer function drops degree; the
    Loewner rank has its cliff at rounding level instead.

    An already-minimal realization is returned unchanged (same object); a
    reducible one is rebuilt from the sample data via the Loewner pencil
    compression, which reproduces the transfer function exactly.  Samples
    are taken in conjugate pairs and rotated to a real basis, so the result
    is real.
    """
    if r.n == 0:
        return r
    if not np.any(r.b) or not np.any(r.c):
        return Realization(np.zeros((0, 0)), np.zeros((0, r.n_in)),
                           np.zeros((r.n_out, 0)), r.d)
    n, m_in, m_out = r.n, r.n_in, r.n_out
    m = max(m_in, m_out)
    eigs = np.linalg.eigvals(r.a)
    radii = _sample_radii(np.abs(eigs))
    k_half = max(int(np.ceil((n + 2) / (2.0 * m))) + 1, len(radii))

    guard = 1e-6
    offset = 0.173
    for _ in range(8):
        mu = _half_points(radii, k_half, offset)
        lam = _half_points(radii[::-1], k_half, offset + 0.291)
        pts = np.concatenate([mu, lam])
        dist = np.min(np.abs(pts[:, None] - eigs[None, :]), axis=1)
        sep = np.min(np.abs(mu[:, None] - lam[None, :]))
        if np.all(dist > guard * (1.0 + np.abs(pts))) and sep > guard:
            break
        offset += 0.0937

    form = _decompose(r.a, k_half, eigs)
    v = _evalfr(r, mu, form, config) - r.d        # (k_half, m_out, m_in)
    w = _evalfr(r, lam, form, config) - r.d

    # Block Loewner data for the conjugate-completed sample sets, rotated to
    # a real basis analytically: with X = blocks at (mu, lam) and Y = blocks
    # at (mu, conj lam), the real form per pair is
    # [[Re(X+Y), Im(Y-X)], [Im(X+Y), Re(X-Y)]].
    def real_pairs(x, y):
        grid = np.empty((k_half, 2, k_half, 2, m_out, m_in))
        grid[:, 0, :, 0] = np.real(x + y)
        grid[:, 0, :, 1] = np.imag(y - x)
        grid[:, 1, :, 0] = np.imag(x + y)
        grid[:, 1, :, 1] = np.real(x - y)
        return grid.reshape(k_half * 2, k_half * 2, m_out, m_in)

    d_x = (mu[:, None] - lam[None, :])[:, :, None, None]
    d_y = (mu[:, None] - np.conj(lam)[None, :])[:, :, None, None]
    x_blk = (v[:, None] - w[None, :]) / d_x
    y_blk = (v[:, None] - np.conj(w)[None, :]) / d_y
    low = _block_matrix(real_pairs(x_blk, y_blk))
    xs_blk = (mu[:, None, None, None] * v[:, None]
              - lam[None, :, None, None] * w[None, :]) / d_x
    ys_blk = (mu[:, None, None, None] * v[:, None]
              - np.conj(lam)[None, :, None, None] * np.conj(w)[None, :]) / d_y
    shifted = _block_matrix(real_pairs(xs_blk, ys_blk))

    rt2 = np.sqrt(2.0)
    v_stack = np.empty((k_half * 2, m_out, m_in))
    v_stack[0::2] = rt2 * np.real(v)
    v_stack[1::2] = rt2 * np.imag(v)
    v_stack = v_stack.reshape(k_half * 2 * m_out, m_in)
    w_cols = np.empty((k_half * 2, m_out, m_in))
    w_cols[0::2] = rt2 * np.real(w)
    w_cols[1::2] = -rt2 * np.imag(w)
    w_stack = np.hstack(list(w_cols))

    # The rank cut is anchored on the transfer magnitude: when the strictly
    # proper part is pure rounding noise, a cut relative to the Loewner
    # matrix's own largest singular value would keep phantom rank.
    sample_scale = max(
        float(np.max(np.abs(v))) if v.size else 0.0,
        float(np.max(np.abs(w))) if w.size else 0.0,
        float(np.max(np.abs(r.d))) if r.d.size else 0.0,
    )
    u, s, vt = np.linalg.svd(low)
    anchor = max(s[0] if s.size else 0.0, sample_scale)
    nu = int(np.sum(s > config.rank_rel_tol * anchor)) if anchor > 0 else 0
    if nu >= n:
        return r
    if nu == 0:
        return Realization(np.zeros((0, 0)), np.zeros((0, m_in)),
                           np.zeros((m_out, 0)), r.d)
    y_l = u[:, :nu]
    x_r = vt[:nu].T
    e_c = -(y_l.T @ low @ x_r)
    a_c = -(y_l.T @ shifted @ x_r)
    a_new = np.linalg.solve(e_c, a_c)
    b_new = np.linalg.solve(e_c, y_l.T @ v_stack)
    c_new = w_stack @ x_r
    return Realization(a_new, b_new, c_new, r.d)


def mcmillan_degree(r: Realization, config: ToleranceConfig = DEFAULT_TOL) -> int:
    """McMillan degree: state dimension of the minimal realization."""
    return minimal(r, config).n


def poles_zeros(r: Realization, config: ToleranceConfig = DEFAULT_TOL) -> PoleZeroReport:
    """Pole/zero inventory of the minimal realization.

    Poles are the eigenvalues of the minimal A; zeros are the eigenvalues of
    the minimal zero matrix A - B D^{-1} C (square invertible-D systems
    only; ``zeros`` is None otherwise).
    """
    return _inventory(minimal(r, config), config)


def _inventory(rm: Realization, config: ToleranceConfig) -> PoleZeroReport:
    """Pole/zero inventory of a realization that is already minimal."""
    poles = _sorted_eigs(rm.a)
    zeros = None
    try:  # inverse also rejects a non-square D
        zeros = _sorted_eigs(inverse(rm, config).a)
    except SingularFeedthrough:
        pass
    return PoleZeroReport(poles=poles, zeros=zeros, degree=rm.n)


def eval_gap(r1: Realization, r2: Realization, zs=None,
             config: ToleranceConfig = DEFAULT_TOL) -> float:
    """Largest entrywise evaluation gap between two realizations.

    The default points are the floor(k/2) + 1 points of ``circle_samples``
    on the closed upper half-circle (:func:`_circle`) and the same scaled
    by 1.37: the gap of two real systems has the same |.| at conj z, so
    this is the gap over both full circles of k points.  Sample points too
    close to a pole of either system are skipped.
    """
    if (r1.n_out, r1.n_in) != (r2.n_out, r2.n_in):
        raise DimensionMismatch("output/input widths differ")
    if zs is None:
        base = _circle(config.circle_samples)
        zs = np.concatenate([base, 1.37 * base])
    zs = _points(zs)
    forms = [_decompose(r.a, zs.size) for r in (r1, r2)]
    keep = np.ones(zs.shape, dtype=bool)
    for r, (eigs, _) in zip((r1, r2), forms):
        if r.n == 0:
            continue
        dist, norm_a = _pole_distance(r, zs, eigs)
        keep &= dist > 1e3 * config.rank_rel_tol * (1.0 + np.abs(zs)) * norm_a
    zs = zs[keep]
    if zs.size == 0:
        raise EvaluationAtPole("no admissible sample points away from poles")
    diff = (_evalfr(r1, zs, forms[0], config)
            - _evalfr(r2, zs, forms[1], config))
    return float(np.max(np.abs(diff)))
