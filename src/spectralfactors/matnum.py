"""Dense matrix kernels used by the factorization pipeline.

Everything here operates on plain ``numpy`` arrays at desk scale (state
dimensions of a few dozen at most).  Rank decisions are always relative to
the largest singular value; magnitudes in typical models span several orders
of magnitude, so absolute thresholds are avoided throughout.

:func:`eigen_blocks` clusters a spectrum by single linkage on the folded
points re + i|im| at 1e-7 max(1, rho), reduces the matrix once to real Schur
form (LAPACK ``gees``) and reorders that form once per block (``trsen``;
Bai & Demmel, Linear Algebra Appl. 186, 1993).  Each reordering gives its
cluster's invariant-subspace basis and decides on the leading Schur block
whether the cluster is semisimple: O(n^3) plus the reorders.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np
from scipy.linalg import (LinAlgWarning, get_lapack_funcs,
                          solve_discrete_lyapunov)

from .errors import (
    AmbiguousEigenspace,
    ComplexPairSplit,
    InvalidSubspace,
    NotPositiveDefinite,
    RankDeficientBasis,
    SingularSteinOperator,
)

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "solve_stein",
    "sym_sqrt",
    "pseudo_inverse",
    "orth_basis",
    "EigenBlock",
    "eigen_blocks",
    "selection_basis",
    "is_invariant",
]


# Ceiling on circle sample counts: 32 times the default of 512.
_MAX_CIRCLE_SAMPLES = 16384
_GEES, _TRSEN = get_lapack_funcs(("gees", "trsen"), (np.zeros(0),))


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical knobs shared by the whole pipeline.

    Attributes
    ----------
    rank_rel_tol : float
        Relative threshold (against the largest singular value) below which
        singular values are treated as zero.
    residual_tol : float
        Acceptance threshold for equation residuals and sampled identities.
    circle_samples : int
        Number k of equally spaced unit-circle points that sampled checks
        take their max over, from 8 to 16384 (32 times the default).  The
        checks evaluate floor(k/2) + 1 of them, one per conjugate pair,
        which fixes the max over all k for a real system.
    """

    rank_rel_tol: float = 1e-9
    residual_tol: float = 1e-8
    circle_samples: int = 512

    def __post_init__(self):
        for name in ("rank_rel_tol", "residual_tol"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not 0 < float(value) < np.inf):
                raise ValueError(f"{name} must be a positive finite number, "
                                 f"got {value!r}")
        k = self.circle_samples
        if (isinstance(k, bool) or not isinstance(k, Integral)
                or not 8 <= k <= _MAX_CIRCLE_SAMPLES):
            raise ValueError(f"circle_samples must be an integer in "
                             f"[8, {_MAX_CIRCLE_SAMPLES}]: {k!r}")


DEFAULT_TOL = ToleranceConfig()


def _as_matrix(x, name="matrix"):
    m = np.atleast_2d(np.asarray(x, dtype=float))
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_square(m, name="matrix"):
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def _block_diag(a, b):
    """diag(a, b) for two float blocks, which may be empty; the same array
    as scipy's ``block_diag`` at a twentieth of its cost per call."""
    (p, q), (r, s) = a.shape, b.shape
    out = np.zeros((p + r, q + s))
    out[:p, :q] = a
    out[p:, q:] = b
    return out


def solve_stein(m, q, config: ToleranceConfig = DEFAULT_TOL):
    """Solve the Stein equation  M^T X M - X = Q  for symmetric X.

    ``scipy.linalg.solve_discrete_lyapunov`` solves it, and one step of
    iterative refinement brings the residual to rounding level.  A unique
    solution exists iff no eigenvalue pair of M has product one.

    Parameters
    ----------
    m : (n, n) array_like
    q : (n, n) array_like, symmetric

    Returns
    -------
    (n, n) ndarray, symmetric

    Raises
    ------
    SingularSteinOperator
        If min |1 - lambda_i lambda_j| over the eigenvalues of M is at or
        below the relative rank tolerance, scaled by 1 + rho(M)^2, or if
        the solver finds its linear system singular or warns that it is
        ill conditioned (M ill conditioned in these coordinates).
    """
    m = _as_matrix(m, "M")
    q = _as_matrix(q, "Q")
    _require_square(m, "M")
    _require_square(q, "Q")
    if m.shape != q.shape:
        raise ValueError("M and Q must have the same shape")
    if m.shape[0] == 0:
        return np.zeros((0, 0))

    lam = np.linalg.eigvals(m)
    gap = float(np.min(np.abs(1.0 - np.outer(lam, lam))))
    scale = 1.0 + float(np.max(np.abs(lam))) ** 2
    if gap <= config.rank_rel_tol * scale:
        raise SingularSteinOperator(
            f"Stein operator is singular: an eigenvalue pair of M has "
            f"product one (min |1 - lambda_i lambda_j| = {gap:.3e})"
        )

    def solve(rhs):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", LinAlgWarning)
                return solve_discrete_lyapunov(m.T, -rhs)
        except (np.linalg.LinAlgError, LinAlgWarning) as exc:
            # The eigenvalue gap is coordinate-free; scipy's solve works in
            # the given coordinates and can still find its system singular
            # or, warning first, nearly so.
            raise SingularSteinOperator(
                f"Stein solver failed although min |1 - lambda_i lambda_j| "
                f"= {gap:.3e}: M is too ill conditioned in these coordinates "
                f"(cond M ~{np.linalg.cond(m):.2e}; {exc})"
            ) from exc

    x = solve(q)
    # One step of iterative refinement keeps the residual at rounding level
    # even when the operator is moderately ill conditioned.
    x = x + solve(q - (m.T @ x @ m - x))
    return 0.5 * (x + x.T)


def sym_sqrt(s, config: ToleranceConfig = DEFAULT_TOL):
    """Principal square root of a symmetric positive-definite matrix.

    Computed through the symmetric eigendecomposition so the result is
    symmetric positive definite by construction.

    Raises
    ------
    NotPositiveDefinite
        If the smallest eigenvalue does not clear the relative rank
        tolerance.
    """
    s = _as_matrix(s, "S")
    _require_square(s, "S")
    if s.shape[0] == 0:
        return np.zeros((0, 0))
    s = 0.5 * (s + s.T)
    w, v = np.linalg.eigh(s)
    scale = max(abs(w[0]), abs(w[-1]))
    if w[0] <= config.rank_rel_tol * scale or scale == 0.0:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    r = (v * np.sqrt(w)) @ v.T
    return 0.5 * (r + r.T)


def pseudo_inverse(s, config: ToleranceConfig = DEFAULT_TOL):
    """Moore-Penrose pseudo-inverse with relative rank truncation.

    Symmetric input goes through the symmetric eigendecomposition, which
    guarantees a symmetric result; anything else falls back to the SVD.
    """
    s = _as_matrix(s, "S")
    if s.size == 0:
        return np.zeros(s.shape[::-1])
    scale = np.linalg.norm(s)
    if scale == 0.0:
        return np.zeros(s.shape[::-1])
    if s.shape[0] == s.shape[1] and np.linalg.norm(s - s.T) <= 1e-13 * scale:
        w, v = np.linalg.eigh(0.5 * (s + s.T))
        cutoff = config.rank_rel_tol * np.max(np.abs(w))
        inv_w = np.where(np.abs(w) > cutoff, 1.0 / np.where(w == 0, 1.0, w), 0.0)
        p = (v * inv_w) @ v.T
        return 0.5 * (p + p.T)
    return np.linalg.pinv(s, rcond=config.rank_rel_tol)


def orth_basis(v, config: ToleranceConfig = DEFAULT_TOL):
    """Orthonormal basis of the column space of a full-column-rank matrix.

    The basis is the QR factor Q of ``v``, so its first j columns span the
    first j of ``v``; the rank is decided on the singular values of R.

    Raises
    ------
    RankDeficientBasis
        If ``v`` has fewer numerically independent columns than its width.
    """
    v = _as_matrix(v, "V")
    if v.shape[1] == 0:
        return np.zeros((v.shape[0], 0))
    if v.shape[1] <= v.shape[0]:
        q, r = np.linalg.qr(v)
        s = np.linalg.svd(r, compute_uv=False)
        if s[0] > 0.0 and s[-1] > config.rank_rel_tol * s[0]:
            return q
    raise RankDeficientBasis(
        f"basis matrix has rank below its column count {v.shape[1]}"
    )


@dataclass(frozen=True)
class EigenBlock:
    """One block of the real spectral structure of a square matrix.

    ``kind`` is ``"real"`` for a simple real eigenvalue, ``"pair"`` for a
    simple complex-conjugate pair, or ``"repeated"`` for an eigenvalue
    cluster of multiplicity >= 2.  ``indices`` are the positions occupied in
    the canonically ordered eigenvalue list.  ``basis`` is a real orthonormal
    basis of the block's invariant subspace, the leading Schur vectors after
    :func:`eigen_blocks` reorders the block to the top of the matrix's one
    real Schur form, which also decides semisimplicity (``None`` where the
    reordering fails and for defective clusters, outside the supported class).
    """

    kind: str
    eigenvalues: tuple
    indices: tuple
    basis: np.ndarray | None

    @property
    def dim(self) -> int:
        return len(self.indices)


def _cluster_tol(eigs):
    """Distance within which eigenvalues form one cluster: 1e-7 max(1, rho)
    over the eigenvalues ``eigs`` of one matrix."""
    return 1e-7 * max(1.0, float(np.max(np.abs(eigs), initial=0.0)))


def _near(group, tol):
    """Mask of the eigenvalues within ``tol`` of some entry of the non-empty
    array ``group``."""
    return lambda w: np.min(np.abs(w[:, None] - group), axis=1) <= tol


def _reorder(t, z, w, pick, count):
    """The real Schur form (T, Z) with eigenvalues ``w`` reordered by LAPACK
    ``trsen`` so that the blocks whose eigenvalues ``pick`` marks come on
    top: (T, Z, reordered eigenvalues).  None if it fails, moves another
    number than ``count``, or its reordered eigenvalues do not split into
    the marked ones on top and the rest below (what ``gees`` with ``sort``
    reports as info n + 2)."""
    ts, q, wr, wi, sdim, _, _, info = _TRSEN(pick(w), t, z, job="N")
    w = wr + 1j * wi
    if (info != 0 or sdim != count
            or not np.array_equal(pick(w), np.arange(len(w)) < sdim)):
        return None
    return ts, q, w


def _block_basis(t, z, w, cluster, cluster_tol, config):
    """Real orthonormal basis of the invariant subspace of an eigenvalue
    cluster: :func:`_reorder` moves the blocks of the real Schur form
    (T, Z) whose eigenvalues ``w`` lie within ``cluster_tol`` of the cluster
    to the top.  None if that fails or the leading block T11 shows the
    cluster defective (:func:`eigen_blocks`)."""
    form = _reorder(t, z, w, _near(cluster, cluster_tol), len(cluster))
    if form is None:
        return None
    ts, q, _ = form
    sdim = len(cluster)
    if sdim > 1 + np.any(cluster.imag):  # a repeated cluster
        p = ((ts[:sdim, :sdim] - cluster.real.mean() * np.eye(sdim))
             / max(1.0, np.linalg.norm(ts)))
        if np.any(cluster.imag):
            inner = np.flatnonzero(np.diag(p, -1))  # the 2x2 blocks
            p = p @ p  # the constant im^2 moves only the diagonal
            p[inner, inner + 1] = 0.0
        else:
            p = p + p.T  # b + c on the 2x2 blocks; nothing else lies below
        if np.linalg.norm(np.triu(p, 1)) > max(config.rank_rel_tol, 1e-10):
            return None  # defective
    basis = q[:, :sdim].copy()
    # Deterministic sign: largest-magnitude entry of each vector positive.
    lead = basis[np.argmax(np.abs(basis), axis=0), np.arange(sdim)]
    basis *= np.where(lead < 0, -1.0, 1.0)
    return basis


def _schur_split(m, top, bottom):
    """Ordered real Schur form of ``m`` in three groups of eigenvalues: one
    ``gees`` and one ``trsen`` per non-empty end group.

    Returns (T, Q), Q orthogonal and T = Q^T M Q quasi-upper-triangular,
    whose leading eigenvalues are those of M within the cluster tolerance of
    ``top``, its trailing ones those near ``bottom``, each exactly as many as
    listed, and the rest between.  None where a LAPACK call fails or the
    three groups do not separate so.
    """
    n = m.shape[0]
    t, _, wr, wi, q, _, info = _GEES(lambda re, im: None, m)
    if info != 0:
        return None
    w = wr + 1j * wi
    tol = _cluster_tol(w)
    s = len(top)
    if s:
        form = _reorder(t, q, w, _near(top, tol), s)
        if form is None:
            return None
        t, q, w = form
    if len(bottom):
        near = _near(bottom, tol)
        form = _reorder(t[s:, s:], np.eye(n - s), w[s:],
                        lambda v: ~near(v), n - s - len(bottom))
        if form is None:
            return None
        t_rest, z, _ = form
        t[:s, s:] = t[:s, s:] @ z
        t[s:, s:] = t_rest
        q[:, s:] = q[:, s:] @ z
    return t, q


def eigen_blocks(m, config: ToleranceConfig = DEFAULT_TOL):
    """Cluster the spectrum of ``m`` into real/pair/repeated blocks.

    The eigenvalues (``np.linalg.eigvals``) are sorted by (real part,
    imaginary part) and clustered by single linkage on the folded points
    re + i|im| at 1e-7 max(1, rho(m)); the distance of two folded points is
    min(|l_i - l_j|, |l_i - conj l_j|), so conjugate pairs stay atomic.
    Blocks come in order of their least real part, then least |imag|.
    ``m`` is reduced once to real Schur form T (LAPACK ``gees``), and one
    ``trsen`` per block reorders it: O(n^3) plus the reorders.  The leading
    Schur vectors are the block's orthonormal basis, and the leading block
    T11 decides whether the cluster is semisimple, i.e. whether its minimal
    polynomial p, x - r or (x - r)^2 + im^2 if complex (r the mean real
    part), annihilates T11 but for the eigenvalue spread, which T11's 1x1
    and 2x2 diagonal blocks hold: the rest of p(T11 / max(1, ||T||_F)), plus
    the non-normal part b + c of a 2x2 block in a real cluster (a pair that
    rounding split off), must not exceed max(rank_rel_tol, 1e-10) in
    Frobenius norm.  A defective cluster gets no basis.
    """
    m = _as_matrix(m, "M")
    _require_square(m, "M")
    n = m.shape[0]
    if n == 0:
        return []
    eigs = np.linalg.eigvals(m)
    cluster_tol = _cluster_tol(eigs)
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]

    # Each eigenvalue takes the least index it reaches through near pairs.
    folded = eigs.real + 1j * np.abs(eigs.imag)
    near = np.abs(folded[:, None] - folded[None, :]) <= cluster_tol
    labels, prev = np.arange(n), None
    while not np.array_equal(labels, prev):
        prev, labels = labels, np.where(near, labels, n).min(axis=1)
    clusters = sorted((eigs[labels == lab] for lab in np.unique(labels)),
                      key=lambda v: (v.real.min(), np.abs(v.imag).min()))

    t, _, wr, wi, z, _, info = _GEES(lambda re, im: None, m)
    w = wr + 1j * wi
    blocks, pos = [], 0
    for vals in clusters:
        is_pair = np.max(np.abs(vals.imag)) > cluster_tol
        if is_pair:
            kind = "pair" if len(vals) == 2 else "repeated"
        else:
            vals = vals.real + 0j
            kind = "real" if len(vals) == 1 else "repeated"
        basis = None if info else _block_basis(t, z, w, vals, cluster_tol,
                                               config)
        blocks.append(EigenBlock(kind, tuple(complex(v) for v in vals),
                                 tuple(range(pos, pos + len(vals))), basis))
        pos += len(vals)
    return blocks


def _selected_blocks(blocks, selection):
    """The blocks that eigenvalue indices pick.  Indices must be integers
    (not bool) in the spectrum the blocks cover (else InvalidSubspace).  A
    complex pair must be selected whole (else ComplexPairSplit), and so must
    a repeated eigenvalue: its full eigenspace is the one unambiguous choice;
    a proper subspace or a defective cluster needs an explicit basis (else
    AmbiguousEigenspace)."""
    n = sum(blk.dim for blk in blocks)
    for i in selection:
        if isinstance(i, bool) or not isinstance(i, Integral):
            raise InvalidSubspace(f"selection index {i!r} is not an integer")
    sel = set(int(i) for i in selection)
    if any(i < 0 or i >= n for i in sel):
        raise InvalidSubspace(f"selection indices must lie in [0, {n})")
    chosen = []
    for blk in blocks:
        hit = sel.intersection(blk.indices)
        if not hit:
            continue
        if len(hit) < blk.dim:
            if blk.kind == "pair":
                raise ComplexPairSplit(
                    "complex-conjugate pairs must be selected atomically"
                )
            raise AmbiguousEigenspace(
                f"eigenvalue {blk.eigenvalues[0]} has multiplicity {blk.dim}; "
                "supply an explicit basis"
            )
        if blk.basis is None:
            raise AmbiguousEigenspace(
                f"eigenvalue cluster at {blk.eigenvalues[0]} is defective"
                if blk.kind == "repeated" else f"{blk.kind} block at "
                f"{blk.eigenvalues[0]}: its Schur reordering gave no basis")
        chosen.append(blk)
    return chosen


def selection_basis(blocks, selection, config: ToleranceConfig = DEFAULT_TOL):
    """Orthonormal basis of the invariant subspace that eigenvalue indices
    pick from ``blocks`` (:func:`eigen_blocks`, :func:`_selected_blocks`):
    :func:`orth_basis` of the chosen Schur bases in block order, so each
    leading group of columns spans an invariant subspace (the Schur chain)."""
    chosen = _selected_blocks(blocks, selection)
    if not chosen:
        return np.zeros((sum(blk.dim for blk in blocks), 0))
    return orth_basis(np.hstack([blk.basis for blk in chosen]), config)


def is_invariant(m, v, config: ToleranceConfig = DEFAULT_TOL):
    """True iff the column space of ``v`` is invariant under ``m``.

    Checks ``||M V - U U^T M V|| <= residual_tol * max(1, ||M||)``, U = orth V.
    """
    m = _as_matrix(m, "M")
    v = _as_matrix(v, "V")
    if v.shape[1] == 0:
        return True
    if v.shape[0] != m.shape[0]:
        raise ValueError("V rows must match M")
    u = orth_basis(v, config)
    mv = m @ v
    resid = mv - u @ (u.T @ mv)
    return bool(np.linalg.norm(resid)
                <= config.residual_tol * max(1.0, np.linalg.norm(m)))
