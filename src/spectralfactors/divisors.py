"""Left all-pass divisors of the conjugate phase function.

Divisors are parametrized by invariant subspaces of the block-diagonal state
matrix diag(Gamma, A^{-T}), given as eigenvalue selections, explicit bases
or orthogonal projectors.  Because the two blocks have disjoint spectra
(inside vs outside the unit circle), every invariant subspace splits
block-diagonally, so a subspace is specified per block.  Selections,
explicit bases and enumerated block subsets all get their orthonormal basis
by one QR rule (``orth_basis``) and their divisor from it directly; only a
caller's projector is checked and its range basis recovered from it.

Given V an orthonormal basis of the subspace, the pair (C V, V^T A V) is
observable and Q_l = V^T Q V solves its Stein equation exactly, because the
range is invariant.  The divisor is the all-pass completion of that
compression, the same routine that builds T:

    Tl  = (V^T A V, Bl, C V, Dl),   [Bl; Dl] the completion from Q_l,

normalized so the feedthrough Dl is symmetric positive definite.  The
compression is minimal, so deg Tl = rank V.  Every divisor is certified
by the completion's algebraic identity check, which implies the all-pass
property at every point of the circle.  It carries its factor W- Tl in
closed form on n states, and the conjugate phase's samples of W-'s density
that the factor's spectrum is checked against.

The right complement Tr with T = Tl Tr is closed form as well (Bart,
Gohberg, Kaashoek & Van Dooren, SIAM J. Control Optim. 18, 1980).  The
range M of V is invariant under A, and M^x = P0 M^perp under the zero
matrix A - B D^{-1} C of the all-pass T; P0 M^perp is a solve with
Q = P0^{-1}.  With W an orthonormal basis of M^x, S = [V, W] and L2 the
last 2n - k rows of S^{-1},

    Tr  = (L2 A W, L2 B, Dl^{-1} C W, Dl^{-1} D),

so deg Tl + deg Tr = 2n by construction.  M and M^x must form a direct
sum; its margin sigma_min(S) / sigma_max(S) is certified against the
relative rank tolerance.

Repeated eigenvalues span continua of invariant subspaces; those are never
enumerated silently but surfaced as continuum records for the caller to
sample through explicit bases.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .errors import (
    DegreeAdditivityViolation,
    InvalidSubspace,
    NotInvariant,
    SpectralFactorsError,
)
from .matnum import (
    DEFAULT_TOL,
    ToleranceConfig,
    _block_diag,
    basis_from_projector,
    is_invariant,
    orth_basis,
    selection_basis,
)
from .spectral import (
    ConjugatePhase,
    DensitySamples,
    _allpass_completion,
    _factor,
)
from .statespace import Realization

__all__ = [
    "SubspaceSpec",
    "AllPassDivisor",
    "ContinuumFamily",
    "DivisorEnumeration",
    "projector_from_spec",
    "divisor_from_projector",
    "right_complement",
    "enumerate_divisors",
    "continuum_angle_basis",
]


@dataclass(frozen=True)
class SubspaceSpec:
    """Description of an invariant subspace of diag(Gamma, A^{-T}).

    Each block is given either by ``*_select`` (indices into the canonically
    ordered spectrum of that block, as ``ConjugatePhase.gamma_blocks`` and
    ``a_blocks`` cover it) or by ``*_basis`` (explicit basis in block
    coordinates), never both.  Empty selections are the default, so
    ``SubspaceSpec()`` describes the zero subspace.
    """

    gamma_select: tuple = ()
    gamma_basis: np.ndarray | None = None
    a_select: tuple = ()
    a_basis: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "gamma_select", tuple(self.gamma_select))
        object.__setattr__(self, "a_select", tuple(self.a_select))
        if self.gamma_basis is not None and self.gamma_select:
            raise ValueError("give gamma_select or gamma_basis, not both")
        if self.a_basis is not None and self.a_select:
            raise ValueError("give a_select or a_basis, not both")
        for name in ("gamma_basis", "a_basis"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name,
                                   np.atleast_2d(np.asarray(v, dtype=float)))


@dataclass(frozen=True)
class ContinuumFamily:
    """Marker for an infinite family of invariant subspaces inside a
    repeated eigenspace.  ``basis`` spans the full eigenspace in block
    coordinates; members of the family are proper subspaces of it."""

    part: str                  # "gamma" or "a"
    eigenvalue: complex
    dim: int
    basis: np.ndarray


@dataclass(frozen=True)
class AllPassDivisor:
    """A left all-pass divisor with its generating data.

    ``t_ell`` is the all-pass completion of the compression onto the range
    of the orthonormal 2n x k ``basis`` (projector ``basis @ basis.T``),
    ``factor`` is W- T_l in closed form on n states, ``degree`` = deg T_l =
    k and ``subspace_dims`` its (gamma, a) split; ``right_complement`` is
    attached when degree additivity is certified.  ``w_minus_density`` is
    the conjugate phase's sampled density of W-, carried by reference, which
    :func:`.factors.minimal_factor` checks the factor against.
    """

    t_ell: Realization
    factor: Realization
    basis: np.ndarray
    degree: int
    subspace_dims: tuple = (0, 0)
    right_complement: Realization | None = None
    w_minus_density: DensitySamples | None = None


@contextmanager
def _selection_of(part):
    """Raise a broken selection rule on one side as InvalidSubspace."""
    try:
        yield
    except SpectralFactorsError as exc:
        raise InvalidSubspace(f"invalid {part} selection: {exc}") from exc


def _part_basis(block_matrix, blocks, select, basis, part, config):
    """Orthonormal basis for one block of the subspace specification."""
    if basis is not None:
        if basis.ndim != 2:
            raise InvalidSubspace(f"{part} basis has shape {basis.shape}, "
                                  "expected a matrix")
        if basis.shape[0] != block_matrix.shape[0]:
            raise InvalidSubspace(
                f"{part} basis has {basis.shape[0]} rows, expected "
                f"{block_matrix.shape[0]}"
            )
        if not np.all(np.isfinite(basis)):
            raise InvalidSubspace(f"{part} basis contains non-finite entries")
        q = orth_basis(basis, config)
        if not is_invariant(block_matrix, q, config):
            raise InvalidSubspace(
                f"{part} basis does not span an invariant subspace"
            )
        return q
    with _selection_of(part):
        return selection_basis(blocks, select, config)


def _spec_basis(cp, spec, config):
    """Orthonormal basis diag(vg, va) of the invariant subspace that
    ``spec`` describes, and its gamma-side dimension."""
    if not isinstance(spec, SubspaceSpec):
        raise InvalidSubspace(f"expected a SubspaceSpec, got "
                              f"{type(spec).__name__}")
    vg = _part_basis(cp.gamma, cp.gamma_blocks, spec.gamma_select,
                     spec.gamma_basis, "gamma", config)
    va = _part_basis(cp.a_inv_t, cp.a_blocks, spec.a_select, spec.a_basis,
                     "a", config)
    return _block_diag(vg, va), vg.shape[1]


def projector_from_spec(cp: ConjugatePhase, spec: SubspaceSpec,
                        config: ToleranceConfig = DEFAULT_TOL):
    """Orthogonal projector V V^T onto the invariant subspace that ``spec``
    describes, V its basis.  Raises InvalidSubspace if ``spec`` is bad."""
    v, _ = _spec_basis(cp, spec, config)
    return v @ v.T


def divisor_from_projector(cp: ConjugatePhase, pi,
                           config: ToleranceConfig = DEFAULT_TOL) -> AllPassDivisor:
    """Build the left all-pass divisor generated by the projector ``pi``.

    ``pi`` must be symmetric, idempotent, and project onto an invariant
    subspace of the conjugate phase state matrix.  The divisor depends only
    on the range of ``pi``, on which it is realized: its degree is rank ``pi``.

    Raises
    ------
    NotInvariant
        If the range of ``pi`` is not invariant (or ``pi`` is not an
        orthogonal projector).
    CompressionNotPD
        If the completion's complement or its Gram matrix fails its test.
    GramianIdentityViolation
        If the completed divisor fails its all-pass identities.
    DegreeViolation
        If the modes deflated from the factor W- T_l get input.
    """
    pi = np.asarray(pi, dtype=float)
    n2 = cp.t.n
    if pi.shape != (n2, n2):
        raise NotInvariant(f"projector must be {n2}x{n2}, got {pi.shape}")
    if not np.all(np.isfinite(pi)):
        raise NotInvariant("projector contains non-finite entries")
    scale = max(1.0, float(np.linalg.norm(pi)))
    if (np.linalg.norm(pi - pi.T) > config.residual_tol * scale
            or np.linalg.norm(pi @ pi - pi) > config.residual_tol * scale):
        raise NotInvariant("matrix is not an orthogonal projector")

    basis = basis_from_projector(pi, config)
    if not is_invariant(cp.t.a, basis, config):
        raise NotInvariant("projector range is not an invariant subspace of "
                           "the conjugate phase state matrix")

    k_gamma = int(round(float(np.trace(pi[:cp.n_gamma, :cp.n_gamma]))))
    return _divisor(cp, basis, k_gamma, config)


def _divisor(cp, v, k_gamma, config):
    """The divisor, with its factor, on the invariant range of the
    orthonormal basis ``v``, ``k_gamma`` dimensions of it on the gamma side."""
    a_l, c_l, q_l = v.T @ cp.t.a @ v, cp.t.c @ v, v.T @ cp.p0_inv @ v
    t_ell, _ = _allpass_completion(a_l, c_l, q_l, "divisor", config)
    k = v.shape[1]
    factor = _factor(cp.extremals.w_minus, cp.extremals.z, cp.a_inv_t, v,
                     t_ell, k - k_gamma, config)
    return AllPassDivisor(t_ell=t_ell, factor=factor, basis=v, degree=k,
                          subspace_dims=(k_gamma, k - k_gamma),
                          w_minus_density=cp.w_minus_density)


def right_complement(cp: ConjugatePhase, div: AllPassDivisor,
                     config: ToleranceConfig = DEFAULT_TOL) -> Realization:
    """Right all-pass cofactor T_r with T = T_l T_r and additive degrees.

    T_r is the compression of T onto M^x = P0 M^perp along M, the range of
    V = ``div.basis``: with W an orthonormal basis of M^x, S = [V, W] and
    L2 the last 2n - k rows of S^{-1}, T_r = (L2 A W, L2 B, Dl^{-1} C W,
    Dl^{-1} D) where Dl is the feedthrough of T_l.  Its degree is 2n - k.

    Raises DegreeAdditivityViolation when M and M^x fail to form a direct
    sum, i.e. when the margin sigma_min(S) / sigma_max(S) is at or below
    ``config.rank_rel_tol``; the message names the margin.
    """
    a, b, c, d = cp.t.a, cp.t.b, cp.t.c, cp.t.d
    v, k = div.basis, div.degree
    v_perp = np.linalg.qr(v, mode="complete")[0][:, k:]
    w = np.linalg.qr(np.linalg.solve(cp.p0_inv, v_perp))[0]
    u, s, vt = np.linalg.svd(np.hstack([v, w]))
    margin = s[-1] / s[0] if s.size else 1.0
    if not margin > config.rank_rel_tol:
        raise DegreeAdditivityViolation(
            f"range Pi and P0 (range Pi)^perp do not form a direct sum: "
            f"margin {margin:.3e} <= {config.rank_rel_tol:.1e}"
        )
    l2 = (vt.T[k:] / s) @ u.T                     # last rows of S^{-1}
    cd = np.linalg.solve(div.t_ell.d, np.hstack([c @ w, d]))
    return Realization(l2 @ a @ w, l2 @ b, cd[:, :-d.shape[1]],
                       cd[:, -d.shape[1]:])


class DivisorEnumeration(list):
    """List of certified divisors plus markers for continuum families."""

    def __init__(self, divisors=(), continua=()):
        super().__init__(divisors)
        self.continua = list(continua)


def _block_choices(blocks, part, config):
    """Bases of the enumerable block subsets plus continuum markers.

    Simple real eigenvalues and complex pairs toggle in or out; a repeated
    (semisimple) eigenvalue contributes only the empty or full eigenspace
    and is reported as a continuum of intermediate subspaces.  A block
    without a basis, defective or not reorderable, makes
    :func:`selection_basis` raise AmbiguousEigenspace.
    """
    continua = []
    for blk in blocks:
        if blk.dim >= 2 and blk.kind == "repeated":
            continua.append(ContinuumFamily(
                part=part, eigenvalue=blk.eigenvalues[0], dim=blk.dim,
                basis=blk.basis,
            ))
    return ([selection_basis(blocks, sum((b.indices for b in s), ()), config)
             for k in range(len(blocks) + 1)
             for s in combinations(blocks, k)], continua)


def enumerate_divisors(cp: ConjugatePhase,
                       config: ToleranceConfig = DEFAULT_TOL) -> DivisorEnumeration:
    """Enumerate and certify all divisors reachable by block selection.

    One divisor per subset pair of eigenvalue blocks of the two sides
    (2^k_gamma * 2^k_a total), one ``selection_basis`` per side subset of
    the carried blocks; every divisor is certified all-pass by its
    completion's identity check and gets its right complement attached
    (degree additivity).  Eigenspaces of multiplicity >= 2 are
    reported as continuum families; the caller samples them through
    explicit bases.
    """
    g_bases, g_cont = _block_choices(cp.gamma_blocks, "gamma", config)
    a_bases, a_cont = _block_choices(cp.a_blocks, "a", config)

    out = []
    for vg in g_bases:
        for va in a_bases:
            div = _divisor(cp, _block_diag(vg, va), vg.shape[1], config)
            t_r = right_complement(cp, div, config)
            out.append(replace(div, right_complement=t_r))
    return DivisorEnumeration(out, g_cont + a_cont)


def continuum_angle_basis(eigenspace_basis, theta: float):
    """One-dimensional member of a two-dimensional continuum family.

    Returns the column q1 cos(theta) + q2 sin(theta) in block coordinates,
    where q1, q2 are the columns of ``eigenspace_basis``.  Distinct
    subspaces correspond to theta in [0, pi).
    """
    q = np.asarray(eigenspace_basis, dtype=float)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValueError("angle sampling needs a two-column eigenspace basis")
    return (q @ np.array([np.cos(theta), np.sin(theta)])).reshape(-1, 1)
