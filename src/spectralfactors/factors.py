"""Generation and verification of minimal spectral factors.

Every minimal spectral factor of the density of W- is W- times a left
all-pass divisor of the conjugate phase function, and conversely the
quotient W-^{-1} W0 of any minimal factor W0 is such a divisor.  This module
reports on the factor each divisor carries, verifies candidate factors,
and extracts and certifies the divisor of a given candidate.

The conjugate phase is the family's context: it carries W-, its config,
its Moebius gate and the densities of both W-, and every divisor carries
its phase.  One rule decides every reuse (:func:`_made_from`): a carried
fact is read only by a check against one of the phase's own W- objects
under a config equal to the phase's.  So
:func:`minimal_factor` samples only the factor, which comes back as a
:class:`CertifiedFactor` carrying its report and phase, and
:func:`extract_left_divisor` reads that report and samples only T-.
:func:`verify_factor` takes the phase, reduces and samples the candidate
once and folds the extraction into its report.  Any other check samples
both systems; the reused values are those the repeated computation gives.

Verification never raises on a mathematically bad *candidate* (bad
candidates are data); exceptions are reserved for numerical breakdowns in
generated objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .divisors import AllPassDivisor, SubspaceSpec, _divisor, _spec_basis
from .errors import (
    DimensionMismatch,
    NotAFactor,
    NotMinimalFactor,
    ParameterHitsSpectrum,
    SpectralFactorsError,
    SpectrumMismatch,
)
from .matnum import DEFAULT_TOL, ToleranceConfig, _schur_split
from .spectral import (
    ALLPASS_CERT_TOL,
    ConjugatePhase,
    _density,
    allpass_residual,
    conjugate_phase,
    validate_outer,
)
from .statespace import (
    PoleZeroReport,
    Realization,
    _inventory,
    inverse,
    minimal,
    moebius,
    series,
)

__all__ = [
    "FactorReport",
    "CertifiedFactor",
    "minimal_factor",
    "extract_left_divisor",
    "verify_factor",
    "factor_family",
    "family_member",
    "spectrum_gap",
]

@dataclass(frozen=True)
class FactorReport:
    """Verification record for one candidate or generated factor."""

    degree: int
    expected_degree: int
    spectrum_residual: float
    allpass_residual: float | None
    pole_zero: PoleZeroReport
    passed: bool
    reasons: tuple = ()

    def to_dict(self):
        return {
            "degree": self.degree,
            "expected_degree": self.expected_degree,
            "spectrum_residual": self.spectrum_residual,
            "allpass_residual": self.allpass_residual,
            "pole_zero": self.pole_zero.to_dict(),
            "passed": self.passed,
            "reasons": list(self.reasons),
        }

    def __str__(self):
        verdict = "pass" if self.passed else "fail"
        lines = [
            f"verdict:           {verdict}",
            f"degree:            {self.degree} (expected {self.expected_degree})",
            f"spectrum residual: {self.spectrum_residual:.3e}",
        ]
        if self.allpass_residual is not None:
            lines.append(f"all-pass residual: {self.allpass_residual:.3e}")
        lines.append(f"poles:             {np.round(self.pole_zero.poles, 6)}")
        if self.pole_zero.zeros is not None:
            lines.append(f"zeros:             {np.round(self.pole_zero.zeros, 6)}")
        for r in self.reasons:
            lines.append(f"reason:            {r}")
        return "\n".join(lines)


@dataclass(frozen=True, repr=False, eq=False)
class CertifiedFactor(Realization):
    """A generated factor (A, B, C, D) with the passing ``report`` that
    certified it against the W- object of its conjugate ``phase`` under the
    phase's config.

    :func:`minimal_factor` and :func:`family_member` return it only then; a
    factor checked against another W- object or config, or mapped back to
    the original variable, comes back as a plain :class:`Realization`.
    :func:`extract_left_divisor` reads the report in the same context.
    """

    report: FactorReport
    phase: ConjugatePhase


def spectrum_gap(w: Realization, w_ref: Realization,
                 config: ToleranceConfig = DEFAULT_TOL) -> float:
    """Largest entrywise gap between the two spectral densities on
    ``circle_samples`` points of the circle, evaluated at the floor(k/2) + 1
    of them on the closed upper half-circle: a density of a real system has
    Phi(conj z) = conj Phi(z), so the other points repeat their |.|.
    Returns ``inf`` if either system has a pole on a sample.

    Raises DimensionMismatch if the two systems differ in width.
    """
    return _gap_and_scale(w, w_ref, config)[0]


def _gap_and_scale(w, w_ref, config, cp=None):
    """``spectrum_gap`` and max(1, max|Phi_ref|) from the same samples;
    those of ``w_ref`` are read from the conjugate phase ``cp`` where it was
    made from ``w_ref`` under ``config``."""
    if (w.n_out, w.n_in) != (w_ref.n_out, w_ref.n_in):
        raise DimensionMismatch(
            f"densities of a {w.n_out}x{w.n_in} and a "
            f"{w_ref.n_out}x{w_ref.n_in} system are not comparable"
        )
    phi_w, name = _density(w, config), _made_from(cp, w_ref, config)
    phi_ref = (None if phi_w is None else getattr(cp, f"{name}_density")
               if name else _density(w_ref, config))
    if phi_ref is None:
        return float("inf"), 1.0
    return (float(np.max(np.abs(phi_w - phi_ref))),
            max(1.0, float(np.max(np.abs(phi_ref)))))


def _made_from(cp, w_minus, config):
    """Which W- of the conjugate phase ``cp`` this ``w_minus`` object is,
    if ``cp`` was made under a config equal to ``config``: "w_minus" for
    its working W-, "w_original" for a gated family's original one, else
    None.  The one rule that decides every read of a density the phase
    carries (``cp.<name>_density``) and every certification, which only
    the working W- gives."""
    if cp is None or cp.config != config:
        return None
    if cp.extremals.w_minus is w_minus:
        return "w_minus"
    return "w_original" if cp.w_original is w_minus else None


def _report(w, w_minus, expected, pz, config, cp=None):
    """Report on the candidate ``w``, whose minimal realization has the
    inventory ``pz``, against ``w_minus`` of McMillan degree ``expected``,
    whose density is read from ``cp`` if it was made from it.
    Its spectrum gap must be <= ``residual_tol`` max(1, max|Phi_-|)."""
    reasons = []
    if pz.degree != expected:
        reasons.append(f"McMillan degree {pz.degree} != expected {expected}")
    if (w.n_out, w.n_in) != (w_minus.n_out, w_minus.n_in):
        residual = float("inf")
        reasons.append(
            f"candidate is {w.n_out}x{w.n_in}, the outer factor is "
            f"{w_minus.n_out}x{w_minus.n_in}"
        )
    else:
        residual, scale = _gap_and_scale(w, w_minus, config, cp)
        bound = config.residual_tol * scale
        if not residual <= bound:
            reasons.append(
                f"spectrum residual {residual:.3e} exceeds {bound:.1e}")
    return FactorReport(
        degree=pz.degree, expected_degree=expected, spectrum_residual=residual,
        allpass_residual=None, pole_zero=pz, passed=not reasons,
        reasons=tuple(reasons),
    )


def _require_generated(w, w_minus, n, what, config, cp=None):
    """The generated factor ``w`` on n states, certified if ``cp`` was made
    from ``w_minus`` under ``config``, and its report; raise if it fails."""
    report = _report(w, w_minus, n, _inventory(w, config), config, cp)
    if not report.passed:
        raise SpectrumMismatch(
            f"{what} spectrum residual {report.spectrum_residual:.3e}"
        )
    if _made_from(cp, w_minus, config) == "w_minus":
        w = CertifiedFactor(w.a, w.b, w.c, w.d, report, cp)
    return w, report


def verify_factor(w: Realization, cp: ConjugatePhase) -> FactorReport:
    """Check a candidate factor against the family of the conjugate phase
    ``cp``, whose working W-, its density and config it reads: a gated
    phase checks in its own variable (``cli verify`` builds it ungated).

    The candidate is reduced once, for its degree and inventory, and sampled
    once.  A passing report then has T- extracted from that reduction as
    :func:`extract_left_divisor` does, sampling neither system again: it
    gets the all-pass residual of T-, or fails with a ``divisor extraction``
    reason on NotAFactor or NotMinimalFactor.  Bad candidates, including
    those of another width, produce a failing report, never an exception.
    """
    w_minus, config = cp.extremals.w_minus, cp.config
    wm = minimal(w, config)
    report = _report(w, w_minus, w_minus.n, _inventory(wm, config), config, cp)
    if not report.passed:
        return report
    try:
        _, ap_res = _quotient(inverse(w_minus, config), w, wm,
                              report.pole_zero, w_minus.n, config)
    except (NotAFactor, NotMinimalFactor) as exc:
        return replace(report, passed=False, reasons=(
            *report.reasons, f"divisor extraction: {exc}"))
    return replace(report, allpass_residual=ap_res)


def minimal_factor(w_minus: Realization, div: AllPassDivisor,
                   config: ToleranceConfig = DEFAULT_TOL):
    """Minimal spectral factor W = W- T_l generated by a divisor, in the
    working variable of its phase (:func:`family_member` maps it back).

    Returns ``div.factor``, the closed form on n states, and its report
    against ``w_minus`` with the degree n that the conjugate phase certified
    (the basis has 2n rows); a wrong spectrum is a numerical failure.  Made
    from ``div.phase`` (:func:`_made_from`), the report reads the phase's
    density of W- and the factor is a :class:`CertifiedFactor`; otherwise
    both systems are sampled and the factor is a plain :class:`Realization`.
    """
    return _require_generated(div.factor, w_minus, div.basis.shape[0] // 2,
                              "generated factor", config, div.phase)


def _vanishes(block1, block2, config):
    """Whether the sum of two blocks vanishes against the size of its
    terms, to ``residual_tol``."""
    return bool(np.linalg.norm(block1 + block2) <= config.residual_tol
                * (np.linalg.norm(block1) + np.linalg.norm(block2)))


def _peel(w_inv, w0m, pz, config):
    """T- = W-^{-1} W0 on its kept states, or None where the peel does not
    certify.

    In the cascade of W-^{-1} (n1 states) and the minimal W0 with the
    inventory ``pz``, W0's poles inside the disc cancel against zeros of
    W-^{-1} (unobservable), and the eigenvalues of W-^{-1}'s state matrix
    that equal W0's zeros inside the disc are uncontrollable.  One ordered
    real Schur form (:func:`matnum._schur_split`) puts the first group on
    top and the second at the bottom; the kept block between reads neither,
    so it carries the transfer function once the unobservable group's C and
    the uncontrollable group's B vanish, each against its two terms.
    """
    inner = [v[np.abs(v) <= 1.0] for v in (pz.poles, pz.zeros)]
    cascade = series(w_inv, w0m)
    if not any(v.size for v in inner):
        return cascade
    split = _schur_split(cascade.a, *inner)
    if split is None:
        return None
    t, q = split
    n1, lo = w_inv.n, len(inner[0])
    hi = cascade.n - len(inner[1])
    q_u, q_r = q[:, :lo], q[:, hi:]
    if not (_vanishes(cascade.c[:, :n1] @ q_u[:n1],
                      cascade.c[:, n1:] @ q_u[n1:], config)
            and _vanishes(q_r[:n1].T @ cascade.b[:n1],
                          q_r[n1:].T @ cascade.b[n1:], config)):
        return None
    q_k = q[:, lo:hi]
    return Realization(t[lo:hi, lo:hi], q_k.T @ cascade.b, cascade.c @ q_k,
                       cascade.d)


def extract_left_divisor(w_minus: Realization, w0: Realization,
                         config: ToleranceConfig = DEFAULT_TOL,
                         w_bar_plus: Realization | None = None):
    """Extract and certify the divisor of a candidate minimal factor.

    W0 must have the shape of W-, and T- = W-^{-1} W0 must be all-pass
    (else NotAFactor).  A minimal factor has degree n, and its divisor flips
    exactly its poles and zeros outside the unit circle, so deg T- is their
    number k: both degrees are certified from the candidate's inventory
    (else NotMinimalFactor).  Only the state count n of ``w_bar_plus`` is
    read; without it, n and W-^{-1} come from validating W-.  A candidate
    on more than n states is reduced once; the inventory is read from its
    minimal realization W0m.

    T- comes from the 2n-state cascade of W-^{-1} and W0m, whose dropped
    modes the inventory names: W0m's poles inside the disc are unobservable
    and the zeros of W- that stay zeros of W0 are uncontrollable.  Two peels
    of one ordered real Schur form leave the k kept modes (W0's poles
    outside the disc and the reflections 1/conj(zeta) of its zeros zeta
    outside), in O(n^3).  Each peel is certified by its vanishing block,
    the unobservable group's C and the uncontrollable group's B, against
    its two terms to ``residual_tol``.  Where the candidate's degree is not
    n or its feedthrough is singular, the kept and dropped eigenvalues do
    not separate by the cluster tolerance, or a certificate fails, T- is
    the Loewner cut (:func:`minimal`) of the cascade of W-^{-1} and W0.

    A :class:`CertifiedFactor` whose phase was made from this ``w_minus``
    under ``config`` (:func:`_made_from`), with expected degree n, brings its
    inventory and spectrum report: only T- is sampled.  Any other candidate
    is inventoried and sampled with W-.

    Returns the extracted divisor and a report on the candidate.
    """
    if (w0.n_out, w0.n_in) != (w_minus.n_out, w_minus.n_in):
        raise NotAFactor(f"candidate is {w0.n_out}x{w0.n_in}, the outer "
                         f"factor is {w_minus.n_out}x{w_minus.n_in}")
    w_inv = (inverse(w_minus, config) if w_bar_plus
             else validate_outer(w_minus, config))
    n = (w_bar_plus or w_inv).n
    # W0 = W- T- with T- all-pass is a spectral factor, and no spectral
    # factor of this density has degree below n: on n states it is minimal
    # once the all-pass test below passes.
    cert = (w0.report if isinstance(w0, CertifiedFactor)
            and _made_from(w0.phase, w_minus, config) == "w_minus"
            and w0.report.expected_degree == n else None)
    w0m = w0 if w0.n == n else minimal(w0, config)
    pz = cert.pole_zero if cert else _inventory(w0m, config)
    t_minus, ap_res = _quotient(w_inv, w0, w0m, pz, n, config)
    report = cert or _report(w0, w_minus, n, pz, config)
    return t_minus, replace(report, allpass_residual=ap_res)


def _quotient(w_inv, w0, w0m, pz, n, config):
    """T- = W-^{-1} W0 and its all-pass residual from ``w0``, its minimal
    realization ``w0m`` and inventory ``pz``, as :func:`extract_left_divisor`
    certifies them; raises NotAFactor or NotMinimalFactor."""
    t_minus = None
    if pz.degree == n and pz.zeros is not None:
        t_minus = _peel(w_inv, w0m, pz, config)
    if t_minus is None:
        t_minus = minimal(series(w_inv, w0), config)
    ap_res = allpass_residual(t_minus, config)
    if ap_res > ALLPASS_CERT_TOL:
        raise NotAFactor(
            f"quotient is not all-pass (residual {ap_res:.3e}); the candidate "
            "is not a spectral factor of the same density"
        )
    if pz.degree != n:
        raise NotMinimalFactor(f"candidate degree {pz.degree} != {n}")
    if pz.zeros is None:
        raise NotMinimalFactor("candidate feedthrough is singular")
    k = sum(int(np.sum(np.abs(v) > 1.0)) for v in (pz.poles, pz.zeros))
    if t_minus.n != k:
        raise NotMinimalFactor(f"divisor degree {t_minus.n} != {k}, the "
                               "candidate's poles and zeros outside the disc")
    return t_minus, ap_res


def family_member(cp: ConjugatePhase, spec: SubspaceSpec):
    """The divisor, factor and report of one :class:`SubspaceSpec` (else
    InvalidSubspace) of the family of ``cp``, which holds W-, the config
    and the gate.  The divisor comes from the spec's basis, as in the
    enumeration, and the factor from :func:`minimal_factor`.  In a gated
    family the factor is mapped back to the original variable, still on n
    states, and re-verified against ``cp.w_original``, whose density the
    phase carries; it is then a plain :class:`Realization`, and a failure
    raises."""
    config, a = cp.config, cp.moebius_a
    div = _divisor(cp, *_spec_basis(cp, spec, config), config)
    w, report = minimal_factor(cp.extremals.w_minus, div, config)
    if a is None:
        return div, w, report
    try:
        w = moebius(w, -a, config)
    except SpectralFactorsError as exc:
        raise ParameterHitsSpectrum(
            "factor is improper in the original variable (pole at "
            "infinity); it is representable only in the transformed "
            "variable"
        ) from exc
    w, report = _require_generated(w, cp.w_original, report.expected_degree,
                                   "mapped-back factor", config, cp)
    return div, w, report


def factor_family(w_minus: Realization, specs,
                  config: ToleranceConfig = DEFAULT_TOL,
                  moebius_param: float | bool | None = None):
    """The (factor, report) of each subspace specification: the
    :func:`family_member`s of ``conjugate_phase(w_minus, config,
    moebius_param)``, each gated factor in the original variable."""
    cp = conjugate_phase(w_minus, config, moebius_param)
    return [family_member(cp, spec)[1:] for spec in specs]
