"""Generation and verification of minimal spectral factors.

Every minimal spectral factor of the density of W- is W- times a left
all-pass divisor of the conjugate phase function, and conversely the
quotient W-^{-1} W0 of any minimal factor W0 is such a divisor.  This module
reports on the factor each divisor carries, verifies candidate factors,
and extracts and certifies the divisor of a given candidate.

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
    EvaluationAtPole,
    NotAFactor,
    NotMinimalFactor,
    ParameterHitsSpectrum,
    SpectralFactorsError,
    SpectrumMismatch,
)
from .matnum import DEFAULT_TOL, ToleranceConfig
from .spectral import (
    ALLPASS_CERT_TOL,
    ConjugatePhase,
    allpass_residual,
    conjugate_phase,
    spectrum_samples,
    validate_outer,
)
from .statespace import (
    PoleZeroReport,
    Realization,
    _circle,
    _inventory,
    choose_moebius_parameter,
    inverse,
    mcmillan_degree,
    minimal,
    moebius,
    poles_zeros,
    series,
)

__all__ = [
    "FactorReport",
    "minimal_factor",
    "extract_left_divisor",
    "verify_factor",
    "factor_family",
    "moebius_gate",
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


def spectrum_gap(w: Realization, w_ref: Realization,
                 config: ToleranceConfig = DEFAULT_TOL) -> float:
    """Largest entrywise gap between the two spectral densities on the
    circle.  Returns ``inf`` if either system has a pole on a sample.

    Raises DimensionMismatch if the two systems differ in width.
    """
    if (w.n_out, w.n_in) != (w_ref.n_out, w_ref.n_in):
        raise DimensionMismatch(
            f"densities of a {w.n_out}x{w.n_in} and a "
            f"{w_ref.n_out}x{w_ref.n_in} system are not comparable"
        )
    zs = _circle(config.circle_samples)
    try:
        phi_w = spectrum_samples(w, zs, config)
        phi_ref = spectrum_samples(w_ref, zs, config)
    except EvaluationAtPole:
        return float("inf")
    return float(np.max(np.abs(phi_w - phi_ref)))


def _report(w, w_minus, expected, pz, config):
    """Report on the candidate ``w``, whose minimal realization has the
    inventory ``pz``, against ``w_minus`` of McMillan degree ``expected``."""
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
        residual = spectrum_gap(w, w_minus, config)
        if not residual <= config.residual_tol:
            reasons.append(
                f"spectrum residual {residual:.3e} exceeds "
                f"{config.residual_tol:.1e}"
            )
    return FactorReport(
        degree=pz.degree, expected_degree=expected, spectrum_residual=residual,
        allpass_residual=None, pole_zero=pz, passed=not reasons,
        reasons=tuple(reasons),
    )


def _require_generated(w, w_minus, n, what, config):
    """Report on a generated factor on n states; raise if it fails."""
    report = _report(w, w_minus, n, _inventory(w, config), config)
    if not report.passed:
        raise SpectrumMismatch(
            f"{what} spectrum residual {report.spectrum_residual:.3e}"
        )
    return report


def verify_factor(w: Realization, w_minus: Realization,
                  config: ToleranceConfig = DEFAULT_TOL) -> FactorReport:
    """Check a candidate factor against the outer factor's spectrum.

    Compares spectral density samples on the circle, checks the McMillan
    degree against that of W-, and inventories poles and zeros; the degree
    and the inventory come from one reduction of the candidate.  Bad
    candidates, including those of another input or output width, produce a
    failing report, never an exception.
    """
    return _report(w, w_minus, mcmillan_degree(w_minus, config),
                   poles_zeros(w, config), config)


def minimal_factor(w_minus: Realization, div: AllPassDivisor,
                   config: ToleranceConfig = DEFAULT_TOL):
    """Minimal spectral factor W = W- T_l generated by a divisor.

    Returns ``div.factor``, the closed form on n states, and its report
    against ``w_minus`` with the degree n that the conjugate phase certified
    (the projector is 2n x 2n); a wrong spectrum is a numerical failure.
    """
    return div.factor, _require_generated(
        div.factor, w_minus, div.projector.shape[0] // 2, "generated factor",
        config)


def extract_left_divisor(w_minus: Realization, w0: Realization,
                         config: ToleranceConfig = DEFAULT_TOL,
                         w_bar_plus: Realization | None = None):
    """Extract and certify the divisor of a candidate minimal factor.

    W0 must have the shape of W-, and T- = W-^{-1} W0, reduced, must be
    all-pass (else NotAFactor).  A minimal factor has degree n, and its
    divisor flips exactly its poles and zeros outside the unit circle, so
    deg T- is their number: both degrees are certified from the candidate's
    inventory (else NotMinimalFactor).  Only the state count n of
    ``w_bar_plus`` is read; without it, n is that of the validated W-.  A
    candidate on more than n states is reduced.

    Returns the extracted divisor and a report on the candidate.
    """
    if (w0.n_out, w0.n_in) != (w_minus.n_out, w_minus.n_in):
        raise NotAFactor(f"candidate is {w0.n_out}x{w0.n_in}, the outer "
                         f"factor is {w_minus.n_out}x{w_minus.n_in}")
    n = (w_bar_plus or validate_outer(w_minus, config)).n
    t_minus = minimal(series(inverse(w_minus, config), w0), config)
    ap_res = allpass_residual(t_minus, config)
    if ap_res > ALLPASS_CERT_TOL:
        raise NotAFactor(
            f"quotient is not all-pass (residual {ap_res:.3e}); the candidate "
            "is not a spectral factor of the same density"
        )
    # W0 = W- T- with T- all-pass is a spectral factor, and no spectral
    # factor of this density has degree below n: on n states it is minimal.
    pz = _inventory(w0, config) if w0.n == n else poles_zeros(w0, config)
    if pz.degree != n:
        raise NotMinimalFactor(f"candidate degree {pz.degree} != {n}")
    if pz.zeros is None:
        raise NotMinimalFactor("candidate feedthrough is singular")
    k = sum(int(np.sum(np.abs(v) > 1.0)) for v in (pz.poles, pz.zeros))
    if t_minus.n != k:
        raise NotMinimalFactor(f"divisor degree {t_minus.n} != {k}, the "
                               "candidate's poles and zeros outside the disc")
    report = _report(w0, w_minus, n, pz, config)
    return t_minus, replace(report, allpass_residual=ap_res)


def moebius_gate(w: Realization, moebius_param: float | bool | None,
                 config: ToleranceConfig = DEFAULT_TOL):
    """Apply the gated Moebius change of variable.

    ``None`` or ``False`` leaves ``w`` as given, ``True`` picks a parameter
    clear of its poles and zeros, and a float is used as the parameter.

    Returns the working model and the parameter ``a`` (None when ungated).
    """
    if moebius_param is None or moebius_param is False:
        return w, None
    if moebius_param is True:
        pz = poles_zeros(w, config)
        zeros = pz.zeros if pz.zeros is not None else []
        a = choose_moebius_parameter(pz.poles, zeros, config)
    else:
        a = float(moebius_param)
    return moebius(w, a, config), a


def family_member(cp: ConjugatePhase, spec: SubspaceSpec,
                  w_minus: Realization, a: float | None = None,
                  config: ToleranceConfig = DEFAULT_TOL):
    """The factor of one subspace specification.

    ``cp`` is the conjugate phase of the working model, ``spec`` a
    :class:`SubspaceSpec` (else InvalidSubspace), ``w_minus`` the outer
    factor in the original variable and ``a`` the Moebius parameter that
    maps it to the working variable (None when ungated).  The divisor comes
    from the spec's basis, as in the enumeration.  A gated factor is mapped
    back to the original variable, still on n states, and re-verified
    against ``w_minus``; a failure there raises.

    Returns the divisor, the factor and its verification report.
    """
    v, k_gamma = _spec_basis(cp, spec, config)
    div = _divisor(cp, v, k_gamma, v @ v.T, config)
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
    return div, w, _require_generated(w, w_minus, report.expected_degree,
                                      "mapped-back factor", config)


def factor_family(w_minus: Realization, specs,
                  config: ToleranceConfig = DEFAULT_TOL,
                  moebius_param: float | bool | None = None):
    """Generate the factors for a batch of subspace specifications.

    ``moebius_param`` routes the pipeline through a Moebius change of
    variable (see :func:`moebius_gate`); ``None`` (default) processes the
    model as given.  Factors are mapped back to the original variable and
    re-verified.

    Returns a list of (factor, report) pairs, one per specification.
    """
    w_work, a = moebius_gate(w_minus, moebius_param, config)
    cp = conjugate_phase(w_work, config)
    return [family_member(cp, spec, w_minus, a, config)[1:] for spec in specs]
