"""Acceptance suite.

One test per acceptance criterion, each printing a pass line with the
measured residuals.  Criteria 1-5 and 9 check the bundled reference model
against closed-form values; criteria 6-8 are randomized property suites
over well-conditioned random outer models.
"""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spectralfactors as sf
from spectralfactors.demo import theta_feedthrough

from helpers import equivalence_gap, random_outer

CFG = sf.ToleranceConfig()
# The randomized suites certify sampled identities at 1e-7 over 64 circle
# points per check; tolerances below mirror the stated criteria.
SUITE_CFG = sf.ToleranceConfig(circle_samples=64, residual_tol=1e-7)
N_SEEDS = 50
N_MOEBIUS_CASES = 10


@pytest.fixture(scope="module")
def ref():
    w_minus = sf.Realization(0.5 * np.eye(2), np.eye(2),
                             np.diag([0.25, 1.0 / 6.0]), np.eye(2))
    cp = sf.conjugate_phase(w_minus, CFG)
    return w_minus, cp


@pytest.fixture(scope="module")
def random_suite():
    """Enumerate, certify and round-trip every divisor of 50 random models."""
    rows = []
    for seed in range(N_SEEDS):
        w = random_outer(seed, n_max=5)
        cp = sf.conjugate_phase(w, SUITE_CFG)
        ext = cp.extremals
        divisors = sf.enumerate_divisors(cp, SUITE_CFG)
        per_divisor = []
        for div in divisors:
            w_fac, report = sf.minimal_factor(w, div, SUITE_CFG)
            t_back, _ = sf.extract_left_divisor(w, w_fac, SUITE_CFG,
                                                w_bar_plus=ext.w_bar_plus)
            gap = equivalence_gap(div.t_ell, t_back) if div.degree else 0.0
            per_divisor.append({
                "degree": div.degree,
                "complement_degree": div.right_complement.n,
                "factor_degree": report.degree,
                "spectrum_residual": report.spectrum_residual,
                "extracted_degree": t_back.n,
                "roundtrip_gap": gap,
            })
        rows.append({"n": w.n, "divisors": per_divisor})
    return rows


def test_criterion_1_conjugate_phase_reproduction(ref):
    _, cp = ref
    expected_a = np.diag([0.25, 1.0 / 3.0, 2.0, 2.0])
    expected_b = np.array([[-15.0 / 14.0, 0.0], [0.0, -16.0 / 15.0],
                           [-3.0 / 7.0, 0.0], [0.0, -3.0 / 10.0]])
    expected_c = np.array([[0.25, 0.0, 2.0, 0.0], [0.0, 1.0 / 6.0, 0.0, 2.0]])
    expected_d = np.diag([0.5, 2.0 / 3.0])
    gaps = [np.max(np.abs(cp.t.a - expected_a)),
            np.max(np.abs(cp.t.b - expected_b)),
            np.max(np.abs(cp.t.c - expected_c)),
            np.max(np.abs(cp.t.d - expected_d))]
    assert max(gaps) <= 1e-10
    print(f"\n[criterion 1] PASS conjugate-phase realization entrywise, "
          f"max gap {max(gaps):.2e} (tol 1e-10)")


def test_criterion_2_structural_gramian(ref):
    _, cp = ref
    p0_inv = cp.p0_inv
    assert_allclose(p0_inv[:2, 2:], -np.eye(2), atol=1e-10)
    assert_allclose(p0_inv[2:, :2], -np.eye(2), atol=1e-10)
    assert_allclose(p0_inv[2:, 2:], (4.0 / 3.0) * np.eye(2), atol=1e-10)
    # top-left block carries the derived signs: it is the negative-definite
    # Stein solution, verified through the inverse-side identity below
    assert_allclose(p0_inv[:2, :2], np.diag([-1.0 / 15.0, -1.0 / 32.0]),
                    atol=1e-10)
    check = sf.check_gramian_identities(cp, CFG)
    assert check.inverse_residual <= 1e-12
    print(f"\n[criterion 2] PASS structural Gramian blocks, inverse-identity "
          f"residual {check.inverse_residual:.2e} (tol 1e-12)")


def test_criterion_3_outside_block_divisor(ref):
    _, cp = ref
    div = sf.divisor_from_projector(cp, np.diag([0.0, 0.0, 1.0, 1.0]), CFG)
    gaps = [np.max(np.abs(div.t_ell.a - 2.0 * np.eye(2))),
            np.max(np.abs(div.t_ell.b - 1.5 * np.eye(2))),
            np.max(np.abs(div.t_ell.c - 2.0 * np.eye(2))),
            np.max(np.abs(div.t_ell.d - 2.0 * np.eye(2)))]
    assert max(gaps) <= 1e-10
    print(f"\n[criterion 3] PASS outside-block divisor (2I, 1.5I, 2I, 2I), "
          f"max gap {max(gaps):.2e} (tol 1e-10)")


def test_criterion_4_angle_family(ref):
    w_minus, cp = ref
    worst_d, worst_spec = 0.0, 0.0
    for theta in (0.0, np.pi / 6.0, np.pi / 4.0, np.pi / 2.0):
        spec = sf.SubspaceSpec(
            a_basis=np.array([[np.cos(theta)], [np.sin(theta)]]))
        pi = sf.projector_from_spec(cp, spec, CFG)
        div = sf.divisor_from_projector(cp, pi, CFG)
        worst_d = max(worst_d,
                      float(np.max(np.abs(div.t_ell.d
                                          - theta_feedthrough(theta)))))
        w_theta, _ = sf.minimal_factor(w_minus, div, CFG)
        assert sf.mcmillan_degree(w_theta, CFG) == 2
        from spectralfactors.factors import spectrum_gap
        worst_spec = max(worst_spec,
                         spectrum_gap(w_theta, w_minus, CFG))
    assert worst_d <= 1e-10
    assert worst_spec <= 1e-8
    print(f"\n[criterion 4] PASS angle family: feedthrough gap "
          f"{worst_d:.2e} (tol 1e-10), spectrum residual {worst_spec:.2e} "
          f"(tol 1e-8) at 512 samples, degree 2")


def test_criterion_5_candidate_cross_check(ref):
    w_minus, cp = ref
    candidate = sf.Realization(
        2.0 * np.eye(2),
        np.array([[-4.0 / 5.0, 8.0 / 5.0], [-8.0 / 5.0, -4.0 / 5.0]]),
        np.array([[-7.0 / 8.0, -7.0 / 4.0], [5.0 / 3.0, -5.0 / 6.0]]),
        2.0 * np.eye(2))
    report = sf.verify_factor(candidate, cp)
    assert report.passed
    assert report.degree == 2
    assert report.spectrum_residual <= 1e-8
    t_minus, ex_report = sf.extract_left_divisor(
        w_minus, candidate, CFG, w_bar_plus=cp.extremals.w_bar_plus)
    assert t_minus.n == 2
    t_plus = sf.minimal(sf.series(sf.inverse(candidate, CFG),
                                  cp.extremals.w_bar_plus), CFG)
    assert t_minus.n + t_plus.n == 4
    print(f"\n[criterion 5] PASS closed-form candidate: spectrum residual "
          f"{report.spectrum_residual:.2e} (tol 1e-8), divisor degrees "
          f"{t_minus.n} + {t_plus.n} = 4")


def test_criterion_6_factor_family_properties(random_suite):
    n_divisors = 0
    worst_spec, worst_gap = 0.0, 0.0
    for row in random_suite:
        for item in row["divisors"]:
            n_divisors += 1
            assert item["factor_degree"] == row["n"]
            assert item["spectrum_residual"] <= 1e-7
            assert item["extracted_degree"] == item["degree"]
            assert item["roundtrip_gap"] <= 1e-7
            worst_spec = max(worst_spec, item["spectrum_residual"])
            worst_gap = max(worst_gap, item["roundtrip_gap"])
    print(f"\n[criterion 6] PASS {N_SEEDS} seeds, {n_divisors} divisors: "
          f"factor degree == n, worst spectrum residual {worst_spec:.2e} "
          f"(tol 1e-7), worst round-trip gap {worst_gap:.2e} (tol 1e-7)")


def test_criterion_7_degree_additivity(random_suite):
    n_divisors = 0
    for row in random_suite:
        for item in row["divisors"]:
            n_divisors += 1
            assert item["degree"] + item["complement_degree"] == 2 * row["n"]
    print(f"\n[criterion 7] PASS exact degree additivity for {n_divisors} "
          f"divisors across {N_SEEDS} random models")


def test_criterion_8_moebius_commutation():
    worst = 0.0
    for seed in range(N_MOEBIUS_CASES):
        w = random_outer(1000 + seed, n_max=4)
        pz = sf.poles_zeros(w, SUITE_CFG)
        a = sf.choose_moebius_parameter(pz.poles, pz.zeros, SUITE_CFG)
        w_lam = sf.moebius(w, a, SUITE_CFG)
        cp_direct = sf.conjugate_phase(w, SUITE_CFG)
        cp_lam = sf.conjugate_phase(w_lam, SUITE_CFG)
        direct = sf.enumerate_divisors(cp_direct, SUITE_CFG)
        routed = sf.enumerate_divisors(cp_lam, SUITE_CFG)
        assert len(direct) == len(routed)
        for div in routed:
            v_lam, _ = sf.minimal_factor(w_lam, div, SUITE_CFG)
            v_back = sf.moebius(v_lam, -a, SUITE_CFG)
            report = sf.verify_factor(v_back, cp_direct)
            assert report.degree == w.n
            assert report.spectrum_residual <= 1e-7
            worst = max(worst, report.spectrum_residual)
    print(f"\n[criterion 8] PASS Moebius commutation on {N_MOEBIUS_CASES} "
          f"cases: mapped-back factors match the direct pipeline, worst "
          f"spectrum residual {worst:.2e} (tol 1e-7)")


def test_criterion_9_density_display_correction(ref):
    w_minus, _ = ref
    phi_one = sf.spectrum_samples(w_minus, [1.0], CFG)[0]
    assert_allclose(phi_one, np.diag([2.25, 16.0 / 9.0]), atol=1e-12)

    def channel_two(z):
        num = (Fraction(2, 3) * z * z - Fraction(20, 9) * z + Fraction(2, 3))
        den = z * z - Fraction(5, 2) * z + 1
        return num / den

    worst = 0.0
    zs = np.exp(2j * np.pi * np.arange(16) / 16)
    phi = sf.spectrum_samples(w_minus, zs, CFG)
    for k, z in enumerate(zs):
        expected = complex(Fraction(2, 3)) * z * z - complex(Fraction(20, 9)) * z \
            + complex(Fraction(2, 3))
        expected /= z * z - 2.5 * z + 1.0
        worst = max(worst, abs(phi[k, 1, 1] - expected))
    assert worst <= 1e-10
    exact_at_one = channel_two(Fraction(1))
    assert exact_at_one == Fraction(16, 9)
    print(f"\n[criterion 9] PASS density samples: Phi(1) = diag(9/4, 16/9) "
          f"to 1e-12; channel-2 rational form matches at 16 points, worst "
          f"gap {worst:.2e} (tol 1e-10)")
