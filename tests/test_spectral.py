"""Extremal factors and conjugate phase construction.

Golden values for the reference model are recomputed here in exact rational
arithmetic before being compared against the floating-point pipeline.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spectralfactors as sf
from spectralfactors.spectral import _allpass_completion
from helpers import (circle_points, full_gamma_divisor, fuzz_outer,
                     random_outer, recipe_outer, ref_density_entry)


def _sqrt_fraction(q):
    """Exact square root of a Fraction that is a perfect square."""
    from math import isqrt
    num, den = isqrt(q.numerator), isqrt(q.denominator)
    assert num * num == q.numerator and den * den == q.denominator
    return Fraction(num, den)


def rational_reference_chain():
    """The two-stage construction chain for the reference model over
    Fractions, channel by channel (the model is two decoupled scalar
    channels): zero flip to W+ by (G1, H1, U1), then pole flip to Wbar+ by
    (G2, H2, U2).  The library builds both factors in closed form; the
    chain is the independent derivation they are checked against."""
    a = Fraction(1, 2)
    zeros = (Fraction(1, 4), Fraction(1, 3))
    out = {"x": [], "u1": [], "g1": [], "b_plus": [], "d_plus": [],
           "y": [], "h2": [], "u2": [], "g2": [], "z": [],
           "c_bar_plus": [], "d_bar_plus": [], "b_t": [], "d_t": []}
    for gz in zeros:
        h1 = a - gz                       # D^{-1} C entry; gz is the zero
        x = (h1 * h1) / (gz * gz - 1)     # gz^2 x - x = h1^2
        u1 = _sqrt_fraction(1 + h1 * h1 / x)
        g1 = gz / x * h1 / u1
        b_plus = u1 + g1                  # B = D = 1 per channel
        d_plus = u1
        y = (b_plus * b_plus) / (1 - a * a)   # y = a^2 y + b_plus^2
        h2 = b_plus / a
        u2 = _sqrt_fraction(1 + h2 * h2 / y)
        g2 = (1 / a) / y * h2 / u2
        out["x"].append(x)
        out["u1"].append(u1)
        out["g1"].append(g1)
        out["b_plus"].append(b_plus)
        out["d_plus"].append(d_plus)
        out["y"].append(y)
        out["h2"].append(h2)
        out["u2"].append(u2)
        out["g2"].append(g2)
        out["z"].append(y + 1 / x)
        out["c_bar_plus"].append(h1 * y + d_plus * h2)   # C Y + D+ H2
        out["d_bar_plus"].append(d_plus * u2)
        out["b_t"].append(g1 * u2 + g2 / x)
        out["d_t"].append(u1 * u2)
    return out


RATIONAL = rational_reference_chain()


def as_diag(key):
    return np.diag([float(v) for v in RATIONAL[key]])


class TestZeroMatrix:
    def test_reference(self, ref_model):
        assert_allclose(sf.inverse(ref_model).a, np.diag([0.25, 1 / 3]),
                        atol=1e-15)

    def test_zero_input(self):
        r = sf.Realization(0.5 * np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert_allclose(sf.inverse(r).a, r.a)

    def test_zero_output(self):
        r = sf.Realization(0.5 * np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(2))
        assert_allclose(sf.inverse(r).a, r.a)


class TestValidateOuter:
    def test_reference_passes(self, ref_model):
        sf.validate_outer(ref_model)

    def test_unstable_pole(self):
        r = sf.Realization(1.5 * np.eye(2), np.eye(2), 0.1 * np.eye(2), np.eye(2))
        with pytest.raises(sf.NotOuter):
            sf.validate_outer(r)

    def test_unstable_zero(self):
        r = sf.Realization(0.5 * np.eye(2), np.eye(2), -np.eye(2), np.eye(2))
        with pytest.raises(sf.NotOuter):
            sf.validate_outer(r)

    def test_singular_state_matrix(self):
        r = sf.Realization(np.diag([0.5, 0.0]), np.eye(2),
                           np.diag([0.25, 1 / 6]), np.eye(2))
        with pytest.raises(sf.NotOuter):
            sf.validate_outer(r)

    def test_singular_feedthrough(self):
        r = sf.Realization(0.5 * np.eye(2), np.eye(2), 0.1 * np.eye(2),
                           np.diag([1.0, 0.0]))
        with pytest.raises(sf.SingularFeedthrough):
            sf.validate_outer(r)

    def test_non_minimal(self, ref_model):
        a = np.zeros((4, 4))
        a[:2, :2] = ref_model.a
        a[2:, 2:] = ref_model.a
        padded = sf.Realization(a, np.vstack([ref_model.b, ref_model.b]),
                                np.hstack([ref_model.c, np.zeros((2, 2))]),
                                ref_model.d)
        with pytest.raises(sf.NotOuter,
                           match="not minimal: McMillan degree 2 on 4 states"):
            sf.validate_outer(padded)


class TestOuterToPlus:
    def test_reference_chain(self, ref_model):
        cp = sf.conjugate_phase(ref_model)
        ext = cp.extremals
        t_gamma = full_gamma_divisor(cp).t_ell
        assert RATIONAL["x"] == [Fraction(-1, 15), Fraction(-1, 32)]
        assert_allclose(ext.x, as_diag("x"), atol=1e-14)
        assert_allclose(t_gamma.d, as_diag("u1"), atol=1e-14)
        assert_allclose(t_gamma.b, as_diag("g1"), atol=1e-13)
        assert_allclose(ext.w_plus.b, as_diag("b_plus"), atol=1e-13)
        assert_allclose(ext.w_plus.d, as_diag("d_plus"), atol=1e-14)
        assert sf.allpass_residual(t_gamma) <= 1e-10

    def test_flipped_zeros(self, ref_model):
        pz = sf.poles_zeros(sf.extremal_set(ref_model).w_plus)
        assert_allclose(sorted(pz.zeros.real), [3.0, 4.0], atol=1e-10)
        assert_allclose(sorted(pz.poles.real), [0.5, 0.5], atol=1e-12)

    def test_constant_model(self):
        cp = sf.conjugate_phase(sf.identity(2))
        t_gamma = full_gamma_divisor(cp).t_ell
        assert t_gamma.n == 0
        assert_allclose(t_gamma.d, np.eye(2))
        assert cp.extremals.w_plus.n == 0


class TestPlusToBarPlus:
    def test_reference_chain(self, ref_model):
        ext = sf.extremal_set(ref_model)
        assert RATIONAL["y"] == [Fraction(49, 3), Fraction(100, 3)]
        assert_allclose(ext.y, as_diag("y"), rtol=1e-13)
        assert_allclose(ext.w_bar_plus.a, 2.0 * np.eye(2), atol=1e-13)
        assert_allclose(ext.w_bar_plus.b, as_diag("g2"), atol=1e-13)
        assert_allclose(ext.w_bar_plus.c, as_diag("c_bar_plus"), atol=1e-13)
        assert_allclose(ext.w_bar_plus.d, as_diag("d_bar_plus"), atol=1e-13)
        t2 = sf.series(sf.inverse(ext.w_plus), ext.w_bar_plus)
        assert sf.allpass_residual(t2) <= 1e-10

    def test_conjugate_outer_value_at_zero(self, ref_model):
        # entry (1,1) of the conjugate outer factor is (1/2)(z-4)/(z-2)
        z = Fraction(0)
        expected = Fraction(1, 2) * (z - 4) / (z - 2)
        assert expected == 1
        ext = sf.extremal_set(ref_model)
        assert_allclose(sf.evalfr_many(ext.w_bar_plus, [0.0])[0][0, 0],
                        float(expected), atol=1e-12)

    def test_direct_form_matches_cascade(self, ref_model, ref_cp):
        ext = ref_cp.extremals
        cascade = sf.minimal(sf.series(ref_model, ref_cp.t))
        assert cascade.n == ext.w_bar_plus.n == 2
        from spectralfactors.statespace import eval_gap
        assert eval_gap(cascade, ext.w_bar_plus) <= 1e-10

    def test_constant_model(self):
        ext = sf.extremal_set(sf.identity(2))
        assert ext.w_bar_plus.n == 0
        assert_allclose(ext.w_bar_plus.d, np.eye(2))


class TestConjugatePhase:
    def test_reference_realization(self, ref_cp):
        assert_allclose(ref_cp.t.a, np.diag([0.25, 1 / 3, 2.0, 2.0]), atol=1e-13)
        b_expect = np.zeros((4, 2))
        b_expect[0, 0] = float(RATIONAL["b_t"][0])
        b_expect[1, 1] = float(RATIONAL["b_t"][1])
        b_expect[2, 0] = float(RATIONAL["g2"][0])
        b_expect[3, 1] = float(RATIONAL["g2"][1])
        assert RATIONAL["b_t"] == [Fraction(-15, 14), Fraction(-16, 15)]
        assert_allclose(ref_cp.t.b, b_expect, atol=1e-13)
        c_expect = np.array([[0.25, 0.0, 2.0, 0.0], [0.0, 1 / 6, 0.0, 2.0]])
        assert_allclose(ref_cp.t.c, c_expect, atol=1e-13)
        assert RATIONAL["d_t"] == [Fraction(1, 2), Fraction(2, 3)]
        assert_allclose(ref_cp.t.d, as_diag("d_t"), atol=1e-13)

    def test_reference_gramian_inverse(self, ref_cp):
        expected = np.zeros((4, 4))
        expected[:2, :2] = as_diag("x")
        expected[2:, 2:] = np.diag([float(v) for v in RATIONAL["z"]])
        expected[:2, 2:] = -np.eye(2)
        expected[2:, :2] = -np.eye(2)
        assert RATIONAL["z"] == [Fraction(4, 3), Fraction(4, 3)]
        assert_allclose(ref_cp.p0_inv, expected, atol=1e-13)

    def test_gramian_closed_form_matches_inversion(self, ref_cp, config):
        t = ref_cp.t
        num_inv = np.linalg.inv(sf.solve_stein(t.a.T, t.b @ t.b.T))
        assert np.linalg.norm(num_inv - ref_cp.p0_inv) <= config.residual_tol * (
            1.0 + np.linalg.norm(ref_cp.p0_inv))

    def test_degree_and_blocks(self, ref_cp):
        assert ref_cp.t.n == 4
        assert ref_cp.n_gamma == ref_cp.n_a == 2
        assert sf.mcmillan_degree(ref_cp.t) == 4
        assert_allclose(ref_cp.gamma, np.diag([0.25, 1 / 3]), atol=1e-14)
        assert_allclose(ref_cp.a_inv_t, 2.0 * np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("param, a", [(None, None), (False, None),
                                          (0.3, 0.3), (True, 0.1)])
    def test_carries_its_moebius_gate(self, ref_model, param, a):
        # The automatic parameter clears the poles 1/2 and zeros 1/4, 1/3.
        cp = sf.conjugate_phase(ref_model, sf.DEFAULT_TOL, param)
        assert cp.moebius_a == a and cp.w_original is ref_model
        assert (cp.extremals.w_minus is ref_model) == (a is None)
        with pytest.raises(sf.ParameterHitsSpectrum, match="must be < 1"):
            sf.conjugate_phase(ref_model, sf.DEFAULT_TOL, 1.5)

    def test_constant_model(self):
        cp = sf.conjugate_phase(sf.identity(2))
        assert cp.t.n == 0
        assert_allclose(cp.t.d, np.eye(2))

    @pytest.mark.parametrize("seed", [103, 143, 152, 173, 182])
    def test_x_test_names_its_margin(self, seed):
        # Minimal outer models whose X is negative definite but too
        # ill-conditioned for the eigenvalue test: the refusal names the
        # largest eigenvalue of X, its threshold and cond X, and does not
        # call the model non-outer.
        w = fuzz_outer(seed)
        sf.validate_outer(w)
        with pytest.raises(sf.NotOuter) as info:
            sf.conjugate_phase(w)
        text = str(info.value)
        assert "not a minimal outer factor" not in text
        match = re.fullmatch(
            r"zero-direction Stein solution X fails the definiteness test: "
            r"its largest eigenvalue (\S+) is not below -rank_rel_tol "
            r"\|lambda_min\(X\)\| = (\S+) \(cond X = (\S+)\)", text)
        largest, threshold, cond = (float(v) for v in match.groups())
        assert threshold < 0 and largest >= threshold
        assert cond >= 1.0 / sf.DEFAULT_TOL.rank_rel_tol


class TestSpectrumSample:
    def test_reference_at_one(self, ref_model):
        expected = [float(ref_density_entry(Fraction(1), i)) for i in range(2)]
        assert expected == [2.25, 16.0 / 9.0]
        assert_allclose(sf.spectrum_samples(ref_model, [1.0])[0],
                        np.diag(expected), atol=1e-13)

    def test_candidate_shares_spectrum(self, ref_model, ref_values):
        z = np.exp(0.4j)
        phi_ref = sf.spectrum_samples(ref_model, [z])[0]
        phi_cand = sf.spectrum_samples(ref_values["w_bar_minus"], [z])[0]
        assert_allclose(phi_cand, phi_ref, atol=1e-12)

    def test_all_pass_spectrum_is_identity(self, ref_values):
        t_bar = ref_values["divisor_2"]
        for z in np.exp(1j * np.array([0.0, 1.1, 2.9])):
            assert_allclose(sf.spectrum_samples(t_bar, [z])[0], np.eye(2),
                            atol=1e-12)


class TestIsAllPass:
    def test_reference_divisor(self, ref_values, config):
        assert sf.allpass_residual(ref_values["divisor_2"]) <= config.residual_tol

    def test_outer_factor_is_not(self, ref_model, config):
        assert not sf.allpass_residual(ref_model) <= config.residual_tol

    def test_constant_orthogonal(self, config):
        th = 0.7
        q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert sf.allpass_residual(sf.constant(q)) <= config.residual_tol
        assert not sf.allpass_residual(sf.constant(2.0 * q)) <= config.residual_tol

    def test_non_square_system_is_a_dimension_mismatch(self):
        wide = sf.constant([[0.6, 0.8]])
        with pytest.raises(sf.DimensionMismatch, match="square system"):
            sf.allpass_residual(wide)


class TestGramianIdentities:
    def test_reference_residuals(self, ref_cp):
        check = sf.check_gramian_identities(ref_cp)
        assert check.passed
        assert max(check.residuals().values()) <= 1e-10

    def test_perturbation_detected(self, ref_cp):
        from dataclasses import replace
        bumped = replace(ref_cp, t=sf.Realization(
            ref_cp.t.a, ref_cp.t.b + 1e-3, ref_cp.t.c, ref_cp.t.d))
        check = sf.check_gramian_identities(bumped)
        assert not check.passed
        assert 1e-5 <= check.cross_residual <= 1e-1

    def test_constant_vacuous(self):
        cp = sf.conjugate_phase(sf.identity(2))
        assert sf.check_gramian_identities(cp).passed


class TestAllpassCompletion:
    def test_indefinite_gram_raises(self):
        # Q = 4/3 solves A^T Q A - Q = -C^T C, the wrong sign: the
        # complement's Gram matrix is positive, not negative, definite.
        with pytest.raises(sf.CompressionNotPD, match="not negative definite"):
            _allpass_completion(np.array([[0.5]]), np.array([[1.0]]),
                                np.array([[4 / 3]]), "test", sf.DEFAULT_TOL)

    def test_rank_deficient_complement_raises(self):
        # [A^T Q, -C^T] = 0 has a two-dimensional null space, not m = 1.
        with pytest.raises(sf.CompressionNotPD,
                           match="not 1-dimensional: gap s_n/s_1"):
            _allpass_completion(np.array([[0.5]]), np.array([[0.0]]),
                                np.array([[0.0]]), "test", sf.DEFAULT_TOL)


@pytest.mark.parametrize("seed", range(8))
class TestRandomModelInvariants:
    def test_structure(self, seed, config):
        w = random_outer(seed, n_max=4)
        cp = sf.conjugate_phase(w, config)
        ext = cp.extremals
        n = w.n
        # sign structure of the two Stein solutions
        assert np.all(np.linalg.eigvalsh(ext.x) < 0)
        assert np.all(np.linalg.eigvalsh(ext.y) > 0)
        # coupling identity Z = B B^T + A Z A^T
        resid = np.linalg.norm(ext.z - w.b @ w.b.T - w.a @ ext.z @ w.a.T)
        assert resid <= config.residual_tol * (1 + np.linalg.norm(ext.z))
        # all-pass quotients and the conjugate phase itself
        at_128 = sf.ToleranceConfig(circle_samples=128)
        t1 = sf.series(sf.inverse(w), ext.w_plus)
        t2 = sf.series(sf.inverse(ext.w_plus), ext.w_bar_plus)
        assert sf.allpass_residual(t1, at_128) <= 1e-7
        assert sf.allpass_residual(t2, at_128) <= 1e-7
        assert sf.allpass_residual(cp.t, at_128) <= 1e-7
        assert sf.mcmillan_degree(cp.t) == 2 * n
        # spectra of all extremal factors agree
        zs = np.exp(2j * np.pi * np.arange(64) / 64)
        phi = sf.spectrum_samples(w, zs)
        for other in (ext.w_plus, ext.w_bar_plus):
            gap = np.max(np.abs(sf.spectrum_samples(other, zs) - phi))
            assert gap <= config.residual_tol * (1 + np.max(np.abs(phi)))
        # pole reflection of the conjugate outer factor
        rec = np.sort(1.0 / np.linalg.eigvals(w.a).conj())
        got = np.sort(np.linalg.eigvals(ext.w_bar_plus.a))
        assert np.max(np.abs(np.sort_complex(rec) - np.sort_complex(got))) <= 1e-8
        # closed-form Gramian inverse against numerical inversion
        p0 = sf.solve_stein(cp.t.a.T, cp.t.b @ cp.t.b.T)
        gap = np.linalg.norm(np.linalg.inv(p0) - cp.p0_inv)
        assert gap <= config.residual_tol * (1 + np.linalg.norm(cp.p0_inv))


# The benchmark's unfiltered recipe beyond the n <= 5 ensemble: T is the
# all-pass completion of (C_T, A_T) from Q = [[X, -I], [-I, Z]], with no
# inverse of X or Y, so it stays all-pass at rounding level.
@pytest.mark.parametrize("n,seed", [(n, seed) for n in (6, 8, 12, 16)
                                    for seed in range(12)])
def test_recipe_conjugate_phase_is_all_pass(n, seed):
    cp = sf.conjugate_phase(recipe_outer(n, seed))
    assert cp.t.n == 2 * n and cp.gramian.passed
    at_256 = sf.ToleranceConfig(circle_samples=256)
    assert sf.allpass_residual(cp.t, at_256) <= 1e-12


def _terms(r, zs):
    """Size of the terms a circle evaluation of ``r`` sums: the largest
    ||D|| + ||C|| ||(zI - A)^{-1} B|| over ``zs``."""
    eye = np.eye(r.n)
    return max(np.linalg.norm(r.d, 2) + np.linalg.norm(r.c, 2)
               * np.linalg.norm(np.linalg.solve(z * eye - r.a, r.b), 2)
               for z in zs)


# Both extremal factors are members of the family W- T_l: Wbar+ = W- T and
# W+ = W- T_Gamma, each realized in closed form on n states.  The output
# map of W- shrinks with n in this recipe, so ||B+|| reaches 3e5 at n = 16
# while |W+| stays near 1: every double-precision evaluation of W+, and of
# W- T_Gamma, then carries about 3e-12 of rounding, so that gap is measured
# against the size of the terms evaluated.
@pytest.mark.parametrize("n,seed", [(n, seed) for n in (2, 4, 6, 8, 12, 16)
                                    for seed in range(12)])
def test_recipe_extremal_factors_are_family_members(n, seed):
    w = recipe_outer(n, seed)
    cp = sf.conjugate_phase(w)
    ext = cp.extremals
    zs = circle_points(256)
    vals = sf.evalfr_many(ext.w_bar_plus, zs)
    gap = np.max(np.abs(vals - sf.evalfr_many(sf.series(w, cp.t), zs)))
    assert gap <= 1e-12 * np.max(np.abs(vals))
    cascade = sf.series(w, full_gamma_divisor(cp).t_ell)
    gap = np.max(np.abs(sf.evalfr_many(ext.w_plus, zs)
                        - sf.evalfr_many(cascade, zs)))
    assert gap <= 1e-12 * _terms(ext.w_plus, zs)
    phi = sf.spectrum_samples(w, zs)
    for other in (ext.w_plus, ext.w_bar_plus):
        gap = np.max(np.abs(sf.spectrum_samples(other, zs) - phi))
        assert gap <= 1e-6 * np.max(np.abs(phi))
