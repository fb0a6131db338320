"""State-space algebra tests.

Reference-model expectations are derived from the exact scalar channels
(z - 1/4)/(z - 1/2) and (z - 1/3)/(z - 1/2) in rational arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spectralfactors as sf
from spectralfactors.statespace import eval_gap, transfer_equal

from helpers import ref_w_minus_entry


class TestRealization:
    def test_dimensions(self, ref_model):
        assert (ref_model.n, ref_model.n_in, ref_model.n_out) == (2, 2, 2)

    def test_constant(self):
        c = sf.constant([[2.0, 0.0], [0.0, 3.0]])
        assert c.n == 0
        assert_allclose(sf.evalfr(c, 1.7j), np.diag([2.0, 3.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(sf.DimensionMismatch):
            sf.Realization(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), [[0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sf.Realization(np.array([[np.nan]]), [[1.0]], [[1.0]], [[1.0]])


class TestEvalfr:
    def test_reference_at_one(self, ref_model):
        expected = [float(ref_w_minus_entry(Fraction(1), i)) for i in range(2)]
        assert expected == [1.5, 4.0 / 3.0]
        assert_allclose(sf.evalfr(ref_model, 1.0), np.diag(expected), atol=1e-14)

    def test_constant_any_point(self):
        c = sf.identity(3)
        assert_allclose(sf.evalfr(c, 123.0 + 4j), np.eye(3))

    def test_conjugate_phase_entry_at_minus_one(self, ref_cp):
        # entry (1,1) of T(z) is (1/2)(z-4)(z-1/2)/((z-1/4)(z-2))
        z = Fraction(-1)
        expected = (Fraction(1, 2) * (z - 4) * (z - Fraction(1, 2))
                    / ((z - Fraction(1, 4)) * (z - 2)))
        assert expected == 1
        val = sf.evalfr(ref_cp.t, -1.0)
        assert_allclose(val[0, 0], float(expected), atol=1e-12)

    def test_pole_raises(self, ref_model):
        with pytest.raises(sf.EvaluationAtPole):
            sf.evalfr(ref_model, 0.5)

    def test_batched_matches_single(self, ref_model):
        zs = [1.0, 2.0, 1.3j]
        batch = sf.evalfr_many(ref_model, zs)
        for k, z in enumerate(zs):
            assert_allclose(batch[k], sf.evalfr(ref_model, z), atol=1e-14)


class TestSeries:
    def test_identity_padding(self, ref_model, config):
        composed = sf.series(ref_model, sf.identity(2))
        zs = np.exp(2j * np.pi * np.arange(16) / 16) * 1.37
        assert eval_gap(composed, ref_model, zs) <= 1e-12

    def test_eval_multiplicativity(self, rng, config):
        a1 = rng.normal(size=(3, 3)) * 0.2
        r1 = sf.Realization(a1, rng.normal(size=(3, 2)),
                            rng.normal(size=(2, 3)), rng.normal(size=(2, 2)))
        a2 = rng.normal(size=(2, 2)) * 0.2
        r2 = sf.Realization(a2, rng.normal(size=(2, 2)),
                            rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        zs = 1.9 * np.exp(2j * np.pi * rng.uniform(size=32))
        prod = sf.evalfr_many(sf.series(r1, r2), zs)
        expected = sf.evalfr_many(r1, zs) @ sf.evalfr_many(r2, zs)
        assert np.max(np.abs(prod - expected)) <= 1e-10

    def test_cascaded_stage_quotients_give_conjugate_phase(self, ref_model, ref_cp):
        ext = ref_cp.extremals
        # T1 T2 = (W-^{-1} W+)(W+^{-1} Wbar+) = W-^{-1} Wbar+
        cascade = sf.series(sf.inverse(ref_model), ext.w_bar_plus)
        reduced = sf.minimal(cascade)
        assert reduced.n == 4
        assert transfer_equal(reduced, ref_cp.t)

    def test_product_with_outside_divisor_matches_candidate(self, ref_model,
                                                            ref_values):
        t_bar = sf.Realization(2 * np.eye(2), 1.5 * np.eye(2), 2 * np.eye(2),
                               2 * np.eye(2))
        prod = sf.series(ref_model, t_bar)
        assert eval_gap(sf.minimal(prod), ref_values["w_bar_minus"]) <= 1e-10

    def test_dimension_mismatch(self, ref_model):
        with pytest.raises(sf.DimensionMismatch):
            sf.series(ref_model, sf.identity(3))


class TestInverse:
    def test_constant(self):
        inv = sf.inverse(sf.constant(2.0 * np.eye(2)))
        assert_allclose(inv.d, 0.5 * np.eye(2))

    def test_reference_state_matrix_is_zero_matrix(self, ref_model):
        inv = sf.inverse(ref_model)
        assert_allclose(inv.a, np.diag([0.25, 1 / 3]), atol=1e-15)

    def test_involution(self, ref_model):
        twice = sf.inverse(sf.inverse(ref_model))
        assert eval_gap(twice, ref_model) <= 1e-11

    def test_product_is_identity(self, ref_model):
        zs = [1.0, 1.4 + 0.3j, -2.0]
        vals = sf.evalfr_many(ref_model, zs)
        inv_vals = sf.evalfr_many(sf.inverse(ref_model), zs)
        for v, iv in zip(vals, inv_vals):
            assert_allclose(iv @ v, np.eye(2), atol=1e-12)

    def test_singular_feedthrough(self):
        with pytest.raises(sf.SingularFeedthrough):
            sf.inverse(sf.Realization([[0.5]], [[1.0]], [[1.0]], [[0.0]]))


class TestMoebius:
    def test_zero_parameter_is_identity(self, ref_model):
        assert eval_gap(sf.moebius(ref_model, 0.0), ref_model) == 0.0

    def test_roundtrip(self, ref_model):
        back = sf.moebius(sf.moebius(ref_model, 0.4), -0.4)
        assert eval_gap(back, ref_model) <= 1e-11

    def test_pole_mapping(self, ref_model):
        # pole at 1/2 maps to (1/2 - 1/3)/(1 - 1/6) = 1/5
        a = Fraction(1, 3)
        p = Fraction(1, 2)
        expected = (p - a) / (1 - a * p)
        assert expected == Fraction(1, 5)
        moved = sf.moebius(ref_model, float(a))
        assert_allclose(np.linalg.eigvals(moved.a).real, [0.2, 0.2], atol=1e-12)

    def test_substitution_property(self, ref_model, rng):
        from spectralfactors.statespace import moebius_preimage
        a = 0.37
        zs = 1.9 * np.exp(2j * np.pi * rng.uniform(size=32))
        lhs = sf.evalfr_many(sf.moebius(ref_model, a), zs)
        rhs = sf.evalfr_many(ref_model, moebius_preimage(zs, a))
        assert np.max(np.abs(lhs - rhs)) <= 1e-11

    def test_circle_preserved(self):
        from spectralfactors.statespace import moebius_image
        zs = np.exp(2j * np.pi * np.arange(64) / 64)
        assert_allclose(np.abs(moebius_image(zs, 0.55)), 1.0, atol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_degree_preserved(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n))
        a *= 0.7 / max(abs(np.linalg.eigvals(a)))
        r = sf.Realization(a, rng.normal(size=(n, 2)),
                           rng.normal(size=(2, n)), np.eye(2))
        assert sf.mcmillan_degree(sf.moebius(r, 0.3)) == sf.mcmillan_degree(r)

    def test_parameter_hits_spectrum(self):
        r = sf.Realization([[0.5]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(sf.ParameterHitsSpectrum):
            sf.moebius(r, 1.5)
        with pytest.raises(sf.ParameterHitsSpectrum):
            sf.moebius(sf.Realization([[2.0]], [[1.0]], [[1.0]], [[1.0]]), 0.5)


class TestChooseMoebiusParameter:
    def test_first_grid_point_when_clear(self):
        assert sf.choose_moebius_parameter([0.5], [0.25, 1 / 3]) == 0.1
        assert sf.choose_moebius_parameter([], []) == 0.1

    def test_rejects_collision(self):
        a = sf.choose_moebius_parameter([10.0], [])
        assert a != 0.1
        for q in (a, -a, 1 / a, -1 / a):
            assert abs(q - 10.0) > 1e-6


class TestMinimal:
    def test_already_minimal_unchanged(self, ref_model):
        assert sf.minimal(ref_model) is ref_model

    def test_unobservable_copy_removed(self, ref_model, config):
        n = ref_model.n
        a = np.zeros((2 * n, 2 * n))
        a[:n, :n] = ref_model.a
        a[n:, n:] = ref_model.a
        b = np.vstack([ref_model.b, ref_model.b])
        c = np.hstack([ref_model.c, np.zeros((2, n))])
        padded = sf.Realization(a, b, c, ref_model.d)
        reduced = sf.minimal(padded)
        assert reduced.n == 2
        assert eval_gap(reduced, ref_model) <= 1e-11

    def test_inverse_cascade_is_constant(self, ref_model):
        reduced = sf.minimal(sf.series(sf.inverse(ref_model), ref_model))
        assert reduced.n == 0
        assert_allclose(reduced.d, np.eye(2), atol=1e-12)

    def test_stage_cascade_dimension(self, ref_model, ref_cp):
        ext = ref_cp.extremals
        t1 = sf.series(sf.inverse(ref_model), ext.w_plus)
        t2 = sf.series(sf.inverse(ext.w_plus), ext.w_bar_plus)
        assert sf.minimal(sf.series(t1, t2)).n == 4

    def test_preserves_transfer(self, rng):
        for _ in range(3):
            n = int(rng.integers(2, 5))
            a = rng.normal(size=(n, n))
            a *= 0.6 / max(abs(np.linalg.eigvals(a)))
            r = sf.Realization(a, rng.normal(size=(n, 2)),
                               rng.normal(size=(2, n)), rng.normal(size=(2, 2)))
            assert eval_gap(sf.minimal(r), r) <= 1e-10


class TestDegreesAndPoleZero:
    def test_reference_degrees(self, ref_model, ref_cp):
        assert sf.mcmillan_degree(ref_model) == 2
        assert sf.mcmillan_degree(sf.identity(2)) == 0
        assert sf.mcmillan_degree(ref_cp.t) == 4

    def test_degree_subadditive(self, rng):
        for _ in range(3):
            n = int(rng.integers(1, 4))
            mk = lambda: sf.Realization(
                rng.normal(size=(n, n)) * 0.3, rng.normal(size=(n, 2)),
                rng.normal(size=(2, n)), rng.normal(size=(2, 2)))
            r1, r2 = mk(), mk()
            total = sf.mcmillan_degree(sf.series(r1, r2))
            assert total <= sf.mcmillan_degree(r1) + sf.mcmillan_degree(r2)

    def test_reference_poles_zeros(self, ref_model):
        pz = sf.poles_zeros(ref_model)
        assert pz.degree == 2
        assert_allclose(sorted(pz.poles.real), [0.5, 0.5], atol=1e-12)
        assert_allclose(sorted(pz.zeros.real), [0.25, 1 / 3], atol=1e-12)

    def test_candidate_poles(self, ref_values):
        pz = sf.poles_zeros(ref_values["w_bar_minus"])
        assert_allclose(sorted(pz.poles.real), [2.0, 2.0], atol=1e-10)

    def test_flipped_zero_set(self, ref_cp):
        # zeros of the maximum-phase stable factor are the reciprocals of
        # the outer factor's zeros
        pz = sf.poles_zeros(ref_cp.extremals.w_plus)
        assert_allclose(sorted(pz.zeros.real), [3.0, 4.0], atol=1e-10)

    def test_constant_report(self):
        pz = sf.poles_zeros(sf.identity(2))
        assert pz.degree == 0
        assert pz.poles.size == 0
