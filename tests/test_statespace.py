"""State-space algebra tests.

Reference-model expectations are derived from the exact scalar channels
(z - 1/4)/(z - 1/2) and (z - 1/3)/(z - 1/2) in rational arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spectralfactors as sf
from spectralfactors import statespace
from spectralfactors.demo import reference_model
from spectralfactors.factors import spectrum_gap
from spectralfactors.statespace import _LU_MAX_POINTS, eval_gap

from helpers import (bench_workloads, fuzz_outer, moebius_image,
                     moebius_preimage, ref_w_minus_entry, transfer_equal)


class TestRealization:
    def test_dimensions(self, ref_model):
        assert (ref_model.n, ref_model.n_in, ref_model.n_out) == (2, 2, 2)

    def test_constant(self):
        c = sf.constant([[2.0, 0.0], [0.0, 3.0]])
        assert c.n == 0
        assert_allclose(sf.evalfr_many(c, [1.7j])[0], np.diag([2.0, 3.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(sf.DimensionMismatch):
            sf.Realization(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), [[0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sf.Realization(np.array([[np.nan]]), [[1.0]], [[1.0]], [[1.0]])


# Point counts on both sides of the kernel switch: batched LU up to
# _LU_MAX_POINTS points, the Schur form beyond.
SWITCH = [1, _LU_MAX_POINTS, _LU_MAX_POINTS + 1, 512]
LU_AND_SCHUR = [1, _LU_MAX_POINTS + 1]


def _lu_reference(r, zs):
    """G(z) at each point by numpy's batched LU solve."""
    lhs = zs[:, None, None] * np.eye(r.n) - r.a
    rhs = np.broadcast_to(r.b + 0j, (zs.size, r.n, r.n_in))
    return r.c @ np.linalg.solve(lhs, rhs) + r.d


def _non_normal(n, m, seed):
    """Random rotation of a bidiagonal A with real spectrum in (-0.9, 0.9)
    and couplings 0.5, so A Aᵀ - Aᵀ A is of order one."""
    rng = np.random.default_rng(seed)
    a = np.diag(0.9 * rng.uniform(-1, 1, n)) + np.diag(np.full(n - 1, 0.5), 1)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return sf.Realization(q @ a @ q.T, rng.normal(size=(n, m)),
                          rng.normal(size=(m, n)), rng.normal(size=(m, m)))


def _dense(n, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    return sf.Realization(a, rng.normal(size=(n, m)), rng.normal(size=(m, n)),
                          rng.normal(size=(m, m)))


def _rotations(pairs):
    """A = blockdiag(rho [[cos t, -sin t], [sin t, cos t]]) with B = C = I,
    D = 0: eigenvalues rho e^{+-it}, and G(z) = (zI - A)^{-1} in closed form
    blockwise, 1 / ((z - a)^2 + b^2) [[z - a, -b], [b, z - a]]."""
    n = 2 * len(pairs)
    a = np.zeros((n, n))
    for j, (rho, t) in enumerate(pairs):
        a[2 * j:2 * j + 2, 2 * j:2 * j + 2] = rho * np.array(
            [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return sf.Realization(a, np.eye(n), np.eye(n), np.zeros((n, n)))


class TestEvalfr:
    def test_reference_at_one(self, ref_model):
        expected = [float(ref_w_minus_entry(Fraction(1), i)) for i in range(2)]
        assert expected == [1.5, 4.0 / 3.0]
        for k in LU_AND_SCHUR:
            vals = sf.evalfr_many(ref_model, [1.0] * k)
            assert_allclose(vals, np.broadcast_to(np.diag(expected),
                                                  vals.shape), atol=1e-14)

    def test_constant_any_point(self):
        c = sf.identity(3)
        assert_allclose(sf.evalfr_many(c, [123.0 + 4j])[0], np.eye(3))

    def test_conjugate_phase_entry_at_minus_one(self, ref_cp):
        # entry (1,1) of T(z) is (1/2)(z-4)(z-1/2)/((z-1/4)(z-2))
        z = Fraction(-1)
        expected = (Fraction(1, 2) * (z - 4) * (z - Fraction(1, 2))
                    / ((z - Fraction(1, 4)) * (z - 2)))
        assert expected == 1
        for k in LU_AND_SCHUR:
            vals = sf.evalfr_many(ref_cp.t, [-1.0] * k)
            assert_allclose(vals[:, 0, 0], float(expected), atol=1e-12)

    @pytest.mark.parametrize("k", SWITCH)
    def test_reference_on_the_circle(self, ref_model, k):
        # Exact rational samples at z = e^{2 pi i j / k}, rounded once.
        zs = np.exp(2j * np.pi * np.arange(k) / k)
        vals = sf.evalfr_many(ref_model, zs)
        for i, zero in enumerate((0.25, 1 / 3)):
            assert_allclose(vals[:, i, i], (zs - zero) / (zs - 0.5),
                            rtol=1e-14)
        assert not np.any(vals[:, 0, 1]) and not np.any(vals[:, 1, 0])

    @pytest.mark.parametrize("k", SWITCH)
    def test_schur_and_lu_kernels_agree(self, rng, k):
        r = _dense(8, 2, 3)
        zs = 1.1 * np.exp(2j * np.pi * rng.uniform(size=k))
        eigs = np.linalg.eigvals(r.a)
        lu = statespace._evalfr(r, zs, (eigs, None), sf.DEFAULT_TOL)
        schur = statespace._evalfr(r, zs, statespace._decompose(r.a, 10 ** 6),
                                   sf.DEFAULT_TOL)
        scale = np.max(np.abs(lu))
        assert np.max(np.abs(schur - lu)) <= 1e-13 * scale
        assert_allclose(sf.evalfr_many(r, zs), schur if k > _LU_MAX_POINTS
                        else lu, rtol=0, atol=0)

    @pytest.mark.parametrize("make", [lambda: _non_normal(32, 2, 0),
                                      lambda: _dense(16, 16, 1)],
                             ids=["non_normal_32x2", "dense_16x16"])
    def test_large_models_match_batched_lu(self, make):
        r = make()
        zs = np.exp(2j * np.pi * np.arange(512) / 512)
        ref = _lu_reference(r, zs)
        gap = np.max(np.abs(sf.evalfr_many(r, zs) - ref))
        assert gap <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", SWITCH)
    def test_complex_conjugate_pairs(self, k):
        pairs = [(0.9, 0.3), (0.5, 2.0), (0.99, np.pi / 2)]
        r = _rotations(pairs)
        zs = 1.05 * np.exp(2j * np.pi * (np.arange(k) + 0.5) / k)
        vals = sf.evalfr_many(r, zs)
        for j, (rho, t) in enumerate(pairs):
            re, im = rho * np.cos(t), rho * np.sin(t)
            det = (zs - re) ** 2 + im ** 2
            blk = vals[:, 2 * j:2 * j + 2, 2 * j:2 * j + 2]
            assert_allclose(blk[:, 0, 0], (zs - re) / det, rtol=1e-12)
            assert_allclose(blk[:, 0, 1], -im / det, rtol=1e-12)
            assert_allclose(blk[:, 1, 0], im / det, rtol=1e-12)
            assert_allclose(blk[:, 1, 1], (zs - re) / det, rtol=1e-12)

    def test_pole_raises(self, ref_model):
        # One point at (or inside the guard of) the pole 1/2 among k - 1
        # clear points on the circle.
        for k in LU_AND_SCHUR:
            for offset in (0.0, 1e-14):
                zs = np.append(np.exp(2j * np.pi * np.arange(k - 1)
                                      / max(k - 1, 1)), 0.5 + offset)
                with pytest.raises(sf.EvaluationAtPole):
                    sf.evalfr_many(ref_model, zs)

    @pytest.mark.parametrize("k", LU_AND_SCHUR)
    def test_overflow_next_to_a_pole_raises(self, k):
        # A Jordan block at 0 squares the inverse distance: a point 1e-200
        # away passes a guard of 1e-300 and overflows the solve.
        r = sf.Realization([[0.0, 1.0], [0.0, 0.0]], np.eye(2), np.eye(2),
                           np.zeros((2, 2)))
        config = sf.ToleranceConfig(rank_rel_tol=1e-300)
        with pytest.raises(sf.EvaluationAtPole, match="overflow"):
            sf.evalfr_many(r, np.full(k, 1e-200), config)

    @pytest.mark.parametrize("samples", [8, 64])
    def test_circle_checks_are_inf_at_a_pole(self, samples):
        config = sf.ToleranceConfig(circle_samples=samples)
        on_circle = sf.Realization([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert sf.allpass_residual(on_circle, config) == float("inf")
        assert spectrum_gap(on_circle, on_circle, config) == float("inf")

    @pytest.mark.parametrize("point", [np.nan, np.inf, complex(0.3, np.nan)])
    @pytest.mark.parametrize("k", LU_AND_SCHUR)
    def test_rejects_non_finite_points(self, ref_model, point, k):
        zs = np.append(np.full(k - 1, 1.3), point)
        for r in (ref_model, sf.identity(2)):
            with pytest.raises(ValueError, match="non-finite"):
                sf.evalfr_many(r, zs)
        with pytest.raises(ValueError, match="non-finite"):
            sf.spectrum_samples(ref_model, zs)
        with pytest.raises(ValueError, match="non-finite"):
            eval_gap(ref_model, ref_model, zs)

    def test_batched_matches_single(self, ref_model):
        zs = [1.0, 2.0, 1.3j]
        batch = sf.evalfr_many(ref_model, zs)
        for k, z in enumerate(zs):
            assert_allclose(batch[k], sf.evalfr_many(ref_model, [z])[0],
                            atol=1e-14)


# Circle sample counts, even and odd, on both sides of the kernel switch.
HALF_CIRCLE_K = [8, 9, 64, 512]


def _all_k(r, zs, config):
    """G at the k points ``zs`` of a full circle, through ``evalfr_many`` in
    two calls: the floor(k/2) + 1 points that the library samples, then the
    rest.  For the k of HALF_CIRCLE_K both calls take the same kernel as the
    library's one call."""
    h = zs.size // 2 + 1
    return np.concatenate([sf.evalfr_many(r, zs[:h], config),
                           sf.evalfr_many(r, zs[h:], config)])


def _term_size(r, zs):
    """max over ``zs`` of ||C|| ||(zI - A)^{-1}|| ||B|| + ||D||, the size of
    the terms that an evaluation of G sums."""
    nrm = np.linalg.norm
    return max(nrm(r.c, 2) * nrm(np.linalg.inv(z * np.eye(r.n) - r.a), 2)
               * nrm(r.b, 2) + nrm(r.d, 2) for z in zs)


class TestHalfCircle:
    """A real system has G(conj z) = conj G(z), so the circle checks sample
    only the floor(k/2) + 1 points e^{2 pi i j / k}, j <= k/2.  Their
    results equal the maximum over all k points up to the evaluation's
    rounding, bounded here by 32 eps times the squared term sizes (the
    largest seen over these systems is 17 eps)."""

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_checks_equal_the_full_circle_maximum(self, n, m):
        w, w_ref = _dense(n, m, 1), _dense(n, m, 101)
        if n > 1:   # each has complex pole pairs
            for r in (w, w_ref):
                assert np.any(np.linalg.eigvals(r.a).imag > 1e-3)
        eps = np.finfo(float).eps
        for k in HALF_CIRCLE_K:
            config = sf.ToleranceConfig(circle_samples=k)
            zs = np.exp(2j * np.pi * np.arange(k) / k)
            g, g_ref = _all_k(w, zs, config), _all_k(w_ref, zs, config)
            phi = g @ np.conj(np.swapaxes(g, -1, -2))
            phi_ref = g_ref @ np.conj(np.swapaxes(g_ref, -1, -2))
            size, size_ref = _term_size(w, zs), _term_size(w_ref, zs)

            full = np.max(np.abs(phi - np.eye(m)))
            assert (abs(sf.allpass_residual(w, config) - full)
                    <= 32 * eps * (size ** 2 + 1))
            full = np.max(np.abs(phi - phi_ref))
            assert (abs(spectrum_gap(w, w_ref, config) - full)
                    <= 32 * eps * (size ** 2 + size_ref ** 2))
            both = np.concatenate([zs, 1.37 * zs])
            full = np.max(np.abs(_all_k(w, both, config)
                                 - _all_k(w_ref, both, config)))
            assert (abs(eval_gap(w, w_ref, config=config) - full)
                    <= 32 * eps * (size + size_ref))

    def test_lower_half_pole_is_reached_through_its_conjugate(self):
        # Poles exactly at e^{+-2 pi i 3/8}: only the upper one, j = 3, is
        # among the k = 8 samples j = 0..4; j = 5 is not sampled.
        t = 2 * np.pi * 3 / 8
        r = sf.Realization([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]],
                           [[1.0], [0.0]], [[1.0, 0.0]], [[1.0]])
        config = sf.ToleranceConfig(circle_samples=8)
        assert sf.allpass_residual(r, config) == float("inf")
        assert spectrum_gap(r, r, config) == float("inf")


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
        a = 0.37
        zs = 1.9 * np.exp(2j * np.pi * rng.uniform(size=32))
        lhs = sf.evalfr_many(sf.moebius(ref_model, a), zs)
        rhs = sf.evalfr_many(ref_model, moebius_preimage(zs, a))
        assert np.max(np.abs(lhs - rhs)) <= 1e-11

    def test_circle_preserved(self):
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


def _full_svd_rule(low, n, anchor_floor, config):
    """The degree decision of :func:`statespace.minimal` by the full SVD
    alone: nu >= n for nu the count of singular values above
    rank_rel_tol * max(s_1, anchor_floor)."""
    s = np.linalg.svd(low)[1]
    anchor = max(s[0], anchor_floor)
    return anchor > 0 and int(np.sum(s > config.rank_rel_tol * anchor)) >= n


def _reducible():
    """TestValidateOuter's padded reference model, W^{-1} W and the cascade
    of W^{-1} with a generated factor."""
    w = reference_model()
    a = np.zeros((4, 4))
    a[:2, :2] = a[2:, 2:] = w.a
    padded = sf.Realization(a, np.vstack([w.b, w.b]),
                            np.hstack([w.c, np.zeros((2, 2))]), w.d)
    div = sf.enumerate_divisors(sf.conjugate_phase(w))[1]
    factor = sf.minimal_factor(w, div)[0]
    return [padded, sf.series(sf.inverse(w), w),
            sf.series(sf.inverse(w), factor)]


def _certificate_cases():
    wl = bench_workloads()
    return {
        "fuzz": lambda: [fuzz_outer(s) for s in range(200)],
        "roundtrip": lambda: [sf.Realization(*m) for i in (0, 1)
                              for m in wl.roundtrip_round(7, i)],
        "seasonal": lambda: [sf.Realization(*m)
                             for m in wl.seasonal_round(7, 0)],
        "varma": lambda: [sf.Realization(*m) for m in wl.varma_round(7, 0)],
        "reducible": _reducible,
    }


class TestDegreeCertificate:
    """The sketched lower bound of ``minimal`` only ever skips the full SVD
    where the full-SVD rule keeps n singular values: it changes no
    decision and no output."""

    @pytest.mark.parametrize("family", list(_certificate_cases()))
    def test_same_decision_and_output_as_the_full_svd(self, monkeypatch,
                                                      family):
        certify = statespace._certifies_degree
        seen = []

        def recorded(low, n, anchor_floor, config):
            got = certify(low, n, anchor_floor, config)
            seen.append((got, _full_svd_rule(low, n, anchor_floor, config)))
            return got

        for r in _certificate_cases()[family]():
            # Sketch every Loewner matrix that has n + p columns, not only
            # the wide ones minimal picks, so small models test it too.
            monkeypatch.setattr(statespace, "_SKETCH_SPAN", 1)
            monkeypatch.setattr(statespace, "_certifies_degree", recorded)
            seen.clear()
            out = sf.minimal(r)
            monkeypatch.setattr(statespace, "_certifies_degree",
                                lambda *args: False)
            ref = sf.minimal(r)
            assert (out is r) == (ref is r)
            if out is not r:
                for x, y in zip((out.a, out.b, out.c, out.d),
                                (ref.a, ref.b, ref.c, ref.d)):
                    assert np.array_equal(x, y)
            if seen:
                (certified, full), = seen
                assert full == (ref is r)
                # Sound (a certificate implies the full rule's nu >= n)
                # and, on every model here, tight.
                assert certified == full

    def test_default_sketches_only_wide_loewner_matrices(self, monkeypatch):
        wl = bench_workloads()
        shapes = []
        certify = statespace._certifies_degree

        def recorded(low, *args):
            shapes.append(low.shape)
            return certify(low, *args)

        monkeypatch.setattr(statespace, "_certifies_degree", recorded)
        for m in wl.roundtrip_round(7, 0) + wl.seasonal_round(7, 0):
            sf.minimal(sf.Realization(*m))
        assert shapes == []
        for m in wl.varma_round(7, 0):
            r = sf.Realization(*m)
            assert sf.minimal(r) is r
        assert [min(s) for s in shapes] == [112, 216, 216, 216, 352]


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
