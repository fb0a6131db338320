"""Factor generation, verification and the converse extraction."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spectralfactors as sf
from spectralfactors import factors

from helpers import (bench_workloads, circle_points, equivalence_gap,
                     fuzz_outer, random_outer, recipe_outer, transfer_equal)


def wrong_direction_allpass(p=0.7):
    """Degree-one all-pass diag((1 - p z)/(z - p), 1) whose pole matches
    nothing in the reference phase function."""
    a = np.array([[p, 0.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    c = np.array([[1.0 - p * p, 0.0], [0.0, 0.0]])
    d = np.array([[-p, 0.0], [0.0, 1.0]])
    return sf.Realization(a[:1, :1], b[:1], c[:, :1], d)


class TestMinimalFactor:
    def test_zero_projector_reproduces_outer(self, ref_model, ref_cp):
        div = sf.divisor_from_projector(ref_cp, np.zeros((4, 4)))
        w, report = sf.minimal_factor(ref_model, div)
        assert report.passed and report.degree == 2
        assert transfer_equal(w, ref_model)

    def test_outside_block_matches_candidate(self, ref_model, ref_cp, ref_values):
        div = sf.divisor_from_projector(ref_cp, ref_values["pi_2"])
        w, report = sf.minimal_factor(ref_model, div)
        assert report.passed
        assert_allclose(sorted(report.pole_zero.poles.real), [2.0, 2.0],
                        atol=1e-10)
        gap = equivalence_gap(w, ref_values["w_bar_minus"])
        assert gap <= 1e-9

    def test_wrong_factor_raises_spectrum_mismatch(self, ref_model, ref_cp):
        div = sf.enumerate_divisors(ref_cp)[3]
        f = div.factor
        bad = dataclasses.replace(
            div, factor=sf.Realization(f.a, f.b, 1.01 * f.c, f.d))
        with pytest.raises(sf.SpectrumMismatch,
                           match="generated factor spectrum residual"):
            sf.minimal_factor(ref_model, bad)

    def test_spectrum_check_scales_with_the_density(self):
        # max|Phi| is 9.8e3 here: four factors miss residual_tol = 1e-8 in
        # absolute terms by 1.2e-8 to 1.4e-8, about 1.4e-12 relative.
        w = fuzz_outer(719)
        tol = sf.DEFAULT_TOL.residual_tol
        over = []
        for div in sf.enumerate_divisors(sf.conjugate_phase(w)):
            factor, report = sf.minimal_factor(w, div)
            assert report.passed and not report.reasons
            assert sf.verify_factor(factor, w).passed
            if report.spectrum_residual > tol:
                assert report.spectrum_residual <= 2e-8
                over.append(div.subspace_dims)
        assert sorted(over) == [(0, 3), (1, 3), (2, 3), (3, 3)]

    def test_angle_family_at_right_angle(self, ref_model, ref_cp):
        spec = sf.SubspaceSpec(a_basis=np.array([[0.0], [1.0]]))
        pi = sf.projector_from_spec(ref_cp, spec)
        div = sf.divisor_from_projector(ref_cp, pi)
        w, report = sf.minimal_factor(ref_model, div)
        assert report.passed and report.degree == 2
        assert_allclose(div.t_ell.d, np.diag([1.0, 2.0]), atol=1e-12)


class TestVerifyFactor:
    def test_outer_verifies_against_itself(self, ref_model):
        report = sf.verify_factor(ref_model, ref_model)
        assert report.passed
        assert report.spectrum_residual <= 1e-13

    def test_full_phase_product(self, ref_model, ref_cp):
        w = sf.series(ref_model, ref_cp.t)
        report = sf.verify_factor(w, ref_model)
        assert report.passed
        assert_allclose(sorted(report.pole_zero.poles.real), [2.0, 2.0],
                        atol=1e-9)

    def test_wrong_direction_allpass_raises_degree(self, ref_model):
        w = sf.series(ref_model, wrong_direction_allpass())
        report = sf.verify_factor(w, ref_model)
        assert not report.passed
        assert report.degree == 3
        assert any("degree" in r for r in report.reasons)

    def test_scaled_candidate_fails(self, ref_model):
        scaled = sf.Realization(ref_model.a, 2.0 * ref_model.b, ref_model.c,
                                2.0 * ref_model.d)
        report = sf.verify_factor(scaled, ref_model)
        assert not report.passed
        assert report.spectrum_residual > 1.0

    @pytest.mark.parametrize("width", [1, 3])
    def test_other_width_candidate_fails(self, ref_model, width):
        report = sf.verify_factor(sf.identity(width), ref_model)
        assert not report.passed
        assert (f"candidate is {width}x{width}, the outer factor is 2x2"
                in report.reasons)
        assert not any("spectrum residual" in r for r in report.reasons)

    def test_report_serializes(self, ref_model):
        report = sf.verify_factor(ref_model, ref_model)
        d = report.to_dict()
        assert d["passed"] and d["degree"] == 2
        assert "pass" in str(report)


class TestExtractLeftDivisor:
    def test_outer_itself_gives_identity(self, ref_model):
        t_minus, report = sf.extract_left_divisor(ref_model, ref_model)
        assert t_minus.n == 0
        assert_allclose(t_minus.d @ t_minus.d.T, np.eye(2), atol=1e-10)
        assert report.passed

    def test_candidate_divisor(self, ref_model, ref_values):
        t_minus, report = sf.extract_left_divisor(ref_model,
                                                  ref_values["w_bar_minus"])
        assert t_minus.n == 2
        assert report.allpass_residual <= 1e-10
        assert sf.allpass_residual(t_minus) <= 1e-8
        assert transfer_equal(t_minus, ref_values["divisor_2"])

    def test_not_a_factor(self, ref_model):
        doubled = sf.Realization(ref_model.a, 2.0 * ref_model.b, ref_model.c,
                                 ref_model.d)
        with pytest.raises(sf.NotAFactor):
            sf.extract_left_divisor(ref_model, doubled)

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2)], ids=["2x1", "1x2"])
    def test_other_width_is_not_a_factor(self, ref_model, shape):
        p, m = shape
        w0 = sf.Realization(ref_model.a, ref_model.b[:, :m],
                            ref_model.c[:p], ref_model.d[:p, :m])
        with pytest.raises(sf.NotAFactor,
                           match=f"candidate is {p}x{m}, the outer factor "
                                 "is 2x2"):
            sf.extract_left_divisor(ref_model, w0)

    def test_non_minimal_candidate(self, ref_model, ref_cp):
        # W- times a wrong-direction all-pass shares no cancellation, so the
        # quotient stays all-pass but the degree certificate fails
        w = sf.minimal(sf.series(ref_model, wrong_direction_allpass()))
        with pytest.raises(sf.NotMinimalFactor):
            sf.extract_left_divisor(ref_model, w,
                                    w_bar_plus=ref_cp.extremals.w_bar_plus)

    @pytest.mark.parametrize("carried", [True, False])
    def test_delayed_candidate_is_not_minimal(self, ref_model, ref_cp,
                                              carried):
        # W- z^{-1} I shares the density and its quotient z^{-1} I is
        # all-pass, but it has degree 4 and a singular feedthrough: the
        # degree certificate fails before the zeros are read.
        delay = sf.Realization(np.zeros((2, 2)), np.eye(2), np.eye(2),
                               np.zeros((2, 2)))
        w = sf.series(ref_model, delay)
        extra = {"w_bar_plus": ref_cp.extremals.w_bar_plus} if carried else {}
        with pytest.raises(sf.NotMinimalFactor, match="degree 4 != 2"):
            sf.extract_left_divisor(ref_model, w, **extra)

    def test_padded_divisor_cut_raises(self, monkeypatch, ref_model, ref_cp):
        # A T- that keeps one state too many is never returned, whether the
        # peel or the Loewner cut it falls back to built it: its degree must
        # equal the candidate's poles and zeros outside the disc.
        idle = sf.Realization([[0.5]], np.zeros((1, 2)), np.zeros((2, 1)),
                              np.eye(2))
        peel, cut = factors._peel, factors.minimal
        for route in ("peel", "cut"):
            with monkeypatch.context() as mp:
                if route == "peel":
                    mp.setattr(factors, "_peel",
                               lambda *args: sf.series(peel(*args), idle))
                else:
                    mp.setattr(factors, "_peel", lambda *args: None)
                    mp.setattr(factors, "minimal",
                               lambda r, config: sf.series(cut(r, config),
                                                           idle))
                for div in sf.enumerate_divisors(ref_cp):
                    w, _ = sf.minimal_factor(ref_model, div)
                    k = div.degree
                    with pytest.raises(sf.NotMinimalFactor,
                                       match=f"divisor degree {k + 1} != {k},"):
                        sf.extract_left_divisor(
                            ref_model, w,
                            w_bar_plus=ref_cp.extremals.w_bar_plus)

    @pytest.mark.parametrize("hidden", ["unreachable", "unobservable"])
    def test_candidate_padded_outside_the_disc(self, ref_model, ref_cp,
                                               hidden):
        # A hidden mode at 2.0 is outside the disc, where the divisor keeps
        # modes: the cascade must be built on the reduced candidate.
        n = ref_model.n
        for div in sf.enumerate_divisors(ref_cp):
            w, _ = sf.minimal_factor(ref_model, div)
            a = np.zeros((n + 1, n + 1))
            a[:n, :n], a[n, n] = w.a, 2.0
            b = np.vstack([w.b, np.full((1, 2), hidden == "unobservable")])
            c = np.hstack([w.c, np.full((2, 1), hidden == "unreachable")])
            w0 = sf.Realization(a, b, c, w.d)
            t_back, report = sf.extract_left_divisor(
                ref_model, w0, w_bar_plus=ref_cp.extremals.w_bar_plus)
            assert report.passed and report.degree == n
            assert t_back.n == div.degree
            if div.degree:
                assert equivalence_gap(div.t_ell, t_back) <= 1e-7

    def test_rotated_outer_is_not_a_factor(self, ref_model):
        # Q W- has the poles and zeros of W-, so the peel drops every mode
        # and would leave the constant Q; its certificates refuse that, and
        # the Loewner cut finds the quotient W-^{-1} Q W-, not all-pass.
        c, s = np.cos(0.4), np.sin(0.4)
        q = np.array([[c, -s], [s, c]])
        w0 = sf.Realization(ref_model.a, ref_model.b, q @ ref_model.c,
                            q @ ref_model.d)
        with pytest.raises(sf.NotAFactor, match="not all-pass"):
            sf.extract_left_divisor(ref_model, w0)

    def test_repeated_zero_flipped_once_falls_back(self, monkeypatch):
        # W- = diag(w1, w1) with w1 = (z - 0.3)/(z - 0.6); flipping one copy
        # of the zero keeps the other, so the kept and dropped eigenvalues
        # of the cascade meet at 0.3 and one Loewner cut of it decides.
        rho, zeta = 0.6, 0.3
        w_minus = sf.Realization(rho * np.eye(2), np.eye(2),
                                 (rho - zeta) * np.eye(2), np.eye(2))
        w0 = sf.Realization(rho * np.eye(2), np.eye(2),
                            np.diag([1.0 - zeta * rho, rho - zeta]),
                            np.diag([-zeta, 1.0]))
        calls = []
        cut = factors.minimal
        monkeypatch.setattr(factors, "minimal",
                            lambda r, config: calls.append(r) or cut(r, config))
        t_back, report = sf.extract_left_divisor(w_minus, w0)
        assert [r.n for r in calls] == [4]
        assert report.passed and t_back.n == 1
        flip = sf.Realization([[zeta]], [[1.0, 0.0]],
                              [[1.0 - zeta * zeta], [0.0]],
                              np.diag([-zeta, 1.0]))
        assert equivalence_gap(flip, t_back) <= 1e-7


class TestFactorFamily:
    def test_reference_subclasses(self, ref_model):
        specs = [sf.SubspaceSpec(), sf.SubspaceSpec(a_select=(0, 1))]
        specs += [sf.SubspaceSpec(a_basis=np.array([[np.cos(t)], [np.sin(t)]]))
                  for t in np.linspace(0.0, np.pi, 8, endpoint=False)]
        out = sf.factor_family(ref_model, specs)
        assert len(out) == 10
        for w, report in out:
            assert report.passed
            assert report.degree == 2

    def test_empty_specs(self, ref_model):
        assert sf.factor_family(ref_model, []) == []

    def test_projector_is_not_a_spec(self, ref_model):
        # A projector goes through divisor_from_projector, not the family.
        with pytest.raises(sf.InvalidSubspace, match="SubspaceSpec"):
            sf.factor_family(ref_model, [np.zeros((4, 4))])

    def test_moebius_routing_matches_direct(self, ref_model, config):
        specs = [sf.SubspaceSpec(), sf.SubspaceSpec(a_select=(0, 1))]
        direct = sf.factor_family(ref_model, specs)
        routed = sf.factor_family(ref_model, specs, moebius_param=0.3)
        assert len(routed) == len(direct)
        for (_, rep_d), (w_r, rep_r) in zip(direct, routed):
            assert rep_r.passed
            assert rep_r.spectrum_residual <= 1e-8
            assert rep_r.degree == rep_d.degree

    def test_auto_moebius_on_shifted_model(self):
        # pole at the origin: the pipeline needs the change of variable
        w = sf.Realization(np.diag([0.5, 0.0]), np.eye(2),
                           np.diag([0.25, 1 / 6]), np.eye(2))
        with pytest.raises(sf.NotOuter):
            sf.factor_family(w, [sf.SubspaceSpec()])
        out = sf.factor_family(w, [sf.SubspaceSpec()], moebius_param=True)
        assert out[0][1].passed
        assert transfer_equal(out[0][0], w)

    def test_factor_with_a_pole_at_minus_one_over_a_is_refused(self):
        # The gate picks a = 0.1, which maps the pole at 0 to -0.1; the
        # factor that flips it has its pole at -1/a = -10, which maps back
        # to infinity.
        w = sf.Realization(np.diag([0.5, 0.0]), np.eye(2),
                           np.diag([0.25, 1 / 6]), np.eye(2))
        with pytest.raises(sf.ParameterHitsSpectrum,
                           match="improper in the original variable"):
            sf.factor_family(w, [sf.SubspaceSpec(a_select=(0, 1))],
                             moebius_param=True)


class TestRoundTrip:
    def test_reference_enumeration_roundtrip(self, ref_model, ref_cp):
        ext = ref_cp.extremals
        for div in sf.enumerate_divisors(ref_cp):
            w, _ = sf.minimal_factor(ref_model, div)
            t_back, report = sf.extract_left_divisor(
                ref_model, w, w_bar_plus=ext.w_bar_plus)
            assert t_back.n == div.degree
            if div.degree:
                gap = equivalence_gap(div.t_ell, t_back)
                assert gap <= 1e-8

    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_roundtrip(self, seed, config):
        w = random_outer(seed, n_max=3)
        cp = sf.conjugate_phase(w)
        ext = cp.extremals
        for div in sf.enumerate_divisors(cp):
            wf, report = sf.minimal_factor(w, div)
            assert report.degree == w.n
            t_back, _ = sf.extract_left_divisor(w, wf,
                                                w_bar_plus=ext.w_bar_plus)
            assert t_back.n == div.degree

    def test_pole_split_property(self, ref_model, ref_cp):
        # every factor's poles live in the union of the outer poles and
        # their reciprocals
        allowed = np.concatenate([np.linalg.eigvals(ref_model.a),
                                  1.0 / np.linalg.eigvals(ref_model.a)])
        for div in sf.enumerate_divisors(ref_cp):
            w, report = sf.minimal_factor(ref_model, div)
            for p in report.pole_zero.poles:
                assert np.min(np.abs(allowed - p)) <= 1e-8


@pytest.fixture(scope="module")
def roundtrip_2_7():
    """Model 7 of round 2 of the benchmark's roundtrip-small workload at
    seed 7 (n = 4), its conjugate phase and its 32 divisors, at the
    workload's tolerances."""
    config = sf.ToleranceConfig(circle_samples=64, residual_tol=1e-7)
    w = sf.Realization(*bench_workloads().roundtrip_round(7, 2)[7])
    cp = sf.conjugate_phase(w, config)
    return w, cp, sf.enumerate_divisors(cp, config), config


# The extraction makes one reduction, of T- = W-^{-1} W0, and certifies
# deg T- = k, the number of W0's poles and zeros outside the circle.  These
# five factors once raised NotMinimalFactor there.  The test reduces
# T+ = W0^{-1} Wbar+ itself: the degrees add up to 2n only if the carried
# Wbar+ is W- T.
@pytest.mark.parametrize("index", [18, 19, 26, 30, 31])
def test_roundtrip_2_7_extraction_certifies_degrees(roundtrip_2_7, index):
    w, cp, divs, config = roundtrip_2_7
    div = divs[index]
    w_fac, _ = sf.minimal_factor(w, div, config)
    t_minus, report = sf.extract_left_divisor(
        w, w_fac, config, w_bar_plus=cp.extremals.w_bar_plus)
    t_plus = sf.minimal(sf.series(sf.inverse(w_fac), cp.extremals.w_bar_plus),
                        config)
    assert report.passed
    assert t_minus.n == div.degree
    assert t_minus.n + t_plus.n == 2 * w.n


def _session_specs(cp):
    """The benchmark session's specs: empty, all gamma, all a, and the first
    block on each side."""
    g_blocks = sf.eigen_blocks(cp.gamma)
    a_blocks = sf.eigen_blocks(cp.a_inv_t)
    return [sf.SubspaceSpec(), sf.SubspaceSpec(gamma_select=range(cp.n_gamma)),
            sf.SubspaceSpec(a_select=range(cp.n_a)),
            sf.SubspaceSpec(gamma_select=g_blocks[0].indices,
                            a_select=a_blocks[0].indices)]


def _reduced_cascade_gap(w, div):
    """Largest gap between the factor a divisor carries and the Loewner
    reduction of the cascade W- T_l, relative to the reduction's largest
    value on the circle."""
    zs = circle_points(256)
    ref = sf.evalfr_many(sf.minimal(sf.series(w, div.t_ell)), zs)
    gap = np.max(np.abs(sf.evalfr_many(div.factor, zs) - ref))
    return gap / np.max(np.abs(ref))


# Every factor is W- T_l in closed form on n states; the blind reduction of
# the (n + k)-state cascade is its reference.
@pytest.mark.parametrize("n,seed", [(n, seed)
                                    for n in (2, 3, 4, 5, 6, 8, 12, 16)
                                    for seed in range(12)])
def test_recipe_factors_equal_the_reduced_cascade(n, seed):
    w = recipe_outer(n, seed)
    cp = sf.conjugate_phase(w)
    g_last = sf.eigen_blocks(cp.gamma)[-1].indices
    a_last = sf.eigen_blocks(cp.a_inv_t)[-1].indices
    specs = _session_specs(cp) + [
        sf.SubspaceSpec(gamma_select=range(n), a_select=range(n)),
        sf.SubspaceSpec(gamma_select=g_last, a_select=a_last)]
    for spec in specs:
        div = sf.divisor_from_projector(cp, sf.projector_from_spec(cp, spec))
        assert div.factor.n == n
        assert _reduced_cascade_gap(w, div) <= 1e-10


@pytest.mark.parametrize("theta", [0.0, np.pi / 6, np.pi / 4, np.pi / 2, 2.0])
@pytest.mark.parametrize("gamma_select", [(), (0,), (0, 1)])
def test_angle_family_factors_equal_the_reduced_cascade(ref_model, ref_cp,
                                                        theta, gamma_select):
    spec = sf.SubspaceSpec(gamma_select=gamma_select, a_basis=np.array(
        [[np.cos(theta)], [np.sin(theta)]]))
    div = sf.divisor_from_projector(ref_cp,
                                    sf.projector_from_spec(ref_cp, spec))
    assert div.factor.n == ref_model.n
    assert _reduced_cascade_gap(ref_model, div) <= 1e-10


# A Stein solution Z that does not belong to W- leaves the deflated modes
# of A with input: the closed form refuses it and names the residual.
@pytest.mark.parametrize("a_part", [(1, 0), (0, 1), (1, 1)])
def test_inconsistent_closed_form_input_raises(ref_cp, a_part):
    bad = dataclasses.replace(ref_cp, extremals=dataclasses.replace(
        ref_cp.extremals, z=1.5 * ref_cp.extremals.z))
    pi = np.diag((1.0, 0.0) + a_part)
    with pytest.raises(sf.DegreeViolation,
                       match=r"residual \d\.\d{3}e[-+]\d+ > 1\.0e-08"):
        sf.divisor_from_projector(bad, pi)


# The n = 32 sessions of the seasonal-large workload at seeds 7 and 1: the
# Loewner cut of the 64-state W+ cascade kept 4 and 1 extra states, and
# their extraction raised NotMinimalFactor.
@pytest.mark.parametrize("seed,index", [(7, 1), (1, 2)])
def test_seasonal_n32_session_extracts_every_spec(seed, index):
    w = sf.Realization(*bench_workloads().seasonal_round(seed, index)[9])
    assert w.n == 32
    cp = sf.conjugate_phase(w)
    for spec in _session_specs(cp):
        div = sf.divisor_from_projector(cp,
                                        sf.projector_from_spec(cp, spec))
        w_fac, _ = sf.minimal_factor(w, div)
        t_minus, report = sf.extract_left_divisor(
            w, w_fac, w_bar_plus=cp.extremals.w_bar_plus)
        t_plus = sf.minimal(sf.series(sf.inverse(w_fac),
                                      cp.extremals.w_bar_plus))
        assert report.passed
        assert t_minus.n == div.degree
        assert t_minus.n + t_plus.n == 64
