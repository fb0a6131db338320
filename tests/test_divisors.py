"""Invariant-subspace parametrization of left all-pass divisors."""

import dataclasses
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spectralfactors as sf
from spectralfactors.demo import reference_model, theta_feedthrough
from spectralfactors.factors import family_member
from spectralfactors.matnum import basis_from_projector
from spectralfactors.spectral import ALLPASS_CERT_TOL
from spectralfactors.statespace import eval_gap

from helpers import (equivalence_gap, random_outer, recipe_outer,
                     transfer_equal)


def theta_spec(theta):
    return sf.SubspaceSpec(a_basis=np.array([[np.cos(theta)], [np.sin(theta)]]))


class TestSubspaceSpec:
    def test_defaults_to_zero_subspace(self):
        spec = sf.SubspaceSpec()
        assert spec.gamma_select == () and spec.a_select == ()

    def test_rejects_select_and_basis(self):
        with pytest.raises(ValueError):
            sf.SubspaceSpec(a_select=(0,), a_basis=np.eye(2))


class TestProjectorFromSpec:
    def test_full_outside_block(self, ref_cp):
        pi = sf.projector_from_spec(ref_cp, sf.SubspaceSpec(a_select=(0, 1)))
        assert_allclose(pi, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-12)

    def test_angle_member(self, ref_cp):
        pi = sf.projector_from_spec(ref_cp, theta_spec(0.0))
        assert_allclose(pi, np.diag([0.0, 0.0, 1.0, 0.0]), atol=1e-12)

    def test_empty(self, ref_cp):
        pi = sf.projector_from_spec(ref_cp, sf.SubspaceSpec())
        assert_allclose(pi, np.zeros((4, 4)))

    def test_partial_repeated_selection_rejected(self, ref_cp):
        with pytest.raises(sf.InvalidSubspace):
            sf.projector_from_spec(ref_cp, sf.SubspaceSpec(a_select=(0,)))

    @pytest.mark.parametrize("spec", [
        sf.SubspaceSpec(a_select=(7,)),
        sf.SubspaceSpec(a_select=(-1,)),
        sf.SubspaceSpec(gamma_select=(2,)),
    ])
    def test_out_of_range_selection_rejected(self, ref_cp, spec):
        with pytest.raises(sf.InvalidSubspace, match="must lie in"):
            sf.projector_from_spec(ref_cp, spec)

    def test_non_invariant_basis_rejected(self, ref_cp):
        # mixes the two zero-direction eigenvalues 1/4 and 1/3
        spec = sf.SubspaceSpec(gamma_basis=np.array([[1.0], [1.0]]))
        with pytest.raises(sf.InvalidSubspace):
            sf.projector_from_spec(ref_cp, spec)

    def test_non_finite_basis_rejected(self, ref_cp):
        spec = sf.SubspaceSpec(a_basis=[[np.nan], [1.0]])
        with pytest.raises(sf.InvalidSubspace, match="non-finite"):
            sf.projector_from_spec(ref_cp, spec)

    def test_wide_basis_rejected(self, ref_cp):
        spec = sf.SubspaceSpec(a_basis=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(sf.RankDeficientBasis):
            sf.projector_from_spec(ref_cp, spec)

    def test_three_dimensional_basis_rejected(self, ref_cp):
        spec = sf.SubspaceSpec(a_basis=np.ones((2, 1, 1)))
        with pytest.raises(sf.InvalidSubspace, match="a basis has shape"):
            sf.projector_from_spec(ref_cp, spec)

    @pytest.mark.parametrize("index", [1.9, 1.0, True, np.True_,
                                       np.float64(1.0)],
                             ids=["float", "whole_float", "bool",
                                  "numpy_bool", "numpy_float"])
    def test_non_integer_selection_rejected(self, ref_cp, index):
        spec = sf.SubspaceSpec(gamma_select=[index])
        with pytest.raises(sf.InvalidSubspace, match="not an integer"):
            sf.projector_from_spec(ref_cp, spec)

    def test_numpy_integer_selection_accepted(self, ref_cp):
        spec = sf.SubspaceSpec(gamma_select=np.arange(1, 2))
        assert np.array_equal(
            sf.projector_from_spec(ref_cp, spec),
            sf.projector_from_spec(ref_cp, sf.SubspaceSpec(gamma_select=[1])))

    def test_selection_reads_the_carried_blocks(self, ref_cp):
        assert [(b.kind, b.indices) for b in ref_cp.a_blocks] == [
            ("repeated", (0, 1))]
        assert [b.dim for b in ref_cp.gamma_blocks] == [1, 1]
        pi = sf.projector_from_spec(ref_cp, sf.SubspaceSpec(
            gamma_select=ref_cp.gamma_blocks[1].indices))
        assert_allclose(pi[:2, :2], ref_cp.gamma_blocks[1].basis
                        @ ref_cp.gamma_blocks[1].basis.T, atol=1e-12)

    def test_gamma_and_a_combined(self, ref_cp):
        spec = sf.SubspaceSpec(gamma_select=(0,), a_select=(0, 1))
        pi = sf.projector_from_spec(ref_cp, spec)
        assert_allclose(pi, np.diag([1.0, 0.0, 1.0, 1.0]), atol=1e-12)


class TestDivisorFromProjector:
    def test_outside_block_reference_values(self, ref_cp, ref_values):
        div = sf.divisor_from_projector(ref_cp, ref_values["pi_2"])
        want = ref_values["divisor_2"]
        assert_allclose(div.t_ell.a, want.a, atol=1e-13)
        assert_allclose(div.t_ell.b, want.b, atol=1e-13)
        assert_allclose(div.t_ell.c, want.c, atol=1e-13)
        assert_allclose(div.t_ell.d, want.d, atol=1e-13)
        assert div.degree == 2
        assert div.subspace_dims == (0, 2)
        assert sf.allpass_residual(div.t_ell) <= 1e-10

    def test_zero_projector_gives_identity(self, ref_cp):
        div = sf.divisor_from_projector(ref_cp, np.zeros((4, 4)))
        assert div.degree == 0
        assert_allclose(div.t_ell.d, np.eye(2), atol=1e-13)

    @pytest.mark.parametrize("theta", [0.0, np.pi / 6, np.pi / 4, np.pi / 2, 2.0])
    def test_angle_family_feedthrough(self, ref_cp, theta):
        pi = sf.projector_from_spec(ref_cp, theta_spec(theta))
        div = sf.divisor_from_projector(ref_cp, pi)
        assert div.degree == 1
        assert_allclose(div.t_ell.d, theta_feedthrough(theta), atol=1e-12)
        assert sf.allpass_residual(div.t_ell) <= 1e-8
        # transfer value: 3 v v^T / (z - 2) + D_theta with v = (cos, sin)
        v = np.array([np.cos(theta), np.sin(theta)])
        for z in (1.0 + 0.5j, -2.0):
            expected = 3.0 * np.outer(v, v) / (z - 2.0) + theta_feedthrough(theta)
            assert_allclose(sf.evalfr_many(div.t_ell, [z])[0], expected,
                            atol=1e-12)

    def test_full_projector_reproduces_phase_function(self, ref_cp):
        div = sf.divisor_from_projector(ref_cp, np.eye(4))
        assert div.degree == 4
        gap = equivalence_gap(div.t_ell, ref_cp.t)
        assert gap <= 1e-9

    def test_depends_only_on_range(self, ref_cp, rng):
        th = 0.9
        base = np.array([[np.cos(th)], [np.sin(th)]])
        pi1 = sf.projector_from_spec(ref_cp, sf.SubspaceSpec(a_basis=base))
        pi2 = sf.projector_from_spec(ref_cp, sf.SubspaceSpec(a_basis=-2.5 * base))
        assert_allclose(pi1, pi2, atol=1e-12)
        d1 = sf.divisor_from_projector(ref_cp, pi1)
        d2 = sf.divisor_from_projector(ref_cp, pi2)
        assert transfer_equal(d1.t_ell, d2.t_ell)

    def test_not_a_projector_rejected(self, ref_cp):
        with pytest.raises(sf.NotInvariant):
            sf.divisor_from_projector(ref_cp, 0.5 * np.eye(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_projector_rejected(self, ref_cp, value):
        with pytest.raises(sf.NotInvariant, match="non-finite"):
            sf.divisor_from_projector(ref_cp, np.full((4, 4), value))

    def test_non_invariant_range_rejected(self, ref_cp):
        v = np.array([[1.0], [1.0], [0.0], [0.0]]) / np.sqrt(2.0)
        with pytest.raises(sf.NotInvariant):
            sf.divisor_from_projector(ref_cp, v @ v.T)


class TestRightComplement:
    def test_zero_projector_complement_is_whole_function(self, ref_cp):
        div = sf.divisor_from_projector(ref_cp, np.zeros((4, 4)))
        t_r = sf.right_complement(ref_cp, div)
        assert t_r.n == 4
        assert eval_gap(t_r, ref_cp.t) <= 1e-9

    def test_full_projector_complement_is_constant(self, ref_cp):
        div = sf.divisor_from_projector(ref_cp, np.eye(4))
        t_r = sf.right_complement(ref_cp, div)
        assert t_r.n == 0
        assert_allclose(t_r.d @ t_r.d.T, np.eye(2), atol=1e-9)

    def test_outside_block_split(self, ref_cp, ref_values):
        div = sf.divisor_from_projector(ref_cp, ref_values["pi_2"])
        t_r = sf.right_complement(ref_cp, div)
        assert div.degree == 2 and t_r.n == 2
        assert sf.allpass_residual(t_r) <= 1e-8


# Model roundtrip_round(7, 1)[3] of the benchmark (n = 4): a blind Loewner
# cut of T_l^{-1} T found its full divisor's complement at degree 2, not 0,
# and raised DegreeAdditivityViolation from a valid model.
LOEWNER_FALSE_ALARM = sf.Realization(
    [[0.26897597361180786, -0.16132269732973756, 0.34090724726530824,
      0.20868259194951636],
     [0.05477377417118277, -0.2945927226363516, 0.38825836172824574,
      -0.2517504153546495],
     [-0.03239332731775133, 0.4807196465471232, -0.01686533614584112,
      0.08664834627804617],
     [0.47690889974752143, -0.08813357802695332, 0.03924999184710056,
      -0.14489810942888579]],
    [[-0.9614433589608178, -0.3919120570774511],
     [-0.022213217716506792, 0.2707100448979031],
     [-1.0154243929775069, -0.4033248183116977],
     [-0.14310546399184115, 0.7006876704886569]],
    [[-0.41141037248493484, -0.3108559790409879, -0.3425544988957851,
      -0.6559203803801735],
     [-0.035357953002239026, 0.7898941001962658, 0.5733865958289661,
      0.0766325809763619]],
    np.eye(2),
)

# The reference model, the filtered test ensemble, and the unfiltered random
# recipe at n = 6 (seeds 0-11) and n = 8 (seeds 0-3); seeds whose conjugate
# phase raises are skipped in the test.
COMPLEMENT_MODELS = (
    [("reference", reference_model), ("loewner_false_alarm",
                                      lambda: LOEWNER_FALSE_ALARM)]
    + [(f"ensemble{seed}", lambda seed=seed: random_outer(seed, n_max=5))
       for seed in range(6)]
    + [(f"recipe{n}_{seed}", lambda n=n, seed=seed: recipe_outer(n, seed))
       for n, seeds in ((6, range(12)), (8, range(4))) for seed in seeds]
)


class TestClosedFormComplement:
    @pytest.mark.parametrize("make", [m for _, m in COMPLEMENT_MODELS],
                             ids=[name for name, _ in COMPLEMENT_MODELS])
    def test_every_divisor_has_an_exact_complement(self, make):
        w = make()
        try:
            cp = sf.conjugate_phase(w)
        except sf.GramianIdentityViolation:
            pytest.skip("conjugate phase not certified")
        zs = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
        t_vals = sf.evalfr_many(cp.t, zs)
        scale = np.max(np.abs(t_vals))
        out = sf.enumerate_divisors(cp)
        assert len(out) >= 1
        for div in out:
            t_r = div.right_complement
            assert div.t_ell.n + t_r.n == div.degree + t_r.n == 2 * w.n
            prod = sf.evalfr_many(div.t_ell, zs) @ sf.evalfr_many(t_r, zs)
            assert np.max(np.abs(prod - t_vals)) <= 1e-7 * scale
            # T_r = T_l^{-1} T inherits the certified divisor's own
            # deviation from all-pass, on top of the certificate level.
            assert (sf.allpass_residual(t_r)
                    <= ALLPASS_CERT_TOL + sf.allpass_residual(div.t_ell))

    def test_loewner_false_alarm_model_enumerates(self):
        out = sf.enumerate_divisors(sf.conjugate_phase(LOEWNER_FALSE_ALARM))
        full = [div for div in out if div.degree == 8]
        assert len(full) == 1 and full[0].right_complement.n == 0

    def test_complement_meeting_the_range_raises(self, ref_cp, ref_values):
        # A P0 that maps a direction of (range Pi)^perp into range Pi: the
        # reflection swapping v in range Pi with u in its complement.
        pi = ref_values["pi_2"]
        div = sf.divisor_from_projector(ref_cp, pi)
        v = basis_from_projector(pi)[:, 0]
        u = basis_from_projector(np.eye(4) - pi)[:, 0]
        x = (v - u) / np.linalg.norm(v - u)
        doctored = dataclasses.replace(
            ref_cp, p0_inv=np.eye(4) - 2.0 * np.outer(x, x))
        with pytest.raises(sf.DegreeAdditivityViolation,
                           match="direct sum: margin"):
            sf.right_complement(doctored, div)


@pytest.mark.parametrize("seed", [4, 7])
def test_full_outside_divisor_of_recipe8_is_all_pass(seed):
    # Seeds 4 and 7 are the n = 8 recipe models whose full A^{-T} divisor,
    # built from a pseudo-inverse of the compressed Gramian inverse, was
    # all-pass only to about 1e-6, above ALLPASS_CERT_TOL.
    cp = sf.conjugate_phase(recipe_outer(8, seed))
    pi = sf.projector_from_spec(cp, sf.SubspaceSpec(a_select=range(cp.n_a)))
    div = sf.divisor_from_projector(cp, pi)
    assert div.degree == div.subspace_dims[1] == 8
    assert sf.allpass_residual(div.t_ell) <= 1e-10


# Models whose enumeration is compared with the projector path.
ENUMERATED_MODELS = {
    "reference": reference_model,
    "random": lambda: random_outer(3, n_max=5),
    "recipe6_3": lambda: recipe_outer(6, 3),
}


def _selection_specs(cp):
    """The selection of every enumerated block subset pair, in the order of
    ``enumerate_divisors``."""
    def subsets(blocks):
        return [sum((b.indices for b in s), ())
                for k in range(len(blocks) + 1)
                for s in combinations(blocks, k)]
    return [sf.SubspaceSpec(gamma_select=g, a_select=a)
            for g in subsets(cp.gamma_blocks) for a in subsets(cp.a_blocks)]


def _spec_divisors(cp):
    return [family_member(cp, spec, cp.extremals.w_minus)[0]
            for spec in _selection_specs(cp)]


def _relative_gap(r1, r2, zs):
    ref = sf.evalfr_many(r1, zs)
    return np.max(np.abs(sf.evalfr_many(r2, zs) - ref)) / np.max(np.abs(ref))


class TestEnumerateDivisors:
    @pytest.mark.parametrize("make", ENUMERATED_MODELS.values(),
                             ids=ENUMERATED_MODELS.keys())
    def test_enumeration_matches_the_projector_path(self, make):
        # The enumeration builds each divisor from its Schur basis; rebuilt
        # from its projector, with every check on outside input, it is the
        # same divisor.
        cp = sf.conjugate_phase(make())
        zs = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
        for div in sf.enumerate_divisors(cp):
            again = sf.divisor_from_projector(cp, div.projector)
            assert again.degree == div.degree
            assert again.subspace_dims == div.subspace_dims
            assert _relative_gap(again.t_ell, div.t_ell, zs) <= 1e-9
            assert _relative_gap(again.factor, div.factor, zs) <= 1e-9
            assert _relative_gap(sf.right_complement(cp, again),
                                 div.right_complement, zs) <= 1e-9

    @pytest.mark.parametrize("make", ENUMERATED_MODELS.values(),
                             ids=ENUMERATED_MODELS.keys())
    def test_enumerated_divisors_keep_the_schur_chain(self, make):
        # Each leading group of basis columns spans an invariant subspace,
        # so the divisor's state matrix is quasi-upper-triangular; a
        # selection spec's divisor is built the same way.
        cp = sf.conjugate_phase(make())
        for div in [*sf.enumerate_divisors(cp), *_spec_divisors(cp)]:
            a = div.t_ell.a
            tol = 1e-13 * max(1.0, np.linalg.norm(a))
            assert np.all(np.abs(np.tril(a, -2)) <= tol)
            bumps = np.abs(np.diag(a, -1)) > tol
            assert not np.any(bumps[1:] & bumps[:-1])

    @pytest.mark.parametrize("make", ENUMERATED_MODELS.values(),
                             ids=ENUMERATED_MODELS.keys())
    def test_selection_specs_give_the_enumerated_divisors(self, make):
        # One basis rule and one constructor: the divisor of a selection is
        # the enumerated divisor of the same blocks, bit for bit.
        cp = sf.conjugate_phase(make())
        divs = sf.enumerate_divisors(cp)
        spec_divs = _spec_divisors(cp)
        assert len(spec_divs) == len(divs)
        for div, again in zip(divs, spec_divs):
            assert again.subspace_dims == div.subspace_dims
            for name in ("basis", "projector"):
                assert np.array_equal(getattr(again, name), getattr(div, name))
            for name in ("t_ell", "factor"):
                r0, r1 = getattr(div, name), getattr(again, name)
                assert all(np.array_equal(getattr(r0, m), getattr(r1, m))
                           for m in "abcd")

    def test_reference_enumeration(self, ref_cp):
        out = sf.enumerate_divisors(ref_cp)
        # four zero-direction subsets x {empty, full} outside eigenspace
        assert len(out) == 8
        assert len(out.continua) == 1
        cont = out.continua[0]
        assert cont.part == "a" and cont.dim == 2
        assert abs(cont.eigenvalue - 2.0) < 1e-9
        degrees = sorted(d.degree for d in out)
        assert degrees == [0, 1, 1, 2, 2, 3, 3, 4]
        for div in out:
            assert div.right_complement is not None
            assert div.degree + div.right_complement.n == 4
            assert sf.allpass_residual(div.t_ell) <= 1e-8

    def test_failed_certificate_is_a_gramian_violation(self, ref_cp):
        # A Q that no longer solves T's Stein equation: every compression
        # but the empty one fails its all-pass identities.
        doctored = dataclasses.replace(ref_cp, p0_inv=ref_cp.p0_inv + 1e-3)
        with pytest.raises(sf.GramianIdentityViolation, match="divisor"):
            sf.enumerate_divisors(doctored)

    def test_constant_model(self):
        cp = sf.conjugate_phase(sf.identity(2))
        out = sf.enumerate_divisors(cp)
        assert len(out) == 1
        assert out[0].degree == 0
        assert not out.continua

    def test_constant_model_gets_its_complement(self):
        # A constant model runs the same enumeration as any other, so its
        # one divisor is certified and carries its right complement too.
        div = sf.enumerate_divisors(sf.conjugate_phase(sf.identity(2)))[0]
        assert div.right_complement is not None
        assert div.right_complement.n == 0
        prod = sf.series(div.t_ell, div.right_complement)
        assert_allclose(sf.evalfr_many(prod, [0.5])[0], np.eye(2), atol=1e-14)

    def test_distinct_real_eigenvalues_give_sixteen(self):
        w = sf.Realization(np.diag([0.6, 0.3]), np.diag([0.4, 0.5]),
                           np.diag([0.2, 0.25]), np.eye(2))
        cp = sf.conjugate_phase(w)
        out = sf.enumerate_divisors(cp)
        assert len(out) == 16
        assert not out.continua
        for div in out:
            assert div.degree + div.right_complement.n == 4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_models_certified(self, seed, config):
        w = random_outer(seed, n_max=3)
        cp = sf.conjugate_phase(w)
        out = sf.enumerate_divisors(cp)
        for div in out:
            assert sf.allpass_residual(div.t_ell) <= 1e-7
            assert div.degree + div.right_complement.n == 2 * w.n


class TestContinuumSampling:
    def test_angle_basis(self):
        q = np.eye(2)
        v = sf.continuum_angle_basis(q, np.pi / 3)
        assert_allclose(v, np.array([[0.5], [np.sqrt(3) / 2]]), atol=1e-14)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            sf.continuum_angle_basis(np.eye(3), 0.3)

    def test_members_generate_valid_divisors(self, ref_cp):
        out = sf.enumerate_divisors(ref_cp)
        cont = out.continua[0]
        for theta in np.linspace(0.0, np.pi, 5, endpoint=False):
            basis = sf.continuum_angle_basis(cont.basis, theta)
            pi = sf.projector_from_spec(ref_cp, sf.SubspaceSpec(a_basis=basis))
            div = sf.divisor_from_projector(ref_cp, pi)
            assert div.degree == 1
            assert sf.allpass_residual(div.t_ell) <= 1e-8
