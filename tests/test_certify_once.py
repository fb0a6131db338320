"""Certified facts are computed once and carried forward.

The conjugate phase carries the Gramian check of its completion, ``verify_factor`` reduces a
candidate once, and ``spectrum_gap`` refuses densities of another width.
``minimal_factor`` and ``extract_left_divisor`` take the degree of W- from
the certified conjugate phase and never reduce W-; the extraction peels T-
off the cascade on the states the candidate's pole/zero inventory names,
reduces only a candidate on more than n states, and certifies both degrees
from that inventory.  ``cli verify`` builds one conjugate phase and hands it
to ``verify_factor``, which reduces and samples the candidate once and folds
the extraction into its report.  A divisor is the compression
of T onto an invariant subspace, whose dimension is its certified degree: it
is never reduced, and neither is its closed-form right complement, built
from the divisor's carried range basis, nor its factor W- T_l, which is
closed form on n states, so ``minimal_factor`` reduces nothing.  Each circle
check decomposes the state matrix of each system it samples once, for the
floor(k/2) + 1 points of k circle samples that are one per conjugate pair
(twice that for ``eval_gap``'s default circle and its 1.37 scaling).  The
enumeration builds each side subset's basis once, from the carried Schur
bases of its blocks, and makes no projector round trip; neither does
``family_member`` on a selection or basis spec, whose divisor is built from
the spec's basis the same way.  The eigenvalue blocks of Gamma and A^{-T}
are clustered once, by ``conjugate_phase``: the enumeration, the spec
projectors and the theta-grid expansion read the carried blocks, so
together they make two ``eigen_blocks`` calls, each of which reduces its
matrix to real Schur form once and reorders that form once per block.
``validate_outer`` certifies the degree of a wide model from a sketch of
its Loewner matrix, with no full SVD of it.
The automatic Moebius gate reads the poles and zeros of the realization it
is given, unreduced, so an auto-gated ``factor_family`` reduces only in
``validate_outer``, which certifies the working model minimal; without
``w_bar_plus`` the extraction uses the W-^{-1} that ``validate_outer``
returns and inverts W- once.  W-'s density is sampled once, on the first
read of the conjugate phase that every divisor carries; the factor that
``minimal_factor`` returns carries its report into its extraction, so a
family samples W- once and each divisor's factor and T- once, and
inventories each factor once.  The carried report is the one a plain copy
of the factor gets, and it is not read under another config or W-: a
factor certified there comes back as a plain ``Realization``.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import spectralfactors as sf
from spectralfactors import divisors, matnum, spectral, statespace
from spectralfactors.cli import main
from spectralfactors.demo import reference_model
from spectralfactors.factors import family_member, spectrum_gap
from spectralfactors.modelio import expand_spec_entries, write_model
from spectralfactors.statespace import eval_gap

from helpers import (bench_workloads, equivalence_gap, random_outer,
                     recipe_outer, transfer_equal)


def _count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a counting wrapper in every package module
    that binds it; returns the list that collects one entry per call."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.split(".")[0] == "spectralfactors"
                and getattr(mod, name, None) is orig):
            monkeypatch.setattr(mod, name, counted)
    return calls


MODELS = {
    "reference": reference_model,
    "random": lambda: random_outer(5, n_max=4),
    "constant": lambda: sf.identity(2),
}


@pytest.mark.parametrize("make", MODELS.values(), ids=MODELS.keys())
def test_conjugate_phase_carries_its_gramian_check(make):
    cp = sf.conjugate_phase(make())
    assert cp.gramian.passed
    assert cp.gramian.residuals() == sf.check_gramian_identities(cp).residuals()


def test_cli_analyze_checks_the_gramian_once(monkeypatch, tmp_path, ref_model):
    path = tmp_path / "model.json"
    write_model(path, ref_model, name="reference")
    rechecks = _count_calls(monkeypatch, spectral, "check_gramian_identities")
    completions = _count_calls(monkeypatch, spectral, "_allpass_completion")
    result = CliRunner().invoke(main, ["analyze", str(path)])
    assert result.exit_code == 0
    # T and the full-Gamma divisor behind W+ are each completed and
    # certified once; nothing checks T again.
    assert [args[3] for args in completions] == ["conjugate phase",
                                                "full-Gamma divisor"]
    assert rechecks == []
    report = json.loads(result.output)
    assert report["gramian_pass"] is True
    assert (report["gramian_residuals"]
            == sf.conjugate_phase(ref_model).gramian.residuals())


@pytest.mark.parametrize("candidate", ["outer", "w_bar_minus", "scalar"])
def test_verify_factor_reduces_each_system_once(monkeypatch, ref_model,
                                                ref_values, ref_cp, candidate):
    w = {"outer": ref_model, "w_bar_minus": ref_values["w_bar_minus"],
         "scalar": sf.identity(1)}[candidate]
    calls = _count_calls(monkeypatch, statespace, "minimal")
    report = sf.verify_factor(w, ref_cp)
    assert [args[0] for args in calls] == [w]
    assert report.degree == report.pole_zero.degree
    assert report.passed == (candidate != "scalar")


@pytest.mark.parametrize("width", [1, 3])
def test_spectrum_gap_rejects_another_width(ref_model, width):
    with pytest.raises(sf.DimensionMismatch, match="not comparable"):
        spectrum_gap(sf.identity(width), ref_model)


@pytest.mark.parametrize("points", [None, 16], ids=["default", "few"])
def test_circle_checks_decompose_each_system_once(monkeypatch, ref_model,
                                                  ref_values, points):
    # One decomposition of each A serves the pole guard (and eval_gap's
    # keep-mask) and the solve: a Schur form beyond the kernel switch,
    # an eigenvalue computation below it.
    w = ref_values["w_bar_minus"]
    forms = _count_calls(monkeypatch, statespace, "_decompose")
    schur = _count_calls(monkeypatch, statespace, "_ZGEES")
    eigvals = np.linalg.eigvals
    eigs = []
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: eigs.append(a) or eigvals(a))
    if points is None:
        spectrum_gap(w, ref_model)
        eval_gap(w, ref_model)
    else:
        zs = 1.3 * np.exp(2j * np.pi * np.arange(points) / points)
        spectrum_gap(w, ref_model, sf.ToleranceConfig(circle_samples=points))
        eval_gap(w, ref_model, zs)
    assert [id(args[0]) for args in forms] == [id(w.a), id(ref_model.a)] * 2
    assert len(schur) + len(eigs) == 4
    assert len(schur) == (4 if points is None else 0)


@pytest.mark.parametrize("k", [8, 9, 64, 512])
def test_circle_checks_sample_one_point_per_conjugate_pair(monkeypatch,
                                                           ref_model,
                                                           ref_values, k):
    # W(conj z) = conj W(z) for a real system: the k - floor(k/2) - 1
    # points of the lower half-circle would repeat the upper half's |.|.
    w = ref_values["w_bar_minus"]
    config = sf.ToleranceConfig(circle_samples=k)
    forms = _count_calls(monkeypatch, statespace, "_decompose")
    spectrum_gap(w, ref_model, config)
    sf.allpass_residual(w, config)
    eval_gap(w, ref_model, config=config)
    half = k // 2 + 1
    assert [(id(args[0]), args[1]) for args in forms] == [
        (id(w.a), half), (id(ref_model.a), half), (id(w.a), half),
        (id(w.a), 2 * half), (id(ref_model.a), 2 * half)]


def test_spectrum_gap_is_inf_at_a_pole(ref_model):
    # Narrowed to EvaluationAtPole, the guard still reports a pole on the
    # circle as an infinite gap.
    on_circle = sf.Realization([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert spectrum_gap(on_circle, on_circle) == float("inf")


def test_minimal_factor_reduces_only_the_cascade(monkeypatch, ref_model,
                                                 ref_cp):
    for div in sf.enumerate_divisors(ref_cp):
        calls = _count_calls(monkeypatch, statespace, "minimal")
        degrees = _count_calls(monkeypatch, statespace, "mcmillan_degree")
        cascades = _count_calls(monkeypatch, statespace, "series")
        _, report = sf.minimal_factor(ref_model, div)
        monkeypatch.undo()
        assert not calls and not degrees and not cascades
        assert report.passed and report.expected_degree == ref_model.n


@pytest.mark.parametrize("candidate", ["outer", "w_bar_minus"])
def test_extract_left_divisor_reduces_one_system(monkeypatch, ref_model,
                                                 ref_values, ref_cp,
                                                 candidate):
    w0 = {"outer": ref_model, "w_bar_minus": ref_values["w_bar_minus"]}[
        candidate]
    calls = _count_calls(monkeypatch, statespace, "minimal")
    degrees = _count_calls(monkeypatch, statespace, "mcmillan_degree")
    _, report = sf.extract_left_divisor(
        ref_model, w0, w_bar_plus=ref_cp.extremals.w_bar_plus)
    # T- is peeled off the cascade on its known states, and the certified
    # candidate on n states is minimal: nothing is reduced.
    assert not calls and not degrees
    assert report.passed and report.expected_degree == ref_model.n


def test_auto_gated_family_reduces_only_in_validation(monkeypatch):
    # A pole at the origin needs the gate, which picks a = 0.1; its
    # inventory is read from the given model, not from a reduction.
    w = sf.Realization(np.diag([0.5, 0.0]), np.eye(2),
                       np.diag([0.25, 1 / 6]), np.eye(2))
    calls = _count_calls(monkeypatch, statespace, "minimal")
    checks = _count_calls(monkeypatch, spectral, "validate_outer")
    out = sf.factor_family(w, [sf.SubspaceSpec(),
                               sf.SubspaceSpec(gamma_select=(0, 1))],
                           moebius_param=True)
    assert all(report.passed for _, report in out)
    assert len(checks) == 1 and len(calls) == 1
    assert calls[0][0] is checks[0][0]


def test_validating_a_wide_model_takes_no_full_loewner_svd(monkeypatch):
    # n = m = 16: the Loewner matrix is 352 x 352 for a degree of 16, and
    # the sketched bound certifies the degree from the SVD of a 22 x 352
    # matrix.  The only other SVD is the 16 x 16 feedthrough's inverse.
    wl = bench_workloads()
    w = sf.Realization(*wl.varma_model(wl._rng(7, 3, 0, 4), 16))
    svd = np.linalg.svd
    shapes = []

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    calls = _count_calls(monkeypatch, statespace, "minimal")
    monkeypatch.setattr(np.linalg, "svd", recorded)
    sf.validate_outer(w)
    assert len(calls) == 1
    width = 16 + statespace._SKETCH_OVERSAMPLE
    assert max(min(shape) for shape in shapes) == width
    assert (352, 352) not in shapes


def test_extraction_without_w_bar_plus_inverts_w_minus_once(
        monkeypatch, ref_model, ref_values):
    calls = _count_calls(monkeypatch, statespace, "inverse")
    _, report = sf.extract_left_divisor(ref_model, ref_values["w_bar_minus"])
    assert report.passed
    assert sum(args[0] is ref_model for args in calls) == 1


def _padded(r, pole=0.5):
    """``r`` with one extra unreachable but observable state: the same
    transfer function on n + 1 states."""
    n = r.n
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = r.a
    a[n, n] = pole
    return sf.Realization(a, np.vstack([r.b, np.zeros((1, r.n_in))]),
                          np.hstack([r.c, np.ones((r.n_out, 1))]), r.d)


def test_extract_left_divisor_reduces_a_padded_candidate(monkeypatch,
                                                         ref_model, ref_cp):
    n = ref_model.n
    for div in sf.enumerate_divisors(ref_cp):
        w0 = _padded(sf.minimal_factor(ref_model, div)[0])
        calls = _count_calls(monkeypatch, statespace, "minimal")
        t_back, report = sf.extract_left_divisor(
            ref_model, w0, w_bar_plus=ref_cp.extremals.w_bar_plus)
        monkeypatch.undo()
        assert len(calls) == 1 and calls[0][0] is w0
        assert w0.n == n + 1
        assert report.passed
        assert report.degree == report.pole_zero.degree == n
        assert t_back.n == div.degree


def _session_divisors(w):
    """The divisors of the benchmark's session specs of ``w``."""
    cp = sf.conjugate_phase(w)
    specs = [
        sf.SubspaceSpec(),
        sf.SubspaceSpec(gamma_select=range(cp.n_gamma)),
        sf.SubspaceSpec(a_select=range(cp.n_a)),
        sf.SubspaceSpec(gamma_select=cp.gamma_blocks[0].indices,
                        a_select=cp.a_blocks[0].indices),
    ]
    return cp, [sf.divisor_from_projector(cp, sf.projector_from_spec(cp, s))
                for s in specs]


def _varma8():
    wl = bench_workloads()
    return sf.Realization(*wl.varma_model(wl._rng(7, 3, 0, 0), 8))


@pytest.mark.parametrize("family", [*MODELS, "varma8"])
def test_extracting_generated_factors_reduces_nothing(monkeypatch, family):
    # Every generated factor is minimal on n states, and its divisor is
    # peeled off the cascade: no Loewner cut at all.
    if family == "varma8":
        w = _varma8()
        cp, divs = _session_divisors(w)
    else:
        w = MODELS[family]()
        cp = sf.conjugate_phase(w)
        divs = sf.enumerate_divisors(cp)
    calls = _count_calls(monkeypatch, statespace, "minimal")
    for div in divs:
        w0, _ = sf.minimal_factor(w, div)
        t_back, report = sf.extract_left_divisor(
            w, w0, w_bar_plus=cp.extremals.w_bar_plus)
        assert report.passed and t_back.n == div.degree
        if div.degree:
            assert equivalence_gap(div.t_ell, t_back) <= 1e-7
    assert calls == []


@pytest.mark.parametrize("make", MODELS.values(), ids=MODELS.keys())
def test_enumeration_and_complements_reduce_nothing(monkeypatch, make):
    cp = sf.conjugate_phase(make())
    divs = sf.enumerate_divisors(cp)
    calls = _count_calls(monkeypatch, statespace, "minimal")
    for div in divs:
        sf.right_complement(cp, div)
    assert calls == []
    sf.enumerate_divisors(cp)
    assert calls == []


@pytest.mark.parametrize("make", MODELS.values(), ids=MODELS.keys())
def test_enumeration_builds_each_basis_once(monkeypatch, make):
    cp = sf.conjugate_phase(make())
    round_trip = [_count_calls(monkeypatch, module, name)
                  for module, name in ((matnum, "basis_from_projector"),
                                       (matnum, "is_invariant"),
                                       (divisors, "divisor_from_projector"))]
    ranks = _count_calls(monkeypatch, matnum, "orth_basis")
    divs = sf.enumerate_divisors(cp)
    # One rank-checked basis per non-empty side subset, no projector round
    # trip; the right complement reads the carried basis.
    subsets = 2 ** len(cp.gamma_blocks) + 2 ** len(cp.a_blocks) - 2
    assert round_trip == [[], [], []]
    assert len(ranks) == subsets
    for div in divs:
        assert div.basis.shape == (cp.t.n, div.degree)
        sf.right_complement(cp, div)
    assert round_trip == [[], [], []]
    assert len(ranks) == subsets


@pytest.mark.parametrize("make", MODELS.values(), ids=MODELS.keys())
def test_family_member_makes_no_projector_round_trip(monkeypatch, make):
    cp = sf.conjugate_phase(make())
    specs = [sf.SubspaceSpec(gamma_select=range(cp.n_gamma),
                             a_select=range(cp.n_a))]
    specs += [sf.SubspaceSpec(gamma_basis=blk.basis)
              for blk in cp.gamma_blocks[:1]]
    specs += [sf.SubspaceSpec(a_basis=blk.basis) for blk in cp.a_blocks[:1]]
    round_trip = [_count_calls(monkeypatch, module, name)
                  for module, name in ((matnum, "basis_from_projector"),
                                       (divisors, "divisor_from_projector"))]
    for spec in specs:
        _, _, report = family_member(cp, spec)
        assert report.passed
    assert round_trip == [[], []]


@pytest.mark.parametrize("make", [MODELS["reference"], MODELS["random"]],
                         ids=["reference", "random"])
def test_factor_state_count_is_its_reported_degree(make):
    w = make()
    for div in sf.enumerate_divisors(sf.conjugate_phase(w)):
        factor, report = sf.minimal_factor(w, div)
        assert factor.n == report.degree == report.pole_zero.degree == w.n


def test_non_minimal_outer_factor_keeps_its_verdict(ref_model, ref_cp):
    # An uncontrollable extra state leaves the transfer function, and so
    # every generated factor and its degree, unchanged.
    n = ref_model.n
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = ref_model.a
    a[n, n] = 0.5
    padded = sf.Realization(a, np.vstack([ref_model.b, np.zeros((1, 2))]),
                            np.hstack([ref_model.c, np.ones((2, 1))]),
                            ref_model.d)
    assert sf.mcmillan_degree(padded) == n
    for div in sf.enumerate_divisors(ref_cp):
        w, report = sf.minimal_factor(padded, div)
        assert report.passed
        assert report.degree == report.expected_degree == n
        assert transfer_equal(w, sf.minimal_factor(ref_model, div)[0])


def _count_cli_verify(monkeypatch, model, cand, exit_code):
    """Run ``cli verify`` and pin its work: one conjugate phase and no
    extremal set; W- reduced (its validation) and sampled (in the phase)
    once, then the candidate reduced and sampled once.  T- is peeled, not
    reduced."""
    phases = _count_calls(monkeypatch, spectral, "conjugate_phase")
    extremals = _count_calls(monkeypatch, spectral, "extremal_set")
    calls = _count_calls(monkeypatch, statespace, "minimal")
    densities = _count_calls(monkeypatch, spectral, "spectrum_samples")
    result = CliRunner().invoke(main, ["verify", str(model), str(cand)])
    assert result.exit_code == exit_code, result.output
    assert (len(phases), len(calls), len(densities)) == (1, 2, 2)
    assert extremals == []
    w_minus = phases[0][0]
    assert [args[0] is w_minus for args in calls] == [True, False]
    assert (sorted(_ids(args[0] for args in densities))
            == sorted(_ids([w_minus, calls[1][0]])))


def test_cli_verify_carries_one_extremal_set(monkeypatch, tmp_path, ref_model,
                                             ref_values):
    model, cand = tmp_path / "model.json", tmp_path / "cand.json"
    write_model(model, ref_model, name="reference")
    write_model(cand, ref_values["w_bar_minus"], name="unstable_minphase")
    _count_cli_verify(monkeypatch, model, cand, 0)


def test_cli_verify_of_a_nonfactor_reduces_and_samples_each_system_once(
        monkeypatch, tmp_path):
    _, files = bench_workloads().cli_inputs(1234, 0, str(tmp_path))
    _count_cli_verify(monkeypatch, files["model"], files["nonfactor"], 1)


@pytest.mark.parametrize("make", MODELS.values(), ids=MODELS.keys())
def test_divisor_from_projector_reduces_nothing(monkeypatch, make):
    cp = sf.conjugate_phase(make())
    projectors = [div.basis @ div.basis.T
                  for div in sf.enumerate_divisors(cp)]
    calls = _count_calls(monkeypatch, statespace, "minimal")
    for pi in projectors:
        sf.divisor_from_projector(cp, pi)
    assert calls == []


@pytest.mark.parametrize("make", MODELS.values(), ids=MODELS.keys())
def test_divisor_degree_is_the_projector_rank(make):
    assert [f.name for f in dataclasses.fields(sf.AllPassDivisor)] == [
        "t_ell", "factor", "basis", "degree", "subspace_dims",
        "right_complement", "phase"]
    for div in sf.enumerate_divisors(sf.conjugate_phase(make())):
        assert div.t_ell.n == div.degree == sum(div.subspace_dims)


def test_spectral_structure_is_clustered_once(monkeypatch, ref_model):
    blocks = _count_calls(monkeypatch, matnum, "eigen_blocks")
    cp = sf.conjugate_phase(ref_model)
    assert len(blocks) == 2
    sf.enumerate_divisors(cp)
    for spec in (sf.SubspaceSpec(),
                 sf.SubspaceSpec(gamma_select=range(cp.n_gamma)),
                 sf.SubspaceSpec(a_select=range(cp.n_a)),
                 sf.SubspaceSpec(gamma_select=cp.gamma_blocks[0].indices,
                                 a_select=cp.a_blocks[0].indices)):
        sf.projector_from_spec(cp, spec)
    specs = expand_spec_entries([{"a_select": [0, 1], "theta_grid": 2}], cp)
    assert len(specs) == 2
    assert [args[0] for args in blocks] == [cp.gamma, cp.a_inv_t]


@pytest.mark.parametrize("make", [MODELS["reference"], MODELS["random"],
                                  lambda: recipe_outer(8, 0)],
                         ids=["reference", "random", "recipe8_0"])
def test_each_spectrum_takes_one_schur_form(monkeypatch, make):
    w = make()
    forms = _count_calls(monkeypatch, matnum, "_GEES")
    reorders = _count_calls(monkeypatch, matnum, "_TRSEN")
    cp = sf.conjugate_phase(w)
    # One gees each for Gamma and A^{-T}, whatever their block counts.
    assert len(forms) == 2
    assert len(reorders) == len(cp.gamma_blocks) + len(cp.a_blocks)


def test_divisor_input_leaving_the_range_raises(monkeypatch, ref_cp):
    # Only a projector that passes the invariance test can reach the
    # completion's identity check, so that test is switched off here.
    monkeypatch.setattr(divisors, "is_invariant", lambda *args: True)
    v = np.array([[0.0], [0.1], [1.0], [0.0]])   # mixes the two blocks
    q = matnum.orth_basis(v)
    with pytest.raises(sf.GramianIdentityViolation,
                       match="divisor fails its all-pass identities"):
        sf.divisor_from_projector(ref_cp, q @ q.T)


BENCH_CFG = sf.ToleranceConfig(circle_samples=64, residual_tol=1e-7)


@pytest.mark.parametrize("family", ["reference", "random", "varma8"])
def test_each_system_is_sampled_once_per_family(monkeypatch, family):
    # The conjugate phase samples W-'s density once; per divisor the factor
    # is sampled once (its report, which the extraction reads) and T- once
    # (its all-pass check), and the factor is inventoried once.
    wl = bench_workloads()
    if family == "varma8":
        w, op, config = _varma8(), wl.session_op, sf.DEFAULT_TOL
    else:
        w, op, config = MODELS[family](), wl.roundtrip_op, BENCH_CFG
    densities = _count_calls(monkeypatch, spectral, "spectrum_samples")
    allpass = _count_calls(monkeypatch, spectral, "allpass_residual")
    inventories = _count_calls(monkeypatch, statespace, "_inventory")
    cp, out, failures = op(sf, w, config)
    assert not failures and out
    factors = [div.factor for div, _, _ in out]
    assert (sorted(_ids(args[0] for args in densities))
            == sorted(_ids([w, *factors])))
    assert (_ids(args[0] for args in allpass)
            == _ids(t_back for _, _, t_back in out))
    assert _ids(args[0] for args in inventories) == _ids(factors)
    assert cp.extremals.w_minus is w and cp.config == config


def _ids(objects):
    return [id(x) for x in objects]


def test_gated_family_samples_the_original_w_minus_once(monkeypatch):
    # The working W- once, each factor before and after its map back once,
    # and the caller's W- once, read from the phase by every member.
    w = reference_model()
    specs = [sf.SubspaceSpec(), sf.SubspaceSpec(gamma_select=(0,)),
             sf.SubspaceSpec(a_select=(0, 1))]
    densities = _count_calls(monkeypatch, spectral, "spectrum_samples")
    out = sf.factor_family(w, specs, moebius_param=0.3)
    assert all(report.passed for _, report in out)
    assert len(densities) == 8
    assert sum(args[0] is w for args in densities) == 1


@pytest.mark.parametrize("argv", [[], ["--moebius"]], ids=["plain", "moebius"])
def test_cli_analyze_samples_nothing(monkeypatch, tmp_path, ref_model, argv):
    path = tmp_path / "model.json"
    write_model(path, ref_model, name="reference")
    densities = _count_calls(monkeypatch, spectral, "spectrum_samples")
    result = CliRunner().invoke(main, ["analyze", str(path), *argv])
    assert result.exit_code == 0, result.output
    assert densities == []


def test_cli_gated_factors_sample_each_w_minus_once(monkeypatch, tmp_path):
    # Seven specs: both W- once, and each factor before and after its map
    # back once.
    _, files = bench_workloads().cli_inputs(1234, 0, str(tmp_path))
    densities = _count_calls(monkeypatch, spectral, "spectrum_samples")
    result = CliRunner().invoke(main, [
        "factors", files["model"], files["specs"], "--moebius",
        "-d", str(tmp_path / "fam_m")])
    assert result.exit_code == 0, result.output
    assert len(densities) == 2 + 2 * 7


def _plain(r):
    return sf.Realization(r.a, r.b, r.c, r.d)


def _assert_same_system(r1, r2):
    for name in "abcd":
        assert np.array_equal(getattr(r1, name), getattr(r2, name))


def _assert_same_report(r1, r2, skip=()):
    for f in dataclasses.fields(sf.FactorReport):
        v1, v2 = getattr(r1, f.name), getattr(r2, f.name)
        if f.name in skip:
            continue
        if f.name == "pole_zero":
            assert v1.degree == v2.degree
            assert np.array_equal(v1.poles, v2.poles)
            assert np.array_equal(v1.zeros, v2.zeros)
        else:
            assert v1 == v2, f.name


@pytest.mark.parametrize("make", [reference_model, lambda: recipe_outer(6, 0)],
                         ids=["reference", "recipe6_0"])
def test_carried_report_is_the_recomputed_report(monkeypatch, make):
    w = make()
    cp = sf.conjugate_phase(w)
    for div in sf.enumerate_divisors(cp):
        w0, report = sf.minimal_factor(w, div)
        assert isinstance(w0, sf.CertifiedFactor)
        assert isinstance(w0, sf.Realization)
        assert w0.report is report and w0.phase is cp
        assert cp.config == sf.DEFAULT_TOL
        assert div.phase is cp
        inventories = _count_calls(monkeypatch, statespace, "_inventory")
        t_cert, rep_cert = sf.extract_left_divisor(
            w, w0, w_bar_plus=cp.extremals.w_bar_plus)
        assert inventories == []
        t_fresh, rep_fresh = sf.extract_left_divisor(
            w, _plain(w0), w_bar_plus=cp.extremals.w_bar_plus)
        monkeypatch.undo()
        _assert_same_system(t_cert, t_fresh)
        _assert_same_report(rep_cert, rep_fresh)
        _assert_same_report(rep_cert, report, skip=("allpass_residual",))


OTHER_CONFIGS = {"residual_tol": dict(residual_tol=1e-8),
                 "samples128": dict(circle_samples=128)}


@pytest.mark.parametrize("change", OTHER_CONFIGS.values(),
                         ids=OTHER_CONFIGS.keys())
def test_certificate_is_not_reused_under_another_config(monkeypatch, change):
    w = reference_model()
    cp = sf.conjugate_phase(w, BENCH_CFG)
    other = dataclasses.replace(BENCH_CFG, **change)
    for div in sf.enumerate_divisors(cp, BENCH_CFG):
        w0, _ = sf.minimal_factor(w, div, BENCH_CFG)
        inventories = _count_calls(monkeypatch, statespace, "_inventory")
        densities = _count_calls(monkeypatch, spectral, "spectrum_samples")
        _, report = sf.extract_left_divisor(
            w, w0, other, w_bar_plus=cp.extremals.w_bar_plus)
        monkeypatch.undo()
        assert _ids(args[0] for args in inventories) == _ids([w0])
        assert _ids(args[0] for args in densities) == _ids([w0, w])
        _assert_same_report(
            report, sf.verify_factor(_plain(w0), sf.conjugate_phase(w, other)),
            skip=("allpass_residual",))


@pytest.mark.parametrize("change", OTHER_CONFIGS.values(),
                         ids=OTHER_CONFIGS.keys())
def test_minimal_factor_samples_w_minus_under_another_config(monkeypatch,
                                                             change):
    w = reference_model()
    cp = sf.conjugate_phase(w, BENCH_CFG)
    other = dataclasses.replace(BENCH_CFG, **change)
    for div in sf.enumerate_divisors(cp, BENCH_CFG):
        densities = _count_calls(monkeypatch, spectral, "spectrum_samples")
        w0, report = sf.minimal_factor(w, div, other)
        monkeypatch.undo()
        assert _ids(args[0] for args in densities) == _ids([div.factor, w])
        assert type(w0) is sf.Realization
        _assert_same_report(
            report, sf.verify_factor(div.factor, sf.conjugate_phase(w, other)),
            skip=("allpass_residual",))


def test_certificate_is_not_reused_for_another_w_minus(monkeypatch, ref_model,
                                                       ref_cp):
    copy = _plain(ref_model)
    doubled = sf.Realization(ref_model.a, ref_model.b, 2.0 * ref_model.c,
                             2.0 * ref_model.d)
    for div in sf.enumerate_divisors(ref_cp):
        w0, _ = sf.minimal_factor(ref_model, div)
        # An equal W- that is another object: the factor is sampled with it.
        densities = _count_calls(monkeypatch, spectral, "spectrum_samples")
        w1, report = sf.minimal_factor(copy, div)
        _, extracted = sf.extract_left_divisor(copy, w0)
        monkeypatch.undo()
        assert (_ids(args[0] for args in densities)
                == _ids([div.factor, copy, w0, copy]))
        assert type(w1) is sf.Realization
        fresh = sf.verify_factor(_plain(w0), sf.conjugate_phase(copy))
        _assert_same_report(report, fresh, skip=("allpass_residual",))
        _assert_same_report(extracted, fresh, skip=("allpass_residual",))
        # Twice W- has another density: W-^{-1} W0 is T_l / 2, so both
        # candidates fail the same way.
        with pytest.raises(sf.NotAFactor) as certified:
            sf.extract_left_divisor(doubled, w0)
        with pytest.raises(sf.NotAFactor) as plain:
            sf.extract_left_divisor(doubled, _plain(w0))
        assert str(certified.value) == str(plain.value)


@pytest.mark.parametrize("change", [*OTHER_CONFIGS.values(), "copy"],
                         ids=[*OTHER_CONFIGS, "copy"])
def test_factor_certified_in_another_context_is_plain(monkeypatch, change):
    # Certified under another config, or against an equal W- that is
    # another object, the factor carries nothing: its extraction in that
    # same context inventories and samples it again.
    w = reference_model()
    cp = sf.conjugate_phase(w, BENCH_CFG)
    w_ref, config = ((_plain(w), BENCH_CFG) if change == "copy"
                     else (w, dataclasses.replace(BENCH_CFG, **change)))
    for div in sf.enumerate_divisors(cp, BENCH_CFG):
        w0, report = sf.minimal_factor(w_ref, div, config)
        assert type(w0) is sf.Realization
        inventories = _count_calls(monkeypatch, statespace, "_inventory")
        densities = _count_calls(monkeypatch, spectral, "spectrum_samples")
        _, extracted = sf.extract_left_divisor(
            w_ref, w0, config, w_bar_plus=cp.extremals.w_bar_plus)
        monkeypatch.undo()
        assert _ids(args[0] for args in inventories) == _ids([w0])
        assert _ids(args[0] for args in densities) == _ids([w0, w_ref])
        _assert_same_report(extracted, report, skip=("allpass_residual",))


@pytest.mark.parametrize("make", [reference_model, lambda: recipe_outer(6, 0)],
                         ids=["reference", "recipe6_0"])
def test_verify_factor_folds_in_the_extraction_report(make):
    w = make()
    cp = sf.conjugate_phase(w)
    for div in sf.enumerate_divisors(cp):
        w0 = _plain(sf.minimal_factor(w, div)[0])
        _, extracted = sf.extract_left_divisor(
            w, w0, w_bar_plus=cp.extremals.w_bar_plus)
        report = sf.verify_factor(w0, cp)
        assert report.allpass_residual is not None
        _assert_same_report(report, extracted)
