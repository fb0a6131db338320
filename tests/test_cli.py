"""Command-line interface: commands, exit codes, and file outputs."""

import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

import spectralfactors as sf
from spectralfactors.cli import main
from spectralfactors.modelio import read_model, write_model

from helpers import circle_points, recipe_outer


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def model_path(tmp_path, ref_model):
    path = tmp_path / "model.json"
    write_model(path, ref_model, name="reference")
    return str(path)


@pytest.fixture
def candidate_path(tmp_path, ref_values):
    path = tmp_path / "candidate.json"
    write_model(path, ref_values["w_bar_minus"], name="unstable_minphase")
    return str(path)


def run(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False,
                           standalone_mode=False)
    return result


class TestAnalyze:
    def test_writes_report(self, runner, model_path, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["analyze", model_path, "-o", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert_allclose(report["conjugate_phase"]["D"],
                        np.diag([0.5, 2.0 / 3.0]), atol=1e-10)
        assert report["gramian_pass"] is True
        assert len(report["eigenvalues"]["gamma_blocks"]) == 2

    def test_report_keys_and_conjugate_outer_factor(self, runner, tmp_path):
        w = recipe_outer(5, 3)
        path = tmp_path / "recipe.json"
        write_model(path, w, name="recipe")
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert list(report) == [
            "model", "moebius_a", "w_plus", "w_bar_plus", "conjugate_phase",
            "x", "y", "z", "p0_inv", "gramian_residuals", "gramian_pass",
            "eigenvalues"]
        # Wbar+ = W- T on the circle, both read from the report
        def realization(key):
            return sf.Realization(*(np.array(report[key][k])
                                    for k in "ABCD"))
        zs = circle_points(256)
        vals = sf.evalfr_many(realization("w_bar_plus"), zs)
        prod = sf.evalfr_many(w, zs) @ sf.evalfr_many(
            realization("conjugate_phase"), zs)
        assert np.max(np.abs(vals - prod)) <= 1e-12 * np.max(np.abs(vals))

    def test_constant_model(self, runner, tmp_path):
        path = tmp_path / "const.json"
        write_model(path, sf.identity(2), name="const")
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 0

    def test_not_outer_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        write_model(path, sf.Realization(1.5 * np.eye(2), np.eye(2),
                                         0.1 * np.eye(2), np.eye(2)),
                    name="unstable")
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 2
        assert "not outer" in result.output

    def test_parse_error_exits_3(self, runner, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 3

    def test_improper_requires_moebius_flag(self, runner, tmp_path):
        path = tmp_path / "shifted.json"
        write_model(path, sf.Realization(np.diag([0.5, 0.0]), np.eye(2),
                                         np.diag([0.25, 1 / 6]), np.eye(2)),
                    name="shifted")
        assert runner.invoke(main, ["analyze", str(path)]).exit_code == 2
        result = runner.invoke(main, ["analyze", str(path), "--moebius"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["moebius_a"] == 0.1
        # W+ keeps the poles and maps back; Wbar+ has its pole at -1/a,
        # which maps back to infinity.
        assert set(report["w_plus_original_variable"]) == set("ABCD")
        assert report["w_bar_plus_original_variable"] is None
        assert report["w_bar_plus_original_variable_note"].startswith(
            "improper in the original variable")
        assert "w_plus_original_variable_note" not in report

    def test_explicit_moebius_value(self, runner, model_path):
        result = runner.invoke(main, ["analyze", model_path, "--moebius=0.3"])
        assert result.exit_code == 0
        assert json.loads(result.output)["moebius_a"] == 0.3

    @pytest.mark.parametrize("argv", [["--moebius=-0.5"],
                                      ["--moebius", "-0.5"]],
                             ids=["equals", "separate"])
    def test_negative_moebius_value(self, runner, model_path, argv):
        result = runner.invoke(main, ["analyze", model_path, *argv])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["moebius_a"] == -0.5

    @pytest.mark.parametrize("argv", [["--moebius=-1.5"],
                                      ["--moebius", "-1.5"]],
                             ids=["equals", "separate"])
    def test_negative_moebius_out_of_range_exits_3(self, runner, model_path,
                                                   argv):
        result = runner.invoke(main, ["analyze", model_path, *argv])
        assert result.exit_code == 3
        assert "error: --moebius expects |a| < 1, got '-1.5'" in result.output

    def test_huge_circle_samples_in_model_exits_3(self, runner, model_path,
                                                  tmp_path):
        doc = json.loads(open(model_path).read())
        doc["tolerances"] = {"circle_samples": 10**400}
        path = tmp_path / "tol.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["verify", str(path), str(path)])
        assert result.exit_code == 3
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        assert "error: bad tolerances" in result.output

    @pytest.mark.parametrize("value", ["1.5", "nan", "inf"])
    def test_moebius_out_of_range_exits_3(self, runner, model_path, value):
        result = runner.invoke(main, ["analyze", model_path,
                                      f"--moebius={value}"])
        assert result.exit_code == 3
        assert "error: --moebius expects |a| < 1" in result.output

    @pytest.mark.parametrize("tolerances", [
        '{"circle_samples": 8.7}',
        '{"rank_rel_tol": true}',
        '{"residual_tol": "1e-3"}',
        '{"residual_tol": Infinity}',
        '{"rank_rel_tol": NaN}',
    ], ids=["samples-float", "tol-bool", "tol-str", "tol-inf", "tol-nan"])
    def test_malformed_tolerances_exit_3(self, runner, model_path, tmp_path,
                                         tolerances):
        doc = json.loads(open(model_path).read())
        doc["tolerances"] = json.loads(tolerances)
        path = tmp_path / "tol.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 3
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        assert "error: bad tolerances" in result.output


@pytest.mark.parametrize("argv", [["analyze", "--samples", "64"],
                                  ["spectrum", "--tol", "1e-3"]],
                         ids=["analyze-samples", "spectrum-tol"])
def test_flag_without_effect_is_not_an_option(runner, model_path, argv):
    # analyze samples no circle and spectrum checks no residual, so neither
    # takes the flag.
    result = runner.invoke(main, [argv[0], model_path, *argv[1:]])
    assert result.exit_code == 3
    assert "No such option" in result.output and argv[1] in result.output


@pytest.mark.parametrize("argv, message", [
    (["analyze", "MODEL", "--bogus"], "No such option '--bogus'"),
    (["analyze"], "Missing argument 'MODEL_PATH'"),
    (["factors", "MODEL", "MODEL", "--samples", "abc"],
     "Invalid value for '--samples': 'abc' is not a valid integer"),
    (["bogus"], "No such command 'bogus'"),
], ids=["unknown-option", "missing-argument", "bad-flag-type",
        "unknown-command"])
def test_usage_errors_exit_3(runner, model_path, argv, message):
    # Exit 2 means the model is outside the supported class; a command line
    # click cannot parse is a parse failure, with click's own message.
    argv = [model_path if arg == "MODEL" else arg for arg in argv]
    result = runner.invoke(main, argv)
    assert result.exit_code == 3
    assert f"Error: {message}" in result.output


class TestFactors:
    def test_reference_family(self, runner, model_path, tmp_path, ref_model):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps({"specs": [
            {},
            {"a_select": [0, 1]},
            {"a_select": [0, 1], "theta_grid": 4},
        ]}))
        outdir = tmp_path / "family"
        result = runner.invoke(main, ["factors", model_path, str(specs),
                                      "-d", str(outdir)])
        assert result.exit_code == 0, result.output
        summary = json.loads((outdir / "summary.json").read_text())
        assert len(summary["factors"]) == 6
        assert all(row["passed"] and row["degree"] == 2
                   for row in summary["factors"])
        # the full-eigenspace factor has both poles at 2
        row = summary["factors"][1]
        poles = np.array(row["poles"])
        assert_allclose(poles[:, 0], [2.0, 2.0], atol=1e-8)
        # every emitted model file verifies against the source model
        for row in summary["factors"]:
            emitted = read_model(outdir / row["file"]).realization
            assert sf.verify_factor(emitted, ref_model).passed

    def test_moebius_family(self, runner, model_path, tmp_path, ref_model):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps({"specs": [
            {},
            {"a_select": [0, 1]},
            {"a_select": [0, 1], "theta_grid": 4},
        ]}))
        outdir = tmp_path / "family"
        result = runner.invoke(main, ["factors", model_path, str(specs),
                                      "--moebius=0.3", "-d", str(outdir)])
        assert result.exit_code == 0, result.output
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["moebius_a"] == 0.3
        assert len(summary["factors"]) == 6
        assert all(row["degree"] == 2 for row in summary["factors"])
        for row in summary["factors"]:
            emitted = read_model(outdir / row["file"]).realization
            assert sf.verify_factor(emitted, ref_model).passed

    @pytest.mark.parametrize("argv, expected", [
        (["--moebius"], 0.1),
        (["--moebius", "-0.2"], -0.2),
    ], ids=["auto", "negative"])
    def test_moebius_before_outdir(self, runner, model_path, tmp_path, argv,
                                   expected):
        # A bare --moebius followed by -d still picks the parameter.
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps({"specs": [{}, {"a_select": [0, 1]}]}))
        outdir = tmp_path / "family"
        result = runner.invoke(main, ["factors", model_path, str(specs),
                                      *argv, "-d", str(outdir)])
        assert result.exit_code == 0, result.output
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["moebius_a"] == expected
        assert len(summary["factors"]) == 2

    def test_huge_samples_exits_3(self, runner, model_path, tmp_path):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps({"specs": [{}]}))
        result = runner.invoke(main, ["factors", model_path, str(specs),
                                      "--samples", str(10**400)])
        assert result.exit_code == 3
        assert "error: bad --tol/--samples value" in result.output

    @pytest.mark.parametrize("flag", [["--samples", "3"], ["--tol", "-1"]])
    def test_bad_flag_value_exits_3(self, runner, model_path, tmp_path, flag):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps({"specs": [{}]}))
        result = runner.invoke(main, ["factors", model_path, str(specs),
                                      *flag])
        assert result.exit_code == 3
        assert flag[0] in result.output

    def test_empty_specs(self, runner, model_path, tmp_path):
        specs = tmp_path / "empty.json"
        specs.write_text(json.dumps({"specs": []}))
        result = runner.invoke(main, ["factors", model_path, str(specs),
                                      "-d", str(tmp_path / "none")])
        assert result.exit_code == 0
        assert "0 factors" in result.output

    def test_bad_spec_file_exits_3(self, runner, model_path, tmp_path):
        specs = tmp_path / "bad.json"
        specs.write_text(json.dumps({"specs": [{"what": 1}]}))
        result = runner.invoke(main, ["factors", model_path, str(specs),
                                      "-d", str(tmp_path / "x")])
        assert result.exit_code == 3

    @pytest.mark.parametrize("entry, code", [
        ({"gamma_select": ["x"]}, 3),
        ({"gamma_select": 5}, 3),
        ({"a_basis": [[1, "q"]]}, 3),
        ({"a_select": [0, 1], "theta_grid": True}, 3),
        ({"a_select": [7]}, 2),
    ], ids=["select-str", "select-int", "basis-str", "theta-bool",
            "select-out-of-range"])
    def test_malformed_entry_exits_typed(self, runner, model_path, tmp_path,
                                         entry, code):
        specs = tmp_path / "bad.json"
        specs.write_text(json.dumps({"specs": [entry]}))
        result = runner.invoke(main, ["factors", model_path, str(specs),
                                      "-d", str(tmp_path / "x")])
        assert result.exit_code == code
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        assert "error:" in result.output


    # A theta entry obeys the index rules and exit codes of a plain one.
    @pytest.mark.parametrize("select", [[0, 1, 7], [0]],
                             ids=["out-of-range", "split-cluster"])
    def test_theta_entry_exits_as_the_plain_entry(self, runner, model_path,
                                                  tmp_path, select):
        outputs = []
        for entry in ({"a_select": select},
                      {"a_select": select, "theta_grid": 2}):
            specs = tmp_path / "specs.json"
            specs.write_text(json.dumps({"specs": [entry]}))
            result = runner.invoke(main, ["factors", model_path, str(specs),
                                          "-d", str(tmp_path / "x")])
            assert result.exit_code == 2
            outputs.append(result.output)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("error: invalid a selection:")

    def test_theta_entry_on_a_defective_cluster_exits_2(self, runner,
                                                        tmp_path):
        model = tmp_path / "defective.json"
        write_model(model, sf.Realization([[0.5, 1.0], [0.0, 0.5]],
                                          np.eye(2), 0.1 * np.eye(2),
                                          np.eye(2)), name="defective")
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps({"specs": [
            {"a_select": [0, 1], "theta_grid": 2}]}))
        result = runner.invoke(main, ["factors", str(model), str(specs),
                                      "-d", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        assert "is defective" in result.output


class TestVerify:
    def test_candidate_passes(self, runner, model_path, candidate_path):
        result = runner.invoke(main, ["verify", model_path, candidate_path])
        assert result.exit_code == 0
        assert "pass" in result.output

    def test_model_against_itself(self, runner, model_path):
        result = runner.invoke(main, ["verify", model_path, model_path])
        assert result.exit_code == 0

    def test_scaled_candidate_fails(self, runner, model_path, tmp_path,
                                    ref_model):
        path = tmp_path / "scaled.json"
        write_model(path, sf.Realization(ref_model.a, 2.0 * ref_model.b,
                                         ref_model.c, 2.0 * ref_model.d),
                    name="scaled")
        result = runner.invoke(main, ["verify", model_path, str(path)])
        assert result.exit_code == 1
        assert "fail" in result.output

    def test_other_width_candidate_fails(self, runner, model_path, tmp_path):
        path = tmp_path / "scalar.json"
        write_model(path, sf.identity(1), name="scalar")
        result = runner.invoke(main, ["verify", model_path, str(path)])
        assert result.exit_code == 1
        assert "candidate is 1x1, the outer factor is 2x2" in result.output

    def test_failed_extraction_is_the_verdict(self, runner, tmp_path,
                                              ref_model):
        # The densities differ by 2e-6 relative, inside the spectrum check
        # for a density this small, but W-^{-1} W0 = (1 + 1e-6) I is not
        # all-pass: one report, which fails.
        model, cand = tmp_path / "model.json", tmp_path / "cand.json"
        for path, s in ((model, 0.03), (cand, 0.03 * (1 + 1e-6))):
            write_model(path, sf.Realization(ref_model.a, ref_model.b,
                                             s * ref_model.c, s * ref_model.d),
                        name=path.stem)
        result = runner.invoke(main, ["verify", str(model), str(cand)])
        assert result.exit_code == 1
        assert result.output.count("verdict:") == 1
        assert "verdict:           fail" in result.output
        assert ("reason:            divisor extraction: quotient is not "
                "all-pass (residual 2.000e-06)") in result.output

    def test_infinite_tol_exits_3(self, runner, model_path, tmp_path,
                                  ref_model):
        # An infinite tolerance would pass any candidate.
        path = tmp_path / "scaled.json"
        write_model(path, sf.Realization(ref_model.a, 2.0 * ref_model.b,
                                         ref_model.c, 2.0 * ref_model.d),
                    name="scaled")
        result = runner.invoke(main, ["verify", model_path, str(path),
                                      "--tol", "inf"])
        assert result.exit_code == 3
        assert "positive finite number" in result.output


class TestSpectrum:
    def test_reference_first_row(self, runner, model_path, tmp_path):
        out = tmp_path / "spec.csv"
        result = runner.invoke(main, ["spectrum", model_path, "-n", "8",
                                      "-o", str(out)])
        assert result.exit_code == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["theta", "phi_1_1", "phi_2_2", "phi_1_2_re",
                           "phi_1_2_im"]
        assert len(rows) == 9
        first = [float(v) for v in rows[1]]
        assert first[0] == 0.0
        assert_allclose(first[1], 2.25, atol=1e-12)
        assert_allclose(first[2], 16.0 / 9.0, atol=1e-12)

    def test_single_sample(self, runner, model_path):
        result = runner.invoke(main, ["spectrum", model_path, "-n", "1"])
        rows = result.output.strip().splitlines()
        assert result.exit_code == 0
        assert len(rows) == 2
        assert rows[1].startswith("0,")

    def test_zero_samples_exits_3(self, runner, model_path):
        result = runner.invoke(main, ["spectrum", model_path, "-n", "0"])
        assert result.exit_code == 3
        assert "positive" in result.output

    @pytest.mark.parametrize("count", ["16385", str(10**400)])
    def test_sample_count_above_the_ceiling_exits_3(self, runner, model_path,
                                                    count):
        result = runner.invoke(main, ["spectrum", model_path, "-n", count])
        assert result.exit_code == 3
        assert "error: sample count must be positive and at most 16384" in (
            result.output)

    def test_sample_count_at_the_ceiling(self, runner, model_path):
        result = runner.invoke(main, ["spectrum", model_path, "-n", "16384"])
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 16385

    def test_all_pass_rows_are_identity(self, runner, tmp_path, ref_values):
        path = tmp_path / "allpass.json"
        write_model(path, ref_values["divisor_2"], name="allpass")
        result = runner.invoke(main, ["spectrum", str(path), "-n", "4"])
        rows = list(csv.reader(result.output.strip().splitlines()))[1:]
        for row in rows:
            vals = [float(v) for v in row[1:]]
            assert_allclose(vals, [1.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_roundtrip_values(self, runner, model_path, ref_model):
        result = runner.invoke(main, ["spectrum", model_path, "-n", "3"])
        rows = list(csv.reader(result.output.strip().splitlines()))[1:]
        for row in rows:
            theta = float(row[0])
            phi = sf.spectrum_samples(ref_model, [np.exp(1j * theta)])[0]
            assert_allclose(float(row[1]), phi[0, 0].real, atol=1e-12)


class TestExample:
    def test_runs_clean(self, runner):
        result = runner.invoke(main, ["example"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output
        out = result.output
        assert "negative definite" in out  # derived-sign note
        assert "checks passed" in out
