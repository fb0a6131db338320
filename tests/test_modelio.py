"""Model and divisor-spec file formats."""

import json

import numpy as np
import pytest

import spectralfactors as sf
from spectralfactors.matnum import _MAX_CIRCLE_SAMPLES
from spectralfactors.modelio import (
    ModelFileError,
    SpecFileError,
    expand_spec_entries,
    read_model,
    read_spec_entries,
    write_model,
)


class TestModelRoundTrip:
    def test_exact_roundtrip(self, tmp_path, ref_model):
        path = tmp_path / "model.json"
        write_model(path, ref_model, name="reference")
        doc = read_model(path)
        assert doc.name == "reference"
        for got, want in zip(
                (doc.realization.a, doc.realization.b, doc.realization.c,
                 doc.realization.d),
                (ref_model.a, ref_model.b, ref_model.c, ref_model.d)):
            assert np.array_equal(got, want)

    def test_rewrite_is_bit_identical(self, tmp_path, rng):
        r = sf.Realization(rng.normal(size=(3, 3)) * 0.1,
                           rng.normal(size=(3, 2)), rng.normal(size=(2, 3)),
                           rng.normal(size=(2, 2)))
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_model(p1, r, name="m")
        doc = read_model(p1)
        write_model(p2, doc.realization, name=doc.name)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tolerances_parsed(self, tmp_path, ref_model):
        path = tmp_path / "model.json"
        write_model(path, ref_model, name="m",
                    tolerances=sf.ToleranceConfig(residual_tol=1e-6))
        doc = read_model(path)
        assert doc.tolerances.residual_tol == 1e-6
        assert doc.tolerances.rank_rel_tol == 1e-9

    @pytest.mark.parametrize("doc", [
        "not json at all",
        json.dumps([1, 2, 3]),
        json.dumps({"name": "x", "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]}),
        json.dumps({"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": "oops"}),
        json.dumps({"A": [[0.5, 0.1]], "B": [[1.0]], "C": [[1.0]],
                    "D": [[1.0]]}),
        json.dumps({"A": [[0.5]], "B": [[1.0]], "C": [[1.0, 2.0]],
                    "D": [[1.0]]}),
    ])
    def test_parse_errors(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(ModelFileError):
            read_model(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"A": [[0.5]], "B": [[1.0]],
                                    "C": [[1.0]], "D": [[1e999]]}))
        with pytest.raises(ModelFileError):
            read_model(path)


class TestSpecFile:
    def write(self, tmp_path, payload):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(payload))
        return path

    def test_reads_entries(self, tmp_path):
        path = self.write(tmp_path, {"specs": [
            {"a_select": [0, 1]},
            {"gamma_select": [0], "a_basis": [[1.0], [0.0]]},
            {},
        ]})
        assert len(read_spec_entries(path)) == 3

    def test_bare_list_accepted(self, tmp_path):
        path = self.write(tmp_path, [{"a_select": [0, 1]}])
        assert len(read_spec_entries(path)) == 1

    @pytest.mark.parametrize("payload", [
        {"specs": "nope"},
        {"specs": [{"a_select": [0], "a_basis": [[1.0]]}]},
        {"specs": [{"bogus_key": 1}]},
        {"specs": [{"theta_grid": 0}]},
        {"specs": [42]},
    ])
    def test_structural_errors(self, tmp_path, payload):
        path = self.write(tmp_path, payload)
        with pytest.raises(SpecFileError):
            read_spec_entries(path)

    def test_theta_grid_at_the_ceiling_is_read(self, tmp_path):
        path = self.write(tmp_path, {"specs": [
            {"a_select": [0, 1], "theta_grid": _MAX_CIRCLE_SAMPLES}]})
        assert read_spec_entries(path)[0]["theta_grid"] == _MAX_CIRCLE_SAMPLES

    def test_theta_expansion(self, tmp_path, ref_cp):
        path = self.write(tmp_path, {"specs": [
            {"a_select": [0, 1], "theta_grid": 4},
        ]})
        specs = expand_spec_entries(read_spec_entries(path), ref_cp)
        assert len(specs) == 4
        for j, spec in enumerate(specs):
            assert spec.a_basis.shape == (2, 1)
            theta = np.pi * j / 4
            v = spec.a_basis[:, 0]
            target = np.array([np.cos(theta), np.sin(theta)])
            assert min(np.linalg.norm(v - target),
                       np.linalg.norm(v + target)) <= 1e-12

    def test_theta_needs_repeated_eigenspace(self, tmp_path, ref_cp):
        path = self.write(tmp_path, {"specs": [
            {"gamma_select": [0], "theta_grid": 4},
        ]})
        with pytest.raises(SpecFileError):
            expand_spec_entries(read_spec_entries(path), ref_cp)

    @pytest.mark.parametrize("select", [[0, 1, 7], [0]],
                             ids=["out-of-range", "split-cluster"])
    def test_theta_entry_follows_the_plain_entry_rules(self, ref_cp, select):
        with pytest.raises(sf.InvalidSubspace) as plain:
            sf.projector_from_spec(ref_cp, sf.SubspaceSpec(a_select=select))
        with pytest.raises(sf.InvalidSubspace) as theta:
            expand_spec_entries([{"a_select": select, "theta_grid": 2}],
                                 ref_cp)
        assert str(theta.value) == str(plain.value)

    def test_theta_entry_on_a_defective_cluster(self):
        # A^{-T} has the double eigenvalue 2 with one eigenvector.
        w = sf.Realization([[0.5, 1.0], [0.0, 0.5]], np.eye(2),
                           0.1 * np.eye(2), np.eye(2))
        cp = sf.conjugate_phase(w)
        assert [b.basis for b in cp.a_blocks] == [None]
        with pytest.raises(sf.InvalidSubspace, match="defective"):
            expand_spec_entries([{"a_select": [0, 1], "theta_grid": 2}], cp)

    def test_plain_entries_pass_through(self, ref_cp):
        specs = expand_spec_entries([{"a_select": [0, 1]}, {}], ref_cp)
        assert len(specs) == 2
        assert specs[0].a_select == (0, 1)
        assert specs[1].a_select == ()
