"""The benchmark harness reaches into the library by name.

``bench/tracing.py`` wraps the functions its ``LAYERS`` table names and
``bench/workloads.py`` reads fields of ``ConjugatePhase`` and calls the
library's public functions.  A refactor that renames one of them or changes
a signature they use breaks ``bench/run.py`` while every library test stays
green; these tests fail instead.  They only read ``bench/``.
"""

import importlib
import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner

import spectralfactors as sf
from spectralfactors.cli import main

from helpers import bench_workloads

BENCH = Path(__file__).resolve().parents[1] / "bench"
LIBRARY_WORKLOADS = ("roundtrip-small", "seasonal-large", "varma-wide")


def _bench_module(name):
    """``bench/<name>.py`` as a module; the environment it sets on import
    (one BLAS thread for the benchmark's children) is restored."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "layer,name",
    [(layer, name) for layer, names in _bench_module("tracing").LAYERS.items()
     for name in names],
)
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"spectralfactors.{layer}")
    assert callable(getattr(module, name, None))


def test_conjugate_phase_has_the_fields_the_workloads_read(ref_cp):
    for attr in ("t", "gamma", "a_inv_t", "n_gamma", "n_a"):
        assert hasattr(ref_cp, attr), attr
    assert isinstance(ref_cp.extremals.w_bar_plus, sf.Realization)


@pytest.mark.parametrize("workload", LIBRARY_WORKLOADS)
def test_library_op_passes_the_bench_checks(workload):
    wl = bench_workloads()
    config = _bench_module("run")._config(sf, workload)
    abcd = wl.warmup_model(workload)
    w = sf.Realization(*abcd)
    op = wl.roundtrip_op if workload == "roundtrip-small" else wl.session_op
    cp, results, reasons = op(sf, w, config)
    _, more = wl.check_family(abcd, w.n, cp, results, config.residual_tol,
                              additivity=workload == "roundtrip-small")
    assert results and reasons + more == []


def test_cli_mix_passes_the_bench_checks(tmp_path):
    wl = bench_workloads()
    work = str(tmp_path)
    w, files = wl.cli_inputs(1234, 0, work)
    for label, argv, expected in wl.cli_mix(files, work):
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == expected, (label, result.output)
        _, _, reasons = wl.check_cli(label, result.stdout, w, work)
        assert reasons == [], label
