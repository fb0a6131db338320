"""The benchmark harness reaches into the library by name.

``bench/tracing.py`` wraps the functions its ``LAYERS`` table names and
``bench/workloads.py`` reads fields of ``ConjugatePhase``.  A refactor that
renames one of them breaks ``bench/run.py --trace 1`` while every library
test stays green; these tests fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import spectralfactors as sf

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _traced_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "layer,name",
    [(layer, name) for layer, names in _traced_layers().items()
     for name in names],
)
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"spectralfactors.{layer}")
    assert callable(getattr(module, name, None))


def test_conjugate_phase_has_the_fields_the_workloads_read(ref_cp):
    for attr in ("t", "gamma", "a_inv_t", "n_gamma", "n_a"):
        assert hasattr(ref_cp, attr), attr
    assert isinstance(ref_cp.extremals.w_bar_plus, sf.Realization)
