#!/usr/bin/env python3
"""Print one sha256 per library and CLI output over fixed inputs.

Usage: python tools/digest.py ROOT > digests.txt

ROOT is a checkout of this repository: the library is imported from
ROOT/src and the models come from ROOT/bench/workloads.py (read only).  Two
checkouts print the same file iff every output below is bit-identical, so a
change meant to leave the numbers alone is checked with

    python tools/digest.py /path/to/parent > parent.txt
    python tools/digest.py .               > change.txt
    cmp parent.txt change.txt

Across a change of the library's API, the tool of one checkout may not run
on the other.  Then run each checkout's own tool on its own checkout and
diff the outputs:

    python /path/to/parent/tools/digest.py /path/to/parent > parent.txt
    python tools/digest.py .                               > change.txt
    diff parent.txt change.txt

Each line is ``<key> <sha256>``; a typed failure prints
``<key> error:<Type> <sha256 of type and message>``, and the failures are
repeated in clear at the end.  Covered:

* conjugate phase (every field, W-'s density, which it computes on first
  read, the extremal set and the Gramian check),
  every divisor (t_ell, basis, degree, dims, right complement), its
  factor and report, its extraction and a ``verify_factor`` report (with
  the extraction folded in), over
  ``roundtrip_round(7, 0..3)``, the reference model and ``identity(2)``.
  The extraction runs twice: with ``w_bar_plus`` on the factor that
  ``minimal_factor`` returns, whose carried certificate it reads
  (``extract.carried``), and without it on a plain ``Realization`` copy of
  the factor, which it inventories and samples again (``extract.rebuilt``);
* the session specs of ``session_op`` over ``seasonal_round(7, 0)`` and
  ``varma_round(7, 0)``;
* the Moebius-gated family of the reference model (the working W- and
  parameter of its conjugate phase, and ``family_member`` of each spec),
  and a few deliberately bad inputs, among them the non-minimal candidate
  W- z^{-1} I;
* the kinds, dims and bases of ``eigen_blocks`` of fixed matrices with
  repeated eigenvalues: Jordan, semisimple and chained clusters;
* exit code, stdout, stderr and written files of every command of
  ``cli_mix`` for ``cli_inputs(1234, 0..1)``, each in a fresh interpreter.

Takes about 40 s on a 2-core machine.

Where a change moves these numbers on purpose, ``tools/transfer_gap.py
PARENT CHANGE`` shows by how much: the largest relative transfer gap of
every divisor, factor, right complement and extracted divisor of the
enumerated families and of the session specs (through
``projector_from_spec`` and through ``family_member``), and of every
factor of the Moebius-gated ``factor_family`` and of ``cli factors``,
with any change of degree or subspace dimensions; and the largest
relative change of the residuals of their reports, with any change of a
report's ``passed`` or ``reasons``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np
from scipy.linalg import block_diag

ROOT = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
SRC, BENCH = os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")
sys.path[:0] = [SRC, BENCH]

import spectralfactors as sf  # noqa: E402
import workloads as wl  # noqa: E402
from spectralfactors.demo import reference_model  # noqa: E402
from spectralfactors.factors import family_member  # noqa: E402
from spectralfactors.matnum import orth_basis  # noqa: E402

ROUNDTRIP_CFG = sf.ToleranceConfig(circle_samples=64, residual_tol=1e-7)
DIVISOR_FIELDS = ("t_ell", "basis", "degree", "subspace_dims",
                  "right_complement")
FAILURES = []


def _feed(h, x):
    if isinstance(x, sf.Realization):
        h.update(b"R")
        for m in (x.a, x.b, x.c, x.d):
            _feed(h, m)
    elif isinstance(x, np.ndarray):
        h.update(f"A{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            h.update(f.name.encode())
            _feed(h, getattr(x, f.name))
    elif isinstance(x, (list, tuple)):
        h.update(f"L{len(x)}".encode())
        for item in x:
            _feed(h, item)
    else:
        h.update(f"{type(x).__name__}:{x!r}".encode())


def emit(key, obj):
    h = hashlib.sha256()
    _feed(h, obj)
    print(key, h.hexdigest())


def emit_fields(key, record, names=None):
    """One line per field of a dataclass record."""
    for name in names or [f.name for f in dataclasses.fields(record)]:
        emit(f"{key}.{name}", getattr(record, name))


def attempt(key, fn, *args, **kwargs):
    """Call ``fn``; a typed failure is printed and returns None."""
    try:
        return fn(*args, **kwargs)
    except sf.SpectralFactorsError as exc:
        text = f"{type(exc).__name__}: {exc}"
        h = hashlib.sha256(text.encode()).hexdigest()
        print(key, f"error:{type(exc).__name__}", h)
        FAILURES.append(f"{key} {text}")
        return None


def conjugate_phase(key, w, config):
    cp = attempt(f"{key}/cp", sf.conjugate_phase, w, config)
    if cp is not None:
        names = [f.name for f in dataclasses.fields(cp)]
        names.insert(names.index("config"), "w_minus_density")
        emit_fields(f"{key}/cp", cp, names)
        emit_fields(f"{key}/cp.extremals", cp.extremals)
    return cp


def factor_and_extraction(key, w, cp, div, config):
    emit_fields(f"{key}/div", div, DIVISOR_FIELDS)
    out = attempt(f"{key}/factor", sf.minimal_factor, w, div, config)
    if out is None:
        return
    w_fac, report = out
    emit(f"{key}/factor", w_fac)
    emit(f"{key}/factor.report", report)
    emit(f"{key}/verify", sf.verify_factor(w_fac, cp))
    plain = sf.Realization(w_fac.a, w_fac.b, w_fac.c, w_fac.d)
    for tag, cand, extra in (
            ("carried", w_fac, {"w_bar_plus": cp.extremals.w_bar_plus}),
            ("rebuilt", plain, {})):
        back = attempt(f"{key}/extract.{tag}", sf.extract_left_divisor,
                       w, cand, config, **extra)
        if back is not None:
            emit(f"{key}/extract.{tag}", back[0])
            emit(f"{key}/extract.{tag}.report", back[1])


def family(key, w, config):
    """Every enumerated divisor, its factor and its extraction."""
    cp = conjugate_phase(key, w, config)
    if cp is None:
        return
    divs = attempt(f"{key}/enumerate", sf.enumerate_divisors, cp, config)
    if divs is None:
        return
    emit(f"{key}/continua", divs.continua)
    for i, div in enumerate(divs):
        factor_and_extraction(f"{key}/{i:02d}", w, cp, div, config)


def session(key, w, config):
    """The spec set of the benchmark's analyze-and-factor session."""
    emit(f"{key}/w_inv", attempt(f"{key}/validate", sf.validate_outer, w,
                                 config))
    cp = conjugate_phase(key, w, config)
    if cp is None:
        return
    g_blocks = sf.eigen_blocks(cp.gamma, config)
    a_blocks = sf.eigen_blocks(cp.a_inv_t, config)
    emit(f"{key}/blocks", [g_blocks, a_blocks])
    specs = [
        sf.SubspaceSpec(),
        sf.SubspaceSpec(gamma_select=range(cp.n_gamma)),
        sf.SubspaceSpec(a_select=range(cp.n_a)),
        sf.SubspaceSpec(gamma_select=g_blocks[0].indices,
                        a_select=a_blocks[0].indices),
    ]
    for i, spec in enumerate(specs):
        k = f"{key}/{i}"
        pi = attempt(k + "/projector", sf.projector_from_spec, cp, spec,
                     config)
        div = None if pi is None else attempt(
            k + "/div", sf.divisor_from_projector, cp, pi, config)
        if div is None:
            continue
        t_r = attempt(k + "/complement", sf.right_complement, cp, div, config)
        factor_and_extraction(k, w, cp, dataclasses.replace(
            div, right_complement=t_r), config)


def bad_inputs(ref, config):
    """Typed failures and their messages."""
    cp = sf.conjugate_phase(ref, config)
    n2 = cp.t.n
    tilted = np.zeros((n2, 1))
    tilted[0, 0], tilted[-1, 0] = 1.0, 1.0
    tilted = orth_basis(tilted, config)
    cases = {
        "not_projector": lambda: sf.divisor_from_projector(
            cp, 2.0 * np.eye(n2), config),
        "not_invariant": lambda: sf.divisor_from_projector(
            cp, tilted @ tilted.T, config),
        "wrong_shape": lambda: sf.divisor_from_projector(
            cp, np.eye(3), config),
        "bad_select": lambda: sf.projector_from_spec(
            cp, sf.SubspaceSpec(a_select=(7,)), config),
        "part_of_repeated": lambda: sf.projector_from_spec(
            cp, sf.SubspaceSpec(a_select=(1,)), config),
        "bad_basis": lambda: sf.projector_from_spec(
            cp, sf.SubspaceSpec(gamma_basis=[[1.0], [1.0]]), config),
        "not_a_factor": lambda: sf.extract_left_divisor(
            ref, sf.Realization(ref.a, ref.b, 1.5 * ref.c, 1.5 * ref.d),
            config),
        "delayed_candidate": lambda: sf.extract_left_divisor(
            ref, sf.series(ref, sf.Realization(np.zeros((2, 2)), np.eye(2),
                                               np.eye(2), np.zeros((2, 2)))),
            config),
        "not_outer": lambda: sf.conjugate_phase(
            sf.Realization([[1.5]], [[1.0]], [[1.0]], [[1.0]]), config),
        "moebius_out_of_range": lambda: sf.factor_family(
            ref, [sf.SubspaceSpec()], config, moebius_param=1.5),
    }
    for name, fn in cases.items():
        emit(f"bad/{name}", attempt(f"bad/{name}", fn))
    emit("bad/verify_width", sf.verify_factor(sf.identity(1), cp))


def eigen_structure(config):
    """One key per matrix: kind, dim and basis of each eigenvalue block."""
    def rot(re, im):
        return np.array([[re, -im], [im, re]])

    def similar(d, seed=0):
        s = np.random.default_rng(seed).standard_normal(np.shape(d))
        return s @ d @ np.linalg.inv(s)

    jordan = np.diag([0.7, 0.7, 0.2, -0.4])
    jordan[0, 1] = 1.0
    cases = {
        "jordan-a_inv_t": [[2.0, 0.0], [-4.0, 2.0]],
        "jordan-pair": np.block([[rot(0.5, 0.4), np.eye(2)],
                                 [np.zeros((2, 2)), rot(0.5, 0.4)]]),
        "jordan-similar": similar(jordan, 1),
        "coupled-1e-8": [[0.5, 1e-8], [0.0, 0.5]],
        "coupled-1e-11": [[0.5, 1e-11], [0.0, 0.5]],
        "triple-real": similar(np.diag([0.3, 0.3, 0.3, 0.9, -0.2, 0.5])),
        "double-pair": similar(block_diag(rot(0.4, 0.3), rot(0.4, 0.3),
                                          0.7, -0.1)),
        "2I": 2.0 * np.eye(2),
        "chained-real": np.diag(0.5 + 0.8e-7 * np.arange(5)),
        "chained-pairs": block_diag(*[rot(0.5 + 0.8e-7 * j, 0.3)
                                      for j in range(5)]),
    }
    for name, m in cases.items():
        emit(f"eigen/{name}", [(b.kind, b.dim, b.basis)
                               for b in sf.eigen_blocks(m, config)])


def moebius_family(ref, config):
    specs = [sf.SubspaceSpec(), sf.SubspaceSpec(gamma_select=(0,)),
             sf.SubspaceSpec(a_select=(0, 1)),
             sf.SubspaceSpec(gamma_select=(1,), a_basis=np.eye(2)[:, :1]),
             sf.SubspaceSpec(gamma_select=(0, 1), a_basis=[[0.6], [0.8]])]
    for param in (True, 0.3, -0.45):
        key = f"moebius/{param}"
        cp = attempt(key + "/gate", sf.conjugate_phase, ref, config, param)
        emit(key + "/gate", cp and (cp.extremals.w_minus, cp.moebius_a))
        members = cp and attempt(
            key, lambda: [family_member(cp, spec)[1:] for spec in specs])
        for i, (w, report) in enumerate(members or []):
            emit(f"{key}/{i}", w)
            emit(f"{key}/{i}.report", report)


def cli(seed, index):
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        os.chdir(work)
        try:
            _, files = wl.cli_inputs(seed, index, ".")
        finally:
            os.chdir(here)
        for label, argv, _ in wl.cli_mix(files, "."):
            proc = subprocess.run(
                [sys.executable, "-m", "spectralfactors.cli", *argv],
                cwd=work, env=env, capture_output=True, timeout=300)
            key = f"cli/{seed}/{index}/{label}"
            emit(key + ".exit", proc.returncode)
            emit(key + ".stdout", proc.stdout)
            emit(key + ".stderr", proc.stderr)
        for top, dirs, names in os.walk(work):
            dirs.sort()
            for name in sorted(names):
                path = os.path.join(top, name)
                with open(path, "rb") as fh:
                    emit(f"cli/{seed}/{index}/file/"
                         f"{os.path.relpath(path, work)}", fh.read())


def main():
    for index in range(4):
        for slot, abcd in enumerate(wl.roundtrip_round(7, index)):
            family(f"roundtrip/{index}/{slot}", sf.Realization(*abcd),
                   ROUNDTRIP_CFG)
    ref = reference_model()
    family("reference", ref, sf.DEFAULT_TOL)
    family("identity2", sf.identity(2), sf.DEFAULT_TOL)
    for name, models in (("seasonal", wl.seasonal_round(7, 0)),
                         ("varma", wl.varma_round(7, 0))):
        for slot, abcd in enumerate(models):
            session(f"{name}/{slot}", sf.Realization(*abcd), sf.DEFAULT_TOL)
    moebius_family(ref, sf.DEFAULT_TOL)
    bad_inputs(ref, sf.DEFAULT_TOL)
    eigen_structure(sf.DEFAULT_TOL)
    for index in range(2):
        cli(1234, index)
    for line in FAILURES:
        print("failure", line)


if __name__ == "__main__":
    main()
