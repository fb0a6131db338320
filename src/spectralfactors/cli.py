"""Command-line front end.

Exit codes are uniform across commands: 0 success, 1 verification failure
(a candidate factor did not check out), 2 validation failure (the input
model is outside the supported class), 3 parse failure (a file could not be
read, or the command line could not be parsed).
"""

from __future__ import annotations

import csv
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .demo import run_demo
from .errors import SpectralFactorsError
from .factors import family_member, moebius_gate, verify_factor
from .matnum import _MAX_CIRCLE_SAMPLES, DEFAULT_TOL
from .modelio import (
    ModelFileError,
    SpecFileError,
    expand_spec_entries,
    read_model,
    read_spec_entries,
    write_model,
)
from .spectral import conjugate_phase, spectrum_samples
from .statespace import Realization, moebius

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_VALIDATION = 2
EXIT_PARSE = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_model(path):
    try:
        return read_model(path)
    except ModelFileError as exc:
        _fail(EXIT_PARSE, str(exc))


def _config_for(doc, tol, samples):
    config = doc.tolerances or DEFAULT_TOL
    try:
        if tol is not None:
            config = replace(config, residual_tol=tol)
        if samples is not None:
            config = replace(config, circle_samples=samples)
    except ValueError as exc:
        _fail(EXIT_PARSE, f"bad --tol/--samples value: {exc}")
    return config


def _parse_moebius(value):
    """--moebius alone picks the parameter; a given one must be in (-1, 1)."""
    if value is None:
        return None
    if value == "auto":
        return True
    try:
        a = float(value)
    except ValueError:
        _fail(EXIT_PARSE, f"--moebius expects a number, got {value!r}")
    if not abs(a) < 1.0:
        _fail(EXIT_PARSE, f"--moebius expects |a| < 1, got {value!r}")
    return a


class _MoebiusCommand(click.Command):
    """Command whose ``--moebius`` also takes a negative parameter, which
    click would read as the next option because the value is optional."""

    def parse_args(self, ctx, args):
        args, value, i = list(args), None, 0
        while i < len(args) and args[i] != "--":
            arg, nxt = args[i], args[i + 1] if i + 1 < len(args) else ""
            if arg.startswith("--moebius=-"):
                args[i], value = "--moebius", arg[len("--moebius="):]
            elif arg == "--moebius" and re.match(r"-[\d.]", nxt):
                value = args.pop(i + 1)
            i += 1
        rest = super().parse_args(ctx, args)
        if value is not None:
            ctx.params["moebius_value"] = value
        return rest


def _mat(m):
    return np.asarray(m).tolist()


def _realization_dict(r: Realization):
    return {"A": _mat(r.a), "B": _mat(r.b), "C": _mat(r.c), "D": _mat(r.d)}


def _block_table(blocks):
    return [{"kind": blk.kind, "indices": list(blk.indices),
             "eigenvalues": [[v.real, v.imag] for v in blk.eigenvalues]}
            for blk in blocks]


_tol_option = click.option("--tol", type=float, default=None,
                           help="Override the residual tolerance.")
_samples_option = click.option("--samples", type=int, default=None,
                               help="Override the number of circle samples.")
_moebius_option = click.option("--moebius", "moebius_value", is_flag=False,
                               flag_value="auto", default=None,
                               help="Preprocess through a Moebius change of "
                                    "variable (optionally give the parameter).")


def _usage_exits_parse(step, *args, **kwargs):
    """``step(*args, **kwargs)``; a click usage error it raises (an unknown
    option or command, a missing argument, a flag value of the wrong type)
    keeps its message but exits EXIT_PARSE, since click's code 2 is
    EXIT_VALIDATION here."""
    try:
        return step(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_PARSE
        raise


class _Group(click.Group):
    """Command group whose usage errors exit EXIT_PARSE, whether the group
    (in ``make_context``) or a command (in ``invoke``) parses them."""

    def make_context(self, info_name, args, parent=None, **extra):
        return _usage_exits_parse(super().make_context, info_name, args,
                                  parent, **extra)

    def invoke(self, ctx):
        return _usage_exits_parse(super().invoke, ctx)


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="spectralfactors")
def main():
    """Spectral factor families of discrete-time rational densities."""


@main.command(cls=_MoebiusCommand)
@click.argument("model_path", type=click.Path(exists=False))
@click.option("-o", "--output", "out_path", type=click.Path(), default=None,
              help="Write the JSON report here instead of stdout.")
@_tol_option
@_moebius_option
def analyze(model_path, out_path, tol, moebius_value):
    """Construct the extremal factors and the conjugate phase function."""
    doc = _load_model(model_path)
    config = _config_for(doc, tol, None)
    moebius_param = _parse_moebius(moebius_value)
    try:
        w_work, a = moebius_gate(doc.realization, moebius_param, config)
        cp = conjugate_phase(w_work, config)
    except SpectralFactorsError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    ext = cp.extremals
    report = {
        "model": doc.name,
        "moebius_a": a,
        "w_plus": _realization_dict(ext.w_plus),
        "w_bar_plus": _realization_dict(ext.w_bar_plus),
        "conjugate_phase": _realization_dict(cp.t),
        "x": _mat(ext.x),
        "y": _mat(ext.y),
        "z": _mat(ext.z),
        "p0_inv": _mat(cp.p0_inv),
        "gramian_residuals": cp.gramian.residuals(),
        "gramian_pass": cp.gramian.passed,
        "eigenvalues": {
            "gamma_blocks": _block_table(cp.gamma_blocks),
            "a_blocks": _block_table(cp.a_blocks),
        },
    }
    if a is not None:
        # Factors with a pole at -1/a in the working variable map back to a
        # pole at infinity: they exist only as improper functions of the
        # original variable and cannot be realized there.
        for key, system in (("w_plus_original_variable", ext.w_plus),
                            ("w_bar_plus_original_variable", ext.w_bar_plus)):
            try:
                report[key] = _realization_dict(moebius(system, -a, config))
            except SpectralFactorsError:
                report[key] = None
                report[key + "_note"] = (
                    "improper in the original variable (pole at infinity); "
                    "reported only in the transformed variable"
                )
    text = json.dumps(report, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
        click.echo(f"analysis written to {out_path}")
    else:
        click.echo(text)
    sys.exit(EXIT_OK)


@main.command(cls=_MoebiusCommand)
@click.argument("model_path", type=click.Path(exists=False))
@click.argument("specs_path", type=click.Path(exists=False))
@click.option("-d", "--outdir", type=click.Path(), default="factors",
              help="Directory for the emitted factor model files.")
@_tol_option
@_samples_option
@_moebius_option
def factors(model_path, specs_path, outdir, tol, samples, moebius_value):
    """Generate the spectral factors for a divisor specification file."""
    doc = _load_model(model_path)
    config = _config_for(doc, tol, samples)
    moebius_param = _parse_moebius(moebius_value)
    try:
        entries = read_spec_entries(specs_path)
    except SpecFileError as exc:
        _fail(EXIT_PARSE, str(exc))
    try:
        w_work, a = moebius_gate(doc.realization, moebius_param, config)
        cp = conjugate_phase(w_work, config)
        specs = expand_spec_entries(entries, cp)
    except SpecFileError as exc:
        _fail(EXIT_PARSE, str(exc))
    except SpectralFactorsError as exc:
        _fail(EXIT_VALIDATION, str(exc))

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    try:
        for i, spec in enumerate(specs):
            div, w, report = family_member(cp, spec, doc.realization, a,
                                           config)
            name = f"{doc.name}_factor_{i:03d}"
            write_model(out / f"factor_{i:03d}.json", w, name=name)
            pz = report.pole_zero.to_dict()
            rows.append({
                "factor": name,
                "file": f"factor_{i:03d}.json",
                "divisor_degree": div.degree,
                "subspace_dims": list(div.subspace_dims),
                "degree": report.degree,
                "poles": pz["poles"],
                "zeros": pz["zeros"],
                "spectrum_residual": report.spectrum_residual,
                "passed": report.passed,
            })
    except SpectralFactorsError as exc:
        _fail(EXIT_VALIDATION, str(exc))

    summary = {"model": doc.name, "moebius_a": a, "factors": rows}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                      encoding="utf-8")
    # family_member raises on a factor that fails its check, so every
    # written row has passed.
    click.echo(f"{'factor':<28}{'deg':>4}  {'residual':>10}  verdict")
    for row in rows:
        click.echo(f"{row['factor']:<28}{row['degree']:>4}  "
                   f"{row['spectrum_residual']:>10.2e}  pass")
    click.echo(f"{len(rows)} factors written to {out}")
    sys.exit(EXIT_OK)


@main.command()
@click.argument("model_path", type=click.Path(exists=False))
@click.argument("candidate_path", type=click.Path(exists=False))
@_tol_option
@_samples_option
def verify(model_path, candidate_path, tol, samples):
    """Verify a candidate factor against a model's spectral density."""
    doc = _load_model(model_path)
    cand = _load_model(candidate_path)
    config = _config_for(doc, tol, samples)
    try:
        report = verify_factor(cand.realization,
                               conjugate_phase(doc.realization, config))
    except SpectralFactorsError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    click.echo(str(report))
    sys.exit(EXIT_OK if report.passed else EXIT_VERIFY_FAIL)


@main.command()
@click.argument("model_path", type=click.Path(exists=False))
@click.option("-n", "--samples", "n_samples", type=int, default=None,
              help="Number of circle samples (rows).")
@click.option("-o", "--output", "csv_path", type=click.Path(), default=None,
              help="Write CSV here instead of stdout.")
def spectrum(model_path, n_samples, csv_path):
    """Emit plot-ready spectral density samples on the unit circle."""
    doc = _load_model(model_path)
    config = doc.tolerances or DEFAULT_TOL
    n = config.circle_samples if n_samples is None else n_samples
    if not 1 <= n <= _MAX_CIRCLE_SAMPLES:
        _fail(EXIT_PARSE, f"sample count must be positive and at most "
                          f"{_MAX_CIRCLE_SAMPLES}")
    w = doc.realization
    thetas = 2.0 * np.pi * np.arange(n) / n
    try:
        phi = spectrum_samples(w, np.exp(1j * thetas), config)
    except SpectralFactorsError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    m = w.n_out
    header = ["theta"]
    header += [f"phi_{i + 1}_{i + 1}" for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            header += [f"phi_{i + 1}_{j + 1}_re", f"phi_{i + 1}_{j + 1}_im"]

    def rows():
        for k in range(n):
            row = [f"{thetas[k]:.17g}"]
            row += [f"{phi[k, i, i].real:.17g}" for i in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    row += [f"{phi[k, i, j].real:.17g}",
                            f"{phi[k, i, j].imag:.17g}"]
            yield row

    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows())
        click.echo(f"{n} samples written to {csv_path}")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows())
    sys.exit(EXIT_OK)


@main.command()
def example():
    """Run the bundled worked example and print each golden comparison."""
    checks = run_demo()
    failed = 0
    for chk in checks:
        status = "PASS" if chk.passed else "FAIL"
        click.echo(f"[{status}] {chk.label}: residual {chk.residual:.3e} "
                   f"(tol {chk.tol:.1e})")
        if chk.note:
            click.echo(f"       note: {chk.note}")
        failed += not chk.passed
    click.echo(f"{len(checks) - failed}/{len(checks)} checks passed")
    sys.exit(EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL)


if __name__ == "__main__":
    main()
