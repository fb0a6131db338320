#!/usr/bin/env python3
"""Compare the divisors, factors and reports of two checkouts.

Usage: python tools/transfer_gap.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  Each one's library is
imported from ROOT/src in turn, and the models come from PARENT's
bench/workloads.py (read only).  It covers what ``tools/digest.py`` covers
of divisors and factors:

* every enumerated family (``roundtrip_round(7, 0..3)``, the reference
  model and ``identity(2)``): t_ell, the factor W- T_l, the right
  complement of each divisor and the divisor extracted back from the factor
  that ``minimal_factor`` returns (``extract_left_divisor`` with
  ``w_bar_plus``, which reads the factor's carried certificate);
* the session specs of ``seasonal_round(7, 0)`` and ``varma_round(7, 0)``,
  built once through ``projector_from_spec`` and ``divisor_from_projector``
  (keys ``.../projector``) and once through ``family_member`` (keys
  ``.../member``), with the same four parts;
* the Moebius-gated ``factor_family`` of the reference model for each
  parameter, and the spec file of ``cli factors`` (with and without
  ``--moebius``) for ``cli_inputs(1234, 0..1)``: each factor in the
  original variable, with its degree.

Each member also carries the ``FactorReport``s that ``tools/digest.py``
hashes: the factor's (``minimal_factor``), the extraction's with
``w_bar_plus`` and, without it, of a plain ``Realization`` copy of the
factor (which is inventoried and sampled again), and ``verify_factor``'s
for an enumerated or session divisor, the one ``factor_family`` or ``family_member`` returns for a
Moebius or CLI factor.  ``verify_factor(w, cp)`` folds the extraction into
its report; where a checkout's ``verify_factor`` still takes W- and a
config, the extraction is folded in here as that checkout's ``cli verify``
did, so both report the same thing.

It prints for every family the largest relative transfer gap of each part
between the two checkouts, and the largest relative change
|new - old| / |old| of each report's ``spectrum_residual`` and
``allpass_residual``; one line per member whose degree or
``subspace_dims`` changed, one per report whose ``passed`` or ``reasons``
changed, and any change of a family's size.  A gap is
max |G_change(z) - G_parent(z)| / max |G_parent(z)| over 64 points of the
unit circle, evaluated with numpy (``workloads.transfer``), not with either
library.  A typed failure that differs between the two, of a family, a
member, an extraction or a report, is printed with both messages.  The
last line holds the largest gaps and changes over all families.

Takes about 30 s on a 2-core machine.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import sys
import tempfile

import numpy as np

PARTS = ("t_ell", "factor", "right_complement", "extracted")
RESIDUALS = ("spectrum_residual", "allpass_residual")


def _load(root):
    """Import the library from ROOT/src, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "spectralfactors" or m.startswith("spectralfactors.")]:
        del sys.modules[name]
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        import spectralfactors as sf
        from spectralfactors.demo import reference_model
    finally:
        sys.path.pop(0)
    return sf, reference_model


def _abcd(r):
    return tuple(np.array(m, dtype=float) for m in (r.a, r.b, r.c, r.d))


def _attempt(sf, fn, *args, **kwargs):
    """``fn``'s result, or the text of its typed failure."""
    try:
        return fn(*args, **kwargs)
    except sf.SpectralFactorsError as exc:
        return f"{type(exc).__name__}: {exc}"


def _report(report):
    """The compared fields of a ``FactorReport``, or a typed failure."""
    if isinstance(report, str):
        return report
    return ({name: getattr(report, name) for name in RESIDUALS},
            report.passed, tuple(report.reasons))


def _verify(sf, w_fac, w, cp, config):
    """``verify_factor(w_fac, cp)``, or on a library whose ``verify_factor``
    takes (w, w_minus, config), its report with the extraction folded in."""
    if "cp" in inspect.signature(sf.verify_factor).parameters:
        return sf.verify_factor(w_fac, cp)
    report = sf.verify_factor(w_fac, w, config)
    if not report.passed:
        return report
    try:
        return sf.extract_left_divisor(w, w_fac, config,
                                       w_bar_plus=cp.extremals.w_bar_plus)[1]
    except (sf.NotAFactor, sf.NotMinimalFactor) as exc:
        return dataclasses.replace(report, passed=False, reasons=(
            *report.reasons, f"divisor extraction: {exc}"))


def _member(sf, w, cp, div, t_r, config):
    """(degree, dims, {part: (a, b, c, d) or typed failure}, {report name:
    report fields or typed failure}) of one divisor of the conjugate phase
    ``cp`` of ``w``."""
    factor = _attempt(sf, sf.minimal_factor, w, div, config)
    w_fac = div.factor if isinstance(factor, str) else factor[0]
    back = _attempt(sf, sf.extract_left_divisor, w, w_fac, config,
                    w_bar_plus=cp.extremals.w_bar_plus)
    rebuilt = _attempt(sf, sf.extract_left_divisor, w,
                       sf.Realization(w_fac.a, w_fac.b, w_fac.c, w_fac.d),
                       config)
    reports = {name: out if isinstance(out, str) else out[1]
               for name, out in (("factor", factor), ("extract.carried", back),
                                 ("extract.rebuilt", rebuilt))}
    reports["verify"] = _verify(sf, div.factor, w, cp, config)
    return (div.degree, tuple(div.subspace_dims),
            {"t_ell": _abcd(div.t_ell), "factor": _abcd(div.factor),
             "right_complement": _abcd(t_r),
             "extracted": back if isinstance(back, str) else _abcd(back[0])},
            {name: _report(r) for name, r in reports.items()})


def _session(sf, w, config):
    """The digest's session specs of ``w``, through the projector path and
    through ``family_member``: two keys' lists of members or failures."""
    cp = sf.conjugate_phase(w, config)
    g_blocks = sf.eigen_blocks(cp.gamma, config)
    a_blocks = sf.eigen_blocks(cp.a_inv_t, config)
    specs = [
        sf.SubspaceSpec(),
        sf.SubspaceSpec(gamma_select=range(cp.n_gamma)),
        sf.SubspaceSpec(a_select=range(cp.n_a)),
        sf.SubspaceSpec(gamma_select=g_blocks[0].indices,
                        a_select=a_blocks[0].indices),
    ]

    def projector_path(spec):
        pi = sf.projector_from_spec(cp, spec, config)
        return sf.divisor_from_projector(cp, pi, config)

    def member_path(spec):
        return sf.factors.family_member(cp, spec, w, None, config)[0]

    def built(make, spec):
        div = _attempt(sf, make, spec)
        if isinstance(div, str):
            return div
        t_r = _attempt(sf, sf.right_complement, cp, div, config)
        return (t_r if isinstance(t_r, str)
                else _member(sf, w, cp, div, t_r, config))

    return ([built(projector_path, spec) for spec in specs],
            [built(member_path, spec) for spec in specs])


def _moebius(sf, ref, config):
    """The digest's Moebius-gated ``factor_family`` of the reference model,
    one key per parameter."""
    specs = [sf.SubspaceSpec(), sf.SubspaceSpec(gamma_select=(0,)),
             sf.SubspaceSpec(a_select=(0, 1)),
             sf.SubspaceSpec(gamma_select=(1,), a_basis=np.eye(2)[:, :1]),
             sf.SubspaceSpec(gamma_select=(0, 1), a_basis=[[0.6], [0.8]])]
    out = {}
    for param in (True, 0.3, -0.45):
        pairs = _attempt(sf, sf.factor_family, ref, specs, config,
                         moebius_param=param)
        out[f"moebius/{param}"] = pairs if isinstance(pairs, str) else [
            (report.degree, (), {"factor": _abcd(w)},
             {"factor": _report(report)}) for w, report in pairs]
    return out


def _cli(sf, wl):
    """The factors that ``cli factors`` writes for the benchmark's CLI
    inputs, ungated (``cli/INDEX/fam``) and gated (``cli/INDEX/fam_m``)."""
    family_member, modelio = sf.factors.family_member, sf.modelio
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for index in range(2):
            _, files = wl.cli_inputs(1234, index, work)
            doc = modelio.read_model(files["model"])
            config = doc.tolerances or sf.DEFAULT_TOL
            entries = modelio.read_spec_entries(files["specs"])
            for tag, param in (("fam", None), ("fam_m", True)):
                w, a = sf.factors.moebius_gate(doc.realization, param, config)
                cp = sf.conjugate_phase(w, config)
                specs = modelio.expand_spec_entries(entries, cp)
                members = [family_member(cp, spec, doc.realization, a, config)
                           for spec in specs]
                out[f"cli/{index}/{tag}"] = [
                    (report.degree, tuple(div.subspace_dims),
                     {"factor": _abcd(factor)}, {"factor": _report(report)})
                    for div, factor, report in members]
    return out


def _families(root, wl):
    """Key -> list of members (degree, dims, {part: (a, b, c, d)}, {report
    name: fields}) or typed failures, or the text of a typed failure of the
    whole family, for every family of one checkout."""
    sf, reference_model = _load(root)
    roundtrip_cfg = sf.ToleranceConfig(circle_samples=64, residual_tol=1e-7)
    models = [(f"roundtrip/{index}/{slot}", sf.Realization(*abcd),
               roundtrip_cfg)
              for index in range(4)
              for slot, abcd in enumerate(wl.roundtrip_round(7, index))]
    models += [("reference", reference_model(), sf.DEFAULT_TOL),
               ("identity2", sf.identity(2), sf.DEFAULT_TOL)]
    out = {}
    for key, w, config in models:
        try:
            cp = sf.conjugate_phase(w, config)
            divs = sf.enumerate_divisors(cp, config)
        except sf.SpectralFactorsError as exc:
            out[key] = f"{type(exc).__name__}: {exc}"
            continue
        out[key] = [_member(sf, w, cp, div, div.right_complement, config)
                    for div in divs]
    for name, models in (("seasonal", wl.seasonal_round(7, 0)),
                         ("varma", wl.varma_round(7, 0))):
        for slot, abcd in enumerate(models):
            key = f"{name}/{slot}"
            paths = _attempt(sf, _session, sf, sf.Realization(*abcd),
                             sf.DEFAULT_TOL)
            if isinstance(paths, str):
                out[key] = paths
                continue
            out[key + "/projector"], out[key + "/member"] = paths
    out.update(_moebius(sf, reference_model(), sf.DEFAULT_TOL))
    out.update(_cli(sf, wl))
    return out


def _gap(parent, change, zs, transfer):
    ref = transfer(*parent, zs)
    return float(np.max(np.abs(transfer(*change, zs) - ref))
                 / max(float(np.max(np.abs(ref))), np.finfo(float).tiny))


def _change(old, new):
    """Relative change |new - old| / |old| of a report residual; 0 when the
    two are equal (both inf or both None included)."""
    if old == new:
        return 0.0
    if old is None or new is None or old == 0:
        return float("inf")
    return abs(new - old) / abs(old)


def _compare_reports(name, old, new, worst):
    """Fold one report's residual changes into ``worst``; print the report
    when its failure, ``passed`` or ``reasons`` differ."""
    if isinstance(old, str) or isinstance(new, str):
        if old != new:
            print(f"{name} failure: parent {old!r}, change {new!r}")
        return
    for r in RESIDUALS:
        worst[r] = max(worst[r], _change(old[0][r], new[0][r]))
    if old[1:] != new[1:]:
        print(f"{name} passed {old[1]} -> {new[1]}, reasons "
              f"{list(old[2])} -> {list(new[2])}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent_root, change_root = (os.path.abspath(p) for p in sys.argv[1:])
    sys.path.insert(0, os.path.join(parent_root, "bench"))
    import workloads as wl

    zs = np.exp(1j * (0.1234567 + 2.0 * np.pi * np.arange(64) / 64))
    parent = _families(parent_root, wl)
    change = _families(change_root, wl)
    overall = dict.fromkeys(PARTS + RESIDUALS, 0.0)
    for key in dict.fromkeys([*parent, *change]):
        old, new = parent.get(key, "absent"), change.get(key, "absent")
        if isinstance(old, str) or isinstance(new, str):
            if old != new:
                print(f"{key} failure: parent {old!r}, change {new!r}")
            continue
        if len(old) != len(new):
            print(f"{key} size {len(old)} -> {len(new)}")
        worst = dict.fromkeys(PARTS + RESIDUALS, 0.0)
        for i, (m0, m1) in enumerate(zip(old, new)):
            if isinstance(m0, str) or isinstance(m1, str):
                if m0 != m1:
                    print(f"{key}/{i:02d} failure: parent {m0!r}, "
                          f"change {m1!r}")
                continue
            if m0[:2] != m1[:2]:
                print(f"{key}/{i:02d} degree {m0[0]} -> {m1[0]}, "
                      f"subspace_dims {m0[1]} -> {m1[1]}")
                continue
            for p in m0[2]:
                old_p, new_p = m0[2][p], m1[2][p]
                if isinstance(old_p, str) or isinstance(new_p, str):
                    if old_p != new_p:
                        print(f"{key}/{i:02d} {p} failure: parent "
                              f"{old_p!r}, change {new_p!r}")
                    continue
                worst[p] = max(worst[p], _gap(old_p, new_p, zs, wl.transfer))
            for name in m0[3]:
                _compare_reports(f"{key}/{i:02d} {name} report", m0[3][name],
                                 m1[3][name], worst)
        print(key, " ".join(f"{p} {worst[p]:.2e}" for p in worst))
        for p in overall:
            overall[p] = max(overall[p], worst[p])
    print("max", " ".join(f"{p} {overall[p]:.2e}" for p in overall))


if __name__ == "__main__":
    main()
