#!/usr/bin/env python3
"""Compare the enumerated divisor families of two checkouts by transfer.

Usage: python tools/transfer_gap.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  Each one's library is
imported from ROOT/src in turn, and the models come from PARENT's
bench/workloads.py (read only).  Over the families that ``tools/digest.py``
enumerates (``roundtrip_round(7, 0..3)``, the reference model and
``identity(2)``), it prints for every family the largest relative transfer
gap of t_ell, the factor W- T_l and the right complement between the two
checkouts, one line per divisor whose degree or ``subspace_dims`` changed,
and any change of a family's divisor count.  A gap is
max |G_change(z) - G_parent(z)| / max |G_parent(z)| over 64 points of the
unit circle, evaluated with numpy (``workloads.transfer``), not with either
library.  A typed failure that differs between the two is printed with both
messages.  The last line holds the largest gaps over all families.

Takes about 5 s on a 2-core machine.
"""

from __future__ import annotations

import os
import sys

import numpy as np

PARTS = ("t_ell", "factor", "right_complement")


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


def _families(root, wl):
    """Key -> list of (degree, dims, {part: (a, b, c, d)}), or the text of a
    typed failure, for every enumerated family of one checkout."""
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
            divs = sf.enumerate_divisors(sf.conjugate_phase(w, config),
                                         config)
        except sf.SpectralFactorsError as exc:
            out[key] = f"{type(exc).__name__}: {exc}"
            continue
        out[key] = [(div.degree, tuple(div.subspace_dims),
                     {p: _abcd(getattr(div, p)) for p in PARTS})
                    for div in divs]
    return out


def _abcd(r):
    return tuple(np.array(m, dtype=float) for m in (r.a, r.b, r.c, r.d))


def _gap(parent, change, zs, transfer):
    ref = transfer(*parent, zs)
    return float(np.max(np.abs(transfer(*change, zs) - ref))
                 / max(float(np.max(np.abs(ref))), np.finfo(float).tiny))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent_root, change_root = (os.path.abspath(p) for p in sys.argv[1:])
    sys.path.insert(0, os.path.join(parent_root, "bench"))
    import workloads as wl

    zs = np.exp(1j * (0.1234567 + 2.0 * np.pi * np.arange(64) / 64))
    parent = _families(parent_root, wl)
    change = _families(change_root, wl)
    overall = dict.fromkeys(PARTS, 0.0)
    for key in parent:
        old, new = parent[key], change[key]
        if isinstance(old, str) or isinstance(new, str):
            if old != new:
                print(f"{key} failure: parent {old!r}, change {new!r}")
            continue
        if len(old) != len(new):
            print(f"{key} divisor count {len(old)} -> {len(new)}")
        worst = dict.fromkeys(PARTS, 0.0)
        for i, ((d0, s0, m0), (d1, s1, m1)) in enumerate(zip(old, new)):
            if (d0, s0) != (d1, s1):
                print(f"{key}/{i:02d} degree {d0} -> {d1}, "
                      f"subspace_dims {s0} -> {s1}")
                continue
            for p in PARTS:
                worst[p] = max(worst[p], _gap(m0[p], m1[p], zs, wl.transfer))
        print(key, " ".join(f"{p} {worst[p]:.2e}" for p in PARTS))
        for p in PARTS:
            overall[p] = max(overall[p], worst[p])
    print("max", " ".join(f"{p} {overall[p]:.2e}" for p in PARTS))


if __name__ == "__main__":
    main()
