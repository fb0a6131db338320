"""Span tracer that wraps the library's public functions from outside.

``from .statespace import minimal`` binds the name once per importing
module, so a function is replaced in every ``spectralfactors`` module
namespace that holds it, not only in its home module.  Spans stay in memory
as ``[id, parent, name, start, end, dim, extra]`` lists and are written out
once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "spectralfactors"

# Traced public functions, by home module.
LAYERS = {
    "matnum": ("solve_stein", "eigen_blocks", "sym_sqrt", "pseudo_inverse"),
    "statespace": ("minimal", "evalfr_many", "series", "inverse",
                   "mcmillan_degree", "poles_zeros", "moebius"),
    "spectral": ("validate_outer", "extremal_set", "conjugate_phase",
                 "check_gramian_identities", "allpass_residual",
                 "spectrum_samples"),
    "divisors": ("enumerate_divisors", "divisor_from_projector",
                 "right_complement", "projector_from_spec"),
    "factors": ("minimal_factor", "verify_factor", "extract_left_divisor",
                "factor_family"),
    "modelio": ("read_model", "write_model"),
}

# Self time of these is also split by the state dimension of the call.
DIM_BUCKETS = ((1, 4), (5, 8), (9, 16), (17, 32), (33, 10**9))
SPLIT = ("matnum.solve_stein", "statespace.minimal")


def bucket_name(lo, hi):
    return f"n{lo:02d}-{hi:02d}" if hi < 10**9 else f"n{lo:02d}-up"


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every name."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fn_name in names:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, orig))
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                    _dim(name, args), None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            span[6] = _extra(name, args, out)
            return out

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _dim(name, args):
    if not args:
        return None
    if name == "matnum.solve_stein":
        return int(args[0].shape[0])
    first = args[0]
    return int(first.n) if hasattr(first, "n") else None


def _extra(name, args, out):
    if name == "statespace.minimal":
        return int(out.n < args[0].n)
    if name == "statespace.evalfr_many":
        return int(len(out))
    return None


def layer_metrics(spans):
    """Per-layer metrics from a span list (ids are list positions)."""
    child = [0.0] * len(spans)
    for sid, parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for layer, names in LAYERS.items():
        for fn in names:
            out[f"{layer}.{fn}.calls"] = 0
            out[f"{layer}.{fn}.self_s"] = 0.0
    for name in SPLIT:
        for lo, hi in DIM_BUCKETS:
            out[f"{name}.self_s.{bucket_name(lo, hi)}"] = 0.0
    reduced = points = 0
    for sid, _, name, t0, t1, dim, extra in spans:
        self_s = (t1 - t0) - child[sid]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        if name in SPLIT and dim:
            for lo, hi in DIM_BUCKETS:
                if lo <= dim <= hi:
                    out[f"{name}.self_s.{bucket_name(lo, hi)}"] += self_s
        if name == "statespace.minimal":
            reduced += extra or 0
        elif name == "statespace.evalfr_many":
            points += extra or 0
    calls = out["statespace.minimal.calls"]
    divisors = out["divisors.divisor_from_projector.calls"]
    out["statespace.minimal.reduced_share"] = reduced / calls if calls else 0.0
    out["statespace.minimal.calls_per_divisor"] = calls / divisors if divisors else 0.0
    out["statespace.evalfr_many.points"] = points
    return out


def merge_spans(span_lists):
    """Concatenate span lists from separate processes, renumbering ids."""
    merged = []
    for spans in span_lists:
        base = len(merged)
        for sid, parent, *rest in spans:
            merged.append([sid + base, parent + base if parent >= 0 else -1, *rest])
    return merged
