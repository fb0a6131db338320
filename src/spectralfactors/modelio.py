"""Model and divisor-specification files.

Models travel as plain JSON documents with nested arrays (row-major); the
matrices are desk scale, so diffability beats compactness.  Floats are
serialized with Python's shortest round-trip representation, which restores
the exact double on read; rewriting a canonically formatted file is
bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .divisors import SubspaceSpec, _selection_of, continuum_angle_basis
from .matnum import (_MAX_CIRCLE_SAMPLES, ToleranceConfig, _as_matrix,
                     _selected_blocks)
from .statespace import Realization

__all__ = [
    "ModelFileError",
    "SpecFileError",
    "ModelDocument",
    "read_model",
    "write_model",
    "read_spec_entries",
    "expand_spec_entries",
]


_SPEC_KEYS = ("gamma_select", "gamma_basis", "a_select", "a_basis")


class ModelFileError(ValueError):
    """The model file cannot be parsed into a realization."""


class SpecFileError(ValueError):
    """The divisor specification file is malformed."""


@dataclass(frozen=True)
class ModelDocument:
    name: str
    realization: Realization
    tolerances: ToleranceConfig | None


def _matrix(doc, key):
    if key not in doc:
        raise ModelFileError(f"missing matrix {key!r}")
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"matrix {key!r} is not numeric") from exc
    if arr.size == 0:
        return arr.reshape((0, arr.shape[-1]) if arr.ndim == 2 else (0, 0))
    if arr.ndim != 2:
        raise ModelFileError(f"matrix {key!r} must be a nested array")
    if not np.all(np.isfinite(arr)):
        raise ModelFileError(f"matrix {key!r} contains non-finite entries")
    return arr


def read_model(path) -> ModelDocument:
    """Read a model file.  Raises ModelFileError on any structural problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFileError("model file must be a JSON object")
    name = str(doc.get("name", "model"))
    mats = {k: _matrix(doc, k) for k in ("A", "B", "C", "D")}
    try:
        realization = Realization(mats["A"], mats["B"], mats["C"], mats["D"])
    except Exception as exc:
        raise ModelFileError(f"inconsistent matrix dimensions: {exc}") from exc
    tolerances = None
    if "tolerances" in doc:
        t = doc["tolerances"]
        if not isinstance(t, dict):
            raise ModelFileError("tolerances must be an object")
        given = {f.name: t[f.name] for f in fields(ToleranceConfig)
                 if f.name in t}
        try:
            tolerances = ToleranceConfig(**given)
        except (OverflowError, ValueError) as exc:
            raise ModelFileError(f"bad tolerances: {exc}") from exc
    return ModelDocument(name=name, realization=realization,
                         tolerances=tolerances)


def write_model(path, realization: Realization, name: str = "model",
                tolerances: ToleranceConfig | None = None) -> None:
    """Write a model file in canonical form (fixed key order, two-space
    indent, LF endings, shortest round-trip floats)."""
    doc = {
        "name": name,
        "A": realization.a.tolist(),
        "B": realization.b.tolist(),
        "C": realization.c.tolist(),
        "D": realization.d.tolist(),
    }
    if tolerances is not None:
        doc["tolerances"] = {
            "rank_rel_tol": tolerances.rank_rel_tol,
            "residual_tol": tolerances.residual_tol,
            "circle_samples": tolerances.circle_samples,
        }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_spec_entries(path) -> list[dict]:
    """Read the raw entries of a divisor specification file.

    The file is a JSON object with a ``specs`` list; each entry gives, per
    block, exactly one of ``gamma_select``/``gamma_basis`` and one of
    ``a_select``/``a_basis`` (missing means empty selection), plus an
    optional ``theta_grid`` count, at most the circle sample ceiling, for
    sampling a selected two-dimensional repeated eigenspace.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from exc
    if isinstance(doc, list):
        entries = doc
    elif isinstance(doc, dict) and isinstance(doc.get("specs"), list):
        entries = doc["specs"]
    else:
        raise SpecFileError("spec file must be a JSON list or {\"specs\": [...]}")
    allowed = {*_SPEC_KEYS, "theta_grid", "name"}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SpecFileError(f"spec entry {i} must be an object")
        unknown = set(entry) - allowed
        if unknown:
            raise SpecFileError(f"spec entry {i} has unknown keys {sorted(unknown)}")
        for part in ("gamma", "a"):
            if f"{part}_select" in entry and f"{part}_basis" in entry:
                raise SpecFileError(
                    f"spec entry {i}: give {part}_select or {part}_basis, not both"
                )
            select = entry.get(f"{part}_select", [])
            if not (isinstance(select, list) and all(map(_is_int, select))):
                raise SpecFileError(
                    f"spec entry {i}: {part}_select must be a list of integers"
                )
            if f"{part}_basis" in entry:
                try:
                    _as_matrix(entry[f"{part}_basis"], "basis")
                except (TypeError, ValueError) as exc:
                    raise SpecFileError(
                        f"spec entry {i}: {part}_basis: {exc}"
                    ) from exc
        theta = entry.get("theta_grid", 1)
        if not (_is_int(theta) and 1 <= theta <= _MAX_CIRCLE_SAMPLES):
            raise SpecFileError(f"spec entry {i}: theta_grid must be an int "
                                f"from 1 to {_MAX_CIRCLE_SAMPLES}")
    return entries


def _is_int(x):
    """True for a JSON integer (bool is an int subclass but not one)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _entry_to_spec(entry) -> SubspaceSpec:
    return SubspaceSpec(**{k: entry[k] for k in _SPEC_KEYS if k in entry})


def _expand_theta(entry, cp) -> list[SubspaceSpec]:
    """Expand a theta_grid entry into one spec per sampled angle.

    The entry's selections obey the rules of a plain entry (InvalidSubspace
    otherwise) and must pick exactly one repeated eigenvalue cluster, of
    dimension two.  Its selected indices are replaced by explicit
    one-dimensional angle bases, while other selected blocks keep their
    invariant bases.
    """
    chosen = {}
    for part, blocks in (("gamma", cp.gamma_blocks), ("a", cp.a_blocks)):
        with _selection_of(part):
            chosen[part] = _selected_blocks(
                blocks, entry.get(f"{part}_select", ()))
    targets = [(part, blk) for part, blks in chosen.items() for blk in blks
               if blk.kind == "repeated"]
    if len(targets) != 1 or targets[0][1].dim != 2:
        raise SpecFileError("theta_grid entry must select exactly one "
                            "repeated eigenspace, of dimension two")
    part, target = targets[0]
    count = entry["theta_grid"]
    out = []
    for j in range(count):
        theta = np.pi * j / count
        angle = continuum_angle_basis(target.basis, theta)
        kwargs = {}
        for p, blks in chosen.items():
            cols = [blk.basis for blk in blks if blk is not target]
            if p == part:
                cols.append(angle)
            if cols:
                kwargs[f"{p}_basis"] = np.hstack(cols)
            elif f"{p}_basis" in entry:
                kwargs[f"{p}_basis"] = np.asarray(entry[f"{p}_basis"],
                                                  dtype=float)
        out.append(SubspaceSpec(**kwargs))
    return out


def expand_spec_entries(entries, cp) -> list[SubspaceSpec]:
    """Resolve raw spec entries into subspace specifications, expanding
    theta grids against the given conjugate phase structure."""
    specs = []
    for entry in entries:
        if "theta_grid" in entry:
            specs.extend(_expand_theta(entry, cp))
        else:
            specs.append(_entry_to_spec(entry))
    return specs
