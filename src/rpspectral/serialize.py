"""Canonical JSON and CSV writing, JSON reading, and the config-section reader.

Result files are compared byte-for-byte across reruns, so writers go through
one canonical encoder: sorted keys, two-space indent, trailing newline.
Config dataclasses are written with ``dataclasses.asdict`` and read back
through ``section_from_dict``, which takes each field's type from the
dataclass itself, so no file lists their fields or types by hand.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import typing
from pathlib import Path

import numpy as np

from .errors import ConfigError, IoError

# Rows per writerows call for an array in write_csv; a block's Python lists
# are ~1 MiB.
_CSV_BLOCK = 8192


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path, payload):
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(canonical_dumps(payload), encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc), path=str(path)) from exc


def write_csv(path, header, rows):
    """Write a header row and ``rows`` as CSV, creating parent directories.

    ``rows`` is any iterable of rows and is written as it is drawn. A numpy
    array goes out ``_CSV_BLOCK`` rows at a time through ``tolist``, so only
    one block is ever held as Python lists.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            if isinstance(rows, np.ndarray):
                for start in range(0, len(rows), _CSV_BLOCK):
                    writer.writerows(rows[start : start + _CSV_BLOCK].tolist())
            else:
                writer.writerows(rows)
    except OSError as exc:
        raise IoError(str(exc), path=str(path)) from exc


def read_json(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc), path=str(path)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise IoError(f"not valid JSON: {exc}", path=str(path)) from exc


def _fits(value, kind):
    """Whether a parsed JSON value may fill a field of type ``kind``.

    An int refuses floats, strings and booleans; a float also takes an int
    but refuses NaN and the infinities, which ``json.loads`` accepts; a
    tuple is an array of ints; a union takes any of its members.
    """
    if typing.get_args(kind):
        return any(_fits(value, member) for member in typing.get_args(kind))
    if kind is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, int) for v in value)
    if kind in (int, float) and isinstance(value, bool):
        return False
    if kind is float and isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def section_from_dict(cls, name, data, **fixed):
    """Build config dataclass ``cls`` from the parsed JSON object ``data``.

    ``name`` is the section's key, or "" for the top level. Each value must
    have its field's JSON type; a wrong one raises ConfigError naming
    ``name.field``, as do unknown keys. ``fixed`` values come from elsewhere
    in the config, and ``data`` may repeat them only unchanged.
    """
    label = name or "top-level"
    if not isinstance(data, dict):
        raise ConfigError(f"'{label}' must be a JSON object")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {label} option(s): {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    path = f"{name}." if name else ""
    for key, value in data.items():
        kind = hints[key]
        if not _fits(value, kind):
            wanted = {tuple: "an array of int", float: "a finite float"}.get(
                kind, getattr(kind, "__name__", kind)
            )
            raise ConfigError(
                f"bad {label} config: {path}{key} must be {wanted}, got {value!r}"
            )
    values = {k: tuple(v) if hints[k] is tuple else v for k, v in data.items()}
    for key in set(values) & set(fixed):
        if values.pop(key) != fixed[key]:
            raise ConfigError(
                f"{name}.{key} conflicts with the top-level value"
            )
    try:
        return cls(**fixed, **values)
    except TypeError as exc:  # a field without a default is missing
        raise ConfigError(f"bad {label} config: {exc}") from exc
