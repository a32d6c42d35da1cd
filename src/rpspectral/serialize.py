"""Canonical JSON reading and writing, and the config-section loader.

Result files are compared byte-for-byte across reruns, so writers go through
one canonical encoder: sorted keys, two-space indent, trailing newline.
Config dataclasses are written with ``dataclasses.asdict`` and read back
through ``section_from_dict``, so no file lists their fields by hand.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .errors import ConfigError, IoError


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path, payload):
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(canonical_dumps(payload), encoding="utf-8")
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


def section_from_dict(cls, name, data, **fixed):
    """Build config dataclass ``cls`` from the parsed JSON object ``data``.

    Unknown keys raise ConfigError naming them; ``fixed`` values come from
    elsewhere in the config, and ``data`` may repeat them only unchanged.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"'{name}' must be a JSON object")
    data = dict(data)
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown {name} option(s): {', '.join(unknown)}")
    for key in set(data) & set(fixed):
        if data[key] != fixed[key]:
            raise ConfigError(
                f"{name}.{key} conflicts with the top-level value"
            )
        data.pop(key)
    try:
        if "hidden_sizes" in data:  # a JSON array; the dataclasses hold tuples
            data["hidden_sizes"] = tuple(data["hidden_sizes"])
        return cls(**{**fixed, **data})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} config: {exc}") from exc
