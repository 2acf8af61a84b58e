"""Checkpoints: a JSON manifest (name, shape, dtype, byte offset) next to a
flat little-endian binary payload. ``base`` paths get ``.json``/``.bin``
suffixes."""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Tuple

import numpy as np

_DTYPES = {"f64": "<f8", "f32": "<f4"}
_FORMAT = "hsmoe-checkpoint-v2"


class CheckpointError(RuntimeError):
    pass


def _paths(base: str) -> Tuple[str, str]:
    if base.endswith(".json") or base.endswith(".bin"):
        base = base.rsplit(".", 1)[0]
    return base + ".json", base + ".bin"


def save_checkpoint(named_params: Iterable, base: str) -> None:
    """``named_params``: iterable of (name, Tensor) or a name->Tensor dict."""
    if isinstance(named_params, dict):
        named_params = named_params.items()
    manifest = {"format": _FORMAT, "params": []}
    payload = bytearray()
    for name, p in named_params:
        tag = "f64" if p.data.dtype == np.float64 else "f32"
        manifest["params"].append({
            "name": name,
            "shape": list(p.data.shape),
            "dtype": tag,
            "offset": len(payload),
        })
        payload.extend(np.ascontiguousarray(p.data, dtype=_DTYPES[tag]).tobytes())
    json_path, bin_path = _paths(base)
    with open(json_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    with open(bin_path, "wb") as fh:
        fh.write(bytes(payload))


def load_checkpoint(base: str) -> Dict[str, np.ndarray]:
    json_path, bin_path = _paths(base)
    for path in (json_path, bin_path):
        if not os.path.exists(path):
            raise CheckpointError(f"missing checkpoint file: {path}")
    with open(json_path) as fh:
        manifest = json.load(fh)
    if manifest.get("format") == "hsmoe-checkpoint-v1":
        raise CheckpointError("checkpoint format hsmoe-checkpoint-v1 stores per-expert FFNs "
                              "(experts1.<e>.lin1.weight, ...), which this version cannot load: "
                              f"it stores each routing level's experts stacked ({_FORMAT})")
    if manifest.get("format") != _FORMAT:
        raise CheckpointError(f"unrecognized checkpoint format: {manifest.get('format')!r}")
    with open(bin_path, "rb") as fh:
        blob = fh.read()
    out = {}
    for entry in manifest["params"]:
        dt = np.dtype(_DTYPES[entry["dtype"]])
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        start = entry["offset"]
        arr = np.frombuffer(blob, dtype=dt, count=count, offset=start)
        out[entry["name"]] = arr.reshape(entry["shape"]).astype(dt.newbyteorder("=")).copy()
    return out


def load_into(module, base: str) -> None:
    """Copy checkpoint values into a module's parameters, checking shape and
    dtype (no silent cast); nothing is copied unless every parameter fits."""
    values = load_checkpoint(base)
    named = dict(module.named_parameters())
    missing = set(named) - set(values)
    extra = set(values) - set(named)
    if missing or extra:
        raise CheckpointError(f"parameter name mismatch: missing={sorted(missing)[:3]} "
                              f"extra={sorted(extra)[:3]}")
    for name, p in named.items():
        if tuple(values[name].shape) != p.data.shape:
            raise CheckpointError(f"shape mismatch for {name}: checkpoint "
                                  f"{values[name].shape} vs model {p.data.shape}")
        if values[name].dtype != p.data.dtype:
            raise CheckpointError(f"dtype mismatch for {name}: checkpoint "
                                  f"{values[name].dtype} vs model {p.data.dtype}")
    for name, p in named.items():
        p.data[...] = values[name]
