"""Checkpoints: a JSON manifest (name, shape, dtype, byte offset) next to a
flat little-endian binary payload. ``base`` paths get ``.json``/``.bin``
suffixes."""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Tuple

import numpy as np

from .tensor import PRECISIONS

_TAGS = {dtype: tag for tag, dtype in PRECISIONS.items()}  # a parameter's dtype: its manifest tag
_FORMAT = "hsmoe-checkpoint-v2"


class CheckpointError(RuntimeError):
    pass


def checkpoint_paths(base: str) -> Tuple[str, str]:
    """The manifest and payload files of checkpoint ``base``."""
    if base.endswith(".json") or base.endswith(".bin"):
        base = base.rsplit(".", 1)[0]
    return base + ".json", base + ".bin"


def save_checkpoint(named_params: Iterable, base: str) -> None:
    """``named_params``: iterable of (name, Tensor)."""
    manifest = {"format": _FORMAT, "params": []}
    payload = bytearray()
    for name, p in named_params:
        manifest["params"].append({
            "name": name,
            "shape": list(p.data.shape),
            "dtype": _TAGS[p.data.dtype],
            "offset": len(payload),
        })
        payload.extend(np.ascontiguousarray(p.data, dtype=p.data.dtype.newbyteorder("<")).tobytes())
    json_path, bin_path = checkpoint_paths(base)
    with open(json_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    with open(bin_path, "wb") as fh:
        fh.write(bytes(payload))


def load_checkpoint(base: str) -> Dict[str, np.ndarray]:
    json_path, bin_path = checkpoint_paths(base)
    for path in (json_path, bin_path):
        if not os.path.exists(path):
            raise CheckpointError(f"missing checkpoint file: {path}")
    out = {}
    try:  # unparseable JSON, a missing field or dtype tag, a truncated payload
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
        for entry in manifest["params"]:
            dt = PRECISIONS[entry["dtype"]].newbyteorder("<")
            count = int(np.prod(entry["shape"])) if entry["shape"] else 1
            arr = np.frombuffer(blob, dtype=dt, count=count, offset=entry["offset"])
            # astype copies: a writable array of its own, not a view of ``blob``
            out[entry["name"]] = arr.reshape(entry["shape"]).astype(dt.newbyteorder("="))
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"malformed checkpoint {base}: {type(err).__name__}: {err}") from err
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
