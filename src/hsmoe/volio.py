"""Raw volume files: ``<name>.vol`` is a little-endian raster in (D,H,W)
order (f32 images, u8 labels) with a ``<name>.json`` sidecar carrying
``{"dims": [D,H,W], "spacing_mm": [sD,sH,sW], "dtype": "f32"|"u8"}``: three
positive extents and the voxel size in mm along each of those axes, three
finite positive numbers."""

from __future__ import annotations

import json
import math
import os
from typing import Sequence, Tuple

import numpy as np

_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


class VolumeIOError(RuntimeError):
    pass


def _paths(base: str) -> Tuple[str, str]:
    if base.endswith(".vol") or base.endswith(".json"):
        base = base.rsplit(".", 1)[0]
    return base + ".vol", base + ".json"


def _check_sidecar(dims: Sequence, spacing: Sequence[float], where: str) -> None:
    """The sidecar rule, checked on write and on read (module docstring)."""
    if len(dims) != 3 or not all(type(d) is int and d > 0 for d in dims):
        raise VolumeIOError(f"{where}: dims must be three positive ints, got {list(dims)}")
    if len(spacing) != 3 or not all(math.isfinite(s) and s > 0 for s in spacing):
        raise VolumeIOError(f"{where}: spacing_mm must be three finite positive numbers, got {list(spacing)}")


def write_volume(base: str, array: np.ndarray, spacing_mm: Sequence[float] = (1.0, 1.0, 1.0),
                 dtype: str = "f32") -> None:
    if dtype not in _DTYPES:
        raise VolumeIOError(f"dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    arr = np.asarray(array)
    spacing = [float(s) for s in spacing_mm]
    vol_path, json_path = _paths(base)
    _check_sidecar(arr.shape, spacing, f"cannot write {json_path}")
    with open(vol_path, "wb") as fh:
        fh.write(np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).tobytes())
    sidecar = {"dims": list(arr.shape), "spacing_mm": spacing, "dtype": dtype}
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def read_volume(base: str) -> Tuple[np.ndarray, Tuple[float, float, float]]:
    vol_path, json_path = _paths(base)
    for path in (vol_path, json_path):
        if not os.path.exists(path):
            raise VolumeIOError(f"missing volume file: {path}")
    try:
        with open(json_path) as fh:
            sidecar = json.load(fh)
        dims = tuple(sidecar["dims"])
        spacing = tuple(float(s) for s in sidecar["spacing_mm"])
        dtype = _DTYPES[sidecar["dtype"]]
    except (KeyError, TypeError, ValueError) as err:
        raise VolumeIOError(f"bad sidecar {json_path}: {err}") from err
    _check_sidecar(dims, spacing, f"bad sidecar {json_path}")
    raw = np.fromfile(vol_path, dtype=dtype)
    expected = int(np.prod(dims))
    if raw.size != expected:
        raise VolumeIOError(f"{vol_path}: payload has {raw.size} voxels, sidecar says {expected}")
    arr = raw.reshape(dims)
    if sidecar["dtype"] == "f32":
        arr = arr.astype(np.float64)
    else:
        arr = arr.astype(np.int64)
    return arr, spacing
