"""Raw label volumes: ``<name>.vol`` is a u8 raster in (D,H,W) order, one class
id per voxel, with a ``<name>.json`` sidecar ``{"dims": [D,H,W], "spacing_mm":
[sD,sH,sW], "dtype": "u8"}``: three positive extents and the voxel size in mm
along each of those axes, three finite positive numbers. ``read_volume``
returns the raster as stored."""

from __future__ import annotations

import json
import math
from typing import Sequence, Tuple

import numpy as np

_DTYPES = {"u8": np.dtype("u1")}


class VolumeIOError(RuntimeError):
    pass


def _paths(base: str) -> Tuple[str, str]:
    if base.endswith(".vol") or base.endswith(".json"):
        base = base.rsplit(".", 1)[0]
    return base + ".vol", base + ".json"


def _check_sidecar(dims: Sequence, spacing: Sequence[float], dtype, where: str) -> None:
    """The sidecar rule, checked on write and on read (module docstring)."""
    if len(dims) != 3 or not all(type(d) is int and d > 0 for d in dims):
        raise VolumeIOError(f"{where}: dims must be three positive ints, got {list(dims)}")
    if len(spacing) != 3 or not all(math.isfinite(s) and s > 0 for s in spacing):
        raise VolumeIOError(f"{where}: spacing_mm must be three finite positive numbers, got {list(spacing)}")
    if dtype not in _DTYPES:
        raise VolumeIOError(f"{where}: dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")


def write_volume(base: str, array: np.ndarray, spacing_mm: Sequence[float] = (1.0, 1.0, 1.0),
                 dtype: str = "u8") -> None:
    arr = np.asarray(array)
    spacing = [float(s) for s in spacing_mm]
    vol_path, json_path = _paths(base)
    _check_sidecar(arr.shape, spacing, dtype, f"cannot write {json_path}")
    with np.errstate(invalid="ignore"):  # NaN and inf do not survive the cast: refused below
        raster = np.ascontiguousarray(arr, dtype=_DTYPES[dtype])
    if not np.array_equal(raster, arr):
        bad = arr[raster != arr][0].item()
        raise VolumeIOError(f"cannot write {vol_path}: a u8 raster holds integers in [0, 255], got {bad!r}")
    with open(vol_path, "wb") as fh:
        fh.write(raster.tobytes())
    sidecar = {"dims": list(arr.shape), "spacing_mm": spacing, "dtype": dtype}
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def read_volume(base: str) -> Tuple[np.ndarray, Tuple[float, float, float]]:
    vol_path, json_path = _paths(base)
    try:
        raw = np.fromfile(vol_path, dtype=_DTYPES["u8"])
        with open(json_path) as fh:
            sidecar = json.load(fh)
        dims = tuple(sidecar["dims"])
        spacing = tuple(float(s) for s in sidecar["spacing_mm"])
        dtype = sidecar["dtype"]
    except FileNotFoundError as err:
        raise VolumeIOError(f"missing volume file: {err.filename}") from err
    except OSError as err:
        raise VolumeIOError(f"cannot read {err.filename}: {err.strerror}") from err
    except (KeyError, TypeError, ValueError) as err:
        raise VolumeIOError(f"bad sidecar {json_path}: {err}") from err
    _check_sidecar(dims, spacing, dtype, f"bad sidecar {json_path}")
    if raw.size != math.prod(dims):
        raise VolumeIOError(f"{vol_path}: payload has {raw.size} voxels, sidecar says {math.prod(dims)}")
    return raw.reshape(dims), spacing
