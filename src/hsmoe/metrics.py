"""Segmentation evaluation: Dice overlap, 95th-percentile surface distance,
parameter counting, the JSON summary report.

HD95 contract: surfaces are foreground voxels with any of their six face
neighbors outside the mask (the volume border counts as outside); point-to-set
distances are pooled from both directions and the percentile is nearest-rank
on that multiset. Implementations differ on these choices, so they are fixed
here for reproducibility. ``spacing`` is the voxel size along (D, H, W).

Each nearest neighbour is found in two stages, and both run on every call.
First a stencil: the target surface is marked on a voxel grid, and the integer
offsets of the cube [-R, R]^3 are walked in ascending spacing-weighted length,
in three batches (the zero offset, the six nearest, the rest) with one gather
per batch over the source points still open. A point's first hit bounds which
later hits are measured, exactly as in a walk one offset at a time, and the
point settles when its nearest hit is provably nearer than anything outside
the cube. The points it leaves open get candidates from one float32 matmul per
chunk, |g|² − 2 s·g on centred coordinates, and every target within that
matmul's rounding bound of the best is re-measured exactly in float64. Either
way the distance reported is the brute-force ((s − g)**2).sum() on the true
nearest pair.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np


class MetricError(ValueError):
    """Invalid metric input (shape mismatch, bad class ids)."""


class EmptyMaskError(MetricError):
    """Surface distance asked for an empty structure; caller maps to a sentinel."""


def _check_labels(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> Tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise MetricError(f"label shapes differ: {pred.shape} vs {gt.shape}")
    for name, arr in (("pred", pred), ("gt", gt)):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise MetricError(f"{name} contains class ids outside [0, {num_classes})")
    return pred, gt


def dsc_per_class(pred: np.ndarray, gt: np.ndarray, cls: int) -> float:
    """2|P∩G| / (|P|+|G|); both structures empty counts as a perfect 1.0."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise MetricError(f"label shapes differ: {pred.shape} vs {gt.shape}")
    p = pred == cls
    g = gt == cls
    denom = int(np.count_nonzero(p)) + int(np.count_nonzero(g))
    if denom == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(p & g)) / denom


def mdsc(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> float:
    """Mean Dice over the foreground classes; background (class 0) is excluded."""
    pred, gt = _check_labels(pred, gt, num_classes)
    vals = [dsc_per_class(pred, gt, c) for c in range(1, num_classes)]
    if not vals:
        raise MetricError("no classes to average")
    return float(np.mean(vals))


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Indices [P,3] of mask voxels with a face neighbor outside the mask, in
    raster order."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 3:
        raise MetricError(f"mask must be 3-D, got shape {m.shape}")
    if not m.any():
        raise EmptyMaskError("empty structure has no surface")
    padded = np.pad(m, 1, constant_values=False)
    _, Hp, Wp = padded.shape
    flat = padded.ravel()
    # the six face neighbours are flat shifts of the padded mask: only a padding voxel's shift
    # can wrap across a row or a plane, and padding is never on the surface
    o = Hp * Wp
    core = flat[o:-o]
    interior = core.copy()
    for step in (1, Wp, o):
        interior &= flat[o - step:flat.size - o - step]
        interior &= flat[o + step:flat.size - o + step]
    at = np.flatnonzero(core & ~interior) + o
    return np.stack(np.unravel_index(at, padded.shape), axis=1) - 1


_CHUNK_SCORES = 200_000  # float32 entries of one chunk's [rows, |dst|] score matrix (0.8 MB: stays in L2)
_STENCIL_RADIUS = 2  # R: the stencil walks the voxel offsets of the cube [-R, R]^3


def _score_operands(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """float32 ``lhs`` [n,4] and ``rhs`` [4,m] whose product scores each pair by |g|² − 2 s·g,
    and each row's ``tol``: the true nearest target scores within it of the row's best."""
    lo, hi = np.minimum(src.min(0), dst.min(0)), np.maximum(src.max(0), dst.max(0))
    centre = (lo + hi) / 2
    # centred coordinates scaled by a power of two into about [-1, 1]: the scale is exact, and
    # the float32 values below neither overflow nor, unless two nonzero coordinates differ in
    # magnitude by some 10^15, underflow, so the relative bounds below hold
    scale = np.ldexp(1.0, -np.frexp((hi - lo).max() / 2)[1])
    lhs = np.empty((len(src), 4), dtype=np.float32)  # [s, 1] @ [−2g; |g|²] = |g|² − 2 s·g
    np.multiply(src - centre, scale, out=lhs[:, :3])
    lhs[:, 3] = 1.0
    g_c = (dst - centre) * scale
    rhs = np.empty((4, len(dst)), dtype=np.float32)
    np.multiply(g_c.T, -2.0, out=rhs[:3])
    rhs[3] = (g_c ** 2).sum(-1)
    # Scores are float32 (u = 2⁻²⁴) on float64 coordinates (v = 2⁻⁵³). With M = |s|² + max|g|²
    # (centred and scaled), rounding the operands to float32 moves a score by 2u(|s|² + |g|²)
    # + u|g|², the float64 |g|² rounds by 3v·M, and the length-4 float32 dot product rounds
    # by 4u(|s|² + 2|g|²), so a score is |s−g|² − |s|² to within 11u·M + 3v·M. Centring moves
    # |s−g|² by 4v·M, the brute-force sum rounds by 10v·M and the cut best + tol rounds by
    # 2u·M, so the true nearest target scores within 2·(11u + 3v + 4v + 10v)·M + 2u·M < 25u·M
    # of the row's best; tol is 32u·M, with M from the float32 operands (within 6u·M of M).
    tol = (lhs[:, :3] ** 2).sum(-1)
    tol += rhs[3].max()
    tol *= 16 * np.finfo(np.float32).eps
    return lhs, rhs, tol


def _directed_min_dists(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Distance from each ``src`` point to its nearest ``dst`` point (see the module docstring)."""
    lhs, rhs, tol = _score_operands(src, dst)
    out = np.empty(len(src))
    chunk = max(1, _CHUNK_SCORES // len(dst))
    for i in range(0, len(src), chunk):
        scores = lhs[i:i + chunk] @ rhs
        rows = np.arange(len(scores))
        best = scores.argmin(axis=1)
        cut = scores[rows, best] + tol[i:i + chunk]
        scores[rows, best] = np.inf
        tied = np.flatnonzero(scores.min(axis=1) <= cut)
        d2 = ((src[i:i + chunk] - dst[best]) ** 2).sum(-1)
        r, c = np.nonzero(scores[tied] <= cut[tied, None])
        np.minimum.at(d2, tied[r], ((src[i + tied[r]] - dst[c]) ** 2).sum(-1))
        out[i:i + chunk] = np.sqrt(d2)
    return out


def _stencil_min_d2(src_idx: np.ndarray, dst_idx: np.ndarray, sp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Squared distance from each ``src_idx`` voxel to its nearest ``dst_idx``
    voxel among the offsets of [-R, R]^3, and which points that settles (see
    the module docstring); voxel indices are [n,3], ``sp`` the spacing."""
    R = _STENCIL_RADIUS
    src = src_idx * sp
    top = np.maximum(src_idx.max(0), dst_idx.max(0))  # the largest index along each axis
    extent = top + 1 + 2 * R
    strides = np.array([extent[1] * extent[2], extent[2], 1])
    occupied = np.zeros(int(np.prod(extent)), dtype=bool)
    occupied[(dst_idx + R) @ strides] = True
    at = (src_idx + R) @ strides
    cube = np.indices((2 * R + 1,) * 3).reshape(3, -1).T - R
    keys = ((cube * sp) ** 2).sum(-1)
    order = np.argsort(keys, kind="stable")
    bound = ((R + 1) * sp.min()) ** 2  # every offset outside the cube is at least this far
    # With u = eps/2 and every coordinate in [0, L], each coordinate rounds by u·L, so a
    # difference is off by 2u·L + u|Δ_k| and the brute-force sum for an offset of exact squared
    # length E by u·(4L·Σ|Δ_k| + 5E) <= u·(2√3(L² + E) + 5E); its key and the bound are off by
    # 5u·E. For E up to the bound B, a sum and a key are then within δ = 14u(L² + B) of each
    # other, and larger offsets stay beyond B − δ. So no offset keyed past the first hit's key
    # plus 2δ can beat that hit, and no target outside the cube can beat a distance below B − δ;
    # band is 32u(L² + B).
    band = 16 * np.finfo(np.float64).eps * ((top * sp).max() ** 2 + bound)
    d2 = np.full(len(src), np.inf)
    limit = np.full(len(src), bound)  # a first hit past the bound could not settle
    open_ = np.arange(len(src))
    # three batches in key order: the zero offset, the six nearest (where a one-voxel shift
    # settles) and the rest. Within a batch a point's first hit sets its limit, and every hit
    # keyed within the limit is measured, as a walk one offset at a time would measure it
    for batch in (order[:1], order[1:7], order[7:]):
        offs, key = cube[batch], keys[batch]
        deltas = offs @ strides
        open_ = open_[limit[open_] >= key[0]]
        rows = max(1, _CHUNK_SCORES // 2 // len(batch))  # int64 gathers: half as many entries
        for i in range(0, len(open_), rows):
            pts = open_[i:i + rows]
            occ = occupied[at[pts, None] + deltas]
            first = occ.argmax(axis=1)
            fresh = occ[np.arange(len(pts)), first] & (d2[pts] == np.inf) & (key[first] <= limit[pts])
            limit[pts[fresh]] = key[first[fresh]] + band
            r, c = np.nonzero(occ & (key <= limit[pts, None]))
            hit = pts[r]
            np.minimum.at(d2, hit, ((src[hit] - (src_idx[hit] + offs[c]) * sp) ** 2).sum(-1))
    return d2, d2 + band < bound


def _nearest_dists(src_idx: np.ndarray, dst_idx: np.ndarray, sp: np.ndarray) -> np.ndarray:
    """Distance from each ``src_idx`` voxel to its nearest ``dst_idx`` voxel (mm):
    the stencil, then the matmul candidates for the points it leaves open."""
    d2, settled = _stencil_min_d2(src_idx, dst_idx, sp)
    out = np.sqrt(d2)
    rest = np.flatnonzero(~settled)
    if len(rest):
        out[rest] = _directed_min_dists(src_idx[rest] * sp, dst_idx * sp)
    return out


def hd95(pred_mask: np.ndarray, gt_mask: np.ndarray,
         spacing: Sequence[float] = (1.0, 1.0, 1.0)) -> float:
    """Nearest-rank 95th percentile of pooled bidirectional surface distances
    (mm), with ``spacing`` the voxel size along (D, H, W)."""
    sp = np.asarray(spacing, dtype=np.float64)
    if sp.shape != (3,) or not (np.isfinite(sp).all() and (sp > 0).all()):
        raise MetricError(f"spacing must be three finite positive numbers, got {spacing!r}")
    if np.shape(pred_mask) != np.shape(gt_mask):
        raise MetricError(f"mask shapes differ: {np.shape(pred_mask)} vs {np.shape(gt_mask)}")
    P = surface_voxels(pred_mask)
    G = surface_voxels(gt_mask)
    pooled = np.concatenate([_nearest_dists(P, G, sp), _nearest_dists(G, P, sp)])
    pooled.sort()
    rank = math.ceil(0.95 * len(pooled))
    return float(pooled[rank - 1])


def count_parameters(module) -> int:
    """Total element count over uniquely named parameters."""
    named = list(module.named_parameters())
    names = [n for n, _ in named]
    if len(names) != len(set(names)):
        dupes = [n for n, c in Counter(names).items() if c > 1]
        raise MetricError(f"duplicate parameter names: {dupes}")
    return sum(p.size for _, p in named)


# ---------------------------------------------------------------------------
# the summary report


def summarize(rows: List[Dict], num_classes: int) -> Dict:
    """JSON-ready aggregate: per-class means and overall mDSC / mHD95.

    Cases whose HD95 was undefined (an empty structure) are excluded from the
    distance means and counted under ``hd95_skipped``.
    """
    per_class = {}
    for c in range(1, num_classes):
        sub = [r for r in rows if r["class"] == c]
        dscs = [r["dsc"] for r in sub]
        hds = [r["hd95"] for r in sub if r["hd95"] != ""]
        per_class[str(c)] = {
            "mean_dsc": float(np.mean(dscs)) if dscs else None,
            "mean_hd95": float(np.mean(hds)) if hds else None,
            "hd95_skipped": len(sub) - len(hds),
            "n_cases": len(sub),
        }
    dsc_means = [v["mean_dsc"] for v in per_class.values() if v["mean_dsc"] is not None]
    hd_means = [v["mean_hd95"] for v in per_class.values() if v["mean_hd95"] is not None]
    return {
        "per_class": per_class,
        "mdsc": float(np.mean(dsc_means)) if dsc_means else None,
        "mhd95": float(np.mean(hd_means)) if hd_means else None,
    }


def write_metrics_json(summary: Dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
