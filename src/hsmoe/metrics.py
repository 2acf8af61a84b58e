"""Segmentation evaluation: Dice overlap, 95th-percentile surface distance,
parameter counting, report writers.

HD95 contract: surfaces are foreground voxels with any of their six face
neighbors outside the mask (the volume border counts as outside); point-to-set
distances are pooled from both directions and the percentile is nearest-rank
on that multiset. Implementations differ on these choices, so they are fixed
here for reproducibility. Each nearest neighbour is a candidate from one
matmul per chunk, |g|² − 2 s·g on centred coordinates, then every target
within that matmul's rounding bound of the best is re-measured exactly; the
distance reported is the brute-force ((s − g)**2).sum() on the true nearest pair.
"""

from __future__ import annotations

import csv
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
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int(np.logical_and(p, g).sum()) / denom


def mdsc(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> float:
    """Mean Dice over the foreground classes; background (class 0) is excluded."""
    pred, gt = _check_labels(pred, gt, num_classes)
    vals = [dsc_per_class(pred, gt, c) for c in range(1, num_classes)]
    if not vals:
        raise MetricError("no classes to average")
    return float(np.mean(vals))


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Indices [P,3] of mask voxels with a face neighbor outside the mask."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 3:
        raise MetricError(f"mask must be 3-D, got shape {m.shape}")
    if not m.any():
        raise EmptyMaskError("empty structure has no surface")
    padded = np.pad(m, 1, constant_values=False)
    interior = m.copy()
    D, H, W = m.shape
    for axis, extent in enumerate((D, H, W)):
        for off in (0, 2):
            sl = [slice(1, 1 + D), slice(1, 1 + H), slice(1, 1 + W)]
            sl[axis] = slice(off, off + extent)
            interior &= padded[tuple(sl)]
    return np.argwhere(m & ~interior)


_CHUNK_SCORES = 100_000  # entries of one chunk's [rows, |dst|] score matrix (0.8 MB: stays in L2)


def _directed_min_dists(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Distance from each ``src`` point to its nearest ``dst`` point (see the module docstring)."""
    centre = (np.minimum(src.min(0), dst.min(0)) + np.maximum(src.max(0), dst.max(0))) / 2
    s_c, g_c = src - centre, dst - centre
    g2 = (g_c ** 2).sum(-1)
    # With u = eps/2 and M = |s|² + max|g|² (centred), a score is |s−g|² − |s|² to within
    # 11u·M, centring moves |s−g|² by 4u·M and the brute-force sum rounds by 10u·M, so the
    # true nearest target scores within 2·(11+4+10)u·M = 50u·M of the best; tol is 64u·M.
    tol = 32 * np.finfo(np.float64).eps * ((s_c ** 2).sum(-1) + g2.max())
    lhs = np.c_[s_c, np.ones(len(src))]  # [s, 1] @ [−2g; |g|²] = |g|² − 2 s·g
    rhs = np.r_[-2.0 * g_c.T, g2[None]]
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


def hd95(pred_mask: np.ndarray, gt_mask: np.ndarray,
         spacing: Sequence[float] = (1.0, 1.0, 1.0)) -> float:
    """Nearest-rank 95th percentile of pooled bidirectional surface distances (mm)."""
    sp = np.asarray(spacing, dtype=np.float64)
    P = surface_voxels(pred_mask) * sp
    G = surface_voxels(gt_mask) * sp
    pooled = np.concatenate([_directed_min_dists(P, G), _directed_min_dists(G, P)])
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
# report writers


def write_metrics_csv(rows: List[Dict], path: str) -> None:
    """Per-case per-class rows: case_id, class, dsc, hd95 (hd95 blank when
    undefined for the case)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["case_id", "class", "dsc", "hd95"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


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
