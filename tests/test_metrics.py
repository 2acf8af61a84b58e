"""Dice / HD95 / parameter counting, against
brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmoe import metrics, nn, tensor as T
from hsmoe.metrics import (
    EmptyMaskError,
    MetricError,
    count_parameters,
    dsc_per_class,
    hd95,
    mdsc,
)

from oracles import dice_naive, hd95_naive


def test_dsc_identical_masks():
    v = (T.rng(0).uniform(size=(4, 4, 4)) > 0.5).astype(int)
    assert dsc_per_class(v, v, 1) == 1.0


def test_dsc_disjoint_masks():
    a = np.zeros((3, 3, 3), dtype=int)
    b = np.zeros((3, 3, 3), dtype=int)
    a[0, 0, 0] = 1
    b[2, 2, 2] = 1
    assert dsc_per_class(a, b, 1) == 0.0


def test_dsc_counted_case():
    # |P|=4, |G|=4, |P∩G|=2 -> 0.5
    p = np.zeros((2, 2, 4), dtype=int)
    g = np.zeros((2, 2, 4), dtype=int)
    p.reshape(-1)[:4] = 1
    g.reshape(-1)[2:6] = 1
    assert dsc_per_class(p, g, 1) == 0.5


def test_dsc_empty_empty_is_one():
    z = np.zeros((2, 2, 2), dtype=int)
    assert dsc_per_class(z, z, 1) == 1.0


def test_dsc_shape_mismatch():
    with pytest.raises(MetricError):
        dsc_per_class(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)), 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dsc_symmetry_and_range(seed):
    g = T.rng(seed)
    a = g.integers(0, 3, size=(3, 3, 3))
    b = g.integers(0, 3, size=(3, 3, 3))
    for c in range(3):
        d_ab = dsc_per_class(a, b, c)
        assert d_ab == dsc_per_class(b, a, c)
        assert 0.0 <= d_ab <= 1.0


def test_mdsc_perfect_and_half():
    v = T.rng(1).integers(0, 3, size=(4, 4, 4))
    assert mdsc(v, v, 3) == 1.0
    # one foreground class perfect, the other absent from pred entirely
    gt = np.zeros((2, 2, 2), dtype=int)
    gt.reshape(-1)[:2] = 1
    gt.reshape(-1)[2:4] = 2
    pred = np.where(gt == 2, 0, gt)
    assert mdsc(pred, gt, 3) == 0.5


def test_mdsc_matches_loop_oracle():
    g = T.rng(2)
    a = g.integers(0, 4, size=(4, 4, 4))
    b = g.integers(0, 4, size=(4, 4, 4))
    want = np.mean([dice_naive(a, b, c) for c in range(1, 4)])
    assert mdsc(a, b, 4) == want


def test_mdsc_rejects_out_of_range_ids():
    with pytest.raises(MetricError):
        mdsc(np.full((2, 2, 2), 5), np.zeros((2, 2, 2), dtype=int), 3)


# ---------------------------------------------------------------------------
# hd95


def test_hd95_identical_masks_zero():
    m = np.zeros((4, 4, 4), dtype=bool)
    m[1:3, 1:3, 1:3] = True
    assert hd95(m, m) == 0.0


def test_hd95_two_voxels_axis_distance():
    a = np.zeros((5, 5, 5), dtype=bool)
    b = np.zeros((5, 5, 5), dtype=bool)
    a[1, 2, 2] = True
    b[4, 2, 2] = True
    assert hd95(a, b) == 3.0


def test_hd95_respects_spacing():
    a = np.zeros((5, 3, 3), dtype=bool)
    b = np.zeros((5, 3, 3), dtype=bool)
    a[0, 1, 1] = True
    b[2, 1, 1] = True
    assert hd95(a, b, spacing=(2.5, 1.0, 1.0)) == 5.0


def test_hd95_empty_mask_raises():
    m = np.zeros((3, 3, 3), dtype=bool)
    full = np.ones((3, 3, 3), dtype=bool)
    with pytest.raises(EmptyMaskError):
        hd95(m, full)


def test_hd95_matches_bruteforce_oracle_randomized():
    g = T.rng(3)
    for _ in range(50):
        shape = tuple(int(g.integers(2, 6)) for _ in range(3))
        a = g.uniform(size=shape) > 0.6
        b = g.uniform(size=shape) > 0.6
        if not a.any() or not b.any():
            continue
        spacing = tuple(float(s) for s in g.uniform(0.5, 2.0, 3))
        assert hd95(a, b, spacing) == pytest.approx(hd95_naive(a, b, spacing), abs=1e-12)


def test_hd95_symmetric_by_construction():
    g = T.rng(4)
    a = g.uniform(size=(4, 4, 4)) > 0.5
    b = g.uniform(size=(4, 4, 4)) > 0.5
    if not (a.any() and b.any()):
        a[0, 0, 0] = b[1, 1, 1] = True
    assert hd95(a, b) == hd95(b, a)


# ---------------------------------------------------------------------------
# HD95 nearest neighbours: bit for bit against the difference-array brute force


def _brute_min_dists(src, dst):
    """The difference-array loop HD95 used before the matmul candidates."""
    out = np.empty(len(src))
    chunk = max(1, 2_000_000 // max(len(dst), 1))
    for i in range(0, len(src), chunk):
        d2 = ((src[i:i + chunk, None, :] - dst[None, :, :]) ** 2).sum(-1)
        out[i:i + chunk] = np.sqrt(d2.min(axis=1))
    return out


def _assert_bitwise_brute(a, b, spacing):
    sp = np.asarray(spacing, dtype=np.float64)
    P = metrics.surface_voxels(a) * sp
    G = metrics.surface_voxels(b) * sp
    pooled = []
    for src, dst in ((P, G), (G, P)):
        want = _brute_min_dists(src, dst)
        assert np.array_equal(metrics._directed_min_dists(src, dst), want)
        pooled.append(want)
    pooled = np.sort(np.concatenate(pooled))
    assert hd95(a, b, spacing) == pooled[math.ceil(0.95 * len(pooled)) - 1]


def _ball(shape, centre, radius):
    grid = np.indices(shape) - np.reshape(centre, (3, 1, 1, 1))
    return (grid ** 2).sum(0) <= radius ** 2


def test_hd95_exact_ties_unit_spacing_match_bruteforce_bitwise():
    # one voxel against the 30 voxels at distance exactly 5: (5,0,0) and
    # (3,4,0) up to sign and order, so every candidate of that row ties
    a = np.zeros((13, 13, 13), dtype=bool)
    a[6, 6, 6] = True
    shell = (np.indices(a.shape) - 6) ** 2
    b = shell.sum(0) == 25
    assert b.sum() == 30
    _assert_bitwise_brute(a, b, (1.0, 1.0, 1.0))
    g = T.rng(7)
    for _ in range(5):
        _assert_bitwise_brute(g.uniform(size=(12, 12, 12)) > 0.5,
                              g.uniform(size=(12, 12, 12)) > 0.6, (1.0, 1.0, 1.0))
    _assert_bitwise_brute(_ball((20, 20, 20), (9, 9, 9), 6), _ball((20, 20, 20), (10, 9, 8), 6),
                          (1.0, 1.0, 1.0))


@pytest.mark.parametrize("spacing", [(0.7, 1.3, 2.1), (0.5, 0.5, 3.0), (1.1, 0.9, 1.0)])
def test_hd95_near_ties_scaled_spacing_match_bruteforce_bitwise(spacing):
    g = T.rng(8)
    for _ in range(4):
        _assert_bitwise_brute(g.uniform(size=(10, 14, 9)) > 0.55,
                              g.uniform(size=(10, 14, 9)) > 0.5, spacing)
    _assert_bitwise_brute(_ball((24, 24, 24), (11, 12, 11), 8), _ball((24, 24, 24), (12, 11, 12), 7),
                          spacing)


@pytest.mark.parametrize("budget", [None, 9_999])
def test_hd95_over_many_chunks_matches_bruteforce_bitwise(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(metrics, "_CHUNK_SCORES", budget)
    a = _ball((40, 40, 40), (19, 19, 20), 15)
    b = _ball((40, 40, 40), (20, 19, 19), 14)
    rows = metrics._CHUNK_SCORES // len(metrics.surface_voxels(b))
    assert 1 <= rows < len(metrics.surface_voxels(a)) // 4  # more than four chunks
    _assert_bitwise_brute(a, b, (1.0, 1.0, 1.0))
    _assert_bitwise_brute(a, b, (0.7, 1.3, 2.1))


# ---------------------------------------------------------------------------
# parameter counting


def test_count_single_linear():
    lin = nn.Linear(3, 2, T.rng(5))
    assert count_parameters(lin) == 3 * 2 + 2


def test_count_tiny_routing_stage_closed_form():
    from hsmoe.config import StageConfig
    from hsmoe.routing import FFN_RATIO as r, HierarchicalMoE

    d, E, S = 2, 2, 1
    E2 = 2 * E
    layer = HierarchicalMoE(StageConfig(dim=d, num_experts=E, group_size=4,
                                        slots_per_expert=S), T.rng(6))
    ffn = (d * r * d + r * d) + (r * d * d + d)
    want = (E * S * d               # slot embeddings
            + (d * E + E)           # level-1 router
            + E * ffn               # level-1 experts
            + (d * E2 + E2)         # level-2 router
            + E2 * ffn)             # level-2 experts
    assert count_parameters(layer) == want
