"""Dice / HD95 / parameter counting, against
brute-force oracles."""

import math
import warnings

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

from oracles import dice_naive, hd95_naive, stencil_walk_naive, surface_points_naive


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
    P_idx, G_idx = metrics.surface_voxels(a), metrics.surface_voxels(b)
    pooled = []
    for src_idx, dst_idx in ((P_idx, G_idx), (G_idx, P_idx)):
        src, dst = src_idx * sp, dst_idx * sp
        want = _brute_min_dists(src, dst)
        assert np.array_equal(metrics._directed_min_dists(src, dst), want)
        assert np.array_equal(metrics._nearest_dists(src_idx, dst_idx, sp), want)
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
# HD95's voxel-offset stencil, and the points it leaves to the matmul candidates


@pytest.fixture
def fallback_rows(monkeypatch):
    """Rows ``hd95`` sends to ``_directed_min_dists``, per call, at R = 2."""
    monkeypatch.setattr(metrics, "_STENCIL_RADIUS", 2)
    rows = []
    directed = metrics._directed_min_dists

    def spy(src, dst):
        rows.append(len(src))
        return directed(src, dst)

    monkeypatch.setattr(metrics, "_directed_min_dists", spy)
    return rows


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.3, 2.1)])
def test_hd95_targets_beyond_the_stencil_match_bruteforce_bitwise(fallback_rows, spacing):
    # a ball against one shifted 5 voxels, plus scattered voxels far from both
    a = _ball((30, 30, 30), (12, 14, 14), 7)
    b = _ball((30, 30, 30), (17, 14, 14), 7)
    far = T.rng(9).uniform(size=a.shape) > 0.995
    a |= far
    _assert_bitwise_brute(a, b, spacing)
    assert sum(fallback_rows) > 0


def test_hd95_nearest_pair_at_the_completeness_bound(fallback_rows):
    # at R = 2 and unit spacing the bound is 3 = (R+1)·1: (2,2,1) inside the cube ties with
    # (3,0,0) outside it, and (2,2,2) inside loses to (3,0,0); at spacing (2, 0.5, 1) the only
    # target lies (R+1)·0.5 away, just outside the cube. No point settles in the stencil.
    a = np.zeros((9, 9, 9), dtype=bool)
    a[4, 4, 4] = True
    for inside, spacing, want in [((6, 6, 5), (1.0, 1.0, 1.0), 3.0),
                                  ((6, 6, 6), (1.0, 1.0, 1.0), math.sqrt(12.0)),
                                  ((4, 7, 4), (2.0, 0.5, 1.0), 1.5)]:
        b = np.zeros_like(a)
        b[inside] = True
        if spacing == (1.0, 1.0, 1.0):
            b[1, 4, 4] = True
        fallback_rows.clear()
        assert hd95(a, b, spacing) == want
        assert fallback_rows == [1, int(b.sum())]
        _assert_bitwise_brute(a, b, spacing)


# axis steps one ulp apart: their keys differ by far less than the rounding band
_ULP_SPACING = (0.3, float(np.nextafter(0.3, 1.0)), float(np.nextafter(np.nextafter(0.3, 1.0), 1.0)))


def test_hd95_near_ties_inside_the_band_match_bruteforce_bitwise(fallback_rows):
    # the walk keeps checking past the first hit and takes the exact minimum
    sp = _ULP_SPACING
    g = T.rng(10)
    for _ in range(3):
        _assert_bitwise_brute(g.uniform(size=(16, 16, 16)) > 0.5,
                              g.uniform(size=(16, 16, 16)) > 0.55, sp)
    _assert_bitwise_brute(_ball((40, 40, 40), (19, 20, 19), 15), _ball((40, 40, 40), (20, 19, 20), 15), sp)


@pytest.mark.parametrize("spacing", [(2.5, 0.7, 0.7), _ULP_SPACING])
def test_float32_scores_far_from_the_origin_match_bruteforce_bitwise(spacing):
    # targets spanning indices 1000-2000 make M, and so the float32 rounding of the scores,
    # large beside the few-voxel distances that decide each row; sources sit amid clustered
    # shells of targets at nearly one distance, so rows have several candidates within tol
    sp = np.asarray(spacing)
    g = T.rng(13)
    cube = np.indices((9, 9, 9)).reshape(3, -1).T - 4
    length = np.sqrt(((cube * sp) ** 2).sum(-1))
    shell = cube[np.abs(length - np.median(length)) < 0.1 * sp.min()]
    centres = g.integers(1000, 2000, (6, 3))
    dst = np.concatenate([c + shell for c in centres] + [[[1000] * 3, [2000] * 3]]) * sp
    src = (np.repeat(centres, 40, axis=0) + g.integers(-1, 2, (240, 3))) * sp
    assert np.array_equal(metrics._directed_min_dists(src, dst), _brute_min_dists(src, dst))
    lhs, rhs, tol = metrics._score_operands(src, dst)
    scores = lhs @ rhs
    candidates = (scores <= scores.min(axis=1, keepdims=True) + tol[:, None]).sum(axis=1)
    assert candidates.max() >= 2


@pytest.mark.parametrize("spacing", [(1e30, 3e30, 1e30), (1e-21, 2e-21, 1e-21)])
def test_float32_scores_at_extreme_spacings_match_bruteforce_bitwise(spacing):
    # squared coordinates past float32's range, or among its subnormals: the scores are taken
    # on coordinates scaled by a power of two, which the float32 bound assumes
    g = T.rng(14)
    a = g.uniform(size=(16, 16, 16)) > 0.5
    b = g.uniform(size=(16, 16, 16)) > 0.97
    _assert_bitwise_brute(a, b, spacing)


def test_hd95_one_voxel_shift_settles_every_point_in_the_stencil(fallback_rows):
    a = _ball((32, 32, 32), (15, 15, 15), 10)
    b = np.roll(a, 1, axis=1)
    assert hd95(a, b) == 1.0
    assert fallback_rows == []
    _assert_bitwise_brute(a, b, (1.0, 1.0, 1.0))


def _assert_stencil_is_the_walk(src_idx, dst_idx, spacing):
    sp = np.asarray(spacing, dtype=np.float64)
    d2, settled = metrics._stencil_min_d2(src_idx, dst_idx, sp)
    want_d2, want_settled = stencil_walk_naive(src_idx, dst_idx, sp, metrics._STENCIL_RADIUS)
    assert np.array_equal(d2, want_d2)
    assert np.array_equal(settled, want_settled)
    return d2, settled


@pytest.mark.parametrize("budget", [None, 97])
@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.3, 2.1), (0.5, 0.5, 3.0), (1.1, 0.9, 1.0),
                                     _ULP_SPACING])
def test_stencil_batches_equal_the_walk_one_offset_at_a_time(monkeypatch, fallback_rows, budget, spacing):
    if budget is not None:  # many row chunks per batch
        monkeypatch.setattr(metrics, "_CHUNK_SCORES", budget)
    g = T.rng(12)
    for _ in range(3):
        a = metrics.surface_voxels(g.uniform(size=(14, 12, 13)) > 0.55)
        b = metrics.surface_voxels(g.uniform(size=(14, 12, 13)) > 0.9)
        _assert_stencil_is_the_walk(a, b, spacing)
        _assert_stencil_is_the_walk(b, a, spacing)
    a = metrics.surface_voxels(_ball((24, 24, 24), (11, 12, 11), 8))
    b = metrics.surface_voxels(_ball((24, 24, 24), (12, 11, 13), 7))
    _assert_stencil_is_the_walk(a, b, spacing)


def test_stencil_first_hit_past_the_bound_leaves_the_point_open(fallback_rows):
    # at R = 2 and unit spacing the corner offset (2,2,2) is keyed 12, past the bound 9: its hit
    # is not taken, so the point stays open; (2,2,1), keyed 9, is taken and settles nothing
    src = np.array([[4, 4, 4]])
    for dst, want_d2 in [([[6, 6, 6]], np.inf), ([[6, 6, 5]], 9.0)]:
        d2, settled = _assert_stencil_is_the_walk(src, np.array(dst), (1.0, 1.0, 1.0))
        assert d2[0] == want_d2 and not settled[0]


def test_stencil_near_tie_inside_the_band_takes_the_exact_minimum(fallback_rows):
    # one step along each axis, their keys one or two ulps apart: the first hit is the shortest
    # key, yet every offset keyed within the band is measured
    src = np.array([[3, 3, 3]])
    dst = np.array([[3, 3, 4], [3, 4, 3], [4, 3, 3]])
    d2, settled = _assert_stencil_is_the_walk(src, dst, _ULP_SPACING)
    sp = np.asarray(_ULP_SPACING)
    assert d2[0] == min(((src[0] * sp - q * sp) ** 2).sum() for q in dst) and settled[0]


@pytest.mark.parametrize("spacing", [(1.0, 1.0), (float("nan"), 1.0, 1.0), (0.0, 1.0, 1.0),
                                     (1.0, -1.0, 1.0), (1.0, 1.0, float("inf"))])
def test_hd95_rejects_a_bad_spacing(spacing):
    m = _ball((6, 6, 6), (3, 3, 3), 2)
    with pytest.raises(MetricError, match="spacing"):
        hd95(m, m, spacing)


def test_hd95_rejects_a_spacing_whose_squared_distances_overflow():
    # at 1e150 mm a 64³ volume's squared distances reach about 1e304 and still score; at 1e200
    # they would overflow to inf, which eval would write to metrics.json as Infinity, not valid JSON
    a = _ball((64, 64, 64), (31, 31, 31), 12)
    b = np.roll(a, 2, axis=1)
    assert math.isclose(hd95(a, b, (1e150,) * 3), 1e150 * hd95(a, b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricError, match=r"spacing \(1e\+200, 1e\+200, 1e\+200\) mm is too large for a "
                                              r"\(64, 64, 64\) volume"):
            hd95(a, b, (1e200,) * 3)


def test_hd95_rejects_masks_of_different_shapes():
    with pytest.raises(MetricError, match=r"mask shapes differ: \(4, 4, 4\) vs \(6, 4, 4\)"):
        hd95(np.ones((4, 4, 4), dtype=bool), np.ones((6, 4, 4), dtype=bool))


# ---------------------------------------------------------------------------
# surface voxels, against the per-voxel loop


def _surface_cases():
    g = T.rng(11)
    for shape, p in [((7, 8, 9), 0.5), ((10, 6, 5), 0.8), ((5, 5, 5), 0.2)]:
        yield g.uniform(size=shape) < p
    faces = _ball((9, 10, 11), (4, 5, 5), 6)  # clipped by all six faces of the volume
    assert faces[0].any() and faces[-1].any() and faces[:, 0].any() and faces[:, -1].any()
    assert faces[..., 0].any() and faces[..., -1].any()
    yield faces
    one = np.zeros((5, 6, 7), dtype=bool)
    one[2, 3, 4] = True
    yield one
    yield np.ones((4, 5, 6), dtype=bool)
    slab = np.zeros((6, 7, 8), dtype=bool)
    slab[:, 3] = True
    yield slab
    yield g.uniform(size=(1, 5, 7)) < 0.6
    yield g.uniform(size=(9, 1, 4)) < 0.6


@pytest.mark.parametrize("mask", list(_surface_cases()))
def test_surface_voxels_equal_the_per_voxel_loop_in_order(mask):
    got = metrics.surface_voxels(mask)
    want = np.array(surface_points_naive(mask), dtype=np.int64).reshape(-1, 3)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


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
