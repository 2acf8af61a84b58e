"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (explicit Python loops over scalars)
and written directly from the defining formulas, so the production paths are
checked against code that shares nothing with them.
"""

import math

import numpy as np


def scan_naive(decay, drive):
    """Per-element sequential recurrence h_t = a_t*h_{t-1} + u_t (h_0=0)."""
    decay = np.asarray(decay, dtype=np.float64)
    drive = np.asarray(drive, dtype=np.float64)
    out = np.zeros_like(drive)
    B, N = drive.shape[:2]
    flat_a = decay.reshape(B, N, -1)
    flat_u = drive.reshape(B, N, -1)
    flat_o = out.reshape(B, N, -1)
    for b in range(B):
        for j in range(flat_u.shape[2]):
            h = 0.0
            for t in range(N):
                h = flat_a[b, t, j] * h + flat_u[b, t, j]
                flat_o[b, t, j] = h
    return out


def selective_scan_naive(x, delta, A, B, C, D):
    """Per-channel, per-state loop of the discretized selective scan (h_0=0):
    h_t[j,k] = exp(delta_t[j] A[j,k]) h_{t-1}[j,k] + delta_t[j] B_t[k] x_t[j],
    y_t[j] = sum_k C_t[k] h_t[j,k] + D[j] x_t[j].

    x, delta: [B,N,d]; A: [d,n]; B, C: [B,N,n]; D: [d]. Returns [B,N,d].
    """
    x, delta, A, B, C, D = (np.asarray(v, dtype=np.float64) for v in (x, delta, A, B, C, D))
    nb, N, d = x.shape
    n = A.shape[1]
    y = np.zeros((nb, N, d))
    for b in range(nb):
        for j in range(d):
            h = [0.0] * n
            for t in range(N):
                acc = D[j] * x[b, t, j]
                for k in range(n):
                    h[k] = (math.exp(delta[b, t, j] * A[j, k]) * h[k]
                            + delta[b, t, j] * B[b, t, k] * x[b, t, j])
                    acc += C[b, t, k] * h[k]
                y[b, t, j] = acc
    return y


def hierarchical_moe_naive(x, mask, group_size, slot_emb, router1_w, router1_b,
                           expert_fns1, router2_w, router2_b, expert_fns2):
    """Monolithic loop implementation of the full routing layer.

    x: [B,N,d]; mask: [B,N] of {0,1} or None; slot_emb: [E,S,d];
    router weights are (d,E)/(E,) affine maps; expert_fns are callables
    mapping a 1-D feature vector to a 1-D feature vector.
    Returns [B,N,d].
    """
    x = np.asarray(x, dtype=np.float64)
    B, N, d = x.shape
    E, S, _ = slot_emb.shape
    M = E * S
    K = group_size
    G = math.ceil(N / K)
    Np = G * K
    if mask is None:
        mask = np.ones((B, N))
    mhat = np.zeros((B, Np))
    mhat[:, :N] = mask
    xp = np.zeros((B, Np, d))
    xp[:, :N] = x

    # assignment logits, per-token softmax over the combined expert-slot dim
    A = np.zeros((B, G, K, M))
    for b in range(B):
        for g in range(G):
            for k in range(K):
                if mhat[b, g * K + k] == 0:
                    continue  # padded token: exact-zero dispatch row
                logits = np.zeros(M)
                for e in range(E):
                    for s in range(S):
                        m = e * S + s
                        logits[m] = sum(xp[b, g * K + k, j] * slot_emb[e, s, j]
                                        for j in range(d))
                zmax = logits.max()
                ez = np.exp(logits - zmax)
                A[b, g, k] = ez / ez.sum()

    # slot aggregation
    slots = np.zeros((B, G, M, d))
    for b in range(B):
        for g in range(G):
            for m in range(M):
                for j in range(d):
                    slots[b, g, m, j] = sum(A[b, g, k, m] * xp[b, g * K + k, j]
                                            for k in range(K))

    # level 1: group-pooled router, dense mixture over experts
    y1 = np.zeros_like(slots)
    for b in range(B):
        for g in range(G):
            pooled = slots[b, g].mean(axis=0)
            logits = pooled @ router1_w + router1_b
            p = np.exp(logits - logits.max())
            p = p / p.sum()
            for e, fn in enumerate(expert_fns1):
                for m in range(M):
                    y1[b, g, m] += p[e] * fn(slots[b, g, m])

    # level 2: per-position router over the flattened slot sequence
    y2 = np.zeros((B, G * M, d))
    flat = y1.reshape(B, G * M, d)
    for b in range(B):
        for i in range(G * M):
            logits = flat[b, i] @ router2_w + router2_b
            p = np.exp(logits - logits.max())
            p = p / p.sum()
            for e2, fn in enumerate(expert_fns2):
                y2[b, i] += p[e2] * fn(flat[b, i])

    # combine with the dispatch weights, drop padding
    y2g = y2.reshape(B, G, M, d)
    out = np.zeros((B, Np, d))
    for b in range(B):
        for g in range(G):
            for k in range(K):
                for m in range(M):
                    out[b, g * K + k] += A[b, g, k, m] * y2g[b, g, m]
    return out[:, :N]


def ffn_closure(lin1_w, lin1_b, lin2_w, lin2_b, activation):
    """Build a 1-D expert callable from affine weights (for the naive oracle)."""

    def gelu(v):
        c = math.sqrt(2.0 / math.pi)
        return 0.5 * v * (1.0 + np.tanh(c * (v + 0.044715 * v ** 3)))

    acts = {"gelu": gelu, "tanh": np.tanh, "identity": lambda v: v}
    act = acts[activation]

    def fn(vec):
        return act(vec @ lin1_w + lin1_b) @ lin2_w + lin2_b

    return fn


def conv3d_naive(x, weight, bias, stride, padding):
    """Direct 3D cross-correlation from the definition.

    out[b,o,z,y,w] = bias[o] + sum over c,i,j,l of
    weight[o,c,i,j,l] * x[b,c, stride*z+i-padding, stride*y+j-padding, stride*w+l-padding],
    where reads outside the input are zero. x: [B,C,D,H,W]; weight: [O,C,k,k,k].
    """
    x = np.asarray(x, dtype=np.float64)
    B, C, D, H, W = x.shape
    O, _, k = weight.shape[:3]
    Do, Ho, Wo = ((n + 2 * padding - k) // stride + 1 for n in (D, H, W))
    out = np.zeros((B, O, Do, Ho, Wo))
    for b in range(B):
        for o in range(O):
            for z in range(Do):
                for y in range(Ho):
                    for w in range(Wo):
                        acc = bias[o]
                        for c in range(C):
                            for i in range(k):
                                for j in range(k):
                                    for l in range(k):
                                        zi = stride * z + i - padding
                                        yi = stride * y + j - padding
                                        wi = stride * w + l - padding
                                        if 0 <= zi < D and 0 <= yi < H and 0 <= wi < W:
                                            acc += weight[o, c, i, j, l] * x[b, c, zi, yi, wi]
                        out[b, o, z, y, w] = acc
    return out


def dice_naive(pred, gt, cls):
    """Voxel-counting Dice for one class (empty/empty -> 1.0)."""
    p = (np.asarray(pred) == cls)
    g = (np.asarray(gt) == cls)
    inter = int(np.logical_and(p, g).sum())
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * inter / denom


def surface_points_naive(mask):
    """Foreground voxels with any 6-neighbor outside the mask (volume border
    counts as outside)."""
    mask = np.asarray(mask, dtype=bool)
    pts = []
    D, H, W = mask.shape
    for z in range(D):
        for y in range(H):
            for x in range(W):
                if not mask[z, y, x]:
                    continue
                on_surface = False
                for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    nz, ny, nx = z + dz, y + dy, x + dx
                    if not (0 <= nz < D and 0 <= ny < H and 0 <= nx < W) or not mask[nz, ny, nx]:
                        on_surface = True
                        break
                if on_surface:
                    pts.append((z, y, x))
    return pts


def hd95_naive(pred_mask, gt_mask, spacing=(1.0, 1.0, 1.0)):
    """Brute-force pooled bidirectional surface distances, nearest-rank p95."""
    P = surface_points_naive(pred_mask)
    G = surface_points_naive(gt_mask)
    assert P and G, "oracle requires nonempty masks"
    sp = np.asarray(spacing, dtype=np.float64)

    def dist(a, b):
        return math.sqrt(sum(((ai - bi) * si) ** 2 for ai, bi, si in zip(a, b, sp)))

    pooled = []
    for p in P:
        pooled.append(min(dist(p, g) for g in G))
    for g in G:
        pooled.append(min(dist(g, p) for p in P))
    pooled.sort()
    rank = math.ceil(0.95 * len(pooled))  # nearest-rank, 1-based
    return pooled[rank - 1]


def stencil_walk_naive(src_idx, dst_idx, sp, radius):
    """HD95's stencil walked one offset at a time: the offsets of the cube
    [-radius, radius]^3 in ascending spacing-weighted length, one gather per
    offset over the source points still open. A point's first hit sets its
    limit to that offset's key plus the rounding band; every later hit keyed
    within the limit is measured exactly. Returns (d2, settled)."""
    src_idx = np.asarray(src_idx)
    sp = np.asarray(sp, dtype=np.float64)
    R = radius
    src = src_idx * sp
    top = np.maximum(src_idx.max(0), dst_idx.max(0))
    extent = top + 1 + 2 * R
    strides = np.array([extent[1] * extent[2], extent[2], 1])
    occupied = np.zeros(int(np.prod(extent)), dtype=bool)
    occupied[(dst_idx + R) @ strides] = True
    at = (src_idx + R) @ strides
    cube = np.indices((2 * R + 1,) * 3).reshape(3, -1).T - R
    keys = ((cube * sp) ** 2).sum(-1)
    order = np.argsort(keys, kind="stable")
    bound = ((R + 1) * sp.min()) ** 2
    band = 16 * np.finfo(np.float64).eps * ((top * sp).max() ** 2 + bound)
    d2 = np.full(len(src), np.inf)
    limit = np.full(len(src), bound)
    open_ = np.arange(len(src))
    for off, key in zip(cube[order], keys[order]):
        open_ = open_[limit[open_] >= key]
        if not len(open_):
            break
        hit = open_[occupied[at[open_] + off @ strides]]
        limit[hit[d2[hit] == np.inf]] = key + band
        d2[hit] = np.minimum(d2[hit], ((src[hit] - (src_idx[hit] + off) * sp) ** 2).sum(-1))
    return d2, d2 + band < bound
