"""Encoder block: gated spatial convolution, then two residual sub-layers
(normalize -> gated scan, normalize -> hierarchical MoE -> linear), applied a
configurable number of times per stage.

Sequence sub-layers see the volume flattened to tokens in raster order
(depth-major, then height, then width); the block reshapes back afterwards.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import nn, tensor as T
from .config import StageConfig
from .routing import HierarchicalMoE
from .ssm import GatedSSM
from .tensor import Tensor


def to_tokens(x: Tensor) -> Tensor:
    """[B,C,D,H,W] -> [B, D*H*W, C] in raster order."""
    B, C, D, H, W = x.shape
    return T.reshape(T.permute(x, (0, 2, 3, 4, 1)), (B, D * H * W, C))


def to_volume(seq: Tensor, spatial: Tuple[int, int, int]) -> Tensor:
    """Inverse of to_tokens."""
    B, N, C = seq.shape
    D, H, W = spatial
    return T.permute(T.reshape(seq, (B, D, H, W, C)), (0, 4, 1, 2, 3))


class GatedSpatialConv(nn.Module):
    """conv_out(conv_main(x) * sigmoid(conv_gate(x))) + x, channel-preserving.

    Kernel sizes 3/1/3 for main/gate/out.
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        self.main = nn.Conv3d(channels, channels, 3, rng, padding=1)
        self.gate = nn.Conv3d(channels, channels, 1, rng)
        self.out = nn.Conv3d(channels, channels, 3, rng, padding=1)

    def __call__(self, x: Tensor) -> Tensor:
        gated = T.mul(self.main(x), T.sigmoid(self.gate(x)))
        return T.add(self.out(gated), x)


class BlockLayer(nn.Module):
    """One layer of the stage composition with both residual paths."""

    def __init__(self, stage: StageConfig, norm: str, ssm_state_dim: int, rng: np.random.Generator):
        d = stage.dim
        self.gsc = GatedSpatialConv(d, rng)
        self.norm_scan = nn.NORMS[norm](d)
        self.scan = GatedSSM(d, ssm_state_dim, rng)
        self.norm_moe = nn.NORMS[norm](d)
        self.moe = HierarchicalMoE(stage, rng)
        self.proj = nn.Linear(d, d, rng)

    def __call__(self, x: Tensor) -> Tensor:
        B, C, D, H, W = x.shape
        xh = self.gsc(x)
        seq = to_tokens(xh)
        xt = T.add(self.scan(self.norm_scan(seq)), seq)
        # dense volumes: every token is valid, padding arises only from grouping
        xo = T.add(self.proj(self.moe(self.norm_moe(xt))), xt)
        return to_volume(xo, (D, H, W))


class EncoderBlock(nn.Module):
    """A stack of ``layers`` BlockLayers sharing one stage configuration."""

    def __init__(self, stage: StageConfig, layers: int, norm: str, ssm_state_dim: int,
                 rng: np.random.Generator):
        self.layers = [BlockLayer(stage, norm, ssm_state_dim, rng) for _ in range(layers)]

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


def zero_residual_branches(block: EncoderBlock) -> None:
    """Zero the terminal map of every residual branch so each layer becomes
    the identity (the two residual additions carry the input through)."""
    for layer in block.layers:
        for tail in (layer.gsc.out, layer.scan.out_proj, layer.proj):
            tail.weight.data[:] = 0.0
            tail.bias.data[:] = 0.0
