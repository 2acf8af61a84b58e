"""U-shaped encoder-decoder over the stage blocks.

Encoder: strided stem (halves each spatial extent), then per stage a block
stack followed by a downsampling conv that halves space and doubles channels.
Decoder: transposed-conv upsampling, skip concatenation, two refining convs
per stage; the head undoes the stem stride and projects to class logits, as
one transposed conv composed from its two linear layers.

Input extents must be divisible by 2**num_stages so every halving is exact;
this is validated up front rather than hidden behind implicit padding.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from . import nn, tensor as T
from .blocks import EncoderBlock
from .config import ConfigError, NetworkConfig
from .tensor import Tensor

IN_CHANNELS = 1  # one image channel per voxel


class Stem(nn.Module):
    """Strided conv: [B,C,D,H,W] -> [B,stem_channels,D/2,H/2,W/2]."""

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        self.conv = nn.Conv3d(in_ch, out_ch, 3, rng, stride=2, padding=1)

    def __call__(self, x: Tensor) -> Tensor:
        if any(n % 2 for n in x.shape[2:]):
            raise ConfigError(f"stem needs even spatial extents, got {x.shape[2:]}: pad input volumes")
        return self.conv(x)


class DownSample(nn.Module):
    """Halve spatial extents, double channels."""

    def __init__(self, channels: int, rng: np.random.Generator):
        self.conv = nn.Conv3d(channels, 2 * channels, 3, rng, stride=2, padding=1)

    def __call__(self, x: Tensor) -> Tensor:
        return self.conv(x)


class UpBlock(nn.Module):
    """Upsample x2, concatenate the skip, refine with two convs.

    Decoder normalization is always LayerNorm: without a residual stream a
    squashing normalization (DyT) multiplied by the activation's small-signal
    gain collapses spatial variance across the upsampling chain, while
    LayerNorm rescales to unit variance at every stage. The DyT/LN selector
    applies to the encoder block normalizations, which sit on residual paths.
    Each LayerNorm runs over the volume's channel axis, with no token layout.
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        self.up = nn.ConvTranspose3d(2 * channels, channels, rng)
        self.conv1 = nn.Conv3d(2 * channels, channels, 3, rng, padding=1)
        self.norm1 = nn.LayerNorm(channels)
        self.conv2 = nn.Conv3d(channels, channels, 3, rng, padding=1)
        self.norm2 = nn.LayerNorm(channels)

    def __call__(self, skip: Tensor, below: Tensor) -> Tensor:
        u = self.up(below)
        if u.shape != skip.shape:
            raise ConfigError(f"decoder skip shape {skip.shape} does not match upsampled {u.shape}")
        h = T.concatenate([skip, u], axis=1)
        h = nn.gelu(self.norm1(self.conv1(h), axis=1))
        return nn.gelu(self.norm2(self.conv2(h), axis=1))


class SegNet(nn.Module):
    """Complete segmentation network for dense 3D volumes.

    ``seed=None`` builds it shape-only: every drawn parameter is lazily zeroed
    memory (``nn.uniform``), so the names and shapes of even the full preset
    are listed without drawing a value or touching its pages.
    """

    def __init__(self, cfg: NetworkConfig, seed: Optional[int] = 0):
        rng = None if seed is None else T.rng(seed)
        self.stem = Stem(IN_CHANNELS, cfg.stem_channels, rng)
        self.blocks = [EncoderBlock(stage, cfg.layers_per_stage[i], cfg.norm,
                                    cfg.ssm_state_dim, cfg.scan_block_size, rng)
                       for i, stage in enumerate(cfg.stages)]
        self.downs = [DownSample(cfg.channels[i], rng) for i in range(cfg.num_stages - 1)]
        self.ups = [UpBlock(cfg.channels[i], rng) for i in range(cfg.num_stages - 1)]
        self.head_up = nn.ConvTranspose3d(cfg.stem_channels, cfg.stem_channels, rng)
        self.head_conv = nn.Conv3d(cfg.stem_channels, cfg.num_classes, 1, rng)
        self.cfg = cfg

    def _validate_input(self, x: Tensor) -> None:
        if x.ndim != 5 or x.shape[1] != IN_CHANNELS:
            raise ConfigError(f"expected [B,{IN_CHANNELS},D,H,W], got {x.shape}")
        self.cfg.check_extents(x.shape[2:], "spatial extent")

    def encoder_forward(self, x: Tensor) -> List[Tensor]:
        """Stage features (block outputs) from fine to coarse; the last entry
        is the bottleneck."""
        self._validate_input(x)
        feats = []
        h = self.stem(x)
        for i, block in enumerate(self.blocks):
            h = block(h)
            feats.append(h)
            if i < len(self.downs):
                h = self.downs[i](h)
        return feats

    def decoder_forward(self, feats: List[Tensor]) -> Tensor:
        h = feats[-1]
        for i in range(len(self.ups) - 1, -1, -1):
            h = self.ups[i](feats[i], h)
        # head_conv(head_up(h)) as one transposed conv with weight W_t W_1^T and
        # bias W_1 b_t + b_1, traced so both layers keep their gradients; the
        # [B, stem_channels, D, H, W] map is never built
        up, conv = self.head_up, self.head_conv
        C, S = up.weight.shape[:2]
        K = conv.weight.shape[0]
        w1 = T.reshape(conv.weight, (K, S))
        weight = T.reshape(T.matmul(w1, T.reshape(up.weight, (C, S, 8))), (C, K, 2, 2, 2))
        bias = T.add(T.reshape(T.matmul(w1, T.reshape(up.bias, (S, 1))), (K,)), conv.bias)
        return nn.conv_transpose3d(h, weight, bias)

    def __call__(self, x: Tensor) -> Tensor:
        return self.decoder_forward(self.encoder_forward(x))
