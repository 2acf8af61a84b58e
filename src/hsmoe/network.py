"""U-shaped encoder-decoder over the stage blocks.

Encoder: strided stem (halves each spatial extent), then per stage a block
stack followed by a downsampling conv that halves space and doubles channels.
Decoder: transposed-conv upsampling, skip concatenation, two refining convs
per stage; the head undoes the stem stride and projects to class logits.

Input extents must be divisible by 2**num_stages so every halving is exact;
this is validated up front rather than hidden behind implicit padding.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from . import nn, tensor as T
from .blocks import EncoderBlock, norm_channels
from .config import ConfigError, NetworkConfig
from .tensor import Tensor


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
        h = nn.gelu(norm_channels(self.norm1, self.conv1(h)))
        return nn.gelu(norm_channels(self.norm2, self.conv2(h)))


class SegNet(nn.Module):
    """Complete segmentation network for dense 3D volumes."""

    def __init__(self, cfg: NetworkConfig, seed: int = 0):
        cfg.validate()
        rng = T.rng(seed)
        self.stem = Stem(cfg.in_channels, cfg.stem_channels, rng)
        self.blocks = [EncoderBlock(stage, cfg.layers_per_stage[i], cfg.norm,
                                    cfg.ssm_state_dim, cfg.scan_block_size, rng)
                       for i, stage in enumerate(cfg.stages)]
        self.downs = [DownSample(cfg.channels[i], rng) for i in range(cfg.num_stages - 1)]
        self.ups = [UpBlock(cfg.channels[i], rng) for i in range(cfg.num_stages - 1)]
        self.head_up = nn.ConvTranspose3d(cfg.stem_channels, cfg.stem_channels, rng)
        self.head_conv = nn.Conv3d(cfg.stem_channels, cfg.num_classes, 1, rng)
        self.cfg = cfg

    def _validate_input(self, x: Tensor) -> None:
        if x.ndim != 5 or x.shape[1] != self.cfg.in_channels:
            raise ConfigError(f"expected [B,{self.cfg.in_channels},D,H,W], got {x.shape}")
        div = 2 ** self.cfg.num_stages
        for n in x.shape[2:]:
            if n % div:
                raise ConfigError(f"spatial extent {n} not divisible by {div} "
                                  f"(2**stages): pad input volumes")
            if n < div:
                raise ConfigError(f"spatial extent {n} vanishes before the bottleneck; "
                                  f"need at least {div}")

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
        return self.head_conv(self.head_up(h))

    def __call__(self, x: Tensor) -> Tensor:
        return self.decoder_forward(self.encoder_forward(x))


# ---------------------------------------------------------------------------
# parameter manifest: (name, shape) pairs without allocating the network.
# Mirrors the module construction above; tests pin exact agreement with
# named_parameters() on instantiable configs.


def _linear(name: str, i: int, o: int):
    yield f"{name}.weight", (i, o)
    yield f"{name}.bias", (o,)


def _bank(name: str, num: int, d: int, ratio: int):
    r = ratio * d
    yield f"{name}.w1", (num, d, r)
    yield f"{name}.b1", (num, 1, r)
    yield f"{name}.w2", (num, r, d)
    yield f"{name}.b2", (num, 1, d)


def _norm(name: str, kind: str, d: int):
    if kind == "dyt":
        yield f"{name}.w", (d,)
        yield f"{name}.b", (d,)
        yield f"{name}.alpha", ()
    else:
        yield f"{name}.gamma", (d,)
        yield f"{name}.beta", (d,)


def _conv(name: str, i: int, o: int, k: int):
    yield f"{name}.weight", (o, i, k, k, k)
    yield f"{name}.bias", (o,)


def _conv_t(name: str, i: int, o: int):
    yield f"{name}.weight", (i, o, 2, 2, 2)
    yield f"{name}.bias", (o,)


def _gated_ssm(name: str, d: int, n: int):
    yield from _linear(f"{name}.in_proj", d, 2 * d)
    yield f"{name}.ssm.decay_rate", (d, n)
    yield from _linear(f"{name}.ssm.step_proj", d, d)
    yield from _linear(f"{name}.ssm.input_map", d, n)
    yield from _linear(f"{name}.ssm.output_map", d, n)
    yield f"{name}.ssm.skip", (d,)
    yield from _linear(f"{name}.out_proj", d, d)


def _moe(name: str, stage) -> Iterator:
    d = stage.dim
    yield f"{name}.slot_emb", (stage.num_experts, stage.slots_per_expert, d)
    yield from _linear(f"{name}.router1", d, stage.num_experts)
    yield from _bank(f"{name}.experts1", stage.num_experts, d, stage.ffn_ratio)
    yield from _linear(f"{name}.router2", d, stage.num_experts_l2)
    yield from _bank(f"{name}.experts2", stage.num_experts_l2, d, stage.ffn_ratio)


def _block_layer(name: str, stage, norm: str, n: int):
    d = stage.dim
    yield from _conv(f"{name}.gsc.main", d, d, 3)
    yield from _conv(f"{name}.gsc.gate", d, d, 1)
    yield from _conv(f"{name}.gsc.out", d, d, 3)
    yield from _norm(f"{name}.norm_scan", norm, d)
    yield from _gated_ssm(f"{name}.scan", d, n)
    yield from _norm(f"{name}.norm_moe", norm, d)
    yield from _moe(f"{name}.moe", stage)
    yield from _linear(f"{name}.proj", d, d)


def parameter_manifest(cfg: NetworkConfig) -> List[Tuple[str, Tuple[int, ...]]]:
    """Name/shape of every parameter the network would allocate."""
    cfg.validate()
    out = []
    out.extend(_conv("stem.conv", cfg.in_channels, cfg.stem_channels, 3))
    for i, stage in enumerate(cfg.stages):
        for l in range(cfg.layers_per_stage[i]):
            out.extend(_block_layer(f"blocks.{i}.layers.{l}", stage, cfg.norm, cfg.ssm_state_dim))
    for i in range(cfg.num_stages - 1):
        out.extend(_conv(f"downs.{i}.conv", cfg.channels[i], 2 * cfg.channels[i], 3))
    for i in range(cfg.num_stages - 1):
        c = cfg.channels[i]
        out.extend(_conv_t(f"ups.{i}.up", 2 * c, c))
        out.extend(_conv(f"ups.{i}.conv1", 2 * c, c, 3))
        out.extend(_norm(f"ups.{i}.norm1", "ln", c))
        out.extend(_conv(f"ups.{i}.conv2", c, c, 3))
        out.extend(_norm(f"ups.{i}.norm2", "ln", c))
    out.extend(_conv_t("head_up", cfg.stem_channels, cfg.stem_channels))
    out.extend(_conv("head_conv", cfg.stem_channels, cfg.num_classes, 1))
    return out


def manifest_parameter_count(cfg: NetworkConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape in parameter_manifest(cfg))
