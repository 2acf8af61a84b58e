"""Dataclass configs: per-stage routing hyperparameters, network layout,
training settings, plus the named presets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


@dataclass(frozen=True)
class StageConfig:
    """Routing hyperparameters for one encoder stage."""

    dim: int
    num_experts: int
    group_size: int
    slots_per_expert: int
    num_experts_l2: Optional[int] = None  # defaults to 2 * num_experts

    def __post_init__(self):
        if self.num_experts_l2 is None:
            object.__setattr__(self, "num_experts_l2", 2 * self.num_experts)
        for name in ("dim", "num_experts", "group_size", "slots_per_expert", "num_experts_l2"):
            if getattr(self, name) < 1:
                raise ConfigError(f"StageConfig.{name} must be >= 1, got {getattr(self, name)}")

    @property
    def slots_per_group(self) -> int:
        return self.num_experts * self.slots_per_expert


def group_size_schedule(base: int, stages: int) -> Tuple[int, ...]:
    """Group sizes halve at every stage: size_t = base // 2^(t-1), so base
    must be a positive multiple of 2^(stages-1)."""
    if base < 1 or base % 2 ** (stages - 1):
        raise ConfigError(f"base group size {base} must be a positive multiple of "
                          f"{2 ** (stages - 1)} to halve over {stages} stages")
    return tuple(base // 2 ** t for t in range(stages))


@dataclass(frozen=True)
class NetworkConfig:
    """Full encoder-decoder layout. Channels double per stage from the stem."""

    num_classes: int
    in_channels: int = 1
    stem_channels: int = 8
    layers_per_stage: Tuple[int, ...] = (1, 1, 1, 1)
    norm: str = "dyt"
    ssm_state_dim: int = 8
    scan_block_size: int = 64
    stages: Tuple[StageConfig, ...] = ()

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def channels(self) -> Tuple[int, ...]:
        return tuple(self.stem_channels * 2 ** i for i in range(self.num_stages))

    def check_extents(self, extents: Sequence[int], what: str) -> None:
        """The input-extent rule: every spatial extent is a positive multiple
        of 2**num_stages, so each halving (stem and downsamples) is exact and
        none vanishes before the bottleneck. ``what`` names the extents."""
        div = 2 ** self.num_stages
        for n in extents:
            if n < 1 or n % div:
                raise ConfigError(f"{what} {n} must be a positive multiple of {div} (2**stages)")

    def validate(self) -> "NetworkConfig":
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.num_stages < 2:
            raise ConfigError(f"need at least 2 stages, got {self.num_stages}")
        if len(self.layers_per_stage) != self.num_stages:
            raise ConfigError(f"layers_per_stage {self.layers_per_stage} must have one entry per stage "
                              f"({self.num_stages})")
        if any(l < 1 for l in self.layers_per_stage):
            raise ConfigError("layers_per_stage entries must be >= 1")
        if self.norm not in ("dyt", "ln"):
            raise ConfigError(f"norm must be 'dyt' or 'ln', got {self.norm!r}")
        for name in ("in_channels", "stem_channels", "ssm_state_dim", "scan_block_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        experts = [s.num_experts for s in self.stages]
        groups = [s.group_size for s in self.stages]
        if any(a >= b for a, b in zip(experts, experts[1:])):
            raise ConfigError(f"expert counts must increase strictly with depth, got {experts}")
        if any(a <= b for a, b in zip(groups, groups[1:])):
            raise ConfigError(f"group sizes must decrease strictly with depth, got {groups}")
        for i, s in enumerate(self.stages):
            want = self.stem_channels * 2 ** i
            if s.dim != want:
                raise ConfigError(f"stage {i + 1} dim {s.dim} != doubled channel plan {want}")
        return self


def make_network_config(num_classes: int, stem_channels: int, experts: Tuple[int, ...],
                        base_group_size: int, slots_per_expert: int, in_channels: int = 1,
                        layers_per_stage: Optional[Tuple[int, ...]] = None,
                        norm: str = "dyt", ssm_state_dim: int = 8, scan_block_size: int = 64,
                        experts_l2: Optional[Tuple[int, ...]] = None) -> NetworkConfig:
    stages_n = len(experts)
    group_sizes = group_size_schedule(base_group_size, stages_n)
    if layers_per_stage is None:
        layers_per_stage = (1,) * stages_n
    stage_cfgs = tuple(
        StageConfig(dim=stem_channels * 2 ** i,
                    num_experts=experts[i],
                    group_size=group_sizes[i],
                    slots_per_expert=slots_per_expert,
                    num_experts_l2=None if experts_l2 is None else experts_l2[i])
        for i in range(stages_n))
    return NetworkConfig(num_classes=num_classes, in_channels=in_channels,
                         stem_channels=stem_channels, layers_per_stage=tuple(layers_per_stage),
                         norm=norm, ssm_state_dim=ssm_state_dim,
                         scan_block_size=scan_block_size, stages=stage_cfgs).validate()


def tiny_config(num_classes: int = 3, norm: str = "dyt") -> NetworkConfig:
    """Desk-scale default: small enough for CPU training and gradient checks."""
    return make_network_config(num_classes=num_classes, stem_channels=8,
                               experts=(2, 3, 4, 5), base_group_size=64,
                               slots_per_expert=2, norm=norm)


def full_config(num_classes: int = 3, norm: str = "dyt") -> NetworkConfig:
    """Production-scale preset (48-channel stem, four stages); used for
    schedule echoes and parameter counting, not for desk-scale runs."""
    return make_network_config(num_classes=num_classes, stem_channels=48,
                               experts=(4, 8, 12, 16), base_group_size=2048,
                               slots_per_expert=4, layers_per_stage=(2, 2, 2, 2),
                               norm=norm)


PRESETS = {"tiny": tiny_config, "full": full_config}


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-5
    batch_size: int = 2
    steps: int = 300
    seed: int = 0
    checkpoint_every: Optional[int] = None

    def validate(self) -> "TrainConfig":
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ConfigError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        return self
