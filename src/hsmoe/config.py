"""Dataclass configs: per-stage routing hyperparameters, network layout,
training settings, plus the named presets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

SCAN_BLOCK_SIZE = 64  # the selective scan's block length: the model's, the sweeps' and the suites'
EXPERTS_L2_FACTOR = 2  # the global second level has this many experts per first-level expert


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


@dataclass(frozen=True)
class StageConfig:
    """Routing hyperparameters for one encoder stage."""

    dim: int
    num_experts: int
    group_size: int
    slots_per_expert: int

    def __post_init__(self):
        for name in ("dim", "num_experts", "group_size", "slots_per_expert"):
            if getattr(self, name) < 1:
                raise ConfigError(f"StageConfig.{name} must be >= 1, got {getattr(self, name)}")

    @property
    def num_experts_l2(self) -> int:
        return EXPERTS_L2_FACTOR * self.num_experts

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
    """Full encoder-decoder layout, held as its schedule's inputs: expert
    counts per stage (one entry each, increasing with depth), a base group
    size halved at every stage, and a fixed slot count per expert. Channels
    double per stage from the stem. The per-stage ``stages`` are derived from
    these fields, so they cannot disagree with them."""

    num_classes: int
    stem_channels: int
    experts: Tuple[int, ...]
    base_group_size: int
    slots_per_expert: int
    layers_per_stage: Optional[Tuple[int, ...]] = None  # defaults to one layer per stage
    norm: str = "dyt"
    ssm_state_dim: int = 8
    scan_block_size: int = SCAN_BLOCK_SIZE

    def __post_init__(self):
        if self.layers_per_stage is None:
            object.__setattr__(self, "layers_per_stage", (1,) * self.num_stages)
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.num_stages < 2:
            raise ConfigError(f"need at least 2 stages, got {self.num_stages}")
        if len(self.layers_per_stage) != self.num_stages:
            raise ConfigError(f"layers_per_stage {self.layers_per_stage} must have one entry per stage "
                              f"({self.num_stages})")
        for name in ("experts", "layers_per_stage"):
            if min(getattr(self, name)) < 1:
                raise ConfigError(f"{name} entries must be >= 1, got {list(getattr(self, name))}")
        if self.norm not in ("dyt", "ln"):
            raise ConfigError(f"norm must be 'dyt' or 'ln', got {self.norm!r}")
        for name in ("stem_channels", "slots_per_expert", "ssm_state_dim", "scan_block_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(a >= b for a, b in zip(self.experts, self.experts[1:])):
            raise ConfigError(f"expert counts must increase strictly with depth, "
                              f"got {list(self.experts)}")
        self.stages  # the group-size schedule and every StageConfig rule

    @property
    def num_stages(self) -> int:
        return len(self.experts)

    @property
    def channels(self) -> Tuple[int, ...]:
        return tuple(self.stem_channels * 2 ** i for i in range(self.num_stages))

    @property
    def stages(self) -> Tuple[StageConfig, ...]:
        groups = group_size_schedule(self.base_group_size, self.num_stages)
        return tuple(StageConfig(dim=dim, num_experts=e, group_size=g,
                                 slots_per_expert=self.slots_per_expert)
                     for dim, e, g in zip(self.channels, self.experts, groups))

    def check_extents(self, extents: Sequence[int], what: str) -> None:
        """The input-extent rule: every spatial extent is a positive multiple
        of 2**num_stages, so each halving (stem and downsamples) is exact and
        none vanishes before the bottleneck. ``what`` names the extents."""
        div = 2 ** self.num_stages
        for n in extents:
            if n < 1 or n % div:
                raise ConfigError(f"{what} {n} must be a positive multiple of {div} (2**stages)")


def tiny_config(num_classes: int = 3, norm: str = "dyt") -> NetworkConfig:
    """Desk-scale default: small enough for CPU training and gradient checks."""
    return NetworkConfig(num_classes=num_classes, stem_channels=8, experts=(2, 3, 4, 5),
                         base_group_size=64, slots_per_expert=2, norm=norm)


def full_config(num_classes: int = 3, norm: str = "dyt") -> NetworkConfig:
    """Production-scale preset (48-channel stem, four stages); used for
    schedule echoes and parameter counting, not for desk-scale runs."""
    return NetworkConfig(num_classes=num_classes, stem_channels=48, experts=(4, 8, 12, 16),
                         base_group_size=2048, slots_per_expert=4, layers_per_stage=(2, 2, 2, 2),
                         norm=norm)


PRESETS = {"tiny": tiny_config, "full": full_config}


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 2
    steps: int = 300
    seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        for name in ("steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        return self
