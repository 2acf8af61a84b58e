"""Desk-scale training: combined Dice + cross-entropy loss, decoupled-decay
moment optimizer, cosine schedule, synthetic volume generation, train loop."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint
from .config import TrainConfig
from .metrics import mdsc
from .tensor import NumericalError, Tensor


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; message names the failing step."""


@dataclass
class VolumeSample:
    """One image/label pair: image [1,D,H,W] in [0,1], integer labels [D,H,W]."""

    image: np.ndarray
    label: np.ndarray


def one_hot(labels: np.ndarray, num_classes: int, dtype) -> np.ndarray:
    """[B,D,H,W] int -> [B,C,D,H,W] of ``dtype``."""
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], num_classes) + labels.shape[1:], dtype=dtype)
    np.put_along_axis(out, labels[:, None], 1.0, axis=1)
    return out


def dice_ce_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Soft Dice loss (mean over all classes, aggregated over batch and voxels,
    smoothing 1e-5 in the denominator) plus voxelwise cross-entropy."""
    B, C = logits.shape[0], logits.shape[1]
    labels = np.asarray(labels)
    if labels.shape != (B,) + logits.shape[2:]:
        raise ValueError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    if labels.min() < 0 or labels.max() >= C:
        raise ValueError(f"label class ids outside [0, {C})")
    target = Tensor(one_hot(labels, C, logits.dtype))  # f32 logits keep an f32 loss
    probs = T.softmax(logits, axis=1)
    spatial = (0, 2, 3, 4)
    inter = T.reduce_sum(T.mul(probs, target), axis=spatial)  # [C]
    pred_sum = T.reduce_sum(probs, axis=spatial)
    gt_sum = T.reduce_sum(target, axis=spatial)
    dice = T.sub(1.0, T.div(T.mul(inter, 2.0), T.add(T.add(pred_sum, gt_sum), 1e-5)))
    dice_term = T.reduce_mean(dice)
    logp = T.log_softmax(logits, axis=1)
    ce_term = T.neg(T.reduce_mean(T.reduce_sum(T.mul(target, logp), axis=1)))
    return T.add(dice_term, ce_term)


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # the moment decays and the denominator's smoothing
ADAM_WEIGHT_DECAY = 1e-5  # the decoupled decay, per unit of learning rate


def adamw_update(value: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                 t: int, lr: float, scratch: np.ndarray) -> None:
    """One moment update with bias correction and decoupled decay, in place.

    ``scratch`` is a [2, *value.shape] buffer of value's dtype; every step
    writes into it or into value, m and v. The operations run in the order of
    the textbook form ``value -= lr*m_hat / (sqrt(v_hat) + ADAM_EPS)`` then
    ``value -= lr*ADAM_WEIGHT_DECAY*value``, so the results are bit-identical
    to it.
    """
    a, b = scratch[0, ...], scratch[1, ...]  # arrays even for 0-d values
    np.multiply(grad, 1.0 - ADAM_BETA1, out=a)
    m *= ADAM_BETA1
    m += a
    np.multiply(grad, 1.0 - ADAM_BETA2, out=a)
    a *= grad
    v *= ADAM_BETA2
    v += a
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=a)
    a *= lr
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    value -= a
    np.multiply(value, lr * ADAM_WEIGHT_DECAY, out=a)
    value -= a


class AdamW:
    """Moment-based optimizer with decoupled weight decay over named tensors."""

    def __init__(self, named_params: Sequence[Tuple[str, Tensor]]):
        self.named_params = list(named_params)
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self._scratch = np.empty(0)  # shared by every update; grows to the largest tensor

    def step(self, lr: float) -> None:
        self.t += 1
        for name, p in self.named_params:
            if p.grad is None:
                continue
            n = p.data.size
            if self._scratch.size < 2 * n or self._scratch.dtype != p.data.dtype:
                self._scratch = np.empty(2 * n, dtype=p.data.dtype)
            adamw_update(p.data, p.grad, self.m[name], self.v[name], self.t, lr,
                         self._scratch[:2 * n].reshape((2,) + p.data.shape))

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """lr0 * (1 + cos(pi * step / total_steps)) / 2."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr0 * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


# ---------------------------------------------------------------------------
# synthetic data


def _ellipsoid(coords, center, radii) -> np.ndarray:
    z, y, x = coords
    return (((z - center[0]) / radii[0]) ** 2
            + ((y - center[1]) / radii[1]) ** 2
            + ((x - center[2]) / radii[2]) ** 2) <= 1.0


def _box(coords, center, radii) -> np.ndarray:
    z, y, x = coords
    return ((np.abs(z - center[0]) <= radii[0])
            & (np.abs(y - center[1]) <= radii[1])
            & (np.abs(x - center[2]) <= radii[2]))


_NOISE_SIGMA = 0.03
_FG_BAND = (0.05, 0.40)


def synth_volumes(seed: int, n: int, size: int, classes: int) -> List[VolumeSample]:
    """Deterministic toy volumes: one ellipsoid or box per foreground class,
    class-specific intensity bands plus Gaussian noise (sigma _NOISE_SIGMA);
    labels match the generating geometry exactly and the foreground fraction
    stays in _FG_BAND."""
    gen = T.rng(seed)
    coords = np.meshgrid(*(np.arange(size, dtype=np.float64),) * 3, indexing="ij")
    intensities = np.linspace(0.1, 0.9, classes)
    samples = []
    for _ in range(n):
        label = None
        for _attempt in range(200):
            label = np.zeros((size, size, size), dtype=np.int64)
            for c in range(1, classes):
                shape_fn = _ellipsoid if gen.uniform() < 0.5 else _box
                center = gen.uniform(0.25 * size, 0.75 * size, 3)
                radii = gen.uniform(0.12 * size, 0.28 * size, 3)
                label[shape_fn(coords, center, radii)] = c
            frac = float((label > 0).mean())
            if _FG_BAND[0] <= frac <= _FG_BAND[1]:
                break
        else:
            raise RuntimeError(f"could not hit foreground band {_FG_BAND} at size {size}")
        image = intensities[label] + gen.normal(0.0, _NOISE_SIGMA, label.shape)
        image = np.clip(image, 0.0, 1.0)[None]
        samples.append(VolumeSample(image=image, label=label))
    return samples


# ---------------------------------------------------------------------------
# loop


def train_loop(net, samples: Sequence[VolumeSample], cfg: TrainConfig,
               checkpoint_path: Optional[str] = None) -> List[Dict]:
    """Seeded full loop; returns per-step history rows
    (step, loss, mdsc, lr) and, given a path, saves the trained parameters
    there at the end. Aborts with the step index if the loss diverges: a NaN
    or Inf in the forward, the loss or the backward."""
    cfg.validate()
    order_rng = T.rng(cfg.seed)
    named = list(net.named_parameters())
    opt = AdamW(named)
    num_classes = net.cfg.num_classes
    history = []
    n = len(samples)
    for step in range(1, cfg.steps + 1):
        idx = order_rng.choice(n, size=min(cfg.batch_size, n), replace=n < cfg.batch_size)
        images = Tensor(np.stack([samples[i].image for i in idx]))
        labels = np.stack([samples[i].label for i in idx])
        opt.zero_grad()
        try:
            logits = net(images)
            loss = dice_ce_loss(logits, labels)
            loss_val = loss.item()
            T.backward(loss)
        except NumericalError as err:
            raise TrainingDiverged(f"diverged at step {step}: {err}") from err
        lr = cosine_lr(step - 1, cfg.steps, cfg.lr)
        opt.step(lr)
        pred = np.argmax(logits.data, axis=1)
        history.append({"step": step, "loss": loss_val,
                        "mdsc": mdsc_batch(pred, labels, num_classes), "lr": lr})
    if checkpoint_path:
        save_checkpoint(named, checkpoint_path)
    return history


def mdsc_batch(pred: np.ndarray, labels: np.ndarray, num_classes: int) -> float:
    """Mean foreground Dice over a batch of label volumes."""
    return float(np.mean([mdsc(p, l, num_classes) for p, l in zip(pred, labels)]))


def evaluate_mdsc(net, samples: Sequence[VolumeSample]) -> float:
    """Argmax predictions over full volumes, one at a time, recording no tape."""
    scores = []
    for s in samples:
        with T.no_grad():
            logits = net(Tensor(s.image[None]))
        pred = np.argmax(logits.data, axis=1)[0]
        scores.append(mdsc(pred, s.label, net.cfg.num_classes))
    return float(np.mean(scores))
