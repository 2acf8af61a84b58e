"""Finite-difference gradient verification.

Central differences (step ``FD_STEP``, f64) against tape gradients, with a
relative error floored (``REL_FLOOR``, scaled by the gradients' RMS) to keep
FD noise on near-zero coordinates from dominating.
The per-module suites at the bottom are what ``hsmoe gradcheck`` runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from . import tensor as T
from .routing import is_expert_stack
from .tensor import Tensor


FD_STEP = 1e-5  # the central difference's half-width h
REL_FLOOR = 1e-6  # the relative error's least denominator, before RMS scaling


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    coords_checked: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _rel_err(a: float, f: float, floor: float) -> float:
    return abs(a - f) / max(abs(a), abs(f), floor)


def grad_check(loss_fn: Callable[[], Tensor], params: Dict[str, Tensor],
               name: str = "check", tol: float = 1e-4, coord_budget: Optional[int] = None,
               rng: Optional[np.random.Generator] = None) -> CheckResult:
    """Compare tape gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must rebuild the forward pass from the live ``params`` data on
    every call. ``coord_budget`` caps the total number of coordinates probed
    (sampled uniformly across parameters when set).
    """
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    T.backward(loss)
    analytic = {}
    for key, p in params.items():
        if p.grad is None:
            raise AssertionError(f"{name}: parameter {key!r} received no gradient")
        analytic[key] = p.grad.copy()
    # scale the negligibility floor with the gradient population: coordinates
    # orders of magnitude below the RMS sit at the FD noise floor, where a
    # fixed denominator would report noise as error
    all_g = np.concatenate([g.reshape(-1) for g in analytic.values()])
    floor = REL_FLOOR * max(1.0, float(np.sqrt(np.mean(all_g * all_g))))

    coords = []
    for key, p in params.items():
        for flat_idx in range(p.size):
            coords.append((key, flat_idx))
    if coord_budget is not None and len(coords) > coord_budget:
        if rng is None:
            rng = np.random.default_rng(0)
        picks = rng.choice(len(coords), size=coord_budget, replace=False)
        coords = [coords[i] for i in picks]

    max_err = 0.0
    with T.no_grad():  # the probes need loss values only
        for key, flat_idx in coords:
            p = params[key]
            flat = p.data.reshape(-1)
            orig = flat[flat_idx]
            flat[flat_idx] = orig + FD_STEP
            up = loss_fn().item()
            flat[flat_idx] = orig - FD_STEP
            down = loss_fn().item()
            flat[flat_idx] = orig
            fd = (up - down) / (2.0 * FD_STEP)
            err = _rel_err(analytic[key].reshape(-1)[flat_idx], fd, floor)
            max_err = max(max_err, err)
    return CheckResult(name, max_err, len(coords), tol)


@functools.lru_cache(maxsize=64)
def _loss_weights(shape: tuple) -> np.ndarray:
    """The read-only weights of ``weighted_sum_loss``, drawn once per shape
    from seed 0."""
    w = T.rng(0).uniform(0.5, 1.5, size=shape)
    w.flags.writeable = False
    return w


def weighted_sum_loss(out: Tensor) -> Tensor:
    """Scalar loss sum(w * out) with fixed random weights; avoids symmetric
    cancellations that would leave true-zero gradient coordinates."""
    return T.reduce_sum(T.mul(out, Tensor(_loss_weights(out.shape))))


def gradient_flow(named_params: Sequence, loss: Tensor) -> Dict[str, float]:
    """Run backward and report max|grad| per named parameter (None -> 0).

    A stacked expert tensor is reported once per expert, as ``<name>.<e>``,
    so one dead expert cannot hide inside a live stack.
    """
    for _, p in named_params:
        p.grad = None
    T.backward(loss)
    report = {}
    for name, p in named_params:
        mag = np.zeros_like(p.data) if p.grad is None else np.abs(p.grad)
        if is_expert_stack(name):
            report.update((f"{name}.{e}", float(np.max(m))) for e, m in enumerate(mag))
        else:
            report[name] = float(np.max(mag))
    return report


# ---------------------------------------------------------------------------
# per-module suites (built lazily to avoid import cycles)


def run_suites(names: Optional[Sequence[str]] = None) -> list:
    """Run the finite-difference suite for each module; returns CheckResults."""
    from .suites import MODULE_SUITES

    selected = MODULE_SUITES if names is None else {k: MODULE_SUITES[k] for k in names}
    results = []
    for mod_name, suite_fn in selected.items():
        results.extend(suite_fn())
    return results
