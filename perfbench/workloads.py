"""The four benchmark workloads. Each is a closed loop: an op starts when the
previous one returns.

A workload has ``threads`` (how many threads its op runs on), ``ref_kind``
(the kind of reference task that calibrates it, see ``reference.py``),
``setup(seed, workdir) -> state`` (inputs, network build, warm-up),
``episode(state, ops) -> [passed, ...]`` (one or more timed ops, each
checked) and, where outputs are checked against recorded values,
``reference(state)`` (the value ``record.py`` writes to ``expected.json``).
Inputs come from ``seed % RECORDED_SEEDS``; the program sees only the
generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

from hsmoe import cli, train
from hsmoe.config import TrainConfig, tiny_config
from hsmoe.gradcheck import run_suites
from hsmoe.network import SegNet
from hsmoe.suites import MODULE_SUITES
from hsmoe.train import evaluate_mdsc, synth_volumes, train_loop
from hsmoe.volio import write_volume

RECORDED_SEEDS = 64
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
CLASSES = 3


def expected(workload: str, seed: int):
    """The output recorded for this workload and input seed, or None."""
    try:
        with open(EXPECTED_PATH) as fh:
            return json.load(fh)[workload][str(seed)]
    except (OSError, KeyError):
        return None


class TrainTiny:
    """One op is one train_loop step: tiny preset, 3 classes, batch 4x16^3,
    f64, lr 1e-2 with the cosine schedule (the criterion-10 configuration).
    An episode trains a freshly built network for STEPS steps, so every
    episode replays the recorded loss curve."""

    name = "train-tiny"
    op_metric, op_unit = "train.step_ms", "ms"
    threads = 1
    ref_kind = "interpreter"
    rate_metric = "train.samples_per_s"
    STEPS = 8
    BATCH = 4
    REL_TOL = 1e-6  # loss curve agrees to 6 significant digits

    def setup(self, seed, workdir):
        data = synth_volumes(seed=seed, n=self.BATCH, size=16, classes=CLASSES)
        net = SegNet(tiny_config(CLASSES), seed=seed)
        train_loop(net, data, self._config(seed, steps=1))
        return {"seed": seed, "data": data, "expected": expected(self.name, seed)}

    def _config(self, seed, steps):
        return TrainConfig(lr=1e-2, batch_size=self.BATCH, steps=steps, seed=seed)

    def _history(self, state, ops=None):
        net = SegNet(tiny_config(CLASSES), seed=state["seed"])
        with _step_boundaries(ops):
            return train_loop(net, state["data"], self._config(state["seed"], self.STEPS))

    def episode(self, state, ops):
        losses = [h["loss"] for h in self._history(state, ops)]
        recorded = (state["expected"] or []) + [math.nan] * len(losses)
        return [math.isfinite(got) and math.isclose(got, want, rel_tol=self.REL_TOL)
                for got, want in zip(losses, recorded)]

    def reference(self, state):
        return [h["loss"] for h in self._history(state)]

    def work_per_op(self, state):
        return self.BATCH


@contextlib.contextmanager
def _step_boundaries(ops):
    """Time each train_loop step from outside: a step starts where the loop
    calls ``AdamW.zero_grad`` and ends where the next one starts."""
    if ops is None:
        yield
        return
    original = train.AdamW.zero_grad

    def zero_grad(self):
        ops.next()
        return original(self)

    train.AdamW.zero_grad = zero_grad
    try:
        yield
    finally:
        train.AdamW.zero_grad = original
        ops.finish()


class Infer48:
    """One op is ``evaluate_mdsc`` on one 48^3 volume, tiny preset, with the
    parameters requiring grad (a full tape is recorded), as ``hsmoe eval``
    runs today."""

    name = "infer-48"
    op_metric, op_unit = "infer.volume_ms", "ms"
    threads = 1
    ref_kind = "memory"
    rate_metric = "infer.voxels_per_s"
    SIZE = 48
    ABS_TOL = 1e-6  # one flipped voxel moves mDSC by far more

    def setup(self, seed, workdir):
        net = SegNet(tiny_config(CLASSES), seed=seed)
        sample = synth_volumes(seed=seed, n=1, size=self.SIZE, classes=CLASSES)[0]
        evaluate_mdsc(net, [sample])
        return {"net": net, "sample": sample, "expected": expected(self.name, seed)}

    def episode(self, state, ops):
        ops.next()
        score = evaluate_mdsc(state["net"], [state["sample"]])
        ops.finish()
        return [state["expected"] is not None and abs(score - state["expected"]) <= self.ABS_TOL]

    def reference(self, state):
        return evaluate_mdsc(state["net"], [state["sample"]])

    def work_per_op(self, state):
        return self.SIZE ** 3


class GradcheckSuites:
    """One op is a full ``run_suites`` pass: six suites, 14 checks, run one
    suite at a time so that the pass is calibrated suite by suite. The suites
    fix their own inputs, so the seed does not change this workload."""

    name = "gradcheck-suites"
    op_metric, op_unit = "gradcheck.pass_s", "s"
    threads = 1
    ref_kind = "interpreter"
    rate_metric = "gradcheck.coords_per_s"

    def setup(self, seed, workdir):
        run_suites(["tensor_core", "nn_prims", "ssm_scan"])
        return {"coords": 0}

    def episode(self, state, ops):
        ops.next()
        results = []
        for i, suite in enumerate(MODULE_SUITES):
            if i:
                ops.split()
            results += run_suites([suite])
        ops.finish()
        state["coords"] = sum(r.coords_checked for r in results)
        return [bool(results) and all(r.passed for r in results)]

    def work_per_op(self, state):
        return state["coords"]


class EvalLabels:
    """One op is ``hsmoe eval --pred-dir --gt-dir --classes 3 --threads 2``
    over CASES 64^3 label volumes.

    The ground truth is one fixed set of synth_volumes cases, as an
    evaluation set is fixed; the seed draws the predictions: each case
    shifted one voxel along a random axis and direction, with 1% label noise.
    Brute-force HD95 costs |P|*|G| distance pairs, which over seed-drawn
    ground truth varies ~30% between seeds; over fixed ground truth it moves
    only with the noise voxels."""

    name = "eval-labels"
    op_metric, op_unit = "eval.command_s", "s"
    threads = 2
    ref_kind = "memory"
    rate_metric = "eval.cases_per_s"
    CASES = 4
    GT_SEED = 5  # its cases carry about the median HD95 work of four drawn cases
    SIZE = 64
    NOISE = 0.01
    ABS_TOL = 1e-9

    def setup(self, seed, workdir):
        root = os.path.join(workdir, self.name)
        shutil.rmtree(root, ignore_errors=True)
        dirs = {kind: os.path.join(root, kind) for kind in ("pred", "gt")}
        for path in dirs.values():
            os.makedirs(path)
        gen = np.random.default_rng(seed)
        cases = synth_volumes(seed=self.GT_SEED, n=self.CASES, size=self.SIZE, classes=CLASSES)
        for i, case in enumerate(cases):
            gt = case.label
            pred = np.roll(gt, int(gen.choice([-1, 1])), axis=int(gen.integers(3)))
            noisy = gen.random(gt.shape) < self.NOISE
            pred[noisy] = gen.integers(0, CLASSES, int(noisy.sum()))
            write_volume(os.path.join(dirs["pred"], f"case{i:02d}"), pred, dtype="u8")
            write_volume(os.path.join(dirs["gt"], f"case{i:02d}"), gt, dtype="u8")
        state = {
            "argv": ["eval", "--pred-dir", dirs["pred"], "--gt-dir", dirs["gt"],
                     "--classes", str(CLASSES), "--threads", str(self.threads),
                     "--out", os.path.join(root, "metrics.csv"),
                     "--json-out", os.path.join(root, "metrics.json")],
            "summary": os.path.join(root, "metrics.json"),
        }
        self._run(state)
        state["expected"] = expected(self.name, seed)
        return state

    def _run(self, state):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(state["argv"])

    def _summary(self, state):
        with open(state["summary"]) as fh:
            return json.load(fh)

    def episode(self, state, ops):
        os.remove(state["summary"])
        ops.next()
        code = self._run(state)
        ops.finish()
        got, want = self._summary(state), state["expected"]
        return [code == 0 and want is not None
                and all(abs(got[k] - want[k]) <= self.ABS_TOL for k in ("mdsc", "mhd95"))]

    def reference(self, state):
        if self._run(state) != 0:
            raise RuntimeError("hsmoe eval failed")
        return {k: self._summary(state)[k] for k in ("mdsc", "mhd95")}

    def work_per_op(self, state):
        return self.CASES


WORKLOADS = {w.name: w for w in (TrainTiny(), Infer48(), GradcheckSuites(), EvalLabels())}
