"""Digests of the program's outputs, for checking that a change is
bit-identical to its parent.

    python3 tools/exactness_probe.py OUT.json

writes one JSON object mapping each output to the sha256 of its bytes, with
its dtype and shape (text outputs have dtype "text" and their length in
bytes as shape). The outputs are:

- the tiny network's logits, loss and every parameter gradient on a 4x16^3
  batch, with DyT and with LayerNorm, in f64 and in f32;
- a 5-step ``train_loop`` history and the parameters it trained;
- the tiny network's no-grad logits on one 48^3 volume;
- every ``CheckResult`` of ``run_suites()``;
- the stdout of ``hsmoe describe --preset tiny`` and ``--preset full``;
- ``hsmoe eval``'s CSV and JSON over four 64^3 label-volume cases shaped as
  the benchmark's eval-labels workload, for four seeds.

The program is imported from the ``src`` next to this script, so run the
script of each tree to compare two trees, then diff the two files:

    (cd parent && python3 tools/exactness_probe.py /tmp/parent.json)
    (cd change && python3 tools/exactness_probe.py /tmp/change.json)
    diff /tmp/parent.json /tmp/change.json && echo bit-identical

Digests depend on the platform's BLAS, so compare files written on one
machine. BLAS runs on one thread, and HSMOE_* environment values are dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("HSMOE_")]:
    del os.environ[_var]
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from hsmoe import cli, tensor as T  # noqa: E402
from hsmoe.config import TrainConfig, tiny_config  # noqa: E402
from hsmoe.gradcheck import run_suites  # noqa: E402
from hsmoe.network import SegNet  # noqa: E402
from hsmoe.train import dice_ce_loss, synth_volumes, train_loop  # noqa: E402
from hsmoe.volio import write_volume  # noqa: E402

CLASSES = 3
BATCH, SIZE, INFER_SIZE = 4, 16, 48
TRAIN_STEPS = 5
EVAL_SEEDS = (0, 1, 2, 3)
EVAL_CASES, EVAL_SIZE, EVAL_GT_SEED, EVAL_NOISE = 4, 64, 5, 0.01


def digest(value) -> dict:
    if isinstance(value, str):
        raw = value.encode()
        return {"sha256": hashlib.sha256(raw).hexdigest(), "dtype": "text", "shape": [len(raw)]}
    arr = np.ascontiguousarray(value)
    return {"sha256": hashlib.sha256(arr.tobytes()).hexdigest(), "dtype": str(arr.dtype),
            "shape": list(arr.shape)}


def network(norm: str, dtype, seed: int = 0) -> SegNet:
    """The tiny network, drawn in f64 and cast, as ``--precision`` does."""
    net = SegNet(tiny_config(CLASSES, norm=norm), seed=seed)
    for p in net.parameters():
        p.data = p.data.astype(dtype, copy=False)
    return net


def forward_backward(out: dict) -> None:
    data = synth_volumes(seed=1, n=BATCH, size=SIZE, classes=CLASSES)
    labels = np.stack([s.label for s in data])
    for norm in ("dyt", "ln"):
        for dtype in (np.float64, np.float32):
            key = f"step/{norm}/{np.dtype(dtype).name}"
            net = network(norm, dtype)
            logits = net(T.Tensor(np.stack([s.image for s in data]).astype(dtype)))
            loss = dice_ce_loss(logits, labels)
            T.backward(loss)
            out[f"{key}/logits"] = digest(logits.data)
            out[f"{key}/loss"] = digest(loss.data)
            for name, p in net.named_parameters():
                out[f"{key}/grad/{name}"] = digest(p.grad)


def training(out: dict) -> None:
    data = synth_volumes(seed=2, n=BATCH, size=SIZE, classes=CLASSES)
    net = network("dyt", np.float64)
    history = train_loop(net, data, TrainConfig(lr=1e-2, batch_size=BATCH, steps=TRAIN_STEPS, seed=0))
    out["train/history"] = digest(np.array([[row[k] for k in ("step", "loss", "mdsc", "lr")]
                                            for row in history], dtype=np.float64))
    for name, p in net.named_parameters():
        out[f"train/param/{name}"] = digest(p.data)


def inference(out: dict) -> None:
    sample = synth_volumes(seed=3, n=1, size=INFER_SIZE, classes=CLASSES)[0]
    with T.no_grad():
        logits = network("dyt", np.float64)(T.Tensor(sample.image[None]))
    out["infer48/logits"] = digest(logits.data)


def gradcheck(out: dict) -> None:
    for r in run_suites():
        out[f"gradcheck/{r.name}"] = digest(np.array([r.max_rel_err, r.coords_checked, r.tol]))


def run_cli(argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise RuntimeError(f"hsmoe {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def describe(out: dict) -> None:
    for preset in ("tiny", "full"):
        out[f"describe/{preset}"] = digest(run_cli(["describe", "--preset", preset]))


def evaluation(out: dict, root: str) -> None:
    """Each case: the fixed ground truth shifted one voxel along a seeded
    axis and direction, with 1% of its voxels relabelled at random."""
    cases = synth_volumes(seed=EVAL_GT_SEED, n=EVAL_CASES, size=EVAL_SIZE, classes=CLASSES)
    for seed in EVAL_SEEDS:
        dirs = {kind: os.path.join(root, f"seed{seed}", kind) for kind in ("pred", "gt")}
        for path in dirs.values():
            os.makedirs(path)
        gen = np.random.default_rng(seed)
        for i, case in enumerate(cases):
            gt = case.label
            pred = np.roll(gt, int(gen.choice([-1, 1])), axis=int(gen.integers(3)))
            noisy = gen.random(gt.shape) < EVAL_NOISE
            pred[noisy] = gen.integers(0, CLASSES, int(noisy.sum()))
            write_volume(os.path.join(dirs["pred"], f"case{i:02d}"), pred, dtype="u8")
            write_volume(os.path.join(dirs["gt"], f"case{i:02d}"), gt, dtype="u8")
        csv_path, json_path = (os.path.join(root, f"seed{seed}", name) for name in ("m.csv", "m.json"))
        run_cli(["eval", "--pred-dir", dirs["pred"], "--gt-dir", dirs["gt"], "--classes", str(CLASSES),
                 "--threads", "2", "--out", csv_path, "--json-out", json_path])
        for name, path in (("csv", csv_path), ("json", json_path)):
            with open(path) as fh:
                out[f"eval/seed{seed}/{name}"] = digest(fh.read())


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    out: dict = {}
    forward_backward(out)
    training(out)
    inference(out)
    gradcheck(out)
    describe(out)
    with tempfile.TemporaryDirectory() as root:
        evaluation(out, root)
    with open(argv[0], "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(out)} digests written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
