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
- a conv3d's output, input gradient and weight gradient at three shapes,
  one for each way ``nn._correlate`` groups its depth taps: one GEMM for
  all of them (stride 1, depth 12), one GEMM per tap (stride 1, depth 6)
  and stride 2;
- every ``CheckResult`` of ``run_suites()``;
- the stdout of ``hsmoe describe --preset tiny`` and ``--preset full``;
- ``hsmoe eval``'s CSV and JSON over four 64^3 label-volume cases shaped as
  the benchmark's eval-labels workload, for four seeds;
- HD95's pooled nearest surface distances of two of those cases, per class,
  at an anisotropic spacing, where the distances are off the integer lattice;
- in f64 and in f32: the history CSV and both checkpoint files of a 2-step
  ``hsmoe train`` on one 16^3 volume, and the CSV and JSON of checkpoint-mode
  ``hsmoe eval`` on that checkpoint.

The program is imported from the ``src`` next to this script, so run the
script of each tree to compare two trees, then diff the two files:

    (cd parent && python3 tools/exactness_probe.py /tmp/parent.json)
    (cd change && python3 tools/exactness_probe.py /tmp/change.json)
    diff /tmp/parent.json /tmp/change.json && echo bit-identical

Digests depend on the platform's BLAS, so compare files written on one
machine. BLAS runs on one thread.
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
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from hsmoe import cli, metrics, tensor as T  # noqa: E402
from hsmoe.config import TrainConfig, tiny_config  # noqa: E402
from hsmoe.gradcheck import run_suites  # noqa: E402
from hsmoe.network import SegNet  # noqa: E402
from hsmoe.nn import Conv3d  # noqa: E402
from hsmoe.train import dice_ce_loss, synth_volumes, train_loop  # noqa: E402
from hsmoe.volio import write_volume  # noqa: E402

CLASSES = 3
BATCH, SIZE, INFER_SIZE = 4, 16, 48
TRAIN_STEPS = 5
EVAL_SEEDS = (0, 1, 2, 3)
EVAL_CASES, EVAL_SIZE, EVAL_GT_SEED, EVAL_NOISE = 4, 64, 5, 0.01
OFF_LATTICE = (2.5, 0.7, 0.7)  # voxel size (mm) along (D, H, W) for the surface distances
# name: (input shape, output channels, stride), each with k=3 and padding 1
CONVS = {"stacked": ((1, 8, 12, 12, 12), 8, 1), "per_tap": ((2, 8, 6, 6, 6), 8, 1),
         "stride2": ((1, 8, 12, 12, 12), 16, 2)}


def digest(value) -> dict:
    if isinstance(value, str):
        raw = value.encode()
        return {"sha256": hashlib.sha256(raw).hexdigest(), "dtype": "text", "shape": [len(raw)]}
    if isinstance(value, bytes):
        value = np.frombuffer(value, dtype=np.uint8)
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


def convolutions(out: dict) -> None:
    gen = np.random.default_rng(4)
    for name, (shape, channels, stride) in CONVS.items():
        conv = Conv3d(shape[1], channels, 3, gen, stride=stride, padding=1)
        x = T.Tensor(gen.uniform(-1, 1, shape), requires_grad=True)
        y = conv(x)
        dx, dw, _ = y.node.backward_fn(gen.uniform(-1, 1, y.shape))
        for key, value in (("out", y.data), ("dx", dx), ("dW", dw)):
            out[f"conv3d/{name}/{key}"] = digest(value)


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


def eval_cases(ground_truth, seed: int) -> list:
    """(prediction, ground truth) per case: the fixed ground truth shifted one
    voxel along a seeded axis and direction, with 1% of its voxels relabelled
    at random."""
    gen = np.random.default_rng(seed)
    pairs = []
    for case in ground_truth:
        gt = case.label
        pred = np.roll(gt, int(gen.choice([-1, 1])), axis=int(gen.integers(3)))
        noisy = gen.random(gt.shape) < EVAL_NOISE
        pred[noisy] = gen.integers(0, CLASSES, int(noisy.sum()))
        pairs.append((pred, gt))
    return pairs


def evaluation(out: dict, root: str) -> None:
    ground_truth = synth_volumes(seed=EVAL_GT_SEED, n=EVAL_CASES, size=EVAL_SIZE, classes=CLASSES)
    for seed in EVAL_SEEDS:
        dirs = {kind: os.path.join(root, f"seed{seed}", kind) for kind in ("pred", "gt")}
        for path in dirs.values():
            os.makedirs(path)
        for i, (pred, gt) in enumerate(eval_cases(ground_truth, seed)):
            write_volume(os.path.join(dirs["pred"], f"case{i:02d}"), pred, dtype="u8")
            write_volume(os.path.join(dirs["gt"], f"case{i:02d}"), gt, dtype="u8")
        csv_path, json_path = (os.path.join(root, f"seed{seed}", name) for name in ("m.csv", "m.json"))
        run_cli(["eval", "--pred-dir", dirs["pred"], "--gt-dir", dirs["gt"], "--classes", str(CLASSES),
                 "--threads", "2", "--out", csv_path, "--json-out", json_path])
        for name, path in (("csv", csv_path), ("json", json_path)):
            with open(path) as fh:
                out[f"eval/seed{seed}/{name}"] = digest(fh.read())


def surface_distances(out: dict) -> None:
    """Both directions of HD95's nearest surface distances, pooled, for the
    first two cases of the first eval seed, at ``OFF_LATTICE``."""
    ground_truth = synth_volumes(seed=EVAL_GT_SEED, n=2, size=EVAL_SIZE, classes=CLASSES)
    sp = np.asarray(OFF_LATTICE)
    for i, (pred, gt) in enumerate(eval_cases(ground_truth, EVAL_SEEDS[0])):
        for c in range(1, CLASSES):
            P, G = metrics.surface_voxels(pred == c), metrics.surface_voxels(gt == c)
            pooled = np.concatenate([metrics._nearest_dists(P, G, sp), metrics._nearest_dists(G, P, sp)])
            out[f"hd95/case{i}/class{c}"] = digest(pooled)


def cli_files(out: dict, root: str) -> None:
    """The files ``hsmoe train`` and checkpoint-mode ``hsmoe eval`` write,
    per precision; the checkpoint's payload as bytes, the others as text."""
    for precision in ("f64", "f32"):
        folder = os.path.join(root, precision)
        os.makedirs(folder)
        files = {key: os.path.join(folder, name) for key, name in (
            ("train/history", "h.csv"), ("train/checkpoint.json", "ck.json"),
            ("train/checkpoint.bin", "ck.bin"), ("eval/csv", "m.csv"), ("eval/json", "m.json"))}
        data = ["--precision", precision, "--volumes", "1", "--size", "16"]
        run_cli(["train", *data, "--steps", "2", "--batch-size", "1", "--history", files["train/history"],
                 "--checkpoint", os.path.join(folder, "ck")])
        run_cli(["eval", *data, "--checkpoint", os.path.join(folder, "ck"), "--out", files["eval/csv"],
                 "--json-out", files["eval/json"]])
        for key, path in files.items():
            with open(path, "rb" if path.endswith(".bin") else "r") as fh:
                out[f"cli/{precision}/{key}"] = digest(fh.read())


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    out: dict = {}
    forward_backward(out)
    training(out)
    inference(out)
    convolutions(out)
    gradcheck(out)
    describe(out)
    surface_distances(out)
    with tempfile.TemporaryDirectory() as root:
        evaluation(out, root)
        cli_files(out, root)
    with open(argv[0], "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(out)} digests written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
