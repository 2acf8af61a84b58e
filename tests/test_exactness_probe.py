"""tools/exactness_probe.py runs and writes every group of digests. The
digests themselves depend on the platform's BLAS, so none is asserted."""

import json
import os
import re
import subprocess
import sys

from hsmoe.config import tiny_config
from hsmoe.network import SegNet
from hsmoe.suites import MODULE_SUITES

PROBE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "exactness_probe.py")


def test_exactness_probe_writes_every_output_group(tmp_path):
    out = tmp_path / "probe.json"
    proc = subprocess.run([sys.executable, PROBE, str(out)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(out.read_text())
    assert proc.stdout.strip() == f"{len(digests)} digests written to {out}"
    for key, entry in digests.items():
        assert set(entry) == {"sha256", "dtype", "shape"}, key
        assert re.fullmatch("[0-9a-f]{64}", entry["sha256"]), key

    params = [name for name, _ in SegNet(tiny_config(3), seed=0).named_parameters()]
    ln_params = [name for name, _ in SegNet(tiny_config(3, norm="ln"), seed=0).named_parameters()]
    want = {"describe/tiny", "describe/full", "infer48/logits", "train/history", "eval/read_volume"}
    want |= {f"eval/seed{seed}/{kind}" for seed in range(4) for kind in ("csv", "json")}
    want |= {f"cli/{precision}/{key}" for precision in ("f64", "f32")
             for key in ("train/history", "train/checkpoint.json", "train/checkpoint.bin", "eval/csv",
                         "eval/json")}
    want |= {f"train/param/{name}" for name in params}
    want |= {f"conv3d/{name}/{key}" for name in ("stacked", "per_tap", "stride2") for key in ("out", "dx", "dW")}
    want |= {f"hd95/case{i}/class{c}" for i in range(2) for c in (1, 2)}
    for norm, names in (("dyt", params), ("ln", ln_params)):
        for dtype in ("float64", "float32"):
            key = f"step/{norm}/{dtype}"
            want |= {f"{key}/logits", f"{key}/loss"} | {f"{key}/grad/{name}" for name in names}
    checks = {key for key in digests if key.startswith("gradcheck/")}
    assert {key.split("/")[1].split(".")[0] for key in checks} == set(MODULE_SUITES)
    assert set(digests) - checks == want
