"""Record the outputs the benchmark checks: for every input seed, the
train-tiny loss curve, the infer-48 mDSC and the eval-labels summary.

    python3 perfbench/record.py        # rewrites perfbench/expected.json

Run it only when the program's outputs are meant to change (for example a
new initialisation order); re-recording is a change to the benchmark.
"""

from __future__ import annotations

import json
import sys

from run import WORKDIR, prepare


def main() -> int:
    if not prepare():
        return 2
    from workloads import EXPECTED_PATH, RECORDED_SEEDS, WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    recorded = {}
    for name in ("train-tiny", "infer-48", "eval-labels"):
        workload = WORKLOADS[name]
        recorded[name] = {str(seed): workload.reference(workload.setup(seed, str(WORKDIR)))
                          for seed in range(RECORDED_SEEDS)}
        print(f"{name}: {RECORDED_SEEDS} seeds recorded", file=sys.stderr)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
