"""hsmoe benchmark: runs one workload in a closed loop for a fixed time and
prints the result as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload train-tiny --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25    # every workload, one process each

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` alternates untraced and traced episodes and reports the
per-layer metrics, the share of op time no layer span covers and the tracing
overhead (traced minus untraced calibrated op p50). Times are calibrated
against the host's speed with the reference task in ``reference.py``. Run it
from the root of a checkout: the program is imported from the checkout's
``src``. Scratch files, spans and a full result record go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
BLAS_THREADS = 1


class Ops:
    """Closed-loop op timer. ``next`` ends the open op, if any, and starts
    the next; ``finish`` ends it. The reference task runs right before and
    right after each op, outside its timing, to calibrate it; with a tracer
    set, each op is also a root span."""

    def __init__(self, clock):
        self.clock = clock
        self.parts = []  # per op, the (start, end) of each timed part
        self.traced = []
        self.tracer = None
        self._start = None

    def next(self):
        self.finish()
        self.clock.sample()
        self.parts.append([])
        self.traced.append(self.tracer is not None)
        if self.tracer is not None:
            self.tracer.begin_op(len(self.parts) - 1)
        self._start = perf_counter()

    def split(self):
        """End one part of a long op and start the next, with a reference
        run between them outside the timing, so that the op is calibrated
        part by part. A traced op is calibrated as a whole."""
        if self.tracer is not None:
            return
        self.parts[-1].append((self._start, perf_counter()))
        self.clock.sample()
        self._start = perf_counter()

    def finish(self):
        if self._start is None:
            return
        self.parts[-1].append((self._start, perf_counter()))
        if self.tracer is not None:
            self.tracer.end_op()
        self._start = None
        self.clock.sample()

    @property
    def times(self):
        return [sum(end - start for start, end in parts) for parts in self.parts]

    @property
    def calibrated(self):
        return [sum(self.clock.calibrated(*part) for part in parts) for parts in self.parts]


def blas_threads():
    """Threads OpenBLAS reports, asked through its own API, or None."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
    }


def p50(values):
    return statistics.median(values)


def p90(values):
    """Nearest-rank p90, or None with fewer than ten samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1] if len(ordered) - rank >= 10 else None


def measure(workload, state, seconds, clock, tracer):
    """Run episodes until ``seconds`` have passed, at least one; with a
    tracer, every second episode is traced (and there are at least two)."""
    from layers import install

    ops = Ops(clock)
    passed = []
    deadline = perf_counter() + seconds
    episode = 0
    min_episodes = 1 if tracer is None else 2
    while episode < min_episodes or perf_counter() < deadline:
        traced = tracer is not None and episode % 2 == 1
        if traced:
            install(tracer)
            ops.tracer = tracer
        done = len(ops.times)
        try:
            passed += workload.episode(state, ops)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ops.finish()
            passed += [False] * max(1, len(ops.times) - done)
        finally:
            if traced:
                tracer.restore()
                ops.tracer = None
        episode += 1
    return ops, passed


def benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_one(args) -> int:
    import reference
    from layers import LAYER_MAP, layer_metrics
    from tracer import Tracer
    from workloads import RECORDED_SEEDS, WORKLOADS

    workload = WORKLOADS[args.workload]
    spec = benchmark()
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    input_seed = args.seed % RECORDED_SEEDS
    WORKDIR.mkdir(exist_ok=True)

    reference.warm_up()
    clock = reference.Clock(workload.ref_kind, workload.threads)
    setups = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        start = perf_counter()
        state = workload.setup(input_seed, str(WORKDIR))
        setups.append((start, perf_counter()))
        clock.sample()
    setup_s = [end - start for start, end in setups]
    setup_cal_s = [clock.calibrated(*setup) for setup in setups]

    tracer = Tracer() if args.trace else None
    ops, passed = measure(workload, state, args.seconds, clock, tracer)
    attempted, failed = len(passed), passed.count(False)
    busy = sum(ops.times)
    ops_per_s = len(ops.times) / busy if busy else 0.0
    scale = 1e3 if workload.op_unit == "ms" else 1.0

    if args.trace:
        plain = [t for t, traced in zip(ops.calibrated, ops.traced) if not traced]
        traced = [t for t, traced in zip(ops.calibrated, ops.traced) if traced]
        overhead = p50(traced) - p50(plain)
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_ms"] = 1e3 * overhead
        metrics["trace.overhead_pct"] = 100.0 * overhead / p50(plain)
        tracer.write(str(WORKDIR / f"spans-{workload.name}.jsonl"))
        kind = "per_layer"
        report = {}
    else:
        metrics = {
            "setup_s": p50(setup_cal_s),
            "op_cal_ms.p50": 1e3 * p50(ops.calibrated),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        kind = "end_to_end"
        report = {f"{workload.op_metric}.p50": (scale * p50(ops.times), workload.op_unit)}
        if p90(ops.times) is not None:
            report[f"{workload.op_metric}.p90"] = (scale * p90(ops.times), workload.op_unit)
        report.update({
            workload.rate_metric: (workload.work_per_op(state) * ops_per_s, "1/s"),
            "op_cal_ms.p50": (metrics["op_cal_ms.p50"], "ms"),
            "setup_s": (metrics["setup_s"], "s"),
            "setup_s.wall": (p50(setup_s), "s"),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
            "failed_ratio": (failed / attempted, "ratio"),
        })
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    context = {"workload": workload.name, "why": why, "seed": args.seed,
               "input_seed": input_seed, "seconds": args.seconds, "trace": args.trace,
               "op_s": ops.times, "op_cal_s": ops.calibrated, "setup_s_each": setup_s,
               "setup_cal_s_each": setup_cal_s, "env": environment(),
               "layer_map": LAYER_MAP}
    print(f"hsmoe benchmark: {workload.name}, seed {args.seed} (inputs {input_seed}), "
          f"{args.seconds} s, trace {args.trace}, {len(ops.times)} ops")
    print(f"why: {why}")
    print("env: " + json.dumps(context["env"]))
    print("layer map: " + json.dumps(LAYER_MAP))
    shown = {**report, **{name: (value, units[name]) for name, value in metrics.items() if name not in report}}
    for name, (value, unit) in shown.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    with open(WORKDIR / f"result-{workload.name}-trace{args.trace}.json", "w") as fh:
        json.dump({**context, "report": {k: v[0] for k, v in report.items()}, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report and ends
    with one JSON object holding every end-to-end metric by name."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        with open(WORKDIR / f"result-{name}-trace{args.trace}.json") as fh:
            report = json.load(fh)["report"] or {k: v["value"] for k, v in result["metrics"].items()}
        total["metrics"].update({f"{name}:{metric}": value for metric, value in report.items()})
    print(json.dumps(total))
    return 0


def prepare() -> bool:
    """Pin BLAS threads and drop hsmoe's environment overrides before numpy
    loads, then import the program from the checkout's sources."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    for var in ("HSMOE_SEED", "HSMOE_THREADS"):
        os.environ.pop(var, None)
    if not (ROOT / "src" / "hsmoe" / "__init__.py").is_file():
        print(f"error: no hsmoe sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare():
        return 2

    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
