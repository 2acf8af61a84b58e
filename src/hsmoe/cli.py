"""Operator surface: ``hsmoe {describe,gradcheck,bench,train,eval}``.

A run's settings come from command-line flags alone; a flag not given keeps
its field's default in ``RunConfig``. Each subcommand accepts only the flags
it reads, and eval in label-directory mode reads fewer of them than in
checkpoint mode. Exit codes: 0 success, 1 validation error (usage errors
included), 2 runtime/numerical failure.
"""

from __future__ import annotations

import argparse
import contextvars
import csv
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

import numpy as np

from . import bench as bench_mod, tensor as T
from .checkpoint import CheckpointError, checkpoint_paths, load_into
from .config import ConfigError, NetworkConfig, PRESETS, TrainConfig, check_at_least
from .metrics import (EmptyMaskError, MetricError, _check_labels, count_parameters, dsc_per_class,
                      hd95, summarize, write_metrics_json)
from .network import SegNet
from .nn import NORMS
from .suites import MODULE_SUITES
from .tensor import NumericalError
from .train import TrainingDiverged, predict, synth_volumes, train_loop
from .volio import VolumeIOError, read_volume

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


@dataclass(frozen=True)
class RunConfig:
    """A run's settings, checked as they are built, the network they name
    included, whether or not the subcommand builds it. A setting flag's dest
    is the name of the field it sets, here or in ``train``; ``--seed`` sets
    ``seed`` and ``train.seed``."""

    seed: int = 0
    threads: int = 1
    precision: str = "f64"
    preset: str = "tiny"
    num_classes: int = 3
    norm: str = "dyt"
    num_volumes: int = 8  # the synthetic data's count and extent
    size: int = 16
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check_at_least(self, ("seed",), least=0)
        check_at_least(self, ("threads", "num_volumes", "size"))
        for name, table in (("preset", PRESETS), ("precision", T.PRECISIONS)):
            if getattr(self, name) not in table:
                raise ConfigError(f"{name} must be {' or '.join(map(repr, table))}, got {getattr(self, name)!r}")
        self.network()  # the norm and class-count rules

    def network(self) -> NetworkConfig:
        return PRESETS[self.preset](num_classes=self.num_classes, norm=self.norm)


# eval's flags that only checkpoint mode reads, by dest: it rebuilds the network
# and data, while label-directory mode (--pred-dir) reads only --classes and
# --threads of the settings
_CHECKPOINT_MODE_FLAGS = {"seed": "--seed", "precision": "--precision", "preset": "--preset",
                          "norm": "--norm", "num_volumes": "--volumes", "size": "--size",
                          "checkpoint": "--checkpoint"}


def _check_eval_mode(args) -> None:
    """A flag given to ``eval`` that its mode does not read is a validation error."""
    if args.command != "eval":
        return
    if args.pred_dir:
        mode = "label-directory mode (--pred-dir)"
        unread = [flag for dest, flag in _CHECKPOINT_MODE_FLAGS.items() if getattr(args, dest) is not None]
    else:
        mode, unread = "checkpoint mode (no --pred-dir)", ["--gt-dir"] * (args.gt_dir is not None)
    if unread:
        raise ConfigError(f"'hsmoe eval' in {mode} does not read {', '.join(unread)}")


def build_run_config(args) -> RunConfig:
    """The run's settings: each setting flag given is copied onto its field,
    and the configs check themselves as they are built."""
    _check_eval_mode(args)
    given = {dest: value for dest, value in vars(args).items() if value is not None}

    def fields_given(cls) -> Dict[str, object]:
        return {f.name: given[f.name] for f in fields(cls) if f.name in given}

    return RunConfig(**fields_given(RunConfig), train=TrainConfig(**fields_given(TrainConfig)))


def _check_outputs(args, *dests: str) -> None:
    """Before any work: every file the run will write under these flags (by
    dest) must have an existing directory, must not itself be a directory
    and must not be a file another of them writes, so a bad path is a
    validation error, not a lost run."""
    writers: Dict[str, str] = {}  # each file's real path: the flag that writes it
    for dest in dests:
        base = getattr(args, dest)
        if not base:
            continue
        flag = f"--{dest.replace('_', '-')} {base}"
        for path in checkpoint_paths(base) if dest == "checkpoint" else (base,):
            folder = os.path.dirname(path) or "."
            if not os.path.isdir(folder):
                raise ConfigError(f"{flag}: directory {folder} does not exist")
            if os.path.isdir(path):
                raise ConfigError(f"{flag}: {path} is a directory")
            real = os.path.realpath(path)
            if real in writers:
                raise ConfigError(f"{flag}: {path} is also written by {writers[real]}")
            writers[real] = flag


# ---------------------------------------------------------------------------
# subcommands


def cmd_describe(run: RunConfig, args) -> int:
    cfg = run.network()
    size = args.extent
    cfg.check_extents((size,), "--size")
    out = sys.stdout
    print(f"preset: {run.preset}", file=out)
    print(f"stem_channels: {cfg.stem_channels}", file=out)
    print(f"channels: {list(cfg.channels)}", file=out)
    print(f"experts_level1: {list(cfg.experts)}", file=out)
    print(f"experts_level2: {[s.num_experts_l2 for s in cfg.stages]}", file=out)
    print(f"group_sizes: {[s.group_size for s in cfg.stages]}", file=out)
    print(f"slots_per_expert: {cfg.slots_per_expert}", file=out)
    print(f"layers_per_stage: {list(cfg.layers_per_stage)}", file=out)
    print(f"norm: {cfg.norm}", file=out)
    print(f"\nstage  channels  spatial@{size}^3  experts  experts_l2  group  slots", file=out)
    for i, s in enumerate(cfg.stages):
        sp = size // 2 ** (i + 1)
        print(f"{i + 1:5d}  {s.dim:8d}  {sp:^13d}  {s.num_experts:7d}  "
              f"{s.num_experts_l2:10d}  {s.group_size:5d}  {s.slots_per_expert:5d}", file=out)
    print(f"\nparameters: {count_parameters(SegNet(cfg, seed=None))}", file=out)
    return EXIT_OK


def cmd_gradcheck(run: RunConfig, args) -> int:
    from .gradcheck import run_suites

    results = run_suites(args.modules)
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed |= not r.passed
        print(f"{r.name:{width}s}  {status}  max_rel_err={r.max_rel_err:.3e}  "
              f"tol={r.tol:.0e}  coords={r.coords_checked}")
    print("gradcheck:", "FAIL" if failed else "PASS")
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_bench(run: RunConfig, args) -> int:
    if not 0 <= args.min_exp <= args.max_exp:
        raise ConfigError(f"need 0 <= --min-exp <= --max-exp, got {args.min_exp} and {args.max_exp}")
    if args.min_exp == args.max_exp:
        raise ConfigError(f"need --min-exp < --max-exp (a slope needs two sizes), got {args.min_exp} for both")
    check_at_least(args, ("repeats",), label="--{}")
    _check_outputs(args, "out", "network_out")
    n_values = [2 ** k for k in range(args.min_exp, args.max_exp + 1)]
    if args.network_out:
        bench_mod.volume_shapes_for(n_values)  # reject sizes the network cannot take before any sweep
    rows = bench_mod.routing_sweep(n_values, group_size=args.group_size, seed=run.seed,
                                   repeats=args.repeats)
    _write_csv(args.out, rows)
    slope = bench_mod.fit_loglog_slope([r["N"] for r in rows], [r["wall_ms"] for r in rows])
    print(f"routing sweep written to {args.out}")
    print(f"routing log-log slope: {slope:.3f}")
    ok = all(r["assign_flops_grouped"] <= r["assign_flops_global"] for r in rows)
    print(f"grouped assignment cost <= global at equal N: {'yes' if ok else 'NO'}")
    if args.network_out:
        net_rows = bench_mod.network_sweep(n_values, seed=run.seed, repeats=args.repeats)
        _write_csv(args.network_out, net_rows)
        net_slope = bench_mod.fit_loglog_slope([r["N"] for r in net_rows],
                                               [r["wall_ms"] for r in net_rows])
        print(f"network sweep written to {args.network_out}")
        print(f"network log-log slope: {net_slope:.3f}")
    if args.compare_norms:
        times = bench_mod.norm_comparison(seed=run.seed)
        print(f"norm-layer forward ms over sweep sizes, dyt: {times['dyt']:.2f}  "
              f"ln: {times['ln']:.2f}  (dyt <= ln: {'yes' if times['dyt'] <= times['ln'] else 'no'})")
    return EXIT_OK


def _write_csv(path: str, rows: List[Dict]) -> None:
    """A header of the first row's keys, then one line per row (no rows: an empty file)."""
    with open(path, "w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def _net_and_data(run: RunConfig, data_seed: int):
    """The run's seeded network and synthetic volumes, in the run's precision.
    The data size is checked first against the network's input rule, so a
    size the network cannot take is a validation error. Parameters and images
    are drawn in f64 and then cast, so f32 holds the f64 draw rounded, and an
    f64 run casts nothing."""
    cfg = run.network()
    cfg.check_extents((run.size,), "data size")
    dtype = T.PRECISIONS[run.precision]
    data = synth_volumes(seed=data_seed, n=run.num_volumes, size=run.size, classes=run.num_classes)
    for sample in data:
        sample.image = sample.image.astype(dtype, copy=False)
    net = SegNet(cfg, seed=run.seed)
    for p in net.parameters():
        p.data = p.data.astype(dtype, copy=False)
    return net, data


def cmd_train(run: RunConfig, args) -> int:
    _check_outputs(args, "history", "checkpoint")
    net, data = _net_and_data(run, run.seed + 1)
    history = train_loop(net, data, run.train, checkpoint_path=args.checkpoint)
    _write_csv(args.history, history)
    last = history[-1]
    print(f"trained {len(history)} steps; final loss {last['loss']:.4f} "
          f"train mDSC {last['mdsc']:.4f}")
    print(f"history written to {args.history}")
    if args.checkpoint:
        print("checkpoint written to {} and {}".format(*checkpoint_paths(args.checkpoint)))
    return EXIT_OK


def _eval_case(case_id: str, pred: np.ndarray, gt: np.ndarray, num_classes: int,
               spacing) -> List[Dict]:
    rows = []
    try:
        _check_labels(pred, gt, num_classes)
        for c in range(1, num_classes):
            try:
                dist = hd95(pred == c, gt == c, spacing)
            except EmptyMaskError:
                dist = ""
            rows.append({"case_id": case_id, "class": c,
                         "dsc": dsc_per_class(pred, gt, c), "hd95": dist})
    except MetricError as err:
        raise MetricError(f"{case_id}: {err}") from err
    return rows


def cmd_eval(run: RunConfig, args) -> int:
    _check_outputs(args, "out", "json_out")
    num_classes = run.num_classes
    if args.pred_dir:
        if not args.gt_dir:
            raise ConfigError("--pred-dir requires --gt-dir")
        folders = {"--pred-dir": args.pred_dir, "--gt-dir": args.gt_dir}
        for flag, folder in folders.items():
            if not os.path.isdir(folder):
                raise ConfigError(f"{flag} {folder} is not a directory")
        # a case found on one side only fails, as its missing volume, in name order
        cases = sorted({f[:-4] for folder in folders.values() for f in os.listdir(folder)
                        if f.endswith(".vol")})
        if not cases:
            raise ConfigError(f"no .vol files in {args.pred_dir} or {args.gt_dir}")

        def load(name):  # in the worker: reads overlap scoring, and at most --threads cases are held
            pred, spacing = read_volume(os.path.join(args.pred_dir, name))
            gt, gt_spacing = read_volume(os.path.join(args.gt_dir, name))
            if spacing != gt_spacing:
                raise MetricError(f"{name}: pred spacing_mm {list(spacing)} differs from gt spacing_mm "
                                  f"{list(gt_spacing)}")
            return name, pred, gt, spacing
    else:
        if not args.checkpoint:
            raise ConfigError("eval needs --checkpoint (or --pred-dir/--gt-dir)")
        net, data = _net_and_data(run, run.seed + 2)
        load_into(net, args.checkpoint)
        cases = [(f"case{i:03d}", predict(net, sample.image), sample.label, (1.0, 1.0, 1.0))
                 for i, sample in enumerate(data)]

        def load(case):
            return case

    failed = threading.Event()

    def work(case):
        # cases start in name order, so once one has failed every case that
        # starts later comes after it: it is skipped, and the error stays the
        # first failing case's
        if failed.is_set():
            return []
        try:
            name, pred, gt, spacing = load(case)
            return _eval_case(name, pred, gt, num_classes, spacing)
        except Exception:
            failed.set()
            raise

    # pool threads do not inherit numpy's errstate, a context variable: each
    # case runs in its own copy of this thread's context
    with ThreadPoolExecutor(max_workers=run.threads) as pool:
        futures = [pool.submit(contextvars.copy_context().run, work, case) for case in cases]
        per_case = [f.result() for f in futures]
    rows = [row for case_rows in per_case for row in case_rows]
    _write_csv(args.out, rows)  # hd95 blank when undefined
    summary = summarize(rows, num_classes)
    write_metrics_json(summary, args.json_out)
    print(f"evaluated {len(cases)} cases over {num_classes - 1} foreground classes")
    print(f"mDSC: {summary['mdsc']}")
    print(f"mHD95: {summary['mhd95']}")
    print(f"per-case metrics written to {args.out}; summary to {args.json_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation errors (exit 1), not runtime failures."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand accepts exactly the flags it reads, each defined once
    on a parent parser; the top-level parser takes only the subcommand. A
    setting flag's dest is its ``RunConfig`` field, and it defaults to None,
    so the field keeps its default."""
    seed, threads, precision, network, data = (_Parser(add_help=False) for _ in range(5))
    seed.add_argument("--seed", type=int, metavar="N", help="seeds the network, data and sweeps")
    threads.add_argument("--threads", type=int, metavar="N", help="eval's worker threads")
    precision.add_argument("--precision", choices=tuple(T.PRECISIONS))
    network.add_argument("--preset", choices=tuple(PRESETS))
    network.add_argument("--classes", dest="num_classes", type=int, metavar="C", help="classes, background included")
    network.add_argument("--norm", choices=tuple(NORMS), help="block normalization")
    data.add_argument("--volumes", dest="num_volumes", type=int, metavar="N", help="synthetic volumes")
    data.add_argument("--size", type=int, metavar="S", help="synthetic volume extent")

    parser = _Parser(prog="hsmoe", description="hierarchical soft-MoE segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", parents=[network],
                       help="echo schedules, stage shapes, parameter count")
    p.add_argument("--size", type=int, default=64, dest="extent", help="reference input extent")

    p = sub.add_parser("gradcheck", help="finite-difference suites per module")
    p.add_argument("--modules", nargs="+", choices=tuple(MODULE_SUITES), metavar="MODULE",
                   help=f"subset of: {' '.join(MODULE_SUITES)}")

    p = sub.add_parser("bench", parents=[seed], help="scaling sweeps and cost accounting")
    p.add_argument("--out", default="bench_routing.csv")
    p.add_argument("--network-out", default=None)
    p.add_argument("--compare-norms", action="store_true")
    p.add_argument("--min-exp", type=int, default=10)
    p.add_argument("--max-exp", type=int, default=16)
    p.add_argument("--group-size", type=int, default=256)
    p.add_argument("--repeats", type=int, default=3)

    p = sub.add_parser("train", parents=[seed, precision, network, data], help="train on synthetic volumes")
    p.add_argument("--steps", type=int, metavar="N")
    p.add_argument("--lr", type=float, metavar="LR")
    p.add_argument("--batch-size", type=int, metavar="B")
    p.add_argument("--history", default="history.csv")
    p.add_argument("--checkpoint", default="checkpoint")

    p = sub.add_parser("eval", parents=[seed, threads, precision, network, data],
                       help="metrics from a checkpoint or label volumes")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--pred-dir", default=None)
    p.add_argument("--gt-dir", default=None)
    p.add_argument("--out", default="metrics.csv")
    p.add_argument("--json-out", default="metrics.json")
    return parser


_COMMANDS = {
    "describe": cmd_describe,
    "gradcheck": cmd_gradcheck,
    "bench": cmd_bench,
    "train": cmd_train,
    "eval": cmd_eval,
}


def _subcommand_flags(parser: argparse.ArgumentParser) -> set:
    """Every flag that some subcommand of ``parser`` defines."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for p in sub.choices.values() for a in p._actions for opt in a.option_strings}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = build_parser()
        flag = argv[0].split("=", 1)[0] if argv else ""
        if flag.startswith("-") and flag not in ("-h", "--help"):  # a flag before the subcommand
            if flag in _subcommand_flags(parser):
                raise ConfigError(f"{flag} goes after the subcommand, as in 'hsmoe <command> {flag} ...'")
            raise ConfigError(f"unrecognized arguments: {flag}")
        args = parser.parse_args(argv)
        run = build_run_config(args)
        # quiet: an overflow raises NumericalError, and numpy's warning would repeat it
        return T._quiet(_COMMANDS[args.command])(run, args)
    except (ConfigError, CheckpointError, VolumeIOError, MetricError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, TrainingDiverged) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
