"""Operator surface: ``hsmoe {describe,gradcheck,bench,train,eval}``.

Configuration comes from an optional ``key = value`` file (dotted keys,
unknown keys rejected), environment overrides HSMOE_SEED / HSMOE_THREADS,
then command-line flags, in increasing precedence. Each subcommand accepts
only the flags, and file keys, it reads, and eval in label-directory mode
reads fewer of them than in checkpoint mode; an environment value applies
only where its key is read. Exit codes: 0 success, 1 validation
error (usage errors included), 2 runtime/numerical failure.
"""

from __future__ import annotations

import argparse
import contextvars
import csv
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from . import bench as bench_mod, tensor as T
from .checkpoint import CheckpointError, load_into
from .config import ConfigError, NetworkConfig, PRESETS, TrainConfig
from .metrics import (EmptyMaskError, MetricError, _check_labels, count_parameters, dsc_per_class,
                      hd95, summarize, write_metrics_json)
from .network import SegNet
from .suites import MODULE_SUITES
from .tensor import NumericalError, Tensor, no_grad
from .train import TrainingDiverged, synth_volumes, train_loop
from .volio import VolumeIOError, read_volume

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


@dataclass
class DataConfig:
    num_volumes: int = 8
    size: int = 16

    def validate(self) -> "DataConfig":
        for name in ("num_volumes", "size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        return self


@dataclass
class RunConfig:
    seed: int = 0
    threads: int = 1
    precision: str = "f64"
    preset: str = "tiny"
    num_classes: int = 3
    norm: str = "dyt"
    network_overrides: Dict = field(default_factory=dict)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def network(self) -> NetworkConfig:
        if self.network_overrides:
            missing = [f"network.{k}" for k in _REQUIRED_NETWORK_KEYS if k not in self.network_overrides]
            if missing:
                raise ConfigError(f"network.* overrides describe a whole network; missing {', '.join(missing)}")
            return NetworkConfig(num_classes=self.num_classes, norm=self.norm, **self.network_overrides)
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from {sorted(PRESETS)}")
        return PRESETS[self.preset](num_classes=self.num_classes, norm=self.norm)


# config key: (the RunConfig attribute it sets, its type, the flag that overrides it)
_SCALAR_KEYS = {
    "seed": ("seed", int, "--seed"),
    "threads": ("threads", int, "--threads"),
    "precision": ("precision", str, "--precision"),
    "network.preset": ("preset", str, "--preset"),
    "network.num_classes": ("num_classes", int, "--classes"),
    "network.norm": ("norm", str, "--norm"),
    "train.lr": ("train.lr", float, "--lr"),
    "train.batch_size": ("train.batch_size", int, "--batch-size"),
    "train.steps": ("train.steps", int, "--steps"),
    "data.num_volumes": ("data.num_volumes", int, "--volumes"),
    "data.size": ("data.size", int, "--size"),
}

_NETWORK_OVERRIDE_KEYS = {
    "network.stem_channels": ("stem_channels", int),
    "network.experts": ("experts", "int_list"),
    "network.base_group_size": ("base_group_size", int),
    "network.slots_per_expert": ("slots_per_expert", int),
    "network.layers_per_stage": ("layers_per_stage", "int_list"),
    "network.ssm_state_dim": ("ssm_state_dim", int),
    "network.scan_block_size": ("scan_block_size", int),
}
_ALL_KEYS = (*_SCALAR_KEYS, *_NETWORK_OVERRIDE_KEYS)
_REQUIRED_NETWORK_KEYS = ("stem_channels", "experts", "base_group_size", "slots_per_expert")

_ENV_KEYS = {"HSMOE_SEED": "seed", "HSMOE_THREADS": "threads"}

_PRECISIONS = {"f64": np.float64, "f32": np.float32}


def _convert(raw: str, kind) -> object:
    raw = raw.strip()
    if kind == "int_list":
        if not (raw.startswith("[") and raw.endswith("]")):
            raise ConfigError(f"expected a list like [2,3,4], got {raw!r}")
        return tuple(_convert(v, int) for v in raw[1:-1].split(",") if v.strip())
    try:
        return kind(raw)
    except ValueError as err:
        raise ConfigError(f"bad value {raw!r}: {err}") from err


def parse_config_file(path: str) -> Dict[str, object]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values: Dict[str, object] = {}
    lines: Dict[str, int] = {}  # the line each key was given on
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key in _SCALAR_KEYS:
                kind = _SCALAR_KEYS[key][1]
            elif key in _NETWORK_OVERRIDE_KEYS:
                _, kind = _NETWORK_OVERRIDE_KEYS[key]
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: key {key!r} given twice, on lines {lines[key]} and {lineno}")
            lines[key] = lineno
            try:
                values[key] = _convert(raw, kind)
            except ConfigError as err:
                raise ConfigError(f"{path}:{lineno}: {key}: {err}") from err
    return values


# eval with --pred-dir scores label volumes and reads only these settings; without
# it, eval rebuilds the network and data and reads every eval setting but --gt-dir
_LABEL_DIR_KEYS = {"network.num_classes", "threads"}


def _reader(args) -> Tuple[str, Set[str]]:
    """Who reads the run's settings, named for messages, and the config keys
    it reads: every key of a section one of its flags sets, or in eval's
    label-directory mode ``_LABEL_DIR_KEYS`` alone. A flag given that the
    reader does not read is a validation error."""
    given = vars(args)
    sections = {key.split(".")[0] for key in given if key in _SCALAR_KEYS}
    reader, unread = f"'hsmoe {args.command}'", []
    read = {key for key in _ALL_KEYS if key.split(".")[0] in sections}
    if args.command == "eval" and args.pred_dir:
        reader, read = f"{reader} in label-directory mode (--pred-dir)", _LABEL_DIR_KEYS
        unread = ["--checkpoint"] * (args.checkpoint is not None)
    elif args.command == "eval":
        reader += " in checkpoint mode (no --pred-dir)"
        unread = ["--gt-dir"] * (args.gt_dir is not None)
    unread = [flag for key, (_, _, flag) in _SCALAR_KEYS.items()
              if given.get(key) is not None and key not in read] + unread
    if unread:
        raise ConfigError(f"{reader} does not read {', '.join(unread)}")
    return reader, read


def build_run_config(config_path: Optional[str], args=None) -> RunConfig:
    """The run's settings: defaults, then the config file, then HSMOE_*
    environment variables, then command-line flags; validated last, so a
    bad value is rejected wherever it came from. A flag's dest is the config
    key it overrides, so flags apply through the same table as file values.
    A file key ``_reader`` says is not read is rejected, and an environment
    value applies only where its key is read (every key without ``args``).
    A ``--preset`` flag replaces any explicit network layout from the file."""
    run = RunConfig()
    values = parse_config_file(config_path) if config_path else {}
    given = vars(args) if args else {}
    reader, read = _reader(args) if args else ("", set(_ALL_KEYS))
    ignored = [key for key in values if key not in read]
    if ignored:
        raise ConfigError(f"{config_path}: {reader} does not read {', '.join(ignored)}")
    values.update((key, _convert(os.environ[var], _SCALAR_KEYS[key][1]))
                  for var, key in _ENV_KEYS.items() if var in os.environ and key in read)
    flags = {key: value for key, value in given.items() if key in _SCALAR_KEYS and value is not None}
    if "network.preset" in flags:
        values = {key: value for key, value in values.items() if key not in _NETWORK_OVERRIDE_KEYS}
    values.update(flags)
    for key, value in values.items():
        if key in _NETWORK_OVERRIDE_KEYS:
            run.network_overrides[_NETWORK_OVERRIDE_KEYS[key][0]] = value
        else:
            section, _, attr = _SCALAR_KEYS[key][0].rpartition(".")
            setattr(getattr(run, section) if section else run, attr, value)
    if run.precision not in _PRECISIONS:
        raise ConfigError(f"precision must be f64 or f32, got {run.precision!r}")
    if run.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {run.threads}")
    run.train.validate()
    run.data.validate()
    return run


# ---------------------------------------------------------------------------
# subcommands


def cmd_describe(run: RunConfig, args) -> int:
    cfg = run.network()
    size = args.extent
    cfg.check_extents((size,), "--size")
    out = sys.stdout
    print(f"preset: {run.preset if not run.network_overrides else 'custom'}", file=out)
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
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    n_values = [2 ** k for k in range(args.min_exp, args.max_exp + 1)]
    if args.network_out:
        bench_mod.volume_shapes_for(n_values)  # reject sizes the network cannot take before any sweep
    rows = bench_mod.routing_sweep(n_values, group_size=args.group_size, seed=run.seed,
                                   repeats=args.repeats)
    _write_csv(args.out, ["N", "K", "E", "S", "G", "wall_ms", "est_flops",
                          "assign_flops_grouped", "assign_flops_global"], rows)
    slope = bench_mod.fit_loglog_slope([r["N"] for r in rows], [r["wall_ms"] for r in rows])
    print(f"routing sweep written to {args.out}")
    print(f"routing log-log slope: {slope:.3f}")
    ok = all(r["assign_flops_grouped"] <= r["assign_flops_global"] for r in rows)
    print(f"grouped assignment cost <= global at equal N: {'yes' if ok else 'NO'}")
    if args.network_out:
        net_rows = bench_mod.network_sweep(n_values, seed=run.seed, repeats=args.repeats)
        _write_csv(args.network_out, ["N", "shape", "wall_ms"], net_rows)
        net_slope = bench_mod.fit_loglog_slope([r["N"] for r in net_rows],
                                               [r["wall_ms"] for r in net_rows])
        print(f"network sweep written to {args.network_out}")
        print(f"network log-log slope: {net_slope:.3f}")
    if args.compare_norms:
        times = bench_mod.norm_comparison(seed=run.seed)
        print(f"norm-layer forward ms over sweep sizes, dyt: {times['dyt']:.2f}  "
              f"ln: {times['ln']:.2f}  (dyt <= ln: {'yes' if times['dyt'] <= times['ln'] else 'no'})")
    return EXIT_OK


def _write_csv(path: str, fieldnames: List[str], rows: List[Dict]) -> None:
    """A header of ``fieldnames``, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _net_and_data(run: RunConfig, data_seed: int):
    """The run's seeded network and synthetic volumes, in the run's precision.
    The data size is checked first against the network's input rule, so a
    size the network cannot take is a validation error. Parameters and images
    are drawn in f64 and then cast, so f32 holds the f64 draw rounded, and an
    f64 run casts nothing."""
    cfg = run.network()
    cfg.check_extents((run.data.size,), "data size")
    dtype = _PRECISIONS[run.precision]
    data = synth_volumes(seed=data_seed, n=run.data.num_volumes, size=run.data.size,
                         classes=run.num_classes)
    for sample in data:
        sample.image = sample.image.astype(dtype, copy=False)
    net = SegNet(cfg, seed=run.seed)
    for p in net.parameters():
        p.data = p.data.astype(dtype, copy=False)
    return net, data


def cmd_train(run: RunConfig, args) -> int:
    net, data = _net_and_data(run, run.seed + 1)
    run.train.seed = run.seed
    history = train_loop(net, data, run.train, checkpoint_path=args.checkpoint)
    _write_csv(args.history, ["step", "loss", "mdsc", "lr"], history)
    last = history[-1]
    print(f"trained {len(history)} steps; final loss {last['loss']:.4f} "
          f"train mDSC {last['mdsc']:.4f}")
    print(f"history written to {args.history}")
    if args.checkpoint:
        print(f"checkpoint written to {args.checkpoint}.json/.bin")
    return EXIT_OK


def _eval_case(case_id: str, pred: np.ndarray, gt: np.ndarray, num_classes: int,
               spacing) -> List[Dict]:
    try:
        _check_labels(pred, gt, num_classes)
    except MetricError as err:
        raise MetricError(f"{case_id}: {err}") from err
    rows = []
    for c in range(1, num_classes):
        try:
            dist = hd95(pred == c, gt == c, spacing)
        except EmptyMaskError:
            dist = ""
        rows.append({"case_id": case_id, "class": c,
                     "dsc": dsc_per_class(pred, gt, c), "hd95": dist})
    return rows


def cmd_eval(run: RunConfig, args) -> int:
    num_classes = run.num_classes
    cases = []
    if args.pred_dir:
        if not args.gt_dir:
            raise ConfigError("--pred-dir requires --gt-dir")
        if not os.path.isdir(args.pred_dir):
            raise ConfigError(f"--pred-dir {args.pred_dir} is not a directory")
        names = sorted(f[:-4] for f in os.listdir(args.pred_dir) if f.endswith(".vol"))
        if not names:
            raise ConfigError(f"no .vol files in {args.pred_dir}")
        for name in names:
            pred, spacing = read_volume(os.path.join(args.pred_dir, name))
            gt, _ = read_volume(os.path.join(args.gt_dir, name))
            cases.append((name, pred, gt, spacing))
    else:
        if not args.checkpoint:
            raise ConfigError("eval needs --checkpoint (or --pred-dir/--gt-dir)")
        net, data = _net_and_data(run, run.seed + 2)
        load_into(net, args.checkpoint)
        for i, sample in enumerate(data):
            with no_grad():
                logits = net(Tensor(sample.image[None]))
            pred = np.argmax(logits.data, axis=1)[0]
            cases.append((f"case{i:03d}", pred, sample.label, (1.0, 1.0, 1.0)))

    def work(case):
        name, pred, gt, spacing = case
        return _eval_case(name, pred, gt, num_classes, spacing)

    # pool threads do not inherit numpy's errstate, a context variable: each
    # case runs in its own copy of this thread's context
    with ThreadPoolExecutor(max_workers=run.threads) as pool:
        futures = [pool.submit(contextvars.copy_context().run, work, case) for case in cases]
        per_case = [f.result() for f in futures]
    rows = [row for case_rows in per_case for row in case_rows]
    _write_csv(args.out, ["case_id", "class", "dsc", "hd95"], rows)  # hd95 blank when undefined
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


def _key_flag(parser: argparse.ArgumentParser, key: str, **kwargs) -> None:
    """The flag that overrides config key ``key``: the key is its dest, and
    its value converts as the config file's value does."""
    _, kind, flag = _SCALAR_KEYS[key]
    parser.add_argument(flag, dest=key, type=kind, help=f"sets {key}", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand accepts exactly the flags it reads, each defined once
    on a parent parser; the top-level parser takes only the subcommand."""
    config, seed, threads, precision, network, data = (_Parser(add_help=False) for _ in range(6))
    config.add_argument("--config", metavar="FILE", help="key = value config file")
    _key_flag(seed, "seed", metavar="N")
    _key_flag(threads, "threads", metavar="N")
    _key_flag(precision, "precision", choices=tuple(_PRECISIONS))
    _key_flag(network, "network.preset", choices=tuple(PRESETS))
    _key_flag(network, "network.num_classes", metavar="C")
    _key_flag(network, "network.norm", choices=("dyt", "ln"))
    _key_flag(data, "data.num_volumes", metavar="N")
    _key_flag(data, "data.size", metavar="S")

    parser = _Parser(prog="hsmoe", description="hierarchical soft-MoE segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", parents=[config, network],
                       help="echo schedules, stage shapes, parameter count")
    p.add_argument("--size", type=int, default=64, dest="extent", help="reference input extent")

    p = sub.add_parser("gradcheck", help="finite-difference suites per module")
    p.add_argument("--modules", nargs="+", choices=tuple(MODULE_SUITES), metavar="MODULE",
                   help=f"subset of: {' '.join(MODULE_SUITES)}")

    p = sub.add_parser("bench", parents=[config, seed], help="scaling sweeps and cost accounting")
    p.add_argument("--out", default="bench_routing.csv")
    p.add_argument("--network-out", default=None)
    p.add_argument("--compare-norms", action="store_true")
    p.add_argument("--min-exp", type=int, default=10)
    p.add_argument("--max-exp", type=int, default=16)
    p.add_argument("--group-size", type=int, default=256)
    p.add_argument("--repeats", type=int, default=3)

    p = sub.add_parser("train", parents=[config, seed, precision, network, data],
                       help="train on synthetic volumes")
    _key_flag(p, "train.steps", metavar="N")
    _key_flag(p, "train.lr", metavar="LR")
    _key_flag(p, "train.batch_size", metavar="B")
    p.add_argument("--history", default="history.csv")
    p.add_argument("--checkpoint", default="checkpoint")

    p = sub.add_parser("eval", parents=[config, seed, threads, precision, network, data],
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


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            flag = argv[0].split("=", 1)[0]
            raise ConfigError(f"{flag} goes after the subcommand, as in 'hsmoe <command> {flag} ...'")
        args = build_parser().parse_args(argv)
        run = build_run_config(getattr(args, "config", None), args)
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
