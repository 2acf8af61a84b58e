"""CLI contracts: flags, describe echoes, exit codes, pipelines."""

import argparse
import csv
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hsmoe import cli, tensor as T
from hsmoe.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, build_run_config, main
from hsmoe.config import ConfigError, NetworkConfig, TrainConfig
from hsmoe.volio import write_volume


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run settings: flags alone


def test_config_flag_is_usage_error_on_every_subcommand(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("")
    for command in ("describe", "gradcheck", "bench", "train", "eval"):
        code, out, err = run_cli(capsys, command, "--config", str(path))
        _assert_validation_error(code, err, f"unrecognized arguments: --config {path}")
        assert out == ""


def test_hsmoe_environment_variables_change_and_reject_nothing(tmp_path, capsys, monkeypatch):
    def outputs(tag):
        """train's history, and the CSV of eval on its checkpoint, each written under ``tag``."""
        ck = str(tmp_path / f"ck{tag}")
        for argv in (["train", "--steps", "1", "--batch-size", "1", "--volumes", "1",
                      "--history", str(tmp_path / f"h{tag}.csv"), "--checkpoint", ck],
                     ["eval", "--checkpoint", ck, "--volumes", "1", "--out", str(tmp_path / f"m{tag}.csv"),
                      "--json-out", str(tmp_path / f"m{tag}.json")]):
            code, _, err = run_cli(capsys, *argv)
            assert code == EXIT_OK, err
        return [(tmp_path / f"{kind}{tag}.csv").read_text() for kind in "hm"]

    want = outputs("")
    monkeypatch.setenv("HSMOE_SEED", "99")
    monkeypatch.setenv("HSMOE_THREADS", "0")
    assert outputs("env") == want


# nothing reads HSMOE_* values, so a bad one harms no subcommand
def test_env_settings_stay_ambient_for_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("HSMOE_SEED", "3")
    monkeypatch.setenv("HSMOE_THREADS", "2")
    code, out, _ = run_cli(capsys, "describe")
    assert code == EXIT_OK and "parameters:" in out


@pytest.mark.parametrize("var,value,argv", [
    ("HSMOE_THREADS", "0", ["gradcheck", "--modules", "tensor_core"]),
    ("HSMOE_THREADS", "two", ["describe"]),
    ("HSMOE_SEED", "x", ["describe"]),
])
def test_env_value_applies_only_where_its_key_is_read(capsys, monkeypatch, var, value, argv):
    monkeypatch.setenv(var, value)
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_flag_below_one_is_validation_error(capsys, threads):
    code, _, err = run_cli(capsys, "eval", "--threads", threads)
    assert code == EXIT_VALIDATION
    assert "threads must be >= 1" in err


# ---------------------------------------------------------------------------
# flags: each subcommand accepts exactly the flags it reads


_NETWORK_FLAGS = {"--preset", "--classes", "--norm"}
_DATA_FLAGS = {"--volumes", "--size"}
_FLAGS = {
    "describe": {"--size"} | _NETWORK_FLAGS,
    "gradcheck": {"--modules"},
    "bench": {"--seed", "--out", "--network-out", "--compare-norms", "--min-exp",
              "--max-exp", "--group-size", "--repeats"},
    "train": {"--seed", "--precision", "--steps", "--lr", "--batch-size", "--history",
              "--checkpoint"} | _NETWORK_FLAGS | _DATA_FLAGS,
    "eval": {"--seed", "--threads", "--precision", "--checkpoint", "--pred-dir",
             "--gt-dir", "--out", "--json-out"} | _NETWORK_FLAGS | _DATA_FLAGS,
}


def _flag_set(parser):
    return {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}


def test_each_subcommand_accepts_exactly_the_flags_it_reads():
    parser = cli.build_parser()
    assert _flag_set(parser) == set()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: _flag_set(p) for name, p in sub.choices.items()} == _FLAGS


@pytest.mark.parametrize("argv", [
    ["--seed", "5", "train"],
    ["--threads", "3", "describe"],
    ["--precision", "f32", "train"],
    ["--config", "/nonexistent", "describe"],
    ["describe", "--seed", "1"],
    ["describe", "--threads", "2"],
    ["gradcheck", "--seed", "1"],
    ["gradcheck", "--config", "run.cfg"],
    ["bench", "--precision", "f32"],
    ["train", "--threads", "2"],
    ["--nope", "describe"],
])
def test_flag_a_command_does_not_read_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    if argv[0] in ("--config", "--nope"):  # before the subcommand, and no subcommand defines it
        _assert_validation_error(code, err, f"unrecognized arguments: {argv[0]}")
        assert "after the subcommand" not in err
    elif argv[0].startswith("-"):  # placed before the subcommand: the error names the flag
        _assert_validation_error(code, err, argv[0], "after the subcommand")
    else:
        _assert_validation_error(code, err)


# ---------------------------------------------------------------------------
# describe


def test_describe_full_preset_echoes_schedules(capsys):
    code, out, _ = run_cli(capsys, "describe", "--preset", "full")
    assert code == EXIT_OK
    assert "experts_level1: [4, 8, 12, 16]" in out
    assert "experts_level2: [8, 16, 24, 32]" in out
    assert "group_sizes: [2048, 1024, 512, 256]" in out
    assert "slots_per_expert: 4" in out
    assert "stem_channels: 48" in out
    assert "channels: [48, 96, 192, 384]" in out


def test_describe_tiny_parameter_count_matches_counter(capsys):
    from hsmoe.config import tiny_config
    from hsmoe.metrics import count_parameters
    from hsmoe.network import SegNet

    code, out, _ = run_cli(capsys, "describe", "--preset", "tiny", "--size", "32")
    assert code == EXIT_OK
    line = [l for l in out.splitlines() if l.startswith("parameters:")][0]
    assert int(line.split()[1]) == count_parameters(SegNet(tiny_config(), seed=0))


def test_describe_full_lists_parameters_without_touching_their_memory():
    """describe builds the full preset (100M parameters, 800 MB in f64)
    shape-only; a build that drew or copied values would peak at 0.5-0.8 GB.
    The child reads its own peak (VmHWM): ru_maxrss, of the child or of its
    parent's children, keeps the launching process's peak across exec, so
    inside a large test process it reads that process's size."""
    script = ("import sys\n"
              "from hsmoe.cli import main\n"
              "code = main(['describe', '--preset', 'full'])\n"
              "print(open('/proc/self/status').read())\n"
              "sys.exit(code)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "parameters: 100415091" in proc.stdout
    peak_kb = int(proc.stdout.split("VmHWM:")[1].split()[0])
    assert peak_kb < 100 * 1024, f"describe --preset full peaked at {peak_kb / 1024:.0f} MB"


def test_unknown_flag_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "describe", "--nope")
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("argv,line", [
    (["--norm", "ln"], "norm: ln"),
    (["--size", "32"], "spatial@32^3"),
])
def test_describe_flag_shows_in_echo(capsys, argv, line):
    code, out, _ = run_cli(capsys, "describe", *argv)
    assert code == EXIT_OK
    assert line in out


def test_describe_classes_flag_sizes_the_head(capsys):
    counts = []
    for classes in ("2", "5"):
        code, out, _ = run_cli(capsys, "describe", "--classes", classes)
        assert code == EXIT_OK
        counts.append(int(out.split("parameters:")[1].split()[0]))
    # the 1x1x1 head maps the stem's 8 channels to one logit per class
    assert counts[1] - counts[0] == 3 * (8 + 1)


def _assert_validation_error(code, err, *fragments):
    assert code == EXIT_VALIDATION, err
    assert err.startswith("error: ") and "Traceback" not in err, err
    for fragment in fragments:
        assert fragment in err, err


# the error names the field, also for a value each stage reads
@pytest.mark.parametrize("key", ["ssm_state_dim", "stem_channels", "slots_per_expert", "experts"])
def test_network_config_validate_rejects_zero_widths(key):
    from dataclasses import replace
    from hsmoe.config import tiny_config

    value, shown = ((0, 1, 2, 3), "[0, 1, 2, 3]") if key == "experts" else (0, "0")
    with pytest.raises(ConfigError) as err:
        replace(tiny_config(), **{key: value})
    assert str(err.value).startswith(f"{key} ") and str(err.value).endswith(f"must be >= 1, got {shown}")


# a preset whose layout has a zero width: each stage that builds the network
# reports the field as a validation error, before any file is written
@pytest.mark.parametrize("key", ["ssm_state_dim", "stem_channels", "slots_per_expert", "experts"])
@pytest.mark.parametrize("command", ["describe", "train"])
def test_network_width_below_one_is_validation_error(tmp_path, capsys, monkeypatch, key, command):
    from dataclasses import replace
    from hsmoe.config import PRESETS, tiny_config

    value, shown = ((0, 1, 2, 3), "[0, 1, 2, 3]") if key == "experts" else (0, "0")
    monkeypatch.setitem(PRESETS, "zero", lambda **kw: replace(tiny_config(**kw), **{key: value}))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command, "--preset", "zero")
    _assert_validation_error(code, err, f"error: {key} ", f"must be >= 1, got {shown}")
    assert out == "" and list(tmp_path.iterdir()) == []


_LAYOUT = dict(num_classes=3, stem_channels=4, experts=(2, 3), base_group_size=8, slots_per_expert=1)


def test_expert_counts_must_increase_strictly_with_depth():
    with pytest.raises(ConfigError, match="increase strictly"):
        NetworkConfig(**{**_LAYOUT, "experts": (4, 3)})


def test_base_group_size_must_halve_over_every_stage():
    with pytest.raises(ConfigError, match="base group size 7 must be a positive multiple of 2"):
        NetworkConfig(**{**_LAYOUT, "base_group_size": 7})


@pytest.mark.parametrize("argv,fragment", [
    (["train", "--volumes", "0"], "num_volumes must be >= 1"),
    (["train", "--size", "0"], "size must be >= 1"),
    (["train", "--size", "8"], "size 8 must be a positive multiple of 16"),
    (["train", "--steps", "0"], "steps must be >= 1"),
    (["train", "--lr", "0"], "lr must be > 0"),
    (["train", "--batch-size", "0"], "batch_size must be >= 1"),
    (["train", "--classes", "0"], "num_classes must be >= 2"),
    (["eval", "--checkpoint", "ck", "--volumes", "0"], "num_volumes must be >= 1"),
    (["eval", "--checkpoint", "ck", "--size", "0"], "size must be >= 1"),
    (["train", "--lr", "nan"], "lr must be > 0"),
    (["train", "--lr", "inf"], "lr must be > 0"),
])
def test_bad_run_flag_is_validation_error(capsys, argv, fragment):
    code, _, err = run_cli(capsys, *argv)
    _assert_validation_error(code, err, fragment)


@pytest.mark.parametrize("argv", [["train"], ["bench"], ["eval", "--checkpoint", "ck"]])
def test_negative_seed_is_validation_error_before_any_work(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    _assert_validation_error(code, err, "error: seed must be >= 0, got -1")
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cls,kwargs,fragment", [
    (TrainConfig, {"lr": float("nan")}, "lr must be > 0"),
    (TrainConfig, {"lr": float("-inf")}, "lr must be > 0"),
    (TrainConfig, {"steps": 0}, "steps must be >= 1, got 0"),
    (TrainConfig, {"seed": -1}, "seed must be >= 0, got -1"),
    (cli.RunConfig, {"seed": -1}, "seed must be >= 0, got -1"),
    (cli.RunConfig, {"num_volumes": 0}, "num_volumes must be >= 1, got 0"),
    (cli.RunConfig, {"num_classes": 1}, "num_classes must be >= 2, got 1"),
    (cli.RunConfig, {"norm": "bn"}, "norm must be 'dyt' or 'ln', got 'bn'"),
    # argparse choices keep these from the CLI; built in Python they are checked too
    (cli.RunConfig, {"preset": "bogus"}, "preset must be 'tiny' or 'full', got 'bogus'"),
    (cli.RunConfig, {"precision": "f16"}, "precision must be 'f64' or 'f32', got 'f16'"),
], ids=["train-lr-nan", "train-lr-neg-inf", "train-steps", "train-seed", "run-seed", "run-volumes",
        "run-classes", "run-norm", "run-preset", "run-precision"])
def test_run_settings_check_themselves_at_construction(cls, kwargs, fragment):
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        cls(**kwargs)


@pytest.mark.parametrize("size", ["0", "-16", "24"])
def test_describe_size_must_be_positive_multiple(capsys, size):
    code, out, err = run_cli(capsys, "describe", "--size", size)
    _assert_validation_error(code, err, f"--size {size} must be a positive multiple of 16 (2**stages)")
    assert out == ""


def test_run_flags_merge_in_build_run_config():
    args = cli.build_parser().parse_args(["train", "--steps", "7", "--lr", "0.5", "--batch-size", "3",
                                          "--volumes", "5", "--size", "32", "--classes", "4"])
    run = build_run_config(args)
    assert (run.train.steps, run.train.lr, run.train.batch_size) == (7, 0.5, 3)
    assert (run.num_volumes, run.size, run.num_classes) == (5, 32, 4)
    # describe's --size is the echoed reference extent, not the data size
    run = build_run_config(cli.build_parser().parse_args(["describe", "--size", "32"]))
    assert run.size == cli.RunConfig().size


@pytest.mark.parametrize("command", ["train", "eval"])
def test_every_setting_flag_sets_its_config_key(command):
    flags = ["--seed", "9", "--precision", "f32", "--preset", "full", "--classes", "4",
             "--norm", "ln", "--volumes", "5", "--size", "32"]
    flags += ["--threads", "3"] if command == "eval" else []
    run = build_run_config(cli.build_parser().parse_args([command, *flags]))
    assert (run.seed, run.train.seed, run.precision, run.preset, run.num_classes, run.norm,
            run.num_volumes, run.size) == (9, 9, "f32", "full", 4, "ln", 5, 32)
    assert run.threads == (3 if command == "eval" else 1)


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_fast_modules_pass(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--modules", "tensor_core", "nn_prims")
    assert code == EXIT_OK
    assert "gradcheck: PASS" in out
    assert "tensor_core/matmul" in out


def test_gradcheck_reports_corrupted_gradient(capsys, monkeypatch):
    # negative control: corrupt one analytic backward and expect a named FAIL
    import hsmoe.suites as suites
    from hsmoe import nn, tensor as T_
    from hsmoe.gradcheck import grad_check, weighted_sum_loss
    from hsmoe.tensor import Tensor

    def corrupted_suite():
        g = T_.rng(5)
        x = Tensor(g.uniform(-1, 1, (2, 3)), requires_grad=True)

        def bad_tanh(t):
            out = T_.tanh(t)
            node = out.node
            if node is not None:  # the finite-difference probes run under no_grad
                orig = node.backward_fn
                node.backward_fn = lambda grad: tuple(gi * 1.01 for gi in orig(grad))
            return out

        return [grad_check(lambda: weighted_sum_loss(bad_tanh(x)), {"x": x},
                           name="nn_prims/corrupted_tanh", tol=1e-6)]

    monkeypatch.setitem(suites.MODULE_SUITES, "nn_prims", corrupted_suite)
    code, out, _ = run_cli(capsys, "gradcheck", "--modules", "nn_prims")
    assert code == EXIT_RUNTIME
    assert "nn_prims/corrupted_tanh" in out and "FAIL" in out


def test_diverging_train_prints_only_the_contract_error(capsys):
    # an overflow is reported once, as the NumericalError; numpy's
    # RuntimeWarning must not reach stderr before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "train", "--size", "16", "--volumes", "2", "--batch-size", "2",
                               "--steps", "6", "--lr", "1e12")
    assert code == EXIT_RUNTIME
    assert err.startswith("numerical failure: ") and "Warning" not in err


@pytest.mark.parametrize("argv,fragment", [
    (["--modules", "bogus"], "invalid choice: 'bogus'"),
    (["--modules"], "expected at least one argument"),
])
def test_gradcheck_bad_modules_is_usage_error(capsys, argv, fragment):
    code, _, err = run_cli(capsys, "gradcheck", *argv)
    _assert_validation_error(code, err, fragment)


# ---------------------------------------------------------------------------
# bench


def test_bench_csv_schema_and_slope(tmp_path, capsys):
    out_csv = str(tmp_path / "routing.csv")
    code, out, _ = run_cli(capsys, "bench", "--out", out_csv,
                           "--min-exp", "8", "--max-exp", "11", "--repeats", "1")
    assert code == EXIT_OK
    assert "routing log-log slope" in out
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert [c for c in rows[0]] == ["N", "K", "E", "S", "G", "wall_ms", "est_flops",
                                    "assign_flops_grouped", "assign_flops_global"]
    assert len(rows) == 4
    for row in rows:
        assert int(row["assign_flops_grouped"]) <= int(row["assign_flops_global"])
    # G=1 when K >= N: grouped equals global exactly
    first = rows[0]
    assert int(first["N"]) == 256 and int(first["K"]) == 256
    assert int(first["assign_flops_grouped"]) == int(first["assign_flops_global"])


@pytest.mark.parametrize("argv,fragment", [
    (["--min-exp", "12", "--max-exp", "10"], "need 0 <= --min-exp <= --max-exp"),
    (["--min-exp", "-1", "--max-exp", "2"], "need 0 <= --min-exp <= --max-exp"),
    (["--repeats", "0"], "--repeats must be >= 1"),
    (["--min-exp", "3", "--max-exp", "4", "--network-out", "n.csv"], "extent 2 must be a positive multiple of 4"),
    (["--min-exp", "8", "--max-exp", "8"], "need --min-exp < --max-exp"),
])
def test_bench_bad_sweep_flag_is_validation_error(tmp_path, capsys, argv, fragment):
    code, _, err = run_cli(capsys, "bench", "--out", str(tmp_path / "r.csv"), *argv)
    _assert_validation_error(code, err, fragment)
    assert not (tmp_path / "r.csv").exists()


def test_bench_flags_reach_the_sweeps(tmp_path, capsys, monkeypatch):
    """Sweep timings do not show the seed or the repeat count, so the sweeps
    are replaced by recorders of what the command passed them."""
    from hsmoe import bench

    calls = {}

    def recorder(name, rows):
        def sweep(n_values, **kwargs):
            calls[name] = dict(kwargs, n_values=list(n_values))
            return rows
        return sweep

    row = {"N": 1, "K": 1, "E": 1, "S": 1, "G": 1, "wall_ms": 1.0, "est_flops": 1,
           "assign_flops_grouped": 1, "assign_flops_global": 1}
    monkeypatch.setattr(bench, "routing_sweep", recorder("routing", [row, dict(row, N=2, wall_ms=2.0)]))
    monkeypatch.setattr(bench, "network_sweep",
                        recorder("network", [{"N": 1, "shape": "1", "wall_ms": 1.0},
                                             {"N": 2, "shape": "2", "wall_ms": 2.0}]))

    def norm_comparison(seed):
        calls["norms"] = {"seed": seed}
        return {"dyt": 1.0, "ln": 2.0}

    monkeypatch.setattr(bench, "norm_comparison", norm_comparison)
    code, out, _ = run_cli(capsys, "bench", "--seed", "4", "--out", str(tmp_path / "r.csv"),
                           "--min-exp", "6", "--max-exp", "7", "--group-size", "32", "--repeats", "2")
    assert code == EXIT_OK
    assert calls == {"routing": {"n_values": [64, 128], "group_size": 32, "seed": 4, "repeats": 2}}
    code, out, _ = run_cli(capsys, "bench", "--seed", "8",
                           "--out", str(tmp_path / "r.csv"), "--min-exp", "6", "--max-exp", "7",
                           "--network-out", str(tmp_path / "n.csv"), "--compare-norms")
    assert code == EXIT_OK
    assert calls["routing"]["seed"] == 8 and calls["routing"]["repeats"] == 3
    assert calls["network"] == {"n_values": [64, 128], "seed": 8, "repeats": 3}
    assert calls["norms"] == {"seed": 8}
    assert "network log-log slope" in out and "dyt <= ln: yes" in out
    assert (tmp_path / "n.csv").exists()


# ---------------------------------------------------------------------------
# train / eval pipeline


def test_train_eval_roundtrip(tmp_path, capsys):
    hist = str(tmp_path / "hist.csv")
    ckpt = str(tmp_path / "ckpt")
    code, out, _ = run_cli(capsys, "train", "--preset", "tiny", "--classes", "2",
                           "--seed", "3", "--steps", "4", "--lr", "1e-3",
                           "--volumes", "2", "--size", "16", "--batch-size", "2",
                           "--history", hist, "--checkpoint", ckpt)
    assert code == EXIT_OK, out
    with open(hist) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert list(rows[0]) == ["step", "loss", "mdsc", "lr"]
    assert os.path.exists(ckpt + ".json") and os.path.exists(ckpt + ".bin")

    mcsv = str(tmp_path / "m.csv")
    mjson = str(tmp_path / "m.json")
    code, out, _ = run_cli(capsys, "eval", "--preset", "tiny", "--classes", "2",
                           "--seed", "3", "--volumes", "2", "--size", "16",
                           "--checkpoint", ckpt, "--out", mcsv, "--json-out", mjson)
    assert code == EXIT_OK, out
    summary = json.loads(pathlib.Path(mjson).read_text())
    assert "mdsc" in summary and "per_class" in summary
    with open(mcsv) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["case_id"] for r in rows} == {"case000", "case001"}


def test_train_eval_f32_roundtrip(tmp_path, capsys):
    ckpt = str(tmp_path / "ck32")
    small = ["--classes", "2", "--volumes", "1", "--size", "16"]
    code, _, err = run_cli(capsys, "train", "--precision", "f32", "--steps", "2", "--batch-size", "1",
                           *small, "--history", str(tmp_path / "h.csv"), "--checkpoint", ckpt)
    assert code == EXIT_OK, err
    manifest = json.loads(pathlib.Path(ckpt + ".json").read_text())
    assert {entry["dtype"] for entry in manifest["params"]} == {"f32"}
    out = ["--out", str(tmp_path / "m.csv"), "--json-out", str(tmp_path / "m.json")]
    code, _, err = run_cli(capsys, "eval", "--precision", "f32", "--checkpoint", ckpt, *small, *out)
    assert code == EXIT_OK, err
    code, _, err = run_cli(capsys, "eval", "--checkpoint", ckpt, *small, *out)
    _assert_validation_error(code, err, "dtype mismatch")


def test_train_names_the_checkpoint_files_it_wrote(tmp_path, capsys):
    code, out, err = run_cli(capsys, "train", "--steps", "1", "--volumes", "1", "--batch-size", "1",
                             "--history", str(tmp_path / "h.csv"), "--checkpoint", str(tmp_path / "ck.json"))
    assert code == EXIT_OK, err
    assert f"checkpoint written to {tmp_path / 'ck.json'} and {tmp_path / 'ck.bin'}\n" in out
    assert (tmp_path / "ck.json").exists() and (tmp_path / "ck.bin").exists()


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_precision_casts_network_and_data(precision):
    """Every parameter, image and gradient takes the run's dtype; the values
    are the f64 draw, cast, so f64 runs are the unchanged draw."""
    from hsmoe.config import tiny_config
    from hsmoe.network import SegNet
    from hsmoe.train import dice_ce_loss, synth_volumes

    dtype = T.PRECISIONS[precision]
    run = build_run_config(cli.build_parser().parse_args(
        ["train", "--precision", precision, "--classes", "2", "--volumes", "2"]))
    net, data = cli._net_and_data(run, data_seed=1)
    ref = SegNet(tiny_config(num_classes=2), seed=0)
    ref_data = synth_volumes(seed=1, n=2, size=16, classes=2)
    for (name, p), (_, q) in zip(net.named_parameters(), ref.named_parameters()):
        assert p.data.dtype == dtype, name
        assert np.array_equal(p.data, q.data.astype(dtype)), name
    for sample, ref_sample in zip(data, ref_data):
        assert sample.image.dtype == dtype
        assert np.array_equal(sample.image, ref_sample.image.astype(dtype))
    logits = net(T.Tensor(np.stack([s.image for s in data])))
    T.backward(dice_ce_loss(logits, np.stack([s.label for s in data])))
    for name, p in net.named_parameters():
        assert p.grad is not None and p.grad.dtype == dtype, name


def test_eval_missing_checkpoint_is_clear_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--preset", "tiny", "--checkpoint", "/nonexistent/ck")
    assert code == EXIT_VALIDATION
    assert "missing checkpoint" in err


@pytest.mark.parametrize("damage,fragment", [
    ("truncated payload", "ValueError: buffer is smaller than requested size"),
    ("unparseable manifest", "JSONDecodeError"),
    ("entry without dtype", "KeyError: 'dtype'"),
    ("unknown dtype tag", "KeyError: 'f16'"),
])
def test_malformed_checkpoint_is_validation_error(tmp_path, capsys, damage, fragment):
    from hsmoe import nn
    from hsmoe.checkpoint import save_checkpoint

    base = tmp_path / "ck"
    save_checkpoint(list(nn.Linear(2, 3, T.rng(0)).named_parameters()), str(base))
    manifest_path, payload_path = tmp_path / "ck.json", tmp_path / "ck.bin"
    manifest = json.loads(manifest_path.read_text())
    if damage == "truncated payload":
        payload_path.write_bytes(payload_path.read_bytes()[:-1])
    elif damage == "unparseable manifest":
        manifest_path.write_text("{")
    else:
        entry = manifest["params"][-1]
        if damage == "entry without dtype":
            del entry["dtype"]
        else:
            entry["dtype"] = "f16"
        manifest_path.write_text(json.dumps(manifest))
    code, _, err = run_cli(capsys, "eval", "--checkpoint", str(base), "--volumes", "1")
    _assert_validation_error(code, err, f"malformed checkpoint {base}", fragment)


def test_unparseable_volume_sidecar_is_validation_error(tmp_path, capsys):
    dirs = {kind: tmp_path / kind for kind in ("pred", "gt")}
    for path in dirs.values():
        path.mkdir()
        write_volume(str(path / "a"), np.zeros((4, 4, 4)), dtype="u8")
    (dirs["pred"] / "a.json").write_text("{")
    code, _, err = run_cli(capsys, "eval", "--classes", "2", "--pred-dir", str(dirs["pred"]),
                           "--gt-dir", str(dirs["gt"]), "--out", str(tmp_path / "m.csv"),
                           "--json-out", str(tmp_path / "m.json"))
    _assert_validation_error(code, err, f"bad sidecar {dirs['pred'] / 'a.json'}")


@pytest.mark.parametrize("spacing", [[1.0, 1.0], [float("nan"), 1.0, 1.0], [0.0, 1.0, 1.0],
                                     [1.0, -1.0, 1.0]])
def test_bad_volume_spacing_is_validation_error(tmp_path, capsys, spacing):
    dirs = {kind: tmp_path / kind for kind in ("pred", "gt")}
    lab = np.zeros((4, 4, 4), dtype=np.int64)
    lab[1:3, 1:3, 1:3] = 1
    for path in dirs.values():
        path.mkdir()
        write_volume(str(path / "a"), lab, dtype="u8")
    sidecar = json.loads((dirs["pred"] / "a.json").read_text())
    sidecar["spacing_mm"] = spacing
    (dirs["pred"] / "a.json").write_text(json.dumps(sidecar))
    code, _, err = run_cli(capsys, "eval", "--classes", "2", "--pred-dir", str(dirs["pred"]),
                           "--gt-dir", str(dirs["gt"]), "--out", str(tmp_path / "m.csv"),
                           "--json-out", str(tmp_path / "m.json"))
    _assert_validation_error(code, err, f"bad sidecar {dirs['pred'] / 'a.json'}", "spacing_mm")
    assert not (tmp_path / "m.json").exists()


def test_eval_missing_pred_dir_is_validation_error(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    code, _, err = run_cli(capsys, "eval", "--pred-dir", str(missing), "--gt-dir", str(missing),
                           "--out", str(tmp_path / "m.csv"), "--json-out", str(tmp_path / "m.json"))
    _assert_validation_error(code, err, f"--pred-dir {missing} is not a directory")
    assert not (tmp_path / "m.csv").exists()


def test_eval_gt_dir_that_is_not_a_directory_is_validation_error(tmp_path, capsys):
    argv, missing = _label_dir_argv(tmp_path), tmp_path / "nowhere"
    argv[argv.index("--gt-dir") + 1] = str(missing)
    code, _, err = run_cli(capsys, *argv)
    _assert_validation_error(code, err, f"--gt-dir {missing} is not a directory")
    assert not (tmp_path / "m.csv").exists()


def test_eval_ground_truth_case_without_a_prediction_fails(tmp_path, capsys):
    argv = _label_dir_argv(tmp_path)  # case a in both directories
    write_volume(str(tmp_path / "gt" / "b"), np.zeros((4, 4, 4)), dtype="u8")
    code, _, err = run_cli(capsys, *argv)
    _assert_validation_error(code, err, f"missing volume file: {tmp_path / 'pred' / 'b.vol'}")
    assert not (tmp_path / "m.csv").exists()


def test_eval_identical_pred_gt_fixture(tmp_path, capsys):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    g = T.rng(4)
    for name in ("a", "b"):
        lab = np.zeros((6, 6, 6), dtype=np.int64)
        lab[2:4, 2:4, 2:4] = 1
        lab[0:2, 0:2, 0:2] = g.integers(1, 2)
        write_volume(str(pred_dir / name), lab, dtype="u8")
        write_volume(str(gt_dir / name), lab, dtype="u8")
    mcsv = str(tmp_path / "m.csv")
    mjson = str(tmp_path / "m.json")
    code, out, _ = run_cli(capsys, "eval", "--classes", "2",
                           "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                           "--out", mcsv, "--json-out", mjson)
    assert code == EXIT_OK
    summary = json.loads(pathlib.Path(mjson).read_text())
    assert summary["mdsc"] == 1.0
    assert summary["mhd95"] == 0.0


def _label_dir_argv(tmp_path):
    """``eval`` in label-directory mode over one case, as the benchmark calls it."""
    lab = np.zeros((4, 4, 4), dtype=np.int64)
    lab[1:3, 1:3, 1:3] = 1
    for kind in ("pred", "gt"):
        (tmp_path / kind).mkdir()
        write_volume(str(tmp_path / kind / "a"), lab, dtype="u8")
    return ["eval", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt"), "--classes", "2",
            "--threads", "2", "--out", str(tmp_path / "m.csv"), "--json-out", str(tmp_path / "m.json")]


def test_eval_pred_and_gt_spacings_must_match(tmp_path, capsys):
    # HD95 is measured at one spacing, so a case's pred and gt must share it; b fails before c
    argv = _label_dir_argv(tmp_path)
    lab = np.zeros((4, 4, 4), dtype=np.uint8)
    lab[1:3, 1:3, 1:3] = 1
    for name in ("b", "c"):
        write_volume(str(tmp_path / "gt" / name), lab)
        write_volume(str(tmp_path / "pred" / name), np.roll(lab, 1, axis=0), spacing_mm=(5.0, 5.0, 5.0))
    code, _, err = run_cli(capsys, *argv)
    _assert_validation_error(code, err, "b: pred spacing_mm [5.0, 5.0, 5.0] differs from gt spacing_mm "
                             "[1.0, 1.0, 1.0]")
    assert not (tmp_path / "m.csv").exists() and not (tmp_path / "m.json").exists()


def test_eval_spacing_whose_squared_distances_overflow_is_validation_error(tmp_path, capsys):
    argv = _label_dir_argv(tmp_path)
    lab = np.zeros((4, 4, 4), dtype=np.uint8)
    lab[1:3, 1:3, 1:3] = 1
    for kind in ("pred", "gt"):
        write_volume(str(tmp_path / kind / "a"), lab, spacing_mm=(1e200, 1e200, 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, *argv)
    _assert_validation_error(code, err, "a: spacing (1e+200, 1e+200, 1e+200) mm is too large")
    assert not (tmp_path / "m.json").exists()  # no Infinity written


def test_eval_f32_pred_is_validation_error(tmp_path, capsys):
    # an f32 raster could carry a fractional class id such as 1.5, which no class matches
    argv = _label_dir_argv(tmp_path)
    sidecar_path = tmp_path / "pred" / "a.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["dtype"] = "f32"
    sidecar_path.write_text(json.dumps(sidecar))
    (tmp_path / "pred" / "a.vol").write_bytes(np.full((4, 4, 4), 1.5, dtype="<f4").tobytes())
    code, _, err = run_cli(capsys, *argv)
    _assert_validation_error(code, err, f"bad sidecar {sidecar_path}: dtype must be one of ['u8'], got 'f32'")
    assert not (tmp_path / "m.csv").exists()


def test_eval_volume_that_is_a_directory_is_validation_error(tmp_path, capsys):
    argv = _label_dir_argv(tmp_path)
    path = tmp_path / "pred" / "a.vol"
    path.unlink()
    path.mkdir()
    code, _, err = run_cli(capsys, *argv)
    _assert_validation_error(code, err, f"cannot read {path}: Is a directory")
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("flag,value", [("--checkpoint", "nothere"), ("--seed", "5"), ("--precision", "f32"),
                                        ("--preset", "full"), ("--norm", "ln"), ("--volumes", "7"),
                                        ("--size", "32")])
def test_eval_label_dir_mode_rejects_a_flag_it_does_not_read(tmp_path, capsys, flag, value):
    code, _, err = run_cli(capsys, *_label_dir_argv(tmp_path), flag, value)
    _assert_validation_error(code, err, "'hsmoe eval' in label-directory mode (--pred-dir) does not read "
                             + flag)
    assert not (tmp_path / "m.csv").exists()


def test_eval_label_dir_mode_reads_classes_and_threads_and_leaves_the_seed_ambient(tmp_path, capsys,
                                                                                   monkeypatch):
    monkeypatch.setenv("HSMOE_SEED", "not a seed")  # nothing reads the environment
    code, out, err = run_cli(capsys, *_label_dir_argv(tmp_path))
    assert code == EXIT_OK, err
    assert "evaluated 1 cases over 1 foreground classes" in out


def test_eval_label_dir_mode_checks_the_class_count(tmp_path, capsys):
    # one class names no foreground class to score: rejected as in checkpoint mode, before any case is read
    code, out, err = run_cli(capsys, *_label_dir_argv(tmp_path), "--classes", "1")
    _assert_validation_error(code, err, "error: num_classes must be >= 2, got 1")
    assert out == "" and not (tmp_path / "m.csv").exists() and not (tmp_path / "m.json").exists()


def test_eval_checkpoint_mode_rejects_gt_dir(tmp_path, capsys):
    code, _, err = run_cli(capsys, "eval", "--checkpoint", str(tmp_path / "ck"), "--gt-dir", str(tmp_path),
                           "--out", str(tmp_path / "m.csv"), "--json-out", str(tmp_path / "m.json"))
    _assert_validation_error(code, err, "'hsmoe eval' in checkpoint mode (no --pred-dir) does not read --gt-dir")
    assert not (tmp_path / "m.csv").exists()


def test_eval_workers_run_under_the_cli_errstate(tmp_path, capsys, monkeypatch):
    for kind in ("pred", "gt"):
        (tmp_path / kind).mkdir()
        for name in ("a", "b", "c"):
            lab = np.zeros((4, 4, 4), dtype=np.int64)
            lab[1:3, 1:3, 1:3] = 1
            write_volume(str(tmp_path / kind / name), lab, dtype="u8")
    seen = []
    eval_case = cli._eval_case

    def spy(*args):
        seen.append(np.geterr()["over"])
        return eval_case(*args)

    monkeypatch.setattr(cli, "_eval_case", spy)
    code, _, _ = run_cli(capsys, "eval", "--classes", "2", "--threads", "2",
                         "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt"),
                         "--out", str(tmp_path / "m.csv"), "--json-out", str(tmp_path / "m.json"))
    assert code == EXIT_OK
    assert seen == ["ignore"] * 3


@pytest.mark.parametrize("volume", ["pred", "gt"])
def test_eval_class_id_outside_range_names_the_volume(tmp_path, capsys, volume):
    dirs = {kind: tmp_path / kind for kind in ("pred", "gt")}
    for path in dirs.values():
        path.mkdir()
    for name in ("a", "b"):
        lab = np.zeros((4, 4, 4), dtype=np.int64)
        lab[1:3, 1:3, 1:3] = 1
        write_volume(str(dirs["gt"] / name), lab, dtype="u8")
        if name == "b" and volume == "pred":
            lab[0, 0, 0] = 7
        write_volume(str(dirs["pred"] / name), lab, dtype="u8")
    if volume == "gt":
        lab[0, 0, 0] = 7
        write_volume(str(dirs["gt"] / "b"), lab, dtype="u8")
    code, _, err = run_cli(capsys, "eval", "--classes", "2", "--pred-dir", str(dirs["pred"]),
                           "--gt-dir", str(dirs["gt"]), "--out", str(tmp_path / "m.csv"),
                           "--json-out", str(tmp_path / "m.json"))
    _assert_validation_error(code, err, f"b: {volume} contains class ids outside [0, 2)")


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("bad_class_in,want", [(None, "missing volume file: {gt}/c.vol"),
                                               ("b", "b: pred contains class ids outside [0, 2)")])
def test_eval_reports_the_first_failing_case_in_name_order(tmp_path, capsys, threads, bad_class_in, want):
    # cases a–d: no gt volume for c, and a class id out of range in the pred of ``bad_class_in``
    dirs = {kind: tmp_path / kind for kind in ("pred", "gt")}
    for path in dirs.values():
        path.mkdir()
    for name in "abcd":
        lab = np.zeros((4, 4, 4), dtype=np.int64)
        lab[1:3, 1:3, 1:3] = 1
        if name != "c":
            write_volume(str(dirs["gt"] / name), lab, dtype="u8")
        if name == bad_class_in:
            lab[0, 0, 0] = 7
        write_volume(str(dirs["pred"] / name), lab, dtype="u8")
    code, _, err = run_cli(capsys, "eval", "--classes", "2", "--threads", threads,
                           "--pred-dir", str(dirs["pred"]), "--gt-dir", str(dirs["gt"]),
                           "--out", str(tmp_path / "m.csv"), "--json-out", str(tmp_path / "m.json"))
    _assert_validation_error(code, err, want.format(gt=dirs["gt"]))
    assert not (tmp_path / "m.csv").exists() and not (tmp_path / "m.json").exists()


def test_eval_stops_scoring_after_the_first_failing_case(tmp_path, capsys, monkeypatch):
    # cases a–d at one thread, a class id out of range in a's pred: b–d are never scored
    dirs = {kind: tmp_path / kind for kind in ("pred", "gt")}
    for path in dirs.values():
        path.mkdir()
    for name in "abcd":
        lab = np.zeros((4, 4, 4), dtype=np.int64)
        lab[1:3, 1:3, 1:3] = 1
        write_volume(str(dirs["gt"] / name), lab, dtype="u8")
        if name == "a":
            lab[0, 0, 0] = 7
        write_volume(str(dirs["pred"] / name), lab, dtype="u8")
    scored = []
    eval_case = cli._eval_case

    def spy(name, *args):
        scored.append(name)
        return eval_case(name, *args)

    monkeypatch.setattr(cli, "_eval_case", spy)
    code, _, err = run_cli(capsys, "eval", "--classes", "2", "--threads", "1",
                           "--pred-dir", str(dirs["pred"]), "--gt-dir", str(dirs["gt"]),
                           "--out", str(tmp_path / "m.csv"), "--json-out", str(tmp_path / "m.json"))
    _assert_validation_error(code, err, "a: pred contains class ids outside [0, 2)")
    assert scored == ["a"]


def test_threads_flag_gives_same_eval_results(tmp_path, capsys):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    g = T.rng(5)
    for name in ("a", "b", "c"):
        p = g.integers(0, 2, size=(5, 5, 5))
        q = g.integers(0, 2, size=(5, 5, 5))
        write_volume(str(pred_dir / name), p, dtype="u8")
        write_volume(str(gt_dir / name), q, dtype="u8")
    outs = []
    for threads in ("1", "3"):
        mcsv = str(tmp_path / f"m{threads}.csv")
        code, _, _ = run_cli(capsys, "eval", "--classes", "2", "--threads", threads,
                             "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                             "--out", mcsv, "--json-out", str(tmp_path / f"m{threads}.json"))
        assert code == EXIT_OK
        outs.append(pathlib.Path(mcsv).read_text())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# output paths


def _cheap_run_argv(command, tmp_path):
    """A short run of ``command`` whose output paths are all writable."""
    if command == "train":
        return ["train", "--steps", "1", "--volumes", "1", "--history", str(tmp_path / "h.csv"),
                "--checkpoint", str(tmp_path / "ck")]
    if command == "bench":
        return ["bench", "--min-exp", "6", "--max-exp", "7", "--repeats", "1", "--out", str(tmp_path / "r.csv"),
                "--network-out", str(tmp_path / "n.csv")]
    return _label_dir_argv(tmp_path)


def _forbid_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output paths were checked")

    for owner, name in ((cli, "train_loop"), (cli, "_eval_case"), (cli.bench_mod, "routing_sweep"),
                        (cli.bench_mod, "network_sweep")):
        monkeypatch.setattr(owner, name, no_work)


@pytest.mark.parametrize("bad", ["missing directory", "a directory"])
@pytest.mark.parametrize("command,flag", [("train", "--history"), ("train", "--checkpoint"), ("bench", "--out"),
                                          ("bench", "--network-out"), ("eval", "--out"), ("eval", "--json-out")])
def test_unwritable_output_path_is_validation_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                                   command, flag, bad):
    _forbid_work(monkeypatch)
    argv = _cheap_run_argv(command, tmp_path)
    if bad == "missing directory":
        path, fragment = tmp_path / "nowhere" / "out", f"directory {tmp_path / 'nowhere'} does not exist"
    else:  # a directory where the file would go; --checkpoint base x.json writes x.json and x.bin
        path, fragment = tmp_path / "taken.json", f"{tmp_path / 'taken.json'} is a directory"
        path.mkdir()
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(capsys, *argv, flag, str(path))
    _assert_validation_error(code, err, f"error: {flag} {path}: ", fragment)
    assert out == ""
    assert sorted(tmp_path.rglob("*")) == before  # no checkpoint, history, CSV or JSON written


# the second file names the first's, directly, by a checkpoint base, or through a directory
@pytest.mark.parametrize("command,first,second,written", [
    ("train", ("--history", "ck.json"), ("--checkpoint", "ck"), "ck.json"),
    ("eval", ("--out", "m"), ("--json-out", "m"), "m"),
    ("bench", ("--out", "r.csv"), ("--network-out", "sub/../r.csv"), "sub/../r.csv"),
], ids=["train", "eval", "bench"])
def test_two_outputs_naming_one_file_is_validation_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                                        command, first, second, written):
    _forbid_work(monkeypatch)
    argv = _cheap_run_argv(command, tmp_path)
    (tmp_path / "sub").mkdir()
    before = sorted(tmp_path.rglob("*"))
    (flag1, name1), (flag2, name2) = first, second
    code, out, err = run_cli(capsys, *argv, flag1, str(tmp_path / name1), flag2, str(tmp_path / name2))
    _assert_validation_error(code, err, f"error: {flag2} {tmp_path / name2}: {tmp_path / written} "
                             f"is also written by {flag1} {tmp_path / name1}")
    assert out == ""
    assert sorted(tmp_path.rglob("*")) == before
