"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured quantity (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances and budgets are pinned here and match the per-module contracts:
routing-vs-oracle 1e-12, scan-vs-recurrence 1e-10, gradient checks 1e-4,
routing slope 1.0 +/- 0.15, network slope <= 1.2, overfit mDSC > 0.95.
"""

import math
import time

import numpy as np
import pytest

from hsmoe import cli, tensor as T
from hsmoe.bench import fit_loglog_slope, network_sweep, norm_comparison, routing_sweep, scan_sweep
from hsmoe.blocks import EncoderBlock, zero_residual_branches
from hsmoe.config import StageConfig, TrainConfig, tiny_config
from hsmoe.gradcheck import gradient_flow, run_suites
from hsmoe.network import SegNet
from hsmoe.routing import HierarchicalMoE, group_and_pad, slot_assign
from hsmoe.ssm import GatedSSM, SSMParams, linear_recurrence, selective_scan
from hsmoe.tensor import Tensor
from hsmoe.train import dice_ce_loss, synth_volumes, train_loop

from oracles import ffn_closure, hierarchical_moe_naive, scan_naive, dice_naive, hd95_naive


def _report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {detail}")


def _expert_fns(bank):
    return [ffn_closure(bank.w1.data[e], bank.b1.data[e, 0], bank.w2.data[e], bank.b2.data[e, 0], "gelu")
            for e in range(len(bank))]


def _run_layer_oracle(layer: HierarchicalMoE, x, mask=None):
    return hierarchical_moe_naive(x, mask, layer.cfg.group_size, layer.slot_emb.data,
                                  layer.router1.weight.data, layer.router1.bias.data,
                                  _expert_fns(layer.experts1),
                                  layer.router2.weight.data, layer.router2.bias.data,
                                  _expert_fns(layer.experts2))


def test_criterion_1_routing_oracle_equivalence():
    start = time.perf_counter()
    gen = T.rng(2024)
    worst = 0.0
    n_configs = 100
    for trial in range(n_configs):
        B = int(gen.integers(1, 3))
        N = int(gen.integers(1, 9))
        E = int(gen.integers(1, 4))
        S = int(gen.integers(1, 3))
        d = int(gen.integers(1, 5))
        K = int(gen.integers(1, N + 1))
        layer = HierarchicalMoE(StageConfig(dim=d, num_experts=E, group_size=K,
                                            slots_per_expert=S), T.rng(trial))
        x = gen.uniform(-1, 1, (B, N, d))
        mask = None
        if trial % 4 == 0:
            mask = (gen.uniform(size=(B, N)) > 0.3).astype(np.float64)
            mask[:, 0] = 1.0
        got = layer(Tensor(x), mask).data
        worst = max(worst, float(np.max(np.abs(got - _run_layer_oracle(layer, x, mask)))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"max abs diff {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s (budget 10s)"
    _report(1, f"{n_configs} random tiny configs, max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_soundness():
    start = time.perf_counter()
    results = run_suites(["routing", "block", "ssm_scan", "network"])
    elapsed = time.perf_counter() - start
    worst = max(r.max_rel_err for r in results)
    for r in results:
        assert r.max_rel_err < 1e-4, f"{r.name}: {r.max_rel_err}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s (budget 2min)"
    coords = sum(r.coords_checked for r in results)
    _report(2, f"{len(results)} suites, {coords} coordinates, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_dispatch_normalization_and_padding_invariance():
    gen = T.rng(33)
    worst_sum = 0.0
    cases = 0
    for _ in range(30):
        N = int(gen.integers(2, 40))
        K = int(gen.integers(2, 12))
        if N % K == 0:
            N += 1  # exercise padding
        d = int(gen.integers(2, 5))
        E = int(gen.integers(2, 4))
        S = int(gen.integers(1, 3))
        layer = HierarchicalMoE(StageConfig(dim=d, num_experts=E, group_size=K,
                                            slots_per_expert=S), T.rng(N * K))
        x = gen.uniform(-1, 1, (2, N, d))
        n_valid = int(gen.integers(1, N + 1))
        mask = np.zeros((2, N))
        mask[:, :n_valid] = 1.0
        grouped, valid = group_and_pad(Tensor(x), mask, K)
        _, A = slot_assign(grouped, valid, layer.slot_emb)
        sums = A.data.sum(axis=-1).reshape(2, -1)
        vb = valid.astype(bool)
        worst_sum = max(worst_sum, float(np.max(np.abs(sums[vb] - 1.0))))
        assert np.array_equal(sums[~vb], np.zeros((~vb).sum()))
        base = layer(Tensor(x), mask).data
        x2 = x.copy()
        x2[:, n_valid:] = gen.uniform(-50, 50, x2[:, n_valid:].shape)
        pert = layer(Tensor(x2), mask).data
        diff = float(np.max(np.abs(pert[:, :n_valid] - base[:, :n_valid])))
        assert diff <= 1e-12, f"padding leak {diff}"
        cases += 1
    assert worst_sum <= 1e-12
    _report(3, f"{cases} (N,K) cases with padding, max |sum-1| {worst_sum:.2e}, outputs pad-invariant")


def test_criterion_4_within_group_permutation_equivariance():
    gen = T.rng(44)
    worst = 0.0
    for trial in range(20):
        N = int(gen.integers(4, 17))
        K = int(gen.integers(2, min(N, 8) + 1))
        d = int(gen.integers(2, 5))
        layer = HierarchicalMoE(StageConfig(dim=d, num_experts=2, group_size=K,
                                            slots_per_expert=2), T.rng(500 + trial))
        x = gen.uniform(-1, 1, (1, N, d))
        out = layer(Tensor(x)).data
        g0 = int(gen.integers(0, N // K)) if N >= K else 0
        lo, hi = g0 * K, min((g0 + 1) * K, N)
        perm = gen.permutation(hi - lo)
        xp = x.copy()
        xp[0, lo:hi] = x[0, lo + perm]
        outp = layer(Tensor(xp)).data
        want = out.copy()
        want[0, lo:hi] = out[0, lo + perm]
        worst = max(worst, float(np.max(np.abs(outp - want))))
    assert worst <= 1e-12, f"max deviation {worst}"
    _report(4, f"20 random within-group permutations, max abs deviation {worst:.2e}")


def test_criterion_5_scan_equivalence_and_causality():
    gen = T.rng(55)
    worst = 0.0
    for _ in range(100):
        B = int(gen.integers(1, 3))
        N = int(gen.integers(1, 65))
        d = int(gen.integers(1, 5))
        n = int(gen.integers(1, 5))
        a = gen.uniform(0.0, 1.0, (B, N, d, n))
        u = gen.uniform(-1, 1, (B, N, d, n))
        got = linear_recurrence(Tensor(a), Tensor(u), block_size=8).data
        worst = max(worst, float(np.max(np.abs(got - scan_naive(a, u)))))
    assert worst < 1e-10, f"max abs diff {worst}"

    params = SSMParams(3, 2, T.rng(56))
    x = gen.uniform(-1, 1, (1, 20, 3))
    base = selective_scan(params, Tensor(x)).data
    cut = 8
    xp = x.copy()
    xp[:, cut + 1:] += gen.uniform(0.5, 1.0, xp[:, cut + 1:].shape)
    pert = selective_scan(params, Tensor(xp)).data
    assert np.array_equal(base[:, : cut + 1], pert[:, : cut + 1]), "future leaked into past"
    _report(5, f"100 blocked-vs-naive cases, max abs diff {worst:.2e}; causality holds")


def test_criterion_6_residual_identity_bitwise():
    stage = StageConfig(dim=4, num_experts=2, group_size=8, slots_per_expert=2)
    block = EncoderBlock(stage, 2, "dyt", 4, T.rng(66))
    zero_residual_branches(block)
    x = Tensor(T.rng(67).uniform(-1, 1, (2, 4, 2, 4, 2)))
    out = block(x)
    assert np.array_equal(out.data, x.data), "zero-branch block is not the identity"
    _report(6, "zero-initialized branches give block(x) == x bitwise")


def test_criterion_7_complexity_scaling():
    start = time.perf_counter()
    n_values = [2 ** k for k in range(10, 17)]
    routing_rows = routing_sweep(n_values, seed=77)
    r_slope = fit_loglog_slope([r["N"] for r in routing_rows],
                               [r["wall_ms"] for r in routing_rows])
    assert 0.85 <= r_slope <= 1.15, f"routing slope {r_slope:.3f} outside 1.0 +/- 0.15"
    for row in routing_rows:
        assert row["assign_flops_grouped"] <= row["assign_flops_global"]
    one_group = routing_sweep([256], group_size=256, seed=78)[0]
    assert one_group["G"] == 1
    assert one_group["assign_flops_grouped"] == one_group["assign_flops_global"]

    net_rows = network_sweep(n_values, seed=79)
    n_slope = fit_loglog_slope([r["N"] for r in net_rows], [r["wall_ms"] for r in net_rows])
    assert n_slope <= 1.2, f"network slope {n_slope:.3f} > 1.2"

    scan_rows = scan_sweep(n_values, seed=80)
    s_slope = fit_loglog_slope([r["N"] for r in scan_rows], [r["wall_ms"] for r in scan_rows])
    assert 0.85 <= s_slope <= 1.15, f"scan slope {s_slope:.3f} outside 1.0 +/- 0.15"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s (budget 5min)"
    _report(7, f"routing slope {r_slope:.3f}, scan slope {s_slope:.3f} (in [0.85,1.15]), "
               f"network slope {n_slope:.3f} (<=1.2), grouped<=global with equality at G=1, "
               f"{elapsed:.1f}s")


def test_criterion_8_schedule_fidelity(capsys):
    code = cli.main(["describe", "--preset", "full"])
    out = capsys.readouterr().out
    assert code == 0
    assert "experts_level1: [4, 8, 12, 16]" in out
    assert "experts_level2: [8, 16, 24, 32]" in out
    assert "group_sizes: [2048, 1024, 512, 256]" in out
    assert "slots_per_expert: 4" in out
    assert "stem_channels: 48" in out
    assert "channels: [48, 96, 192, 384]" in out
    with capsys.disabled():
        _report(8, "describe echoes E=[4,8,12,16], E2=2E, K=[2048,1024,512,256], S=4, "
                   "stem=48, doubling channels")


def test_criterion_9_metric_oracles_and_dyt_reference():
    from hsmoe.metrics import dsc_per_class, hd95
    from hsmoe.nn import DynamicTanh

    gen = T.rng(99)
    n_cases = 1000
    hd_checked = 0
    for _ in range(n_cases):
        shape = tuple(int(gen.integers(1, 6)) for _ in range(3))
        a = gen.uniform(size=shape) > 0.55
        b = gen.uniform(size=shape) > 0.55
        assert dsc_per_class(a.astype(int), b.astype(int), 1) == dice_naive(a.astype(int), b.astype(int), 1)
        if a.any() and b.any():
            spacing = tuple(float(s) for s in gen.uniform(0.5, 2.0, 3))
            assert hd95(a, b, spacing) == pytest.approx(hd95_naive(a, b, spacing), abs=1e-12)
            hd_checked += 1

    dyt = DynamicTanh(1)
    dyt.alpha.data[...] = 1.0
    dyt.w.data[:] = 2.0
    dyt.b.data[:] = 0.1
    got = dyt(Tensor(np.array([[0.5]]))).item()
    assert abs(got - (2.0 * math.tanh(0.5) + 0.1)) < 1e-9
    dyt.alpha.data[...] = 0.0
    assert abs(dyt(Tensor(np.array([[3.0]]))).item() - 0.1) < 1e-9
    _report(9, f"{n_cases} DSC cases exact, {hd_checked} HD95 cases exact, DyT matches "
               f"scalar reference to 1e-9")


@pytest.fixture(scope="module")
def overfit_runs():
    """Criterion-10 workload, run for both normalization choices."""
    runs = {}
    data = synth_volumes(seed=1, n=4, size=16, classes=3)
    for norm in ("dyt", "ln"):
        start = time.perf_counter()
        net = SegNet(tiny_config(num_classes=3, norm=norm), seed=0)
        history = train_loop(net, data, TrainConfig(lr=1e-2, batch_size=4, steps=300, seed=2))
        runs[norm] = {
            "net": net,
            "data": data,
            "history": history,
            "seconds": time.perf_counter() - start,
        }
    return runs


def test_criterion_10_end_to_end_overfit(overfit_runs):
    run = overfit_runs["dyt"]
    final = run["history"][-1]
    assert final["mdsc"] > 0.95, f"train mDSC {final['mdsc']:.4f} <= 0.95"
    assert len(run["history"]) <= 300
    assert run["seconds"] < 900.0, f"took {run['seconds']:.0f}s (budget 15min)"

    # loss trend: the 20-step moving average decreases over the first 200
    # steps with at most 2 non-decreasing windows
    losses = np.array([h["loss"] for h in run["history"][:200]])
    ma = np.convolve(losses, np.ones(20) / 20, mode="valid")
    non_decreasing = int((np.diff(ma[::20]) >= 0).sum())
    assert non_decreasing <= 2, f"{non_decreasing} non-decreasing moving-average windows"

    # determinism: the identical run replays with a bit-identical loss curve
    # (the cosine schedule depends on the horizon, so the replay uses the
    # same step count)
    net_b = SegNet(tiny_config(num_classes=3), seed=0)
    replay = train_loop(net_b, run["data"], TrainConfig(lr=1e-2, batch_size=4, steps=300, seed=2))
    assert [h["loss"] for h in replay] == [h["loss"] for h in run["history"]]

    # gradient flow into slot embeddings and every level-2 expert
    net_c = SegNet(tiny_config(num_classes=3), seed=3)
    sample = run["data"][0]
    loss = dice_ce_loss(net_c(Tensor(sample.image[None])), sample.label[None])
    report = gradient_flow(list(net_c.named_parameters()), loss)
    slot_names = [k for k in report if "slot_emb" in k]
    l2_names = [k for k in report if "experts2" in k]
    assert slot_names and all(report[k] > 0 for k in slot_names), "dead slot embeddings"
    assert l2_names and all(report[k] > 0 for k in l2_names), "dead level-2 experts"
    _report(10, f"train mDSC {final['mdsc']:.4f} > 0.95 in {len(run['history'])} steps, "
                f"{run['seconds']:.0f}s, deterministic, gradients reach slots and all "
                f"level-2 experts")


def test_criterion_11_norm_swap(overfit_runs):
    for norm in ("dyt", "ln"):
        losses = [h["loss"] for h in overfit_runs[norm]["history"]]
        assert all(math.isfinite(v) for v in losses), f"{norm} run diverged"
    times = norm_comparison(seed=11)
    assert times["dyt"] <= times["ln"], (
        f"DyT normalization {times['dyt']:.2f}ms slower than LN {times['ln']:.2f}ms")
    _report(11, f"both norms finish the overfit run with finite losses; swapped-norm "
                f"forward over sweep sizes dyt {times['dyt']:.2f}ms <= ln {times['ln']:.2f}ms")
