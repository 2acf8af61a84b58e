"""Loss, optimizer, schedule, synthetic data, and the training loop."""

import gc
import math
import time
import tracemalloc

import numpy as np
import pytest

from hsmoe import ssm, tensor as T, train
from hsmoe.config import NetworkConfig, TrainConfig, tiny_config
from hsmoe.gradcheck import grad_check, gradient_flow
from hsmoe.metrics import mdsc
from hsmoe.network import SegNet
from hsmoe.tensor import Tensor
from hsmoe.train import (ADAM_WEIGHT_DECAY, AdamW, TrainingDiverged, adamw_update, cosine_lr, dice_ce_loss,
                         synth_volumes, train_loop)


def mini_net(num_classes=2, seed=0):
    cfg = NetworkConfig(num_classes=num_classes, stem_channels=4,
                        experts=(1, 2), base_group_size=8, slots_per_expert=1,
                        ssm_state_dim=2)
    return SegNet(cfg, seed=seed)


# ---------------------------------------------------------------------------
# dice + cross-entropy


def test_loss_near_zero_for_confident_correct_logits():
    labels = T.rng(0).integers(0, 2, size=(1, 4, 4, 4))
    logits = np.full((1, 2, 4, 4, 4), -20.0)
    np.put_along_axis(logits, labels[:, None], 20.0, axis=1)
    loss = dice_ce_loss(Tensor(logits), labels)
    assert loss.item() < 0.01


def test_loss_uniform_logits_closed_form():
    # CE term is exactly ln 2; Dice term follows from p == 0.5 everywhere:
    # per class, dice = 1 - 2*(0.5*|G_c|) / (0.5*V + |G_c| + eps)
    labels = np.zeros((1, 2, 2, 2), dtype=np.int64)
    labels[0, 0] = 1  # half the voxels are class 1
    logits = np.zeros((1, 2, 2, 2, 2))
    loss = dice_ce_loss(Tensor(logits), labels)
    V, eps = 8.0, 1e-5
    dice = np.mean([1.0 - (2 * 0.5 * 4.0) / (0.5 * V + 4.0 + eps) for _ in range(2)])
    want = dice + math.log(2.0)
    assert abs(loss.item() - want) < 1e-12


def test_loss_rejects_bad_class_ids():
    with pytest.raises(ValueError, match="class ids"):
        dice_ce_loss(Tensor(np.zeros((1, 2, 2, 2, 2))), np.full((1, 2, 2, 2), 3))


def test_loss_gradient_two_class_case():
    g = T.rng(1)
    logits = Tensor(g.uniform(-1, 1, (1, 2, 4, 4, 4)), requires_grad=True)
    labels = g.integers(0, 2, size=(1, 4, 4, 4))
    res = grad_check(lambda: dice_ce_loss(logits, labels), {"logits": logits},
                     name="dice_ce", tol=1e-6, coord_budget=60, rng=T.rng(2))
    assert res.passed, f"max rel err {res.max_rel_err}"


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_zero_gradient_only_decays_params():
    value = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    adamw_update(value, np.zeros(2), m, v, t=1, lr=0.1, scratch=np.empty((2, 2)))
    want = np.array([1.0, -2.0])
    want -= 0.1 * ADAM_WEIGHT_DECAY * want  # the moment step is exactly 0
    assert np.array_equal(value, want)


def test_adamw_first_step_hand_computed():
    value = np.array([0.5])
    m = np.zeros(1)
    v = np.zeros(1)
    adamw_update(value, np.ones(1), m, v, t=1, lr=0.01, scratch=np.empty((2, 1)))
    # bias-corrected first step: m_hat = 1, v_hat = 1 -> update lr/(1+eps)
    want = 0.5 - 0.01 * 1.0 / (1.0 + 1e-8)
    want -= 0.01 * ADAM_WEIGHT_DECAY * want
    assert abs(value[0] - want) < 1e-15


def test_adamw_converges_on_quadratic_bowl():
    theta = Tensor(np.array([3.0]), requires_grad=True)
    opt = AdamW([("theta", theta)])
    for _ in range(200):
        opt.zero_grad()
        loss = T.reduce_sum(T.mul(theta, theta))
        T.backward(loss)
        opt.step(0.1)
    assert abs(theta.data[0]) < 1e-2


def test_adamw_decoupled_decay_shrinks_params():
    value = np.array([1.0])
    m = np.zeros(1)
    v = np.zeros(1)
    adamw_update(value, np.zeros(1), m, v, t=1, lr=0.5, scratch=np.empty((2, 1)))
    assert abs(value[0] - (1.0 - 0.5 * ADAM_WEIGHT_DECAY)) < 1e-15


def _adamw_textbook(value, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                    weight_decay=ADAM_WEIGHT_DECAY):
    """AdamW as written before the in-place form, with a temporary per operation."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    value -= lr * m_hat / (np.sqrt(v_hat) + eps)
    value -= lr * weight_decay * value


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adamw_in_place_is_bit_identical_to_textbook_form(dtype):
    g = T.rng(61)
    shapes = [(3, 4), (), (50,), (2, 3, 2), (7,)]  # 0-d; sizes that grow the shared scratch and that reuse it
    params = [Tensor(g.uniform(-1, 1, sh).astype(dtype), requires_grad=True) for sh in shapes]
    ref = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
    opt = AdamW([(f"p{i}", p) for i, p in enumerate(params)])
    for step in range(1, 21):
        for p in params:
            p.grad = g.standard_normal(p.shape).astype(dtype)
        opt.step(lr=0.05 / step)
        for p, (value, m, v) in zip(params, ref):
            _adamw_textbook(value, p.grad, m, v, step, 0.05 / step)
    for i, (p, (value, m, v)) in enumerate(zip(params, ref)):
        assert p.data.dtype == dtype
        assert np.array_equal(p.data, value), f"p{i}"
        assert np.array_equal(opt.m[f"p{i}"], m) and np.array_equal(opt.v[f"p{i}"], v), f"p{i}"


def test_lr_zero_keeps_loss_constant():
    net = mini_net(seed=3)
    sample = synth_volumes(seed=4, n=1, size=8, classes=2)[0]
    opt = AdamW(list(net.named_parameters()))
    losses = []
    for _ in range(3):
        opt.zero_grad()
        loss = dice_ce_loss(net(Tensor(sample.image[None])), sample.label[None])
        T.backward(loss)
        opt.step(0.0)
        losses.append(loss.item())
    assert losses[0] == losses[1] == losses[2]


# ---------------------------------------------------------------------------
# schedule


def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 3e-4) == 3e-4
    assert cosine_lr(100, 100, 3e-4) == pytest.approx(0.0, abs=1e-19)
    assert cosine_lr(50, 100, 3e-4) == pytest.approx(1.5e-4)


# ---------------------------------------------------------------------------
# synthetic volumes


def test_synth_deterministic_per_seed():
    a = synth_volumes(seed=7, n=2, size=16, classes=3)
    b = synth_volumes(seed=7, n=2, size=16, classes=3)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert np.array_equal(sa.label, sb.label)


def test_synth_contract():
    samples = synth_volumes(seed=8, n=8, size=16, classes=3)
    assert len(samples) == 8
    for s in samples:
        assert s.image.shape == (1, 16, 16, 16)
        assert s.label.shape == (16, 16, 16)
        assert set(np.unique(s.label)) <= {0, 1, 2}
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def test_synth_foreground_fraction_in_band():
    for s in synth_volumes(seed=9, n=6, size=16, classes=3):
        frac = (s.label > 0).mean()
        assert 0.05 <= frac <= 0.40


# ---------------------------------------------------------------------------
# loop


def test_train_loop_deterministic_and_loss_drops():
    net_a = mini_net(seed=10)
    net_b = mini_net(seed=10)
    data = synth_volumes(seed=11, n=2, size=8, classes=2)
    cfg = TrainConfig(lr=3e-3, batch_size=2, steps=12, seed=12)
    hist_a = train_loop(net_a, data, cfg)
    hist_b = train_loop(net_b, data, cfg)
    assert [h["loss"] for h in hist_a] == [h["loss"] for h in hist_b]
    assert hist_a[-1]["loss"] < hist_a[0]["loss"]


def test_train_loop_divergence_names_step():
    net = mini_net(seed=13)
    # poison a parameter so the first forward overflows to inf
    net.stem.conv.weight.data[:] = 1e308
    data = synth_volumes(seed=14, n=1, size=8, classes=2)
    with pytest.raises(TrainingDiverged, match="step 1"):
        train_loop(net, data, TrainConfig(lr=1e-3, steps=2, seed=15))


def test_train_loop_backward_divergence_names_step(monkeypatch):
    # a finite loss whose backward overflows (the linear recurrence's adjoint)
    decay = Tensor(np.full((1, 3, 1), 1e5), requires_grad=True)
    drive = Tensor(np.full((1, 3, 1), 1e-300), requires_grad=True)
    loss_fn = train.dice_ce_loss
    monkeypatch.setattr(train, "dice_ce_loss", lambda logits, labels: T.add(
        loss_fn(logits, labels),
        T.reduce_sum(T.mul(ssm.linear_recurrence(decay, drive, block_size=2), 1e300))))
    net = mini_net(seed=13)
    data = synth_volumes(seed=14, n=1, size=8, classes=2)
    with pytest.raises(TrainingDiverged, match="step 1: linear_recurrence backward") as info:
        train_loop(net, data, TrainConfig(lr=1e-3, steps=2, seed=15))
    assert isinstance(info.value.__cause__, T.NumericalError)


def test_profile_totals_match_a_step():
    net = mini_net(seed=18)
    sample = synth_volumes(seed=19, n=1, size=8, classes=2)[0]
    x = Tensor(sample.image[None])
    with T.profile() as prof:
        t0 = time.perf_counter()
        loss = dice_ce_loss(net(x), sample.label[None])
        t1 = time.perf_counter()
        T.backward(loss)
        t2 = time.perf_counter()
    forward, backward = sum(prof.forward_s.values()), sum(prof.backward_s.values())
    assert abs(forward - (t1 - t0)) <= 0.1 * (t1 - t0), (forward, t1 - t0)
    assert abs(backward - (t2 - t1)) <= 0.1 * (t2 - t1), (backward, t2 - t1)
    nodes = sum(prof.nodes.values())
    assert prof.nodes["conv3d"] > 0 and prof.backward_s["conv3d"] > 0 and prof.backward_s["backward"] > 0
    assert prof.table().splitlines()[-1].split()[:2] == ["total", str(nodes)]
    # outside the block nothing is recorded
    T.backward(dice_ce_loss(net(x), sample.label[None]))
    assert sum(prof.nodes.values()) == nodes


def test_a_step_holds_no_graph_after_its_backward():
    # the tiny train step (4x16^3): what the caller's ``logits`` and ``loss``
    # keep alive from one step's end to the next step's forward
    net = SegNet(tiny_config(num_classes=3), seed=0)
    opt = AdamW(list(net.named_parameters()))
    data = synth_volumes(seed=1, n=4, size=16, classes=3)
    images = Tensor(np.stack([s.image for s in data]))
    labels = np.stack([s.label for s in data])
    held = []
    tracemalloc.start()
    try:
        for _ in range(3):
            opt.zero_grad()
            logits = net(images)
            loss = dice_ce_loss(logits, labels)
            T.backward(loss)
            opt.step(1e-3)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            del logits, loss
            gc.collect()
            held.append(before - tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    # the logits' own 384 KiB and little else; the whole graph is ~14 MB
    assert max(held) < 2 * 2**20, held


def test_gradient_flow_reaches_every_parameter():
    # every stage needs >= 2 experts and slots: a softmax over a single
    # expert-slot pair is constant and its router/embedding grads are
    # legitimately zero
    cfg = NetworkConfig(num_classes=2, stem_channels=4, experts=(2, 3),
                        base_group_size=8, slots_per_expert=2,
                        ssm_state_dim=2)
    net = SegNet(cfg, seed=16)
    sample = synth_volumes(seed=17, n=1, size=8, classes=2)[0]
    loss = dice_ce_loss(net(Tensor(sample.image[None])), sample.label[None])
    report = gradient_flow(list(net.named_parameters()), loss)
    dead = sorted(name for name, mag in report.items() if mag == 0.0)
    assert not dead, f"zero gradient on: {dead}"
    assert any("slot_emb" in name for name in report)
    assert any("experts2" in name for name in report)


def test_gradient_flow_reports_each_stacked_expert():
    cfg = NetworkConfig(num_classes=2, stem_channels=4, experts=(2, 3),
                        base_group_size=8, slots_per_expert=2,
                        ssm_state_dim=2)
    net = SegNet(cfg, seed=16)
    bank = net.blocks[1].layers[0].moe.experts2
    bank.w2.data[4] = 0.0  # expert 4's output no longer depends on its first linear
    sample = synth_volumes(seed=17, n=1, size=8, classes=2)[0]
    loss = dice_ce_loss(net(Tensor(sample.image[None])), sample.label[None])
    report = gradient_flow(list(net.named_parameters()), loss)
    prefix = "blocks.1.layers.0.moe.experts2"
    assert f"{prefix}.w2.5" in report and f"{prefix}.w2" not in report
    dead = sorted(name for name, mag in report.items() if mag == 0.0)
    assert dead == [f"{prefix}.b1.4", f"{prefix}.w1.4"]


# ---------------------------------------------------------------------------
# dtype and inference


def test_f32_network_gets_f32_gradients_everywhere():
    net = SegNet(tiny_config(num_classes=3), seed=0)
    for _, p in net.named_parameters():
        p.data = p.data.astype(np.float32)
    sample = synth_volumes(seed=18, n=1, size=16, classes=3)[0]
    logits = net(Tensor(sample.image[None].astype(np.float32)))
    loss = dice_ce_loss(logits, sample.label[None])
    assert logits.dtype == np.float32 and loss.dtype == np.float32
    T.backward(loss)
    wrong = [(name, p.grad.dtype) for name, p in net.named_parameters() if p.grad.dtype != p.dtype]
    assert wrong == []


def test_evaluate_mdsc_records_no_tape_and_training_still_works(monkeypatch):
    # two experts and slots per stage, so every parameter gets a gradient
    cfg = NetworkConfig(num_classes=2, stem_channels=4, experts=(2, 3),
                        base_group_size=8, slots_per_expert=2,
                        ssm_state_dim=2)
    net = SegNet(cfg, seed=19)
    data = synth_volumes(seed=20, n=2, size=8, classes=2)
    recorded = []
    for s in data:  # the same forward with the tape recorded
        logits = net(Tensor(s.image[None]))
        assert logits.node is not None
        recorded.append(mdsc(np.argmax(logits.data, axis=1)[0], s.label, 2))
    for _, p in net.named_parameters():
        p.grad = None
    with monkeypatch.context() as m:
        m.setattr(T, "TapeNode", lambda *a: pytest.fail("evaluate_mdsc recorded a tape node"))
        assert train.evaluate_mdsc(net, data) == float(np.mean(recorded))
    assert all(p.grad is None and p.requires_grad for _, p in net.named_parameters())
    before = {name: p.data.copy() for name, p in net.named_parameters()}
    train_loop(net, data, TrainConfig(lr=1e-3, batch_size=2, steps=1, seed=21))
    assert all(not np.array_equal(p.data, before[name]) for name, p in net.named_parameters())
