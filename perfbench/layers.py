"""Per-layer instrumentation of hsmoe from outside, and the per-layer metrics.

``install`` wraps each layer's public callables at the place its callers look
them up (a module global or a class attribute); ``Tracer.restore`` puts the
originals back. Nothing inside ``src/hsmoe`` is changed.

Layer times are self times (span minus child spans) summed over one op, in
ms, median over the traced ops. Three are inclusive instead, because their
children are other layers: ``train.forward_ms`` (the whole network forward),
``routing.call_us`` (per HierarchicalMoE call) and
``gradcheck.check_ms.<check>``. Counts marked computed are derived from
operand shapes, not measured.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter

from tracer import ROOT, Tracer

# tape ops whose backward closures get their own spans and node counts
TAPE_OPS = ("conv3d", "matmul", "mul", "add", "linear_recurrence", "softmax", "permute")

GRADCHECKS = (
    "tensor_core/matmul", "tensor_core/softmax", "tensor_core/reduce_mean",
    "tensor_core/elementwise", "nn_prims/ffn", "nn_prims/dyt", "nn_prims/layernorm",
    "nn_prims/conv3d", "ssm_scan/linear_recurrence", "ssm_scan/gated_layer",
    "routing/full_layer", "block/gsc", "block/full", "network/sampled_subset",
)

# self-time metric -> span name
SELF_MS = {
    "tensor.backward_ms": "tensor.backward",
    **{f"tensor.backward_ms.{op}": f"tensor.backward.{op}" for op in TAPE_OPS},
    "nn.conv3d_ms": "nn.conv3d",
    "nn.conv_transpose3d_ms": "nn.conv_transpose3d",
    "nn.layernorm_ms": "nn.layernorm",
    "nn.dyt_ms": "nn.dyt",
    "ssm.gated_ssm_ms": "ssm.gated_ssm",
    "ssm.linear_recurrence_ms": "ssm.linear_recurrence",
    "routing.moe_ms": "routing.moe",
    "routing.slot_assign_ms": "routing.slot_assign",
    "routing.level1_ms": "routing.level1",
    "routing.level2_ms": "routing.level2",
    "routing.combine_ms": "routing.combine",
    "blocks.gsc_ms": "blocks.gsc",
    "network.encoder_ms": "network.encoder",
    "network.decoder_ms": "network.decoder",
    "train.loss_ms": "train.loss",
    "train.optimizer_ms": "train.optimizer",
    "metrics.hd95_ms": "metrics.hd95",
    "metrics.surface_voxels_ms": "metrics.surface_voxels",
    "metrics.dsc_ms": "metrics.dsc",
    "volio.read_ms": "volio.read",
}

# which end-to-end metric each layer should move, and on which workload
LAYER_MAP = {
    "tensor": {"metrics": "tensor.backward_ms[.<op>], tensor.tape_nodes[.<op>]",
               "moves": ["train.step_ms.p50 on train-tiny",
                         "gradcheck.pass_s.p50 on gradcheck-suites"]},
    "nn": {"metrics": "nn.conv3d_ms, nn.conv3d.gmac[_per_s], nn.conv3d.gbytes[_per_s], "
                      "nn.conv_transpose3d_ms, nn.layernorm_ms, nn.dyt_ms",
           "moves": ["infer.volume_ms.p50 on infer-48"]},
    "ssm": {"metrics": "ssm.gated_ssm_ms, ssm.linear_recurrence_ms",
            "moves": ["infer.volume_ms.p50 on infer-48"]},
    "routing": {"metrics": "routing.moe_ms, routing.slot_assign_ms, routing.level1_ms, "
                           "routing.level2_ms, routing.combine_ms, routing.call_us",
                "moves": ["gradcheck.pass_s.p50 on gradcheck-suites (most)",
                          "train.step_ms.p50 on train-tiny (some)",
                          "infer.volume_ms.p50 on infer-48 (barely)"]},
    "blocks/network": {"metrics": "blocks.gsc_ms, network.encoder_ms, network.decoder_ms",
                       "moves": ["infer.volume_ms.p50 on infer-48"]},
    "train": {"metrics": "train.forward_ms, train.loss_ms, train.optimizer_ms",
              "moves": ["train.step_ms.p50 on train-tiny"]},
    "metrics": {"metrics": "metrics.hd95_ms, metrics.surface_voxels_ms, metrics.dsc_ms, "
                           "metrics.distance_pairs[_per_s]",
                "moves": ["eval.cases_per_s on eval-labels (only)"]},
    "volio": {"metrics": "volio.read_ms, volio.bytes_read, volio.read_mb_per_s",
              "moves": ["eval.command_s.p50 on eval-labels"]},
    "gradcheck": {"metrics": "gradcheck.check_ms.<check>, gradcheck.loss_evals[_per_s]",
                  "moves": ["gradcheck.pass_s.p50 on gradcheck-suites"]},
}


def _tape(out):
    """Every tensor with a tape node reachable from ``out`` (the walk
    ``tensor.backward`` makes), each once."""
    seen = set()
    stack = [out]
    while stack:
        t = stack.pop()
        if id(t) in seen or t.node is None:
            continue
        seen.add(id(t))
        yield t
        stack.extend(t.node.inputs)


def install(tracer: Tracer) -> None:
    from hsmoe import blocks, cli, gradcheck, metrics, network, nn, routing, ssm, suites, tensor, train

    def spans(owner, attr, name, after=None):
        tracer.patch(owner, attr, lambda fn: tracer.spanned(name, fn, after))

    def conv_work(args, kwargs, out):
        x, weight = args[0], args[1]
        macs = out.size * weight.size // weight.shape[0]
        cols = macs // weight.shape[0]
        tracer.count("nn.conv3d.mac", macs)
        tracer.count("nn.conv3d.bytes", x.data.itemsize * (x.size + 2 * cols + weight.size + out.size))

    def census(args, kwargs, out):
        nodes = Counter(t.node.op for t in _tape(out))
        tracer.count("network.forwards", 1)
        tracer.count("tape", sum(nodes.values()))
        for op, n in nodes.items():
            tracer.count(f"tape.{op}", n)

    def surface_size(args, kwargs, out):
        tracer.local.surfaces = getattr(tracer.local, "surfaces", []) + [len(out)]

    def distance_pairs(args, kwargs, out):
        p, g = tracer.local.surfaces[-2:]
        tracer.local.surfaces = []
        tracer.count("metrics.distance_pairs", p * g)

    def file_bytes(args, kwargs, out):
        base = args[0]
        tracer.count("volio.bytes_read", os.path.getsize(base + ".vol") + os.path.getsize(base + ".json"))

    def timed_backward(fn):
        def backward(loss):
            tracer.open("trace.walk")
            try:
                for t in _tape(loss):
                    if t.node.op in TAPE_OPS and t.node.backward_fn is not None:
                        t.node.backward_fn = tracer.spanned(f"tensor.backward.{t.node.op}",
                                                            t.node.backward_fn)
            finally:
                tracer.close()
            tracer.open("tensor.backward")
            try:
                return fn(loss)
            finally:
                tracer.close()
        return backward

    def timed_check(fn):
        def grad_check(loss_fn, params, *args, **kwargs):
            def counted_loss():
                tracer.count("gradcheck.loss_evals", 1)
                return loss_fn()
            name = kwargs.get("name", "check")
            tracer.open("gradcheck.check." + name.replace("/", "."))
            try:
                return fn(counted_loss, params, *args, **kwargs)
            finally:
                tracer.close()
        return grad_check

    spans(nn, "conv3d", "nn.conv3d", after=conv_work)
    spans(nn.ConvTranspose3d, "__call__", "nn.conv_transpose3d")
    spans(nn.LayerNorm, "__call__", "nn.layernorm")
    spans(nn.DynamicTanh, "__call__", "nn.dyt")
    spans(ssm.GatedSSM, "__call__", "ssm.gated_ssm")
    spans(ssm, "linear_recurrence", "ssm.linear_recurrence")
    spans(routing.HierarchicalMoE, "__call__", "routing.moe")
    spans(routing, "slot_assign", "routing.slot_assign")
    spans(routing, "level1_route", "routing.level1")
    spans(routing, "level2_route", "routing.level2")
    spans(routing, "combine", "routing.combine")
    spans(blocks.GatedSpatialConv, "__call__", "blocks.gsc")
    spans(network.SegNet, "encoder_forward", "network.encoder")
    spans(network.SegNet, "decoder_forward", "network.decoder")
    spans(network.SegNet, "__call__", "network.forward", after=tracer.spanned("trace.walk", census))
    spans(train, "dice_ce_loss", "train.loss")
    spans(train.AdamW, "step", "train.optimizer")
    tracer.patch(tensor, "backward", timed_backward)
    spans(cli, "hd95", "metrics.hd95", after=distance_pairs)
    spans(metrics, "surface_voxels", "metrics.surface_voxels", after=surface_size)
    spans(cli, "dsc_per_class", "metrics.dsc")
    spans(metrics, "dsc_per_class", "metrics.dsc")
    spans(cli, "read_volume", "volio.read", after=file_bytes)
    tracer.patch(suites, "grad_check", timed_check)
    tracer.patch(gradcheck, "grad_check", timed_check)


def _op_values(entry: dict) -> dict:
    self_s, incl_s, calls, counts = entry["self"], entry["incl"], entry["calls"], entry["counts"]
    values = {name: 1e3 * self_s[span] for name, span in SELF_MS.items()}

    forwards = counts["network.forwards"]
    values["tensor.tape_nodes"] = counts["tape"] / forwards if forwards else 0.0
    for op in TAPE_OPS:
        values[f"tensor.tape_nodes.{op}"] = counts[f"tape.{op}"] / forwards if forwards else 0.0

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    conv_s = self_s["nn.conv3d"]
    values["nn.conv3d.gmac"] = counts["nn.conv3d.mac"] / 1e9
    values["nn.conv3d.gmac_per_s"] = rate(counts["nn.conv3d.mac"] / 1e9, conv_s)
    values["nn.conv3d.gbytes"] = counts["nn.conv3d.bytes"] / 1e9
    values["nn.conv3d.gbytes_per_s"] = rate(counts["nn.conv3d.bytes"] / 1e9, conv_s)
    values["train.forward_ms"] = 1e3 * incl_s["network.forward"]
    values["routing.call_us"] = rate(1e6 * incl_s["routing.moe"], calls["routing.moe"])
    values["metrics.distance_pairs"] = float(counts["metrics.distance_pairs"])
    values["metrics.distance_pairs_per_s"] = rate(counts["metrics.distance_pairs"], self_s["metrics.hd95"])
    values["volio.bytes_read"] = float(counts["volio.bytes_read"])
    values["volio.read_mb_per_s"] = rate(counts["volio.bytes_read"] / 1e6, self_s["volio.read"])
    for check in GRADCHECKS:
        name = check.replace("/", ".")
        values["gradcheck.check_ms." + name] = 1e3 * incl_s["gradcheck.check." + name]
    values["gradcheck.loss_evals"] = float(counts["gradcheck.loss_evals"])
    values["gradcheck.loss_evals_per_s"] = rate(counts["gradcheck.loss_evals"], incl_s[ROOT])
    values["trace.uncovered_pct"] = 100.0 * rate(self_s[ROOT], incl_s[ROOT])
    return values


def layer_metrics(tracer: Tracer) -> dict:
    """Median over the traced ops of each per-layer metric."""
    per_op = [_op_values(entry) for entry in tracer.per_op().values()]
    return {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
