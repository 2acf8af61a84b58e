"""The benchmark's tracer (``perfbench/layers.py``) wraps hsmoe callables by
name; a renamed or deleted hook point must fail here, not only under
``perfbench/run.py --trace 1``."""

import pathlib

from hsmoe import train

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_hook_point_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        patches = list(tracer._patches)
    finally:
        tracer.restore()
    assert len(patches) == 25
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"
    # the train-tiny workload wraps AdamW.zero_grad to delimit its steps
    assert "zero_grad" in vars(train.AdamW)
