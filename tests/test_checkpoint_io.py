"""Checkpoint manifest/payload format and the raw volume file format."""

import json

import numpy as np
import pytest

from hsmoe import nn, tensor as T
from hsmoe.checkpoint import CheckpointError, load_checkpoint, load_into, save_checkpoint
from hsmoe.routing import ExpertBank
from hsmoe.tensor import Tensor
from hsmoe.volio import VolumeIOError, read_volume, write_volume


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    ffn = ExpertBank(1, 3, T.rng(0))
    base = str(tmp_path / "ckpt")
    save_checkpoint(list(ffn.named_parameters()), base)
    values = load_checkpoint(base)
    for name, p in ffn.named_parameters():
        assert np.array_equal(values[name], p.data)


def test_checkpoint_manifest_schema(tmp_path):
    lin = nn.Linear(2, 3, T.rng(1))
    base = str(tmp_path / "ckpt")
    save_checkpoint(list(lin.named_parameters()), base)
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    assert manifest["format"] == "hsmoe-checkpoint-v2"
    entries = {e["name"]: e for e in manifest["params"]}
    assert entries["weight"]["shape"] == [2, 3]
    assert entries["weight"]["dtype"] == "f64"
    assert entries["weight"]["offset"] == 0
    assert entries["bias"]["offset"] == 2 * 3 * 8
    payload = (tmp_path / "ckpt.bin").read_bytes()
    assert len(payload) == (2 * 3 + 3) * 8
    # little-endian f64 payload
    w = np.frombuffer(payload[: 2 * 3 * 8], dtype="<f8").reshape(2, 3)
    assert np.array_equal(w, lin.weight.data)


def test_load_into_restores_and_checks(tmp_path):
    a = ExpertBank(1, 3, T.rng(2))
    base = str(tmp_path / "ckpt")
    save_checkpoint(list(a.named_parameters()), base)
    b = ExpertBank(1, 3, T.rng(3))
    load_into(b, base)
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data)
    wrong = ExpertBank(1, 4, T.rng(4))
    with pytest.raises(CheckpointError):
        load_into(wrong, base)


def test_v1_checkpoint_rejected_with_reason(tmp_path):
    lin = nn.Linear(2, 3, T.rng(8))
    base = str(tmp_path / "ckpt")
    save_checkpoint(list(lin.named_parameters()), base)
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    manifest["format"] = "hsmoe-checkpoint-v1"
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="v1 stores per-expert FFNs"):
        load_into(lin, base)


def test_load_into_rejects_dtype_mismatch(tmp_path):
    a = nn.Linear(2, 3, T.rng(9))
    base = str(tmp_path / "ckpt")
    save_checkpoint(list(a.named_parameters()), base)
    b = nn.Linear(2, 3, T.rng(10))
    b.bias.data = b.bias.data.astype(np.float32)
    before = b.weight.data.copy()
    with pytest.raises(CheckpointError, match=r"dtype mismatch for bias: checkpoint float64 vs model float32"):
        load_into(b, base)
    assert np.array_equal(b.weight.data, before)  # nothing copied on a rejected load


def test_missing_checkpoint_raises(tmp_path):
    with pytest.raises(CheckpointError, match="missing"):
        load_checkpoint(str(tmp_path / "nope"))


# ---------------------------------------------------------------------------
# volume files


def test_volume_roundtrip_f32(tmp_path):
    vol = T.rng(6).uniform(0, 1, (4, 5, 6)).astype(np.float32)
    base = str(tmp_path / "img")
    write_volume(base, vol, spacing_mm=(0.8, 0.8, 3.0))
    back, spacing = read_volume(base)
    assert spacing == (0.8, 0.8, 3.0)
    assert np.array_equal(back, vol.astype(np.float64))


def test_volume_roundtrip_u8_labels(tmp_path):
    lab = T.rng(7).integers(0, 3, size=(3, 3, 3))
    base = str(tmp_path / "lab")
    write_volume(base, lab, dtype="u8")
    back, _ = read_volume(base)
    assert np.array_equal(back, lab)
    assert back.dtype == np.int64


def test_volume_sidecar_schema(tmp_path):
    vol = np.zeros((2, 3, 4), dtype=np.float32)
    write_volume(str(tmp_path / "v"), vol, spacing_mm=(1.0, 1.5, 2.0))
    sidecar = json.loads((tmp_path / "v.json").read_text())
    assert sidecar == {"dims": [2, 3, 4], "spacing_mm": [1.0, 1.5, 2.0], "dtype": "f32"}
    raw = (tmp_path / "v.vol").read_bytes()
    assert len(raw) == 2 * 3 * 4 * 4  # little-endian f32 raster


def test_volume_size_mismatch_detected(tmp_path):
    write_volume(str(tmp_path / "v"), np.zeros((2, 2, 2), dtype=np.float32))
    sidecar = json.loads((tmp_path / "v.json").read_text())
    sidecar["dims"] = [2, 2, 3]
    (tmp_path / "v.json").write_text(json.dumps(sidecar))
    with pytest.raises(VolumeIOError, match="voxels"):
        read_volume(str(tmp_path / "v"))


def test_volume_missing_file(tmp_path):
    with pytest.raises(VolumeIOError, match="missing"):
        read_volume(str(tmp_path / "ghost"))
