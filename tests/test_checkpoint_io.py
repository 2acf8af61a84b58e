"""Checkpoint manifest/payload format and the raw volume file format."""

import json
import re
import warnings

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


def test_volume_roundtrip_u8_labels(tmp_path):
    lab = T.rng(7).integers(0, 3, size=(3, 3, 3))
    base = str(tmp_path / "lab")
    write_volume(base, lab, spacing_mm=(0.8, 0.8, 3.0), dtype="u8")
    back, spacing = read_volume(base)
    assert spacing == (0.8, 0.8, 3.0)
    assert np.array_equal(back, lab)
    assert back.dtype == np.uint8  # the raster as stored


def test_volume_sidecar_schema(tmp_path):
    vol = np.zeros((2, 3, 4), dtype=np.uint8)
    write_volume(str(tmp_path / "v"), vol, spacing_mm=(1.0, 1.5, 2.0))
    sidecar = json.loads((tmp_path / "v.json").read_text())
    assert sidecar == {"dims": [2, 3, 4], "spacing_mm": [1.0, 1.5, 2.0], "dtype": "u8"}
    raw = (tmp_path / "v.vol").read_bytes()
    assert len(raw) == 2 * 3 * 4  # one byte per voxel


@pytest.mark.parametrize("value", [300, -1, 1.5, float("nan"), float("inf")])
def test_volume_write_refuses_a_value_the_raster_cannot_hold(tmp_path, value):
    # 300 would be stored as 44, -1 as 255 and 1.5 as 1; NaN and inf make numpy's cast warn
    lab = np.zeros((2, 2, 2), dtype=type(value))
    lab[1, 0, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VolumeIOError, match=re.escape(f"v.vol: a u8 raster holds integers in [0, 255], "
                                                          f"got {value!r}")):
            write_volume(str(tmp_path / "v"), lab)
    assert list(tmp_path.iterdir()) == []


def test_volume_f32_sidecar_rejected_on_read(tmp_path):
    write_volume(str(tmp_path / "v"), np.zeros((2, 2, 2)))
    sidecar = json.loads((tmp_path / "v.json").read_text())
    sidecar["dtype"] = "f32"
    (tmp_path / "v.json").write_text(json.dumps(sidecar))
    (tmp_path / "v.vol").write_bytes(np.full((2, 2, 2), 1.5, dtype="<f4").tobytes())
    with pytest.raises(VolumeIOError, match=r"bad sidecar .*v.json: dtype must be one of \['u8'\], got 'f32'"):
        read_volume(str(tmp_path / "v"))


@pytest.mark.parametrize("suffix", [".vol", ".json"])
def test_volume_file_that_cannot_be_read_is_named(tmp_path, suffix):
    write_volume(str(tmp_path / "v"), np.zeros((2, 2, 2)))
    path = tmp_path / f"v{suffix}"
    path.unlink()
    path.mkdir()
    with pytest.raises(VolumeIOError, match=f"cannot read {re.escape(str(path))}: Is a directory"):
        read_volume(str(tmp_path / "v"))


def test_volume_size_mismatch_detected(tmp_path):
    write_volume(str(tmp_path / "v"), np.zeros((2, 2, 2), dtype=np.float32))
    sidecar = json.loads((tmp_path / "v.json").read_text())
    sidecar["dims"] = [2, 2, 3]
    (tmp_path / "v.json").write_text(json.dumps(sidecar))
    with pytest.raises(VolumeIOError, match="voxels"):
        read_volume(str(tmp_path / "v"))


@pytest.mark.parametrize("key, value", [
    ("spacing_mm", [1.0, 1.0]),
    ("spacing_mm", [float("nan"), 1.0, 1.0]),
    ("spacing_mm", [1.0, 0.0, 1.0]),
    ("spacing_mm", [1.0, 1.0, -1.0]),
    ("dims", [2, 2, 2, 1]),
    ("dims", [2, 2, 2.0]),
])
def test_volume_bad_dims_or_spacing_rejected(tmp_path, key, value):
    write_volume(str(tmp_path / "v"), np.zeros((2, 2, 2), dtype=np.float32))
    sidecar = json.loads((tmp_path / "v.json").read_text())
    sidecar[key] = value
    (tmp_path / "v.json").write_text(json.dumps(sidecar))
    with pytest.raises(VolumeIOError, match=f"bad sidecar .*v.json: {key}"):
        read_volume(str(tmp_path / "v"))


@pytest.mark.parametrize("shape, spacing, fragment", [
    ((2, 2, 2), (1.0, float("nan")), "spacing_mm"),
    ((2, 2, 2), (1.0, float("nan"), 1.0), "spacing_mm"),
    ((2, 2, 2), (1.0, 0.0, 1.0), "spacing_mm"),
    ((2, 2), (1.0, 1.0, 1.0), "dims"),
    ((2, 0, 2), (1.0, 1.0, 1.0), "dims"),
])
def test_volume_write_checks_the_sidecar_rule_before_any_file(tmp_path, shape, spacing, fragment):
    with pytest.raises(VolumeIOError, match=f"cannot write .*v.json: {fragment}"):
        write_volume(str(tmp_path / "v"), np.zeros(shape), spacing_mm=spacing)
    assert list(tmp_path.iterdir()) == []


def test_volume_missing_file(tmp_path):
    with pytest.raises(VolumeIOError, match="missing"):
        read_volume(str(tmp_path / "ghost"))
