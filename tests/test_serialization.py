import json
import struct

import numpy as np
import pytest

from skilldiff.envs.synthetic import build_chain
from skilldiff.mdp import DEAD_SENTINEL_U32, MdpError, TabularDsmdp

from conftest import random_dsmdp


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    mdp = random_dsmdp(rng, 23, 2)
    path = tmp_path / "m.bin"
    mdp.save_binary(path)
    back = TabularDsmdp.load_binary(path)
    assert np.array_equal(back.successor, mdp.successor)
    assert back.goal == mdp.goal
    assert back.action_labels == mdp.action_labels


def test_binary_layout(tmp_path):
    mdp, _ = build_chain(2)
    path = tmp_path / "m.bin"
    mdp.save_binary(path)
    raw = path.read_bytes()
    assert raw[:6] == b"DSMDP\x00"
    version, n, m, goal, base = struct.unpack("<5I", raw[6:26])
    assert (version, n, m, goal, base) == (1, 3, 1, 0, 1)
    (nlabels,) = struct.unpack("<I", raw[26:30])
    labels = json.loads(raw[30:30 + nlabels])
    assert labels == {"action_labels": ["a"]}
    table = np.frombuffer(raw[30 + nlabels:], dtype=np.uint32).reshape(3, 1)
    assert table[0, 0] == DEAD_SENTINEL_U32  # goal row
    assert table[1, 0] == 0 and table[2, 0] == 1


def test_binary_round_trip_preserves_augmentation_metadata(tmp_path):
    from skilldiff.skills import Skill, augment

    mdp, _ = build_chain(4)
    aug = augment(mdp, [Skill.from_macro((0, 0), label="aa")])
    path = tmp_path / "aug.bin"
    aug.mdp.save_binary(path)
    back = TabularDsmdp.load_binary(path)
    assert back.base_action_count == 1
    assert back.num_actions == 2
    assert back.action_labels == ["a", "aa"]


@pytest.mark.parametrize("cut, what", [
    (lambda nlabels: 6 + 10, "header"),
    (lambda nlabels: 6 + 22, "header"),
    (lambda nlabels: 30 + nlabels // 2, "labels"),
    (lambda nlabels: 30 + nlabels + 5, "successor table"),
    (lambda nlabels: -1, "successor table"),
], ids=["mid-header", "label-length", "mid-labels", "mid-table", "last-byte"])
def test_truncated_binary_names_the_short_part(tmp_path, cut, what):
    mdp = random_dsmdp(np.random.default_rng(62), 9, 3)
    path = tmp_path / "m.bin"
    mdp.save_binary(path)
    raw = path.read_bytes()
    (nlabels,) = struct.unpack("<I", raw[26:30])
    path.write_bytes(raw[:cut(nlabels)])
    with pytest.raises(MdpError, match=f"truncated file: {what}"):
        TabularDsmdp.load_binary(path)


def _with_label_blob(tmp_path, blob: bytes):
    """A saved 9-state MDP whose label blob is replaced by ``blob``."""
    mdp = random_dsmdp(np.random.default_rng(62), 9, 3)
    path = tmp_path / "m.bin"
    mdp.save_binary(path)
    raw = path.read_bytes()
    (nlabels,) = struct.unpack("<I", raw[26:30])
    path.write_bytes(raw[:26] + struct.pack("<I", len(blob)) + blob
                     + raw[30 + nlabels:])
    return path


@pytest.mark.parametrize("blob", [
    b"!" + json.dumps({"action_labels": ["a0", "a1", "a2"]}).encode()[1:],
    b"\xff\xfe",
    json.dumps({"labels": ["a0", "a1", "a2"]}).encode(),
    json.dumps(["a0", "a1", "a2"]).encode(),
], ids=["bad-json", "bad-utf8", "no-action-labels", "not-an-object"])
def test_corrupt_label_blob_is_an_mdp_error(tmp_path, blob):
    path = _with_label_blob(tmp_path, blob)
    with pytest.raises(MdpError, match="corrupt label blob"):
        TabularDsmdp.load_binary(path)


def test_rewritten_label_blob_still_loads(tmp_path):
    labels = ["x", "y", "z"]
    path = _with_label_blob(
        tmp_path, json.dumps({"action_labels": labels}).encode())
    assert TabularDsmdp.load_binary(path).action_labels == labels


def test_run_record_json_round_trip():
    from skilldiff.rl import RunRecord

    rec = RunRecord(samples=[(0, 0.0, float("nan")), (500, 0.25, 1.5),
                             (1000, 1.0, 0.0)],
                    converged=True, terminal_env_steps=1000,
                    algorithm="q_learning", seed=11)
    line = json.dumps({"run_id": 3, **rec.to_json_dict()})
    back = RunRecord.from_json_dict(json.loads(line))
    assert all(type(s) is tuple for s in back.samples)
    assert back.samples[1:] == rec.samples[1:]
    assert back.samples[0][:2] == (0, 0.0) and np.isnan(back.samples[0][2])
    assert (back.converged, back.terminal_env_steps, back.algorithm,
            back.seed) == (True, 1000, "q_learning", 11)
    assert json.dumps(back.to_json_dict()) == json.dumps(rec.to_json_dict())
