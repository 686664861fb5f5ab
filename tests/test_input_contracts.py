"""Input contracts of augment and evaluate, and all-or-nothing JSONL writes."""

from __future__ import annotations

import os
import stat
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from phonaug import (
    Inventory, MappingTable, PhoneTrack, ScenarioSpec, augment_corpus, generate,
)
from phonaug.cli import main
from phonaug.ctc import write_tracks
from phonaug.errors import MissingCounterpart, PhonaugError
from phonaug.io import dump_line, write_jsonl

INV = Inventory.default()


@pytest.fixture
def runner():
    return CliRunner()


def test_write_jsonl_failure_keeps_earlier_file(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_text("earlier\n", encoding="utf-8")

    def records():
        yield {"a": 1}
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        write_jsonl(out, records())
    assert out.read_text(encoding="utf-8") == "earlier\n"
    assert list(tmp_path.iterdir()) == [out]


def test_write_jsonl_replaces_file(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_text("earlier\n", encoding="utf-8")
    assert write_jsonl(out, [{"b": 2, "a": 1}, {"c": []}]) == 2
    assert out.read_text(encoding="utf-8") == '{"a":1,"b":2}\n{"c":[]}\n'
    assert list(tmp_path.iterdir()) == [out]


def test_write_jsonl_through_symlink_keeps_link(tmp_path):
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_text("earlier\n", encoding="utf-8")
    link.symlink_to(target)
    write_jsonl(link, [{"a": 1}])
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == '{"a":1}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "target.jsonl"]


def test_write_jsonl_refuses_non_regular_target(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    with pytest.raises(PhonaugError, match="must be a regular file"):
        write_jsonl(fifo, [{"a": 1}])
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_fail_missing_leaves_no_output(tmp_path, runner):
    rm_tracks, hm_tracks, _ = generate(ScenarioSpec(seed=3, n_utterances=50), INV)
    rm, hm, out = tmp_path / "rm.jsonl", tmp_path / "hm.jsonl", tmp_path / "tm.jsonl"
    write_tracks(rm, rm_tracks)
    write_tracks(hm, hm_tracks[:45])
    result = runner.invoke(main, ["augment", str(rm), str(hm), str(out), "--fail-missing"])
    assert result.exit_code == 1
    assert "no HM counterpart for utterance 'synth-000045'" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hm.jsonl", "rm.jsonl"]
    with pytest.raises(MissingCounterpart, match="'synth-000045'"):
        augment_corpus(rm, hm, MappingTable.default(INV), out, INV, skip_missing=False)
    assert not out.exists()


DEFECTS = ("duplicate_rm", "duplicate_hm", "frame_ms")


def inject(defect, k, rm_tracks, hm_tracks):
    """Return RM and HM track lists with one defect at utterance k."""
    rm_tracks, hm_tracks = list(rm_tracks), list(hm_tracks)
    if defect == "duplicate_rm":
        rm_tracks.insert(k, rm_tracks[k])
    elif defect == "duplicate_hm":
        hm_tracks.append(hm_tracks[k])
    else:
        hm = hm_tracks[k]
        hm_tracks[k] = PhoneTrack(hm.utt_id, hm.model_tag, hm.phones, hm.frame_ms / 2)
    return rm_tracks, hm_tracks


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8), data=st.data(),
       defect=st.sampled_from(DEFECTS), command=st.sampled_from(["augment", "prefilter"]))
def test_one_defect_fails_the_command_without_output(seed, n, data, defect, command):
    k = data.draw(st.integers(0, n - 1), label="k")
    rm_tracks, hm_tracks, _ = generate(ScenarioSpec(seed=seed, n_utterances=n), INV)
    utt_id = rm_tracks[k].utt_id
    rm_tracks, hm_tracks = inject(defect, k, rm_tracks, hm_tracks)
    with tempfile.TemporaryDirectory() as d:
        work = Path(d)
        rm, hm, out = work / "rm.jsonl", work / "hm.jsonl", work / "tm.jsonl"
        write_tracks(rm, rm_tracks)
        write_tracks(hm, hm_tracks)
        args = ["augment", str(rm), str(hm), str(out)] if command == "augment" \
            else ["prefilter-aspiration", str(rm), str(hm), "--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert repr(utt_id) in result.output
        assert sorted(p.name for p in work.iterdir()) == ["hm.jsonl", "rm.jsonl"]


def test_evaluate_rejects_duplicate_model_utt_id(tmp_path, runner):
    lines = [{"utt_id": "u1", "phoneme": "b", "vot_ms": -10.0, "onset": onset, "model": m}
             for onset, m in (("b", "BM"), ("p", "BM"), ("b", "TM"))]
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(dump_line(o) + "\n" for o in lines), encoding="utf-8")
    result = runner.invoke(main, ["evaluate", str(path), "--out-prefix",
                                  str(tmp_path / "rep")])
    assert result.exit_code == 1
    assert "u1: more than one BM instance" in result.output
    assert list(tmp_path.iterdir()) == [path]

