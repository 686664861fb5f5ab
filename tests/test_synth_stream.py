"""`phonaug synth` streams: `synth.utterances` yields one utterance at a time,
and the command writes its three files as it goes, through `io.replacing`. The
files must hold the bytes that `generate` and the list writers give, and appear
complete or not at all. Outputs that name one file are refused before any write."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest
from clirun import invoke
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonaug import Inventory, ScenarioSpec, generate, io
from phonaug.ctc import track_to_obj
from phonaug.errors import PhonaugError
from phonaug.inventory import ASPIRATED, BREATHY_VOICED, TENUIS, VOICED, Phonation
from phonaug.synth import GroundTruthMatch, truth_line, utterances

INV = Inventory.default()

# what JSON escapes or spells raw: quote, backslash, C0 controls, DEL, non-BMP, any other
UTT_ID_CHARS = st.one_of(
    st.sampled_from(['"', "\\", "\x7f", " ", "é", "ʰ"]),
    st.characters(min_codepoint=0, max_codepoint=0x1F),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
    st.characters(blacklist_categories=("Cs",)))
PHONATIONS = [TENUIS, ASPIRATED, VOICED, BREATHY_VOICED]


@given(st.text(UTT_ID_CHARS), st.integers(0, 2**62), st.integers(0, 2**62),
       st.sampled_from(PHONATIONS + [Phonation(v, s) for v in (False, True)
                                     for s in (False, True)]))
@example('u"1\\\x00\U0001F600', 2**62, 0, BREATHY_VOICED)
def test_truth_line_is_the_generic_encoders_line(utt_id, rm_index, hm_index, phonation):
    t = GroundTruthMatch(utt_id, rm_index, hm_index, phonation)
    assert truth_line(t) == io.dump_line(t.to_obj())


def test_ground_truth_match_is_a_tuple_record():
    t = GroundTruthMatch("u1", 2, 3, VOICED)
    assert isinstance(t, tuple) and GroundTruthMatch._fields == (
        "utt_id", "rm_index", "hm_index", "phonation")
    assert t.to_obj() == {"utt_id": "u1", "rm_index": 2, "hm_index": 3, "phonation": "voiced"}


specs = st.builds(
    ScenarioSpec, seed=st.integers(0, 2**31), n_utterances=st.integers(0, 40),
    plosive_rate=st.floats(0, 1), hm_aspiration_rate=st.floats(0, 0.5),
    hm_voicing_rate=st.floats(0, 0.25), hm_breathy_rate=st.floats(0, 0.25),
    jitter=st.integers(0, 3), drop_rate=st.floats(0, 1))


@settings(max_examples=40, deadline=None)
@given(specs)
def test_streamed_files_equal_generate_and_the_list_writers(spec):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "spec.json").write_text(json.dumps(vars(spec)), encoding="utf-8")
        result = invoke(["synth", str(d / "spec.json"),
                         "--rm-out", str(d / "rm.jsonl"),
                         "--hm-out", str(d / "hm.jsonl"),
                         "--truth-out", str(d / "truth.jsonl")])
        assert result.exit_code == 0, result.output
        assert result.stderr == f"generated {spec.n_utterances} utterances\n"
        rm_tracks, hm_tracks, truth = generate(spec, INV)
        io.write_jsonl(d / "rm.ref", map(track_to_obj, rm_tracks))
        io.write_jsonl(d / "hm.ref", map(track_to_obj, hm_tracks))
        io.write_jsonl(d / "truth.ref", (t.to_obj() for t in truth))
        for name in ("rm", "hm", "truth"):
            assert (d / f"{name}.jsonl").read_bytes() == (d / f"{name}.ref").read_bytes()


# the sha256 of the rm, hm and truth files, as the list-building generate and the
# list writers wrote them: the stream must draw the random numbers they drew
PINNED = [
    ({"seed": 3, "n_utterances": 300, "jitter": 1, "drop_rate": 0.1},
     ["8e1bd1f8615595ca00efd430348cfbbdad042d97920ae757a8ff0bca6224b984",
      "abb8a5ac7f6962de4a53b36e9535f02b9b36711fdcd995cf6149e3df8bec8c66",
      "d64ae8787db7bfa124c06d2170535692ec50820bf291eb64d52db5d69966ccea"]),
    ({"seed": 11, "n_utterances": 300, "plosive_rate": 0.8, "hm_aspiration_rate": 0.2,
      "hm_voicing_rate": 0.3, "hm_breathy_rate": 0.2, "jitter": 3, "drop_rate": 0.3},
     ["5b52ae1a7ef80a28e4b514e791294dac196aa4bc6d367103dbbbc5a479d3bf5b",
      "ef4227c485f6ff853c5203d0cf710264136c8f711c281a3155cfcfb1645b716f",
      "179afce35cb2187203ac18d0ee495e1b466c61d65395414d5440cb9c72f892cb"]),
]


@pytest.mark.parametrize("spec, digests", PINNED)
def test_streamed_files_keep_their_pinned_bytes(tmp_path, spec, digests):
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    outs = [tmp_path / f"{name}.jsonl" for name in ("rm", "hm", "truth")]
    result = invoke(["synth", str(tmp_path / "spec.json"),
                     "--rm-out", str(outs[0]), "--hm-out", str(outs[1]),
                     "--truth-out", str(outs[2])])
    assert result.exit_code == 0, result.output
    assert [hashlib.sha256(out.read_bytes()).hexdigest() for out in outs] == digests


def pairless_inventory(d: Path) -> Path:
    """The packaged inventory without the k/ɡ voicing pair."""
    data = json.loads((io.DATA / "inventory.json").read_text("utf-8"))
    data["voicing_pairs"].remove(["k", "ɡ"])
    path = d / "inventory.json"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    return path


def test_a_fault_after_lines_were_streamed_leaves_no_file(tmp_path):
    inv_file = pairless_inventory(tmp_path)
    spec = ScenarioSpec(seed=3, n_utterances=200, jitter=1, drop_rate=0.1)
    made = utterances(spec, Inventory.load(inv_file))
    assert next(made)  # the first utterances are made, and their lines written ...
    with pytest.raises(PhonaugError, match="'ɡ' has no voicing counterpart"):
        list(made)  # ... before one needs the missing pair
    (tmp_path / "spec.json").write_text(json.dumps(vars(spec)), encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "out"
    out.mkdir()
    result = invoke(["synth", str(tmp_path / "spec.json"),
                     "--rm-out", str(out / "rm.jsonl"),
                     "--hm-out", str(out / "hm.jsonl"),
                     "--truth-out", str(out / "truth.jsonl"),
                     "--inventory", str(inv_file)])
    assert result.exit_code == 1
    assert result.output == "Error: 'ɡ' has no voicing counterpart\n"
    assert list(out.iterdir()) == []  # no output and no temporary file
    assert sorted(tmp_path.iterdir()) == sorted(before + [out])


def test_replacing_removes_every_temporary_file_on_a_fault(tmp_path):
    old = tmp_path / "b.txt"
    old.write_text("before", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with io.replacing(tmp_path / "a.txt", None, old) as (a, none, b):
            assert none is None
            a.write("a")
            b.write("b")
            assert len(list(tmp_path.iterdir())) == 3  # two temporary files beside b.txt
            raise RuntimeError
    assert list(tmp_path.iterdir()) == [old] and old.read_text(encoding="utf-8") == "before"
    with io.replacing(tmp_path / "a.txt", old) as (a, b):
        a.write("a")
        b.write("b")
        assert not (tmp_path / "a.txt").exists()  # renamed only once the block ends
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]
    assert old.read_text(encoding="utf-8") == "b"


def test_check_outputs_refuses_two_paths_to_one_file(tmp_path):
    target = tmp_path / "x.jsonl"
    link = tmp_path / "link.jsonl"
    os.symlink(target, link)
    dotted = tmp_path / "sub" / ".." / "x.jsonl"
    for first, second in ((target, target), (target, link), (link, dotted)):
        with pytest.raises(PhonaugError) as failure:
            io.check_outputs(first, None, second)
        assert str(failure.value) == f"{second}: output is the same file as {first}"
    io.check_outputs(target, None, None, tmp_path / "y.jsonl")
