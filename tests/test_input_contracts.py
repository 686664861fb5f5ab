"""Input contracts of augment and evaluate, the RM/HM merge-join, and
all-or-nothing JSONL writes."""

from __future__ import annotations

import json
import os
import stat
import tempfile
from pathlib import Path

import pytest
from clirun import invoke
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonaug import (
    AugmentationStats, Inventory, MappingTable, PhoneTrack, ScenarioSpec, augment_corpus,
    augment_track, generate, match_phones, phonation_of, prefilter_by_aspiration,
)
from phonaug.ctc import read_tracks, track_to_obj
from phonaug.errors import MissingCounterpart, PhonaugError
from phonaug.io import dump_line, replacing, write_jsonl

INV = Inventory.default()


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


def test_fail_missing_leaves_no_output(tmp_path):
    rm_tracks, hm_tracks, _ = generate(ScenarioSpec(seed=3, n_utterances=50), INV)
    rm, hm, out = tmp_path / "rm.jsonl", tmp_path / "hm.jsonl", tmp_path / "tm.jsonl"
    write_jsonl(rm, map(track_to_obj, rm_tracks))
    write_jsonl(hm, map(track_to_obj, hm_tracks[:45]))
    result = invoke(["augment", str(rm), str(hm), str(out), "--fail-missing"])
    assert result.exit_code == 1
    assert "no HM counterpart for utterance 'synth-000045'" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hm.jsonl", "rm.jsonl"]
    with pytest.raises(MissingCounterpart, match="'synth-000045'"):
        with replacing(out) as (f,):
            augment_corpus(rm, hm, MappingTable.default(INV), f, INV, skip_missing=False)
    assert not out.exists()


DEFECTS = ("duplicate_rm", "duplicate_hm", "frame_ms", "unsorted_rm", "unsorted_hm")


def inject(defect, k, rm_tracks, hm_tracks):
    """Return RM and HM track lists with one defect at utterance k. The unsorted
    defects swap utterances k and k + 1."""
    rm_tracks, hm_tracks = list(rm_tracks), list(hm_tracks)
    if defect == "duplicate_rm":
        rm_tracks.insert(k, rm_tracks[k])
    elif defect == "duplicate_hm":
        hm_tracks.append(hm_tracks[k])
    elif defect.startswith("unsorted"):
        tracks = rm_tracks if defect == "unsorted_rm" else hm_tracks
        tracks[k], tracks[k + 1] = tracks[k + 1], tracks[k]
    else:
        hm = hm_tracks[k]
        hm_tracks[k] = PhoneTrack(hm.utt_id, hm.model_tag, hm.phones, hm.frame_ms / 2)
    return rm_tracks, hm_tracks


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data(),
       defect=st.sampled_from(DEFECTS), command=st.sampled_from(["augment", "prefilter"]))
def test_one_defect_fails_the_command_without_output(seed, data, defect, command):
    swap = defect.startswith("unsorted")  # needs an utterance k + 1
    n = data.draw(st.integers(1 + swap, 8), label="n")
    k = data.draw(st.integers(0, n - 1 - swap), label="k")
    rm_tracks, hm_tracks, _ = generate(ScenarioSpec(seed=seed, n_utterances=n), INV)
    utt_id = rm_tracks[k].utt_id
    rm_tracks, hm_tracks = inject(defect, k, rm_tracks, hm_tracks)
    with tempfile.TemporaryDirectory() as d:
        work = Path(d)
        rm, hm, out = work / "rm.jsonl", work / "hm.jsonl", work / "tm.jsonl"
        write_jsonl(rm, map(track_to_obj, rm_tracks))
        write_jsonl(hm, map(track_to_obj, hm_tracks))
        args = ["augment", str(rm), str(hm), str(out)] if command == "augment" \
            else ["prefilter-aspiration", str(rm), str(hm), "--out", str(out)]
        result = invoke(args)
        assert result.exit_code == 1, result.output
        assert repr(utt_id) in result.output
        assert sorted(p.name for p in work.iterdir()) == ["hm.jsonl", "rm.jsonl"]


def test_a_frame_rate_mismatch_names_both_files(tmp_path):
    rm_tracks, hm_tracks, _ = generate(ScenarioSpec(seed=3, n_utterances=4), INV)
    rm_tracks, hm_tracks = inject("frame_ms", 2, rm_tracks, hm_tracks)
    rm, hm = tmp_path / "rm.jsonl", tmp_path / "hm.jsonl"
    write_jsonl(rm, map(track_to_obj, rm_tracks))
    write_jsonl(hm, map(track_to_obj, hm_tracks))
    for args in (["augment", str(rm), str(hm), str(tmp_path / "tm.jsonl")],
                 ["prefilter-aspiration", str(rm), str(hm)]):
        result = invoke(args)
        assert result.exit_code == 1
        assert result.output == (f"Error: utterance 'synth-000002': RM frame_ms 20.0 in {rm} "
                                 f"differs from HM frame_ms 10.0 in {hm}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hm.jsonl", "rm.jsonl"]


@pytest.fixture
def tagged(tmp_path):
    """An RM, an HM and a TM track file of one synth corpus, and OTHER-tagged copies of
    the first two, as decode tags its tracks by default."""
    rm_tracks, hm_tracks, _ = generate(ScenarioSpec(seed=5, n_utterances=6, jitter=1), INV)
    files = {name: tmp_path / f"{name}.jsonl" for name in ("rm", "hm", "tm", "rm_other",
                                                           "hm_other")}
    for name, tracks in (("rm", rm_tracks), ("hm", hm_tracks)):
        write_jsonl(files[name], map(track_to_obj, tracks))
        write_jsonl(files[f"{name}_other"],
                    ({**track_to_obj(t), "model": "OTHER"} for t in tracks))
    result = invoke(["augment", str(files["rm"]), str(files["hm"]), str(files["tm"]),
                     "--stats-file", str(tmp_path / "stats.json")])
    assert result.exit_code == 0, result.output
    (tmp_path / "stats.json").unlink()
    return files


# (the file in the RM role, the file in the HM role, the file and tag refused, its role)
ROLE_FAULTS = {
    "hm-as-rm": ("hm", "hm", "hm", "HM", "RM"),
    "tm-as-rm": ("tm", "hm", "tm", "TM", "RM"),
    "rm-as-both": ("rm", "rm", "rm", "RM", "HM"),  # the join reads the HM side first
    "swapped": ("hm", "rm", "rm", "RM", "HM"),
    "tm-as-hm": ("rm", "tm", "tm", "TM", "HM"),
}


@pytest.mark.parametrize("command", ["augment", "prefilter-aspiration"])
@pytest.mark.parametrize("rm, hm, refused, tag, role", ROLE_FAULTS.values(), ids=ROLE_FAULTS)
def test_a_track_file_in_the_wrong_role_fails_without_output(
        tagged, command, rm, hm, refused, tag, role):
    # once: each of these exited 0 with a plausible TM file or selection
    out = tagged["rm"].parent / "out"
    out.mkdir()
    args = [str(out / "tm.jsonl"), "--stats-file", str(out / "stats.json")] \
        if command == "augment" else ["--out", str(out / "selected.txt")]
    result = invoke([command, str(tagged[rm]), str(tagged[hm]), *args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == (f"Error: {tagged[refused]}: utterance 'synth-000000' is tagged "
                             f"{tag}, not {role} or OTHER\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("rm, hm", [("rm_other", "hm_other"), ("rm_other", "hm"),
                                    ("rm", "hm_other")])
def test_other_tagged_tracks_take_either_role(tagged, rm, hm):
    out = tagged["rm"].parent / "other.jsonl"
    result = invoke(["augment", str(tagged[rm]), str(tagged[hm]), str(out),
                     "--stats-file", str(out.with_suffix(".json"))])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == tagged["tm"].read_bytes()
    selected = [invoke(["prefilter-aspiration", str(tagged[r]), str(tagged[h])]).stdout
                for r, h in ((rm, hm), ("rm", "hm"))]
    assert selected[0] == selected[1] != ""


@pytest.mark.parametrize("order, problem", [
    pytest.param([0, 2, 1], "utterance 'synth-000001' comes after 'synth-000002'",
                 id="unsorted"),
    pytest.param([0, 1, 1, 2], "utterance 'synth-000001' occurs twice", id="duplicate"),
])
def test_read_tracks_checks_the_order(tmp_path, order, problem):
    tracks, _, _ = generate(ScenarioSpec(seed=4, n_utterances=3), INV)
    path = tmp_path / "rm.jsonl"
    write_jsonl(path, map(track_to_obj, [tracks[i] for i in order]))
    with pytest.raises(PhonaugError) as failure:
        list(read_tracks(path, INV))
    assert str(failure.value) == f"{path}: {problem}"


MEMBERSHIP = ("rm", "hm", "both", "neither")


def dict_join_augment(rm_tracks, hm_tracks):
    """The TM lines, stats and prefilter selection of augment --skip-missing,
    joined through a dict of HM tracks."""
    table, stats, lines, aspirated = MappingTable.default(INV), AugmentationStats(), [], []
    hm_by_id = {hm.utt_id: hm for hm in hm_tracks}
    for rm in sorted(rm_tracks, key=lambda t: t.utt_id):
        hm = hm_by_id.get(rm.utt_id)
        if hm is None:
            stats.missing_counterparts.append(rm.utt_id)
            continue
        matches = match_phones(rm, hm, table)
        tm = augment_track(rm, hm, matches, INV, stats=stats)
        stats.utterances += 1
        lines.append(dump_line(track_to_obj(tm)) + "\n")
        phonations = [phonation_of(tm.phones[p.rm_index].phone) for p in matches]
        if any(ph.spread_glottis and not ph.voiced for ph in phonations):
            aspirated.append(rm.utt_id)
    return "".join(lines), stats.to_obj(), aspirated


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       membership=st.lists(st.sampled_from(MEMBERSHIP), max_size=12),
       skip_missing=st.booleans())
# HM-only utterances before, between and after the RM ones
@example(seed=5, membership=["hm", "both", "hm", "rm", "both", "hm", "hm"], skip_missing=True)
@example(seed=5, membership=["hm", "both", "hm", "rm", "both", "hm", "hm"], skip_missing=False)
def test_merge_join_equals_dict_join(seed, membership, skip_missing):
    """augment joins RM and HM files made of id subsets of one corpus like a dict join."""
    rm_all, hm_all, _ = generate(ScenarioSpec(seed=seed, n_utterances=len(membership)), INV)
    rm_tracks = [t for t, m in zip(rm_all, membership) if m in ("rm", "both")]
    hm_tracks = [t for t, m in zip(hm_all, membership) if m in ("hm", "both")]
    want_tm, want_stats, aspirated = dict_join_augment(rm_tracks, hm_tracks)
    missing = want_stats["missing_counterparts"]
    with tempfile.TemporaryDirectory() as d:
        work = Path(d)
        rm, hm, out, stats = (work / name for name in ("rm.jsonl", "hm.jsonl", "tm.jsonl",
                                                       "stats.json"))
        write_jsonl(rm, map(track_to_obj, rm_tracks))
        write_jsonl(hm, map(track_to_obj, hm_tracks))
        result = invoke([
            "augment", str(rm), str(hm), str(out), "--stats-file", str(stats),
            *([] if skip_missing else ["--fail-missing"])])
        if missing and not skip_missing:
            assert result.exit_code == 1
            assert f"no HM counterpart for utterance {missing[0]!r}" in result.output
            assert not out.exists() and not stats.exists()
        else:
            assert result.exit_code == 0, result.output
            assert out.read_text(encoding="utf-8") == want_tm
            assert json.loads(stats.read_text(encoding="utf-8")) == want_stats
            # prefilter-aspiration shares the join and always skips
            assert prefilter_by_aspiration(rm, hm, MappingTable.default(INV), INV) \
                == aspirated


def open_paths():
    fds = Path("/proc/self/fd")
    return {os.path.realpath(fds / fd) for fd in os.listdir(fds)}


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
@pytest.mark.parametrize("command, defect", [
    *((command, defect) for command in ("augment", "prefilter")
      for defect in ("unsorted_rm", "unsorted_hm", "frame_ms", "no_phones")),
    ("augment", "missing"),
])
def test_failed_join_closes_both_files(tmp_path, command, defect):
    rm_tracks, hm_tracks, _ = generate(ScenarioSpec(seed=2, n_utterances=6), INV)
    if defect == "missing":
        del hm_tracks[2]
    elif defect != "no_phones":
        rm_tracks, hm_tracks = inject(defect, 2, rm_tracks, hm_tracks)
    rm, hm, out = tmp_path / "rm.jsonl", tmp_path / "hm.jsonl", tmp_path / "tm.jsonl"
    write_jsonl(rm, map(track_to_obj, rm_tracks))
    write_jsonl(hm, map(track_to_obj, hm_tracks))
    if defect == "no_phones":
        lines = hm.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace('"phones"', '"no_phones"')
        hm.write_text("".join(lines), encoding="utf-8")
    table = MappingTable.default(INV)
    with pytest.raises(PhonaugError, match="'synth-000002'") as failure:
        if command == "augment":
            with replacing(out) as (f,):
                augment_corpus(rm, hm, table, f, INV, skip_missing=defect != "missing")
        else:
            prefilter_by_aspiration(rm, hm, table, INV)
    # the failure keeps alive every frame it passed through, yet no file is open
    assert failure.value.__traceback__ is not None
    assert not open_paths() & {str(rm.resolve()), str(hm.resolve())}
    assert not out.exists()


def test_evaluate_rejects_duplicate_model_utt_id(tmp_path):
    lines = [{"utt_id": "u1", "phoneme": "b", "vot_ms": -10.0, "onset": onset, "model": m}
             for onset, m in (("b", "BM"), ("p", "BM"), ("b", "TM"))]
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(dump_line(o) + "\n" for o in lines), encoding="utf-8")
    result = invoke(["evaluate", str(path), "--out-prefix",
                     str(tmp_path / "rep")])
    assert result.exit_code == 1
    assert "u1: more than one BM instance" in result.output
    assert list(tmp_path.iterdir()) == [path]



def test_evaluate_rejects_duplicate_outside_the_group(tmp_path):
    # both copies are bilabial; the velar filter drops them, the check does not
    lines = [{"utt_id": u, "phoneme": p, "vot_ms": -10.0, "onset": "b", "model": "BM"}
             for u, p in (("u1", "b"), ("u2", "g"), ("u1", "p"))]
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(dump_line(o) + "\n" for o in lines), encoding="utf-8")
    result = invoke(["evaluate", str(path), "--out-prefix",
                     str(tmp_path / "rep"), "--group", "velar"])
    assert result.exit_code == 1
    assert "u1: more than one BM instance" in result.output
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("group", [None, "velar"])
def test_evaluate_rejects_unknown_model_tag(tmp_path, group):
    # a mistyped "tm" would be reported as a third model, without the McNemar
    # test; the bilabial u2 fails also where --group leaves it out
    lines = [{"utt_id": u, "phoneme": "b", "vot_ms": -10.0, "onset": "b", "model": m}
             for u, m in (("u1", "BM"), ("u1", "TM"), ("u2", "BM"), ("u2", "tm"))]
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(dump_line(o) + "\n" for o in lines), encoding="utf-8")
    result = invoke(["evaluate", str(path), "--out-prefix", str(tmp_path / "rep")]
                    + (["--group", group] if group else []))
    assert result.exit_code == 1
    assert result.output == f"Error: {path}: u2: unknown model tag 'tm'\n"
    assert list(tmp_path.iterdir()) == [path]


def test_evaluate_reports_the_first_fault_in_file_order(tmp_path):
    line = dump_line({"utt_id": "u1", "phoneme": "b", "vot_ms": -10.0, "onset": "b",
                      "model": "BM"})
    path = tmp_path / "instances.jsonl"
    path.write_text(f"{line}\n{line}\n{{not json\n", encoding="utf-8")
    result = invoke(["evaluate", str(path), "--out-prefix",
                     str(tmp_path / "rep")])
    assert result.exit_code == 1
    assert result.output == f"Error: {path}: u1: more than one BM instance\n"
    assert list(tmp_path.iterdir()) == [path]
