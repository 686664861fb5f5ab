"""CTC collapse against an independent two-pass reference, track decoding against a
frame-at-a-time oracle, and `decode_file` against the layered reader it replaced."""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
import tempfile
import unicodedata
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonaug import (
    FramePath, Inventory, PhoneTrack, ScenarioSpec, TimedPhone, ctc, decode_track, generate,
    greedy_collapse, io, serialize, tokenize_ipa,
)
from phonaug.ctc import track_line
from phonaug.errors import OrphanDiacritic, PhonaugError, in_context

INV = Inventory.default()


def reference_collapse(labels, blank):
    """Naive two-pass oracle: merge identical runs, then delete blank runs, one
    frame at a time; the reference for greedy_collapse's itertools.groupby form."""
    runs = []
    for i, label in enumerate(labels):
        if runs and runs[-1][0] == label:
            runs[-1][2] = i
        else:
            runs.append([label, i, i])
    return [(t, s, e) for t, s, e in runs if t != blank]


@given(st.lists(st.sampled_from(["_", "<b>", "t", "tʰ", "ʰ", "a", ""]), max_size=60),
       st.sampled_from(["_", "<b>", ""]))
def test_collapse_equals_the_frame_loop(labels, blank):
    path = FramePath("u", 10.0, tuple(labels))
    assert greedy_collapse(path, blank) == reference_collapse(labels, blank)


def test_all_blank_path():
    assert greedy_collapse(FramePath("u", 20.0, ("_", "_", "_")), "_") == []


def test_canonical_collapse():
    path = FramePath("u", 20.0, ("a", "a", "_", "a", "b"))
    assert greedy_collapse(path, "_") == [("a", 0, 1), ("a", 3, 3), ("b", 4, 4)]


def test_exhaustive_against_reference():
    # every path of length <= 8 over {_, a, b}
    for length in range(0, 9):
        for labels in itertools.product("_ab", repeat=length):
            if not labels:
                continue
            path = FramePath("u", 20.0, labels)
            assert greedy_collapse(path, "_") == reference_collapse(labels, "_")


def test_collapse_properties_random():
    rng = random.Random(99)
    for _ in range(500):
        labels = tuple(rng.choice("_ab") for _ in range(rng.randint(1, 30)))
        out = greedy_collapse(FramePath("u", 20.0, labels), "_")
        assert len(out) <= len(labels)
        assert all(t != "_" for t, _, _ in out)
        # spans disjoint and ordered
        for (_, _, e1), (_, s2, _) in zip(out, out[1:]):
            assert s2 > e1


def test_decode_diacritic_span_union():
    path = FramePath("u1", 20.0, ("_", "_", "t", "t", "t", "ʰ", "ʰ", "_", "a", "a"))
    track = decode_track(path, "_", INV)
    assert [(serialize([p.phone]), p.start_frame, p.end_frame) for p in track.phones] == [
        ("tʰ", 2, 6), ("a", 8, 9)]
    assert track.frame_ms == 20.0


def test_decode_empty():
    track = decode_track(FramePath("u1", 20.0, ("_",)), "_", INV)
    assert track.phones == []


def test_decode_leading_diacritic_is_error():
    with pytest.raises(OrphanDiacritic):
        decode_track(FramePath("u1", 20.0, ("_", "ʰ", "a")), "_", INV)


def test_decode_matches_collapse_text():
    rng = random.Random(4)
    alphabet = ["_", "t", "d", "k", "a", "ʰ", "s"]
    for _ in range(300):
        labels = ["_", rng.choice(["t", "d", "k", "a"])]
        labels += [rng.choice(alphabet) for _ in range(rng.randint(0, 20))]
        path = FramePath("u", 10.0, tuple(labels))
        collapsed = "".join(t for t, _, _ in greedy_collapse(path, "_"))
        try:
            track = decode_track(path, "_", INV)
        except PhonaugError:
            # e.g. two aspiration runs landing on one phone; invalid input, not a bug
            continue
        assert serialize([p.phone for p in track.phones]) == collapsed


def frame_oracle(labels, blank):
    """Decoding one frame at a time: a frame whose label differs from the last
    frame's opens one entry per NFD code point of its label, and every frame of
    a non-blank label adds itself to the entries of its run. The phones take
    the non-whitespace entries in order, as many as their NFD text is long.
    Gives (symbol, first frame, last frame) per phone."""
    entries, current = [], []
    for f, label in enumerate(labels):
        if f == 0 or label != labels[f - 1]:
            current = [] if label == blank else \
                [(ch, []) for ch in unicodedata.normalize("NFD", label)]
            entries += current
        for _, frames in current:
            frames.append(f)
    phones = tokenize_ipa("".join(ch for ch, _ in entries), INV)
    frames = [frames for ch, frames in entries if not ch.isspace()]
    out = []
    for phone in phones:
        n = len(unicodedata.normalize("NFD", phone.text))
        own = [f for fs in frames[:n] for f in fs]
        del frames[:n]
        out.append((phone.text, min(own), max(own)))
    assert frames == []
    return out


# phones of bases, diacritics and tie bars, spelled out and cut into vocabulary
# tokens of one or two code points, each held for one to three frames; whitespace
# between phones, and precomposed ç (two NFD code points) as one token
DECODE_PHONE = st.tuples(
    st.sampled_from(["t", "d", "k", "a", "s", "ç"]),
    st.sampled_from(["", "ʰ", "ʱ", "\u032a", "ː", "\u032aʰ"]),
    st.sampled_from(["", "\u0361s", "\u035cʃ"]),
).map("".join)
SPACE = st.sampled_from(["", "", " ", "\u00a0", "  ", "\t"])


@st.composite
def label_paths(draw):
    text = "".join(draw(SPACE) + p for p in draw(st.lists(DECODE_PHONE, max_size=6)))
    text += draw(SPACE)
    labels, i = [], 0
    while i < len(text):
        token = text[i:i + draw(st.integers(1, 2))]
        if labels and labels[-1] == token:  # keep both: a blank splits the run
            labels.append("_")
        labels += [token] * draw(st.integers(1, 3)) + ["_"] * draw(st.integers(0, 1))
        i += len(token)
    return tuple(labels)


@settings(max_examples=400, deadline=None)
@given(label_paths())
def test_decode_spans_equal_the_frame_oracle(labels):
    track = decode_track(FramePath("u", 10.0, labels), "_", INV)
    assert [(p.phone.text, p.start_frame, p.end_frame) for p in track.phones] == \
        frame_oracle(labels, "_")


def test_decode_whitespace_runs_belong_to_no_phone():
    track = decode_track(FramePath("u1", 10.0, ("t", "t", " ", " ", " ", "a")), "_", INV)
    assert [(p.phone.text, p.start_frame, p.end_frame) for p in track.phones] == [
        ("t", 0, 1), ("a", 5, 5)]


def test_decode_deterministic():
    path = FramePath("u1", 20.0, ("t", "ʰ", "_", "a", "k", "ʰ"))
    t1 = decode_track(path, "_", INV)
    t2 = decode_track(path, "_", INV)
    assert t1 == t2


# -- decode_file: one pass per line ------------------------------------------------
# decode_file tests each line inline and hands a clean one straight to decode_track;
# any other line goes to io.parse_record. On every file, clean or faulty, it must
# give what the layered reader gave before: the same bytes and counts, or the same
# error text.


def layered_decode_track(path, blank, inv, model_tag):
    """decode_track before its runs were read in one loop: greedy_collapse, then a
    loop over the code points, then the checking records."""
    pieces, starts, ends = [], [], []
    for label, start, end in greedy_collapse(path, blank):
        if type(label) is not str:
            raise io.FieldError(f"field 'labels[{start}]' has the wrong type: {io.shown(label)}")
        chars = unicodedata.normalize("NFD", label)
        pieces.append(chars)
        for ch in chars:
            if not ch.isspace():
                starts.append(start)
                ends.append(end)
    try:
        phones = tokenize_ipa("".join(pieces), inv)
    except PhonaugError as e:
        raise in_context(e, io.shown_id(path.utt_id)) from None
    timed, first = [], 0
    for phone in phones:
        last = first + len(phone.base) + len(phone.diacritics) - 1
        timed.append(TimedPhone(phone, starts[first], ends[last]))
        first = last + 1
    return PhoneTrack(path.utt_id, model_tag, timed, path.frame_ms)


def layered_decode_file(path, out, blank, frame_ms, model_tag, inv):
    """decode_file as it was: every line through io.parse_records, each a FramePath
    holding a copy of its labels, decoded by layered_decode_track."""
    def from_obj(obj):
        ms = float(obj["frame_ms"] if frame_ms is None else frame_ms)
        frames = FramePath(obj["utt_id"], ms, tuple(obj["labels"]))
        return layered_decode_track(frames, obj.get("blank", blank), inv, model_tag)

    fields = {name: kind for name, kind in ctc.FRAME_PATH_FIELDS.items()
              if name != "frame_ms" or frame_ms is None}
    tracks = sorted(io.parse_records(path, from_obj, fields), key=lambda t: t.utt_id)
    n = io.write_lines(out, ctc.in_utt_id_order(tracks, path), track_line)
    return n, sum(not track.phones for track in tracks)


NOT_A_STRING = [7, 1.5, True, None, ["t"], {"t": 1}]
FAULTS = {
    "label type": NOT_A_STRING,
    "unknown symbol": ["Q", "g", "7", "t!"],
    "orphan diacritic": ["ʰ", "̪", "͡"],
    "whitespace": [" ", "\t", "t a", " ʰ"],
    "blank": [5, None, "", "t", ["_"], "absent"],
    "frame_ms": [0, -20, "10", True, None, 10 ** 400, math.nan, math.inf, "absent"],
    "head": [("utt_id", 7), ("utt_id", None), ("labels", "ta"), ("labels", None)],
}


@st.composite
def frame_path_lines(draw):
    """One frame-path line with 0-2 faults: a label of the wrong type, an unknown
    symbol, an orphan diacritic or whitespace mid-run, a bad or absent blank or
    frame_ms, or a wrong type in utt_id or labels. Its blank is "_", absent, or
    "<b>" in place of every "_"."""
    labels = list(draw(label_paths()))
    obj = {"utt_id": draw(st.sampled_from(["u1", "u2", "u3", "u4"])),
           "frame_ms": draw(st.sampled_from([10, 20.0, 12.5])), "labels": labels}
    own_blank = draw(st.sampled_from(["absent", "_", "<b>"]))
    if own_blank != "absent":
        obj["blank"] = own_blank
        labels[:] = [own_blank if label == "_" else label for label in labels]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(sorted(FAULTS)))
        value = draw(st.sampled_from(FAULTS[fault]))
        if fault == "head":
            obj[value[0]] = value[1]
        elif fault in ("blank", "frame_ms"):
            if value == "absent":
                obj.pop(fault, None)
            else:
                obj[fault] = value
        elif type(obj["labels"]) is list:
            # at a frame drawn from the path, in the middle of a run or between two
            labels = obj["labels"]
            labels.insert(draw(st.integers(0, len(labels))), value)
    return obj


def decoded(decode, path, blank, frame_ms, model_tag):
    """(tracks, empty tracks, bytes) that `decode` gives, or its error text."""
    out = StringIO()
    try:
        n, empty = decode(path, out, blank, frame_ms, model_tag, INV)
    except PhonaugError as e:
        return f"{type(e).__name__}: {e}"
    return n, empty, out.getvalue()


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(frame_path_lines(), max_size=5),
       frame_ms=st.one_of(st.none(), st.sampled_from([10, 20.5, 0, -1.0, math.nan, "x"])),
       model_tag=st.sampled_from(["RM", "HM", "OTHER", "rm"]))
@example(lines=[{"utt_id": "u1", "frame_ms": math.inf, "labels": ["t"]}],
         frame_ms=None, model_tag="RM")
@example(lines=[{"utt_id": "u1", "frame_ms": 10, "labels": ["t", "t", 7, "t", "a"]}],
         frame_ms=None, model_tag="RM")
@example(lines=[{"utt_id": "u1", "frame_ms": 10, "blank": None, "labels": ["t"]}],
         frame_ms=None, model_tag="RM")
# an int above the largest float that float() rounds down to it: a track at that frame_ms
@example(lines=[{"utt_id": "u1", "frame_ms": int(sys.float_info.max) + 1, "labels": ["t"]}],
         frame_ms=None, model_tag="RM")
def test_decode_file_reads_and_fails_as_the_layered_reader_does(lines, frame_ms, model_tag):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "paths.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
        # an override that is no positive finite number fails once, before any line
        if frame_ms == "x":
            assert decoded(ctc.decode_file, path, "_", frame_ms, model_tag) == (
                f"PhonaugError: {path}: frame_ms must be a number, got 'x'")
            return
        if frame_ms is not None and not 0 < frame_ms < math.inf:
            assert decoded(ctc.decode_file, path, "_", frame_ms, model_tag) == (
                f"PhonaugError: {path}: frame_ms must be positive and finite, "
                f"got {float(frame_ms)!r}")
            return
        expected = decoded(layered_decode_file, path, "_", frame_ms, model_tag)
        assert decoded(ctc.decode_file, path, "_", frame_ms, model_tag) == expected
    if type(expected) is tuple:  # each track's spans are the frame-at-a-time oracle's
        tracks = [json.loads(line) for line in expected[2].splitlines()]
        for obj, track in zip(sorted(lines, key=lambda o: o["utt_id"]), tracks):
            assert [(p["symbol"], p["start"], p["end"]) for p in track["phones"]] == \
                frame_oracle(obj["labels"], obj.get("blank", "_"))


# -- the fast path's traffic ------------------------------------------------------
# A fast path that sent every line to parse_record would keep every byte and
# error the same: count the lines that reach it.


def synth_frame_paths(n):
    """n frame-path lines, each phone of a synth RM track held for two frames and
    followed by a blank frame."""
    rm_tracks, _, _ = generate(ScenarioSpec(seed=1, n_utterances=n), INV)
    return [{"utt_id": track.utt_id, "frame_ms": 10, "blank": "_",
             "labels": [f for tp in track.phones for f in (tp.phone.text,) * 2 + ("_",)]}
            for track in rm_tracks]


@pytest.mark.parametrize("frame_ms", [None, 20.0])
def test_only_a_faulty_line_reaches_parse_record(monkeypatch, tmp_path, frame_ms):
    lines = synth_frame_paths(200)
    clean, faulty = tmp_path / "clean.jsonl", tmp_path / "faulty.jsonl"
    clean.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    lines[57]["labels"][3:3] = ["Q"]  # an unknown symbol, mid-path
    faulty.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    expected = {path: decoded(layered_decode_file, path, "_", frame_ms, "RM")
                for path in (clean, faulty)}
    reached = []
    original = io.parse_record

    def counting(path, n, obj, from_obj, schema):
        reached.append(n)
        return original(path, n, obj, from_obj, schema)

    monkeypatch.setattr(io, "parse_record", counting)
    assert decoded(ctc.decode_file, clean, "_", frame_ms, "RM") == expected[clean]
    assert reached == []
    assert decoded(ctc.decode_file, faulty, "_", frame_ms, "RM") == expected[faulty]
    assert expected[faulty].startswith("UnknownSymbol: ")
    assert reached == [58]
