"""`ctc.read_tracks` tests each track line inline and builds a clean one in the
same loop; any other line goes to `io.parse_record`, which checks it whole
against TRACK_FIELDS before `track_from_obj` builds it. On every line, clean or
faulty, it must give what the whole-line check and then the plain build give:
the same tracks, or the same error text. A type fault anywhere in a line comes
before an unknown symbol or a span fault earlier in it. Only a line that the
inline test refuses may reach `track_from_obj`."""

from __future__ import annotations

import json
import sys
import tempfile
from contextlib import closing
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonaug import Inventory, ctc, io, synth
from phonaug.augment import MatchPair
from phonaug.ctc import (TRACK_FIELDS, PhoneTrack, TimedPhone, in_utt_id_order, read_tracks,
                         track_from_obj, track_line, track_to_obj)
from phonaug.errors import PhonaugError, in_context

INV = Inventory.default()
SYMBOLS = ["t", "a", "k", "kʰ", "ɡ", "d", "pʰ", "dʱ"]
UNKNOWN = ["Q", "t7", "kʰa", "", "ʰt", "g"]  # no symbol, or not one phone
WRONG = {"symbol": [7, True, None, ["t"], {"symbol": "t"}],
         "start": [True, False, 1.0, 2.5, "1", None, [1]],
         "end": [True, 3.0, "4", None, {}]}
NOT_A_DICT = ["t", 3, None, True, ["t", 0, 1]]
HEAD_WRONG = {"utt_id": [1, None], "model": [True, 1], "frame_ms": [True, "20"],
              "phones": [{"symbol": "t"}, "t", None]}


def today(obj: dict) -> PhoneTrack:
    """The whole-line check, then the build as it was before phones were
    checked per entry."""
    io.check(obj, TRACK_FIELDS)
    try:
        phones = [TimedPhone(INV.phone(e["symbol"]), e["start"], e["end"])
                  for e in obj["phones"]]
    except PhonaugError as e:
        raise in_context(e, obj["utt_id"]) from None
    return PhoneTrack(obj["utt_id"], obj.get("model", "OTHER"), phones, float(obj["frame_ms"]))


@st.composite
def well_typed_tracks(draw):
    n = draw(st.integers(0, 5))
    starts = sorted(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)))
    phones = [{"symbol": draw(st.sampled_from(SYMBOLS)), "start": start,
               "end": start + draw(st.integers(0, 3))} for start in starts]
    obj = {"utt_id": "u1", "model": draw(st.sampled_from(["RM", "HM"])),
           "frame_ms": draw(st.sampled_from([20.0, 10, 12.5])), "phones": phones}
    if phones and draw(st.booleans()):  # a span fault: PhoneTrack's, after any type fault
        phones[draw(st.integers(0, n - 1))]["end"] = -1
    return obj


@st.composite
def faulty_tracks(draw):
    """A track object with 0-2 faults: a wrong type, a non-dict entry, a missing
    key or an unknown symbol in a phone, or a wrong type in the line's head."""
    obj = draw(well_typed_tracks())
    phones = obj["phones"]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["wrong", "not a dict", "missing", "unknown", "head"]))
        if fault == "head":
            field = draw(st.sampled_from(sorted(HEAD_WRONG)))
            obj[field] = draw(st.sampled_from(HEAD_WRONG[field]))
            continue
        if type(phones) is not list or not phones:
            continue
        i = draw(st.integers(0, len(phones) - 1))
        if fault == "not a dict":
            phones[i] = draw(st.sampled_from(NOT_A_DICT))
        elif type(phones[i]) is not dict:
            continue
        elif fault == "wrong":
            field = draw(st.sampled_from(sorted(WRONG)))
            phones[i][field] = draw(st.sampled_from(WRONG[field]))
        elif fault == "missing":
            phones[i].pop(draw(st.sampled_from(sorted(WRONG))), None)
        else:
            phones[i]["symbol"] = draw(st.sampled_from(UNKNOWN))
    return obj


def outcome(read, path: Path):
    try:
        return list(read(path))
    except PhonaugError as e:
        return f"{type(e).__name__}: {e}"


@settings(max_examples=500, deadline=None)
@given(obj=faulty_tracks())
# an unknown symbol at phones[0] and a bool end at phones[2]: the type fault is reported
@example(obj={"utt_id": "u1", "model": "RM", "frame_ms": 20.0, "phones": [
    {"symbol": "t7", "start": 0, "end": 0}, {"symbol": "a", "start": 1, "end": 1},
    {"symbol": "t", "start": 2, "end": True}]})
@example(obj={"utt_id": "u1", "model": "RM", "frame_ms": 20.0, "phones": [
    {"symbol": "t", "start": 0, "end": 1.0}]})
def test_read_tracks_reads_and_fails_as_the_whole_line_check_does(obj):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "rm.jsonl"
        path.write_text(io.dump_line(obj) + "\n", encoding="utf-8")
        expected = outcome(lambda p: io.parse_records(p, today, {}), path)
        read = outcome(lambda p: read_tracks(p, INV), path)
        assert read == expected
        if type(read) is list:  # clean: the line round-trips through track_line
            (track,) = read
            assert all(type(tp) is TimedPhone for tp in track.phones)
            assert track_line(track) == io.dump_line(track_to_obj(track))
            if type(obj["frame_ms"]) is float:
                assert track_line(track) == io.dump_line(obj)


def test_timed_phone_and_match_pair_keep_their_fields_in_order():
    t, k = INV.phone("t"), INV.phone("kʰ")
    assert TimedPhone._fields == ("phone", "start_frame", "end_frame")
    assert MatchPair._fields == ("rm_index", "hm_index", "rm_phone", "hm_phone")
    tp = TimedPhone(t, 1, 2)
    assert tp == (t, 1, 2) and (tp.phone, tp.start_frame, tp.end_frame) == (t, 1, 2)
    pair = MatchPair(0, 1, tp, TimedPhone(k, 1, 3))
    rm_index, hm_index, rm_phone, hm_phone = pair
    assert (rm_index, hm_index, rm_phone, hm_phone) == (0, 1, (t, 1, 2), (k, 1, 3))
    assert pair.hm_phone.phone is k


# -- whole files --------------------------------------------------------------
# `read_tracks` reads, checks and builds a clean line in one loop and sends any
# other line to io.parse_record. Over files of several lines it must give what
# the layered reader below gives: the same tracks, or the same error.


def layered_read_tracks(path, inv, role):
    """read_tracks as it was: parse_records, then the order check, then the role check."""
    with closing(io.parse_records(path, lambda obj: track_from_obj(obj, inv),
                                  TRACK_FIELDS)) as tracks:
        for track in in_utt_id_order(tracks, path):
            if role and track.model_tag not in (role, "OTHER"):
                raise PhonaugError(f"{path}: utterance {track.utt_id!r} is tagged "
                                   f"{track.model_tag}, not {role} or OTHER")
            yield track


@st.composite
def clean_tracks(draw):
    obj = draw(well_typed_tracks())
    for entry in obj["phones"]:
        entry["end"] = entry["start"] + draw(st.integers(0, 3))  # undo any span fault
    return obj


# json reads NaN and Infinity, and 10 ** 400 overflows a float
BAD_FRAME_MS = [0, 0.0, -20.0, float("nan"), float("inf"), 10 ** 400]


@st.composite
def track_files(draw):
    """1-6 track objects, clean or faulty, under rising utt_ids, some of them put
    out of order (a duplicate or an earlier utt_id), tagged RM, HM, BM or OTHER, or
    untagged, some with a frame_ms that is not positive and finite, some with a
    phone that starts before the one ahead of it; the role
    they are read in; and whether the inventory has met every symbol before."""
    lines = []
    for k in range(draw(st.integers(1, 6))):
        obj = draw(st.one_of(clean_tracks(), clean_tracks(), faulty_tracks()))
        if obj["utt_id"] == "u1":  # no head fault in utt_id: give it its place
            order = draw(st.sampled_from(["rising"] * 4 + ["duplicate", "earlier"]))
            obj["utt_id"] = (f"u{k}" if order == "rising" or k == 0
                             else f"u{k - 1}" if order == "duplicate" else f"u{k - 1}a")
        if type(obj.get("model")) is str:  # no head fault in model
            model = draw(st.sampled_from(["RM", "HM", "BM", "OTHER", None]))
            if model is None:
                del obj["model"]
            else:
                obj["model"] = model
        if type(obj["frame_ms"]) is not str and draw(st.integers(0, 5)) == 0:
            obj["frame_ms"] = draw(st.sampled_from(BAD_FRAME_MS))
        phones = obj["phones"]
        if type(phones) is list and len(phones) > 1 and draw(st.booleans()):
            i = draw(st.integers(1, len(phones) - 1))
            if type(phones[i]) is dict and type(phones[i - 1]) is dict \
                    and type(phones[i - 1].get("start")) is int and phones[i - 1]["start"] > 0:
                phones[i]["start"] = phones[i - 1]["start"] - 1  # before the one ahead
        lines.append(obj)
    return lines, draw(st.sampled_from([None, "RM", "HM"])), draw(st.booleans())


def fresh_inventory(warm=False):
    """The packaged inventory with an empty memo, so each symbol is first met in the
    file, or, if `warm`, with every valid symbol of these tests met."""
    inv = Inventory.load(io.DATA / "inventory.json")
    for symbol in SYMBOLS if warm else ():
        inv.phone(symbol)
    return inv


@settings(max_examples=400, deadline=None)
@given(track_files())
# "kʰ" is first met on line 2, and "t" again on line 3
@example(([{"utt_id": "u0", "model": "RM", "frame_ms": 20.0,
            "phones": [{"symbol": "t", "start": 0, "end": 1}]},
           {"utt_id": "u1", "frame_ms": 10, "phones": [{"symbol": "kʰ", "start": 0, "end": 2},
                                                        {"symbol": "a", "start": 2, "end": 3}]},
           {"utt_id": "u2", "model": "OTHER", "frame_ms": 12.5,
            "phones": [{"symbol": "t", "start": 0, "end": 0}]}], "RM", False))
# an HM line read as RM after an out-of-order one: the order check comes first
@example(([{"utt_id": "u1", "model": "RM", "frame_ms": 20.0, "phones": []},
           {"utt_id": "u0", "model": "HM", "frame_ms": 20.0, "phones": []}], "RM", True))
@example(([{"utt_id": "u0", "model": "HM", "frame_ms": 20.0, "phones": []}], "RM", True))
@example(([{"utt_id": "u0", "frame_ms": 10 ** 400, "phones": []}], None, True))
# above the largest float, which float() rounds it down to: a track at that frame_ms
@example(([{"utt_id": "u0", "frame_ms": int(sys.float_info.max) + 1,
            "phones": [{"symbol": "t", "start": 0, "end": 1}]}], None, True))
@example(([{"utt_id": "", "model": "RM", "frame_ms": 20.0, "phones": []}], "RM", True))
@example(([{"utt_id": "u0", "model": "BM", "frame_ms": 20.0, "phones": []}], None, True))
def test_read_tracks_reads_files_as_the_layered_reader_does(case):
    lines, role, warm = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "tracks.jsonl"
        path.write_text("".join(io.dump_line(obj) + "\n" for obj in lines), encoding="utf-8")
        expected = outcome(lambda p: layered_read_tracks(p, fresh_inventory(warm), role), path)
        inv = fresh_inventory(warm)
        read = outcome(lambda p: read_tracks(p, inv, role), path)
        assert read == expected
        if type(read) is list:  # the same bytes, and frame_ms a float
            assert list(map(track_line, read)) == list(map(track_line, expected))
            assert all(type(t) is PhoneTrack and type(t.phones) is list for t in read)
            # each phone is the inventory's one shared Phone
            assert all(tp.phone is inv.phone(tp.phone.text) for t in read for tp in t.phones)


# -- the fast path's traffic ----------------------------------------------------
# A fast path that sent every line to the reference build would keep every byte
# and error the same: count the lines that reach it.


def test_only_a_line_with_a_symbol_first_met_reaches_track_from_obj(monkeypatch, tmp_path):
    rm_file, hm_file = tmp_path / "rm.jsonl", tmp_path / "hm.jsonl"
    with open(rm_file, "w", encoding="utf-8") as rm, open(hm_file, "w", encoding="utf-8") as hm:
        synth.write(synth.ScenarioSpec(seed=1, n_utterances=200), INV, rm, hm, None)
    built = []
    original = ctc.track_from_obj

    def counting(obj, inventory=None):
        built.append(obj["utt_id"])
        return original(obj, inventory)

    monkeypatch.setattr(ctc, "track_from_obj", counting)
    for path in (rm_file, hm_file):
        lines = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
        met, first_met = set(), []  # the utt_ids of the lines that hold a symbol first met
        for obj in lines:
            symbols = {entry["symbol"] for entry in obj["phones"]}
            if symbols - met:
                first_met.append(obj["utt_id"])
            met |= symbols
        assert 0 < len(first_met) < len(lines) // 10

        inv = fresh_inventory()
        built.clear()
        cold = list(read_tracks(path, inv))
        assert built == first_met
        built.clear()
        warm = list(read_tracks(path, inv))
        assert built == []
        assert warm == cold and len(cold) == len(lines)
