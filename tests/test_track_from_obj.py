"""`ctc.read_tracks` checks a line's head by its schema and each phone's field
types as `track_from_obj` builds it. On every line, clean or faulty, it must
give what the whole-line check and then the plain build give: the same tracks,
or the same error text. A type fault anywhere in a line comes before an unknown
symbol or a span fault earlier in it."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonaug import Inventory, io
from phonaug.augment import MatchPair
from phonaug.ctc import (TRACK_FIELDS, PhoneTrack, TimedPhone, read_tracks, track_line,
                         track_to_obj)
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
