"""Greedy CTC collapse and timestamped phone tracks.

Timestamps stay in integer frame indices with a frame_ms scale; conversion to
milliseconds happens only at reporting time, so all comparisons are exact.
"""

from __future__ import annotations

import sys
import unicodedata
from contextlib import closing
from itertools import groupby
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

from . import io
from .errors import PhonaugError, checked_make, in_context
from .inventory import Inventory, Phone, tokenize_ipa
from .io import MODEL_TAGS

# the fields of a frame-path line and a track line; labels are checked per run, in
# decode_track. decode_file tests a frame-path line inline, and read_tracks a track
# line; a line either refuses is checked whole against these, then built, through
# io.parse_record
FRAME_PATH_FIELDS = {"utt_id": io.STRING, "labels": io.LIST, "frame_ms": io.NUMBER,
                     "blank": io.Optional(io.STRING)}
TRACK_FIELDS = {"utt_id": io.STRING, "model": io.Optional(io.STRING), "frame_ms": io.NUMBER,
                "phones": io.ListOf({"symbol": io.STRING, "start": io.INTEGER, "end": io.INTEGER})}
# the largest float. An int compares with a float exactly, so a JSON number in
# (0, FLOAT_MAX] is a positive and finite frame_ms that float() converts without
# overflow; check_frame_ms refuses any other value, and the inline line tests send
# any other number to io.parse_record, which converts it first (an int that float()
# rounds down to FLOAT_MAX reads as it)
FLOAT_MAX = sys.float_info.max


def check_frame_ms(utt_id: str, frame_ms: float) -> float:
    """`frame_ms` as a float, once it is a frame length: a JSON number (an int or a
    float, not a bool or a subclass, which a track line could not write) in
    (0, FLOAT_MAX]. NaN and infinity are not JSON, and no frame index scales to
    milliseconds by them. The one copy of the rule outside the inline line tests."""
    if type(frame_ms) not in io.NUMBER:
        raise PhonaugError(
            f"{io.shown_id(utt_id)}: frame_ms must be a number, got {io.shown(frame_ms)}")
    if not 0 < frame_ms <= FLOAT_MAX:
        raise PhonaugError(f"{io.shown_id(utt_id)}: frame_ms must be positive and finite, "
                           f"got {io.shown(frame_ms)}")
    return float(frame_ms)


class _FramePathFields(NamedTuple):
    utt_id: str
    frame_ms: float
    labels: tuple[str, ...]


class FramePath(_FramePathFields):
    """Per-frame best-path labels for one utterance."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, utt_id: str, frame_ms: float, labels: tuple[str, ...]) -> "FramePath":
        return tuple.__new__(cls, (utt_id, check_frame_ms(utt_id, frame_ms), labels))


class TimedPhone(NamedTuple):
    phone: Phone
    start_frame: int
    end_frame: int


class _TrackFields(NamedTuple):
    utt_id: str
    model_tag: str
    phones: list[TimedPhone]
    frame_ms: float


class PhoneTrack(_TrackFields):
    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, utt_id: str, model_tag: str, phones: list[TimedPhone],
                frame_ms: float) -> "PhoneTrack":
        if not utt_id:
            raise PhonaugError("utt_id must be non-empty")
        if model_tag not in MODEL_TAGS:
            raise PhonaugError(f"{io.shown_id(utt_id)}: unknown model tag {io.shown(model_tag)}")
        frame_ms = check_frame_ms(utt_id, frame_ms)
        previous = 0
        for i, (_, start, end) in enumerate(phones):
            if not 0 <= start <= end:
                raise PhonaugError(f"{io.shown_id(utt_id)}: phones[{i}]: invalid frame span "
                                   f"{start}..{end}")
            if start < previous:
                raise PhonaugError(f"{io.shown_id(utt_id)}: phones[{i}]: start frame {start} "
                                   f"comes before {previous}")
            previous = start
        return tuple.__new__(cls, (utt_id, model_tag, phones, frame_ms))


def greedy_collapse(path: FramePath, blank: str) -> list[tuple[str, int, int]]:
    """Merge consecutive identical labels into runs and drop blank runs.

    Each surviving run keeps (first frame, last frame) of its own run;
    repeats separated by blank stay distinct.
    """
    runs: list[tuple[str, int, int]] = []
    start = 0
    for label, frames in groupby(path.labels):
        end = start + len(list(frames))
        if label != blank:
            runs.append((label, start, end - 1))
        start = end
    return runs


def decode_track(path: FramePath, blank: str, inventory: Inventory | None = None,
                 model_tag: str = "OTHER") -> PhoneTrack:
    """Collapse a frame path and re-segment the characters into timed phones.

    A phone's span is the union of its constituent character runs; combining
    diacritic runs extend the preceding phone's end frame, and whitespace runs
    belong to no phone. One loop over the runs merges repeated labels, drops the
    blank ones (as `greedy_collapse` does) and gives each code point that keeps
    frames its run's first and last frame.
    """
    inv = inventory or Inventory.default()
    utt_id, frame_ms, labels = path
    memo = inv._code_points
    # expand each run to NFD code points so precomposed vocab tokens keep a
    # one-to-one run/code-point correspondence; whitespace separates phones and
    # belongs to none, so only the other code points keep their frames
    pieces: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    start = 0
    for label, frames in groupby(labels):
        end = start + len(list(frames))
        if label != blank:
            if type(label) is not str:
                raise io.FieldError(
                    f"field 'labels[{start}]' has the wrong type: {io.shown(label)}")
            entry = memo.get(label)
            if entry is None:
                chars = unicodedata.normalize("NFD", label)
                entry = memo[label] = (chars, sum(not ch.isspace() for ch in chars))
            chars, kept = entry
            pieces.append(chars)
            if kept == 1:
                starts.append(start)
                ends.append(end - 1)
            elif kept:
                starts += [start] * kept
                ends += [end - 1] * kept
        start = end
    try:
        phones = tokenize_ipa("".join(pieces), inv)
    except PhonaugError as e:
        raise in_context(e, io.shown_id(utt_id)) from None

    # the phones hold exactly the code points that keep frames, in order, and runs
    # are in frame order: a phone spans from its first code point's start to its
    # last code point's end, so the spans are ordered as PhoneTrack requires.
    # tuple's __new__ builds what TimedPhone's does, without its Python frame
    new, timed, first = tuple.__new__, [], 0
    for phone in phones:
        last = first + len(phone.base) + len(phone.diacritics) - 1
        timed.append(new(TimedPhone, (phone, starts[first], ends[last])))
        first = last + 1
    if utt_id and model_tag in MODEL_TAGS:  # frame_ms is FramePath's, checked
        return new(PhoneTrack, (utt_id, model_tag, timed, frame_ms))
    return PhoneTrack(utt_id, model_tag, timed, frame_ms)  # raises the check's error


# -- JSONL formats ----------------------------------------------------------


def track_to_obj(track: PhoneTrack) -> dict:
    """The JSON object of `track`: the reference that `track_line` must match. No
    program path calls it; the tests and the benchmark's tracer do."""
    return {
        "utt_id": track.utt_id,
        "model": track.model_tag,
        "frame_ms": track.frame_ms,
        "phones": [
            {"symbol": tp.phone.text, "start": tp.start_frame, "end": tp.end_frame}
            for tp in track.phones
        ],
    }


def track_line(track: PhoneTrack) -> str:
    """The line of `track` in a track file, without its newline: the bytes of
    `io.dump_line(track_to_obj(track))`, formatted in its sorted key order without
    building the dicts. Its domain is the tracks phonaug builds: int frames and a
    finite float frame_ms, which repr spells as json does."""
    phones = ",".join([f'{{"end":{tp.end_frame},"start":{tp.start_frame},'
                       f'"symbol":{encode_basestring(tp.phone.text)}}}' for tp in track.phones])
    return (f'{{"frame_ms":{track.frame_ms!r},"model":{encode_basestring(track.model_tag)},'
            f'"phones":[{phones}],"utt_id":{encode_basestring(track.utt_id)}}}')


def track_from_obj(obj: dict, inventory: Inventory | None = None) -> PhoneTrack:
    """The track of a line that TRACK_FIELDS admits; a symbol that spells no one
    phone fails with the utterance named. `read_tracks` calls it, through
    io.parse_record, only on a line that its own inline test refuses."""
    phone, utt_id = (inventory or Inventory.default()).phone, _utt_id(obj)
    try:
        phones = [TimedPhone(phone(e["symbol"]), e["start"], e["end"]) for e in obj["phones"]]
    except PhonaugError as e:
        raise in_context(e, io.shown_id(utt_id)) from None
    return PhoneTrack(utt_id, obj.get("model", "OTHER"), phones, float(obj["frame_ms"]))


def _utt_id(obj: dict) -> str:
    """The utt_id of a line that its fields' kinds admit. An empty one is a field
    fault, before anything else of the line is read, so io.parse_record names the
    line by its number."""
    if not obj["utt_id"]:
        raise io.FieldError("utt_id must be non-empty")
    return obj["utt_id"]


def in_utt_id_order(tracks: Iterable[PhoneTrack], source: str | Path) -> Iterator[PhoneTrack]:
    """Pass the tracks on while each utt_id is greater than the one before."""
    previous = None
    for track in tracks:
        if previous is not None and track.utt_id <= previous:
            problem = ("occurs twice" if track.utt_id == previous
                       else f"comes after {io.shown_id(previous)!r}")
            raise PhonaugError(f"{source}: utterance {io.shown_id(track.utt_id)!r} {problem}")
        previous = track.utt_id
        yield track


def read_tracks(path: str | Path, inventory: Inventory | None = None,
                role: str | None = None) -> Iterator[PhoneTrack]:
    """The tracks of a track file in utt_id order, each tagged `role` or OTHER if given.
    Each line is read, checked and built in one loop (`_built`)."""
    inv = inventory or Inventory.default()
    with closing(io.read_jsonl(path)) as objs:
        for track in in_utt_id_order(_built(path, objs, inv), path):
            if role and track.model_tag not in (role, "OTHER"):
                raise PhonaugError(f"{path}: utterance {io.shown_id(track.utt_id)!r} is "
                                   f"tagged {track.model_tag}, not {role} or OTHER")
            yield track


def _built(path: str | Path, objs: Iterable[dict], inv: Inventory) -> Iterator[PhoneTrack]:
    """The track of each object of the file at `path`, as
    io.parse_record(path, n, obj, track_from_obj, TRACK_FIELDS) gives it. The checks of
    TRACK_FIELDS and PhoneTrack run inline, with exact types, and each phone comes
    from the inventory's memo; a line that misses any of them, or whose symbol the
    memo lacks, goes to parse_record, which builds it or raises its error."""
    memo, number, tags, new = inv._by_symbol, io.NUMBER, MODEL_TAGS, tuple.__new__
    for n, obj in enumerate(objs, start=1):
        utt_id, model = obj.get("utt_id"), obj.get("model", "OTHER")
        frame_ms, entries = obj.get("frame_ms"), obj.get("phones")
        # frame_ms is tested as read, exactly (see FLOAT_MAX), then converted
        if (type(utt_id) is str and utt_id and model in tags and type(frame_ms) in number
                and 0 < frame_ms <= FLOAT_MAX and type(entries) is list):
            phones, previous = [], 0
            for entry in entries:
                if type(entry) is not dict:
                    break
                symbol, start, end = entry.get("symbol"), entry.get("start"), entry.get("end")
                if (type(symbol) is not str or (phone := memo.get(symbol)) is None
                        or type(start) is not int or type(end) is not int
                        or not previous <= start <= end):
                    break
                # tuple's __new__ builds what TimedPhone's does, without its Python frame
                phones.append(new(TimedPhone, (phone, start, end)))
                previous = start
            else:
                yield new(PhoneTrack, (utt_id, model, phones, float(frame_ms)))
                continue
        yield io.parse_record(path, n, obj, lambda o: track_from_obj(o, inv), TRACK_FIELDS)


def decode_file(path: str | Path, out: TextIO, blank: str, frame_ms: float | None,
                model_tag: str, inventory: Inventory) -> tuple[int, int]:
    """Decode each frame path in the file at `path` into a `model_tag` track and write
    the tracks in utt_id order to `out`, an output that `io.replacing` opened; return
    the count of tracks and of empty ones (all blank: no phone to match). A line's
    own `blank` overrides `blank`. A `frame_ms` that is not None overrides each
    line's, which is then neither read nor checked; `check_frame_ms` refuses a bad
    one, naming the file, before any line is read.

    Each line is tested inline, with exact types, against FRAME_PATH_FIELDS and
    FramePath's check, and a line that passes goes straight to `decode_track`, its
    labels uncopied. A line that fails a test, or that decode_track refuses, goes to
    io.parse_record(path, n, obj, from_obj, fields), which decodes it or raises its
    error with the file and the line's utt_id or number."""
    def from_obj(obj):
        utt_id = _utt_id(obj)
        ms = float(obj["frame_ms"] if frame_ms is None else frame_ms)
        frames = FramePath(utt_id, ms, tuple(obj["labels"]))
        return decode_track(frames, obj.get("blank", blank), inventory, model_tag)

    if frame_ms is not None:  # an override, checked once, before any line is read
        frame_ms = check_frame_ms(Path(path), frame_ms)  # a Path, which the error shows uncut
    fields = {name: kind for name, kind in FRAME_PATH_FIELDS.items()
              if name != "frame_ms" or frame_ms is None}
    number, new, tracks = io.NUMBER, tuple.__new__, []
    with closing(io.read_jsonl(path)) as objs:
        for n, obj in enumerate(objs, start=1):
            utt_id, labels, ms = obj.get("utt_id"), obj.get("labels"), frame_ms
            line_blank = obj.get("blank", blank)
            # frame_ms is tested as read, exactly (see FLOAT_MAX), then converted
            if (type(utt_id) is str and utt_id and type(labels) is list
                    and type(line_blank) is str
                    and (ms is not None or type(ms := obj.get("frame_ms")) in number
                         and 0 < ms <= FLOAT_MAX)):
                try:
                    tracks.append(decode_track(new(FramePath, (utt_id, float(ms), labels)),
                                               line_blank, inventory, model_tag))
                    continue
                except PhonaugError:
                    pass  # parse_record raises it again, with the line's context
            tracks.append(io.parse_record(path, n, obj, from_obj, fields))
    # frame paths come from outside phonaug, so they are sorted here, then
    # checked like every track file: each utt_id once
    tracks.sort(key=lambda t: t.utt_id)
    n = io.write_lines(out, in_utt_id_order(tracks, path), track_line)
    return n, sum(not track.phones for track in tracks)
