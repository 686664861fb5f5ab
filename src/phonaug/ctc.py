"""Greedy CTC collapse and timestamped phone tracks.

Timestamps stay in integer frame indices with a frame_ms scale; conversion to
milliseconds happens only at reporting time, so all comparisons are exact.
"""

from __future__ import annotations

import math
import unicodedata
from contextlib import closing
from dataclasses import dataclass
from itertools import groupby
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

from . import io
from .errors import PhonaugError, in_context
from .inventory import Inventory, Phone, tokenize_ipa
from .io import MODEL_TAGS

# the fields of a frame-path line and a track line; labels are checked per run, in
# decode_track, and phones per entry, in track_from_obj, against TRACK_FIELDS
FRAME_PATH_FIELDS = {"utt_id": io.STRING, "labels": io.LIST, "frame_ms": io.NUMBER,
                     "blank": io.Optional(io.STRING)}
TRACK_FIELDS = {"utt_id": io.STRING, "model": io.Optional(io.STRING), "frame_ms": io.NUMBER,
                "phones": io.ListOf({"symbol": io.STRING, "start": io.INTEGER, "end": io.INTEGER})}
_TRACK_HEAD = {**TRACK_FIELDS, "phones": io.LIST}


def check_frame_ms(utt_id: str, frame_ms: float) -> None:
    """A frame length must be positive and finite: NaN and infinity are not
    JSON, and no frame index scales to milliseconds by them."""
    if not 0 < frame_ms < math.inf:
        raise PhonaugError(f"{utt_id}: frame_ms must be positive and finite, got {frame_ms!r}")


@dataclass(frozen=True)
class FramePath:
    """Per-frame best-path labels for one utterance."""

    utt_id: str
    frame_ms: float
    labels: tuple[str, ...]

    def __post_init__(self):
        check_frame_ms(self.utt_id, self.frame_ms)


class TimedPhone(NamedTuple):
    phone: Phone
    start_frame: int
    end_frame: int


@dataclass
class PhoneTrack:
    utt_id: str
    model_tag: str
    phones: list[TimedPhone]
    frame_ms: float

    def __post_init__(self):
        if not self.utt_id:
            raise PhonaugError("utt_id must be non-empty")
        if self.model_tag not in MODEL_TAGS:
            raise PhonaugError(f"{self.utt_id}: unknown model tag {self.model_tag!r}")
        check_frame_ms(self.utt_id, self.frame_ms)
        previous = 0
        for i, (_, start, end) in enumerate(self.phones):
            if not 0 <= start <= end:
                raise PhonaugError(
                    f"{self.utt_id}: phones[{i}]: invalid frame span {start}..{end}")
            if start < previous:
                raise PhonaugError(
                    f"{self.utt_id}: phones[{i}]: start frame {start} comes before {previous}")
            previous = start


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
    belong to no phone.
    """
    inv = inventory or Inventory.default()
    # expand each run to NFD code points so precomposed vocab tokens keep a
    # one-to-one run/code-point correspondence; whitespace separates phones and
    # belongs to none, so only the other code points keep their frames
    pieces: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    for label, start, end in greedy_collapse(path, blank):
        if type(label) is not str:
            raise io.FieldError(f"field 'labels[{start}]' has the wrong type: {label!r}")
        chars = unicodedata.normalize("NFD", label)
        pieces.append(chars)
        for ch in chars:
            if not ch.isspace():
                starts.append(start)
                ends.append(end)
    try:
        phones = tokenize_ipa("".join(pieces), inv)
    except PhonaugError as e:
        raise in_context(e, path.utt_id) from None

    # runs are in frame order: a phone spans from its first code point's start
    # to its last code point's end
    timed: list[TimedPhone] = []
    first = 0
    for phone in phones:
        last = first + len(phone.base) + len(phone.diacritics) - 1
        if last >= len(ends):
            raise PhonaugError(f"{path.utt_id}: run/phone bookkeeping mismatch")
        timed.append(TimedPhone(phone, starts[first], ends[last]))
        first = last + 1
    return PhoneTrack(path.utt_id, model_tag, timed, path.frame_ms)


# -- JSONL formats ----------------------------------------------------------


def frame_path_from_obj(obj: dict) -> FramePath:
    return FramePath(obj["utt_id"], float(obj["frame_ms"]), tuple(obj["labels"]))


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
    """The track of a line whose head `_TRACK_HEAD` admits. Each phone's field types
    are tested as it is built; on a fault, or a symbol that spells no one phone,
    `io.check` against TRACK_FIELDS first names the line's first ill-typed field."""
    phone = (inventory or Inventory.default()).phone
    phones = []
    for entry in obj["phones"]:
        if type(entry) is not dict:
            io.check(obj, TRACK_FIELDS)  # raises: the full schema refuses the entry
        symbol, start, end = entry.get("symbol"), entry.get("start"), entry.get("end")
        if type(symbol) is not str or type(start) is not int or type(end) is not int:
            io.check(obj, TRACK_FIELDS)  # raises: the full schema refuses the entry
        try:  # tuple's __new__ builds what TimedPhone's does, without its Python frame
            phones.append(tuple.__new__(TimedPhone, (phone(symbol), start, end)))
        except PhonaugError as e:
            io.check(obj, TRACK_FIELDS)
            raise in_context(e, obj["utt_id"]) from None
    return PhoneTrack(obj["utt_id"], obj.get("model", "OTHER"), phones, float(obj["frame_ms"]))


def in_utt_id_order(tracks: Iterable[PhoneTrack], source: str | Path) -> Iterator[PhoneTrack]:
    """Pass the tracks on while each utt_id is greater than the one before."""
    previous = None
    for track in tracks:
        if previous is not None and track.utt_id <= previous:
            problem = "occurs twice" if track.utt_id == previous else f"comes after {previous!r}"
            raise PhonaugError(f"{source}: utterance {track.utt_id!r} {problem}")
        previous = track.utt_id
        yield track


def read_tracks(path: str | Path, inventory: Inventory | None = None) -> Iterator[PhoneTrack]:
    inv = inventory or Inventory.default()
    with closing(io.parse_records(path, lambda obj: track_from_obj(obj, inv),
                                  _TRACK_HEAD)) as tracks:
        yield from in_utt_id_order(tracks, path)


def write_tracks(out: TextIO, tracks: Iterable[PhoneTrack]) -> int:
    """Write the line of each track to `out`, an output that `io.replacing` opened,
    and return the count."""
    n = 0
    for track in tracks:
        out.write(track_line(track) + "\n")
        n += 1
    return n
