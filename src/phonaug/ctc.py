"""Greedy CTC collapse and timestamped phone tracks.

Timestamps stay in integer frame indices with a frame_ms scale; conversion to
milliseconds happens only at reporting time, so all comparisons are exact.
"""

from __future__ import annotations

import unicodedata
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import io
from .errors import NotSinglePhone, PhonaugError
from .inventory import Inventory, Phone, tokenize_ipa

MODEL_TAGS = ("RM", "HM", "BM", "TM", "OTHER")
# the required fields of a frame-path line and of a track line
FRAME_PATH_FIELDS = {"utt_id": str, "labels": list, "frame_ms": (int, float)}
TRACK_FIELDS = {"utt_id": str, "frame_ms": (int, float), "phones": list}


@dataclass(frozen=True)
class FramePath:
    """Per-frame best-path labels for one utterance."""

    utt_id: str
    frame_ms: float
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.frame_ms <= 0:
            raise PhonaugError(f"{self.utt_id}: frame_ms must be positive")


@dataclass(frozen=True)
class TimedPhone:
    phone: Phone
    start_frame: int
    end_frame: int

    def __post_init__(self):
        if self.start_frame < 0 or self.end_frame < self.start_frame:
            raise PhonaugError("invalid frame span")


@dataclass
class PhoneTrack:
    utt_id: str
    model_tag: str
    phones: list[TimedPhone]
    frame_ms: float

    def __post_init__(self):
        if not isinstance(self.utt_id, str):  # track files are ordered by utt_id
            raise TypeError(f"utt_id must be a string, not {self.utt_id!r}")
        if not self.utt_id:
            raise PhonaugError("utt_id must be non-empty")
        if self.model_tag not in MODEL_TAGS:
            raise PhonaugError(f"unknown model tag {self.model_tag!r}")
        starts = [p.start_frame for p in self.phones]
        if starts != sorted(starts):
            raise PhonaugError(f"{self.utt_id}: phone start frames must be non-decreasing")


def greedy_collapse(path: FramePath, blank: str) -> list[tuple[str, int, int]]:
    """Merge consecutive identical labels into runs and drop blank runs.

    Each surviving run keeps (first frame, last frame) of its own run;
    repeats separated by blank stay distinct.
    """
    runs: list[tuple[str, int, int]] = []
    for i, label in enumerate(path.labels):
        if runs and runs[-1][0] == label:
            runs[-1] = (label, runs[-1][1], i)
        else:
            runs.append((label, i, i))
    return [(t, s, e) for (t, s, e) in runs if t != blank]


def decode_track(path: FramePath, blank: str, inventory: Inventory | None = None,
                 model_tag: str = "OTHER") -> PhoneTrack:
    """Collapse a frame path and re-segment the characters into timed phones.

    A phone's span is the union of its constituent character runs; combining
    diacritic runs extend the preceding phone's end frame.
    """
    inv = inventory or Inventory.default()
    # expand each run to NFD code points so precomposed vocab tokens keep a
    # one-to-one run/code-point correspondence
    runs = [
        (ch, s, e)
        for t, s, e in greedy_collapse(path, blank)
        for ch in unicodedata.normalize("NFD", t)
    ]
    text = "".join(t for t, _, _ in runs)
    phones = tokenize_ipa(text, inv)

    # map each phone back onto the character runs it consumed
    timed: list[TimedPhone] = []
    run_idx = 0
    for phone in phones:
        n_chars = len(phone.base) + len(phone.diacritics)
        span_runs = runs[run_idx:run_idx + n_chars]
        if len(span_runs) != n_chars:
            raise PhonaugError(f"{path.utt_id}: run/phone bookkeeping mismatch")
        run_idx += n_chars
        start = min(s for _, s, _ in span_runs)
        end = max(e for _, _, e in span_runs)
        timed.append(TimedPhone(phone, start, end))
    return PhoneTrack(path.utt_id, model_tag, timed, path.frame_ms)


# -- JSONL formats ----------------------------------------------------------


def frame_path_from_obj(obj: dict) -> FramePath:
    return FramePath(obj["utt_id"], float(obj["frame_ms"]), tuple(obj["labels"]))


def track_to_obj(track: PhoneTrack) -> dict:
    return {
        "utt_id": track.utt_id,
        "model": track.model_tag,
        "frame_ms": track.frame_ms,
        "phones": [
            {"symbol": tp.phone.text, "start": tp.start_frame, "end": tp.end_frame}
            for tp in track.phones
        ],
    }


def track_from_obj(obj: dict, inventory: Inventory | None = None) -> PhoneTrack:
    inv = inventory or Inventory.default()
    try:
        phones = [TimedPhone(inv.phone(entry["symbol"]), int(entry["start"]), int(entry["end"]))
                  for entry in obj["phones"]]
    except NotSinglePhone as e:
        raise PhonaugError(f"{obj['utt_id']}: {e}") from None
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
                                  TRACK_FIELDS)) as tracks:
        yield from in_utt_id_order(tracks, path)


def write_tracks(path: str | Path, tracks: Iterable[PhoneTrack]) -> int:
    return io.write_jsonl(path, (track_to_obj(t) for t in tracks))
