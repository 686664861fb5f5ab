"""Match reference-model plosives to helper-model plosives and overwrite
their phonation.

The mapping table (which base symbols may pair up, plus the index-offset
window) ships as JSON data so it can be replaced without code changes. The
matcher is greedy, left-to-right and one-to-one, preferring offset 0 and then
the smaller start-frame difference, among candidates that pass the
timestamp-proximity predicate `default_proximity`.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterator

from .ctc import PhoneTrack, TimedPhone, read_tracks, write_tracks
from .errors import MissingCounterpart, NoVoicingCounterpart, PhonaugError, UtteranceMismatch
from .inventory import (ASPIRATED, BREATHY_VOICED, VOICED, Inventory, phonation_of,
                        with_phonation)


@dataclass(frozen=True)
class MappingTable:
    entries: tuple[tuple[frozenset[str], frozenset[str]], ...]
    window_offsets: frozenset[int]
    # lookup sets derived from entries
    _rm_bases: frozenset[str] = field(init=False, repr=False, compare=False)
    _pairs: frozenset[tuple[str, str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.window_offsets:
            raise PhonaugError("window_offsets must be non-empty")
        if any(abs(d) > 2 for d in self.window_offsets):
            raise PhonaugError("window offsets beyond |2| are not supported")
        object.__setattr__(self, "_rm_bases",
                           frozenset(b for rm, _ in self.entries for b in rm))
        object.__setattr__(self, "_pairs", frozenset(
            (r, h) for rm, hm in self.entries for r in rm for h in hm))

    @classmethod
    def from_obj(cls, obj: dict, inventory: Inventory | None = None) -> "MappingTable":
        inv = inventory or Inventory.default()
        entries = []
        for entry in obj["entries"]:
            for sym in list(entry["rm"]) + list(entry["hm"]):
                if sym not in inv.base_features:
                    raise PhonaugError(f"mapping table symbol {sym!r} not in inventory")
            entries.append((frozenset(entry["rm"]), frozenset(entry["hm"])))
        return cls(tuple(entries), frozenset(obj.get("window_offsets", [0, 1])))

    @classmethod
    def load(cls, path: str | Path, inventory: Inventory | None = None) -> "MappingTable":
        with open(path, encoding="utf-8") as f:
            return cls.from_obj(json.load(f), inventory)

    @classmethod
    def default(cls, inventory: Inventory | None = None) -> "MappingTable":
        data = resources.files("phonaug.data").joinpath("mapping.json").read_text("utf-8")
        return cls.from_obj(json.loads(data), inventory)

    def rm_covered(self, base: str) -> bool:
        return base in self._rm_bases

    def admits(self, rm_base: str, hm_base: str) -> bool:
        return (rm_base, hm_base) in self._pairs


@dataclass(frozen=True)
class MatchPair:
    rm_index: int
    hm_index: int
    rm_phone: TimedPhone
    hm_phone: TimedPhone


@dataclass
class AugmentationStats:
    counts: Counter = field(default_factory=Counter)
    matched: int = 0
    unmatched_rm_plosives: int = 0
    utterances: int = 0
    missing_counterparts: list[str] = field(default_factory=list)

    def to_obj(self) -> dict:
        return {
            "counts": dict(sorted(self.counts.items())),
            "matched": self.matched,
            "unmatched_rm_plosives": self.unmatched_rm_plosives,
            "utterances": self.utterances,
            "missing_counterparts": sorted(self.missing_counterparts),
        }


def default_proximity(rm: TimedPhone, hm: TimedPhone) -> bool:
    """Spans overlap by >= 1 frame, or start frames differ by at most the
    longer of the two span lengths."""
    if rm.start_frame <= hm.end_frame and hm.start_frame <= rm.end_frame:
        return True
    rm_span = rm.end_frame - rm.start_frame + 1
    hm_span = hm.end_frame - hm.start_frame + 1
    return abs(rm.start_frame - hm.start_frame) <= max(rm_span, hm_span)


def match_phones(rm: PhoneTrack, hm: PhoneTrack, table: MappingTable) -> list[MatchPair]:
    """Greedy left-to-right one-to-one matching under the mapping table, the
    index-offset window and the timestamp-proximity predicate."""
    if rm.utt_id != hm.utt_id:
        raise UtteranceMismatch(f"{rm.utt_id!r} vs {hm.utt_id!r}")
    pairs: list[MatchPair] = []
    used_hm: set[int] = set()
    offsets = sorted(table.window_offsets, key=lambda d: (d != 0, abs(d)))
    for i, rm_tp in enumerate(rm.phones):
        rm_base = rm_tp.phone.base
        if not table.rm_covered(rm_base):
            continue
        candidates = []
        for d in offsets:
            j = i + d
            if j < 0 or j >= len(hm.phones) or j in used_hm:
                continue
            hm_tp = hm.phones[j]
            if not table.admits(rm_base, hm_tp.phone.base):
                continue
            if not default_proximity(rm_tp, hm_tp):
                continue
            candidates.append((d != 0, abs(rm_tp.start_frame - hm_tp.start_frame), j, hm_tp))
        if candidates:
            _, _, j, hm_tp = min(candidates)
            used_hm.add(j)
            pairs.append(MatchPair(i, j, rm_tp, hm_tp))
    return pairs


def augment_track(rm: PhoneTrack, hm: PhoneTrack, matches: list[MatchPair],
                  inventory: Inventory | None = None, breathy: bool = True,
                  stats: AugmentationStats | None = None) -> PhoneTrack:
    """Copy the RM track, overwriting the phonation of matched phones with the
    HM phonation; place, manner, timestamps and unmatched phones are untouched."""
    inv = inventory or Inventory.default()
    out = list(rm.phones)
    matched_idx: set[int] = set()
    for pair in matches:
        target = phonation_of(pair.hm_phone.phone)
        if target == BREATHY_VOICED and not breathy:
            target = VOICED
        try:
            phone = with_phonation(pair.rm_phone.phone, target, inv)
        except NoVoicingCounterpart:
            # phonation target unrealizable: leave the RM phone untouched
            continue
        out[pair.rm_index] = TimedPhone(phone, pair.rm_phone.start_frame,
                                        pair.rm_phone.end_frame)
        matched_idx.add(pair.rm_index)
        if stats is not None:
            stats.matched += 1
            stats.counts[phone.text] += 1
    if stats is not None:
        stats.unmatched_rm_plosives += sum(
            1 for i, tp in enumerate(rm.phones)
            if i not in matched_idx and tp.phone.features.manner == "plosive")
    return PhoneTrack(rm.utt_id, "TM", out, rm.frame_ms)


def _paired_tracks(rm_file: str | Path, hm_file: str | Path,
                   inventory: Inventory, skip_missing: bool,
                   stats: AugmentationStats) -> Iterator[tuple[PhoneTrack, PhoneTrack]]:
    """RM/HM pairs joined on utt_id by a merge of the two utt_id-sorted track
    files. A pair shares its frame_ms: the matcher compares raw frame indices."""
    with closing(read_tracks(rm_file, inventory)) as rms, \
            closing(read_tracks(hm_file, inventory)) as hms:
        hm = next(hms, None)
        for rm in rms:
            while hm is not None and hm.utt_id < rm.utt_id:
                hm = next(hms, None)
            if hm is None or hm.utt_id != rm.utt_id:
                if not skip_missing:
                    raise MissingCounterpart(f"no HM counterpart for utterance {rm.utt_id!r}")
                stats.missing_counterparts.append(rm.utt_id)
                continue
            if rm.frame_ms != hm.frame_ms:
                raise PhonaugError(f"utterance {rm.utt_id!r}: RM frame_ms {rm.frame_ms} "
                                   f"differs from HM frame_ms {hm.frame_ms}")
            yield rm, hm
        for _ in hms:  # the rest of the HM file must keep the contract too
            pass


def augment_corpus(rm_file: str | Path, hm_file: str | Path, table: MappingTable,
                   out_file: str | Path, inventory: Inventory | None = None,
                   breathy: bool = True, skip_missing: bool = True) -> AugmentationStats:
    """Augment every joinable utterance pair and write the TM training tracks,
    ordered by utt_id."""
    inv = inventory or Inventory.default()
    stats = AugmentationStats()
    stats.utterances = write_tracks(out_file, (
        augment_track(rm, hm, match_phones(rm, hm, table), inv, breathy=breathy, stats=stats)
        for rm, hm in _paired_tracks(rm_file, hm_file, inv, skip_missing, stats)))
    return stats


def prefilter_by_aspiration(rm_file: str | Path, hm_file: str | Path, table: MappingTable,
                            inventory: Inventory | None = None) -> list[str]:
    """utt_ids whose matches produce at least one aspirated output phone."""
    inv = inventory or Inventory.default()
    selected = []
    for rm, hm in _paired_tracks(rm_file, hm_file, inv, skip_missing=True,
                                 stats=AugmentationStats()):
        matches = match_phones(rm, hm, table)
        augmented = augment_track(rm, hm, matches, inv)
        if any(phonation_of(augmented.phones[p.rm_index].phone) == ASPIRATED for p in matches):
            selected.append(rm.utt_id)
    return selected
