"""Match reference-model plosives to helper-model plosives and overwrite
their phonation.

The mapping table (which base symbols may pair up, plus the index-offset
window) ships as JSON data so it can be replaced without code changes. Each of
its RM bases has a voicing pair in the inventory, so every match transfers:
this is checked at load, and again against the inventory that
`augment_corpus` or `prefilter_by_aspiration` is given, before any input is
read. The matcher is greedy, left-to-right and one-to-one, preferring
offset 0 and then the smaller start-frame difference, among candidates that
pass the timestamp-proximity predicate `default_proximity`.
"""

from __future__ import annotations

from collections import Counter
from contextlib import closing
from pathlib import Path
from typing import Iterator, NamedTuple, TextIO

from . import io
from .ctc import PhoneTrack, TimedPhone, read_tracks, write_tracks
from .errors import MissingCounterpart, PhonaugError, UtteranceMismatch
from .inventory import (ASPIRATED, BREATHY_VOICED, VOICED, Inventory, phonation_of,
                        with_phonation)


class MappingTable:
    def __init__(self, entries: tuple[tuple[frozenset[str], frozenset[str]], ...],
                 window_offsets: frozenset[int]):
        if not window_offsets:
            raise PhonaugError("window_offsets must be non-empty")
        if any(abs(d) > 2 for d in window_offsets):
            raise PhonaugError("window offsets beyond |2| are not supported")
        self.entries, self.window_offsets = entries, window_offsets
        self._rm_bases = frozenset(b for rm, _ in entries for b in rm)
        self._pairs = frozenset((r, h) for rm, hm in entries for r in rm for h in hm)

    @classmethod
    def from_obj(cls, obj: dict, inventory: Inventory | None = None) -> "MappingTable":
        inv = inventory or Inventory.default()
        entries = []
        for entry in obj["entries"]:
            for sym in entry["rm"] + entry["hm"]:
                if sym not in inv.base_features:
                    raise PhonaugError(f"mapping table symbol {sym!r} not in inventory")
            entries.append((frozenset(entry["rm"]), frozenset(entry["hm"])))
        table = cls(tuple(entries), frozenset(obj.get("window_offsets", [0, 1])))
        table.check_voicing_pairs(inv)
        return table

    @classmethod
    def load(cls, path: str | Path, inventory: Inventory | None = None) -> "MappingTable":
        return io.read_json(path, lambda obj: cls.from_obj(obj, inventory), {
            "entries": io.ListOf({"rm": io.ListOf(io.STRING), "hm": io.ListOf(io.STRING)}),
            "window_offsets": io.Optional(io.ListOf(io.INTEGER))})

    @classmethod
    def default(cls, inventory: Inventory | None = None) -> "MappingTable":
        return cls.load(io.DATA / "mapping.json", inventory)

    def check_voicing_pairs(self, inventory: Inventory) -> None:
        """Raise unless each RM base has a voicing pair in `inventory`: a
        matched RM phone takes whatever phonation its HM phone has."""
        for base in sorted(self._rm_bases):
            if base not in inventory.voicing_pairs:
                raise PhonaugError(f"mapping table RM base {base!r} has no voicing pair "
                                   "in the inventory")

    def rm_covered(self, base: str) -> bool:
        return base in self._rm_bases

    def admits(self, rm_base: str, hm_base: str) -> bool:
        return (rm_base, hm_base) in self._pairs


class MatchPair(NamedTuple):
    rm_index: int
    hm_index: int
    rm_phone: TimedPhone
    hm_phone: TimedPhone


class AugmentationStats:
    def __init__(self):
        self.counts: Counter = Counter()
        self.matched = self.unmatched_rm_plosives = self.utterances = 0
        self.missing_counterparts: list[str] = []

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
    longer span length; overlap implies the latter, so only it is tested."""
    return abs(rm.start_frame - hm.start_frame) <= 1 + max(rm.end_frame - rm.start_frame,
                                                           hm.end_frame - hm.start_frame)


def match_phones(rm: PhoneTrack, hm: PhoneTrack, table: MappingTable) -> list[MatchPair]:
    """Greedy left-to-right one-to-one matching under the mapping table, the
    index-offset window and the timestamp-proximity predicate."""
    if rm.utt_id != hm.utt_id:
        raise UtteranceMismatch(f"{rm.utt_id!r} vs {hm.utt_id!r}")
    pairs: list[MatchPair] = []
    used_hm: set[int] = set()
    for i, rm_tp in enumerate(rm.phones):
        rm_base = rm_tp.phone.base
        if not table.rm_covered(rm_base):
            continue
        candidates = []
        for d in table.window_offsets:
            j = i + d
            if j < 0 or j >= len(hm.phones) or j in used_hm:
                continue
            hm_tp = hm.phones[j]
            if not table.admits(rm_base, hm_tp.phone.base):
                continue
            if not default_proximity(rm_tp, hm_tp):
                continue
            candidates.append((d != 0, abs(rm_tp.start_frame - hm_tp.start_frame), j, hm_tp))
        if candidates:  # j is unique, so the window's order does not matter
            _, _, j, hm_tp = min(candidates)
            used_hm.add(j)
            pairs.append(MatchPair(i, j, rm_tp, hm_tp))
    return pairs


def augment_track(rm: PhoneTrack, hm: PhoneTrack, matches: list[MatchPair],
                  inventory: Inventory | None = None, breathy: bool = True,
                  stats: AugmentationStats | None = None) -> PhoneTrack:
    """Copy the RM track, overwriting the phonation of matched phones with the
    HM phonation; place, manner, timestamps and unmatched phones are untouched.
    `hm` is not read: the matches carry the HM phones."""
    inv = inventory or Inventory.default()
    out = list(rm.phones)
    for pair in matches:
        target = phonation_of(pair.hm_phone.phone)
        if target == BREATHY_VOICED and not breathy:
            target = VOICED
        phone = with_phonation(pair.rm_phone.phone, target, inv)
        out[pair.rm_index] = TimedPhone(phone, pair.rm_phone.start_frame,
                                        pair.rm_phone.end_frame)
        if stats is not None:
            stats.matched += 1
            stats.counts[phone.text] += 1
    if stats is not None:
        matched_idx = {p.rm_index for p in matches}
        stats.unmatched_rm_plosives += sum(
            1 for i, tp in enumerate(rm.phones)
            if i not in matched_idx and tp.phone.manner == "plosive")
    return PhoneTrack(rm.utt_id, "TM", out, rm.frame_ms)


def _paired_tracks(rm_file: str | Path, hm_file: str | Path, table: MappingTable,
                   inventory: Inventory, skip_missing: bool, stats: AugmentationStats
                   ) -> Iterator[tuple[PhoneTrack, PhoneTrack, list[MatchPair]]]:
    """RM/HM pairs, tagged RM and HM or OTHER, joined on utt_id by a merge of the two
    sorted track files, each with its matches under `table` and counted in `stats`.
    A pair shares its frame_ms: the matcher compares frame indices."""
    table.check_voicing_pairs(inventory)
    with closing(read_tracks(rm_file, inventory, "RM")) as rms, \
            closing(read_tracks(hm_file, inventory, "HM")) as hms:
        hm = next(hms, None)
        for rm in rms:
            while hm is not None and hm.utt_id < rm.utt_id:
                hm = next(hms, None)
            if hm is None or hm.utt_id != rm.utt_id:
                if not skip_missing:
                    raise MissingCounterpart(
                        f"{hm_file}: no HM counterpart for utterance {rm.utt_id!r}")
                stats.missing_counterparts.append(rm.utt_id)
                continue
            if rm.frame_ms != hm.frame_ms:
                raise PhonaugError(
                    f"utterance {rm.utt_id!r}: RM frame_ms {rm.frame_ms} in {rm_file} differs "
                    f"from HM frame_ms {hm.frame_ms} in {hm_file}")
            stats.utterances += 1
            yield rm, hm, match_phones(rm, hm, table)
        for _ in hms:  # the rest of the HM file must keep the contract too
            pass


def augment_corpus(rm_file: str | Path, hm_file: str | Path, table: MappingTable,
                   out: TextIO, inventory: Inventory | None = None,
                   breathy: bool = True, skip_missing: bool = True) -> AugmentationStats:
    """Augment every joinable utterance pair and write the TM training tracks,
    ordered by utt_id, to `out`, an output that `io.replacing` opened."""
    inv = inventory or Inventory.default()
    stats = AugmentationStats()
    write_tracks(out, (augment_track(rm, hm, matches, inv, breathy=breathy, stats=stats)
                       for rm, hm, matches in _paired_tracks(rm_file, hm_file, table, inv,
                                                             skip_missing, stats)))
    return stats


def prefilter_by_aspiration(rm_file: str | Path, hm_file: str | Path, table: MappingTable,
                            inventory: Inventory | None = None,
                            stats: AugmentationStats | None = None) -> list[str]:
    """utt_ids whose matches produce at least one aspirated output phone. A
    transfer gives the RM phone exactly the HM phonation, so the matched HM
    phones decide and no TM track is built. `stats`, if given, counts the
    utterance pairs read and lists the RM utterances without an HM counterpart."""
    inv = inventory or Inventory.default()
    stats = AugmentationStats() if stats is None else stats
    return [rm.utt_id
            for rm, _, matches in _paired_tracks(rm_file, hm_file, table, inv, True, stats)
            if any(phonation_of(p.hm_phone.phone) == ASPIRATED for p in matches)]
