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
from .ctc import PhoneTrack, TimedPhone, read_tracks, track_line
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
        raise UtteranceMismatch(f"{io.shown_id(rm.utt_id)!r} vs {io.shown_id(hm.utt_id)!r}")
    rm_bases, admitted, offsets = table._rm_bases, table._pairs, table.window_offsets
    hm_phones = hm.phones
    n_hm = len(hm_phones)
    pairs: list[MatchPair] = []
    used_hm: set[int] = set()
    for i, rm_tp in enumerate(rm.phones):
        rm_base = rm_tp.phone.base
        if rm_base not in rm_bases:
            continue
        # the least (d != 0, |start difference|, j) of the candidates, as min() of
        # them would give; j is unique, so the window's order does not matter
        best = None
        for d in offsets:
            j = i + d
            if j < 0 or j >= n_hm or j in used_hm:
                continue
            hm_tp = hm_phones[j]
            if (rm_base, hm_tp.phone.base) not in admitted or not default_proximity(rm_tp, hm_tp):
                continue
            key = (d != 0, abs(rm_tp.start_frame - hm_tp.start_frame), j)
            if best is None or key < best:
                best, best_tp = key, hm_tp
        if best is not None:
            used_hm.add(best[2])
            pairs.append(tuple.__new__(MatchPair, (i, best[2], rm_tp, best_tp)))
    return pairs


def augment_track(rm: PhoneTrack, hm: PhoneTrack, matches: list[MatchPair],
                  inventory: Inventory | None = None, breathy: bool = True,
                  stats: AugmentationStats | None = None) -> PhoneTrack:
    """Copy the RM track, overwriting the phonation of matched phones with the
    HM phonation; place, manner, timestamps and unmatched phones are untouched.
    `hm` is not read: the matches carry the HM phones.

    When each pair's `rm_phone` is the RM track's own phone at its `rm_index` (the
    same object, as `match_phones` gives it), the TM track holds the RM track's
    spans, which PhoneTrack checked, and is built without checking them again;
    otherwise PhoneTrack checks it and raises on a bad span."""
    inv = inventory or Inventory.default()
    phones = rm.phones
    out = list(phones)
    counts = None if stats is None else stats.counts
    new, own = tuple.__new__, True
    for rm_index, _, rm_tp, hm_tp in matches:
        target = phonation_of(hm_tp.phone)
        if target == BREATHY_VOICED and not breathy:
            target = VOICED
        phone = with_phonation(rm_tp.phone, target, inv)
        # tuple's __new__ builds what TimedPhone's does, without its Python frame
        out[rm_index] = new(TimedPhone, (phone, rm_tp.start_frame, rm_tp.end_frame))
        own = own and phones[rm_index] is rm_tp
        if counts is not None:
            counts[phone.text] += 1
    if stats is not None:
        stats.matched += len(matches)
        # a transferred phone is a new object: each one still in place is unmatched
        stats.unmatched_rm_plosives += sum(1 for tp, kept in zip(phones, out)
                                           if tp is kept and tp.phone.manner == "plosive")
    if own:
        return new(PhoneTrack, (rm.utt_id, "TM", out, rm.frame_ms))
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
                        f"{hm_file}: no HM counterpart for utterance {io.shown_id(rm.utt_id)!r}")
                stats.missing_counterparts.append(rm.utt_id)
                continue
            if rm.frame_ms != hm.frame_ms:
                raise PhonaugError(
                    f"utterance {io.shown_id(rm.utt_id)!r}: RM frame_ms {rm.frame_ms} in "
                    f"{rm_file} differs from HM frame_ms {hm.frame_ms} in {hm_file}")
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
    io.write_lines(out, (augment_track(rm, hm, matches, inv, breathy=breathy, stats=stats)
                         for rm, hm, matches in _paired_tracks(rm_file, hm_file, table, inv,
                                                               skip_missing, stats)), track_line)
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
