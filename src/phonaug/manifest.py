"""Corpus manifest operations: vote filtering, seeded sampling and splitting,
transcription cleanup, vocabulary maintenance and onset test-set construction.

Every sampling operation is a pure function of (input, parameters, seed). The
generator is Python's Mersenne Twister via random.Random(seed), which is
stable across platforms; outputs are additionally ordered by utt_id so files
are byte-reproducible.
"""

from __future__ import annotations

import random
import unicodedata
from typing import NamedTuple

from . import io
from .errors import (
    InsufficientInstances, InsufficientSegments, PhonaugError, RemoveInUse, checked_make,
)
from .inventory import Inventory, tokenize_ipa

ONSET_PHONEMES = ("b", "d", "g", "p", "t", "k")


# the fields of a manifest record, each read into the SegmentRecord field of its name
_TEXT, _COUNT = io.Optional(io.STRING), io.Optional(io.INTEGER)
SEGMENT_FIELDS = {"utt_id": io.STRING, "language": _TEXT, "sentence": _TEXT,
                  "transcription": _TEXT, "upvotes": _COUNT, "downvotes": _COUNT,
                  "split_tag": _TEXT, "analyzable": io.Optional(io.BOOLEAN), "phoneme": _TEXT}


class SegmentRecord(NamedTuple):
    utt_id: str
    language: str = ""
    sentence: str = ""
    transcription: str = ""
    upvotes: int = 0
    downvotes: int = 0
    split_tag: str | None = None
    analyzable: bool | None = None
    phoneme: str | None = None

    @classmethod
    def from_obj(cls, obj: dict) -> "SegmentRecord":
        return cls(**{name: obj[name] for name in SEGMENT_FIELDS if name in obj})

    def to_obj(self) -> dict:
        """Every field but the ones that hold None."""
        return {name: value for name, value in self._asdict().items() if value is not None}


def _check_count(name: str, n: int) -> None:
    if n < 0:  # random.sample would raise a ValueError
        raise PhonaugError(f"{name} must be at least 0, got {n}")


def _by_id(records: list[SegmentRecord]) -> list[SegmentRecord]:
    return sorted(records, key=lambda r: r.utt_id)


def filter_downvoted(records: list[SegmentRecord], threshold: int = 0) -> list[SegmentRecord]:
    """Drop records with downvotes above the threshold (default: any downvote)."""
    return [r for r in records if r.downvotes <= threshold]


def sample_segments(records: list[SegmentRecord], n: int, seed: int) -> list[SegmentRecord]:
    """Uniform sample without replacement, deterministic per seed, ordered by utt_id."""
    _check_count("sample size", n)
    if len(records) < n:
        raise InsufficientSegments(f"need {n} segments, manifest has {len(records)}")
    rng = random.Random(seed)
    return _by_id(rng.sample(records, n))


def split_validation(records: list[SegmentRecord], fraction: float, seed: int,
                     ) -> tuple[list[SegmentRecord], list[SegmentRecord]]:
    """Disjoint, exhaustive (train, valid) split with |valid| = round(fraction * n)."""
    if not 0 < fraction < 1:
        raise PhonaugError(f"fraction must be in (0, 1), got {fraction}")
    shuffled = list(records)
    random.Random(seed).shuffle(shuffled)
    k = round(fraction * len(records))
    return _by_id(shuffled[k:]), _by_id(shuffled[:k])


def remap_config(obj: dict) -> tuple[dict[str, str], list[str]]:
    """The remap table and the exclude patterns of a `prepare remap` config,
    {"remap": {pattern: replacement}, "exclude": [pattern]}; both are optional.
    An empty pattern occurs everywhere, so it is refused."""
    remap, exclude = obj.get("remap", {}), obj.get("exclude", [])
    for name, patterns in (("remap", remap), ("exclude", exclude)):
        if "" in patterns:
            raise io.FieldError(f"field {name!r} holds the empty pattern, which occurs "
                                "in every transcription")
    return remap, exclude


def remap_invalid(records: list[SegmentRecord], remap_table: dict[str, str],
                  exclude_patterns: list[str], inventory: Inventory | None = None,
                  ) -> tuple[list[SegmentRecord], list[dict]]:
    """Rewrite transcriptions via the remap table and drop records that still
    contain an exclude pattern or fail IPA tokenization. Every rewrite and
    drop lands in the report; nothing is silently skipped."""
    inv = inventory or Inventory.default()
    kept: list[SegmentRecord] = []
    report: list[dict] = []
    # longest-first so overlapping patterns apply deterministically
    rules = sorted(remap_table.items(), key=lambda kv: (-len(kv[0]), kv[0]))
    for rec in records:
        text = rec.transcription
        for src, dst in rules:
            if src in text:
                text = text.replace(src, dst)
                report.append({"utt_id": rec.utt_id, "action": "rewrite",
                               "pattern": src, "replacement": dst})
        bad = next((p for p in exclude_patterns if p in text), None)
        if bad is not None:
            report.append({"utt_id": rec.utt_id, "action": "drop",
                           "reason": f"exclude pattern {bad!r}"})
            continue
        try:
            tokenize_ipa(text, inv)
        except PhonaugError as e:
            report.append({"utt_id": rec.utt_id, "action": "drop",
                           "reason": f"not tokenizable: {e}"})
            continue
        kept.append(rec._replace(transcription=text))
    return kept, report


class _VocabFields(NamedTuple):
    tokens: list[str]
    blank: str = "_"
    removed: set[str] | frozenset[str] = frozenset()
    added: set[str] | frozenset[str] = frozenset()


class VocabSpec(_VocabFields):
    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, *args, **kwargs) -> "VocabSpec":
        self = super().__new__(cls, *args, **kwargs)
        if self.tokens.count(self.blank) != 1:
            raise PhonaugError("blank must occur exactly once in the vocabulary")
        return self

    def to_obj(self) -> dict:
        return {"tokens": {tok: i for i, tok in enumerate(self.tokens)},
                "blank": self.blank}


def clean_vocab(vocab: VocabSpec, records: list[SegmentRecord],
                ) -> tuple[VocabSpec, dict[int, int]]:
    """Apply the requested removals and additions, keeping ids dense.

    Returns the cleaned vocabulary and an old-id -> new-id map for surviving
    tokens, a token's id being its position in `vocab.tokens`. Removing a
    token that still occurs in the corpus is an error, not a warning.
    """
    used: set[str] = set()
    for rec in records:
        used.update(unicodedata.normalize("NFD", rec.transcription))
    for tok in sorted(vocab.removed):
        if tok in used:
            raise RemoveInUse(f"token {tok!r} marked for removal still occurs in the corpus")
    new_tokens = [t for t in vocab.tokens if t not in vocab.removed]
    for tok in sorted(vocab.added):
        if tok not in new_tokens:
            new_tokens.append(tok)
    id_map = {vocab.tokens.index(t): i for i, t in enumerate(new_tokens) if t in vocab.tokens}
    cleaned = VocabSpec(new_tokens, vocab.blank, set(), set(vocab.added))
    return cleaned, id_map


def build_onset_testset(records: list[SegmentRecord], per_phoneme_n: int, seed: int,
                        ) -> list[SegmentRecord]:
    """Absolute-onset test set: records whose lower-cased sentence starts with
    one of <b d g p t k>, labelled with the target phoneme, sampled
    per_phoneme_n per bucket among analyzable records."""
    _check_count("per-phoneme count", per_phoneme_n)
    buckets: dict[str, list[SegmentRecord]] = {p: [] for p in ONSET_PHONEMES}
    for rec in records:
        sentence = rec.sentence.lstrip().lower()
        if sentence and sentence[0] in buckets and rec.analyzable:
            buckets[sentence[0]].append(rec)
    rng = random.Random(seed)
    picked: list[SegmentRecord] = []
    for phoneme in ONSET_PHONEMES:
        pool = buckets[phoneme]
        if len(pool) < per_phoneme_n:
            raise InsufficientInstances(phoneme, len(pool), per_phoneme_n)
        for rec in rng.sample(pool, per_phoneme_n):
            picked.append(rec._replace(phoneme=phoneme))
    return _by_id(picked)
