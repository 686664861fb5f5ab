"""Corpus manifest operations: vote filtering, seeded sampling and splitting,
transcription cleanup, vocabulary maintenance and onset test-set construction.

This module owns the manifest and its two config files: `read_records` reads a
manifest, `remap_config` a `prepare remap` config and `vocab_config` a vocabulary
file, which `write_vocab` writes. A manifest record is the JSON object of its
line, as `read_records` checked it against SEGMENT_FIELDS. An operation reads
only the fields it uses, an absent one as its default (`downvotes` 0, `sentence`
and `transcription` "", `analyzable` unset), and returns the records it keeps as
it read them, keys that SEGMENT_FIELDS does not name included: `remap_invalid`
sets a `transcription` that a rule rewrote, and `build_onset_testset` sets
`phoneme`; nothing else changes a record.

Every sampling operation is a pure function of (input, parameters, seed). The
generator is Python's Mersenne Twister via random.Random(seed), which is
stable across platforms; outputs are additionally ordered by utt_id so files
are byte-reproducible.
"""

from __future__ import annotations

import math
import random
import unicodedata
from pathlib import Path
from typing import Any, TextIO

from . import io
from .errors import InsufficientInstances, InsufficientSegments, PhonaugError, RemoveInUse
from .inventory import Inventory, tokenize_ipa

# the JSON types of the fields a manifest record may carry; it may carry others too
_TEXT, _COUNT = io.Optional(io.STRING), io.Optional(io.INTEGER)
SEGMENT_FIELDS = {"utt_id": io.STRING, "language": _TEXT, "sentence": _TEXT,
                  "transcription": _TEXT, "upvotes": _COUNT, "downvotes": _COUNT,
                  "split_tag": _TEXT, "analyzable": io.Optional(io.BOOLEAN), "phoneme": _TEXT}


# The deepest a manifest line may nest lists and objects, its own object counted:
# Python's json reads and writes one level per stack frame and raises RecursionError
# at about 1000 frames, and so does `_finite`, so a line that nests deeper than this
# might be read and then fail as it is written back.
_MAX_DEPTH = 500


def read_records(path: str | Path) -> list[dict]:
    """The objects of a manifest's lines in file order, each utt_id once (a split
    or a sample must not hold one utterance twice), each number finite and no value
    nested deeper than _MAX_DEPTH (see `_finite`)."""
    records = list(io.parse_records(path, _finite, SEGMENT_FIELDS))
    seen: set[str] = set()
    for record in records:
        if record["utt_id"] in seen:
            raise PhonaugError(
                f"{path}: utterance {io.shown_id(record['utt_id'])!r} occurs twice")
        seen.add(record["utt_id"])
    return records


def _finite(value: Any, path: str = "", depth: int = 1, field: str | None = None) -> Any:
    """`value`, the value at `path` in a record, `depth` lists and objects deep in its
    top-level `field`, once it holds no NaN or infinity and nests no deeper than
    _MAX_DEPTH: json reads the tokens NaN and Infinity, and 1e999 as infinity, but
    `prepare` writes a record back as it read it, and no JSON output holds them."""
    kind = type(value)
    if kind is float and not math.isfinite(value):
        raise io.FieldError(f"field {path[1:]!r} is not a finite number: {value!r}")
    if kind is dict or kind is list:
        if depth > _MAX_DEPTH:
            raise io.FieldError(f"field {field!r} nests lists and objects more than "
                                f"{_MAX_DEPTH} levels deep")
        for key, v in value.items() if kind is dict else enumerate(value):
            _finite(v, f"{path}.{key}" if kind is dict else f"{path}[{key}]", depth + 1,
                    key if field is None else field)
    return value


def _check_count(name: str, n: int) -> None:
    if n < 0:  # random.sample would raise a ValueError
        raise PhonaugError(f"{name} must be at least 0, got {n}")


def _by_id(records: list[dict]) -> list[dict]:
    return sorted(records, key=lambda r: r["utt_id"])


def filter_downvoted(records: list[dict], threshold: int = 0) -> list[dict]:
    """Drop records with downvotes above the threshold (default: any downvote)."""
    return [r for r in records if r.get("downvotes", 0) <= threshold]


def sample_segments(records: list[dict], n: int, seed: int) -> list[dict]:
    """Uniform sample without replacement, deterministic per seed, ordered by utt_id."""
    _check_count("sample size", n)
    if len(records) < n:
        raise InsufficientSegments(f"need {n} segments, manifest has {len(records)}")
    rng = random.Random(seed)
    return _by_id(rng.sample(records, n))


def split_validation(records: list[dict], fraction: float, seed: int,
                     ) -> tuple[list[dict], list[dict]]:
    """Disjoint, exhaustive (train, valid) split with |valid| = round(fraction * n)."""
    if not 0 < fraction < 1:
        raise PhonaugError(f"fraction must be in (0, 1), got {fraction}")
    shuffled = list(records)
    random.Random(seed).shuffle(shuffled)
    k = round(fraction * len(records))
    return _by_id(shuffled[k:]), _by_id(shuffled[:k])


def remap_config(path: str | Path) -> tuple[dict[str, str], list[str]]:
    """The remap table and the exclude patterns of the `prepare remap` config file
    at `path`, {"remap": {pattern: replacement}, "exclude": [pattern]}; both are
    optional. An empty pattern occurs everywhere, so it is refused."""
    def from_obj(obj):
        remap, exclude = obj.get("remap", {}), obj.get("exclude", [])
        for name, patterns in (("remap", remap), ("exclude", exclude)):
            if "" in patterns:
                raise io.FieldError(f"field {name!r} holds the empty pattern, which occurs "
                                    "in every transcription")
        return remap, exclude

    return io.read_json(path, from_obj, {"remap": io.Optional(io.MapOf(io.STRING)),
                                         "exclude": io.Optional(io.ListOf(io.STRING))})


def remap_invalid(records: list[dict], remap_table: dict[str, str],
                  exclude_patterns: list[str], inventory: Inventory | None = None,
                  ) -> tuple[list[dict], list[dict]]:
    """Rewrite transcriptions via the remap table and drop records that still
    contain an exclude pattern or fail IPA tokenization. Every rewrite and
    drop lands in the report; nothing is silently skipped."""
    inv = inventory or Inventory.default()
    kept: list[dict] = []
    report: list[dict] = []
    # longest-first so overlapping patterns apply deterministically
    rules = sorted(remap_table.items(), key=lambda kv: (-len(kv[0]), kv[0]))
    for rec in records:
        text = original = rec.get("transcription", "")
        for src, dst in rules:
            if src in text:
                text = text.replace(src, dst)
                report.append({"utt_id": rec["utt_id"], "action": "rewrite",
                               "pattern": src, "replacement": dst})
        bad = next((p for p in exclude_patterns if p in text), None)
        if bad is not None:
            report.append({"utt_id": rec["utt_id"], "action": "drop",
                           "reason": f"exclude pattern {bad!r}"})
            continue
        try:
            tokenize_ipa(text, inv)
        except PhonaugError as e:
            report.append({"utt_id": rec["utt_id"], "action": "drop",
                           "reason": f"not tokenizable: {e}"})
            continue
        kept.append(rec if text == original else {**rec, "transcription": text})
    return kept, report


def vocab_config(path: str | Path) -> tuple[dict[str, int], str]:
    """The {token: id} map and the blank of the vocabulary file at `path`, {"tokens":
    {token: id}, "blank": token}; the blank defaults to "_". No two tokens share an
    id. The `id_map` of a vocabulary that `write_vocab` wrote is not read."""
    def from_obj(obj):
        tokens, blank = obj["tokens"], obj.get("blank", "_")
        if len(set(tokens.values())) < len(tokens):
            raise io.FieldError("field 'tokens' gives two tokens one id")
        _check_blank(tokens, blank)
        return tokens, blank

    return io.read_json(path, from_obj, {"tokens": io.MapOf(io.INTEGER),
                                         "blank": io.Optional(io.STRING),
                                         "id_map": io.Optional(io.MapOf(io.INTEGER))})


def write_vocab(out: TextIO, tokens: dict[str, int], blank: str, id_map: dict[int, int]) -> None:
    """Write the vocabulary file of `tokens` and `blank` to `out`, an output that
    `io.replacing` opened, with `clean_vocab`'s old-id -> new-id map `id_map`."""
    out.write(io.dump_json({"tokens": tokens, "blank": blank,
                            "id_map": {str(k): v for k, v in id_map.items()}}))


def _check_blank(tokens: dict[str, int], blank: str) -> None:
    if blank not in tokens:
        raise PhonaugError("blank must occur exactly once in the vocabulary")


def clean_vocab(tokens: dict[str, int], blank: str, removed: set[str], added: set[str],
                records: list[dict]) -> tuple[dict[str, int], dict[int, int]]:
    """Remove the tokens `removed` from the {token: id} map `tokens` and add the
    tokens `added`, keeping ids dense: the kept tokens in id order, then the new
    ones in sorted order. Returns the cleaned map and an old-id -> new-id map for
    the tokens of `tokens` that it holds. Removing a token that still occurs in a
    record's transcription is an error, not a warning, and so is removing the
    blank."""
    used: set[str] = set()
    for rec in records:
        used.update(unicodedata.normalize("NFD", rec.get("transcription", "")))
    for tok in sorted(removed):
        if tok in used:
            raise RemoveInUse(f"token {tok!r} marked for removal still occurs in the corpus")
    kept = [t for t in sorted(tokens, key=tokens.get) if t not in removed]
    cleaned = {t: i for i, t in enumerate(kept + sorted(set(added).difference(kept)))}
    _check_blank(cleaned, blank)
    return cleaned, {tokens[t]: i for t, i in cleaned.items() if t in tokens}


def build_onset_testset(records: list[dict], per_phoneme_n: int, seed: int) -> list[dict]:
    """Absolute-onset test set: records whose lower-cased sentence starts with
    one of <b d g p t k>, labelled with the target phoneme, sampled
    per_phoneme_n per bucket among analyzable records."""
    _check_count("per-phoneme count", per_phoneme_n)
    buckets: dict[str, list[dict]] = {p: [] for p in io.TARGET_PHONEMES}
    for rec in records:
        sentence = rec.get("sentence", "").lstrip().lower()
        if sentence and sentence[0] in buckets and rec.get("analyzable"):
            buckets[sentence[0]].append(rec)
    rng = random.Random(seed)
    picked: list[dict] = []
    for phoneme in io.TARGET_PHONEMES:  # the order of the draws from rng
        pool = buckets[phoneme]
        if len(pool) < per_phoneme_n:
            raise InsufficientInstances(phoneme, len(pool), per_phoneme_n)
        picked.extend({**rec, "phoneme": phoneme} for rec in rng.sample(pool, per_phoneme_n))
    return _by_id(picked)
