"""Manifest filtering, sampling, splitting, remapping and vocabulary cleanup."""

from __future__ import annotations

import random

import pytest

from phonaug import (
    Inventory, build_onset_testset, clean_vocab, filter_downvoted, remap_invalid,
    sample_segments, split_validation, tokenize_ipa,
)
from phonaug.errors import InsufficientInstances, InsufficientSegments, PhonaugError, RemoveInUse

INV = Inventory.default()


def rec(i, **kwargs):
    return {"utt_id": f"u{i:05d}", **kwargs}


def test_filter_downvoted():
    records = [rec(0, downvotes=2), rec(1, downvotes=0), rec(2, downvotes=1)]
    assert [r["utt_id"] for r in filter_downvoted(records)] == ["u00001"]
    assert len(filter_downvoted(records, threshold=1)) == 2


def test_filter_downvoted_recount():
    rng = random.Random(0)
    records = [rec(i, downvotes=rng.randint(0, 3)) for i in range(500)]
    out = filter_downvoted(records)
    assert len(out) == len(records) - sum(1 for r in records if r["downvotes"] > 0)


def test_sample_whole_manifest():
    records = [rec(i) for i in range(10)]
    assert sample_segments(records, 10, seed=1) == sorted(records, key=lambda r: r["utt_id"])


def test_sample_deterministic():
    records = [rec(i) for i in range(100)]
    assert sample_segments(records, 30, seed=42) == sample_segments(records, 30, seed=42)


def test_sample_insufficient():
    with pytest.raises(InsufficientSegments):
        sample_segments([rec(0)], 2, seed=0)


def test_per_language_sampling():
    # 7 languages x 1500 records each, sampled down to 1000 per language
    for lang in ["fi", "hu", "ja", "mt", "el", "pl", "ta"]:
        records = [rec(i, language=lang) for i in range(1500)]
        out = sample_segments(records, 1000, seed=3)
        assert len(out) == 1000
        assert all(r["language"] == lang for r in out)


@pytest.mark.parametrize("n, fraction, expected_valid", [
    (7000, 0.05, 350),
    (7000, 0.20, 1400),
])
def test_split_sizes(n, fraction, expected_valid):
    records = [rec(i) for i in range(n)]
    train, valid = split_validation(records, fraction, seed=0)
    assert len(valid) == expected_valid
    assert len(train) == n - expected_valid


def test_split_set_algebra_fuzz():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(2, 300)
        records = [rec(i) for i in range(n)]
        fraction = rng.uniform(0.01, 0.99)
        train, valid = split_validation(records, fraction, seed=rng.randint(0, 99))
        train_ids = {r["utt_id"] for r in train}
        valid_ids = {r["utt_id"] for r in valid}
        assert train_ids | valid_ids == {r["utt_id"] for r in records}
        assert train_ids & valid_ids == set()


def test_remap_invalid():
    records = [
        rec(0, transcription="takeː"),          # valid, untouched
        rec(1, transcription="taQe"),            # remapped to valid IPA
        rec(2, transcription="taXe"),            # exclude pattern survives -> drop
        rec(3, transcription="ta$e"),            # still untokenizable -> drop
    ]
    kept, report = remap_invalid(records, {"Q": "k"}, ["X"], INV)
    assert [r["utt_id"] for r in kept] == ["u00000", "u00001"]
    assert kept[1]["transcription"] == "take"
    actions = {(e["utt_id"], e["action"]) for e in report}
    assert ("u00001", "rewrite") in actions
    assert ("u00002", "drop") in actions
    assert ("u00003", "drop") in actions
    # every surviving transcription round-trips through the tokenizer
    for r in kept:
        tokenize_ipa(r["transcription"], INV)


def test_clean_vocab_removes_unused():
    records = [rec(0, transcription="ta"), rec(1, transcription="at")]
    cleaned, id_map = clean_vocab({"_": 0, "g": 1, "t": 2, "a": 3}, "_", {"g"}, set(), records)
    assert cleaned == {"_": 0, "t": 1, "a": 2}
    assert id_map == {0: 0, 2: 1, 3: 2}


def test_clean_vocab_keys_its_id_map_by_the_given_ids():
    records = [rec(0, transcription="ta")]
    cleaned, id_map = clean_vocab({"a": 7, "_": 3, "g": 5, "t": 9}, "_", {"g"}, set(), records)
    assert cleaned == {"_": 0, "a": 1, "t": 2}
    assert id_map == {3: 0, 7: 1, 9: 2}


def test_clean_vocab_add_breathy():
    cleaned, id_map = clean_vocab({"_": 0, "t": 1, "a": 2}, "_", set(), {"ʱ"},
                                  [rec(0, transcription="ta")])
    assert cleaned == {"_": 0, "t": 1, "a": 2, "ʱ": 3}
    assert id_map == {0: 0, 1: 1, 2: 2}


def test_clean_vocab_remove_in_use():
    with pytest.raises(RemoveInUse):
        clean_vocab({"_": 0, "t": 1, "a": 2}, "_", {"t"}, set(), [rec(0, transcription="ta")])


def test_clean_vocab_refuses_to_remove_the_blank():
    with pytest.raises(PhonaugError) as err:
        clean_vocab({"_": 0, "t": 1, "a": 2}, "_", {"_"}, set(), [rec(0, transcription="ta")])
    assert str(err.value) == "blank must occur exactly once in the vocabulary"


def test_clean_vocab_idempotent():
    records = [rec(0, transcription="ta")]
    once, _ = clean_vocab({"_": 0, "g": 1, "t": 2, "a": 3}, "_", {"g"}, {"ʱ"}, records)
    twice, _ = clean_vocab(once, "_", {"g"}, {"ʱ"}, records)
    assert once == twice


def onset_manifest(n_per=60):
    records = []
    i = 0
    for letter in "bdgptk":
        for _ in range(n_per):
            records.append(rec(i, sentence=f"{letter.upper()}anz toll", analyzable=True))
            i += 1
    records.append(rec(i, sentence="Es gibt viel zu tun", analyzable=True))
    return records


def test_onset_testset_buckets():
    out = build_onset_testset(onset_manifest(), per_phoneme_n=40, seed=9)
    assert len(out) == 240
    by_phoneme = {}
    for r in out:
        by_phoneme.setdefault(r["phoneme"], []).append(r["utt_id"])
    assert {p: len(v) for p, v in by_phoneme.items()} == {p: 40 for p in "bdgptk"}
    # pairwise disjoint
    all_ids = [u for v in by_phoneme.values() for u in v]
    assert len(all_ids) == len(set(all_ids))


def test_onset_testset_excludes_non_plosive_initial():
    out = build_onset_testset(onset_manifest(), per_phoneme_n=1, seed=0)
    assert all(not r["sentence"].lower().startswith("e") for r in out)


def test_onset_testset_requires_analyzable():
    records = [{**r, "analyzable": False} if r["sentence"].lower().startswith("b") else r
               for r in onset_manifest(n_per=40)]
    with pytest.raises(InsufficientInstances) as exc:
        build_onset_testset(records, per_phoneme_n=40, seed=0)
    assert exc.value.phoneme == "b"
    assert exc.value.have == 0


def test_onset_testset_deterministic():
    a = build_onset_testset(onset_manifest(), per_phoneme_n=40, seed=77)
    b = build_onset_testset(onset_manifest(), per_phoneme_n=40, seed=77)
    assert a == b
