"""CTC collapse against an independent two-pass reference, and track decoding."""

from __future__ import annotations

import itertools
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonaug import (
    FramePath, Inventory, decode_track, greedy_collapse, serialize, tokenize_ipa,
)
from phonaug.errors import OrphanDiacritic, PhonaugError

INV = Inventory.default()


def reference_collapse(labels, blank):
    """Naive two-pass oracle: merge identical runs, then delete blank runs, one
    frame at a time; the reference for greedy_collapse's itertools.groupby form."""
    runs = []
    for i, label in enumerate(labels):
        if runs and runs[-1][0] == label:
            runs[-1][2] = i
        else:
            runs.append([label, i, i])
    return [(t, s, e) for t, s, e in runs if t != blank]


@given(st.lists(st.sampled_from(["_", "<b>", "t", "tʰ", "ʰ", "a", ""]), max_size=60),
       st.sampled_from(["_", "<b>", ""]))
def test_collapse_equals_the_frame_loop(labels, blank):
    path = FramePath("u", 10.0, tuple(labels))
    assert greedy_collapse(path, blank) == reference_collapse(labels, blank)


def test_all_blank_path():
    assert greedy_collapse(FramePath("u", 20.0, ("_", "_", "_")), "_") == []


def test_canonical_collapse():
    path = FramePath("u", 20.0, ("a", "a", "_", "a", "b"))
    assert greedy_collapse(path, "_") == [("a", 0, 1), ("a", 3, 3), ("b", 4, 4)]


def test_exhaustive_against_reference():
    # every path of length <= 8 over {_, a, b}
    for length in range(0, 9):
        for labels in itertools.product("_ab", repeat=length):
            if not labels:
                continue
            path = FramePath("u", 20.0, labels)
            assert greedy_collapse(path, "_") == reference_collapse(labels, "_")


def test_collapse_properties_random():
    rng = random.Random(99)
    for _ in range(500):
        labels = tuple(rng.choice("_ab") for _ in range(rng.randint(1, 30)))
        out = greedy_collapse(FramePath("u", 20.0, labels), "_")
        assert len(out) <= len(labels)
        assert all(t != "_" for t, _, _ in out)
        # spans disjoint and ordered
        for (_, _, e1), (_, s2, _) in zip(out, out[1:]):
            assert s2 > e1


def test_decode_diacritic_span_union():
    path = FramePath("u1", 20.0, ("_", "_", "t", "t", "t", "ʰ", "ʰ", "_", "a", "a"))
    track = decode_track(path, "_", INV)
    assert [(serialize([p.phone]), p.start_frame, p.end_frame) for p in track.phones] == [
        ("tʰ", 2, 6), ("a", 8, 9)]
    assert track.frame_ms == 20.0


def test_decode_empty():
    track = decode_track(FramePath("u1", 20.0, ("_",)), "_", INV)
    assert track.phones == []


def test_decode_leading_diacritic_is_error():
    with pytest.raises(OrphanDiacritic):
        decode_track(FramePath("u1", 20.0, ("_", "ʰ", "a")), "_", INV)


def test_decode_matches_collapse_text():
    rng = random.Random(4)
    alphabet = ["_", "t", "d", "k", "a", "ʰ", "s"]
    for _ in range(300):
        labels = ["_", rng.choice(["t", "d", "k", "a"])]
        labels += [rng.choice(alphabet) for _ in range(rng.randint(0, 20))]
        path = FramePath("u", 10.0, tuple(labels))
        collapsed = "".join(t for t, _, _ in greedy_collapse(path, "_"))
        try:
            track = decode_track(path, "_", INV)
        except PhonaugError:
            # e.g. two aspiration runs landing on one phone; invalid input, not a bug
            continue
        assert serialize([p.phone for p in track.phones]) == collapsed


def frame_oracle(labels, blank):
    """Decoding one frame at a time: a frame whose label differs from the last
    frame's opens one entry per NFD code point of its label, and every frame of
    a non-blank label adds itself to the entries of its run. The phones take
    the non-whitespace entries in order, as many as their NFD text is long.
    Gives (symbol, first frame, last frame) per phone."""
    entries, current = [], []
    for f, label in enumerate(labels):
        if f == 0 or label != labels[f - 1]:
            current = [] if label == blank else \
                [(ch, []) for ch in unicodedata.normalize("NFD", label)]
            entries += current
        for _, frames in current:
            frames.append(f)
    phones = tokenize_ipa("".join(ch for ch, _ in entries), INV)
    frames = [frames for ch, frames in entries if not ch.isspace()]
    out = []
    for phone in phones:
        n = len(unicodedata.normalize("NFD", phone.text))
        own = [f for fs in frames[:n] for f in fs]
        del frames[:n]
        out.append((phone.text, min(own), max(own)))
    assert frames == []
    return out


# phones of bases, diacritics and tie bars, spelled out and cut into vocabulary
# tokens of one or two code points, each held for one to three frames; whitespace
# between phones, and precomposed ç (two NFD code points) as one token
DECODE_PHONE = st.tuples(
    st.sampled_from(["t", "d", "k", "a", "s", "ç"]),
    st.sampled_from(["", "ʰ", "ʱ", "\u032a", "ː", "\u032aʰ"]),
    st.sampled_from(["", "\u0361s", "\u035cʃ"]),
).map("".join)
SPACE = st.sampled_from(["", "", " ", "\u00a0", "  ", "\t"])


@st.composite
def label_paths(draw):
    text = "".join(draw(SPACE) + p for p in draw(st.lists(DECODE_PHONE, max_size=6)))
    text += draw(SPACE)
    labels, i = [], 0
    while i < len(text):
        token = text[i:i + draw(st.integers(1, 2))]
        if labels and labels[-1] == token:  # keep both: a blank splits the run
            labels.append("_")
        labels += [token] * draw(st.integers(1, 3)) + ["_"] * draw(st.integers(0, 1))
        i += len(token)
    return tuple(labels)


@settings(max_examples=400, deadline=None)
@given(label_paths())
def test_decode_spans_equal_the_frame_oracle(labels):
    track = decode_track(FramePath("u", 10.0, labels), "_", INV)
    assert [(p.phone.text, p.start_frame, p.end_frame) for p in track.phones] == \
        frame_oracle(labels, "_")


def test_decode_whitespace_runs_belong_to_no_phone():
    track = decode_track(FramePath("u1", 10.0, ("t", "t", " ", " ", " ", "a")), "_", INV)
    assert [(p.phone.text, p.start_frame, p.end_frame) for p in track.phones] == [
        ("t", 0, 1), ("a", 5, 5)]


def test_decode_deterministic():
    path = FramePath("u1", 20.0, ("t", "ʰ", "_", "a", "k", "ʰ"))
    t1 = decode_track(path, "_", INV)
    t2 = decode_track(path, "_", INV)
    assert t1 == t2
