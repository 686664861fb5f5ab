"""Synthetic fixture generator: determinism and ground-truth recovery."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonaug import (
    Inventory, MappingTable, PhoneTrack, ScenarioSpec, augment_track, generate, match_phones,
    serialize, tokenize_ipa,
)
from phonaug.errors import PhonaugError
from phonaug.synth import _below, utterances

INV = Inventory.default()
TABLE = MappingTable.default(INV)


def recovered_pairs(rm_tracks, hm_tracks):
    got = set()
    for rm, hm in zip(rm_tracks, hm_tracks):
        for p in match_phones(rm, hm, TABLE):
            got.add((rm.utt_id, p.rm_index, p.hm_index))
    return got


def test_generate_deterministic():
    spec = ScenarioSpec(seed=5, n_utterances=50, jitter=1, drop_rate=0.2)
    a = generate(spec, INV)
    b = generate(spec, INV)
    assert a == b


def test_tracks_are_valid_and_tokenizable():
    spec = ScenarioSpec(seed=1, n_utterances=100, jitter=2, drop_rate=0.1)
    rm_tracks, hm_tracks, _ = generate(spec, INV)
    for track in rm_tracks + hm_tracks:
        text = serialize([p.phone for p in track.phones])
        assert serialize(tokenize_ipa(text, INV)) == text
        starts = [p.start_frame for p in track.phones]
        assert starts == sorted(starts)


def test_exact_alignment_full_recovery():
    spec = ScenarioSpec(seed=3, n_utterances=200, jitter=0, drop_rate=0.0)
    rm_tracks, hm_tracks, truth = generate(spec, INV)
    expected = {(t.utt_id, t.rm_index, t.hm_index) for t in truth}
    assert recovered_pairs(rm_tracks, hm_tracks) == expected


def test_full_drop_yields_zero_matches():
    spec = ScenarioSpec(seed=3, n_utterances=100, drop_rate=1.0)
    rm_tracks, hm_tracks, truth = generate(spec, INV)
    assert truth == []
    assert recovered_pairs(rm_tracks, hm_tracks) == set()


def test_jittered_precision_recall_floor():
    spec = ScenarioSpec(seed=8, n_utterances=1000, jitter=1, drop_rate=0.1)
    rm_tracks, hm_tracks, truth = generate(spec, INV)
    expected = {(t.utt_id, t.rm_index, t.hm_index) for t in truth}
    got = recovered_pairs(rm_tracks, hm_tracks)
    tp = len(got & expected)
    precision = tp / len(got)
    recall = tp / len(expected)
    # frozen floors for this seed; jittered slots plus dropped counterparts
    # can produce occasional off-by-one matches
    assert recall >= 0.99
    assert precision >= 0.95


# each draw: ("choice", n) for choice of n items, ("randint", j) for randint(-j, j)
DRAWS = st.lists(st.one_of(st.tuples(st.just("choice"), st.integers(1, 12)),
                           st.tuples(st.just("randint"), st.integers(0, 3))), max_size=12)


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(st.integers(-2 ** 70, 2 ** 70), st.text(max_size=8)), draws=DRAWS)
def test_below_draws_what_choice_and_randint_draw(seed, draws):
    ours, theirs = random.Random(seed), random.Random(seed)
    for kind, n in draws:
        if kind == "choice":
            assert _below(ours.getrandbits, n) == theirs.choice(range(n))
        else:
            assert _below(ours.getrandbits, 2 * n + 1) - n == theirs.randint(-n, n)
    assert ours.getstate() == theirs.getstate()  # the same bits were drawn


SPECS = st.builds(
    ScenarioSpec, seed=st.integers(0, 10 ** 6), n_utterances=st.integers(0, 12),
    plosive_rate=st.sampled_from([0.0, 0.5, 1.0]), hm_aspiration_rate=st.just(0.3),
    hm_voicing_rate=st.just(0.2), hm_breathy_rate=st.sampled_from([0.0, 0.5]),
    jitter=st.integers(0, 4), drop_rate=st.sampled_from([0.0, 0.3, 1.0]))


@settings(max_examples=150, deadline=None)
@given(spec=SPECS, breathy=st.booleans())
def test_synth_and_augment_tracks_equal_their_checked_rebuild(spec, breathy):
    # both build their tracks without PhoneTrack's checks, which must hold anyway
    for rm, hm, _ in utterances(spec, INV):
        tm = augment_track(rm, hm, match_phones(rm, hm, TABLE), INV, breathy=breathy)
        for track in (rm, hm, tm):
            assert type(track) is PhoneTrack and track == PhoneTrack(*track)


def test_a_non_integer_jitter_is_refused_when_the_spec_is_built():
    # only a ScenarioSpec built in code can hold one: a spec file's jitter is an integer
    with pytest.raises(PhonaugError, match=r"^jitter must be an integer, got 1\.5$"):
        ScenarioSpec(seed=1, n_utterances=2, jitter=1.5)
    with pytest.raises(PhonaugError, match=r"^jitter must be an integer, got '1'$"):
        ScenarioSpec(seed=1, n_utterances=2, jitter="1")
    # a bool is an int, as before, and draws as 1 does
    assert generate(ScenarioSpec(seed=1, n_utterances=5, jitter=True), INV) == generate(
        ScenarioSpec(seed=1, n_utterances=5, jitter=1), INV)
