"""Matching window, phonation overwrite and corpus-level augmentation."""

from __future__ import annotations

import itertools
import json
import random
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonaug import (
    Inventory, MappingTable, PhoneTrack, TimedPhone, augment_corpus,
    augment_track, match_phones, prefilter_by_aspiration, serialize, tokenize_ipa,
)
from phonaug.augment import MatchPair, default_proximity
from phonaug.ctc import track_to_obj
from phonaug.errors import PhonaugError, UtteranceMismatch
from phonaug.io import replacing, write_jsonl
from phonaug.inventory import ASPIRATED, phonation_of

INV = Inventory.default()
TABLE = MappingTable.default(INV)


def track(symbols, utt_id="u1", tag="RM", spans=None):
    phones = []
    for i, sym in enumerate(symbols):
        start, end = spans[i] if spans else (i * 4, i * 4 + 3)
        phones.append(TimedPhone(tokenize_ipa(sym, INV)[0], start, end))
    return PhoneTrack(utt_id, tag, phones, 20.0)


def admits(table, rm_base, hm_base):
    """Whether an entry of `table` pairs the two bases, read off its entries."""
    return any(rm_base in rm and hm_base in hm for rm, hm in table.entries)


def test_match_alveolar_to_retroflex():
    rm = track(["t"], spans=[(4, 6)])
    hm = track(["ʈʰ"], tag="HM", spans=[(4, 7)])
    pairs = match_phones(rm, hm, TABLE)
    assert [(p.rm_index, p.hm_index) for p in pairs] == [(0, 0)]


def test_no_cross_poa_match():
    rm = track(["k"], spans=[(0, 2)])
    hm = track(["p"], tag="HM", spans=[(0, 2)])
    assert match_phones(rm, hm, TABLE) == []


def test_mapping_table_rejects_rm_base_without_voicing_pair():
    # ʔ is an inventory plosive with no voicing pair; as an HM base it is fine
    with pytest.raises(PhonaugError, match="RM base 'ʔ' has no voicing pair"):
        MappingTable.from_obj({"entries": [{"rm": ["t", "ʔ"], "hm": ["t"]}]}, INV)
    table = MappingTable.from_obj({"entries": [{"rm": ["t"], "hm": ["t", "ʔ"]}]}, INV)
    assert admits(table, "t", "ʔ")


@pytest.mark.parametrize("entry_point", ["augment_corpus", "prefilter_by_aspiration"])
def test_entry_points_check_table_against_their_inventory(tmp_path, entry_point):
    # the table was checked against INV at load; the inventory passed here
    # lacks the pair of its RM base c
    data = json.loads(resources.files("phonaug.data").joinpath("inventory.json")
                      .read_text("utf-8"))
    data["voicing_pairs"].remove(["c", "ɟ"])
    inv = Inventory(data)
    rm_file, hm_file = corpus_files(tmp_path, [track(["c"])], [track(["cʰ"], tag="HM")])
    out = tmp_path / "tm.jsonl"
    with pytest.raises(PhonaugError) as failure:
        if entry_point == "augment_corpus":
            with replacing(out) as (f,):
                augment_corpus(rm_file, hm_file, TABLE, f, inv)
        else:
            prefilter_by_aspiration(rm_file, hm_file, TABLE, inv)
    assert str(failure.value) == "mapping table RM base 'c' has no voicing pair in the inventory"
    assert not out.exists()


def test_default_proximity_is_overlap_or_close_starts():
    t = INV.phone("t")
    spans = [(s, e) for s in range(8) for e in range(s, 8)]
    for (rs, re_), (hs, he) in itertools.product(spans, repeat=2):
        overlap = rs <= he and hs <= re_
        close = abs(rs - hs) <= max(re_ - rs + 1, he - hs + 1)
        assert default_proximity(TimedPhone(t, rs, re_), TimedPhone(t, hs, he)) == \
            (overlap or close)


def test_utterance_mismatch():
    with pytest.raises(UtteranceMismatch):
        match_phones(track(["t"]), track(["t"], utt_id="other", tag="HM"), TABLE)


def test_window_excludes_backward_offset():
    # HM counterpart one index before the RM phone is outside [i, i+1]
    rm = track(["a", "t"])
    hm = track(["t", "a"], tag="HM")
    assert match_phones(rm, hm, TABLE) == []


def test_offset_zero_preferred():
    rm = track(["t", "a"])
    hm = track(["t", "t"], tag="HM")
    pairs = match_phones(rm, hm, TABLE)
    assert [(p.rm_index, p.hm_index) for p in pairs] == [(0, 0)]


def test_one_to_one_usage():
    # two RM /t/ competing for a single HM /t/ at overlapping spans
    rm = track(["t", "t"], spans=[(0, 3), (1, 4)])
    hm = track(["t", "a"], tag="HM", spans=[(0, 3), (1, 4)])
    pairs = match_phones(rm, hm, TABLE)
    assert len(pairs) == 1
    assert (pairs[0].rm_index, pairs[0].hm_index) == (0, 0)


def candidate_sets(rm, hm, table):
    """Candidate predicate recomputed independently of match_phones."""
    out = {}
    for i, rtp in enumerate(rm.phones):
        if not table.rm_covered(rtp.phone.base):
            continue
        cands = []
        for d in sorted(table.window_offsets):
            j = i + d
            if 0 <= j < len(hm.phones) and admits(table, rtp.phone.base, hm.phones[j].phone.base) \
                    and default_proximity(rtp, hm.phones[j]):
                cands.append((d != 0, abs(rtp.start_frame - hm.phones[j].start_frame), j))
        if cands:
            out[i] = cands
    return out


def test_greedy_equals_oracle_on_nonconflicting_instances():
    rng = random.Random(2024)
    symbols = ["p", "t", "k", "b", "d", "ɡ", "a"]
    checked = 0
    for _ in range(3000):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rm = track([rng.choice(symbols) for _ in range(n)])
        hm = track([rng.choice(symbols) for _ in range(m)], tag="HM")
        cands = candidate_sets(rm, hm, TABLE)
        all_js = [j for c in cands.values() for _, _, j in c]
        if len(all_js) != len(set(all_js)):
            continue  # conflicting candidates: greedy vs optimal may differ
        expected = {(i, min(c)[2]) for i, c in cands.items()}
        got = {(p.rm_index, p.hm_index) for p in match_phones(rm, hm, TABLE)}
        assert got == expected
        checked += 1
    assert checked > 500


def test_window_law_on_fuzz_inputs():
    rng = random.Random(5)
    symbols = ["p", "t", "k", "b", "d", "ɡ", "a", "e"]
    for _ in range(1000):
        rm = track([rng.choice(symbols) for _ in range(rng.randint(1, 8))])
        hm = track([rng.choice(symbols) for _ in range(rng.randint(1, 8))], tag="HM")
        for p in match_phones(rm, hm, TABLE):
            assert p.hm_index - p.rm_index in TABLE.window_offsets


def test_augment_overwrites_phonation_keeps_poa():
    rm = track(["k"])
    hm = track(["kʰ"], tag="HM")
    out = augment_track(rm, hm, match_phones(rm, hm, TABLE), INV)
    assert serialize([out.phones[0].phone]) == "kʰ"

    rm = track(["t"])
    hm = track(["ɖ"], tag="HM")
    out = augment_track(rm, hm, match_phones(rm, hm, TABLE), INV)
    assert serialize([out.phones[0].phone]) == "d"  # place stays alveolar


def test_augment_identity_on_unmatched():
    rm = track(["p", "a"])
    hm = track(["a", "a"], tag="HM")
    out = augment_track(rm, hm, match_phones(rm, hm, TABLE), INV)
    assert [serialize([p.phone]) for p in out.phones] == ["p", "a"]
    assert [(p.start_frame, p.end_frame) for p in out.phones] == \
        [(p.start_frame, p.end_frame) for p in rm.phones]


def test_augment_idempotent():
    rm = track(["t", "a", "k"])
    hm = track(["d", "a", "kʰ"], tag="HM")
    matches = match_phones(rm, hm, TABLE)
    once = augment_track(rm, hm, matches, INV)
    twice = augment_track(once, hm, matches, INV)
    assert once == twice


def test_breathy_flag():
    rm = track(["k"])
    hm = track(["ɡʱ"], tag="HM")
    matches = match_phones(rm, hm, TABLE)
    with_breathy = augment_track(rm, hm, matches, INV, breathy=True)
    without = augment_track(rm, hm, matches, INV, breathy=False)
    assert serialize([with_breathy.phones[0].phone]) == "ɡʱ"
    assert serialize([without.phones[0].phone]) == "ɡ"


def test_a_pair_whose_rm_phone_is_not_the_tracks_own_is_checked():
    # the TM track is built unchecked only from the RM track's own phones
    rm = track(["t", "a"])
    hm = track(["tʰ", "a"], tag="HM")
    (pair,) = match_phones(rm, hm, TABLE)
    moved = pair._replace(rm_phone=pair.rm_phone._replace(start_frame=5, end_frame=9))
    with pytest.raises(PhonaugError, match=r"^u1: phones\[1\]: start frame 4 comes before 5$"):
        augment_track(rm, hm, [moved], INV)
    copy = pair._replace(rm_phone=TimedPhone(*pair.rm_phone))  # equal, not the same
    assert augment_track(rm, hm, [copy], INV) == augment_track(rm, hm, [pair], INV)


def corpus_files(tmp_path, rm_tracks, hm_tracks):
    rm_file = tmp_path / "rm.jsonl"
    hm_file = tmp_path / "hm.jsonl"
    write_jsonl(rm_file, map(track_to_obj, rm_tracks))
    write_jsonl(hm_file, map(track_to_obj, hm_tracks))
    return rm_file, hm_file


def test_augment_corpus_counts(tmp_path):
    # HM aspirates every /t k/ but /p/ only once
    rm_tracks, hm_tracks = [], []
    for i in range(20):
        uid = f"u{i:03d}"
        rm_tracks.append(track(["t", "k", "p"], utt_id=uid))
        p_out = "pʰ" if i == 0 else "p"
        hm_tracks.append(track(["tʰ", "kʰ", p_out], utt_id=uid, tag="HM"))
    rm_file, hm_file = corpus_files(tmp_path, rm_tracks, hm_tracks)
    with replacing(tmp_path / "tm.jsonl") as (f,):
        stats = augment_corpus(rm_file, hm_file, TABLE, f, INV)
    assert stats.counts["pʰ"] == 1
    assert stats.counts["tʰ"] == 20
    assert stats.counts["kʰ"] == 20
    assert stats.counts["pʰ"] < stats.counts["tʰ"]
    assert sum(stats.counts.values()) == stats.matched
    assert stats.utterances == 20


def test_augment_corpus_empty(tmp_path):
    rm_file, hm_file = corpus_files(tmp_path, [], [])
    with replacing(tmp_path / "tm.jsonl") as (f,):
        stats = augment_corpus(rm_file, hm_file, TABLE, f, INV)
    assert stats.matched == 0 and stats.utterances == 0
    assert (tmp_path / "tm.jsonl").read_text() == ""


def test_augment_corpus_one_matchable_per_utt(tmp_path):
    n = 50
    rm_tracks = [track(["a", "t", "e"], utt_id=f"u{i:03d}") for i in range(n)]
    hm_tracks = [track(["a", "d", "e"], utt_id=f"u{i:03d}", tag="HM") for i in range(n)]
    rm_file, hm_file = corpus_files(tmp_path, rm_tracks, hm_tracks)
    with replacing(tmp_path / "tm.jsonl") as (f,):
        stats = augment_corpus(rm_file, hm_file, TABLE, f, INV)
    assert stats.matched == n


def test_augment_corpus_missing_counterpart(tmp_path):
    rm_tracks = [track(["t"], utt_id="u1"), track(["t"], utt_id="u2")]
    hm_tracks = [track(["tʰ"], utt_id="u1", tag="HM")]
    rm_file, hm_file = corpus_files(tmp_path, rm_tracks, hm_tracks)
    with replacing(tmp_path / "tm.jsonl") as (f,):
        stats = augment_corpus(rm_file, hm_file, TABLE, f, INV, skip_missing=True)
    assert stats.missing_counterparts == ["u2"]
    assert stats.utterances == 1


def test_prefilter_by_aspiration(tmp_path):
    rm_tracks = [track(["t"], utt_id="u1"), track(["t"], utt_id="u2")]
    hm_tracks = [track(["tʰ"], utt_id="u1", tag="HM"),
                 track(["d"], utt_id="u2", tag="HM")]
    rm_file, hm_file = corpus_files(tmp_path, rm_tracks, hm_tracks)
    assert prefilter_by_aspiration(rm_file, hm_file, TABLE, INV) == ["u1"]


def test_prefilter_count_cross_check(tmp_path):
    rng = random.Random(11)
    rm_tracks, hm_tracks = [], []
    expect = []
    for i in range(60):
        uid = f"u{i:03d}"
        hm_sym = rng.choice(["tʰ", "d", "t", "dʱ"])
        rm_tracks.append(track(["a", "t"], utt_id=uid))
        hm_tracks.append(track(["a", hm_sym], utt_id=uid, tag="HM"))
        if hm_sym == "tʰ":
            expect.append(uid)
    rm_file, hm_file = corpus_files(tmp_path, rm_tracks, hm_tracks)
    assert prefilter_by_aspiration(rm_file, hm_file, TABLE, INV) == expect


# plosives with random diacritics: voiceless rings, dental, length and at most
# one of ʰ/ʱ, so the RM phones start from every phonation the HM can carry
PLOSIVE = st.tuples(
    st.sampled_from(sorted(b for b, (_, manner, _) in INV.base_features.items()
                           if manner == "plosive")),
    st.lists(st.sampled_from(["\u0325", "\u030a", "\u032a", "ː"]), max_size=2, unique=True),
    st.sampled_from(["", "ʰ", "ʱ"]),
).map(lambda t: t[0] + "".join(t[1]) + t[2])
SYMBOL = st.one_of(PLOSIVE, st.sampled_from(["a", "s", "m"]))


@st.composite
def utterance_tracks(draw, utt_id):
    def one(tag):
        symbols = draw(st.lists(SYMBOL, max_size=6))
        spans = [(3 * i + draw(st.integers(0, 2)), draw(st.integers(0, 3))) for i in
                 range(len(symbols))]
        return PhoneTrack(utt_id, tag, [TimedPhone(INV.phone(sym), s, s + n)
                                        for sym, (s, n) in zip(symbols, spans)], 10.0)
    return one("RM"), one("HM")


@st.composite
def corpora(draw):
    return [draw(utterance_tracks(f"u{n}")) for n in range(draw(st.integers(0, 6)))]


@settings(max_examples=200, deadline=None)
@given(corpora())
def test_prefilter_equals_the_selection_read_off_augment_track(pairs):
    def aspirated_output(rm, hm):  # the oracle: build the TM track, read its phones
        matches = match_phones(rm, hm, TABLE)
        out = augment_track(rm, hm, matches, INV)
        return any(phonation_of(out.phones[p.rm_index].phone) == ASPIRATED for p in matches)

    expected = [rm.utt_id for rm, hm in pairs if aspirated_output(rm, hm)]
    with tempfile.TemporaryDirectory() as d:
        rm_file, hm_file = Path(d) / "rm.jsonl", Path(d) / "hm.jsonl"
        write_jsonl(rm_file, map(track_to_obj, [rm for rm, _ in pairs]))
        write_jsonl(hm_file, map(track_to_obj, [hm for _, hm in pairs]))
        assert prefilter_by_aspiration(rm_file, hm_file, TABLE, INV) == expected


def oracle_match_phones(rm, hm, table):
    """match_phones as it was: each RM phone's candidates in a list, then min() of it."""
    pairs, used_hm = [], set()
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
            if not admits(table, rm_base, hm_tp.phone.base):
                continue
            if not default_proximity(rm_tp, hm_tp):
                continue
            candidates.append((d != 0, abs(rm_tp.start_frame - hm_tp.start_frame), j, hm_tp))
        if candidates:
            _, _, j, hm_tp = min(candidates)
            used_hm.add(j)
            pairs.append(MatchPair(i, j, rm_tp, hm_tp))
    return pairs


MATCH_BASES = ["p", "b", "t", "d", "k", "ɡ"]
MATCH_SYMBOLS = MATCH_BASES + ["pʰ", "dʱ", "kʰ", "a"]


@st.composite
def matcher_cases(draw):
    """RM and HM tracks whose starts crowd 0-9, so equal |start differences| tie,
    a window of offsets drawn from -2..2, and a mapping table of 1-3 entries."""
    def one(tag):
        n = draw(st.integers(0, 7))
        starts = sorted(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
        return PhoneTrack("u1", tag, [TimedPhone(INV.phone(draw(st.sampled_from(MATCH_SYMBOLS))),
                                                 s, s + draw(st.integers(0, 3))) for s in starts],
                          10.0)

    bases = st.frozensets(st.sampled_from(MATCH_BASES), min_size=1)
    entries = tuple((draw(bases), draw(bases)) for _ in range(draw(st.integers(1, 3))))
    table = MappingTable(entries, draw(st.frozensets(st.integers(-2, 2), min_size=1)))
    return one("RM"), one("HM"), table


@settings(max_examples=500, deadline=None)
@given(matcher_cases())
# RM phone 1 at start 4 between HM phones at 2 and 6: offsets -1 and +1 tie on
# |start difference|, and the lower HM index wins
@example((track(["a", "t"], spans=[(0, 0), (4, 5)]),
          track(["t", "a", "t"], tag="HM", spans=[(2, 3), (5, 5), (6, 7)]),
          MappingTable(((frozenset({"t"}), frozenset({"t"})),), frozenset({-1, 1}))))
def test_match_phones_equals_the_candidate_list_oracle(case):
    rm, hm, table = case
    got = match_phones(rm, hm, table)
    assert got == oracle_match_phones(rm, hm, table)
    assert all(type(pair) is MatchPair for pair in got)
