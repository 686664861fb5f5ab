"""A rejected input value of any size fails a command with one short `Error:` line
that still names the file, the utterance and the field; and `evaluate` refuses a
vot_ms whose magnitude no VOT reaches, so no boxplot quartile comes out NaN."""

from __future__ import annotations

import json

import pytest
from clirun import invoke

from phonaug import EvalInstance, Inventory, MappingTable, match_phones
from phonaug.ctc import PhoneTrack, TimedPhone
from phonaug.errors import NotSinglePhone, PhonaugError, UtteranceMismatch
from phonaug.io import SHOWN_CHARS, shown

BIG = ["k"] * 20_000  # its repr alone is 100,000 characters
LONG = "k" * 20_000


def write_jsonl(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")


def assert_one_short_line(result, *named):
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("Error: ") and result.stderr.count("\n") == 1
    assert len(result.stderr) < 300
    for text in named:
        assert text in result.stderr


def test_shown_cuts_a_long_repr_to_a_fixed_length():
    assert shown("kʰa") == "'kʰa'"
    assert shown(1e308) == "1e+308"
    assert shown(BIG) == repr(BIG)[:SHOWN_CHARS] + "..."
    assert shown("k" * (SHOWN_CHARS - 2)) == repr("k" * (SHOWN_CHARS - 2))
    assert len(shown(LONG)) == SHOWN_CHARS + 3


def test_evaluate_shows_a_huge_onset_short(tmp_path):
    path = tmp_path / "instances.jsonl"
    write_jsonl(path, [{"utt_id": "u1", "phoneme": "k", "vot_ms": 40, "onset": BIG}])
    result = invoke(["evaluate", str(path), "--out-prefix", str(tmp_path / "rep")])
    assert_one_short_line(result, f"{path}: utterance 'u1': field 'onset' has the wrong type: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["instances.jsonl"]


def test_decode_shows_a_huge_label_short(tmp_path):
    path = tmp_path / "paths.jsonl"
    write_jsonl(path, [{"utt_id": "u1", "frame_ms": 10, "labels": ["t", BIG, "a"]}])
    result = invoke(["decode", str(path), str(tmp_path / "tracks.jsonl")])
    assert_one_short_line(result,
                          f"{path}: utterance 'u1': field 'labels[1]' has the wrong type: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["paths.jsonl"]


@pytest.mark.parametrize("field", ["phoneme", "model"])
def test_evaluate_shows_a_huge_string_value_short(tmp_path, field):
    path = tmp_path / "instances.jsonl"
    write_jsonl(path, [{"utt_id": "u1", "phoneme": "k", "vot_ms": 40, "onset": "ka",
                        field: LONG}])
    result = invoke(["evaluate", str(path), "--out-prefix", str(tmp_path / "rep")])
    assert_one_short_line(result, f"{path}: u1: ", shown(LONG))


def test_augment_shows_a_huge_symbol_short(tmp_path):
    path = tmp_path / "tracks.jsonl"
    write_jsonl(path, [{"utt_id": "u1", "model": "OTHER", "frame_ms": 10,
                        "phones": [{"symbol": LONG, "start": 0, "end": 1}]}])
    result = invoke(["augment", str(path), str(path), str(tmp_path / "tm.jsonl")])
    assert_one_short_line(result, f"{path}: u1: {shown(LONG)} is not a single phone")


def test_records_show_a_huge_value_short():
    with pytest.raises(PhonaugError) as err:
        EvalInstance("u1", LONG, 5.0, "k")
    assert len(str(err.value)) < 200
    with pytest.raises(PhonaugError) as err:
        EvalInstance("u1", "k", 5.0, "k", LONG)
    assert str(err.value) == f"u1: unknown model tag {shown(LONG)}"
    with pytest.raises(PhonaugError) as err:
        PhoneTrack("u1", LONG, [], 10.0)
    assert str(err.value) == f"u1: unknown model tag {shown(LONG)}"
    with pytest.raises(NotSinglePhone) as err:
        Inventory.default().phone(LONG)
    assert err.value.symbol == LONG
    assert str(err.value) == f"{shown(LONG)} is not a single phone"


# two VOTs near the largest float: the spread of the quartiles overflowed, and
# the boxplot CSV read q1 = nan
HUGE_VOTS = [-1e308, -1e308, 1e308, 1e308, 1e308]


def test_evaluate_refuses_a_vot_no_plosive_has(tmp_path):
    path = tmp_path / "instances.jsonl"
    write_jsonl(path, [{"utt_id": f"u{n}", "phoneme": "b", "vot_ms": vot, "onset": "ba",
                        "model": "BM"} for n, vot in enumerate(HUGE_VOTS, start=1)])
    result = invoke(["evaluate", str(path), "--out-prefix", str(tmp_path / "rep")])
    assert result.exit_code == 1
    assert result.stderr == (f"Error: {path}: u1: vot_ms must be finite and under 1000000 ms "
                             "in magnitude, got -1e+308\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["instances.jsonl"]


@pytest.mark.parametrize("vot, ok", [(999_999.9, True), (-999_999.9, True),
                                     (1_000_000, False), (-1e6, False), (1e308, False)])
def test_evaluate_takes_a_vot_exactly_under_a_million_ms(tmp_path, vot, ok):
    path = tmp_path / "instances.jsonl"
    write_jsonl(path, [{"utt_id": "u1", "phoneme": "b", "vot_ms": vot, "onset": "ba"}])
    result = invoke(["evaluate", str(path), "--out-prefix", str(tmp_path / "rep")])
    assert result.exit_code == (0 if ok else 1), result.output
    if ok:
        assert "nan" not in (tmp_path / "rep_boxplot.csv").read_text("utf-8")


# -- utt_ids ------------------------------------------------------------------
# Every message that names an utterance shows its utt_id cut to SHOWN_CHARS
# characters and "...", quoted where the message quotes it; an utt_id of
# SHOWN_CHARS characters or fewer is shown whole, as it always was.

NAME = "uttX"  # the utt_id each site's message is spelled with, then swapped


def track_obj(utt_id, model="OTHER", frame_ms=10, symbol="t", start=0, end=1):
    return {"utt_id": utt_id, "model": model, "frame_ms": frame_ms,
            "phones": [{"symbol": symbol, "start": start, "end": end}]}


def augment_run(rm, hm, *flags):
    def run(d, utt_id):
        write_jsonl(d / "rm.jsonl", rm(utt_id))
        write_jsonl(d / "hm.jsonl", hm(utt_id))
        return invoke(["augment", str(d / "rm.jsonl"), str(d / "hm.jsonl"),
                       str(d / "tm.jsonl"), *flags])
    return run


def evaluate_run(lines):
    def run(d, utt_id):
        write_jsonl(d / "in.jsonl", lines(utt_id))
        return invoke(["evaluate", str(d / "in.jsonl"), "--out-prefix", str(d / "rep")])
    return run


def decode_run(d, utt_id):
    write_jsonl(d / "paths.jsonl", [{"utt_id": utt_id, "frame_ms": 10, "labels": ["t", "Q"]}])
    return invoke(["decode", str(d / "paths.jsonl"), str(d / "tracks.jsonl")])


def prepare_run(d, utt_id):
    write_jsonl(d / "m.jsonl", [{"utt_id": utt_id}, {"utt_id": utt_id}])
    return invoke(["prepare", "filter", str(d / "m.jsonl"), str(d / "out.jsonl")])


def one(obj):
    return lambda utt_id: [obj(utt_id)]


INSTANCE = {"phoneme": "k", "vot_ms": 40, "onset": "ka"}
SITES = {
    # io.parse_record: a field fault
    "evaluate, string vot_ms": evaluate_run(
        lambda u: [{**INSTANCE, "utt_id": u, "vot_ms": "40"}]),
    # PhoneTrack and check_frame_ms prefixes
    "augment, span fault": augment_run(one(lambda u: track_obj(u, start=2, end=1)),
                                       one(track_obj)),
    "augment, frame_ms 0": augment_run(one(lambda u: track_obj(u, frame_ms=0)),
                                       one(track_obj)),
    # ctc.track_from_obj: a symbol that spells no phone
    "augment, symbol Q": augment_run(one(lambda u: track_obj(u, symbol="Q")), one(track_obj)),
    # ctc.in_utt_id_order and the role check
    "augment, utt_id twice": augment_run(lambda u: [track_obj(u), track_obj(u)],
                                         one(track_obj)),
    "augment, utt_id out of order": augment_run(lambda u: [track_obj(u), track_obj("a")],
                                                one(track_obj)),
    "augment, RM file tagged HM": augment_run(one(lambda u: track_obj(u, model="HM")),
                                              one(track_obj)),
    # augment: the missing counterpart and frame-ms messages
    "augment --fail-missing": augment_run(one(track_obj), lambda u: [], "--fail-missing"),
    "augment, frame_ms differs": augment_run(one(track_obj),
                                             one(lambda u: track_obj(u, frame_ms=20))),
    # ctc.decode_track: a label that spells no phone
    "decode, label Q": decode_run,
    # metrics: a model's second instance of an utt_id; EvalInstance's prefixes
    "evaluate, utt_id twice": evaluate_run(
        lambda u: [{**INSTANCE, "utt_id": u}, {**INSTANCE, "utt_id": u}]),
    "evaluate, vot_ms 1e6": evaluate_run(lambda u: [{**INSTANCE, "utt_id": u, "vot_ms": 1e6}]),
    # manifest: an utt_id twice
    "prepare filter, utt_id twice": prepare_run,
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_a_message_shows_a_long_utt_id_cut(tmp_path, site):
    def message(name, utt_id):
        d = tmp_path / name
        d.mkdir()
        result = SITES[site](d, utt_id)
        assert result.exit_code == 1 and result.stdout == ""
        return result.stderr.replace(str(d), "DIR")

    spelled = message("spelled", NAME)
    assert spelled.startswith("Error: ") and spelled.count(NAME) == 1
    whole = "k" * SHOWN_CHARS
    assert message("whole", whole) == spelled.replace(NAME, whole)
    cut = message("cut", "k" * 20_000)
    assert cut == spelled.replace(NAME, whole + "...")
    assert len(cut) < 300


def test_the_matcher_shows_long_utt_ids_cut():
    t = Inventory.default().phone("t")
    rm = PhoneTrack("k" * 20_000, "RM", [], 10.0)
    hm = PhoneTrack("k" * (SHOWN_CHARS + 1), "HM", [], 10.0)
    with pytest.raises(UtteranceMismatch) as err:
        match_phones(rm, hm, MappingTable.default())
    whole = "k" * SHOWN_CHARS
    assert str(err.value) == f"'{whole}...' vs '{whole}...'"
    with pytest.raises(UtteranceMismatch) as err:
        match_phones(PhoneTrack(whole, "RM", [TimedPhone(t, 0, 1)], 10.0), hm,
                     MappingTable.default())
    assert str(err.value) == f"'{whole}' vs '{whole}...'"
    with pytest.raises(PhonaugError) as err:
        EvalInstance("k" * 20_000, "x", 5.0, "k")
    assert str(err.value).startswith(f"{whole}...: target phoneme must be one of ")
