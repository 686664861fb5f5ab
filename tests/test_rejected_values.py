"""A rejected input value of any size fails a command with one short `Error:` line
that still names the file, the utterance and the field; and `evaluate` refuses a
vot_ms whose magnitude no VOT reaches, so no boxplot quartile comes out NaN."""

from __future__ import annotations

import json

import pytest
from clirun import invoke

from phonaug import EvalInstance, Inventory
from phonaug.ctc import PhoneTrack
from phonaug.errors import NotSinglePhone, PhonaugError
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
