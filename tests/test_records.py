"""The records are tuples, and the ones with checks keep them however they are built.

A checked record is a NamedTuple subclass whose `__new__` runs its checks: its
constructor, `_make` and `_replace` all refuse a bad value with one message, and
no field can be assigned."""

from __future__ import annotations

import math
import unicodedata

import pytest

from phonaug import (
    ASPIRATED, FramePath, Inventory, MappingTable, PhoneTrack, ScenarioSpec, TimedPhone,
)
from phonaug.errors import PhonaugError

INV = Inventory.default()
T, A = INV.phone("t"), INV.phone("a")

PATH = FramePath("u1", 20.0, ("_", "t", "a"))
TRACK = PhoneTrack("u1", "RM", [TimedPhone(T, 0, 1), TimedPhone(A, 2, 3)], 20.0)
SPEC = ScenarioSpec(seed=1, n_utterances=2)

# (a valid record, a change of its fields, the message that refuses the change)
CASES = {
    "frame-path-zero-frame-ms": (PATH, {"frame_ms": 0.0},
                                 "u1: frame_ms must be positive and finite, got 0.0"),
    "frame-path-nan-frame-ms": (PATH, {"frame_ms": math.nan},
                                "u1: frame_ms must be positive and finite, got nan"),
    "frame-path-infinite-frame-ms": (PATH, {"frame_ms": math.inf},
                                     "u1: frame_ms must be positive and finite, got inf"),
    "track-empty-utt_id": (TRACK, {"utt_id": ""}, "utt_id must be non-empty"),
    "track-unknown-tag": (TRACK, {"model_tag": "rm"}, "u1: unknown model tag 'rm'"),
    "track-negative-frame-ms": (TRACK, {"frame_ms": -20.0},
                                "u1: frame_ms must be positive and finite, got -20.0"),
    "track-inverted-span": (TRACK, {"phones": [TimedPhone(T, 2, 1)]},
                            "u1: phones[0]: invalid frame span 2..1"),
    "track-start-before-previous": (TRACK, {"phones": [TimedPhone(T, 2, 3), TimedPhone(A, 1, 4)]},
                                    "u1: phones[1]: start frame 1 comes before 2"),
    "spec-rate-above-one": (SPEC, {"plosive_rate": 1.5},
                            "all rates must be probabilities in [0, 1]"),
    "spec-negative-drop-rate": (SPEC, {"drop_rate": -0.1},
                                "all rates must be probabilities in [0, 1]"),
    "spec-phonation-rates-above-one": (SPEC, {"hm_aspiration_rate": 0.6, "hm_voicing_rate": 0.5},
                                       "HM phonation rates must sum to at most 1"),
    "spec-negative-jitter": (SPEC, {"jitter": -1}, "jitter must be non-negative"),
    "spec-negative-n_utterances": (SPEC, {"n_utterances": -1},
                                   "n_utterances must be non-negative"),
}


@pytest.mark.parametrize("record, change, message", CASES.values(), ids=CASES)
def test_a_checked_record_refuses_a_bad_value_however_it_is_built(record, change, message):
    cls, fields = type(record), {**record._asdict(), **change}
    builds = {"constructor": lambda: cls(**fields),
              "_make": lambda: cls._make(fields.values()),
              "_replace": lambda: record._replace(**change)}
    for how, build in builds.items():
        with pytest.raises(PhonaugError) as err:
            build()
        assert str(err.value) == message, how


@pytest.mark.parametrize("record", [PATH, TRACK, SPEC], ids=lambda r: type(r).__name__)
def test_a_checked_record_is_an_immutable_tuple(record):
    cls = type(record)
    assert isinstance(record, tuple)
    assert record == cls(*record) == cls._make(record) == record._replace()
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_frame_paths_and_specs_hash_by_value():
    assert hash(PATH) == hash(FramePath("u1", 20.0, ("_", "t", "a")))
    assert hash(SPEC) == hash(ScenarioSpec(1, 2))
    assert SPEC._replace(jitter=2) == ScenarioSpec(1, 2, jitter=2)


def test_a_phone_carries_its_nfc_text_and_is_shared():
    for symbol in ("t", "tʰ", "d̥", "t͡s", "ç"):
        phone = INV.phone(symbol)
        assert phone.text == unicodedata.normalize("NFC", phone.base + "".join(phone.diacritics))
        assert phone is INV.make_phone(phone.base, phone.diacritics)
        with pytest.raises(AttributeError):
            phone.text = "x"
    assert INV.phone("tʰ").phonation is ASPIRATED and ASPIRATED.name == "aspirated"


@pytest.mark.parametrize("offsets, message", [
    (frozenset(), "window_offsets must be non-empty"),
    (frozenset({0, 3}), "window offsets beyond |2| are not supported"),
])
def test_a_mapping_table_refuses_a_bad_window(offsets, message):
    with pytest.raises(PhonaugError) as err:
        MappingTable(((frozenset({"t"}), frozenset({"t"})),), offsets)
    assert str(err.value) == message
