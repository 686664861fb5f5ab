"""Shared phones, the per-symbol table, the phonation-rewrite memo, and the
lookup sets of the mapping table: none of them may change a result."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import unicodedata
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phonaug
import phonaug.inventory as inventory_module
from phonaug import (
    ASPIRATED, BREATHY_VOICED, TENUIS, VOICED, Inventory, MappingTable, serialize,
    tokenize_ipa, with_phonation,
)
from phonaug.ctc import track_from_obj
from phonaug.errors import NoVoicingCounterpart, PhonaugError, UnknownSymbol

INV = Inventory.default()
ALL_PHONATIONS = [TENUIS, ASPIRATED, VOICED, BREATHY_VOICED]
BASES = sorted(INV.base_features)
DIACRITICS = sorted(INV.diacritics)


def fresh_inventory() -> Inventory:
    return Inventory.load(resources.files("phonaug.data").joinpath("inventory.json"))


symbols = st.builds(
    lambda base, diacritics: base + "".join(diacritics),
    st.sampled_from(BASES),
    st.lists(st.sampled_from(DIACRITICS), max_size=3),
)


@pytest.fixture
def tokenize_calls(monkeypatch):
    """Count the tokenizer runs that Inventory.phone makes."""
    calls = []
    original = inventory_module.tokenize_ipa

    def counted(s, inventory=None):
        calls.append(s)
        return original(s, inventory)

    monkeypatch.setattr(inventory_module, "tokenize_ipa", counted)
    return calls


@settings(max_examples=200, deadline=None)
@given(st.lists(symbols, min_size=1, max_size=8))
def test_phone_table_agrees_with_tokenizer(batch):
    inv = fresh_inventory()  # one table filled by the whole batch
    for s in batch:
        try:
            expected = tokenize_ipa(s, inv)
        except PhonaugError as e:
            for _ in range(2):
                with pytest.raises(type(e)) as exc:
                    inv.phone(s)
                assert str(exc.value) == str(e)
            continue
        assert len(expected) == 1  # base + diacritics always spells one phone
        first = inv.phone(s)
        assert first == expected[0]
        assert first is expected[0]  # both come from the shared make_phone table
        assert inv.phone(s) is first
        assert first.text == serialize([first]) == unicodedata.normalize("NFC", s)
        assert (first.place, first.manner, first.phonation) == \
            inv.features_of(first.base, first.diacritics)
        # no phone builds a Phonation of its own: it shares one of the four
        assert any(first.phonation is p for p in ALL_PHONATIONS)


def test_make_phone_shares_one_phone_per_parts():
    inv = fresh_inventory()
    assert inv.make_phone("t", ("ʰ",)) is inv.make_phone("t", ("ʰ",))
    assert inv.make_phone("t") is not inv.make_phone("t", ("ʰ",))
    assert tokenize_ipa("tʰatʰ", inv)[0] is tokenize_ipa("tʰatʰ", inv)[2]


def test_phone_table_tokenizes_each_symbol_once(tokenize_calls):
    inv = fresh_inventory()
    for _ in range(3):
        inv.phone("tʰ")
        inv.phone("a")
    assert tokenize_calls == ["tʰ", "a"]


@pytest.mark.parametrize("symbol, error", [
    ("ta", "'ta' is not a single phone"),
    ("", "'' is not a single phone"),
    ("t a", "'t a' is not a single phone"),
    ("t7", "unknown symbol '7' (U+0037) at offset 1"),
    ("ʰt", "diacritic 'ʰ' at offset 0 has no preceding base"),
])
def test_bad_symbols_raise_every_time_and_are_not_cached(tokenize_calls, symbol, error):
    inv = fresh_inventory()
    for _ in range(3):
        with pytest.raises(PhonaugError) as exc:
            inv.phone(symbol)
        assert str(exc.value) == error
    assert tokenize_calls == [symbol] * 3


def track_obj(symbol, utt_id="utt-7"):
    return {"utt_id": utt_id, "model": "RM", "frame_ms": 20.0,
            "phones": [{"symbol": "a", "start": 0, "end": 3},
                       {"symbol": symbol, "start": 4, "end": 7}]}


def test_track_from_obj_names_the_utterance_for_multi_phone_symbols():
    inv = fresh_inventory()
    for _ in range(2):
        with pytest.raises(PhonaugError, match=r"^utt-7: 'kʰa' is not a single phone$"):
            track_from_obj(track_obj("kʰa"), inv)


def test_track_from_obj_unknown_symbol_keeps_tokenizer_error():
    inv = fresh_inventory()
    for _ in range(2):
        with pytest.raises(UnknownSymbol, match="unknown symbol '7'"):
            track_from_obj(track_obj("k7"), inv)


def test_track_from_obj_shares_phones_across_records():
    inv = fresh_inventory()
    a = track_from_obj(track_obj("kʰ", "u1"), inv)
    b = track_from_obj(track_obj("kʰ", "u2"), inv)
    assert a.phones[1].phone is b.phones[1].phone is inv.make_phone("k", ("ʰ",))


def phonation_grid(inv):
    """Every base x every ordered pair of distinct diacritics (or fewer) x target."""
    seqs = [()] + [(d,) for d in DIACRITICS] + list(itertools.permutations(DIACRITICS, 2))
    for base in BASES:
        for diacritics in seqs:
            text = base + "".join(diacritics)
            try:
                phones = tokenize_ipa(text, inv)
            except PhonaugError:
                continue
            for target in ALL_PHONATIONS:
                yield phones[0], target


def rewrite_all(inv):
    out = []
    for phone, target in phonation_grid(inv):
        try:
            out.append(with_phonation(phone, target, inv))
        except NoVoicingCounterpart as e:
            out.append(str(e))
    return out


def test_with_phonation_warm_memo_equals_cold():
    inv = fresh_inventory()
    cold = rewrite_all(inv)
    warm = rewrite_all(inv)
    assert warm == cold
    assert all(w is c for w, c in zip(warm, cold) if not isinstance(c, str))
    assert sum(isinstance(c, str) for c in cold) > 0  # errors raised warm too
    # a table filled in the opposite order gives the same answers
    other = fresh_inventory()
    grid = list(phonation_grid(other))
    for (phone, target), expected in reversed(list(zip(grid, cold))):
        if isinstance(expected, str):
            with pytest.raises(NoVoicingCounterpart) as exc:
                with_phonation(phone, target, other)
            assert str(exc.value) == expected
        else:
            out = with_phonation(phone, target, other)
            assert out == expected
            assert out.text == serialize([out])


def test_default_and_loaded_inventories_share_no_entries():
    loaded = fresh_inventory()
    for s in ("tʰ", "a", "ɡʱ", "t͡s"):
        assert loaded.phone(s) == INV.phone(s)
        assert loaded.phone(s) is not INV.phone(s)
    assert loaded.make_phone("p") is not INV.make_phone("p")
    p = INV.make_phone("p")
    assert with_phonation(p, ASPIRATED, INV) is not with_phonation(p, ASPIRATED, loaded)


@pytest.mark.parametrize("table", [
    MappingTable.default(INV),
    MappingTable.from_obj({"entries": [{"rm": ["t"], "hm": ["d", "ʈ"]},
                                       {"rm": ["p", "k"], "hm": ["b"]}]}, INV),
], ids=["default", "asymmetric"])
def test_mapping_table_lookups_match_entry_scan(table):
    for rm_base in BASES:
        assert table.rm_covered(rm_base) == any(rm_base in rm for rm, _ in table.entries)
        for hm_base in BASES:
            assert ((rm_base, hm_base) in table._pairs) == any(
                rm_base in rm and hm_base in hm for rm, hm in table.entries)


def test_cli_import_does_not_load_numpy():
    src = str(Path(phonaug.__file__).resolve().parents[1])
    code = "import sys, phonaug.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr or "numpy was imported"
