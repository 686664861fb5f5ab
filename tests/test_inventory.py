"""Tokenization, serialization and phonation rewriting."""

from __future__ import annotations

import random
import unicodedata

import pytest

from phonaug import (
    ASPIRATED, BREATHY_VOICED, TENUIS, VOICED, Inventory,
    phonation_of, serialize, tokenize_ipa, with_phonation,
)
from phonaug.errors import NoVoicingCounterpart, OrphanDiacritic, PhonaugError, UnknownSymbol

INV = Inventory.default()

ALL_PHONATIONS = [TENUIS, ASPIRATED, VOICED, BREATHY_VOICED]


def test_single_aspirated_plosive():
    phones = tokenize_ipa("tʰ", INV)
    assert len(phones) == 1
    assert phones[0].base == "t"
    assert phones[0].diacritics == ("ʰ",)
    assert phones[0].place == "alveolar"
    assert phones[0].manner == "plosive"


def test_sample_prediction_segmentation():
    # "Danke dafür" TM-style output: 9 phones, 4th aspirated k
    phones = tokenize_ipa("dankʰɛdafɪ", INV)
    assert len(phones) == 9
    assert phones[3].base == "k"
    assert phones[3].diacritics == ("ʰ",)


def test_orphan_diacritic():
    with pytest.raises(OrphanDiacritic):
        tokenize_ipa("ʰa", INV)


def test_unknown_symbol_is_hard_error():
    with pytest.raises(UnknownSymbol) as exc:
        tokenize_ipa("ta7", INV)
    assert exc.value.offset == 2


def test_whitespace_splits_and_is_dropped():
    phones = tokenize_ipa("t a", INV)
    assert [p.base for p in phones] == ["t", "a"]
    assert serialize(phones) == "ta"


def test_double_aspiration_marks_rejected():
    with pytest.raises(PhonaugError):
        tokenize_ipa("tʰʱ", INV)


def test_tie_bar_affricate_is_one_phone():
    phones = tokenize_ipa("t͡sa", INV)
    assert len(phones) == 2
    assert phones[0].manner == "affricate"
    assert serialize(phones) == "t͡sa"


def test_dangling_tie_bar():
    with pytest.raises(OrphanDiacritic):
        tokenize_ipa("t͡", INV)


def test_serialize_empty():
    assert serialize([]) == ""


def test_serialize_inverse_of_tokenize():
    assert serialize(tokenize_ipa("tʰa", INV)) == "tʰa"


def test_roundtrip_all_single_phone_strings():
    # exhaustive loop over the inventory, bare and with phonation diacritics
    for base in INV.base_features:
        for suffix in ("", "ʰ", "ʱ", "ː"):
            s = base + suffix
            assert serialize(tokenize_ipa(s, INV)) == unicodedata.normalize("NFC", s)


def random_inventory_string(rng: random.Random, inv: Inventory = INV) -> str:
    bases = sorted(inv.base_features)
    diacritics = sorted(inv.diacritics)
    out = []
    for _ in range(rng.randint(0, 12)):
        ch = rng.choice(bases)
        out.append(ch)
        if rng.random() < 0.3:
            d = rng.choice(diacritics)
            # keep at most one of the aspiration marks per phone
            out.append(d)
        if rng.random() < 0.05:
            out.append(" ")
    return "".join(out)


def test_roundtrip_random_strings():
    rng = random.Random(20240601)
    for _ in range(2000):
        s = random_inventory_string(rng)
        expected = unicodedata.normalize("NFC", s).replace(" ", "")
        assert serialize(tokenize_ipa(s, INV)) == expected


@pytest.mark.parametrize("text, expected", [
    ("b", VOICED),
    ("tʰ", ASPIRATED),
    ("bʱ", BREATHY_VOICED),
    ("t", TENUIS),
    ("b̥", TENUIS),  # voiceless ring overrides base voicing
])
def test_phonation_of(text, expected):
    assert phonation_of(tokenize_ipa(text, INV)[0]) == expected


@pytest.mark.parametrize("text, target, expected", [
    ("t", ASPIRATED, "tʰ"),
    ("kʰ", VOICED, "ɡ"),
    ("ɡ", BREATHY_VOICED, "ɡʱ"),
    ("d", TENUIS, "t"),
    ("p", BREATHY_VOICED, "bʱ"),
])
def test_with_phonation(text, target, expected):
    phone = tokenize_ipa(text, INV)[0]
    assert serialize([with_phonation(phone, target, INV)]) == expected


def test_with_phonation_keeps_other_diacritics():
    phone = tokenize_ipa("tːʰ", INV)[0]
    out = with_phonation(phone, VOICED, INV)
    assert serialize([out]) == "dː"


def test_with_phonation_no_counterpart():
    phone = tokenize_ipa("ʔ", INV)[0]
    with pytest.raises(NoVoicingCounterpart):
        with_phonation(phone, VOICED, INV)


def plosive_pair_bases():
    return sorted(b for b in INV.voicing_pairs if INV.base_features[b][1] == "plosive")


def test_phonation_rewrite_laws_exhaustive():
    # idempotence, place/manner preservation, phonation_of o with_phonation == target
    for base in plosive_pair_bases():
        phone = INV.make_phone(base)
        for target in ALL_PHONATIONS:
            out = with_phonation(phone, target, INV)
            assert phonation_of(out) == target
            assert out.phonation is target  # the shared constant, not an equal copy
            assert (out.place, out.manner, out.phonation) == INV.features_of(out.base,
                                                                             out.diacritics)
            assert out.place == phone.place
            assert out.manner == phone.manner
            assert with_phonation(out, target, INV) == out


def test_latin_g_absent_from_inventory():
    assert "g" not in INV.base_features
    assert "ɡ" in INV.base_features


def test_voicing_pairs_homorganic():
    for a, b in INV.voicing_pairs.items():
        fa, fb = INV.base_features[a], INV.base_features[b]
        assert fa[0] == fb[0] and fa[1] == fb[1]
        assert fa[2] != fb[2]


def test_nfc_input_with_precomposed_diacritic():
    # precomposed a-tilde decomposes to a + combining tilde internally
    s = unicodedata.normalize("NFC", "ã")
    phones = tokenize_ipa(s, INV)
    assert len(phones) == 1
    assert serialize(phones) == s
