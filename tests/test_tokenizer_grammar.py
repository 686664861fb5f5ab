"""The compiled tokenizer against the code-point scan it replaced, the
inventory checks its pattern relies on, inputs long enough to expose
backtracking, and the coverage rule against the text and head grammars it
replaced."""

from __future__ import annotations

import json
import re
import unicodedata
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonaug import Inventory, tokenize_ipa
from phonaug.errors import OrphanDiacritic, PhonaugError, UnknownSymbol
from phonaug.inventory import SPREAD, TIE_BARS

DEFAULT_RAW = json.loads(
    resources.files("phonaug.data").joinpath("inventory.json").read_text("utf-8"))
INV = Inventory(DEFAULT_RAW)
# ʼ marks aspiration here too, so the spread marks are picked by role; x,
# x + U+0323 and x + U+0323 + U+0304 nest, so the longest base must win
SMALL = Inventory({
    "phones": [
        {"symbol": s, "place": place, "manner": manner, "voiced": voiced}
        for s, place, manner, voiced in [
            ("p", "bilabial", "plosive", False), ("b", "bilabial", "plosive", True),
            ("t", "alveolar", "plosive", False), ("d", "alveolar", "plosive", True),
            ("s", "alveolar", "fricative", False), ("c", "palatal", "plosive", False),
            ("ç", "palatal", "fricative", False), ("x", "velar", "fricative", False),
            ("x\u0323", "uvular", "fricative", False),
            ("x\u0323\u0304", "uvular", "fricative", True), ("a", "other", "vowel", True),
        ]],
    "voicing_pairs": [["p", "b"], ["t", "d"]],
    "diacritics": {"ʰ": "aspiration", "ʼ": "aspiration", "ʱ": "breathy", "ː": "length",
                   "̥": "voiceless"},
})


def scan_tokenize(s: str, inv: Inventory) -> list:
    """Reference: the maximal-munch scan over NFD code points that the
    compiled patterns replaced. Its one change: a second tie bar in a phone
    raises, where the scan built a base that no inventory entry describes."""
    text = unicodedata.normalize("NFD", s)
    max_base_len = max(len(k) for k in inv.base_features)
    phones = []
    base = None
    diacritics = []
    pending_tie = None

    def flush():
        nonlocal base, diacritics
        if base is not None:
            phones.append(inv.make_phone(base, tuple(diacritics)))
        base = None
        diacritics = []

    def munch_base(i):
        for length in range(min(max_base_len, len(text) - i), 0, -1):
            if text[i:i + length] in inv.base_features:
                return text[i:i + length]
        return None

    i = 0
    while i < len(text):
        ch = text[i]
        matched = munch_base(i)
        if pending_tie is not None and matched is None:
            raise OrphanDiacritic(pending_tie[0], pending_tie[1])
        if matched is not None:
            if pending_tie is not None:
                if any(tie in base for tie in TIE_BARS):
                    raise PhonaugError(
                        f"phone carries more than one tie bar at offset {pending_tie[1]}")
                base = base + pending_tie[0] + matched
                pending_tie = None
            else:
                flush()
                base = matched
            i += len(matched)
            continue
        if ch.isspace():
            flush()
        elif ch in TIE_BARS:
            if base is None:
                raise OrphanDiacritic(ch, i)
            pending_tie = (ch, i)
        elif ch in inv.diacritics:
            if base is None:
                raise OrphanDiacritic(ch, i)
            if inv.diacritics[ch] in ("aspiration", "breathy") and any(
                    inv.diacritics[d] in ("aspiration", "breathy") for d in diacritics):
                raise PhonaugError(f"phone carries more than one of ʰ/ʱ at offset {i}")
            diacritics.append(ch)
        else:
            raise UnknownSymbol(ch, i)
        i += 1
    if pending_tie is not None:
        raise OrphanDiacritic(pending_tie[0], pending_tie[1])
    flush()
    return phones


def outcome(tokenize, s, inv):
    try:
        return tokenize(s, inv)
    except PhonaugError as e:
        return type(e), str(e)


WHITESPACE = [" ", "\t", "\n", "\u00a0", "\u2003"]
# g is Latin; U+0327, U+0308 and U+0301 are combining marks no inventory names alone
UNKNOWN = ["7", "g", "Q", "!", "\u0327", "\u0308", "\u0301"]


def ipa_strings(inv: Inventory):
    bases = sorted(inv.base_features)
    pieces = st.one_of(
        st.sampled_from(bases + [unicodedata.normalize("NFC", b) for b in bases]),
        st.sampled_from(sorted(inv.diacritics)),
        st.sampled_from(TIE_BARS),
        st.sampled_from(WHITESPACE),
        st.sampled_from(UNKNOWN),
    )
    return st.tuples(st.lists(pieces, max_size=14), st.booleans()).map(
        lambda t: unicodedata.normalize("NFC", "".join(t[0])) if t[1] else "".join(t[0]))


@pytest.mark.parametrize("inv", [INV, SMALL], ids=["default", "small"])
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_compiled_tokenizer_equals_the_scan(inv, data):
    s = data.draw(ipa_strings(inv))
    expected = outcome(scan_tokenize, s, inv)
    got = outcome(tokenize_ipa, s, inv)
    assert got == expected
    if isinstance(expected, list):
        assert all(a is b for a, b in zip(got, expected))


@pytest.mark.parametrize("s, error", [
    ("t͡s͡ʃ", "phone carries more than one tie bar at offset 3"),
    ("t͡sʰ͡ʃa", "phone carries more than one tie bar at offset 4"),
    ("a t͡s͜ʃ", "phone carries more than one tie bar at offset 5"),
    ("t͡s͡", "diacritic '͡' at offset 3 has no preceding base"),
    ("t͡s͡ 7", "diacritic '͡' at offset 3 has no preceding base"),
    ("tʰ͡sʰ", "phone carries more than one of ʰ/ʱ at offset 4"),
    ("t ͡s", "diacritic '͡' at offset 2 has no preceding base"),
    ("t ʰ", "diacritic 'ʰ' at offset 2 has no preceding base"),
    ("ç7", "unknown symbol '7' (U+0037) at offset 2"),
])
def test_named_faults(s, error):
    with pytest.raises(PhonaugError) as exc:
        tokenize_ipa(s, INV)
    assert str(exc.value) == error


N = 200_000
UNIT = "t\u02b0a t\u0361s\u02b0\u02d0\u00e7\u00a0"  # 12 NFD code points, 4 phones


def test_long_valid_text():
    phones = tokenize_ipa(UNIT * (N // 12), INV)
    assert len(phones) == 4 * (N // 12)
    assert phones[1] is phones[-3] is INV.phone("a")


@pytest.mark.parametrize("head, unit, tail, error, offset", [
    ("", UNIT, "7", UnknownSymbol, 12 * (N // 12)),
    ("t", "\u02d0", "7", UnknownSymbol, N + 1),
    ("", "t\u0361s", "\u0361", OrphanDiacritic, 3 * (N // 3)),
    ("", "ta", " \u02b0", OrphanDiacritic, N + 1),
], ids=["unknown-at-end", "diacritic-run", "dangling-tie", "orphan-at-end"])
def test_long_invalid_text(head, unit, tail, error, offset):
    text = head + unit * (N // len(unicodedata.normalize("NFD", unit))) + tail
    with pytest.raises(error) as exc:
        tokenize_ipa(text, INV)
    assert exc.value.offset == offset


def with_changes(phones=(), diacritics=None):
    raw = json.loads(json.dumps(DEFAULT_RAW))
    raw["phones"] += [{"symbol": s, "place": "other", "manner": "other", "voiced": False}
                      for s in phones]
    raw["diacritics"].update(diacritics or {})
    return raw


@pytest.mark.parametrize("raw, symbol", [
    (with_changes(phones=["kʰ"]), "kʰ"),
    (with_changes(phones=["k͡x"]), "k͡x"),
    (with_changes(phones=["k x"]), "k x"),
    (with_changes(phones=["k\u00a0"]), "k\u00a0"),
    (with_changes(phones=[""]), ""),
    (with_changes(diacritics={"ʰʷ": "other"}), "ʰʷ"),
    (with_changes(diacritics={"\u0344": "other"}), "\u0308\u0301"),  # NFD splits it
    (with_changes(diacritics={"\u035c": "other"}), "\u035c"),
    (with_changes(diacritics={" ": "other"}), " "),
    # with t and s as bases, "ts" has two readings
    (with_changes(phones=["ts"]), "ts"),
], ids=["base-diacritic", "base-tie", "base-space", "base-nbsp", "base-empty",
        "diacritic-two", "diacritic-nfd-two", "diacritic-tie", "diacritic-space",
        "base-two-readings"])
def test_inventory_rejects_what_the_grammar_cannot_read(raw, symbol):
    with pytest.raises(PhonaugError) as exc:
        Inventory(raw)
    assert repr(symbol) in str(exc.value)


def test_inventory_accepts_a_base_whose_rest_starts_no_base():
    # ç is c + U+0327, and U+0327 starts no base: one reading only
    assert {"c\u0327", "c"} <= set(INV.base_features)
    assert [p.base for p in tokenize_ipa("\u00e7c", INV)] == ["c\u0327", "c"]
    Inventory(with_changes(phones=["q̇"]))


def test_a_command_that_never_tokenizes_never_compiles():
    inv = Inventory(DEFAULT_RAW)
    inv.make_phone("t", ("ʰ",))
    assert "_phone_re" not in vars(inv)
    tokenize_ipa("t", inv)
    assert "_phone_re" in vars(inv)


# SMALL with a diacritic of every role that the packaged inventory gives one; its ç is
# two NFD code points, c and U+0327
EVERY_ROLE = Inventory({
    "phones": [{"symbol": s, "place": place, "manner": manner, "voiced": voiced}
               for s, (place, manner, voiced) in SMALL.base_features.items()],
    "voicing_pairs": [["p", "b"], ["t", "d"]],
    "diacritics": {**SMALL.diacritics, "̪": "dental", "̩": "syllabic",
                   "̃": "nasalized", "ʲ": "other", "̚": "other"},
})


def code_point_split(text: str, inv: Inventory) -> tuple[str, tuple[str, ...]]:
    """The base and diacritics of a phone's NFD text, split code point by code point."""
    return ("".join(ch for ch in text if ch not in inv.diacritics),
            tuple(ch for ch in text if ch in inv.diacritics))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_a_phone_match_splits_as_its_code_points_do(data):
    assert set(EVERY_ROLE.diacritics.values()) >= set(INV.diacritics.values())
    assert "ç" in EVERY_ROLE.base_features
    text = unicodedata.normalize("NFD", data.draw(ipa_strings(EVERY_ROLE)))
    for m in EVERY_ROLE._phone_re.finditer(text):
        phone = EVERY_ROLE._spelled(m[0])
        assert (phone.base, phone.diacritics) == code_point_split(m[0], EVERY_ROLE)


def test_the_head_and_the_tokenizer_compile_one_pattern():
    inv = Inventory(DEFAULT_RAW)
    assert inv.head("tʰa") == (inv.make_phone("t", ("ʰ",)), "a")
    compiled = vars(inv)["_phone_re"]
    tokenize_ipa("tʰa", inv)
    assert vars(inv)["_phone_re"] is compiled
    assert [name for name, value in vars(inv).items() if isinstance(value, re.Pattern)] == [
        "_phone_re"]


# -- the coverage rule against the text and head grammars it replaced -----------


class GrammarOracle:
    """The readings of a text by the grammars that tokenize_ipa and the onset head
    read with before the coverage rule: a text pattern, (?:\\s*P)*\\s*, and a head
    pattern that also captures its first two phones, both built on the phone
    pattern P; and the fault at the end of the longest prefix of phones and
    whitespace that the text pattern reads."""

    def __init__(self, inv: Inventory):
        phone = inv._phone_pattern
        self.inv = inv
        self.phone = re.compile(phone)
        self.text = re.compile(rf"(?:\s*(?:{phone}))*\s*")
        self.head = re.compile(rf"\s*(?:({phone})(?:\s*({phone})(?:\s*(?:{phone}))*)?)?\s*")

    def tokenize(self, s: str):
        """The phones, or the fault's class and message."""
        text = unicodedata.normalize("NFD", s)
        if self.text.fullmatch(text) is not None:
            return [self.inv.make_phone(*code_point_split(m, self.inv))
                    for m in self.phone.findall(text)]
        i = self.text.match(text).end()
        ch = text[i]
        if ch not in self.inv.diacritics and ch not in TIE_BARS:
            error = UnknownSymbol(ch, i)
        elif i == 0 or text[i - 1].isspace():
            error = OrphanDiacritic(ch, i)
        elif ch not in TIE_BARS:
            error = PhonaugError(f"phone carries more than one of ʰ/ʱ at offset {i}")
        elif (any(tie in self.phone.findall(text, 0, i)[-1] for tie in TIE_BARS)
              and self.phone.match(text, i + 1)):
            error = PhonaugError(f"phone carries more than one tie bar at offset {i}")
        else:
            error = OrphanDiacritic(ch, i)
        return type(error), str(error)

    def onset_head(self, s: str):
        m = self.head.fullmatch(unicodedata.normalize("NFD", s))
        if m is None or m[1] is None:
            return None
        first = self.inv.make_phone(*code_point_split(m[1], self.inv))
        return first, None if m[2] is None else code_point_split(m[2], self.inv)[0]


ORACLES = {"default": GrammarOracle(INV), "every-role": GrammarOracle(EVERY_ROLE)}


def phone_texts(inv: Inventory):
    """The text of one phone the pattern reads: a base, diacritics, at most one
    ʰ/ʱ and at most one tie bar joining a second base."""
    bases = sorted(inv.base_features)
    others = sorted(d for d, role in inv.diacritics.items() if role not in SPREAD)
    spread = sorted(d for d, role in inv.diacritics.items() if role in SPREAD)
    return st.tuples(
        st.sampled_from(bases), st.lists(st.sampled_from(others), max_size=2),
        st.sampled_from(["", *spread]),
        st.sampled_from(["", *TIE_BARS]).flatmap(
            lambda tie: st.just("") if not tie else st.sampled_from(bases).map(tie.__add__)),
    ).map(lambda t: t[0] + "".join(t[1]) + t[2] + t[3])


def hostile_strings(inv: Inventory):
    """Phones and whitespace, with now and then what a reader must refuse or skip:
    unknown code points, orphan marks at the start and after whitespace, doubled
    ʰ/ʱ, and chained or dangling tie bars; NFC or NFD."""
    spread = sorted(d for d, role in inv.diacritics.items() if role in SPREAD)
    hostile = st.sampled_from([
        *UNKNOWN, *(a + b for a in spread for b in spread), *(" " + m for m in spread),
        *spread, *TIE_BARS, "͡͡", "͡ ", " ͡", "͜͡"])
    # a phone three times as often as anything else
    pieces = st.one_of(phone_texts(inv), phone_texts(inv), phone_texts(inv),
                       st.sampled_from(WHITESPACE + ["  "]), hostile)
    return st.tuples(st.lists(pieces, max_size=6), st.booleans()).map(
        lambda t: unicodedata.normalize("NFC", "".join(t[0])) if t[1] else "".join(t[0]))


# faults of each kind, and texts with no phone
NAMED = ["", " \t", "tʰʰa", "ʰt", "t ʰ", "t͡s͡ʃ", "t͡s͡", "t ͡s", "k͡x ʰ", "t͡sʰ͡x", "ç7"]


@pytest.mark.parametrize("name", sorted(ORACLES))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_coverage_reads_as_the_text_and_head_grammars_did(name, data):
    oracle = ORACLES[name]
    s = data.draw(st.one_of(st.sampled_from(NAMED), ipa_strings(oracle.inv),
                            hostile_strings(oracle.inv)))
    # the same phones, or the same error class and message
    assert outcome(tokenize_ipa, s, oracle.inv) == oracle.tokenize(s)
    assert oracle.inv.head(s) == oracle.onset_head(s)
