"""IPA phone inventory: tokenization, serialization and phonation rewriting.

The inventory ships as a JSON data file (see data/inventory.json) so new
languages can extend it without touching code. All functions are pure. An
Inventory's symbol tables never change after loading; its only mutable state is
its phone pattern, compiled on first use, and memo tables (one shared
Phone per (base, diacritics), per single-phone symbol and per phonation
rewrite, and the NFD code points of each CTC frame label decoded) whose
contents never change a result. Every IPA text is read with the
phone pattern alone: a text is valid exactly when the phones it finds hold
every code point that is not whitespace. A Phone carries its place, its
manner and its phonation, one of the four shared Phonation constants.
"""

from __future__ import annotations

import re
import unicodedata
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple

from . import io
from .errors import (
    NotSinglePhone, NoVoicingCounterpart, OrphanDiacritic, PhonaugError, UnknownSymbol,
)

# U+0361 combining double inverted breve / U+035C combining double breve below
TIE_BARS = ("͡", "͜")

ASPIRATION = "ʰ"
BREATHY = "ʱ"
# the diacritic roles that spread the glottis; a phone carries at most one
SPREAD = ("aspiration", "breathy")

PLACES = frozenset({
    "bilabial", "labiodental", "dental", "alveolar", "retroflex",
    "postalveolar", "palatal", "velar", "uvular", "glottal", "other",
})
MANNERS = frozenset({
    "plosive", "nasal", "fricative", "affricate", "approximant",
    "trill", "tap_flap", "lateral", "vowel", "other",
})


class Phonation(NamedTuple):
    """One cell of the 2x2 voicing x spread-glottis grid."""

    voiced: bool
    spread_glottis: bool

    @property
    def name(self) -> str:
        return _PHONATION_NAMES[self.voiced, self.spread_glottis]


_PHONATION_NAMES = {(False, False): "tenuis", (False, True): "aspirated",
                    (True, False): "voiced", (True, True): "breathy"}


TENUIS = Phonation(False, False)
ASPIRATED = Phonation(False, True)
VOICED = Phonation(True, False)
BREATHY_VOICED = Phonation(True, True)
_PHONATIONS = {(p.voiced, p.spread_glottis): p
               for p in (TENUIS, ASPIRATED, VOICED, BREATHY_VOICED)}


class Phone(NamedTuple):
    """One IPA segment, as `Inventory.make_phone` builds it: base symbol (tie-bar affricates
    allowed), diacritics, the place, manner and phonation they give, and its NFC text."""

    base: str
    diacritics: tuple[str, ...]
    place: str
    manner: str
    phonation: Phonation
    text: str


class Inventory:
    """Symbol table: base symbols with features, voicing pairs and diacritic
    semantics, plus memo tables of the shared phones built from them."""

    def __init__(self, raw: dict):
        # bases, diacritics, tie bars and whitespace share no code point, so the
        # phone pattern needs no lookahead and a phone splits into base
        # and diacritics code point by code point
        self.diacritics: dict[str, str] = {
            unicodedata.normalize("NFD", k): v for k, v in raw["diacritics"].items()
        }
        for d in self.diacritics:
            if len(d) != 1 or d in TIE_BARS or d.isspace():
                raise PhonaugError(f"diacritic {d!r} must be one NFD code point, "
                                   "not a tie bar or whitespace")
        self.base_features: dict[str, tuple[str, str, bool]] = {}
        for entry in raw["phones"]:
            sym = unicodedata.normalize("NFD", entry["symbol"])
            if sym == "g":
                raise PhonaugError("inventory must use script ɡ (U+0261), not Latin g")
            if not sym or any(ch in self.diacritics or ch in TIE_BARS or ch.isspace()
                              for ch in sym):
                raise PhonaugError(f"base symbol {sym!r} must be non-empty and hold no "
                                   "diacritic, tie bar or whitespace")
            if entry["place"] not in PLACES or entry["manner"] not in MANNERS:
                raise PhonaugError(f"bad place/manner for {sym!r}")
            self.base_features[sym] = (entry["place"], entry["manner"], entry["voiced"])
        # the longest base at a point must be its only reading (as with ç and c)
        starts = {sym[0] for sym in self.base_features}
        for sym in self.base_features:
            if any(sym[:k] in self.base_features and sym[k] in starts for k in range(1, len(sym))):
                raise PhonaugError(f"base symbol {sym!r} also reads as a shorter base "
                                   "followed by another")

        self.voicing_pairs: dict[str, str] = {}
        for i, pair in enumerate(raw["voicing_pairs"]):
            if len(pair) != 2:
                raise io.FieldError(f"field 'voicing_pairs[{i}]' must hold two symbols, "
                                    f"not {pair!r}")
            voiceless, voiced = pair
            fl = self.base_features.get(voiceless)
            fv = self.base_features.get(voiced)
            if fl is None or fv is None:
                raise PhonaugError(f"voicing pair ({voiceless}, {voiced}) not in inventory")
            if fl[2] or not fv[2] or fl[:2] != fv[:2]:
                raise PhonaugError(
                    f"voicing pair ({voiceless}, {voiced}) must link a voiceless and a "
                    "voiced base with identical place and manner")
            self.voicing_pairs[voiceless] = voiced
            self.voicing_pairs[voiced] = voiceless

        # a phone's code points are its base's, its tie bar's and its diacritics':
        # deleting the diacritics leaves its base, deleting the rest its diacritics
        self._bare = str.maketrans("", "", "".join(self.diacritics))
        self._marks = str.maketrans("", "", "".join({*"".join(self.base_features), *TIE_BARS}))

        # memo tables, filled on first use
        self._phones: dict[tuple[str, tuple[str, ...]], Phone] = {}
        self._by_symbol: dict[str, Phone] = {}  # also keyed by each matched phone's NFD text
        self._rephonated: dict[tuple[str, tuple[str, ...], bool, bool], Phone] = {}
        # ctc.decode_track's: each CTC frame label met -> its NFD code points and how
        # many of them are not whitespace
        self._code_points: dict[str, tuple[str, int]] = {}

    @property
    def _phone_pattern(self) -> str:
        """The pattern of a phone, B Dn* (S Dn* (T B Dn*)? | T B Dn* (S Dn*)?)?: a
        base B, the longest first; diacritics Dn other than ʰ/ʱ; at most one ʰ/ʱ
        (S); at most one tie bar T, joining a second base."""
        def one_of(chars) -> str:
            return "[" + "".join(map(re.escape, sorted(chars))) + "]" if chars else "(?!)"

        longer = sorted((b for b in self.base_features if len(b) > 1), key=lambda b: -len(b))
        base = "(?:" + "|".join([*map(re.escape, longer),
                                 one_of([b for b in self.base_features if len(b) == 1])]) + ")"
        dn = one_of([d for d, role in self.diacritics.items() if role not in SPREAD]) + "*"
        s = one_of([d for d, role in self.diacritics.items() if role in SPREAD])
        t = one_of(TIE_BARS)
        return f"{base}{dn}(?:{s}{dn}(?:{t}{base}{dn})?|{t}{base}{dn}(?:{s}{dn})?)?"

    @cached_property
    def _phone_re(self) -> re.Pattern:
        """The phone pattern, compiled on the first read of a text. Since no base
        also reads as a shorter base followed by another, each phone it finds is
        the only reading of its code points."""
        return re.compile(self._phone_pattern)

    def _spelled(self, text: str) -> Phone:
        """The shared Phone of one match of the phone pattern, memoised by its NFD
        text. The match holds only base, tie-bar and diacritic code points, so one
        `str.translate` leaves its base and another its diacritics, in order."""
        phone = self._by_symbol[text] = self.make_phone(
            text.translate(self._bare), tuple(text.translate(self._marks)))
        return phone

    @classmethod
    def load(cls, path: str | Path) -> "Inventory":
        return io.read_json(path, cls, {
            "phones": io.ListOf({"symbol": io.STRING, "place": io.STRING, "manner": io.STRING,
                                 "voiced": io.BOOLEAN}),
            "voicing_pairs": io.ListOf(io.ListOf(io.STRING)),
            "diacritics": io.MapOf(io.STRING)})

    @classmethod
    @cache
    def default(cls) -> "Inventory":
        """The packaged inventory, one shared instance."""
        return cls.load(io.DATA / "inventory.json")

    # -- feature derivation -------------------------------------------------

    def features_of(self, base: str, diacritics: tuple[str, ...]) -> tuple[str, str, Phonation]:
        """The (place, manner, phonation) of a phone; the phonation is shared."""
        place, manner, voiced = self._base_triple(base)
        spread = False
        for d in diacritics:
            sem = self.diacritics[d]
            if sem == "voiceless":
                voiced = False
            elif sem == "dental":
                place = "dental"
            elif sem in SPREAD:
                spread = True
        return place, manner, _PHONATIONS[voiced, spread]

    def _base_triple(self, base: str) -> tuple[str, str, bool]:
        first, tie, second = base.replace(TIE_BARS[1], TIE_BARS[0]).partition(TIE_BARS[0])
        if not tie:
            return self.base_features[base]
        # tie-bar affricate: voicing from the stop component, place from the fricative
        return (self.base_features[second][0], "affricate", self.base_features[first][2])

    def make_phone(self, base: str, diacritics: tuple[str, ...] = ()) -> Phone:
        """The one shared Phone for (base, diacritics)."""
        key = (base, diacritics)
        phone = self._phones.get(key)
        if phone is None:
            # tuple's __new__ builds what Phone's does, without its Python frame
            phone = self._phones[key] = tuple.__new__(Phone, (
                base, diacritics, *self.features_of(base, diacritics),
                unicodedata.normalize("NFC", base + "".join(diacritics))))
        return phone

    def phone(self, symbol: str) -> Phone:
        """The shared Phone a symbol spells. Raises if it spells not exactly
        one phone; errors are not memoised."""
        phone = self._by_symbol.get(symbol)
        if phone is None:
            phones = tokenize_ipa(symbol, self)
            if len(phones) != 1:
                raise NotSinglePhone(symbol)
            phone = self._by_symbol[symbol] = phones[0]
        return phone

    def head(self, text: str) -> tuple[Phone, str | None] | None:
        """The first phone of tokenize_ipa(text) and the base of its second (None
        when there is none), or None where it raises or finds no phone; only these
        two phones are taken from the memo, or built."""
        text = unicodedata.normalize("NFD", text)
        found = self._phone_re.findall(text)
        if not found or "".join(found) != "".join(text.split()):
            return None
        memo = self._by_symbol
        first = memo.get(found[0]) or self._spelled(found[0])
        if len(found) == 1:
            return first, None
        return first, (memo.get(found[1]) or self._spelled(found[1])).base


def tokenize_ipa(s: str, inventory: Inventory | None = None) -> list[Phone]:
    """Segment an IPA string into the phones that Inventory._phone_re finds in its
    NFD code points, which must hold all but whitespace. A fault (unknown code point,
    leading or doubled mark, chained tie bar) is a hard error, never skipped."""
    inv = inventory or Inventory.default()
    text = unicodedata.normalize("NFD", s)
    found = inv._phone_re.findall(text)
    if "".join(found) != "".join(text.split()):
        raise _first_fault(text, inv)
    memo = inv._by_symbol
    return [memo.get(p) or inv._spelled(p) for p in found]


def _first_fault(text: str, inv: Inventory) -> PhonaugError:
    """The error at the first code point, not whitespace, that no phone holds."""
    phone_re = inv._phone_re
    blanked = phone_re.sub(lambda m: " " * len(m[0]), text)
    i = len(blanked) - len(blanked.lstrip())
    ch = text[i]
    if ch not in inv.diacritics and ch not in TIE_BARS:
        return UnknownSymbol(ch, i)
    if i == 0 or text[i - 1].isspace():  # nothing to attach to
        return OrphanDiacritic(ch, i)
    if ch not in TIE_BARS:  # the phone before it refused a spread mark: it has one
        return PhonaugError(f"phone carries more than one of ʰ/ʱ at offset {i}")
    last = phone_re.findall(text, 0, i)[-1]
    if any(tie in last for tie in TIE_BARS) and phone_re.match(text, i + 1):
        return PhonaugError(f"phone carries more than one tie bar at offset {i}")
    return OrphanDiacritic(ch, i)  # no base follows the tie bar


def serialize(phones: list[Phone]) -> str:
    """Inverse of tokenize_ipa: NFC concatenation with no separators."""
    return unicodedata.normalize("NFC", "".join(p.base + "".join(p.diacritics) for p in phones))


def phonation_of(p: Phone) -> Phonation:
    return p.phonation


def with_phonation(p: Phone, target: Phonation, inventory: Inventory | None = None) -> Phone:
    """Rewrite a plosive's phonation, keeping its place and manner.

    The base is swapped within its voicing pair to match target.voiced; ʰ/ʱ
    are set from target.spread_glottis; all other diacritics survive, except
    that a voiceless ring is dropped when the target is voiced (it would
    override the swap).
    """
    inv = inventory or Inventory.default()
    key = (p.base, p.diacritics, target.voiced, target.spread_glottis)
    out = inv._rephonated.get(key)
    if out is None:
        out = inv._rephonated[key] = _rephonate(p, target, inv)
    return out


def _rephonate(p: Phone, target: Phonation, inv: Inventory) -> Phone:
    if p.base not in inv.voicing_pairs:
        raise NoVoicingCounterpart(f"{p.base!r} has no voicing counterpart")
    base = p.base
    if inv.base_features[base][2] != target.voiced:
        base = inv.voicing_pairs[base]
    kept = []
    for d in p.diacritics:
        sem = inv.diacritics[d]
        if sem not in SPREAD and not (sem == "voiceless" and target.voiced):
            kept.append(d)
    if target.spread_glottis:
        kept.append(BREATHY if target.voiced else ASPIRATION)
    return inv.make_phone(base, tuple(kept))
