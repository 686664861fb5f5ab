"""IPA phone inventory: tokenization, serialization and phonation rewriting.

The inventory ships as a JSON data file (see data/inventory.json) so new
languages can extend it without touching code. All functions are pure. An
Inventory's symbol tables never change after loading; its only mutable state is
memo tables (one shared Phone per (base, diacritics), per single-phone symbol
and per phonation rewrite) whose contents never change a result, so everything
here is safe to share across workers.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path

from .errors import (
    NotSinglePhone, NoVoicingCounterpart, OrphanDiacritic, PhonaugError, UnknownSymbol,
)

# U+0361 combining double inverted breve / U+035C combining double breve below
TIE_BARS = ("͡", "͜")

ASPIRATION = "ʰ"
BREATHY = "ʱ"

PLACES = frozenset({
    "bilabial", "labiodental", "dental", "alveolar", "retroflex",
    "postalveolar", "palatal", "velar", "uvular", "glottal", "other",
})
MANNERS = frozenset({
    "plosive", "nasal", "fricative", "affricate", "approximant",
    "trill", "tap_flap", "lateral", "vowel", "other",
})


@dataclass(frozen=True)
class Phonation:
    """One cell of the 2x2 voicing x spread-glottis grid."""

    voiced: bool
    spread_glottis: bool

    @property
    def name(self) -> str:
        return {
            (False, False): "tenuis",
            (False, True): "aspirated",
            (True, False): "voiced",
            (True, True): "breathy",
        }[(self.voiced, self.spread_glottis)]


TENUIS = Phonation(False, False)
ASPIRATED = Phonation(False, True)
VOICED = Phonation(True, False)
BREATHY_VOICED = Phonation(True, True)


@dataclass(frozen=True)
class PhoneFeatures:
    place: str
    manner: str
    phonation: Phonation


@dataclass(frozen=True)
class Phone:
    """One IPA segment: base symbol (tie-bar affricates allowed), ordered
    diacritics, and the articulatory features derived from both."""

    base: str
    diacritics: tuple[str, ...]
    features: PhoneFeatures

    @cached_property
    def text(self) -> str:
        return unicodedata.normalize("NFC", self.base + "".join(self.diacritics))


class Inventory:
    """Symbol table: base symbols with features, voicing pairs and diacritic
    semantics, plus memo tables of the shared phones built from them."""

    def __init__(self, raw: dict):
        self.base_features: dict[str, tuple[str, str, bool]] = {}
        for entry in raw["phones"]:
            sym = unicodedata.normalize("NFD", entry["symbol"])
            if sym == "g":
                raise PhonaugError("inventory must use script ɡ (U+0261), not Latin g")
            if entry["place"] not in PLACES or entry["manner"] not in MANNERS:
                raise PhonaugError(f"bad place/manner for {sym!r}")
            self.base_features[sym] = (entry["place"], entry["manner"], bool(entry["voiced"]))

        self.diacritics: dict[str, str] = {
            unicodedata.normalize("NFD", k): v for k, v in raw["diacritics"].items()
        }
        # NFD-unstable symbols (e.g. ç -> c + cedilla) make base keys span
        # several code points; the tokenizer munches the longest match
        self.max_base_len = max(len(k) for k in self.base_features)

        self.voicing_pairs: dict[str, str] = {}
        for voiceless, voiced in raw["voicing_pairs"]:
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

        # memo tables, filled on first use
        self._phones: dict[tuple[str, tuple[str, ...]], Phone] = {}
        self._by_symbol: dict[str, Phone] = {}
        self._rephonated: dict[tuple[str, tuple[str, ...], bool, bool], Phone] = {}

    @classmethod
    def load(cls, path: str | Path) -> "Inventory":
        with open(path, encoding="utf-8") as f:
            return cls(json.load(f))

    @classmethod
    def default(cls) -> "Inventory":
        return _default_inventory()

    # -- feature derivation -------------------------------------------------

    def features_of(self, base: str, diacritics: tuple[str, ...]) -> PhoneFeatures:
        place, manner, voiced = self._base_triple(base)
        spread = False
        for d in diacritics:
            sem = self.diacritics[d]
            if sem == "voiceless":
                voiced = False
            elif sem == "dental":
                place = "dental"
            elif sem in ("aspiration", "breathy"):
                spread = True
        return PhoneFeatures(place, manner, Phonation(voiced, spread))

    def _base_triple(self, base: str) -> tuple[str, str, bool]:
        for tie in TIE_BARS:
            if tie in base:
                # tie-bar affricate: voicing from the stop component, place
                # from the fricative component
                first, _, second = base.partition(tie)
                f1 = self.base_features[first]
                f2 = self.base_features[second]
                return (f2[0], "affricate", f1[2])
        return self.base_features[base]

    def make_phone(self, base: str, diacritics: tuple[str, ...] = ()) -> Phone:
        """The one shared Phone for (base, diacritics)."""
        key = (base, diacritics)
        phone = self._phones.get(key)
        if phone is None:
            phone = self._phones[key] = Phone(base, diacritics,
                                              self.features_of(base, diacritics))
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


@lru_cache(maxsize=1)
def _default_inventory() -> Inventory:
    data = resources.files("phonaug.data").joinpath("inventory.json").read_text("utf-8")
    return Inventory(json.loads(data))


def normalize_g(s: str) -> str:
    """Replace every Latin small g (U+0067) with script g (U+0261)."""
    return s.replace("g", "ɡ")


def tokenize_ipa(s: str, inventory: Inventory | None = None) -> list[Phone]:
    """Segment an IPA string into phones.

    Maximal-munch over NFD code points: combining/modifier diacritics attach
    to the preceding base, tie bars join the next base into an affricate, and
    whitespace splits phones. Unknown code points and leading diacritics are
    hard errors (never silently skipped).
    """
    inv = inventory or Inventory.default()
    text = unicodedata.normalize("NFD", s)
    phones: list[Phone] = []
    base: str | None = None
    diacritics: list[str] = []
    pending_tie: tuple[str, int] | None = None

    def flush():
        nonlocal base, diacritics
        if base is not None:
            phones.append(inv.make_phone(base, tuple(diacritics)))
        base = None
        diacritics = []

    def munch_base(i: int) -> str | None:
        for length in range(min(inv.max_base_len, len(text) - i), 0, -1):
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
                base = base + pending_tie[0] + matched  # type: ignore[operator]
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


def serialize(phones: list[Phone]) -> str:
    """Inverse of tokenize_ipa: NFC concatenation with no separators."""
    return unicodedata.normalize("NFC", "".join(p.base + "".join(p.diacritics) for p in phones))


def phonation_of(p: Phone) -> Phonation:
    return p.features.phonation


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
        if sem in ("aspiration", "breathy"):
            continue
        if sem == "voiceless" and target.voiced:
            continue
        kept.append(d)
    if target.spread_glottis:
        kept.append(BREATHY if target.voiced else ASPIRATION)
    return inv.make_phone(base, tuple(kept))
