"""Synthetic paired RM/HM tracks with known ground truth.

Lets the matcher, augmenter and metrics be exercised without audio or trained
models. Filler vowels are drawn from a set that never appears in the mapping
table, so fixtures isolate plosive behavior. Generation is a pure function of
the scenario spec: each utterance draws from its own child RNG state, seeded
from (seed, index) by reseeding one Random, so utterances could be generated in
parallel without changing the output. Each integer draw (a phone count, a
phone, an HM shift) is one `_below` call, which makes the getrandbits draws
that `Random.choice` and `Random.randint` make on CPython 3.10-3.13, so it
gives their values; every other draw is `Random.random`. `utterances` yields
the utterances one at a time, so `write`, which `phonaug synth` calls, writes
each as it is made and holds no more than one in memory.
"""

from __future__ import annotations

import random
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, TextIO, get_type_hints

from . import io
from .ctc import PhoneTrack, TimedPhone, track_line
from .errors import PhonaugError, checked_make
from .inventory import (
    ASPIRATED, BREATHY_VOICED, VOICED, Inventory, Phonation, phonation_of, with_phonation,
)

RM_PLOSIVES = ("p", "t", "k", "b", "d", "ɡ")
FILLER_VOWELS = ("a", "e", "i", "o", "u")

SPAN_FRAMES = 4


class _SpecFields(NamedTuple):
    seed: int
    n_utterances: int
    plosive_rate: float = 0.5
    hm_aspiration_rate: float = 0.3
    hm_voicing_rate: float = 0.2
    hm_breathy_rate: float = 0.1
    jitter: int = 0
    drop_rate: float = 0.0


class ScenarioSpec(_SpecFields):
    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, *args, **kwargs) -> "ScenarioSpec":
        self = super().__new__(cls, *args, **kwargs)
        rates = (self.plosive_rate, self.hm_aspiration_rate, self.hm_voicing_rate,
                 self.hm_breathy_rate, self.drop_rate)
        if any(not 0 <= r <= 1 for r in rates):
            raise PhonaugError("all rates must be probabilities in [0, 1]")
        if self.hm_aspiration_rate + self.hm_voicing_rate + self.hm_breathy_rate > 1:
            raise PhonaugError("HM phonation rates must sum to at most 1")
        if not isinstance(self.jitter, int):  # a spec file's is; one built in code may not be
            raise PhonaugError(f"jitter must be an integer, got {io.shown(self.jitter)}")
        if self.jitter < 0:
            raise PhonaugError("jitter must be non-negative")
        if self.n_utterances < 0:
            raise PhonaugError("n_utterances must be non-negative")
        return self

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        kind = {int: io.INTEGER, float: io.NUMBER}  # a field with a default may be absent
        return io.read_json(path, lambda obj: cls(**obj), {
            name: io.Optional(kind[t]) if name in cls._field_defaults else kind[t]
            for name, t in get_type_hints(cls).items()})


class GroundTruthMatch(NamedTuple):
    utt_id: str
    rm_index: int
    hm_index: int
    phonation: Phonation


def truth_line(t: GroundTruthMatch) -> str:
    """The line of `t` in a truth file, without its newline: the JSON object of
    its utt_id, rm_index, hm_index and phonation name, formatted in sorted key
    order, as `ctc.track_line` formats a track. A phonation name is a lowercase
    ASCII word, which JSON spells as it is."""
    return (f'{{"hm_index":{t.hm_index},"phonation":"{t.phonation.name}",'
            f'"rm_index":{t.rm_index},"utt_id":{encode_basestring(t.utt_id)}}}')


def utterances(spec: ScenarioSpec, inventory: Inventory | None = None,
               ) -> Iterator[tuple[PhoneTrack, PhoneTrack, list[GroundTruthMatch]]]:
    """Yield each utterance's RM track, mirrored HM track and intended matches,
    in utt_id order, one utterance at a time. An inventory that lacks a symbol
    they draw fails before the first utterance; one that lacks a voicing pair fails
    where the pair is first needed."""
    inv = inventory or Inventory.default()
    for symbol in RM_PLOSIVES + FILLER_VOWELS:
        if symbol not in inv.base_features:
            raise PhonaugError(f"synth draws {symbol!r}, which the inventory lacks")
    jitter = spec.jitter
    pitch = SPAN_FRAMES + 2 * jitter  # slot spacing keeps jittered starts ordered
    shifts = 2 * jitter + 1  # randint(-jitter, jitter) draws below this
    new = tuple.__new__  # builds what a NamedTuple's __new__ does, without its Python frame
    plosives = [inv.make_phone(s) for s in RM_PLOSIVES]
    vowels = [inv.make_phone(s) for s in FILLER_VOWELS]
    n_plosives, n_vowels = len(plosives), len(vowels)
    rng = random.Random()  # reseeded per utterance: seed() sets what Random() would
    bits, draw = rng.getrandbits, rng.random

    for u in range(spec.n_utterances):
        utt_id = f"synth-{u:06d}"
        rng.seed(f"{spec.seed}:{u}")
        n_phones = 3 + _below(bits, 6)  # randint(3, 8)
        rm_phones: list[TimedPhone] = []
        hm_phones: list[TimedPhone] = []
        truths: list[GroundTruthMatch] = []
        for i in range(n_phones):
            start = i * pitch
            end = start + SPAN_FRAMES - 1
            if draw() < spec.plosive_rate:
                rm_phone = plosives[_below(bits, n_plosives)]
                if draw() < spec.drop_rate:
                    hm_phone = vowels[_below(bits, n_vowels)]
                else:
                    target = _draw_phonation(rng, spec, phonation_of(rm_phone))
                    hm_phone = with_phonation(rm_phone, target, inv)
                    truths.append(new(GroundTruthMatch, (utt_id, i, i, target)))
            else:
                rm_phone = hm_phone = vowels[_below(bits, n_vowels)]
            rm_phones.append(new(TimedPhone, (rm_phone, start, end)))
            shift = _below(bits, shifts) - jitter if jitter else 0
            hm_start = max(0, start + shift)
            hm_phones.append(new(TimedPhone, (hm_phone, hm_start, hm_start + SPAN_FRAMES - 1)))
        # each span starts in its own slot of `pitch` frames, within `jitter` of the
        # slot's start, so the spans are ordered as PhoneTrack requires; the utt_id,
        # the tags and frame_ms are valid
        yield (new(PhoneTrack, (utt_id, "RM", rm_phones, 20.0)),
               new(PhoneTrack, (utt_id, "HM", hm_phones, 20.0)), truths)


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A random int in [0, n), n > 0, drawn as `Random._randbelow` draws it on
    CPython 3.10-3.13 for `choice` of n items and `randint` over n values:
    `getrandbits` of n's bit length, redrawn until it is below n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def write(spec: ScenarioSpec, inventory: Inventory, rm_out: TextIO, hm_out: TextIO,
          truth_out: TextIO | None) -> None:
    """Write each utterance's RM track line, HM track line and, unless `truth_out` is
    None, truth lines to the outputs that `io.replacing` opened, as it is made."""
    for rm, hm, truths in utterances(spec, inventory):
        rm_out.write(track_line(rm) + "\n")
        hm_out.write(track_line(hm) + "\n")
        if truth_out is not None:
            io.write_lines(truth_out, truths, truth_line)


def generate(spec: ScenarioSpec, inventory: Inventory | None = None,
             ) -> tuple[list[PhoneTrack], list[PhoneTrack], list[GroundTruthMatch]]:
    """Generate RM tracks, mirrored HM tracks and the intended match list: what
    `utterances` yields, collected."""
    rm_tracks: list[PhoneTrack] = []
    hm_tracks: list[PhoneTrack] = []
    truth: list[GroundTruthMatch] = []
    for rm, hm, truths in utterances(spec, inventory):
        rm_tracks.append(rm)
        hm_tracks.append(hm)
        truth.extend(truths)
    return rm_tracks, hm_tracks, truth


def _draw_phonation(rng: random.Random, spec: ScenarioSpec, current: Phonation) -> Phonation:
    u = rng.random()
    if u < spec.hm_aspiration_rate:
        return ASPIRATED
    if u < spec.hm_aspiration_rate + spec.hm_voicing_rate:
        return VOICED
    if u < spec.hm_aspiration_rate + spec.hm_voicing_rate + spec.hm_breathy_rate:
        return BREATHY_VOICED
    return current
