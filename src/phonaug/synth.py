"""Synthetic paired RM/HM tracks with known ground truth.

Lets the matcher, augmenter and metrics be exercised without audio or trained
models. Filler vowels are drawn from a set that never appears in the mapping
table, so fixtures isolate plosive behavior. Generation is a pure function of
the scenario spec: each utterance gets its own child RNG seeded from
(seed, index), so
utterances could be generated in parallel without changing the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from pathlib import Path

from . import io
from .ctc import PhoneTrack, TimedPhone
from .errors import PhonaugError
from .inventory import (
    ASPIRATED, BREATHY_VOICED, VOICED, Inventory, Phonation, phonation_of, with_phonation,
)

RM_PLOSIVES = ("p", "t", "k", "b", "d", "ɡ")
FILLER_VOWELS = ("a", "e", "i", "o", "u")

SPAN_FRAMES = 4


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    n_utterances: int
    plosive_rate: float = 0.5
    hm_aspiration_rate: float = 0.3
    hm_voicing_rate: float = 0.2
    hm_breathy_rate: float = 0.1
    jitter: int = 0
    drop_rate: float = 0.0

    def __post_init__(self):
        rates = (self.plosive_rate, self.hm_aspiration_rate, self.hm_voicing_rate,
                 self.hm_breathy_rate, self.drop_rate)
        if any(not 0 <= r <= 1 for r in rates):
            raise PhonaugError("all rates must be probabilities in [0, 1]")
        if self.hm_aspiration_rate + self.hm_voicing_rate + self.hm_breathy_rate > 1:
            raise PhonaugError("HM phonation rates must sum to at most 1")
        if self.jitter < 0:
            raise PhonaugError("jitter must be non-negative")
        if self.n_utterances < 0:
            raise PhonaugError("n_utterances must be non-negative")

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        kinds = {f.name: io.INTEGER if f.type == "int" else io.NUMBER for f in fields(cls)}
        return io.read_json(path, lambda obj: cls(**obj), {
            name: kind if name in ("seed", "n_utterances") else io.Optional(kind)
            for name, kind in kinds.items()})


@dataclass(frozen=True)
class GroundTruthMatch:
    utt_id: str
    rm_index: int
    hm_index: int
    phonation: Phonation

    def to_obj(self) -> dict:
        return {"utt_id": self.utt_id, "rm_index": self.rm_index,
                "hm_index": self.hm_index, "phonation": self.phonation.name}


def generate(spec: ScenarioSpec, inventory: Inventory | None = None,
             ) -> tuple[list[PhoneTrack], list[PhoneTrack], list[GroundTruthMatch]]:
    """Generate RM tracks, mirrored HM tracks and the intended match list."""
    inv = inventory or Inventory.default()
    pitch = SPAN_FRAMES + 2 * spec.jitter  # slot spacing keeps jittered starts ordered
    rm_tracks: list[PhoneTrack] = []
    hm_tracks: list[PhoneTrack] = []
    truth: list[GroundTruthMatch] = []

    for u in range(spec.n_utterances):
        utt_id = f"synth-{u:06d}"
        rng = random.Random(f"{spec.seed}:{u}")
        n_phones = rng.randint(3, 8)
        rm_phones: list[TimedPhone] = []
        hm_phones: list[TimedPhone] = []
        for i in range(n_phones):
            start = i * pitch
            end = start + SPAN_FRAMES - 1
            if rng.random() < spec.plosive_rate:
                rm_phone = inv.make_phone(rng.choice(RM_PLOSIVES))
                rm_phones.append(TimedPhone(rm_phone, start, end))
                if rng.random() < spec.drop_rate:
                    hm_phone = inv.make_phone(rng.choice(FILLER_VOWELS))
                else:
                    target = _draw_phonation(rng, spec, phonation_of(rm_phone))
                    hm_phone = with_phonation(rm_phone, target, inv)
                    truth.append(GroundTruthMatch(utt_id, i, i, target))
            else:
                rm_phone = inv.make_phone(rng.choice(FILLER_VOWELS))
                rm_phones.append(TimedPhone(rm_phone, start, end))
                hm_phone = rm_phone
            shift = rng.randint(-spec.jitter, spec.jitter) if spec.jitter else 0
            hm_start = max(0, start + shift)
            hm_phones.append(TimedPhone(hm_phone, hm_start, hm_start + SPAN_FRAMES - 1))
        rm_tracks.append(PhoneTrack(utt_id, "RM", rm_phones, 20.0))
        hm_tracks.append(PhoneTrack(utt_id, "HM", hm_phones, 20.0))
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
