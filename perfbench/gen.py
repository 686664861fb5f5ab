"""Seeded input generators for the phonaug benchmark.

Every file the program under test reads is written here, from a
``random.Random`` seeded by the workload seed. The generators do not import
phonaug: the inputs of a seed stay the same whatever version of the program is
measured, so a parent and a child commit always see the same bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Synth corpus shape shared by `corpus` (as a ScenarioSpec) and `decode-long`
# (rebuilt here): 3-8 phones per utterance, half of them plosives.
RM_PLOSIVES = ("p", "t", "k", "b", "d", "ɡ")
VOWELS = ("a", "e", "i", "o", "u")
VOICED_OF = {"p": "b", "t": "d", "k": "ɡ"}
VOICELESS_OF = {v: k for k, v in VOICED_OF.items()}

FRAME_MS = 10.0
BLANK = "_"


def dump_line(obj: dict) -> str:
    """The program's own JSONL layout: sorted keys, compact separators, UTF-8."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def write_lines(path: Path, objs) -> None:
    path.write_text("".join(dump_line(o) + "\n" for o in objs), encoding="utf-8")


# -- corpus -------------------------------------------------------------------


def corpus_spec(seed: int, n_utterances: int) -> dict:
    """Paper-like synth scenario: default phonation rates, 1-frame jitter and a
    10 % HM drop rate, so the matcher sees offsets and missing partners."""
    return {"seed": seed, "n_utterances": n_utterances, "jitter": 1, "drop_rate": 0.1}


# -- decode-long --------------------------------------------------------------


def _hm_symbol(rng: random.Random, rm_symbol: str) -> str:
    """HM phonation for an RM plosive, at synth's default rates."""
    u = rng.random()
    voiceless = VOICELESS_OF.get(rm_symbol, rm_symbol)
    if u < 0.3:
        return voiceless + "ʰ"
    if u < 0.5:
        return VOICED_OF[voiceless]
    if u < 0.6:
        return VOICED_OF[voiceless] + "ʱ"
    return rm_symbol


def _phone_sequences(rng: random.Random) -> tuple[list[str], list[str]]:
    rm, hm = [], []
    for _ in range(rng.randint(3, 8)):
        if rng.random() < 0.5:
            sym = rng.choice(RM_PLOSIVES)
            rm.append(sym)
            hm.append(rng.choice(VOWELS) if rng.random() < 0.1 else _hm_symbol(rng, sym))
        else:
            sym = rng.choice(VOWELS)
            rm.append(sym)
            hm.append(sym)
    return rm, hm


def _stretch(rng: random.Random, symbols: list[str], min_frames: int, max_frames: int,
             ) -> tuple[list[str], list[dict]]:
    """Frame labels for a phone sequence and the track `decode` must return.

    Each phone covers min..max frames and is followed by 1-4 blank frames, so
    repeated phones stay distinct. A phone with a diacritic is emitted either
    as one token or as its base followed by the diacritic token; both decode
    to the same phone spanning both runs.
    """
    labels = [BLANK] * rng.randint(0, 3)
    phones = []
    for sym in symbols:
        n = rng.randint(min_frames, max_frames)
        start = len(labels)
        if len(sym) > 1 and rng.random() < 0.5:
            cut = rng.randint(1, n - 1)
            labels += [sym[0]] * cut + [sym[1:]] * (n - cut)
        else:
            labels += [sym] * n
        phones.append({"end": len(labels) - 1, "start": start, "symbol": sym})
        labels += [BLANK] * rng.randint(1, 4)
    return labels, phones


def write_frame_paths(work: Path, seed: int, n_utterances: int,
                      min_frames: int = 6, max_frames: int = 26) -> dict[str, bytes]:
    """Write rm_paths.jsonl and hm_paths.jsonl (sorted by utt_id, 10 ms frames)
    and return the exact bytes `decode` must produce for each, keyed by the
    decoded file name."""
    rng = random.Random(f"decode-long:{seed}")
    paths = {"RM": [], "HM": []}
    tracks = {"RM": [], "HM": []}
    for u in range(n_utterances):
        utt_id = f"long-{u:06d}"
        for tag, symbols in zip(("RM", "HM"), _phone_sequences(rng)):
            labels, phones = _stretch(rng, symbols, min_frames, max_frames)
            paths[tag].append({"utt_id": utt_id, "frame_ms": FRAME_MS, "blank": BLANK,
                               "labels": labels})
            tracks[tag].append({"utt_id": utt_id, "model": tag, "frame_ms": FRAME_MS,
                                "phones": phones})
    expected = {}
    for tag in ("RM", "HM"):
        write_lines(work / f"{tag.lower()}_paths.jsonl", paths[tag])
        expected[f"{tag.lower()}.jsonl"] = "".join(
            dump_line(t) + "\n" for t in tracks[tag]).encode("utf-8")
    return expected


# -- evaluate-mixed -------------------------------------------------------------

PAIR = {"p": ("p", "b"), "b": ("p", "b"), "t": ("t", "d"), "d": ("t", "d"),
        "k": ("k", "ɡ"), "g": ("k", "ɡ")}
# palatal stops and homorganic affricates are admissible places for the target
EXTRA_BASES = {"p": (), "t": ("t͡s", "d͡z"), "k": ("c", "ɟ", "k͡x")}
WRONG_PLACE = {"p": ("t", "k", "q", "ʔ", "ʈ", "d"), "t": ("p", "k", "q", "ʈ", "t͡ʃ", "ɡ"),
               "k": ("p", "t", "q", "ʈ", "ɢ", "b")}
WRONG_MANNER = {"p": ("m", "ɸ", "β", "w", "ʙ"), "t": ("n", "s", "z", "l", "r", "ɾ"),
                "k": ("ŋ", "x", "ɣ", "ɰ")}
# the default continuants table: followers that make a tenuis stop ambiguous
CONTINUANTS = {"p": ("ɸ", "h"), "t": ("s", "θ", "h"), "k": ("x", "ç", "h")}
SPREAD = ("ʰ", "ʱ")
OTHER_DIACRITICS = ("̥", "̊", "̪", "ː", "ʲ", "ʷ", "̚", "̃", "ˤ")
UNTOKENIZABLE = ("", "g", "7", "?", "ʰ", "̪", "͡", "k͡", "pQ", "tʰʱ", "aʰ ", "d!")
GROUP = {"p": "p", "b": "p", "t": "t", "d": "t", "k": "k", "g": "k"}
TAIL_PHONES = VOWELS + ("ə", "ɪ", "ʊ", "ɛ", "ɔ", "m", "n", "l", "r", "j", "w")


def _core(rng: random.Random, group: str) -> str:
    """The onset phone: voicing-pair base x diacritic combination, or a
    wrong-place, wrong-manner or untokenizable string (all Null)."""
    u = rng.random()
    if u < 0.70:
        base = rng.choice(PAIR[group] + EXTRA_BASES[group])
        marks = rng.sample(OTHER_DIACRITICS, rng.choice((0, 1, 1, 2, 3)))
        if rng.random() < 0.45:
            marks.append(rng.choice(SPREAD))
        rng.shuffle(marks)
        return base + "".join(marks)
    if u < 0.80:
        return rng.choice(WRONG_PLACE[group])
    if u < 0.90:
        return rng.choice(WRONG_MANNER[group])
    return rng.choice(UNTOKENIZABLE)


def _tail(rng: random.Random, group: str) -> str:
    """What the prediction has after the onset phone: an optional homorganic
    continuant, then up to two more phones."""
    tail = rng.choice(CONTINUANTS[group]) if rng.random() < 0.4 else ""
    return tail + "".join(rng.choice(TAIL_PHONES) for _ in range(rng.choice((0, 1, 1, 2))))


def _vot(rng: random.Random, phoneme: str) -> float:
    if phoneme in ("b", "d", "g"):
        return round(rng.gauss(-30.0, 45.0), 1)
    return round(rng.gauss(45.0, 30.0), 1)


# Share of utterances whose TM onset phone is drawn afresh rather than copied
# from BM (the rest of the prediction always is): augmentation changes a
# minority of onset phones, and the voicing flag depends on that phone alone.
# This also keeps the discordant voicing pairs in the hundreds; `evaluate`
# currently fails with OverflowError in mcnemar_exact from about a thousand.
TM_REDRAW = 0.1


def write_instances(work: Path, seed: int, n_utterances: int) -> None:
    """Write instances.jsonl: one BM and one TM instance per utt_id, so the
    McNemar pairing in `evaluate` runs over every utterance."""
    rng = random.Random(f"evaluate-mixed:{seed}")
    objs = []
    for u in range(n_utterances):
        utt_id = f"eval-{u:06d}"
        phoneme = rng.choice(("p", "t", "k", "b", "d", "g"))
        group = GROUP[phoneme]
        vot = _vot(rng, phoneme)
        bm = _core(rng, group)
        tm = _core(rng, group) if rng.random() < TM_REDRAW else bm
        for model, core in (("BM", bm), ("TM", tm)):
            onset = core + _tail(rng, group) if core not in UNTOKENIZABLE else core
            objs.append({"utt_id": utt_id, "phoneme": phoneme, "vot_ms": vot,
                         "onset": onset, "model": model})
    write_lines(work / "instances.jsonl", objs)
