"""Every command of the CLI, with inputs to run it on, for tests that run each
command as its own process, as a shell would.

    write_inputs(d, 60)
    for args in COMMANDS:
        subprocess.run([sys.executable, "-m", "phonaug.cli", *args], cwd=d, env=child_env())

`write_inputs` writes a synth spec of `n` utterances, frame paths and BM/TM
instances made from the same corpus, and a manifest of `n` records with the
vocabulary and remap config that `prepare` reads. COMMANDS runs in order: a
command reads only the inputs and what an earlier command wrote.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

from phonaug import Inventory, ScenarioSpec, generate
from phonaug import io as phonaug_io

INV = Inventory.default()
COMMANDS = [
    ["synth", "spec.json", "--rm-out", "rm.jsonl", "--hm-out", "hm.jsonl",
     "--truth-out", "truth.jsonl"],
    ["augment", "rm.jsonl", "hm.jsonl", "tm.jsonl", "--stats-file", "stats.json"],
    ["prefilter-aspiration", "rm.jsonl", "hm.jsonl", "--out", "selected.txt"],
    ["decode", "paths.jsonl", "decoded.jsonl"],
    ["evaluate", "instances.jsonl", "--out-prefix", "report"],
    ["prepare", "filter", "manifest.jsonl", "filtered.jsonl", "--max-downvotes", "1"],
    ["prepare", "sample", "manifest.jsonl", "sampled.jsonl", "--n", "10", "--seed", "3"],
    ["prepare", "split", "manifest.jsonl", "--fraction", "0.25", "--seed", "3",
     "--train-out", "train.jsonl", "--valid-out", "valid.jsonl"],
    ["prepare", "remap", "manifest.jsonl", "remapped.jsonl", "--config", "remap.json",
     "--report-file", "remap_report.jsonl"],
    ["prepare", "onset-testset", "manifest.jsonl", "onsets.jsonl", "--per-phoneme-n", "2",
     "--seed", "3"],
    ["prepare", "clean-vocab", "vocab.json", "manifest.jsonl", "vocab_out.json",
     "--remove", "q", "--add", "ʰ"],
]
# a transcription to keep, to rewrite ("x"), to drop by the exclude pattern ("!")
# and to drop as untokenizable ("7")
TRANSCRIPTIONS = ("ta", "kʰa", "bxa", "da!", "ɡa", "p7")


def name(args: list[str]) -> str:
    """A command's name: `decode`, or `prepare filter` for a `prepare` command."""
    return " ".join(args[:2] if args[0] == "prepare" else args[:1])


def child_env(hash_seed: str = "0") -> dict[str, str]:
    """The environment of a child that runs this checkout's phonaug, under
    PYTHONHASHSEED=hash_seed."""
    src = str(Path(phonaug_io.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed,
            "PYTHONDONTWRITEBYTECODE": "1"}


def write_inputs(d: Path, n: int) -> None:
    """The inputs of COMMANDS in `d`. The frame paths hold each synth phone for two
    frames, then a blank; where an utterance starts with a plosive, its first two
    phones are an onset, RM's as BM and HM's as TM. Most manifest records are
    analyzable, and their sentences start with each letter of "bdgptkma" in turn."""
    spec = {"seed": 4, "n_utterances": n, "jitter": 1, "drop_rate": 0.1}
    (d / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    rm_tracks, hm_tracks, _ = generate(ScenarioSpec(**spec), INV)
    paths, instances, rng = [], [], random.Random(4)
    for rm, hm in zip(rm_tracks, hm_tracks):
        paths.append({"utt_id": rm.utt_id, "frame_ms": 20.0, "blank": "_", "labels": [
            f for tp in rm.phones for f in (tp.phone.text,) * 2 + ("_",)]})
        phoneme = rm.phones[0].phone.base.replace("ɡ", "g")
        if phoneme not in phonaug_io.TARGET_PHONEMES:
            continue
        for model, track in (("BM", rm), ("TM", hm)):
            instances.append({"utt_id": rm.utt_id, "model": model, "phoneme": phoneme,
                              "vot_ms": rng.uniform(-120, 120),
                              "onset": "".join(tp.phone.text for tp in track.phones[:2])})
    records = [{"utt_id": f"m{i:04d}", "sentence": f"{'bdgptkma'[i % 8]}all {i}",
                "transcription": TRANSCRIPTIONS[i % len(TRANSCRIPTIONS)],
                "downvotes": i % 3, "analyzable": i % 5 != 4} for i in range(n)]
    for file, objs in (("paths.jsonl", paths), ("instances.jsonl", instances),
                       ("manifest.jsonl", records)):
        (d / file).write_text("".join(phonaug_io.dump_line(o) + "\n" for o in objs),
                              encoding="utf-8")
    (d / "remap.json").write_text(json.dumps({"remap": {"x": "a"}, "exclude": ["!"]}),
                                  encoding="utf-8")
    (d / "vocab.json").write_text(json.dumps(
        {"tokens": {"_": 0, "t": 1, "a": 2, "k": 3, "q": 4, "b": 5}}), encoding="utf-8")
