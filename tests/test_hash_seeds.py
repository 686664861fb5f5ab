"""Every output of the pipeline is the same under every hash seed: no set or dict
of strings decides an order or a count that reaches a file. Each command runs as
its own process, which draws its own hash seed, as a shell would run it."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from phonaug import Inventory, ScenarioSpec, generate
from phonaug import io as phonaug_io

INV = Inventory.default()
SPEC = {"seed": 4, "n_utterances": 60, "jitter": 1, "drop_rate": 0.1}
COMMANDS = [
    ["synth", "spec.json", "--rm-out", "rm.jsonl", "--hm-out", "hm.jsonl",
     "--truth-out", "truth.jsonl"],
    ["augment", "rm.jsonl", "hm.jsonl", "tm.jsonl", "--stats-file", "stats.json"],
    ["prefilter-aspiration", "rm.jsonl", "hm.jsonl", "--out", "selected.txt"],
    ["decode", "paths.jsonl", "decoded.jsonl"],
    ["evaluate", "instances.jsonl", "--out-prefix", "report"],
]


def write_inputs(d: Path) -> None:
    """The spec, and frame paths and BM/TM instances made from the same synth
    corpus: each phone held for two frames, then a blank; and, where an utterance
    starts with a plosive, its first two phones as an onset, RM's as BM and HM's
    as TM."""
    (d / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    rm_tracks, hm_tracks, _ = generate(ScenarioSpec(**SPEC), INV)
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
    for name, objs in (("paths.jsonl", paths), ("instances.jsonl", instances)):
        (d / name).write_text("".join(phonaug_io.dump_line(o) + "\n" for o in objs),
                              encoding="utf-8")


def run_pipeline(inputs: Path, d: Path, hash_seed: str) -> dict[str, bytes]:
    """Every file in `d` and each command's stdout and stderr, after the pipeline
    ran in `d` on copies of the inputs under PYTHONHASHSEED=hash_seed."""
    d.mkdir()
    for f in inputs.iterdir():
        (d / f.name).write_bytes(f.read_bytes())
    src = str(Path(phonaug_io.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed,
           "PYTHONDONTWRITEBYTECODE": "1"}
    streams = {}
    for args in COMMANDS:
        result = subprocess.run([sys.executable, "-m", "phonaug.cli", *args], cwd=d, env=env,
                                capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr.decode()
        streams[f"{args[0]} stdout"], streams[f"{args[0]} stderr"] = result.stdout, result.stderr
    return {**streams, **{f.name: f.read_bytes() for f in d.iterdir()}}


def test_every_output_is_the_same_under_two_hash_seeds(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    write_inputs(inputs)
    zero, one = (run_pipeline(inputs, tmp_path / f"seed{s}", s) for s in ("0", "1"))
    assert {"tm.jsonl", "stats.json", "selected.txt", "decoded.jsonl", "report.json",
            "report.txt", "report_boxplot.csv"} <= set(zero)
    assert all(zero[name] for name in ("tm.jsonl", "stats.json", "decoded.jsonl", "report.txt"))
    assert zero == one
