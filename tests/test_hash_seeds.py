"""Every output of the pipeline is the same under every hash seed: no set or dict
of strings decides an order or a count that reaches a file. Each command, the
six `prepare` commands too, runs as its own process through the process entry,
`python -m phonaug.cli`, which draws its own hash seed, as a shell would run it."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from commands import COMMANDS, child_env, name, write_inputs


def run_pipeline(inputs: Path, d: Path, hash_seed: str) -> dict[str, bytes]:
    """Every file in `d` and each command's stdout and stderr, after the pipeline
    ran in `d` on copies of the inputs under PYTHONHASHSEED=hash_seed."""
    d.mkdir()
    for f in inputs.iterdir():
        (d / f.name).write_bytes(f.read_bytes())
    streams = {}
    for args in COMMANDS:
        result = subprocess.run([sys.executable, "-m", "phonaug.cli", *args], cwd=d,
                                env=child_env(hash_seed), capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr.decode()
        streams[f"{name(args)} stdout"] = result.stdout
        streams[f"{name(args)} stderr"] = result.stderr
    return {**streams, **{f.name: f.read_bytes() for f in d.iterdir()}}


def test_every_output_is_the_same_under_two_hash_seeds(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    write_inputs(inputs, 60)
    zero, one = (run_pipeline(inputs, tmp_path / f"seed{s}", s) for s in ("0", "1"))
    assert {"tm.jsonl", "stats.json", "selected.txt", "decoded.jsonl", "report.json",
            "report.txt", "report_boxplot.csv", "filtered.jsonl", "sampled.jsonl",
            "train.jsonl", "valid.jsonl", "remapped.jsonl", "remap_report.jsonl",
            "onsets.jsonl", "vocab_out.json"} <= set(zero)
    assert all(zero[file] for file in ("tm.jsonl", "stats.json", "decoded.jsonl", "report.txt",
                                       "filtered.jsonl", "valid.jsonl", "remapped.jsonl",
                                       "remap_report.jsonl", "onsets.jsonl"))
    assert zero == one
