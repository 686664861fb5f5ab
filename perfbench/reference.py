"""A fixed reference job whose wall time measures the host's current speed.

The speed of a vCPU on a shared host drifts by tens of percent over seconds to
minutes, so run.py times this script next to every repetition of a workload
and rescales the workload's times by it. It does what the CLI commands do, in
the same proportions: start an interpreter, import click and numpy, parse JSON
lines and run dict and str operations in pure Python. It does not import
phonaug, so its work is the same whatever version of the program is measured.
"""

import json
import random
import unicodedata

import click  # noqa: F401
import numpy  # noqa: F401

rng = random.Random(0)
lines = [json.dumps({"utt_id": f"u{i:06d}", "vot_ms": rng.gauss(0.0, 30.0),
                     "labels": [rng.choice("abdeiptkoɡʰ_") for _ in range(40)]},
                    ensure_ascii=False) for i in range(12000)]
counts: dict[str, int] = {}
for line in lines:
    for label in json.loads(line)["labels"]:
        key = unicodedata.normalize("NFD", label)
        counts[key] = counts.get(key, 0) + 1
