"""Each BENCH_<pr>.json at the repository root, one change's benchmark record, fits
one closed schema, so that the records of all changes compare.

A record holds, per workload of BENCHMARK.json that was run: the seeds and the
number of alternating parent/change pairs of `perfbench/run.py` runs; whether
every run was correct; the change's median and quartiles, over its runs, of each
end-to-end metric and of each per-command time; the parent's median and
interquartile range of each; in how many pairs the change read better; and the
hash of each side's `src/`. The parent commit and the machine's `env_id` hold
for the whole record."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from phonaug import io

ROOT = Path(__file__).resolve().parent.parent
STATS = {"median": io.NUMBER, "q1": io.NUMBER, "q3": io.NUMBER}
SCHEMA = {
    "pr": io.INTEGER,
    "parent_commit": io.STRING,
    "env_id": io.STRING,
    "python": io.STRING,
    "run_seconds": io.INTEGER,
    "workloads": io.MapOf({
        "seeds": io.ListOf(io.INTEGER),
        "pairs": io.INTEGER,
        "correct": io.BOOLEAN,
        "change": io.MapOf(STATS),
        "parent": io.MapOf(io.NUMBER),
        "parent_iqr": io.MapOf(io.NUMBER),
        "change_wins": io.MapOf(io.INTEGER),
        "source_sha256": {"parent": io.STRING, "change": io.STRING},
    }),
}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_a_bench_record_fits_the_schema(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    io.check(record, SCHEMA, closed=True)
    assert path.name == f"BENCH_{record['pr']}.json"
    assert re.fullmatch("[0-9a-f]{40}", record["parent_commit"])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert record["workloads"]
    assert set(record["workloads"]) <= {w["name"] for w in benchmark["workloads"]}
    for w in record["workloads"].values():
        assert w["seeds"] and w["pairs"] >= 1
        assert {m["name"] for m in benchmark["end_to_end"]} <= set(w["change"])
        assert set(w["change"]) == set(w["parent"]) == set(w["parent_iqr"]) == set(w["change_wins"])
        for stats in w["change"].values():
            assert stats["q1"] <= stats["median"] <= stats["q3"]
        assert all(0 <= wins <= w["pairs"] for wins in w["change_wins"].values())
        assert all(re.fullmatch("[0-9a-f]{64}", h) for h in w["source_sha256"].values())
