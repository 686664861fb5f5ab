"""Smoke check of the benchmark at tiny input size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced, checks that the digest gate rejects
an output that differs from the recorded one, and that the benchmark refuses
to run without the program's sources. It is not part of the tier-1 suite
(pytest's testpaths only name tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    res = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    section = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_digest_gate_rejects_changed_output(tmp_path, monkeypatch, capsys):
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    table["tiny"]["evaluate-mixed"]["report.json"] = "0" * 64
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(table), encoding="utf-8")
    monkeypatch.setattr(run, "DIGESTS", tampered)
    code = run.main(["--workload", "evaluate-mixed", "--seed", str(run.DEFAULT_SEED),
                     "--seconds", "1", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
