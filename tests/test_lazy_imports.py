"""Each command runs only the library modules it uses, and the package's public
names resolve on first use.

`phonaug.cli` registers the library modules in `sys.modules` as lazy modules
(importlib.util.LazyLoader); a lazy module that has not run is of another type
than `types.ModuleType`, so the type tells which modules a command ran."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phonaug
from phonaug.io import dump_line

SRC = str(Path(phonaug.__file__).resolve().parents[1])
LIBRARY = ("augment", "cli", "ctc", "errors", "inventory", "io", "manifest", "metrics", "synth")

# the modules a run of `phonaug.cli` leaves run; every command runs cli, io and errors
RAN = {"cli", "errors", "io"}
TRACKS = RAN | {"augment", "ctc", "inventory"}
COMMANDS = {
    "decode": (["decode", "paths.jsonl", "tracks.jsonl"], RAN | {"ctc", "inventory"}),
    "synth": (["synth", "spec.json", "--rm-out", "rm_out.jsonl", "--hm-out", "hm_out.jsonl"],
              RAN | {"ctc", "inventory", "synth"}),
    "augment": (["augment", "rm.jsonl", "hm.jsonl", "tm.jsonl", "--stats-file", "stats.json"],
                TRACKS),
    "prefilter-aspiration": (["prefilter-aspiration", "rm.jsonl", "hm.jsonl"], TRACKS),
    "evaluate": (["evaluate", "instances.jsonl", "--out-prefix", "report"],
                 RAN | {"inventory", "metrics"}),
    "prepare-filter": (["prepare", "filter", "manifest.jsonl", "kept.jsonl"],
                       RAN | {"inventory", "manifest"}),
}

# runs argv[1:] through phonaug.cli in this process, then prints the modules that ran,
# whether click was imported, and which of dataclasses and inspect the command imported
PROBE = f"""
import json, sys, types
before = set(sys.modules)
from phonaug.cli import main
main(sys.argv[1:], standalone_mode=False)
print(json.dumps(sorted(m for m in {LIBRARY!r}
                        if type(sys.modules.get("phonaug." + m)) is types.ModuleType)))
print(json.dumps("click" in sys.modules))
print(json.dumps(sorted({{"dataclasses", "inspect"}} & set(sys.modules).difference(before))))
"""


def python(args, cwd) -> str:
    """The standard output of a fresh interpreter run with `args`; it must succeed."""
    result = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def write_inputs(d: Path) -> None:
    def lines(name, objs):
        (d / name).write_text("".join(dump_line(o) + "\n" for o in objs), encoding="utf-8")

    lines("paths.jsonl", [{"utt_id": "u1", "frame_ms": 10, "labels": ["_", "t", "a"]}])
    (d / "spec.json").write_text('{"seed": 1, "n_utterances": 2}', encoding="utf-8")
    phones = [{"symbol": "t", "start": 0, "end": 1}, {"symbol": "a", "start": 2, "end": 3}]
    lines("rm.jsonl", [{"utt_id": "u1", "model": "RM", "frame_ms": 20.0, "phones": phones}])
    phones[0]["symbol"] = "tʰ"
    lines("hm.jsonl", [{"utt_id": "u1", "model": "HM", "frame_ms": 20.0, "phones": phones}])
    lines("instances.jsonl", [
        {"utt_id": "u1", "phoneme": "k", "vot_ms": 40, "onset": onset, "model": model}
        for model, onset in (("BM", "ka"), ("TM", "kʰa"))])
    lines("manifest.jsonl", [{"utt_id": "u1"}, {"utt_id": "u2", "downvotes": 1}])


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_runs_only_the_modules_it_uses(tmp_path, command):
    args, expected = COMMANDS[command]
    write_inputs(tmp_path)
    ran, click, added = map(json.loads, python(["-c", PROBE, *args], tmp_path).splitlines()[-3:])
    assert ran == sorted(expected)
    assert click is False  # the CLI is built on argparse: click costs 25-30 ms to import
    # the records are tuples: dataclasses, with the inspect it imports, costs 9-12 ms
    assert added == []


def test_importing_the_package_runs_no_library_module(tmp_path):
    code = "import sys, phonaug; print([m for m in sys.modules if m.startswith('phonaug.')])"
    assert python(["-c", code], tmp_path) == "[]\n"


def test_a_module_the_cli_registers_is_an_attribute_of_the_package(tmp_path):
    # `import phonaug.metrics` finds the lazy module in sys.modules and binds only `phonaug`
    code = "import phonaug.cli, phonaug.metrics; print(phonaug.metrics.POA_GROUPS)"
    assert python(["-c", code], tmp_path) == "('bilabial', 'alveolar', 'velar')\n"


def test_every_public_name_resolves():
    for name, module in phonaug._MODULE_OF.items():
        namespace: dict = {}
        exec(f"from phonaug import {name}", namespace)
        assert namespace[name] is getattr(sys.modules[f"phonaug.{module}"], name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        phonaug.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from phonaug import no_such_name", {})
