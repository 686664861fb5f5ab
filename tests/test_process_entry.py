"""`phonaug.cli.run`, the process entry of `python -m phonaug.cli` and the `phonaug`
script, runs a command without the cyclic garbage collector and freezes the heap
before the interpreter shuts down; a SIGTERM unwinds the command, so that it
leaves no temporary file, and still ends the process by SIGTERM. `main` called
in-process changes none of this for its caller. SIGTERM is POSIX, as CI is."""

from __future__ import annotations

import gc
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from clirun import invoke
from commands import COMMANDS, child_env, name, write_inputs

from phonaug.io import dump_line


def _ignore(signum, frame):
    pass


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("command, status", [
    (["decode", "{d}/paths.jsonl", "{d}/tracks.jsonl"], 0),
    (["evaluate", "{d}/paths.jsonl", "--out-prefix", ""], 1),
    (["decode", "{d}/missing.jsonl", "{d}/tracks.jsonl"], 2),
], ids=["ok", "fails", "usage-error"])
def test_main_in_process_keeps_the_callers_collector_and_sigterm_handler(
        tmp_path, enabled, command, status):
    (tmp_path / "paths.jsonl").write_text(dump_line(
        {"utt_id": "u1", "frame_ms": 10.0, "labels": ["_", "t", "a"]}) + "\n", encoding="utf-8")
    was_enabled, previous = gc.isenabled(), signal.signal(signal.SIGTERM, _ignore)
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    try:
        result = invoke([arg.format(d=tmp_path) for arg in command])
        after = gc.isenabled(), gc.get_freeze_count(), signal.getsignal(signal.SIGTERM)
    finally:
        (gc.enable if was_enabled else gc.disable)()
        signal.signal(signal.SIGTERM, previous)
    assert result.exit_code == status, result.output
    assert after == (enabled, frozen, _ignore)


# `cli.main` replaced by a probe, which prints whether the collector is on and the
# SIGTERM handler that the entry set, then returns or exits with a status
PROBE = """
import atexit, gc, signal, sys
import phonaug.cli as cli

def probe():
    handler = signal.getsignal(signal.SIGTERM)
    print(gc.isenabled(), handler.name if isinstance(handler, signal.Handlers) else "handler")
    {end}

{before}
atexit.register(lambda: print(gc.get_freeze_count() > 0))
cli.main = probe
cli.run()
"""


@pytest.mark.parametrize("end, status", [("", 0), ("sys.exit(1)", 1), ("sys.exit(2)", 2)])
@pytest.mark.parametrize("before, handler", [
    ("", "handler"),
    ("signal.signal(signal.SIGTERM, signal.SIG_IGN)", "SIG_IGN"),  # as under `trap '' TERM`
])
def test_the_entry_runs_the_command_without_the_collector_and_freezes_the_heap(
        end, status, before, handler):
    code = PROBE.format(end=end, before=before)
    result = subprocess.run([sys.executable, "-c", code], env=child_env(),
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (status, "")
    assert result.stdout.split("\n") == [f"False {handler}", "True", ""]


def test_a_command_ended_by_sigterm_leaves_no_temporary_file_and_dies_by_it(tmp_path):
    # 120,000 BM/TM pairs: evaluate reads them for seconds, inside its `replacing`
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(
        dump_line({"utt_id": f"u{u:06d}", "phoneme": "b", "vot_ms": -30, "onset": onset,
                   "model": model}) + "\n"
        for u in range(120_000) for model, onset in (("BM", "bp"), ("TM", "pb"))),
        encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    with open(tmp_path / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "phonaug.cli", "evaluate", str(pairs),
                                 "--out-prefix", str(out / "report")],
                                env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            deadline = time.monotonic() + 60
            while len(list(out.iterdir())) < 3:  # its three temporary files
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.002)
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        err.seek(0)
        stderr = err.read()
    assert returncode == -signal.SIGTERM
    assert stderr == b""
    assert list(out.iterdir()) == []


CHILD = """
import gc, sys
gc.disable()
from phonaug.cli import main
main(sys.argv[1:], standalone_mode=False)
print(gc.collect())
"""


def unreachable(d: Path, n: int) -> dict[str, int]:
    """What `gc.collect()` finds after each command, run on inputs of `n`
    utterances or records in a fresh interpreter with the collector off."""
    d.mkdir()
    write_inputs(d, n)
    counts = {}
    for args in COMMANDS:
        result = subprocess.run([sys.executable, "-c", CHILD, *args], cwd=d, env=child_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        counts[name(args)] = int(result.stdout.splitlines()[-1])
    return counts


def test_no_command_makes_cyclic_garbage_that_grows_with_its_input(tmp_path):
    # reference counting frees every record, so the entry may run without the
    # collector: what a command leaves to it is start-up's, the same at any size
    small, large = unreachable(tmp_path / "small", 30), unreachable(tmp_path / "large", 300)
    assert len(small) == 11
    assert small == large
