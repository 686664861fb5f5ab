"""Contracts every command keeps: a fault exits 1 with one `Error:` line and
writes nothing, a write fault in any output leaves every output as it was, an
output path must take a regular file, a manifest holds each
utt_id once, frame_ms is positive and finite wherever it is read, and a
malformed config file or a line that is not UTF-8 is named in the error."""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import subprocess
import sys
import tempfile
from io import StringIO
from pathlib import Path

import pytest
from clirun import invoke
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonaug import Inventory, ScenarioSpec, ctc, generate
from phonaug import io as phonaug_io
from phonaug.cli import _frame_ms, main
from phonaug.ctc import track_to_obj
from phonaug.errors import PhonaugError
from phonaug.io import DATA, dump_line, write_jsonl

INV = Inventory.default()


def write_lines(path, objs):
    path.write_text("".join(dump_line(o) + "\n" for o in objs), encoding="utf-8")


def write_inputs(d: Path) -> None:
    """One valid input of each kind that the commands read."""
    rm_tracks, hm_tracks, _ = generate(ScenarioSpec(seed=3, n_utterances=4, jitter=1), INV)
    write_jsonl(d / "rm.jsonl", map(track_to_obj, rm_tracks))
    write_jsonl(d / "hm.jsonl", map(track_to_obj, hm_tracks))
    write_lines(d / "paths.jsonl", [{"utt_id": "u1", "frame_ms": 10, "labels": ["t", "a"]}])
    write_lines(d / "manifest.jsonl", [
        {"utt_id": f"u{n}", "sentence": f"{letter}all", "transcription": "ta",
         "analyzable": True} for n, letter in enumerate("bdgptk")])
    (d / "remap.json").write_text('{"remap": {}, "exclude": []}', encoding="utf-8")
    (d / "vocab.json").write_text('{"tokens": {"_": 0, "t": 1, "a": 2}, "blank": "_"}',
                                  encoding="utf-8")
    (d / "spec.json").write_text('{"seed": 1, "n_utterances": 3}', encoding="utf-8")
    write_lines(d / "instances.jsonl", [
        {"utt_id": "u1", "phoneme": "k", "vot_ms": 40, "onset": onset, "model": model}
        for model, onset in (("BM", "ka"), ("TM", "kʰa"))])
    for table in ("inventory.json", "mapping.json", "continuants.json"):
        (d / table).write_bytes((DATA / table).read_bytes())


# each command's arguments, {i} the input and {o} the output directory, and
# the outputs it writes
COMMANDS = {
    "decode": (["decode", "{i}/paths.jsonl", "{o}/tracks.jsonl"], ["tracks.jsonl"]),
    "augment": (["augment", "{i}/rm.jsonl", "{i}/hm.jsonl", "{o}/tm.jsonl",
                 "--stats-file", "{o}/stats.json"], ["tm.jsonl", "stats.json"]),
    "prefilter-aspiration": (["prefilter-aspiration", "{i}/rm.jsonl", "{i}/hm.jsonl",
                              "--out", "{o}/selected.txt"], ["selected.txt"]),
    "prepare-filter": (["prepare", "filter", "{i}/manifest.jsonl", "{o}/kept.jsonl"],
                       ["kept.jsonl"]),
    "prepare-sample": (["prepare", "sample", "{i}/manifest.jsonl", "{o}/sample.jsonl",
                        "--n", "2", "--seed", "1"], ["sample.jsonl"]),
    "prepare-split": (["prepare", "split", "{i}/manifest.jsonl", "--fraction", "0.5",
                       "--seed", "1", "--train-out", "{o}/train.jsonl",
                       "--valid-out", "{o}/valid.jsonl"], ["train.jsonl", "valid.jsonl"]),
    "prepare-remap": (["prepare", "remap", "{i}/manifest.jsonl", "{o}/remapped.jsonl",
                       "--config", "{i}/remap.json", "--report-file", "{o}/remap.jsonl"],
                      ["remapped.jsonl", "remap.jsonl"]),
    "prepare-onset-testset": (["prepare", "onset-testset", "{i}/manifest.jsonl",
                               "{o}/onsets.jsonl", "--per-phoneme-n", "1", "--seed", "1"],
                              ["onsets.jsonl"]),
    "prepare-clean-vocab": (["prepare", "clean-vocab", "{i}/vocab.json", "{i}/manifest.jsonl",
                             "{o}/vocab.json"], ["vocab.json"]),
    "synth": (["synth", "{i}/spec.json", "--rm-out", "{o}/rm.jsonl", "--hm-out",
               "{o}/hm.jsonl", "--truth-out", "{o}/truth.jsonl"],
              ["rm.jsonl", "hm.jsonl", "truth.jsonl"]),
    "evaluate": (["evaluate", "{i}/instances.jsonl", "--out-prefix", "{o}/report"],
                 ["report.txt", "report.json", "report_boxplot.csv"]),
    # the packaged tables, passed as files
    "decode-inventory": (["decode", "{i}/paths.jsonl", "{o}/tracks.jsonl",
                          "--inventory", "{i}/inventory.json"], ["tracks.jsonl"]),
    "augment-mapping": (["augment", "{i}/rm.jsonl", "{i}/hm.jsonl", "{o}/tm.jsonl",
                         "--mapping", "{i}/mapping.json"], ["tm.jsonl"]),
    "evaluate-continuants": (["evaluate", "{i}/instances.jsonl", "--out-prefix", "{o}/report",
                              "--continuants", "{i}/continuants.json"],
                             ["report.txt", "report.json", "report_boxplot.csv"]),
}


@pytest.fixture
def dirs(tmp_path):
    i, o = tmp_path / "in", tmp_path / "out"
    i.mkdir()
    o.mkdir()
    write_inputs(i)
    return i, o


def run(command, i, o):
    args, _ = COMMANDS[command]
    return invoke([a.format(i=i, o=o) for a in args])


@pytest.mark.parametrize("command", COMMANDS)
def test_command_writes_its_outputs(dirs, command):
    i, o = dirs
    result = run(command, i, o)
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in o.iterdir()) == sorted(COMMANDS[command][1])


@pytest.mark.parametrize("command, output", [
    pytest.param(command, output, id=f"{command}-{output}")
    for command, (_, outputs) in COMMANDS.items() for output in outputs])
def test_directory_at_an_output_path_fails_before_any_write(dirs, command, output):
    i, o = dirs
    blocked = o / output
    blocked.mkdir()
    result = run(command, i, o)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {blocked}: output must be a regular file\n"
    assert list(o.iterdir()) == [blocked] and not any(blocked.iterdir())


@pytest.mark.parametrize("command, output", [
    pytest.param(command, output, id=f"{command}-{output}")
    for command, (_, outputs) in COMMANDS.items()
    # evaluate's three outputs share one --out-prefix, which moves them all
    for output in (outputs[:1] if command.startswith("evaluate") else outputs)])
def test_an_output_in_a_missing_directory_fails_before_any_write(dirs, command, output):
    # once: a FileNotFoundError traceback, after the outputs before it were written;
    # and evaluate created the directory of its --out-prefix, which a fault left behind
    i, o = dirs
    args = [a.format(i=i, o=o) for a in COMMANDS[command][0]]
    named = o / output if str(o / output) in args else o / "report"
    moved = o / "missing" / output
    result = invoke([a.replace(str(named), str(o / "missing" / named.name)) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {moved}: output directory does not exist\n"
    assert "Traceback" not in result.output
    assert list(o.iterdir()) == []


@pytest.mark.parametrize("command, first, second", [
    pytest.param(command, first, second, id=f"{command}-{first}-{second}")
    for command, (_, outputs) in COMMANDS.items() if not command.startswith("evaluate")
    for n, first in enumerate(outputs) for second in outputs[n + 1:]])
def test_two_outputs_that_name_one_file_fail_before_any_write(dirs, command, first, second):
    # once: `synth --rm-out x --hm-out x` left only the HM track in x, and `augment
    # rm hm out --stats-file out` wrote the stats over the TM track, each with exit 0
    i, o = dirs
    args, _ = COMMANDS[command]
    result = invoke([a.format(i=i, o=o).replace(str(o / second), str(o / first))
                     for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {o / first}: output is the same file as {o / first}\n"
    assert list(o.iterdir()) == []


# the options whose empty value means the output is not asked for
NOT_ASKED_FOR = {("augment", "stats.json"), ("prefilter-aspiration", "selected.txt"),
                 ("prepare-remap", "remap.jsonl")}


@pytest.mark.parametrize("command, output, path", [
    pytest.param(command, output, path, id=f"{command}-{output}-{path or 'empty'}")
    for command, (_, outputs) in COMMANDS.items()
    # evaluate's one output argument is the prefix of its three files
    for output in (["report"] if command.startswith("evaluate") else outputs)
    for path in ("", "{o}/" + output + "/") if path or (command, output) not in NOT_ASKED_FOR])
def test_an_output_path_that_names_no_file_fails_before_any_write(
        dirs, monkeypatch, command, output, path):
    # once: `synth --truth-out ""` renamed its RM and HM tracks into place, then
    # failed with an IsADirectoryError traceback, and `decode in.jsonl ""` failed so;
    # `evaluate --out-prefix ""` wrote the hidden .txt, .json and _boxplot.csv
    i, o = dirs
    path = path.format(o=o)
    args, outputs = COMMANDS[command]
    for name in outputs:
        (o / name).write_text("OLD", encoding="utf-8")
    monkeypatch.chdir(o)  # where "" would resolve
    result = invoke([path if a == f"{{o}}/{output}" else a.format(i=i, o=o) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {path!r}: output path names no file\n"
    assert sorted(p.name for p in o.iterdir()) == sorted(outputs)
    assert [(o / name).read_text(encoding="utf-8") for name in outputs] == ["OLD"] * len(outputs)
    assert not list(o.parent.rglob(".*.tmp"))


def test_an_empty_optional_output_is_not_asked_for(dirs, monkeypatch):
    i, o = dirs
    monkeypatch.chdir(o)
    result = invoke(["augment", str(i / "rm.jsonl"), str(i / "hm.jsonl"), "tm.jsonl",
                     "--stats-file", ""])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["utterances"] == 4
    result = invoke(["prepare", "remap", str(i / "manifest.jsonl"), "kept.jsonl",
                     "--config", str(i / "remap.json"), "--report-file", ""])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in o.iterdir()) == ["kept.jsonl", "tm.jsonl"]


def full_disk(monkeypatch, name: str) -> None:
    """Make each write to the temporary file of the output `name` fail as on a full
    disk. `phonaug.io` opens every output file; every other file opens as before."""
    def open_on_a_full_disk(file, *args, **kwargs):
        f = open(file, *args, **kwargs)
        if os.path.basename(file).startswith(f".{name}."):
            def write(data):
                if data:  # writing nothing succeeds on a full disk too
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(file))
            f.write = f.writelines = write
        return f
    monkeypatch.setattr(phonaug_io, "open", open_on_a_full_disk, raising=False)


@pytest.mark.parametrize("command", [
    "augment", "prepare-split", "prepare-remap", "evaluate", "synth"])
def test_a_write_fault_on_the_last_output_leaves_every_output_as_it_was(
        dirs, monkeypatch, command):
    # once: each output but synth's was renamed into place on its own, so a failed
    # write of stats.json left a new tm.jsonl beside the old stats
    i, o = dirs
    (i / "remap.json").write_text('{"remap": {"a": "e"}}', encoding="utf-8")  # a report entry
    outputs = COMMANDS[command][1]
    for name in outputs:
        (o / name).write_text("OLD", encoding="utf-8")
    full_disk(monkeypatch, outputs[-1])
    result = run(command, i, o)
    # one Error: line with the OS's reason and the output that failed, as the
    # command line gave it: once its temporary file, which was gone by then
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.stderr == f"Error: {o / outputs[-1]}: {os.strerror(errno.ENOSPC)}\n"
    assert sorted(p.name for p in o.iterdir()) == sorted(outputs)  # no .*.tmp file left
    assert [(o / name).read_text(encoding="utf-8") for name in outputs] == ["OLD"] * len(outputs)


# each command's input arguments, by the name a usage error gives them: first the
# positional ones, in the order of their files in COMMANDS, then the options
INPUTS = {
    "decode": ["framepath_file", "--inventory"],
    "augment": ["rm_file", "hm_file", "--mapping", "--inventory"],
    "prefilter-aspiration": ["rm_file", "hm_file", "--mapping", "--inventory"],
    "prepare-filter": ["in_file"],
    "prepare-sample": ["in_file"],
    "prepare-split": ["in_file"],
    "prepare-remap": ["in_file", "--config", "--inventory"],
    "prepare-onset-testset": ["in_file"],
    "prepare-clean-vocab": ["vocab_file", "corpus_file"],
    "synth": ["spec_file", "--inventory"],
    "evaluate": ["instances_file", "--continuants", "--inventory"],
}


def usage_error(result, message: str) -> None:
    """`result` is a usage error: exit 2, the usage, then one `Error:` line."""
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("usage: phonaug ")
    assert result.stderr.endswith(f"\nError: {message}\n")
    assert result.stderr.count("Error:") == 1 and "Traceback" not in result.stderr


def with_input(command: str, argument: str, path, i, o) -> list[str]:
    """The arguments of `command` from COMMANDS, its outputs in the missing
    directory o/new and `path` as its input `argument`."""
    args = [a.format(i=i, o=o / "new") for a in COMMANDS[command][0]]
    if argument.startswith("--"):
        return [*args, argument, str(path)]  # a repeated option takes its last value
    files = [k for k, a in enumerate(args)
             if a.startswith(str(i)) and not args[k - 1].startswith("--")]
    args[files[INPUTS[command].index(argument)]] = str(path)
    return args


@pytest.mark.parametrize("command, argument", [
    pytest.param(command, argument, id=f"{command}-{argument}")
    for command, arguments in INPUTS.items() for argument in arguments])
def test_a_directory_as_an_input_is_a_usage_error(dirs, command, argument):
    # once: an IsADirectoryError traceback with exit 1, and evaluate had already
    # made the directory of its --out-prefix
    i, o = dirs
    result = invoke(with_input(command, argument, i, i, o))
    usage_error(result, f"argument {argument}: File {str(i)!r} is a directory.")
    assert list(o.iterdir()) == []


@pytest.mark.parametrize("fault", ["does not exist", "is not readable"])
def test_a_missing_or_unreadable_input_is_a_usage_error(dirs, monkeypatch, fault):
    i, o = dirs
    path = i / "paths.jsonl"
    if fault == "does not exist":
        path.unlink()
    else:  # os.access, since a test run as root may read any file
        monkeypatch.setattr("os.access", lambda p, mode: p != str(path))
    result = invoke(with_input("decode", "framepath_file", path, i, o))
    usage_error(result, f"argument framepath_file: File {str(path)!r} {fault}.")
    assert list(o.iterdir()) == []


@pytest.mark.parametrize("command, prefix", [
    ("evaluate", "--out-pre"), ("decode", "--model"), ("augment", "--stats"),
    ("prepare-sample", "--se")])
def test_an_option_prefix_is_not_an_option(dirs, command, prefix):
    # click never took a prefix for an option; argparse does unless allow_abbrev=False
    i, o = dirs
    args = [a.format(i=i, o=o) for a in COMMANDS[command][0]]
    usage_error(invoke([*args, prefix, str(o / "x")]), f"No such option: {prefix}")
    assert list(o.iterdir()) == []


def test_skip_missing_is_not_an_option(dirs):
    # it only undid an earlier --fail-missing on the same line: skipping is the default
    i, o = dirs
    args = [a.format(i=i, o=o) for a in COMMANDS["augment"][0]]
    usage_error(invoke([*args, "--skip-missing"]), "No such option: --skip-missing")
    assert list(o.iterdir()) == []


@pytest.mark.parametrize("extra, message", [
    (["x"], "Got unexpected extra argument (x)"),
    (["x", "y"], "Got unexpected extra arguments (x y)")])
def test_an_extra_argument_is_a_usage_error(dirs, extra, message):
    i, o = dirs
    usage_error(invoke([a.format(i=i, o=o) for a in COMMANDS["decode"][0]] + extra), message)
    assert list(o.iterdir()) == []


def test_stdout_closed_early_exits_1_quietly(dirs):
    # as in `phonaug augment ... | head -c 0`: the reader of stdout, where the stats
    # go without --stats-file, is gone before they are printed
    i, o = dirs
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(phonaug_io.__file__).resolve().parents[1])
    try:
        result = subprocess.run(
            [sys.executable, "-m", "phonaug.cli", "augment", str(i / "rm.jsonl"),
             str(i / "hm.jsonl"), str(o / "tm.jsonl")], stdout=write_end, stderr=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, "")  # no Error: line, no traceback
    assert (o / "tm.jsonl").is_file()  # the stats are printed once the TM file is in place


@pytest.mark.parametrize("make, stderr", [
    (lambda: PhonaugError("u1: boom"), "Error: u1: boom\n"),
    (lambda: OSError(errno.EIO, os.strerror(errno.EIO), "x.jsonl"),
     f"Error: x.jsonl: {os.strerror(errno.EIO)}\n"),
    (lambda: OSError(errno.EIO, os.strerror(errno.EIO)), f"Error: {os.strerror(errno.EIO)}\n"),
    (lambda: OSError("no errno"), "Error: no errno\n"),
    (lambda: BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), ""),
], ids=["phonaug", "os-file", "os-no-file", "os-no-errno", "broken-pipe"])
def test_main_raises_a_commands_error_unless_standalone(dirs, monkeypatch, tmp_path,
                                                        make, stderr):
    # the benchmark runs commands in process with standalone_mode=False and
    # counts an error that reaches it as a failed operation
    i, o = dirs
    raised = []

    def fail(*args):
        raised.append(make())
        raise raised[-1]

    monkeypatch.setattr(ctc, "decode_file", fail)
    args = [a.format(i=i, o=o) for a in COMMANDS["decode"][0]]
    # a broken pipe points stdout at os.devnull, so stdout is a file of its own here
    err = StringIO()
    with open(tmp_path / "stdout", "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(Exception) as caught:
            main(args, standalone_mode=False)
        assert caught.value is raised[0] and str(caught.value) == str(make())
        assert err.getvalue() == ""
        # standalone: exit 1, with one Error: line, or quietly where stdout is gone
        with pytest.raises(SystemExit) as exited:
            main(args)
    assert (exited.value.code, err.getvalue()) == (1, stderr)
    assert list(o.iterdir()) == []


def test_a_file_size_limit_fails_with_one_error_line(dirs):
    # a write past RLIMIT_FSIZE fails with EFBIG (Python ignores SIGXFSZ): once a
    # traceback, then a line without the file; the OSError names none, and the
    # one output is named
    resource = pytest.importorskip("resource")
    i, o = dirs
    write_lines(i / "paths.jsonl", [{"utt_id": f"u{n:04d}", "frame_ms": 10, "labels": ["t", "a"]}
                                    for n in range(2000)])
    src = str(Path(phonaug_io.__file__).resolve().parents[1])

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (8192, 8192))

    result = subprocess.run(
        [sys.executable, "-m", "phonaug.cli", "decode", str(i / "paths.jsonl"),
         str(o / "tracks.jsonl")], capture_output=True, text=True, preexec_fn=limit_file_size,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}, timeout=120)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"Error: {o / 'tracks.jsonl'}: {os.strerror(errno.EFBIG)}\n"
    assert list(o.iterdir()) == []  # no temporary file left


PREPARE =[c for c in COMMANDS if c.startswith("prepare-")]


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.sampled_from(["u1", "u2", "u3", "u4"]), min_size=2, max_size=6),
       command=st.sampled_from(PREPARE))
def test_prepare_rejects_an_utt_id_that_occurs_twice(ids, command):
    repeated = next((u for k, u in enumerate(ids) if u in ids[:k]), None)
    with tempfile.TemporaryDirectory() as d:
        i, o = Path(d) / "in", Path(d) / "out"
        i.mkdir()
        o.mkdir()
        write_inputs(i)
        manifest = i / "manifest.jsonl"
        write_lines(manifest, [{"utt_id": u, "sentence": "ball", "transcription": "ta",
                                "analyzable": True} for u in ids])
        args = [a.format(i=i, o=o) for a in COMMANDS[command][0]]
        if command == "prepare-onset-testset":  # the manifest has no /d g p t k/
            args[args.index("--per-phoneme-n") + 1] = "0"
        result = invoke(args)
        if repeated is None:
            assert result.exit_code == 0, result.output
        else:
            assert result.exit_code == 1
            assert result.output == f"Error: {manifest}: utterance {repeated!r} occurs twice\n"
            assert list(o.iterdir()) == []


@pytest.mark.parametrize("command, option, name", [
    ("prepare-sample", "--n", "sample size"),
    ("prepare-onset-testset", "--per-phoneme-n", "per-phoneme count")])
def test_prepare_rejects_a_negative_count(dirs, command, option, name):
    # once: a ValueError traceback from random.sample
    i, o = dirs
    args = [a.format(i=i, o=o) for a in COMMANDS[command][0]]
    args[args.index(option) + 1] = "-1"
    result = invoke(args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {name} must be at least 0, got -1\n"
    assert list(o.iterdir()) == []


def test_prepare_rejects_an_ill_typed_utt_id(dirs):
    i, o = dirs
    manifest = i / "manifest.jsonl"
    write_lines(manifest, [{"utt_id": "u1"}, {"utt_id": ["u2"]}])
    result = run("prepare-filter", i, o)
    assert result.exit_code == 1
    assert result.output == \
        f"Error: {manifest}: record 2: field 'utt_id' has the wrong type: ['u2']\n"
    assert list(o.iterdir()) == []


not_positive_or_not_finite = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 0]),
    st.floats(max_value=0.0, allow_nan=False),
    st.integers(max_value=0),
)


@settings(max_examples=80, deadline=None)
@given(frame_ms=not_positive_or_not_finite,
       where=st.sampled_from(["frame-path", "--frame-ms", "augment-track",
                              "prefilter-track"]))
def test_frame_ms_must_be_positive_and_finite(frame_ms, where):
    with tempfile.TemporaryDirectory() as d:
        work = Path(d)
        out = work / "out.jsonl"
        if where.endswith("track"):
            rm_tracks, hm_tracks, _ = generate(ScenarioSpec(seed=2, n_utterances=3), INV)
            for name, tracks in (("rm", rm_tracks), ("hm", hm_tracks)):
                objs = [track_to_obj(t) for t in tracks]
                objs[1]["frame_ms"] = frame_ms
                write_lines(work / f"{name}.jsonl", objs)
            source, utt_id = work / "rm.jsonl", rm_tracks[1].utt_id
            args = ["augment", str(work / "rm.jsonl"), str(work / "hm.jsonl"), str(out)] \
                if where == "augment-track" else \
                ["prefilter-aspiration", str(work / "rm.jsonl"), str(work / "hm.jsonl"),
                 "--out", str(out)]
        else:
            source, utt_id = work / "paths.jsonl", "u1"
            line = {"utt_id": "u1", "frame_ms": 10, "labels": ["t", "a"]}
            if where == "frame-path":
                line["frame_ms"] = frame_ms
            write_lines(source, [line])
            args = ["decode", str(source), str(out)]
            if where == "--frame-ms":  # a usage error, before any read
                result = invoke([*args, f"--frame-ms={frame_ms!r}"])
                usage_error(result, "argument --frame-ms: frame_ms must be positive and "
                                    f"finite, got {float(frame_ms)!r}")
                assert not out.exists()
                return
        result = invoke(args)
        assert result.exit_code == 1, result.output
        assert result.output == (f"Error: {source}: {utt_id}: frame_ms must be positive "
                                 f"and finite, got {float(frame_ms)!r}\n")
        assert not out.exists()



@pytest.mark.parametrize("value, message", [
    ("0", "frame_ms must be positive and finite, got 0.0"),
    ("-20", "frame_ms must be positive and finite, got -20.0"),
    ("nan", "frame_ms must be positive and finite, got nan"),
    ("1e400", "frame_ms must be positive and finite, got inf"),
    ("ten", "invalid float value: 'ten'"),
    # Python before 3.13 passes `--frame-ms=--` on as [], without its type
    ("--", "expected one argument" if sys.version_info < (3, 13) else
     "invalid float value: '--'"),
], ids=["zero", "negative", "nan", "overflow", "not-a-number", "double-dash"])
def test_a_bad_frame_ms_option_fails_before_any_read(dirs, value, message):
    i, o = dirs
    (i / "paths.jsonl").write_text("", encoding="utf-8")  # nothing to read it against
    result = invoke(["decode", str(i / "paths.jsonl"), str(o / "tracks.jsonl"),
                     f"--frame-ms={value}"])
    usage_error(result, f"argument --frame-ms: {message}")
    assert list(o.iterdir()) == []


@settings(max_examples=300, deadline=None)
@given(x=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(x=0.0)
@example(x=-0.0)
@example(x=5e-324)
@example(x=-5e-324)
@example(x=sys.float_info.min)
@example(x=sys.float_info.max)
@example(x=-sys.float_info.max)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=math.nan)
def test_the_option_and_the_library_admit_the_same_frame_ms(x):
    # written twice, because argparse needs its own message: the two must agree
    try:
        option = _frame_ms(repr(x))
    except argparse.ArgumentTypeError:
        option = None
    try:
        library = ctc.check_frame_ms("u", x)
    except PhonaugError:
        library = None
    assert option == library and (option is None or option == x and type(library) is float)


@pytest.mark.parametrize("args, message", [
    # once a TypeError traceback: argparse gave out_file as []
    (["decode", "{i}/paths.jsonl", "--", "--"], "argument out_file: expected one argument"),
    (["prepare", "sample", "{i}/manifest.jsonl", "{o}/s.jsonl", "--n", "1", "--seed=--"],
     "argument --seed: expected one argument" if sys.version_info < (3, 13) else
     "argument --seed: invalid int value: '--'"),
], ids=["positional", "option"])
def test_a_double_dash_as_a_value_is_a_usage_error(dirs, args, message):
    i, o = dirs
    usage_error(invoke([a.format(i=i, o=o) for a in args]), message)
    assert list(o.iterdir()) == []


@pytest.mark.parametrize("command, field", [
    ("decode", "frame_ms"), ("augment", "frame_ms"), ("evaluate", "vot_ms")])
def test_a_number_too_large_for_a_float_is_a_field_error(dirs, command, field):
    i, o = dirs
    source = i / {"decode": "paths.jsonl", "augment": "rm.jsonl",
                  "evaluate": "instances.jsonl"}[command]
    objs = [json.loads(line) for line in source.read_text(encoding="utf-8").splitlines()]
    objs[0][field] = 10 ** 400  # a JSON number, but no float holds it
    write_lines(source, objs)
    result = run(command, i, o)
    assert result.exit_code == 1
    assert result.output == (f"Error: {source}: utterance {objs[0]['utt_id']!r}: "
                             "ill-typed field: int too large to convert to float\n")
    assert list(o.iterdir()) == []


@pytest.mark.parametrize("command", ["decode", "augment"])
def test_a_frame_ms_that_rounds_to_the_largest_float_reads_as_that_float(dirs, command):
    # an int just above the largest float, which float() rounds down to it: the
    # inline test refuses it, and the reference build gives the track it gave
    i, o = dirs
    sources = {"decode": ["paths.jsonl"], "augment": ["rm.jsonl", "hm.jsonl"]}[command]
    runs = []
    for frame_ms in (sys.float_info.max, int(sys.float_info.max) + 1):
        for name in sources:  # augment refuses an RM and HM pair at two frame rates
            objs = [json.loads(line) for line in (i / name).read_text("utf-8").splitlines()]
            objs[0]["frame_ms"] = frame_ms
            write_lines(i / name, objs)
        result = run(command, i, o)
        assert result.exit_code == 0, result.output
        runs.append((result.output, {p.name: p.read_bytes() for p in o.iterdir()}))
    assert runs[1] == runs[0]
    assert repr(sys.float_info.max).encode() in runs[0][1][COMMANDS[command][1][0]]


# per config file: (fault, the field the error names) for a missing field, a
# wrong-typed field and a string where a list belongs; a synth spec and a
# vocabulary hold no list, so they get a string where a number or an object
# belongs, and a remap config has no required field
CONFIG_FAULTS = {
    "inventory.json": {
        "missing-field": (lambda o: o.pop("phones"), "phones"),
        "wrong-type": (lambda o: o["phones"][0].update(voiced="false"), "voiced"),
        "string-for-list": (lambda o: o.update(voicing_pairs="pb"), "voicing_pairs"),
    },
    "mapping.json": {
        "missing-field": (lambda o: o.pop("entries"), "entries"),
        "wrong-type": (lambda o: o.update(window_offsets=[0, 1.5]), "window_offsets"),
        "string-for-list": (lambda o: o["entries"][0].update(rm="pb"), "entries[0].rm"),
        # once without the file: raised by from_obj, not by the type check
        "unknown-symbol": (lambda o: o["entries"][0]["hm"].append("Q"), "'Q' not in inventory"),
    },
    "continuants.json": {
        "missing-field": (lambda o: o["poa_groups"].pop("k"), "poa_groups.k"),
        "wrong-type": (lambda o: o.update(continuants=[["x"]]), "continuants"),
        "string-for-list": (lambda o: o["poa_groups"].update(k="velar"), "poa_groups.k"),
        # once: exit 0, with every /k/ reported as Null
        "unknown-place": (lambda o: o["poa_groups"].update(k=["vealr"]), "poa_groups.k"),
    },
    "spec.json": {
        "missing-field": (lambda o: o.pop("seed"), "seed"),
        "wrong-type": (lambda o: o.update(jitter=1.5), "jitter"),
        "string-for-list": (lambda o: o.update(n_utterances="5"), "n_utterances"),
        # once without the file: raised by from_obj, not by the type check
        "rate-out-of-range": (lambda o: o.update(drop_rate=1.5), "probabilities in [0, 1]"),
    },
    "remap.json": {
        "wrong-type": (lambda o: o.update(remap={"x": 1}), "remap"),
        "string-for-list": (lambda o: o.update(exclude="ab"), "exclude"),
    },
    "vocab.json": {
        "missing-field": (lambda o: o.pop("tokens"), "tokens"),
        "wrong-type": (lambda o: o.update(tokens=["_", "t", "a"]), "tokens"),
        "string-for-list": (lambda o: o.update(tokens="_ta"), "tokens"),
    },
}
CONFIG_READERS = {config: command for command, (args, _) in COMMANDS.items()
                  for config in CONFIG_FAULTS if "{i}/" + config in args}


def test_every_config_file_has_a_command_that_reads_it():
    assert sorted(CONFIG_READERS) == sorted(CONFIG_FAULTS)


@pytest.mark.parametrize("config, fault", [
    pytest.param(config, fault, id=f"{config}-{fault}")
    for config, faults in CONFIG_FAULTS.items()
    for fault in ["invalid-json", "not-an-object", *faults]])
def test_a_malformed_config_file_fails_naming_the_file(dirs, config, fault):
    i, o = dirs
    path = i / config
    if fault == "invalid-json":
        path.write_text('{"seed": 1,\n', encoding="utf-8")
        expected = f"Error: {path}:2: invalid JSON ("
    elif fault == "not-an-object":
        path.write_text('["seed", 1]', encoding="utf-8")
        expected = f"Error: {path}: expected a JSON object\n"
    else:
        obj = json.loads(path.read_text(encoding="utf-8"))
        change, field = CONFIG_FAULTS[config][fault]
        change(obj)
        path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
        expected = f"Error: {path}: "
    result = run(CONFIG_READERS[config], i, o)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(expected) and result.output.count("\n") == 1
    assert "Traceback" not in result.output
    if fault not in ("invalid-json", "not-an-object"):
        assert field in result.output
    assert list(o.iterdir()) == []


def test_a_place_given_as_a_string_is_not_read_letter_by_letter(dirs):
    # "velar" once read as the places {v, e, l, a, r}: every /k/ scored Null
    i, o = dirs
    table = i / "continuants.json"
    obj = json.loads(table.read_text(encoding="utf-8"))
    obj["poa_groups"]["k"] = "velar"
    table.write_text(json.dumps(obj), encoding="utf-8")
    result = run("evaluate-continuants", i, o)
    assert result.exit_code == 1
    assert result.output == f"Error: {table}: field 'poa_groups.k' has the wrong type: 'velar'\n"
    assert list(o.iterdir()) == []


def test_an_exclude_pattern_given_as_a_string_is_not_read_letter_by_letter(dirs):
    # "ab" once read as the patterns a and b: every record holding either was dropped
    i, o = dirs
    config = i / "remap.json"
    config.write_text('{"remap": {}, "exclude": "ab"}', encoding="utf-8")
    result = run("prepare-remap", i, o)
    assert result.exit_code == 1
    assert result.output == \
        f"Error: {config}: field 'exclude' has the wrong type: 'ab'\n"
    assert list(o.iterdir()) == []


@pytest.mark.parametrize("pair", [["p", "b", "t"], ["p"]])
def test_a_voicing_pair_of_other_than_two_symbols_is_named(dirs, pair):
    # once: "ill-typed field: too many values to unpack (expected 2)"
    i, o = dirs
    table = i / "inventory.json"
    obj = json.loads(table.read_text(encoding="utf-8"))
    obj["voicing_pairs"][0] = pair
    table.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    result = run("decode-inventory", i, o)
    assert result.exit_code == 1
    assert result.output == (f"Error: {table}: field 'voicing_pairs[0]' must hold two "
                             f"symbols, not {pair!r}\n")
    assert list(o.iterdir()) == []


@pytest.mark.parametrize("phones, fault", [
    ([{"symbol": "t", "start": 0, "end": 0}, {"symbol": "a", "start": 5, "end": 2}],
     "phones[1]: invalid frame span 5..2"),
    ([{"symbol": "t", "start": -1, "end": 0}], "phones[0]: invalid frame span -1..0"),
    ([{"symbol": "t", "start": 2, "end": 3}, {"symbol": "a", "start": 1, "end": 4}],
     "phones[1]: start frame 1 comes before 2"),
])
def test_a_phone_span_fault_names_the_utterance(dirs, phones, fault):
    i, o = dirs
    rm = i / "rm.jsonl"
    write_lines(rm, [{"utt_id": "u1", "model": "RM", "frame_ms": 20.0, "phones": phones}])
    result = run("augment", i, o)
    assert result.exit_code == 1
    assert result.output == f"Error: {rm}: u1: {fault}\n"
    assert list(o.iterdir()) == []


def test_an_unknown_scenario_field_is_named(dirs):
    # once: "ill-typed field: ScenarioSpec.__init__() got an unexpected keyword argument"
    i, o = dirs
    spec = i / "spec.json"
    spec.write_text('{"seed": 1, "n_utterances": 2, "rate": 0.5}', encoding="utf-8")
    result = run("synth", i, o)
    assert result.exit_code == 1
    assert result.output == f"Error: {spec}: unknown field 'rate'\n"
    assert list(o.iterdir()) == []


# per config file: (change, the path of the key it adds that the schema does not name)
UNKNOWN_FIELDS = {
    "mapping.json": [(lambda o: o.update(window_offset=[5]), "window_offset"),
                     (lambda o: o["entries"][1].update(window=[5]), "entries[1].window")],
    "inventory.json": [(lambda o: o["phones"][2].update(voicing=True), "phones[2].voicing")],
    "continuants.json": [(lambda o: o["continuants"].update(x=["h"]), "continuants.x")],
    "remap.json": [(lambda o: o.update(excludes=[]), "excludes")],
    "vocab.json": [(lambda o: o.update(blanks="_"), "blanks")],
}


@pytest.mark.parametrize("config, change, field", [
    pytest.param(config, change, field, id=field)
    for config, cases in UNKNOWN_FIELDS.items() for change, field in cases])
def test_an_unknown_config_field_is_named(dirs, config, change, field):
    # once: a misspelt "window_offset" ran augment with the default window, exit 0
    i, o = dirs
    path = i / config
    obj = json.loads(path.read_text(encoding="utf-8"))
    change(obj)
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    result = run(CONFIG_READERS[config], i, o)
    assert result.exit_code == 1
    assert result.output == f"Error: {path}: unknown field {field!r}\n"
    assert list(o.iterdir()) == []


def scripted_g(obj):
    next(phone for phone in obj["phones"] if phone["symbol"] == "ɡ").update(symbol="g")


# per case: the command that reads the config file, a change to the file, and the
# error after the file's name. The last case holds both an unknown key and a type
# fault: a type fault anywhere is reported first.
CONFIG_CHECKS = {
    "window-offsets-empty": ("augment-mapping", "mapping.json",
                             lambda o: o.update(window_offsets=[]),
                             "window_offsets must be non-empty"),
    "window-offsets-wide": ("augment-mapping", "mapping.json",
                            lambda o: o.update(window_offsets=[3]),
                            "window offsets beyond |2| are not supported"),
    "latin-g": ("decode-inventory", "inventory.json", scripted_g,
                "inventory must use script ɡ (U+0261), not Latin g"),
    "unknown-place": ("decode-inventory", "inventory.json",
                      lambda o: o["phones"][0].update(place="labial"),
                      "bad place/manner for 'p'"),
    "pair-missing-symbol": ("decode-inventory", "inventory.json",
                            lambda o: o["voicing_pairs"].insert(0, ["p", "Q"]),
                            "voicing pair (p, Q) not in inventory"),
    "pair-other-place": ("decode-inventory", "inventory.json",
                         lambda o: o["voicing_pairs"].insert(0, ["p", "d"]),
                         "voicing pair (p, d) must link a voiceless and a voiced base "
                         "with identical place and manner"),
    "blank-not-a-token": ("prepare-clean-vocab", "vocab.json", lambda o: o.update(blank="#"),
                          "blank must occur exactly once in the vocabulary"),
    "type-fault-before-unknown-key": ("augment-mapping", "mapping.json",
                                      lambda o: (o["entries"][0].update(window=[5]),
                                                 o.update(window_offsets="01")),
                                      "field 'window_offsets' has the wrong type: '01'"),
}


@pytest.mark.parametrize("case", CONFIG_CHECKS)
def test_a_config_file_that_fails_its_checks_is_named(dirs, case):
    i, o = dirs
    command, config, change, message = CONFIG_CHECKS[case]
    path = i / config
    obj = json.loads(path.read_text(encoding="utf-8"))
    change(obj)
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    result = run(command, i, o)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {path}: {message}\n"
    assert list(o.iterdir()) == []


@pytest.mark.parametrize("fraction", ["0", "1"])
def test_prepare_split_rejects_a_fraction_outside_0_to_1(dirs, fraction):
    i, o = dirs
    args = [a.format(i=i, o=o) for a in COMMANDS["prepare-split"][0]]
    args[args.index("--fraction") + 1] = fraction
    result = invoke(args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: fraction must be in (0, 1), got {float(fraction)}\n"
    assert list(o.iterdir()) == []


def test_the_keys_of_a_map_and_of_a_record_are_open(dirs):
    # a MapOf's keys are data, and a JSONL record may carry fields it does not use
    i, o = dirs
    (i / "remap.json").write_text('{"remap": {"any key": "x"}}', encoding="utf-8")
    write_lines(i / "manifest.jsonl", [{"utt_id": "u1", "transcription": "ta", "note": 1}])
    assert run("prepare-remap", i, o).exit_code == 0
    assert json.loads((o / "remapped.jsonl").read_text(encoding="utf-8"))["note"] == 1
    write_lines(i / "paths.jsonl", [{"utt_id": "u1", "frame_ms": 10, "labels": ["t"], "x": 1}])
    assert run("decode", i, o).exit_code == 0


def test_a_vocabulary_that_clean_vocab_wrote_reads_back(dirs):
    # its id_map is named, so the output of one clean-vocab is the input of the next
    i, o = dirs
    assert run("prepare-clean-vocab", i, o).exit_code == 0
    written = o / "vocab.json"
    assert "id_map" in json.loads(written.read_text(encoding="utf-8"))
    written.replace(i / "vocab.json")
    result = run("prepare-clean-vocab", i, o)
    assert result.exit_code == 0, result.output
    assert json.loads(written.read_text(encoding="utf-8"))["tokens"] == {"_": 0, "t": 1, "a": 2}


@pytest.mark.parametrize("command, source", [
    ("decode", "paths.jsonl"), ("augment", "rm.jsonl"), ("prepare-filter", "manifest.jsonl"),
    ("prepare-clean-vocab", "vocab.json")])
def test_a_lone_surrogate_fails_at_read_naming_its_line(dirs, command, source):
    # once: a UnicodeEncodeError traceback when the output was written
    i, o = dirs
    path = i / source
    if source == "vocab.json":  # in a key, on the second line, and a low surrogate
        value = "a\udfff"
        path.write_text('{"tokens": {"_": 0, "t": 1,\n "a\\uDFFF": 2}, "blank": "_"}',
                        encoding="utf-8")
    else:  # in a value, on the second line: json.dumps escapes it
        first = json.loads(path.read_text(encoding="utf-8").split("\n")[0])
        value = first["utt_id"] + "\ud800"
        path.write_text(dump_line(first) + "\n" + json.dumps({**first, "utt_id": value}) + "\n",
                        encoding="utf-8")
    result = run(command, i, o)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {path}:2: string {value!r} holds a lone surrogate\n"
    assert list(o.iterdir()) == []


def test_an_escaped_surrogate_pair_is_one_character(dirs):
    i, o = dirs
    (i / "paths.jsonl").write_text(  # and an escaped backslash before "ud800" is no escape
        '{"utt_id": "u1\\ud83d\\ude00", "frame_ms": 10, "labels": ["t"]}\n'
        '{"utt_id": "u2\\\\ud800", "frame_ms": 10, "labels": ["t"]}\n', encoding="utf-8")
    result = run("decode", i, o)
    assert result.exit_code == 0, result.output
    lines = (o / "tracks.jsonl").read_text(encoding="utf-8").split("\n")
    assert [json.loads(line)["utt_id"] for line in lines[:-1]] == ["u1\U0001F600", "u2\\ud800"]


SPEC_INTS = {"seed", "n_utterances", "jitter"}
HM_RATES = {"hm_aspiration_rate": 0.3, "hm_voicing_rate": 0.2, "hm_breathy_rate": 0.1}
json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False), st.floats(0, 1),
    st.text(max_size=3), st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=1))


def in_range(field, value) -> bool:
    if field in SPEC_INTS:
        return field == "seed" or value >= 0
    if field in HM_RATES:
        return 0 <= value <= 1 and sum({**HM_RATES, field: value}.values()) <= 1
    return 0 <= value <= 1


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(list(ScenarioSpec._fields) + ["rate"]),
       value=json_values)
def test_scenario_spec_fields_take_only_their_json_types(field, value):
    obj = {"seed": 1, "n_utterances": 2, field: value}
    kind = int if field in SPEC_INTS else (int, float)
    well_typed = field != "rate" and isinstance(value, kind) and not isinstance(value, bool)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "spec.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        try:
            spec = ScenarioSpec.load(path)
        except PhonaugError as e:
            message = str(e)
        else:
            message = None
            assert spec._asdict() == obj | {
                k: v for k, v in ScenarioSpec(1, 2)._asdict().items() if k not in obj}
    if not well_typed:  # the type fault names the file and the field
        assert message is not None and message.startswith(f"{path}: ") and field in message
    else:
        assert (message is None) == in_range(field, value), message


@pytest.mark.parametrize("lineno", [1, 3, 2000])
def test_a_jsonl_line_that_is_not_utf8_names_its_line(dirs, lineno):
    # the decoder reads ahead by blocks, so the fault can surface before the
    # lines in front of it are read
    i, o = dirs
    source = i / "instances.jsonl"
    lines = [dump_line({"utt_id": f"u{n:05d}", "phoneme": "k", "vot_ms": 40, "onset": "ka",
                        "model": "BM"}).encode() + b"\n" for n in range(1, 2001)]
    lines[lineno - 1] = lines[lineno - 1].replace(b'"ka"', b'"k\xffa"')
    source.write_bytes(b"".join(lines))
    result = run("evaluate", i, o)
    assert result.exit_code == 1
    assert result.output == f"Error: {source}:{lineno}: not UTF-8\n"
    assert list(o.iterdir()) == []


def test_a_config_file_that_is_not_utf8_names_its_line(dirs):
    i, o = dirs
    table = i / "mapping.json"
    table.write_bytes(b'{\n  "window_offsets": [0, 1],\n  "entries": [{"rm": ["\xff"], '
                      b'"hm": ["p"]}]\n}\n')
    result = run("augment-mapping", i, o)
    assert result.exit_code == 1
    assert result.output == f"Error: {table}:3: not UTF-8\n"
    assert list(o.iterdir()) == []


def test_the_default_inventory_is_one_shared_instance():
    assert Inventory.default() is Inventory.default()
