"""Contracts every command keeps: a fault exits 1 with one `Error:` line and
writes nothing, an output path must take a regular file, a manifest holds each
utt_id once, and frame_ms is positive and finite wherever it is read."""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from phonaug import Inventory, ScenarioSpec, generate
from phonaug.cli import main
from phonaug.ctc import track_to_obj, write_tracks
from phonaug.io import dump_line

INV = Inventory.default()


def write_lines(path, objs):
    path.write_text("".join(dump_line(o) + "\n" for o in objs), encoding="utf-8")


def write_inputs(d: Path) -> None:
    """One valid input of each kind that the commands read."""
    rm_tracks, hm_tracks, _ = generate(ScenarioSpec(seed=3, n_utterances=4, jitter=1), INV)
    write_tracks(d / "rm.jsonl", rm_tracks)
    write_tracks(d / "hm.jsonl", hm_tracks)
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
    return CliRunner().invoke(main, [a.format(i=i, o=o) for a in args])


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


PREPARE = [c for c in COMMANDS if c.startswith("prepare-")]


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
        result = CliRunner().invoke(main, args)
        if repeated is None:
            assert result.exit_code == 0, result.output
        else:
            assert result.exit_code == 1
            assert result.output == f"Error: {manifest}: utterance {repeated!r} occurs twice\n"
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
            if where == "--frame-ms":
                args.append(f"--frame-ms={frame_ms!r}")
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.output == (f"Error: {source}: {utt_id}: frame_ms must be positive "
                                 f"and finite, got {float(frame_ms)!r}\n")
        assert not out.exists()



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
