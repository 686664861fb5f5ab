"""A line nested far too deeply for Python's json fails every reader with one
`Error:` line naming the file, never a RecursionError traceback; and `prepare`
refuses at read a line nested too deeply to be sure it can be written back."""

from __future__ import annotations

import json

import pytest
from clirun import invoke

from phonaug.io import DATA, dump_line


def nested(depth: int) -> str:
    """A JSON list that nests lists `depth` levels deep, itself counted."""
    return "[" * depth + "]" * depth


TRACK = {"utt_id": "u1", "frame_ms": 10, "phones": [{"symbol": "t", "start": 0, "end": 1}]}
FRAME_PATH = {"utt_id": "u1", "frame_ms": 10, "labels": ["t", "a"]}


def line(obj: dict, field: str, depth: int) -> str:
    """The JSONL line of `obj` with `field` nested so that the line's object and the
    lists in it nest `depth` levels deep."""
    return json.dumps({**obj, field: None}).replace("null", nested(depth - 1)) + "\n"


# reader -> (its input files, with the nested one named "deep", and its arguments); the
# nesting sits in a field the reader checks, so that a json that reads the line (as
# Python 3.13's does at 2000 levels) still meets a field fault
READERS = {
    "tracks": (lambda d: {"deep": line({**TRACK, "model": "RM"}, "phones", d),
                          "hm": json.dumps({**TRACK, "model": "HM"}) + "\n"},
               ["augment", "{deep}", "{hm}", "{o}/out.jsonl"]),
    "frame paths": (lambda d: {"deep": line(FRAME_PATH, "labels", d)},
                    ["decode", "{deep}", "{o}/out.jsonl"]),
    "instances": (lambda d: {"deep": line({"utt_id": "u1", "phoneme": "k", "onset": "k"},
                                          "vot_ms", d)},
                  ["evaluate", "{deep}", "--out-prefix", "{o}/out"]),
    "manifest": (lambda d: {"deep": line({"utt_id": "u1"}, "x", d)},
                 ["prepare", "filter", "{deep}", "{o}/out.jsonl"]),
    "config": (lambda d: {"deep": json.dumps({**json.loads(DATA.joinpath("inventory.json")
                                                            .read_text("utf-8")),
                                              "diacritics": None}).replace("null", nested(d)),
                          "paths": json.dumps(FRAME_PATH) + "\n"},
               ["decode", "{paths}", "{o}/out.jsonl", "--inventory", "{deep}"]),
}


def run(tmp_path, inputs: dict[str, str], args: list[str]):
    """Write `inputs` under `tmp_path` and run the command `args` on them, its
    placeholders filled; assert that it fails as a bad input must, and return its
    stderr."""
    paths = {name: tmp_path / f"{name}.json" for name in inputs}
    for name, text in inputs.items():
        paths[name].write_text(text, encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    result = invoke([a.format(o=tmp_path, **paths) for a in args])
    assert isinstance(result.exception, SystemExit), result.exception  # no traceback
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"Error: {paths['deep']}:")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    assert sorted(tmp_path.iterdir()) == before  # no output, no temporary file
    return result.stderr


@pytest.mark.parametrize("depth", [2000, 100000])
@pytest.mark.parametrize("reader", READERS)
def test_a_deeply_nested_line_fails_each_reader_with_one_error_line(tmp_path, reader, depth):
    inputs, args = READERS[reader]
    run(tmp_path, inputs(depth), args)


def test_prepare_refuses_each_depth_where_json_may_fail(tmp_path):
    # json reads and writes one level per stack frame, and about 1000 frames fail it
    inputs, args = READERS["manifest"]
    for depth in range(900, 1001):
        for old in tmp_path.iterdir():
            old.unlink()
        error = run(tmp_path, inputs(depth), args)
        assert error.endswith(("more than 500 levels deep\n", "(nested too deeply)\n")), depth


def test_prepare_writes_back_a_line_at_the_depth_limit(tmp_path):
    m, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
    deep = line({"utt_id": "u1"}, "x", 500)
    m.write_text(deep, encoding="utf-8")
    result = invoke(["prepare", "filter", str(m), str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_text(encoding="utf-8") == dump_line(json.loads(deep)) + "\n"
    m.write_text(line({"utt_id": "u1"}, "x", 501), encoding="utf-8")
    result = invoke(["prepare", "filter", str(m), str(out)])
    assert result.stderr == (f"Error: {m}: utterance 'u1': field 'x' nests lists and objects "
                             "more than 500 levels deep\n")
