"""Every field of every record kind takes only its JSON types: a value of
another type fails the command with the file, the utt_id and the field, and is
never coerced. Config files follow the same rule, and `prepare` keeps the ids
and patterns of its config files as they are written."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from clirun import invoke
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonaug import io
from phonaug.io import dump_line

STR, INT, NUM, BOOL, LIST = (str,), (int,), (int, float), (bool,), (list,)

# record kind -> (command, a valid record, {field: its JSON types}); a track
# phone's fields are those of the track's first phone. augment reads the track
# file as both RM and HM, which only the OTHER tag admits.
TRACK = {"utt_id": "u1", "model": "OTHER", "frame_ms": 20,
         "phones": [{"symbol": "t", "start": 0, "end": 1}]}
RECORD_KINDS = {
    "frame path": ("decode", {"utt_id": "u1", "frame_ms": 10, "labels": ["t", "a"]},
                   {"utt_id": STR, "frame_ms": NUM, "labels": LIST, "blank": STR}),
    "track": ("augment", TRACK,
              {"utt_id": STR, "model": STR, "frame_ms": NUM, "phones": LIST}),
    "track phone": ("augment", TRACK, {"symbol": STR, "start": INT, "end": INT}),
    "instance": ("evaluate", {"utt_id": "u1", "phoneme": "k", "vot_ms": 40, "onset": "ka",
                              "model": "BM"},
                 {"utt_id": STR, "phoneme": STR, "vot_ms": NUM, "onset": STR, "model": STR}),
    "manifest record": ("prepare", {"utt_id": "u1"},
                        {"utt_id": STR, "language": STR, "sentence": STR,
                         "transcription": STR, "upvotes": INT, "downvotes": INT,
                         "split_tag": STR, "analyzable": BOOL, "phoneme": STR}),
}
FIELDS = [(kind, field) for kind, (_, _, fields) in RECORD_KINDS.items() for field in fields]

scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 30), st.floats(-50, 50),
                    st.sampled_from(["t", "a", "k", "BM", "TM", "u1", "_", "", "20", "true"]))
json_values = st.one_of(
    scalars, st.sampled_from([10 ** 400, 1.7, -20.0]), st.text(max_size=3),
    st.lists(scalars, max_size=3),
    st.dictionaries(st.sampled_from(["symbol", "start", "end", "a"]), scalars, max_size=3))


def write_lines(path, objs):
    path.write_text("".join(dump_line(o) + "\n" for o in objs), encoding="utf-8")


def run(command: str, source: Path, out: Path, *extra: str):
    args = {
        "decode": ["decode", str(source), str(out)],
        "augment": ["augment", str(source), str(source), str(out)],
        "evaluate": ["evaluate", str(source), "--out-prefix", str(out)],
        "prepare": ["prepare", "filter", str(source), str(out)],
    }[command]
    return invoke([*args, *extra])


@settings(max_examples=400, deadline=None)
@given(where=st.sampled_from(FIELDS), value=json_values)
@example(where=("frame path", "utt_id"), value="\x85")  # U+0085 is no line break in JSONL
def test_every_field_takes_only_its_json_types(where, value):
    kind, field = where
    command, valid, types = RECORD_KINDS[kind]
    value = json.loads(dump_line(value))  # as the command reads it: keys sorted
    record = json.loads(json.dumps(valid))
    (record["phones"][0] if kind == "track phone" else record)[field] = value
    path = f"phones[0].{field}" if kind == "track phone" else field
    with tempfile.TemporaryDirectory() as d:
        source, out = Path(d) / "in.jsonl", Path(d) / "out.jsonl"
        write_lines(source, [record])
        result = run(command, source, out)
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            result.exception  # a traceback
        if type(value) not in types[field]:
            where = f"utterance {record['utt_id']!r}" if field != "utt_id" else "record 1"
            assert result.exit_code == 1
            assert result.output == (f"Error: {source}: {where}: field {path!r} has the "
                                     f"wrong type: {io.shown(value)}\n")
            assert sorted(p.name for p in Path(d).iterdir()) == ["in.jsonl"]
        elif result.exit_code == 1:  # a value check: one line naming the utterance
            assert result.output.startswith(f"Error: {source}: ")
            assert result.output.count("\n") == 1
            assert record["utt_id"] in result.output
        else:  # accepted as it stands
            assert result.exit_code == 0, result.output
            if command in ("decode", "augment"):
                # split at "\n" alone: splitlines() also splits inside a string holding U+0085
                (track,) = [json.loads(line) for line in out.read_text("utf-8").split("\n")[:-1]]
                assert track["utt_id"] == record["utt_id"]
                assert track["frame_ms"] == record["frame_ms"]
                if command == "augment" and field in ("start", "end"):
                    assert track["phones"][0][field] == value
            elif command == "prepare" and out.read_text("utf-8"):
                assert json.loads(out.read_text("utf-8")) == record


INSTANCE = {"utt_id": "u1", "phoneme": "b", "vot_ms": 10, "onset": "ba", "model": "BM"}


@pytest.mark.parametrize("command, records, message", [
    pytest.param("decode", [{"utt_id": "u1", "frame_ms": 10, "labels": "ta"}],
                 "field 'labels' has the wrong type: 'ta'", id="decode-labels-string"),
    pytest.param("decode", [{"utt_id": "u1", "frame_ms": True, "labels": ["t", "a"]}],
                 "field 'frame_ms' has the wrong type: True", id="decode-frame_ms-true"),
    pytest.param("decode", [{"utt_id": "u1", "frame_ms": 10, "labels": ["_", "t", "t", 4]}],
                 "field 'labels[3]' has the wrong type: 4", id="decode-label-number"),
    pytest.param("augment", [{**TRACK, "phones": [{"symbol": "t", "start": 1.7, "end": 3}]}],
                 "field 'phones[0].start' has the wrong type: 1.7", id="augment-start-float"),
    pytest.param("augment", [{**TRACK, "phones": [{"symbol": "t", "start": 0, "end": True}]}],
                 "field 'phones[0].end' has the wrong type: True", id="augment-end-true"),
    # a type fault is reported before an unknown symbol earlier in the line
    pytest.param("augment", [{**TRACK, "phones": [
        {"symbol": "t7", "start": 0, "end": 0}, {"symbol": "a", "start": 1, "end": 1},
        {"symbol": "t", "start": 2, "end": True}]}],
                 "field 'phones[2].end' has the wrong type: True",
                 id="augment-end-true-after-unknown-symbol"),
    pytest.param("augment", [{**TRACK, "frame_ms": "20"}],
                 "field 'frame_ms' has the wrong type: '20'", id="augment-frame_ms-string"),
    pytest.param("evaluate", [{**INSTANCE, "vot_ms": "-20"}],
                 "field 'vot_ms' has the wrong type: '-20'", id="evaluate-vot_ms-string"),
    pytest.param("evaluate", [{**INSTANCE, "vot_ms": True}],
                 "field 'vot_ms' has the wrong type: True", id="evaluate-vot_ms-true"),
    pytest.param("evaluate", [{**INSTANCE, "utt_id": "u0"}, {**INSTANCE, "model": 5}],
                 "field 'model' has the wrong type: 5", id="evaluate-model-number"),
    pytest.param("evaluate", [{**INSTANCE, "utt_id": "u0"}, {**INSTANCE, "model": ["x"]}],
                 "field 'model' has the wrong type: ['x']", id="evaluate-model-list"),
    pytest.param("prepare", [{"utt_id": "u1", "downvotes": 1.9}],
                 "field 'downvotes' has the wrong type: 1.9", id="filter-downvotes-float"),
    pytest.param("prepare", [{"utt_id": "u1", "upvotes": "3"}],
                 "field 'upvotes' has the wrong type: '3'", id="filter-upvotes-string"),
    pytest.param("prepare", [{"utt_id": "u1", "transcription": 5}],
                 "field 'transcription' has the wrong type: 5", id="filter-transcription"),
    pytest.param("prepare", [{"utt_id": "u1", "sentence": ["b"]}],
                 "field 'sentence' has the wrong type: ['b']", id="filter-sentence-list"),
    pytest.param("prepare", [{"utt_id": "u1", "analyzable": "yes"}],
                 "field 'analyzable' has the wrong type: 'yes'", id="filter-analyzable"),
])
def test_a_wrong_typed_field_is_never_coerced(tmp_path, command, records, message):
    source = tmp_path / "in.jsonl"
    write_lines(source, records)
    result = run(command, source, tmp_path / "out")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {source}: utterance 'u1': {message}\n"
    assert list(tmp_path.iterdir()) == [source]


@pytest.mark.parametrize("line_frame_ms", [None, "fast"])
def test_decode_frame_ms_option_does_not_read_the_line_frame_ms(tmp_path, line_frame_ms):
    source, out = tmp_path / "paths.jsonl", tmp_path / "out.jsonl"
    record = {"utt_id": "u1", "labels": ["t", "a"]}
    if line_frame_ms is not None:
        record["frame_ms"] = line_frame_ms
    write_lines(source, [record])
    result = run("decode", source, out, "--frame-ms", "10")
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text("utf-8"))["frame_ms"] == 10.0


@pytest.mark.parametrize("obj, schema, fault", [
    ({"phones": [{"start": 0}, {"start": "0"}]}, {"phones": io.ListOf({"start": io.INTEGER})},
     "field 'phones[1].start' has the wrong type: '0'"),
    ({"phones": [{}]}, {"phones": io.ListOf({"start": io.INTEGER})},
     "missing field 'phones[0].start'"),
    ({"phones": [{"start": 0}, "t"]}, {"phones": io.ListOf({"start": io.INTEGER})},
     "field 'phones[1]' has the wrong type: 't'"),
    ({"poa_groups": {"k": "velar"}}, {"poa_groups": {"k": io.ListOf(io.STRING)}},
     "field 'poa_groups.k' has the wrong type: 'velar'"),
    ({"remap": {"x": 1}}, {"remap": io.MapOf(io.STRING)}, "field 'remap.x' has the wrong type: 1"),
    ({"n": 1.0}, {"n": io.Optional(io.INTEGER)}, "field 'n' has the wrong type: 1.0"),
    ({"x": False}, {"x": io.NUMBER}, "field 'x' has the wrong type: False"),
    ({"x": 1}, {"x": io.BOOLEAN}, "field 'x' has the wrong type: 1"),
])
def test_check_names_a_nested_field_by_its_path(obj, schema, fault):
    with pytest.raises(io.FieldError) as e:
        io.check(obj, schema)
    assert str(e.value) == fault


def test_check_admits_an_absent_optional_field_and_exact_types():
    io.check({"a": 1, "b": 2.5, "c": [], "d": {}}, {
        "a": io.INTEGER, "b": io.NUMBER, "c": io.ListOf(io.STRING),
        "d": io.MapOf(io.INTEGER), "e": io.Optional(io.STRING)})


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.integers(0, 10 ** 6), min_size=4, max_size=8, unique=True),
       removed=st.sets(st.integers(1, 7)), added=st.sets(st.sampled_from(["ʰ", "ʱ", "e"])))
def test_clean_vocab_keys_id_map_by_the_file_ids(ids, removed, added):
    # "_" and "t" "a" of the corpus stay; the other tokens are unused
    tokens = ["_", "t", "a", "x", "y", "z", "w", "v"][:len(ids)]
    vocab = dict(zip(tokens, ids))
    remove = sorted(t for n, t in enumerate(tokens) if n in removed and t not in "_ta")
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        (d / "vocab.json").write_text(json.dumps({"tokens": vocab}), encoding="utf-8")
        write_lines(d / "corpus.jsonl", [{"utt_id": "u1", "transcription": "ta"}])
        result = invoke([
            "prepare", "clean-vocab", str(d / "vocab.json"), str(d / "corpus.jsonl"),
            str(d / "out.json"), *(f"--remove={t}" for t in remove),
            *(f"--add={t}" for t in sorted(added))])
        assert result.exit_code == 0, result.output
        out = json.loads((d / "out.json").read_text("utf-8"))
    kept = sorted((i, t) for t, i in vocab.items() if t not in remove)
    assert out["id_map"] == {str(i): out["tokens"][t] for i, t in kept}
    assert sorted(out["tokens"].values()) == list(range(len(out["tokens"])))
    assert [t for _, t in kept] == sorted(out["tokens"], key=out["tokens"].get)[:len(kept)]


def test_clean_vocab_refuses_two_tokens_with_one_id(tmp_path):
    vocab, corpus = tmp_path / "vocab.json", tmp_path / "corpus.jsonl"
    vocab.write_text('{"tokens": {"_": 0, "t": 1, "a": 1}}', encoding="utf-8")
    write_lines(corpus, [{"utt_id": "u1", "transcription": "ta"}])
    result = invoke(["prepare", "clean-vocab", str(vocab), str(corpus),
                     str(tmp_path / "out.json")])
    assert result.exit_code == 1
    assert result.output == f"Error: {vocab}: field 'tokens' gives two tokens one id\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("config, field", [
    ({"remap": {"": "ə"}}, "remap"), ({"remap": {"x": "t"}, "exclude": ["", "q"]}, "exclude")])
def test_remap_refuses_an_empty_pattern(tmp_path, config, field):
    # "" occurs in every text: {"": "ə"} turned "ta" into "ətəaə", and [""] dropped
    # every record
    path, manifest, out = tmp_path / "remap.json", tmp_path / "m.jsonl", tmp_path / "out.jsonl"
    path.write_text(json.dumps(config), encoding="utf-8")
    write_lines(manifest, [{"utt_id": "u1", "transcription": "ta"}])
    result = invoke(["prepare", "remap", str(manifest), str(out),
                     "--config", str(path)])
    assert result.exit_code == 1
    assert result.output == (f"Error: {path}: field {field!r} holds the empty pattern, "
                             "which occurs in every transcription\n")
    assert not out.exists()
