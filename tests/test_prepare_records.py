"""`prepare` writes each manifest line back as it read it: every key, those that
no command reads too, with only the field the command owns set. And
`clean-vocab` cleans the vocabulary file's own {token: id} map as the
positional algorithm it replaced did, byte for byte. A line that holds a NaN or an
infinity, at any depth, fails every command that reads a manifest."""

from __future__ import annotations

import json
import tempfile
import unicodedata
from pathlib import Path

import pytest
from clirun import invoke
from hypothesis import given, settings
from hypothesis import strategies as st

from phonaug.io import dump_line
from phonaug.manifest import SEGMENT_FIELDS

chars = st.characters(blacklist_categories=("Cs",))  # no UTF-8 output holds a lone surrogate
keys = st.text(chars, min_size=1, max_size=5).filter(lambda k: k not in SEGMENT_FIELDS)
values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(chars, max_size=5)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(chars, max_size=3),
                                                                inner, max_size=3),
    max_leaves=6)
# per record: the first letter of its sentence, its downvotes, its transcription (None:
# absent), whether it is analyzable (None: absent), and the keys no command reads
records = st.tuples(st.sampled_from("bdgptkE"), st.integers(0, 2),
                    st.sampled_from([None, "", "ta", "tQa", "Qa"]), st.sampled_from([None, True]),
                    st.dictionaries(keys, values, max_size=3))


def manifest(drawn) -> list[dict]:
    """One record per drawn tuple, the first six sure to fill each onset bucket."""
    out = []
    for n, (letter, downvotes, transcription, analyzable, extra) in enumerate(drawn):
        if n < 6:
            letter, analyzable = "bdgptk"[n], True
        rec = {**extra, "utt_id": f"u{n}", "sentence": f"{letter.upper()}alt"}
        if downvotes:
            rec["downvotes"] = downvotes
        if transcription is not None:
            rec["transcription"] = transcription
        if analyzable is not None:
            rec["analyzable"] = analyzable
        out.append(rec)
    return out


def read_lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n")[:-1]]


COMMANDS = {
    "filter": (["filter", "{m}", "{o}/out.jsonl"], ["out.jsonl"]),
    "sample": (["sample", "{m}", "{o}/out.jsonl", "--n", "4", "--seed", "3"], ["out.jsonl"]),
    "split": (["split", "{m}", "--fraction", "0.4", "--seed", "3", "--train-out",
               "{o}/train.jsonl", "--valid-out", "{o}/valid.jsonl"],
              ["train.jsonl", "valid.jsonl"]),
    "remap": (["remap", "{m}", "{o}/out.jsonl", "--config", "{o}/remap.json"], ["out.jsonl"]),
    "onset-testset": (["onset-testset", "{m}", "{o}/out.jsonl", "--per-phoneme-n", "1",
                       "--seed", "3"], ["out.jsonl"]),
}


def own_field(command: str, rec: dict) -> dict:
    """`rec` with the field that `command` sets, as it sets it."""
    if command == "remap" and "Q" in rec.get("transcription", ""):
        return {**rec, "transcription": rec["transcription"].replace("Q", "k")}
    if command == "onset-testset":
        return {**rec, "phoneme": rec["sentence"][0].lower()}
    return rec


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)),
       drawn=st.lists(records, min_size=6, max_size=12))
def test_prepare_writes_each_line_back_as_read(command, drawn):
    recs = manifest(drawn)
    with tempfile.TemporaryDirectory() as d:
        m = Path(d) / "manifest.jsonl"
        m.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in recs),
                     encoding="utf-8")
        (Path(d) / "remap.json").write_text('{"remap": {"Q": "k"}}', encoding="utf-8")
        args, outputs = COMMANDS[command]
        result = invoke(["prepare", *(a.format(m=m, o=d) for a in args)])
        assert result.exit_code == 0, result.output
        written = [rec for name in outputs for rec in read_lines(Path(d) / name)]
    by_id = {r["utt_id"]: r for r in recs}
    assert len(written) == len({r["utt_id"] for r in written})
    for rec in written:
        assert rec == own_field(command, by_id[rec["utt_id"]])
    if command == "filter":
        assert written == [r for r in recs if r.get("downvotes", 0) == 0]
    elif command == "split":
        assert sorted(r["utt_id"] for r in written) == sorted(by_id)


BLANK_RULE = "blank must occur exactly once in the vocabulary"


def positional_clean_vocab(vocab_file: str, ids: dict, blank: str, remove: list[str],
                           add: list[str], transcriptions: list[str]) -> str:
    """What `clean-vocab` wrote, or its error line, when it cleaned a list of tokens in
    id order, each token's id its position, and keyed the id_map back to the file's ids."""
    tokens = sorted(ids, key=ids.get)
    if tokens.count(blank) != 1:
        return f"Error: {vocab_file}: {BLANK_RULE}\n"
    used = {c for text in transcriptions for c in unicodedata.normalize("NFD", text)}
    for tok in sorted(set(remove)):
        if tok in used:
            return f"Error: token {tok!r} marked for removal still occurs in the corpus\n"
    new_tokens = [t for t in tokens if t not in remove]
    for tok in sorted(set(add)):
        if tok not in new_tokens:
            new_tokens.append(tok)
    if new_tokens.count(blank) != 1:
        return f"Error: {BLANK_RULE}\n"
    id_map = {tokens.index(t): i for i, t in enumerate(new_tokens) if t in tokens}
    out = {"tokens": {t: i for i, t in enumerate(new_tokens)}, "blank": blank,
           "id_map": {str(ids[tokens[k]]): v for k, v in sorted(id_map.items())}}
    return json.dumps(out, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


SYMBOLS = ["_", "|", "t", "a", "k", "g", "ɡ", "ʱ", "ʰ"]


@settings(max_examples=150, deadline=None)
@given(ids=st.dictionaries(st.sampled_from(SYMBOLS), st.integers(0, 40))
       .filter(lambda ids: len(set(ids.values())) == len(ids)),  # each token its own id
       blank=st.sampled_from(SYMBOLS[:3]),
       remove=st.lists(st.sampled_from(SYMBOLS), max_size=4),
       add=st.lists(st.sampled_from(SYMBOLS), max_size=4),
       transcriptions=st.lists(st.text(st.sampled_from("tak"), max_size=3), max_size=3))
def test_clean_vocab_writes_what_the_positional_algorithm_wrote(ids, blank, remove, add,
                                                                 transcriptions):
    # --remove and --add may name one token, and the blank
    with tempfile.TemporaryDirectory() as d:
        vocab, corpus, out = Path(d) / "vocab.json", Path(d) / "m.jsonl", Path(d) / "out.json"
        vocab.write_text(json.dumps({"tokens": ids, "blank": blank}, ensure_ascii=False),
                         encoding="utf-8")
        corpus.write_text("".join(dump_line({"utt_id": f"u{n}", "transcription": text}) + "\n"
                                  for n, text in enumerate(transcriptions)), encoding="utf-8")
        result = invoke(["prepare", "clean-vocab", str(vocab), str(corpus), str(out),
                         *(f"--remove={t}" for t in remove), *(f"--add={t}" for t in add)])
        expected = positional_clean_vocab(str(vocab), ids, blank, remove, add, transcriptions)
        if expected.startswith("Error: "):
            assert (result.exit_code, result.stderr) == (1, expected)
            assert not out.exists()
        else:
            assert result.exit_code == 0, result.output
            assert out.read_text(encoding="utf-8") == expected


# json reads NaN, Infinity and -Infinity, and 1e999 as infinity; no JSON output holds them
NON_FINITE = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf", "1e999": "inf"}
# where the value sits in the line: (the JSON of key "x", the field path the error names)
PLACES = {"top": ("{v}", "x"), "list": ('[1, {v}]', "x[1]"), "object": ('{{"y": {v}}}', "x.y")}
READERS = {**COMMANDS, "clean-vocab": (["clean-vocab", "{o}/vocab.json", "{m}",
                                        "{o}/vocab_out.json"], ["vocab_out.json"])}


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("token", NON_FINITE)
@pytest.mark.parametrize("command", READERS)
def test_prepare_refuses_a_non_finite_number_anywhere_in_a_line(tmp_path, command, token, place):
    template, field = PLACES[place]
    good = manifest([("b", 0, "ta", True, {})] * 6)
    m = tmp_path / "manifest.jsonl"
    m.write_text("".join(dump_line(r) + "\n" for r in good)
                 + '{"utt_id": "u6", "x": ' + template.format(v=token) + "}\n", encoding="utf-8")
    (tmp_path / "remap.json").write_text('{"remap": {"Q": "k"}}', encoding="utf-8")
    (tmp_path / "vocab.json").write_text('{"tokens": {"_": 0, "t": 1}}', encoding="utf-8")
    inputs = sorted(tmp_path.iterdir())
    args, _ = READERS[command]
    result = invoke(["prepare", *(a.format(m=m, o=tmp_path) for a in args)])
    assert result.exit_code == 1
    assert result.stderr == (f"Error: {m}: utterance 'u6': field {field!r} is not a finite "
                             f"number: {NON_FINITE[token]}\n")
    assert sorted(tmp_path.iterdir()) == inputs  # no output, no temporary file
