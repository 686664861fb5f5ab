"""Streaming JSON Lines helpers, and the one reader of JSON config files.

All corpus files are JSONL, read one record at a time; each non-blank line,
stripped of whitespace, is one JSON object, parsed as json.loads parses it.
A line that is not UTF-8, or that nests too deeply for json to read, fails with
its file and line number.
`augment` and `prefilter-aspiration` hold one RM and one HM track at a time, so
they process corpora larger than memory in constant space (apart from the
utt_ids they report). `evaluate` reads, checks, classifies and tallies each line
in one loop (`metrics.Evaluation.read`), tests each field inline, builds no record
of a line that passes, and keeps no instance. It reads the head of each distinct
onset once, its first phone and the base of its second, by `Inventory.head`, which
finds the onset's phones with the one phone pattern, as the tokenizer does, and
takes only the first two from the inventory's memo. What grows with its input is
one vot_ms per instance, one head per distinct onset, and one entry per instance
in `metrics.Evaluation`'s per-model dict from utt_id to voicing flag (or None),
which serves both the duplicate check and the paired test. `synth` makes and
writes one utterance at a time, so nothing of it grows with n_utterances.
`decode` holds its input's tracks in memory so that it can sort them; it decodes
each line as it reads it, in one pass over the line's runs (`ctc.decode_track`).
A string that escapes a lone surrogate ("\\ud800") fails at read with its file
and line, since no UTF-8 output can hold it.
An error message shows a rejected value by `shown`, its repr cut to a fixed
length, so a huge value still fails with one short `Error:` line.
Writers emit deterministic bytes (sorted keys, no trailing spaces) so re-runs
are byte-identical. `dump_line` gives the line of a JSON object, and
`write_lines` writes lines to an open output; track lines are formatted by
`ctc.track_line` and truth lines by `synth.truth_line`, with the bytes that
`dump_line` gives their objects. `dump_json` gives the text of every JSON
document a command writes. `replacing` is the one writer: every output file,
JSONL or not, is written to a temporary file beside its path and appears there
only once it is written in full. A command writes all of its outputs, which
must name distinct files, inside one `replacing`, and they are renamed into
place one by one once all of them are written: a fault while writing leaves
every output as it was, but a failed rename of the k-th output leaves outputs 1
to k-1 replaced (ROADMAP item 7 would make the renames all or nothing). An
output path must name a file: "" and a path whose last part is empty, "." or
".." fail before any write, as does such an `evaluate --out-prefix`, before its
suffixes are added.

Each config file, the packaged tables under `DATA` too, is one JSON object,
read whole by `read_json`. Both readers `check` each object against its schema
of JSON types before its `from_obj` reads it: a fault names the file and the field,
and any other error that `from_obj` raises names the file. `ctc.read_tracks` tests
each track line inline, with exact types, and builds it in the same loop; a line
that fails a test goes to `parse_record`, which checks it whole against
`ctc.TRACK_FIELDS` before `ctc.track_from_obj` builds it. `ctc.decode_file` reads
a frame-path line the same way: a line that passes its inline test goes straight to
`ctc.decode_track`, and one that fails it, or that decode_track refuses, goes to
`parse_record`. An error names an utt_id by `shown_id`, cut as `shown` cuts a
value, and a line whose utt_id is not a non-empty string by its number.
A config object must also name no key its schema does not. A record may, and
`prepare` writes such keys back as it read them.
"""

from __future__ import annotations

import errno
import json
import os
import re
from collections import namedtuple
from contextlib import ExitStack, closing, contextmanager
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO, TypeVar

from .errors import PhonaugError, in_context

DATA = resources.files("phonaug.data")


class MalformedLine(PhonaugError):
    def __init__(self, path: str, lineno: int, reason: str):
        self.path = path
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {reason}")


# json.loads(line) without its per-call dispatch: read_jsonl strips each line,
# so no JSON whitespace is left around the value for loads to skip
_decode = json.JSONDecoder().raw_decode


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one object per non-blank line; malformed lines carry their line
    number and json.loads' reason."""
    with open(path, encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    if line[0] == "\ufeff":  # loads' own check, which raw_decode lacks
                        raise json.JSONDecodeError(
                            "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
                    obj, end = _decode(line)
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
                except json.JSONDecodeError as e:
                    raise MalformedLine(str(path), lineno, f"invalid JSON ({e.msg})") from e
                except RecursionError:  # json reads one nesting level per stack frame
                    raise MalformedLine(str(path), lineno,
                                        "invalid JSON (nested too deeply)") from None
                if not isinstance(obj, dict):
                    raise MalformedLine(str(path), lineno, "expected a JSON object")
                # a search for one character: on non-ASCII text it runs several times
                # faster than one for two, and few lines hold a backslash at all
                if "\\" in line:
                    _refuse_lone_surrogates(path, line, lineno)
                yield obj
        except UnicodeDecodeError:
            # the decoder reads ahead by blocks: find the line by rescanning
            raise MalformedLine(str(path), _undecodable_line(path), "not UTF-8") from None


def _undecodable_line(path: str | Path) -> int | None:
    """The number of the first line of the file at `path` that is not UTF-8."""
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno


# an escape of a surrogate code point (U+D800 to U+DFFF), and a JSON string: in text
# that parses as JSON, each '"' outside a string begins one. re compiles them on first
# use, since few inputs hold a backslash at all.
_SURROGATE_ESCAPE = r"\\u[dD][89a-fA-F]"
_STRING = r'"(?:[^"\\]|\\.)*"'


def _refuse_lone_surrogates(path: str | Path, text: str, lineno: int = 1) -> None:
    """Raise MalformedLine at the first string of the JSON `text` that escapes a lone
    surrogate: json decodes "\\ud800" to a code point that no UTF-8 output can hold.
    An escaped pair decodes to one character. `text` starts at line `lineno` of the
    file at `path`."""
    if re.search(_SURROGATE_ESCAPE, text) is None:  # as in most text with \u escapes
        return
    for m in re.finditer(_STRING, text):
        if re.search(_SURROGATE_ESCAPE, m[0]):
            value = json.loads(m[0])
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedLine(str(path), lineno + text.count("\n", 0, m.start()),
                                    f"string {shown(value)} holds a lone surrogate") from None


T = TypeVar("T")

# The model tags a track or instance may carry, the six target phonemes, voiced then
# voiceless, and the place-of-articulation group of each. They live here, in the one
# module every command runs, because `decode --model-tag` and `evaluate --group` offer
# them as choices and `prepare onset-testset` labels records with the phonemes that
# `evaluate` reads; `ctc` and `metrics` re-export them.
MODEL_TAGS = ("RM", "HM", "BM", "TM", "OTHER")
VOICED_PHONEMES, VOICELESS_PHONEMES = ("b", "d", "g"), ("p", "t", "k")
TARGET_PHONEMES = VOICED_PHONEMES + VOICELESS_PHONEMES
POA_GROUPS = ("bilabial", "alveolar", "velar")
POA_GROUP_OF = dict(zip(TARGET_PHONEMES, POA_GROUPS * 2))

# The JSON types of record and config fields. A kind is the tuple of the exact types a
# value may have, tested with `type(value) in kind` (json gives only these), so a bool is
# neither an integer nor a number; a schema, {field: kind}, is the kind of an object.
STRING, INTEGER, NUMBER, BOOLEAN, LIST = (str,), (int,), (int, float), (bool,), (list,)
ListOf = namedtuple("ListOf", "item")  # a list whose every item has the kind `item`
MapOf = namedtuple("MapOf", "value")  # an object whose every value has the kind `value`
_Optional = namedtuple("Optional", "kind")
_ABSENT = object()  # what check reads for an absent field: no JSON value is of type object
_UNKNOWN = object()  # what a closed check reads for a key that no schema names


def Optional(kind: Any) -> Any:
    """The kind of a field that may be absent, else of `kind` (a tuple just admits `object`)."""
    return kind + (object,) if type(kind) is tuple else _Optional(kind)


class FieldError(PhonaugError):
    """A field of a record or config object is missing or cannot be read."""


# the most characters of a rejected value's repr that an error message holds
SHOWN_CHARS = 60


def shown(value: Any) -> str:
    """The repr of a rejected input value, for an error message, cut to SHOWN_CHARS
    characters and "..." when longer: a value read from a file may be of any size."""
    text = repr(value)
    return text if len(text) <= SHOWN_CHARS else text[:SHOWN_CHARS] + "..."


def shown_id(utt_id: str) -> str:
    """An utt_id for an error message, cut to SHOWN_CHARS characters and "..." when
    longer, as `shown` cuts a value; a site that quotes it quotes what this gives.
    Anything else, which only a record built in code can hold, is given back as it is."""
    if type(utt_id) is not str or len(utt_id) <= SHOWN_CHARS:
        return utt_id
    return utt_id[:SHOWN_CHARS] + "..."


def check(obj: dict, schema: dict, closed: bool = False) -> None:
    """Raise FieldError naming the field by its path (`phones[0].start`) unless `obj` fits,
    and, if `closed`, unless its schema names every key; a type fault anywhere comes first.
    The track, frame-path and instance readers test each line inline and call it only on
    a line that they refuse; each manifest line and each config file is checked by it alone."""
    fault = _fault(obj, schema) or closed and _fault(obj, schema, closed=True)
    if fault:
        path, value = fault[0][1:], fault[1]  # the path without its leading "."
        raise FieldError(f"missing field {path!r}" if value is _ABSENT else
                         f"unknown field {path!r}" if value is _UNKNOWN else
                         f"field {path!r} has the wrong type: {shown(value)}")


def _fault(value: Any, kind: Any, closed: bool = False) -> tuple[str, Any] | None:
    """None if `value` has `kind`, else the path to its first part that has not, and that
    part. With `closed`, for a `value` that has `kind`: the path to its first key, in its
    own order, that no schema in `kind` names, and _UNKNOWN (a MapOf's keys are data)."""
    if type(kind) is tuple:
        return None if type(value) in kind else ("", value)
    if type(value) is not (list if type(kind) is ListOf else dict):
        return "", value
    if type(kind) is dict:
        for name, k in ((n, kind.get(n, _UNKNOWN)) for n in value) if closed else kind.items():
            if k is _UNKNOWN:
                return f".{name}", _UNKNOWN
            v = value.get(name, _ABSENT)
            if type(k) is tuple and type(v) in k:
                continue
            if type(k) is _Optional:
                if v is _ABSENT:
                    continue
                k = k.kind
            fault = ("", v) if v is _ABSENT else _fault(v, k, closed)
            if fault is not None:
                return f".{name}{fault[0]}", fault[1]
        return None
    item = kind[0]
    for key, v in enumerate(value) if type(kind) is ListOf else value.items():
        fault = _fault(v, item, closed)
        if fault is not None:
            return (f"[{key}]" if type(kind) is ListOf else f".{key}") + fault[0], fault[1]
    return None


def _read(obj: dict, schema: dict, from_obj: Callable[[dict], T], closed: bool = False) -> T:
    """from_obj of `obj` once `check` admits it (closed, if `closed`); from_obj's read
    errors raise FieldError."""
    check(obj, schema, closed)
    try:
        return from_obj(obj)
    except (TypeError, ValueError, OverflowError) as e:
        raise FieldError(f"ill-typed field: {e}") from None


def parse_records(path: str | Path, from_obj: Callable[[dict], T],
                  schema: dict) -> Iterator[T]:
    """Yield parse_record of each object in the file at `path`."""
    with closing(read_jsonl(path)) as objs:
        for n, obj in enumerate(objs, start=1):
            yield parse_record(path, n, obj, from_obj, schema)


def parse_record(path: str | Path, n: int, obj: dict, from_obj: Callable[[dict], T],
                 schema: dict) -> T:
    """from_obj of `obj`, the `n`th record of the file at `path`, once `schema` admits
    it. A fault fails with the file, the record's utt_id (or its position, when the
    utt_id is not a non-empty string) and the field; a PhonaugError from from_obj gains the file as its context."""
    try:
        return _read(obj, schema, from_obj)
    except FieldError as e:
        utt_id = obj.get("utt_id")
        where = f"utterance {shown_id(utt_id)!r}" if type(utt_id) is str and utt_id else \
            f"record {n}"
        raise in_context(e, f"{path}: {where}") from None
    except PhonaugError as e:
        raise in_context(e, path) from None


def read_json(path: str | Path, from_obj: Callable[[dict], T], schema: dict) -> T:
    """from_obj of the JSON object in the file at `path` (or a table under DATA), checked
    as in parse_records, and holding no key its schema does not name (a config file's
    keys are all read, unlike a record's); a fault, or a PhonaugError from from_obj,
    names the file."""
    data = (Path(path) if isinstance(path, str) else path).read_bytes()
    try:
        text = data.decode("utf-8")
        obj = json.loads(text)
    except UnicodeDecodeError as e:
        raise MalformedLine(str(path), data.count(b"\n", 0, e.start) + 1, "not UTF-8") from None
    except json.JSONDecodeError as e:
        raise MalformedLine(str(path), e.lineno, f"invalid JSON ({e.msg})") from None
    except RecursionError:  # the document as a whole: it starts at line 1
        raise MalformedLine(str(path), 1, "invalid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise PhonaugError(f"{path}: expected a JSON object")
    if "\\" in text:
        _refuse_lone_surrogates(path, text)
    try:
        return _read(obj, schema, from_obj, closed=True)
    except PhonaugError as e:
        raise in_context(e, path) from None


def dump_line(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def dump_json(obj: Any) -> str:
    """The text of a JSON document that a command writes: `obj` indented by 2, keys
    sorted, and a final newline."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def check_names_file(path: str | Path) -> None:
    """Fail unless the last part of `path` names a file: "" would resolve to the
    working directory."""
    if os.path.basename(path) in ("", ".", ".."):
        raise PhonaugError(f"{str(path)!r}: output path names no file")


def check_outputs(*paths: str | Path | None) -> None:
    """Fail unless each output path (None for an output not asked for) names a
    regular file or nothing yet, in a directory that exists, and no two of them
    name one file (by `os.path.realpath`): a rename would replace a directory,
    device or pipe itself, and of two outputs renamed onto one file only the
    last would be left. `replacing` calls it before it opens any file."""
    named: dict[str, str | Path] = {}  # realpath -> the first path that names it
    for path in paths:
        if path is None:
            continue
        check_names_file(path)
        if os.path.exists(path) and not os.path.isfile(path):
            raise PhonaugError(f"{path}: output must be a regular file")
        real = os.path.realpath(path)
        if not os.path.isdir(os.path.dirname(real)):
            raise PhonaugError(f"{path}: output directory does not exist")
        if real in named:
            raise PhonaugError(f"{path}: output is the same file as {named[real]}")
        named[real] = path


# the errors that only a write gives, which name no file
_WRITE_FAULTS = (errno.ENOSPC, errno.EFBIG)


@contextmanager
def replacing(*paths: str | Path | None) -> Iterator[list[TextIO | None]]:
    """One text file to write in place of each path (None for a path that is
    None): temporary files beside them, open together, each of which replaces
    its path once the block ends, so only when all are complete. If the block
    fails, every temporary file is removed and each path is left as it was; if
    a rename fails, the paths renamed before it stay replaced.

    An OSError is reported under the output it concerns: one that names a
    temporary file names its path as the caller gave it, and a write fault that
    names no file (a full disk, a file size limit) names the one path, if only
    one is not None."""
    check_outputs(*paths)
    # replace a symlink's target, not the link
    targets = [None if path is None else Path(path).resolve() for path in paths]
    tmps = [None if target is None else
            target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp") for target in targets]
    try:
        with ExitStack() as stack:
            yield [None if tmp is None else stack.enter_context(open(tmp, "x", encoding="utf-8"))
                   for tmp in tmps]
        for tmp, target in zip(tmps, targets):
            if tmp is not None:
                os.replace(tmp, target)
    except BaseException as e:
        for tmp in tmps:
            if tmp is not None:
                tmp.unlink(missing_ok=True)
        if isinstance(e, OSError):  # the temporary files are gone: name their outputs
            given = {str(tmp): path for tmp, path in zip(tmps, paths) if tmp is not None}
            if e.filename is not None:
                e.filename = given.get(str(e.filename), e.filename)
            elif e.errno in _WRITE_FAULTS and len(given) == 1:
                e.filename, = given.values()
        raise


def write_lines(out: TextIO, items: Iterable[T], line: Callable[[T], str] = dump_line) -> int:
    """Write the line of each item, `line(item)` and a newline, to `out`, an output
    that `replacing` opened, and return the count."""
    n = 0
    for n, item in enumerate(items, start=1):
        out.write(line(item) + "\n")
    return n


def write_jsonl(path: str | Path, objs: Iterable[dict]) -> int:
    """Write one line per object to `path`, all or nothing, and return the count."""
    with replacing(path) as (f,):
        return write_lines(f, objs)
