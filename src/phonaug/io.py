"""Streaming JSON Lines helpers, and the one reader of JSON config files.

All corpus files are JSONL, read one record at a time; each non-blank line,
stripped of whitespace, is one JSON object, parsed as json.loads parses it.
A line that is not UTF-8 fails with its file and line number.
`augment` and `prefilter-aspiration` hold one RM and one HM track at a time, so
they process corpora larger than memory in constant space (apart from the
utt_ids they report). `evaluate` classifies and tallies each instance as it is
read, and keeps no instance: what grows with its input is one vot_ms per
instance, one utt_id per instance for the duplicate check, and one head per
distinct onset. `decode` holds its input in memory so that it can sort it.
A string that escapes a lone surrogate ("\\ud800") fails at read with its file
and line, since no UTF-8 output can hold it.
Writers emit deterministic bytes (sorted keys, no trailing spaces) so re-runs
are byte-identical; track lines are formatted by `ctc.track_line`, with the
bytes that `dump_line` gives their objects. Every output file, JSONL or not,
appears at its path only once it is written in full.

Each config file, the packaged tables under `DATA` too, is one JSON object,
read whole by `read_json`. Both readers `check` each object against its schema
of JSON types before its `from_obj` reads it: a fault names the file and the field.
A config object must also name no key its schema does not (a record may).
"""

from __future__ import annotations

import json
import os
import re
from collections import namedtuple
from contextlib import closing, contextmanager
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
                                    f"string {value!r} holds a lone surrogate") from None


T = TypeVar("T")

# The model tags a track or instance may carry, and the place-of-articulation group of
# each target phoneme. They live here, in the one module every command runs, because
# `decode --model-tag` and `evaluate --group` offer them as choices; `ctc` and `metrics`
# re-export them.
MODEL_TAGS = ("RM", "HM", "BM", "TM", "OTHER")
POA_GROUP_OF = {"p": "bilabial", "b": "bilabial",
                "t": "alveolar", "d": "alveolar",
                "k": "velar", "g": "velar"}
POA_GROUPS = ("bilabial", "alveolar", "velar")

# The JSON types of record and config fields. A kind is the tuple of the exact types a
# value may have, tested with `type(value) in kind` (json gives only these), so a bool is
# neither an integer nor a number; a schema, {field: kind}, is the kind of an object.
STRING, INTEGER, NUMBER, BOOLEAN, LIST = (str,), (int,), (int, float), (bool,), (list,)
ListOf = namedtuple("ListOf", "item")  # a list whose every item has the kind `item`
MapOf = namedtuple("MapOf", "value")  # an object whose every value has the kind `value`
_Optional = namedtuple("Optional", "kind")
_ABSENT = object()  # what check reads for an absent field: no JSON value is of type object


def Optional(kind: Any) -> Any:
    """The kind of a field that may be absent, else of `kind` (a tuple just admits `object`)."""
    return kind + (object,) if type(kind) is tuple else _Optional(kind)


class FieldError(PhonaugError):
    """A field of a record or config object is missing or cannot be read."""


def check(obj: dict, schema: dict) -> None:
    """Raise FieldError naming the field by its path (`phones[0].start`) unless `obj` fits."""
    # the common case, inline: plain kinds that fit (a list, map or object kind holds no type)
    for name, kind in schema.items():
        if type(obj.get(name, _ABSENT)) not in kind:
            break
    else:
        return
    fault = _fault(obj, schema)
    if fault is not None:
        path, value = fault[0][1:], fault[1]  # the path without its leading "."
        raise FieldError(f"missing field {path!r}" if value is _ABSENT
                         else f"field {path!r} has the wrong type: {value!r}")


def _fault(value: Any, kind: Any) -> tuple[str, Any] | None:
    """None if `value` has `kind`, else the path to its first part that has not, and that part."""
    if type(kind) is tuple:
        return None if type(value) in kind else ("", value)
    if type(value) is not (list if type(kind) is ListOf else dict):
        return "", value
    if type(kind) is dict:
        for name, k in kind.items():
            v = value.get(name, _ABSENT)
            if type(k) is tuple and type(v) in k:
                continue
            if type(k) is _Optional:
                if v is _ABSENT:
                    continue
                k = k.kind
            fault = ("", v) if v is _ABSENT else _fault(v, k)
            if fault is not None:
                return f".{name}{fault[0]}", fault[1]
        return None
    item = kind[0]
    if type(item) is dict and type(kind) is ListOf:  # objects whose kinds fit, as in check
        fields = item.items()
        for v in value:
            if type(v) is not dict:
                break
            for name, k in fields:
                if type(v.get(name, _ABSENT)) not in k:
                    break
            else:
                continue
            break
        else:
            return None
    for key, v in enumerate(value) if type(kind) is ListOf else value.items():
        fault = _fault(v, item)
        if fault is not None:
            return (f"[{key}]" if type(kind) is ListOf else f".{key}") + fault[0], fault[1]
    return None


def _unknown(value: Any, kind: Any) -> str | None:
    """The path to the first key in `value`, which has `kind`, that no schema in `kind`
    names, or None. A MapOf's keys are data, so it admits any."""
    if type(kind) is _Optional:
        kind = kind.kind
    if type(kind) is dict:
        for name, v in value.items():
            k = kind.get(name, _ABSENT)
            if k is _ABSENT:
                return f".{name}"
            path = None if type(k) is tuple else _unknown(v, k)
            if path is not None:
                return f".{name}{path}"
    elif type(kind) is not tuple and type(kind[0]) is not tuple:  # items that hold keys
        for key, v in enumerate(value) if type(kind) is ListOf else value.items():
            path = _unknown(v, kind[0])
            if path is not None:
                return (f"[{key}]" if type(kind) is ListOf else f".{key}") + path
    return None


def _read(obj: dict, schema: dict, from_obj: Callable[[dict], T], closed: bool = False) -> T:
    """from_obj of `obj` once `check` admits it, and, if `closed`, once its schema names
    every key; from_obj's read errors raise FieldError."""
    check(obj, schema)
    if closed and (path := _unknown(obj, schema)) is not None:
        raise FieldError(f"unknown field {path[1:]!r}")  # the path without its leading "."
    try:
        return from_obj(obj)
    except (TypeError, ValueError, OverflowError) as e:
        raise FieldError(f"ill-typed field: {e}") from None


def parse_records(path: str | Path, from_obj: Callable[[dict], T],
                  schema: dict) -> Iterator[T]:
    """Yield from_obj of each object in the file at `path` that `schema`
    admits. A fault fails with the file, the record's utt_id (or its position)
    and the field; a PhonaugError from from_obj gains the file as its context."""
    with closing(read_jsonl(path)) as objs:
        for n, obj in enumerate(objs, start=1):
            try:
                record = _read(obj, schema, from_obj)
            except FieldError as e:
                utt_id = obj.get("utt_id")
                where = f"utterance {utt_id!r}" if type(utt_id) is str else f"record {n}"
                raise in_context(e, f"{path}: {where}") from None
            except PhonaugError as e:
                raise in_context(e, path) from None
            yield record


def read_json(path: str | Path, from_obj: Callable[[dict], T], schema: dict) -> T:
    """from_obj of the JSON object in the file at `path` (or a table under DATA), checked
    as in parse_records, and holding no key its schema does not name (a config file's
    keys are all read, unlike a record's); a fault names the file, any other
    PhonaugError passes as it is."""
    data = (Path(path) if isinstance(path, str) else path).read_bytes()
    try:
        text = data.decode("utf-8")
        obj = json.loads(text)
    except UnicodeDecodeError as e:
        raise MalformedLine(str(path), data.count(b"\n", 0, e.start) + 1, "not UTF-8") from None
    except json.JSONDecodeError as e:
        raise MalformedLine(str(path), e.lineno, f"invalid JSON ({e.msg})") from None
    if not isinstance(obj, dict):
        raise PhonaugError(f"{path}: expected a JSON object")
    if "\\" in text:
        _refuse_lone_surrogates(path, text)
    try:
        return _read(obj, schema, from_obj, closed=True)
    except FieldError as e:
        raise in_context(e, path) from None


def dump_line(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def check_outputs(*paths: str | Path | None) -> None:
    """Fail unless each output path (None for an output not asked for) names a
    regular file or nothing yet: a rename would replace a directory, device or
    pipe itself. A command calls it before it writes its first file."""
    for path in paths:
        if path is not None and os.path.exists(path) and not os.path.isfile(path):
            raise PhonaugError(f"{path}: output must be a regular file")


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """A text file to write in place of `path`: a temporary file beside it
    that replaces it when the block ends; if the block fails, the temporary
    file is removed and `path` is left as it was."""
    check_outputs(path)
    path = Path(path).resolve()  # replace a symlink's target, not the link
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path`, all or nothing."""
    with _replacing(path) as f:
        f.write(text)


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each line and a newline, all or nothing, and return the count."""
    n = 0
    with _replacing(path) as f:
        for line in lines:
            f.write(line + "\n")
            n += 1
    return n


def write_jsonl(path: str | Path, objs: Iterable[dict]) -> int:
    """Write one line per object, all or nothing, and return the count."""
    return write_lines(path, map(dump_line, objs))
