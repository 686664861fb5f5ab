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
Writers emit deterministic bytes (sorted keys, no trailing spaces) so re-runs
are byte-identical. Every output file, JSONL or not, appears at its path only
once it is written in full.

Each config file, the packaged tables under `DATA` too, is one JSON object,
read whole by `read_json` and checked as it loads: a fault names the file.
"""

from __future__ import annotations

import json
import os
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


T = TypeVar("T")
# what a from_obj raises on a record or config object it cannot read
FIELD_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def parse_records(path: str | Path, from_obj: Callable[[dict], T],
                  fields: dict[str, type | tuple[type, ...]]) -> Iterator[T]:
    """Yield from_obj of each object in the file at `path`. `fields` gives the
    JSON type of each required field. A record that from_obj cannot read fails
    with the file, the record's utt_id (or its position) and the field at fault;
    a PhonaugError from from_obj gains the file as its context."""
    with closing(read_jsonl(path)) as objs:
        for n, obj in enumerate(objs, start=1):
            try:
                record = from_obj(obj)
            except FIELD_ERRORS as e:
                utt_id = obj.get("utt_id")
                where = f"utterance {utt_id!r}" if isinstance(utt_id, str) else f"record {n}"
                problem = _field_problem(obj, fields, e)
                raise PhonaugError(f"{path}: {where}: {problem}") from None
            except PhonaugError as e:
                raise in_context(e, path) from None
            yield record


def read_json(path: str | Path, from_obj: Callable[[dict], T],
              fields: dict[str, type | tuple[type, ...]]) -> T:
    """from_obj of the JSON object in the file at `path` (or a table under DATA).
    Faults are named as in parse_records, but a PhonaugError passes as it is."""
    data = (Path(path) if isinstance(path, str) else path).read_bytes()
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise MalformedLine(str(path), data.count(b"\n", 0, e.start) + 1, "not UTF-8") from None
    except json.JSONDecodeError as e:
        raise MalformedLine(str(path), e.lineno, f"invalid JSON ({e.msg})") from None
    if not isinstance(obj, dict):
        raise PhonaugError(f"{path}: expected a JSON object")
    try:
        if any(not isinstance(obj.get(name), kind) for name, kind in fields.items()):
            raise TypeError  # _field_problem names the field
        return from_obj(obj)
    except FIELD_ERRORS as e:
        raise PhonaugError(f"{path}: {_field_problem(obj, fields, e)}") from None


def strings(obj: dict, key: str, name: str | None = None) -> list[str]:
    """obj[key], which must be a JSON list of strings; `name` (by default
    `key`) names the field in the KeyError or TypeError raised otherwise."""
    name = name or key
    if key not in obj:
        raise KeyError(name)
    value = obj[key]
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise TypeError(f"{name} must be a list of strings, got {value!r}")
    return value


def _field_problem(obj: dict, fields: dict, error: Exception) -> str:
    for name, kind in fields.items():
        if name not in obj:
            return f"missing field {name!r}"
        if not isinstance(obj[name], kind):
            return f"field {name!r} has the wrong type: {obj[name]!r}"
    if isinstance(error, KeyError):
        return f"missing field {error}"
    return f"ill-typed field: {error}"


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


def write_jsonl(path: str | Path, objs: Iterable[dict]) -> int:
    """Write one line per object, all or nothing, and return the count."""
    n = 0
    with _replacing(path) as f:
        for obj in objs:
            f.write(dump_line(obj))
            f.write("\n")
            n += 1
    return n
