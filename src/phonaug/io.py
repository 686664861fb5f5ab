"""Streaming JSON Lines helpers.

All corpus files are JSONL, read one record at a time; each non-blank line,
stripped of whitespace, is one JSON object, parsed as json.loads parses it.
`augment` and `prefilter-aspiration` hold one RM and one HM track at a time, so
they process corpora larger than memory in constant space (apart from the
utt_ids they report). `evaluate` classifies and tallies each instance as it is
read, and keeps no instance: what grows with its input is one vot_ms per
instance, one utt_id per instance for the duplicate check, and one head per
distinct onset. `decode` holds its input in memory so that it can sort it.
Writers emit deterministic bytes (sorted keys, no trailing spaces) so re-runs
are byte-identical. Every output file, JSONL or not, appears at its path only
once it is written in full.
"""

from __future__ import annotations

import json
import os
from contextlib import closing, contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO, TypeVar

from .errors import PhonaugError, in_context


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


T = TypeVar("T")


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
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                utt_id = obj.get("utt_id")
                where = f"utterance {utt_id!r}" if isinstance(utt_id, str) else f"record {n}"
                problem = _field_problem(obj, fields, e)
                raise PhonaugError(f"{path}: {where}: {problem}") from None
            except PhonaugError as e:
                raise in_context(e, path) from None
            yield record


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
