"""Streaming JSON Lines helpers.

All corpus files are JSONL, read one record at a time. `augment` and
`prefilter-aspiration` hold one RM and one HM track at a time, so they process
corpora larger than memory in constant space (apart from the utt_ids they
report); `decode` holds its input in memory so that it can sort it. Writers emit
deterministic bytes (sorted keys, no trailing spaces) so re-runs are
byte-identical, and a file appears at its path only once its last record is
written.
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .errors import PhonaugError


class MalformedLine(PhonaugError):
    def __init__(self, path: str, lineno: int, reason: str):
        self.path = path
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {reason}")


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one object per non-blank line; malformed lines carry their line number."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
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
    with the file, the record's utt_id (or its position) and the field at fault."""
    with closing(read_jsonl(path)) as objs:
        for n, obj in enumerate(objs, start=1):
            try:
                record = from_obj(obj)
            except (KeyError, TypeError, ValueError) as e:
                utt_id = obj.get("utt_id")
                where = f"utterance {utt_id!r}" if isinstance(utt_id, str) else f"record {n}"
                problem = _field_problem(obj, fields, e)
                raise PhonaugError(f"{path}: {where}: {problem}") from None
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


def write_jsonl(path: str | Path, objs: Iterable[dict]) -> int:
    """Write one line per object and return the count. The lines go to a
    temporary file beside `path` that replaces it after the last one; if
    anything fails, the temporary file is removed and `path` is left as it was."""
    path = Path(path)
    if path.exists() and not path.is_file():
        # a rename would replace the device or pipe itself
        raise PhonaugError(f"{path}: output must be a regular file")
    path = path.resolve()  # replace a symlink's target, not the link
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    n = 0
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            for obj in objs:
                f.write(dump_line(obj))
                f.write("\n")
                n += 1
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return n
