"""Streaming JSON Lines helpers.

All corpus files are JSONL so corpora larger than memory can be processed in
constant space. Writers emit deterministic bytes (sorted keys, no trailing
spaces) so re-runs are byte-identical, and a file appears at its path only
once its last record is written.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator

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
