"""Streaming JSON Lines helpers.

All corpus files are JSONL so corpora larger than memory can be processed in
constant space. Writers emit deterministic bytes (sorted keys, no trailing
spaces) so re-runs are byte-identical.
"""

from __future__ import annotations

import json
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
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for obj in objs:
            f.write(dump_line(obj))
            f.write("\n")
            n += 1
    return n
