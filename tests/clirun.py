"""Run `phonaug.cli.main` in this process, as a shell would run the command.

    result = invoke(["decode", "paths.jsonl", "tracks.jsonl"])

`result.stdout` and `result.stderr` hold each stream, and `result.output` both,
interleaved in the order they were written. The exit status is 0, the code of
a SystemExit, or 1 for any other exception; `result.exception` holds the
exception, or None where the command exited 0.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

from phonaug.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: BaseException | None


class _Stream(io.StringIO):
    """One captured stream, which also writes into the interleaved `both`."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, s: str) -> int:
        self.both.write(s)
        return super().write(s)


def invoke(args: list[str]) -> Result:
    both = io.StringIO()
    out, err = _Stream(both), _Stream(both)
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as e:
            exit_code = e.code or 0
            exception = e if exit_code else None
        except Exception as e:  # noqa: BLE001 - a fault is part of the result
            exit_code, exception = 1, e
    return Result(exit_code, out.getvalue(), err.getvalue(), both.getvalue(), exception)
