"""Run the command line's ``main`` in this process and capture its result.

``CliRunner().invoke(main, args)`` gives the exit code, stdout and stderr.
A ``SystemExit`` gives its code; any other exception out of ``main`` gives
exit code 1 and is kept as ``exception``, as is a nonzero ``SystemExit``.
"""

import contextlib
import io
from dataclasses import dataclass
from typing import Optional


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: Optional[BaseException]

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode("utf-8")


class CliRunner:
    def invoke(self, main, args) -> Result:
        stdout, stderr = io.StringIO(), io.StringIO()
        exit_code, exception = 0, None
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                main(list(args))
        except SystemExit as exc:
            exit_code = exc.code or 0
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
        return Result(exit_code, stdout.getvalue(), stderr.getvalue(), exception)
