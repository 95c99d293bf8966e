"""Run the CLI in-process and capture what a shell would see.

`Runner().invoke(main, args)` calls `main(args)` with stdout and stderr
redirected, and returns its exit code, both streams, their interleaving as
`output`, and the exception it raised, if any: a SystemExit with a nonzero
code, or any other exception (exit code 1).
"""

import contextlib
import io
import sys
from dataclasses import dataclass


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: BaseException | None
    exc_info: tuple | None


class _Stream(io.StringIO):
    """A captured stream that also writes to the interleaved output."""

    def __init__(self, output: io.StringIO):
        super().__init__()
        self.output = output

    def write(self, text: str) -> int:
        self.output.write(text)
        return super().write(text)


class Runner:
    def invoke(self, main, args) -> Result:
        output = io.StringIO()
        out, err = _Stream(output), _Stream(output)
        exception = exc_info = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
                if code:
                    exception, exc_info = exc, sys.exc_info()
            except Exception as exc:
                code, exception, exc_info = 1, exc, sys.exc_info()
        return Result(code, out.getvalue(), err.getvalue(), output.getvalue(),
                      exception, exc_info)
