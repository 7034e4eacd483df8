"""Run a quiverdeg command in this process with its output captured.

The result reads like click's CliRunner result: exit_code, stdout, stderr,
output (stdout then stderr) and exception. SystemExit sets the exit code;
any other exception is stored and gives exit code 1, unless
catch_exceptions is false, in which case it propagates.
"""

import contextlib
import io
from typing import NamedTuple

from quiverdeg.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(args, catch_exceptions=True) -> Result:
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:
            if not catch_exceptions:
                raise
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), exception)
