"""The process entry of ``python -m treegibbs`` and the ``treegibbs`` script."""

import os
import sys

from .cli import EXIT_OK, EXIT_VALIDATION, _say, main


def _observed() -> bool:
    """Whether a tracer or profiler watches the process; cProfile and
    coverage report as the interpreter ends.  From Python 3.12 cProfile
    registers with ``sys.monitoring`` and sets no profile function."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


def entry() -> int:
    """Run ``cli.main`` as the process, and end it.

    argparse's ``SystemExit`` (``--help``, ``--version``, a usage error) is
    taken as its status.  stdout and stderr are flushed, and the process
    ends with ``os._exit``.  Interpreter teardown, 22-24 ms of each
    command's wall time with numpy loaded (2-core x86-64 host, Python
    3.11), has nothing left to do: ``_output`` has closed and renamed every
    data file by the time ``main`` returns.

    The entry returns the status, for the caller to end the process the
    usual way, where skipping teardown would lose something: when a tracer
    or profiler is installed, since it reports at exit; and when a flush
    raises.  The stream whose flush raised is pointed at devnull, so that
    teardown's own flush does not report it again; if the command had
    succeeded, the error is reported as ``main`` reports i/o errors, with
    exit code 3.  An exception or ``KeyboardInterrupt`` escaping ``main``
    propagates as before.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    error = None
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # the descriptor was closed when Python started
            continue
        try:
            stream.flush()
        except OSError as exc:
            error = error or exc
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    if error is not None:
        if code == EXIT_OK:
            _say(f"i/o error: {error}\n")
            code = EXIT_VALIDATION
        return code
    if _observed():
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
