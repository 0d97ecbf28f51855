"""Entry of every process the benchmark spawns.

Usage: ``python perfbench/bootstrap.py <repro CLI arguments>``.

Before handing over to the ``repro`` CLI entry (``repro.cli.main``) it

* asks the kernel to SIGKILL this process when the benchmark that
  spawned it dies, and does the same for each worker ``repro serve
  --workers N`` forks, so a killed run cannot leave a fleet behind;
* takes SIGINT back when it was started with it ignored (as everything
  a shell starts in the background is): SIGINT is how the benchmark
  asks a process to stop gracefully;
* installs the benchmark's span wrappers when ``PERFBENCH_TRACE_OUT``
  names a span file (see :mod:`perfbench.tracer`).
"""

from __future__ import annotations

import os
import signal
import sys

_PR_SET_PDEATHSIG = 1


def die_with_parent(expected_parent: int) -> None:
    """SIGKILL this process when its parent exits (Linux only).

    The parent may already have gone before the request took effect, so
    the parent pid is checked afterwards.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):
        return
    if expected_parent and os.getppid() != expected_parent:
        os._exit(1)


def main() -> int:
    die_with_parent(int(os.environ.get("PERFBENCH_PARENT_PID", "0")))
    signal.signal(signal.SIGINT, signal.default_int_handler)
    forking = [0]
    os.register_at_fork(
        before=lambda: forking.__setitem__(0, os.getpid()),
        after_in_child=lambda: die_with_parent(forking[0]),
    )
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.tracer import install_for_process

    install_for_process()
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
