"""Spawned processes: start, find their URLs, measure, and tear down.

Every process is started through ``perfbench/bootstrap.py`` in its own
session (so a Ctrl-C at the terminal reaches only the benchmark, which
then tears them down in order), with ``--port 0`` (the OS picks the
port) and its store in the run's own directory.  The run directory
lists the process groups it started; a later run that finds the
directory of a run that died kills whatever of those groups is left and
removes it.
"""

from __future__ import annotations

import os
import re
import resource
import secrets
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP = ROOT / "perfbench" / "bootstrap.py"
RUNS = ROOT / "perfbench" / ".runs"

#: The service and the cache server both announce their URL like this;
#: forked workers share one stdout, so banners are matched anywhere.
_BANNER = re.compile(r"listening on (http://[\w.\-]+:\d+)")

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _ours(pid: int) -> bool:
    """Whether ``pid`` runs the benchmark's bootstrap (guards pid reuse)."""
    try:
        return str(BOOTSTRAP).encode() in Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


def sweep_stale_runs() -> None:
    """Kill what a dead run left behind and delete its directory."""
    if not RUNS.is_dir():
        return
    for run in RUNS.iterdir():
        owner = run.name.split("-", 1)[0]
        if not owner.isdigit() or _alive(int(owner)):
            continue
        groups = run / "groups"
        if groups.exists():
            for line in groups.read_text().split():
                pgid = int(line)
                if _alive(pgid) and _ours(pgid):
                    try:
                        os.killpg(pgid, signal.SIGKILL)
                    except OSError:
                        pass
        shutil.rmtree(run, ignore_errors=True)


class RunDir:
    """This run's scratch directory under ``perfbench/.runs``."""

    def __init__(self) -> None:
        sweep_stale_runs()
        self.path = RUNS / f"{os.getpid()}-{secrets.token_hex(4)}"
        self.path.mkdir(parents=True)

    def note_group(self, pgid: int) -> None:
        with open(self.path / "groups", "a", encoding="utf-8") as handle:
            handle.write(f"{pgid}\n")

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class Spawned:
    """One started process: ``python bootstrap.py <repro args>``."""

    def __init__(self, proc: subprocess.Popen, log: Path, role: str) -> None:
        self.proc = proc
        self.log = log
        self.role = role

    @property
    def pid(self) -> int:
        return self.proc.pid

    def urls(self, count: int, timeout: float = 60.0) -> list[str]:
        """The first ``count`` URLs the process announced."""
        deadline = time.monotonic() + timeout
        while True:
            found = _BANNER.findall(self.log.read_text(errors="replace"))
            if len(found) >= count:
                return found[:count]
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{self.role} exited during boot (rc={self.proc.returncode}): "
                    f"{self.log.read_text(errors='replace')[-2000:]}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.role} announced {len(found)}/{count} URLs")
            time.sleep(0.01)

    def tree(self) -> list[int]:
        """This process and its children (a forked service's workers)."""
        return [self.pid, *children_of(self.pid)]


class Processes:
    """The processes of one run; stops them all on exit, in reverse order."""

    def __init__(self, run: RunDir) -> None:
        self.run = run
        self.spawned: list[Spawned] = []

    def __enter__(self) -> "Processes":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop_all()

    def spawn(self, role: str, args: Sequence[str], trace_out: Optional[str] = None) -> Spawned:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PERFBENCH_PARENT_PID"] = str(os.getpid())
        env["REPRO_CACHE_DIR"] = str(self.run.path / "store")
        env.pop("PERFBENCH_TRACE_OUT", None)
        if trace_out is not None:
            env["PERFBENCH_TRACE_OUT"] = trace_out
        log = self.run.path / f"{role}-{len(self.spawned)}.log"
        with open(log, "wb") as out:
            proc = subprocess.Popen(
                [sys.executable, str(BOOTSTRAP), *args],
                stdout=out,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=env,
                cwd=str(ROOT),
                start_new_session=True,
            )
        self.run.note_group(proc.pid)
        spawned = Spawned(proc, log, role)
        self.spawned.append(spawned)
        return spawned

    def stop(self, spawned: Spawned, grace: float = 20.0) -> None:
        """SIGINT (the graceful path: sessions close, caches flush, spans
        are written), then SIGKILL the whole group if it lingers."""
        proc = spawned.proc
        if proc.poll() is None:
            try:
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
            except OSError:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
            pass
        if spawned in self.spawned:
            self.spawned.remove(spawned)

    def stop_all(self) -> None:
        for spawned in reversed(list(self.spawned)):
            self.stop(spawned)


# ----------------------------------------------------------------------
# Measuring processes
# ----------------------------------------------------------------------
def children_of(pid: int) -> list[int]:
    """Direct children of ``pid``, from ``/proc``."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        if int(fields[1]) == pid:
            out.append(int(entry.name))
    return out


def cpu_seconds(pid: Optional[int] = None) -> float:
    """User + system CPU of ``pid`` (default: this process, all threads)."""
    if pid is None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)."""
    target = "self" if pid is None else str(pid)
    try:
        for line in Path(f"/proc/{target}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
