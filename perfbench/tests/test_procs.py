"""Process hygiene: nothing a run spawns outlives it."""

import os
import signal
import subprocess
import sys
import time

import pytest

from perfbench import procs, workloads
from perfbench.workloads import effective_clients, run_workload

ROOT = procs.ROOT


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(") ", 1)[1][0] != "Z"
    except OSError:
        return False


def _wait_dead(pids, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and any(_alive(p) for p in pids):
        time.sleep(0.1)
    return [p for p in pids if _alive(p)]


@pytest.fixture
def spawned(monkeypatch):
    """``(pid, args, run directory)`` of every process a run in this
    process starts."""
    seen = []
    original = procs.Processes.spawn

    def spawn(self, role, args, trace_out=None):
        child = original(self, role, args, trace_out)
        seen.append((child.pid, list(args), str(self.run.path)))
        return child

    monkeypatch.setattr(procs.Processes, "spawn", spawn)
    return seen


@pytest.fixture
def tiny(monkeypatch):
    import copy

    spec = copy.deepcopy(workloads.SPEC)
    spec["setup_repeats"]["fleet"] = 1
    # the smallest unit that still writes rows to the cache tier
    spec["workloads"]["fleet-cold"].update(pool=["b75"], session_cap=None)
    monkeypatch.setattr(workloads, "SPEC", spec)
    monkeypatch.setattr(workloads, "MIN_BEYOND", 0)


def test_normal_exit_stops_every_process(tiny, spawned):
    result = run_workload("fleet-cold", 1, 0.0, trace=False)
    assert result.correct
    pids = [pid for pid, _, _ in spawned]
    assert len(pids) == 2
    assert _wait_dead(pids) == []
    assert not list(procs.RUNS.glob(f"{os.getpid()}-*"))


def test_error_stops_every_process(tiny, spawned, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("load generator failed")

    monkeypatch.setattr(workloads, "drive", broken)
    with pytest.raises(RuntimeError):
        run_workload("fleet-cold", 1, 0.0, trace=False)
    pids = [pid for pid, _, _ in spawned]
    assert pids and _wait_dead(pids) == []
    assert not list(procs.RUNS.glob(f"{os.getpid()}-*"))


def _members(pgids):
    """Every live process in the given process groups."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _alive(int(entry)):
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(") ", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) in pgids:
                out.append(int(entry))
    return out


def _start_run(workload, per_system):
    """A full run in a child process, once the system its timed unit runs
    on is up; returns it, its run directory and that system's processes
    (``per_system`` groups each, after the set-up's repeated boots)."""
    repeats = workloads.SPEC["setup_repeats"][workloads.SPEC["workloads"][workload]["mode"]]
    # the timed unit's system boots after half of the repeated set-ups
    groups = ((repeats - 1) // 2 + 1) * per_system
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "60"],
        cwd=str(ROOT), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        runs = list(procs.RUNS.glob(f"{proc.pid}-*"))
        listed = runs and (runs[0] / "groups").exists()
        pgids = [int(p) for p in (runs[0] / "groups").read_text().split()] if listed else []
        if len(pgids) >= groups:
            time.sleep(2.0)  # let the service fork its workers
            return proc, runs[0], _members(set(pgids[groups - per_system:groups]))
        time.sleep(0.1)
    proc.kill()
    pytest.fail("the run never started its processes")


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_interrupt_stops_every_process(signum):
    proc, run, pids = _start_run("served-light", 1)
    assert pids
    proc.send_signal(signum)
    proc.wait(timeout=60)
    assert proc.returncode != 0
    assert _wait_dead(pids) == []
    assert not run.exists()


def test_killed_run_leaks_no_fleet():
    proc, run, pids = _start_run("fleet-cold", 2)
    assert len(pids) >= 3  # cache server, service, and its forked worker
    proc.kill()
    proc.wait(timeout=30)
    # the kernel kills each process with its parent; the next run
    # sweeps the dead run's directory
    assert _wait_dead(pids) == []
    procs.sweep_stale_runs()
    assert not run.exists()


def test_ports_are_os_assigned_and_stores_per_run(tiny, spawned):
    run_workload("fleet-cold", 1, 0.0, trace=False)
    for _, args, run_dir in spawned:
        assert args[args.index("--port") + 1] == "0"
        if "--cache-dir" in args:
            assert args[args.index("--cache-dir") + 1].startswith(run_dir)


def test_every_fleet_a_run_boots_gets_an_empty_store_of_its_own(spawned):
    run = procs.RunDir()
    try:
        with procs.Processes(run) as processes:
            for _ in range(2):
                workloads._System(processes, "fleet").stop()
    finally:
        run.remove()
    stores = [args[args.index("--cache-dir") + 1] for _, args, _ in spawned if "--cache-dir" in args]
    assert len(stores) == 2 and stores[0] != stores[1]


def test_stop_is_graceful_even_when_the_run_ignores_sigint():
    # a benchmark started in the background runs with SIGINT ignored,
    # and its children would inherit that; the graceful stop needs it
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    run = procs.RunDir()
    try:
        with procs.Processes(run) as processes:
            cache = processes.spawn("cache", [
                "cache-serve", "--host", "127.0.0.1", "--port", "0",
                "--cache-dir", str(run.path / "store"),
            ])
            cache.urls(1)
            started = time.monotonic()
            processes.stop(cache)
            assert cache.proc.returncode == 0  # it exited, it was not killed
            assert time.monotonic() - started < 5.0
    finally:
        signal.signal(signal.SIGINT, previous)
        run.remove()


def test_clients_never_exceed_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert effective_clients("served-light") == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert effective_clients("served-light") == 2
