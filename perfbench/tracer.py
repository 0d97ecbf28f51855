"""Spans recorded from outside the program, around its layers' public calls.

:func:`install` patches each layer's public functions at the attribute
its callers look up (a class attribute for methods, the importing
module's global for functions imported by name) with a wrapper that
records one span per call:

``(name, start_ns, end_ns, span_id, parent_id, trace_id, leaf_ns,
leaf_calls, note)``

* times are ``time.perf_counter_ns()`` — ``CLOCK_MONOTONIC`` on Linux,
  one clock for every process on the machine, so spans recorded by a
  worker line up with the client span that caused them;
* ``span_id`` is a per-process integer, except for the client's
  round-trip span, whose id is the 8-hex span id it sends in the
  ``X-Repro-Trace`` header; ``parent_id`` is the enclosing span in this
  thread, else the span id of the propagated trace context (how a worker
  span finds its client parent), else ``None``;
* the hottest leaf calls (engine key hashing, about ten thousand a
  heavy action) are not spans: their count and time are added to the
  enclosing span's ``leaf_calls`` / ``leaf_ns``;
* ``note`` is a per-name detail — bytes for codec calls, hit or miss for
  cache-tier gets, the synthesizer's counters for a synthesis call.

Spans stay in memory; a spawned process writes them to the file named
by ``PERFBENCH_TRACE_OUT`` when it exits (:meth:`Recorder.dump`).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Optional

from repro.obs import context as obs_context

#: Environment variable naming a spawned process's span file.
TRACE_OUT_ENV = "PERFBENCH_TRACE_OUT"

_clock = time.perf_counter_ns


class Recorder:
    """Spans of one process, plus the counters read when it exits."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patched: list[tuple[object, str, object]] = []
        #: Live cache backends by kind, for the exit counters.
        self.instances: dict[str, list] = {}
        self._lock = threading.Lock()
        self._dumped = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, wire_id: Optional[str] = None) -> tuple[list, object, object]:
        """A new frame ``[span_id, trace_id, leaf_ns, leaf_calls]`` and its
        parent id; the caller scopes it with the returned token."""
        parent = self._current.get()
        if parent is not None:
            parent_id, trace_id = parent[0], parent[1]
        else:
            ctx = obs_context.current()
            parent_id = ctx.span_id if ctx is not None else None
            trace_id = ctx.trace_id if ctx is not None else None
        frame = [wire_id if wire_id is not None else next(self._ids), trace_id, 0, 0]
        return frame, parent_id, self._current.set(frame)

    def span(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record one ``name`` span per call.

        ``note(args, kwargs, result)`` computes the span's detail.  A call
        that raises records the note ``"error"``.
        """
        spans = self.spans
        current = self._current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent_id, token = self._open()
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = _clock()
                current.reset(token)
                spans.append(
                    (name, start, end, frame[0], parent_id, frame[1],
                     frame[2], frame[3], "error")
                )
                raise
            end = _clock()
            current.reset(token)
            detail = note(args, kwargs, result) if note is not None else None
            spans.append(
                (name, start, end, frame[0], parent_id, frame[1],
                 frame[2], frame[3], detail)
            )
            return result

        return wrapper

    def leaf(self, fn: Callable) -> Callable:
        """``fn`` wrapped to add its calls and time to the enclosing span
        (a call outside every span is not recorded)."""
        current = self._current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                frame = current.get()
                if frame is not None:
                    frame[2] += _clock() - start
                    frame[3] += 1

        return wrapper

    def client_span(self, name: str, fn: Callable) -> Callable:
        """A span whose id travels in the request's trace header.

        The call runs under a trace context carrying this span's 8-hex
        id, so the service client sends it as ``X-Repro-Trace`` and every
        span the worker records for the request parents under it.
        """
        spans = self.spans
        current = self._current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ambient = obs_context.current()
            trace_id = ambient.trace_id if ambient is not None else obs_context.new_trace_id()
            wire_id = obs_context.new_span_id()
            frame, parent_id, token = self._open(wire_id)
            frame[1] = trace_id
            outcome = None
            start = _clock()
            try:
                with obs_context.use(obs_context.TraceContext(trace_id, wire_id)):
                    return fn(*args, **kwargs)
            except BaseException:
                outcome = "error"
                raise
            finally:
                end = _clock()
                current.reset(token)
                spans.append(
                    (name, start, end, wire_id, parent_id, trace_id,
                     frame[2], frame[3], outcome)
                )

        return wrapper

    def tracking(self, kind: str) -> Callable[[Callable], Callable]:
        """An ``__init__`` wrapper remembering each instance under ``kind``."""
        instances = self.instances.setdefault(kind, [])

        def wrapper_of(init: Callable) -> Callable:
            @functools.wraps(init)
            def wrapper(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                instances.append(obj)

            return wrapper

        return wrapper_of

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: object, attribute: str, wrapper_of: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attribute`` with ``wrapper_of(original)``."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper_of(getattr(owner, attribute)))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """Process-lifetime counters no span carries."""
        remotes = self.instances.get("remote", [])
        files = self.instances.get("file", [])
        return {
            "remote_failures": sum(
                b.io_errors + b.dropped_writes + b.encode_errors for b in remotes
            ),
            "decode_hits": sum(b.decode_hits for b in files),
        }

    def dump(self, path: str) -> None:
        """Write the spans and counters as JSON (once per process)."""
        with self._lock:
            if self._dumped:
                return
            self._dumped = True
        payload = {"pid": os.getpid(), "spans": list(self.spans), "counters": self.counters()}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# The layer cut
# ----------------------------------------------------------------------
def _synth_note(args, kwargs, result):
    stats = result.stats
    return [
        stats.pops,
        int(bool(stats.timed_out)),
        stats.cache_hits,
        stats.cache_misses,
        stats.index_builds,
    ]


def _encoded_bytes(args, kwargs, result):
    return len(result)


def _decoded_bytes(args, kwargs, result):
    payload = args[1] if len(args) > 1 else kwargs.get("payload", b"")
    return len(payload)


def _truthy(args, kwargs, result):
    return int(bool(result))


def _fetch_hit(args, kwargs, result):
    return int(result[0] is not None)


def _found(args, kwargs, result):
    return int(result is not None)


def _reused(args, kwargs, result):
    return int(result.sock is not None)


def install(recorder: Recorder) -> Recorder:
    """Wrap every layer's public calls in this process; returns ``recorder``."""
    import repro.protocol.session as protocol_session
    import repro.service.client as service_client
    import repro.service.server as service_server
    import repro.synth.scheduler as scheduler
    import repro.synth.synthesizer as synthesizer
    from repro.engine.engine import ExecutionEngine
    from repro.fleet import cache_server
    from repro.fleet.pool import ConnectionPool
    from repro.fleet.remote import RemoteBackend
    from repro.protocol.codec import BinaryCodec, JsonCodec
    from repro.service.backends import FileBackend
    from repro.service.client import ServiceClient
    from repro.service.sessions import SessionManager

    span = recorder.span

    def named(name, note=None):
        return lambda fn: span(name, fn, note)

    # synth
    recorder.patch(synthesizer.Synthesizer, "synthesize", named("synth.synthesize", _synth_note))
    recorder.patch(synthesizer, "speculate", named("synth.speculate"))
    recorder.patch(scheduler, "validate", named("synth.validate"))
    # analysis
    recorder.patch(scheduler, "infeasible", named("analysis.infeasible", _truthy))
    recorder.patch(protocol_session, "analyze_program", named("analysis.summary"))
    # engine
    recorder.patch(ExecutionEngine, "execute", named("engine.execute"))
    recorder.patch(ExecutionEngine, "statement_key", recorder.leaf)
    recorder.patch(ExecutionEngine, "action_key", recorder.leaf)
    # protocol
    for codec in (JsonCodec, BinaryCodec):
        recorder.patch(codec, "encode", named("protocol.codec", _encoded_bytes))
        recorder.patch(codec, "encode_payload", named("protocol.codec", _encoded_bytes))
        recorder.patch(codec, "decode", named("protocol.codec", _decoded_bytes))
        recorder.patch(codec, "decode_payload", named("protocol.codec", _decoded_bytes))
    recorder.patch(service_server, "from_wire", named("protocol.codec"))
    recorder.patch(service_client, "from_wire", named("protocol.codec"))
    # service
    recorder.patch(SessionManager, "record_action", named("service.handle"))
    recorder.patch(SessionManager, "create", named("service.session"))
    recorder.patch(SessionManager, "close", named("service.session"))
    recorder.patch(ServiceClient, "record_action", lambda fn: recorder.client_span("service.client", fn))
    recorder.patch(ServiceClient, "create_session", named("service.client_session"))
    recorder.patch(ServiceClient, "close_session", named("service.client_session"))
    # fleet
    recorder.patch(ConnectionPool, "acquire", named("fleet.pool.acquire", _reused))
    recorder.patch(RemoteBackend, "fetch_entry", named("fleet.remote.get", _fetch_hit))
    recorder.patch(RemoteBackend, "load_consistency", named("fleet.remote.get", _found))
    recorder.patch(RemoteBackend, "flush", named("fleet.remote.put"))
    recorder.patch(cache_server._CacheHandler, "do_POST", named("fleet.cache_server.handle"))
    # service.backends (the store behind the cache server)
    recorder.patch(FileBackend, "load_payload", named("backends.fetch", _found))
    recorder.patch(FileBackend, "fetch_entry", named("backends.fetch", _fetch_hit))
    recorder.patch(FileBackend, "store_payload", named("backends.write"))
    recorder.patch(FileBackend, "flush", named("backends.write"))

    for kind, cls in (("remote", RemoteBackend), ("file", FileBackend)):
        recorder.patch(cls, "__init__", recorder.tracking(kind))
    return recorder


def install_for_process() -> Optional[Recorder]:
    """Install in a spawned process when ``PERFBENCH_TRACE_OUT`` is set.

    The spans are written at interpreter exit and also just before
    ``os._exit`` — the path a forked service worker leaves by.
    """
    path = os.environ.get(TRACE_OUT_ENV)
    if not path:
        return None
    recorder = install(Recorder())

    def target() -> str:
        return path.replace("{pid}", str(os.getpid()))

    import atexit

    atexit.register(lambda: recorder.dump(target()))
    real_exit = os._exit

    def exit_after_dump(code):
        try:
            recorder.dump(target())
        finally:
            real_exit(code)

    os._exit = exit_after_dump

    def reset_in_child() -> None:
        # a forked worker keeps only its own spans and dumps them once
        recorder.spans.clear()
        recorder._dumped = False

    os.register_at_fork(after_in_child=reset_in_child)
    return recorder
