"""Trace-context generation, scoping, and propagation formats.

A :class:`TraceContext` is the pair ``(trace_id, span_id)``: the
16-hex-char id of the whole demonstration's trace plus the 8-hex-char
id of the propagating span (the caller's span, which remote children
parent under).  It travels in two forms, both the same ``tid-sid``
string:

* the ``X-Repro-Trace`` HTTP header (:data:`HEADER`), attached by
  :class:`~repro.service.client.ServiceClient` and adopted by the
  server per request — this is what stitches spans across forked
  workers and through session migration;
* the optional ``trace`` envelope key (:data:`WIRE_KEY`) on protocol
  messages, emitted by ``to_wire`` only while a context is active so
  canonical encodings are unchanged when observability is off.

Scoping uses a :mod:`contextvars` variable, so concurrent server
request threads each see their own context.  Executor threads do
**not** inherit contextvars from the submitting thread — code handing
work to one captures :func:`current` and re-enters it with :func:`use`
inside the worker closure.
"""

from __future__ import annotations

import contextvars
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass

#: HTTP header carrying the ``tid-sid`` pair across process boundaries.
HEADER = "X-Repro-Trace"

#: Optional protocol-envelope key carrying the same ``tid-sid`` pair.
WIRE_KEY = "trace"

_WIRE_RE = re.compile(r"^[0-9a-f]{16}-[0-9a-f]{8}$")


@dataclass(frozen=True)
class TraceContext:
    """An immutable (trace_id, span_id) propagation pair."""

    trace_id: str
    span_id: str

    def wire_value(self) -> str:
        """The ``tid-sid`` string used by both header and envelope."""
        return f"{self.trace_id}-{self.span_id}"


def new_trace_id() -> str:
    """A fresh 64-bit trace id (16 lowercase hex chars)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 32-bit span id (8 lowercase hex chars)."""
    return os.urandom(4).hex()


def new_root() -> TraceContext:
    """Mint the root context for a new trace."""
    return TraceContext(new_trace_id(), new_span_id())


def parse(value: str | None) -> TraceContext | None:
    """Parse a ``tid-sid`` header/envelope value; None if malformed.

    Malformed values are dropped rather than rejected — propagation is
    best-effort telemetry, never a request-validity concern.
    """
    if not value or not isinstance(value, str):
        return None
    token = value.strip().lower()
    if not _WIRE_RE.match(token):
        return None
    trace_id, _, span_id = token.partition("-")
    return TraceContext(trace_id, span_id)


_current: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)

#: Trace noted by ``from_wire`` while decoding a request body; the
#: server adopts it when no ``X-Repro-Trace`` header was sent.
_received: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_received", default=None
)


def current() -> TraceContext | None:
    """The context active in this thread/task, or None."""
    return _current.get()


def activate(ctx: TraceContext | None) -> contextvars.Token:
    """Set the active context; returns a token for :func:`deactivate`."""
    return _current.set(ctx)


def deactivate(token: contextvars.Token) -> None:
    _current.reset(token)


@contextmanager
def use(ctx: TraceContext | None):
    """Scope ``ctx`` as the active context for the ``with`` body."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


def note_received(ctx: TraceContext) -> None:
    """Record a context seen in a decoded envelope (``from_wire``)."""
    _received.set(ctx)


def take_received() -> TraceContext | None:
    """Pop the last envelope-received context (cleared after reading)."""
    ctx = _received.get()
    if ctx is not None:
        _received.set(None)
    return ctx
