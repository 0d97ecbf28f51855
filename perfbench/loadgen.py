"""The load generator: clients replaying recorded demonstrations.

An *action* is one ``record_action`` call and the ``ProgramProposed`` it
returns.  Each client runs a closed loop, one demonstration at a time as
a user would: it sends a session's next action only after the previous
one returned, and takes the next session of the draw when the current
one reaches its limit.  A session that reaches its limit is closed
inside the timed region, as a user finishing would.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence


@dataclass
class Plan:
    """One session of the draw: a subject and its recorded demonstration."""

    subject: str
    recording: object  # repro.browser.recorder.Recording


@dataclass
class Outcome:
    """One attempted action."""

    session: int
    index: int
    start: float
    latency: float
    predictions: Optional[tuple[str, ...]] = None
    timed_out: bool = False
    error: Optional[str] = None
    trace: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.timed_out


@dataclass
class Drive:
    """Everything one timed region produced."""

    outcomes: list[Outcome]
    started: float
    finished: float
    #: Actions attempted per session, in draw order.
    done: list[int]

    @property
    def wall_s(self) -> float:
        return self.finished - self.started


class InprocClient:
    """Drives a :class:`repro.service.sessions.SessionManager` directly."""

    def __init__(self, manager) -> None:
        self.manager = manager

    def create(self, snapshot) -> str:
        return self.manager.create(snapshot)

    def record(self, sid: str, action, snapshot):
        return self.manager.record_action(sid, action, snapshot)

    def close(self, sid: str) -> None:
        self.manager.close(sid)


class HttpClient:
    """Drives one ``repro serve`` worker through
    :class:`repro.service.client.ServiceClient`."""

    def __init__(self, url: str, timeout: float) -> None:
        from repro.service.client import ServiceClient

        self.client = ServiceClient(url, timeout=timeout)

    def create(self, snapshot) -> str:
        return self.client.create_session(snapshot)

    def record(self, sid: str, action, snapshot):
        return self.client.record_action(sid, action, snapshot)

    def close(self, sid: str) -> None:
        self.client.close_session(sid)


def _client_loop(client, plans, limits, deadline, traced, queue, sids, outcomes, done, lock) -> None:
    from repro.obs import context as obs_context

    while time.perf_counter() < deadline:
        try:
            session = queue.popleft()
        except IndexError:
            return
        recording = plans[session].recording
        while done[session] < limits[session] and time.perf_counter() < deadline:
            index = done[session]
            trace = obs_context.new_root() if traced else None
            started = time.perf_counter()
            outcome = Outcome(session, index, started, 0.0)
            try:
                if session not in sids:
                    sids[session] = client.create(recording.snapshots[0])
                with obs_context.use(trace):
                    started = time.perf_counter()
                    proposed = client.record(
                        sids[session], recording.actions[index], recording.snapshots[index + 1]
                    )
                outcome.latency = time.perf_counter() - started
                outcome.start = started
                outcome.predictions = tuple(proposed.predictions)
                outcome.timed_out = bool(proposed.stats.timed_out)
            except Exception as exc:  # a lost session: count it, drop it
                outcome.latency = time.perf_counter() - started
                outcome.error = f"{plans[session].subject}#{index}: {type(exc).__name__}: {exc}"
            if trace is not None:
                outcome.trace = trace.trace_id
            with lock:
                outcomes.append(outcome)
            done[session] = index + 1
            if outcome.error is not None:
                # the session died with it: the rest of its actions are lost
                sids.pop(session, None)
                lost = [
                    Outcome(session, rest, outcome.start, outcome.latency,
                            error=f"{plans[session].subject}#{rest}: session lost")
                    for rest in range(index + 1, limits[session])
                ]
                with lock:
                    outcomes.extend(lost)
                done[session] = limits[session]
                break
            if done[session] >= limits[session]:
                try:
                    client.close(sids.pop(session))
                except Exception as exc:  # the session's writes may be lost
                    outcome.error = f"{plans[session].subject} close: {type(exc).__name__}: {exc}"


def drive(
    make_client: Callable[[], object],
    plans: Sequence[Plan],
    clients: int,
    seconds: float,
    limits: Optional[Sequence[int]] = None,
    traced: bool = False,
) -> Drive:
    """Run the draw until every session reaches its limit (default: its
    whole demonstration) or ``seconds`` pass, with ``clients`` closed-loop
    clients.  Each client takes the next session of the draw and replays
    it to its limit before taking another, so the clients share the work
    evenly whatever the order.  Sessions still open at the deadline are
    closed after the timed region ends."""
    limits = list(limits) if limits is not None else [
        len(plan.recording.actions) for plan in plans
    ]
    outcomes: list[Outcome] = []
    done = [0] * len(plans)
    sids: dict[int, str] = {}
    lock = threading.Lock()
    queue = deque(i for i in range(len(plans)) if limits[i] > 0)
    clients = max(1, min(clients, len(plans)))
    started = time.perf_counter()
    deadline = started + seconds
    args = (plans, limits, deadline, traced, queue, sids, outcomes, done, lock)

    errors: list[BaseException] = []
    if clients == 1:
        _client_loop(make_client(), *args)
    else:
        def guarded(client) -> None:
            try:
                _client_loop(client, *args)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(make_client(),), daemon=True)
            for _ in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
    # the region ends when the last client returned its last action;
    # closing sessions cut by the deadline is not part of it
    finished = max([o.start + o.latency for o in outcomes] or [started])
    closer = make_client()
    for sid in sids.values():
        try:
            closer.close(sid)
        except Exception:  # teardown past the timed region
            pass
    return Drive(outcomes, started, finished, done)


def reference_predictions(
    manager, plans: Sequence[Plan], limits: Sequence[int]
) -> dict[tuple[int, int], tuple[str, ...]]:
    """Predictions of an in-process manager replaying each session up to
    its limit, keyed by ``(session, action index)``."""
    out: dict[tuple[int, int], tuple[str, ...]] = {}
    for session, (plan, limit) in enumerate(zip(plans, limits)):
        if limit <= 0:
            continue
        recording = plan.recording
        sid = manager.create(recording.snapshots[0])
        for index in range(limit):
            proposed = manager.record_action(
                sid, recording.actions[index], recording.snapshots[index + 1]
            )
            out[(session, index)] = tuple(proposed.predictions)
        manager.close(sid)
    return out


def mismatches(
    outcomes: Sequence[Outcome], reference: dict[tuple[int, int], tuple[str, ...]]
) -> list[str]:
    """Actions whose predictions differ from the reference."""
    out = []
    for outcome in outcomes:
        key = (outcome.session, outcome.index)
        if outcome.error is None and key in reference and outcome.predictions != reference[key]:
            out.append(f"session {outcome.session} action {outcome.index}")
    return out


def prediction_hits(outcomes: Sequence[Outcome], plans: Sequence[Plan]) -> tuple[int, int]:
    """``(hits, judged)``: of the actions with a next ground-truth action,
    how many proposed a prediction consistent with it (the Q1 criterion,
    judged against the recording, never the synthesizer).  A failed
    action is a miss."""
    from repro.lang.actions import statement_to_action
    from repro.lang.parser import parse_program
    from repro.semantics.consistency import actions_consistent

    parsed: dict[str, object] = {}

    def action_of(text: str):
        if text not in parsed:
            parsed[text] = statement_to_action(parse_program(text).statements[0])
        return parsed[text]

    judged = hits = 0
    for outcome in outcomes:
        recording = plans[outcome.session].recording
        following = outcome.index + 1
        if following >= len(recording.actions):
            continue
        judged += 1
        if outcome.failed or not outcome.predictions:
            continue
        expected = recording.actions[following]
        dom = recording.snapshots[following]
        if any(actions_consistent(action_of(p), expected, dom) for p in outcome.predictions):
            hits += 1
    return hits, judged


def doctor(outcomes: list[Outcome], checked) -> None:
    """Alter the predictions of the first completed action whose key is
    in ``checked`` (self-tests of the correctness gate)."""
    for position, outcome in enumerate(outcomes):
        if outcome.error is None and (outcome.session, outcome.index) in checked:
            outcomes[position] = replace(outcome, predictions=outcome.predictions + ("GoBack",))
            return
    raise RuntimeError("no checked action to doctor")
