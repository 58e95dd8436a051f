"""Seeded arrival schedules and the open- and closed-loop runners.

Streaming traffic is a sequence of *ticks*: every tick ingests one
observation step, and forecast queries arrive between ticks as a Poisson
process (about ``queries_per_tick`` per tick).  The schedule is a pure
function of its seed, so two runs with one seed send the same requests
at the same offsets.

The open-loop runner sends each event when it is due, whatever the
service is doing, and times every request **from its due time**: a stall
shows up in the latency of every request it delayed (no coordinated
omission).  How late the generator itself ran — ``start - due`` — is
recorded per event as its *lag*.  The closed-loop runner is one caller
that sends its next request when the previous one returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

import numpy as np

__all__ = [
    "Event",
    "Outcome",
    "stream_schedule",
    "drive_open_loop",
    "drive_closed_loop",
    "sleep_until",
]

#: The runner sleeps until this long before an event, then spins; plain
#: sleeps overshoot by tens of microseconds, which would swamp the
#: ~25 µs cache-hit latency the stream workload measures.
SPIN_S = 200e-6


@dataclass(frozen=True)
class Event:
    """One scheduled request: ``due`` seconds after the phase starts."""

    due: float
    kind: str  # "ingest" or "query"
    tick: int


@dataclass
class Outcome:
    """What happened to one event."""

    event: Event
    start: float  # seconds after the phase started
    end: float
    error: Optional[str] = None  # exception type name; None on success
    refused: bool = False

    @property
    def lag(self) -> float:
        """How late the generator sent the event (seconds)."""
        return self.start - self.event.due

    @property
    def latency(self) -> float:
        """Seconds from when the event was due until it completed."""
        return self.end - self.event.due

    @property
    def service_time(self) -> float:
        """Seconds the call itself took."""
        return self.end - self.start


def stream_schedule(
    seed: int, query_rate: float, queries_per_tick: float, duration_s: float, phase: int = 0
) -> List[Event]:
    """Ticks at a fixed rate plus Poisson query arrivals, sorted by due time.

    ``query_rate`` is queries per second; ticks come every
    ``queries_per_tick / query_rate`` seconds, each ingest scheduled at its
    tick's start and every query tagged with the tick it follows.
    ``phase`` derives an independent stream from the same seed for each
    phase of a run.
    """
    if query_rate <= 0 or queries_per_tick <= 0 or duration_s <= 0:
        raise ValueError("query_rate, queries_per_tick and duration_s must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(phase)]))
    tick_period = queries_per_tick / query_rate
    ticks = int(duration_s / tick_period)
    events = [Event(due=index * tick_period, kind="ingest", tick=index) for index in range(ticks)]
    horizon = ticks * tick_period
    expected = int(query_rate * horizon * 1.5) + 16
    arrivals = np.cumsum(rng.exponential(1.0 / query_rate, size=expected))
    while arrivals[-1] < horizon:  # pragma: no cover - 1.5x headroom suffices
        more = arrivals[-1] + np.cumsum(rng.exponential(1.0 / query_rate, size=expected))
        arrivals = np.concatenate([arrivals, more])
    for due in arrivals[arrivals < horizon]:
        events.append(Event(due=float(due), kind="query", tick=int(due // tick_period)))
    # An ingest sorts before a query due at the same instant.
    events.sort(key=lambda event: (event.due, event.kind != "ingest"))
    return events


def sleep_until(deadline: float, clock: Callable[[], float] = time.perf_counter,
                sleep: Callable[[float], None] = time.sleep) -> None:
    """Sleep, then spin for the last :data:`SPIN_S`, until ``clock() >= deadline``."""
    remaining = deadline - clock()
    if remaining > SPIN_S:
        sleep(remaining - SPIN_S)
    while clock() < deadline:
        pass


def drive_open_loop(
    events: Iterable[Event],
    handler: Callable[[Event], None],
    is_refusal: Callable[[BaseException], bool] = lambda error: False,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    origin: Optional[float] = None,
) -> List[Outcome]:
    """Send each event at its due time; return one :class:`Outcome` each.

    ``handler`` performs the request.  Exceptions are recorded, never
    propagated: every failure is an outcome, so failures count against
    attempts.  Due times count from ``origin`` (default: now on ``clock``).
    """
    outcomes: List[Outcome] = []
    origin = clock() if origin is None else origin
    for event in events:
        sleep_until(origin + event.due, clock=clock, sleep=sleep)
        start = clock()
        error: Optional[BaseException] = None
        try:
            handler(event)
        except Exception as caught:  # every failure is a counted outcome
            error = caught
        end = clock()
        outcomes.append(
            Outcome(
                event=event,
                start=start - origin,
                end=end - origin,
                error=type(error).__name__ if error is not None else None,
                refused=error is not None and is_refusal(error),
            )
        )
    return outcomes


def drive_closed_loop(
    handler: Callable[[object], None],
    duration_s: float,
    prepare: Callable[[int], object] = lambda index: index,
    should_stop: Callable[[], bool] = lambda: False,
    is_refusal: Callable[[BaseException], bool] = lambda error: False,
    clock: Callable[[], float] = time.perf_counter,
    origin: Optional[float] = None,
) -> List[Outcome]:
    """One caller: ``handler(prepare(i))`` back to back for ``duration_s``.

    ``prepare`` builds call ``i``'s payload outside the timed region;
    times count from ``origin`` (default: now on ``clock``).
    """
    outcomes: List[Outcome] = []
    origin = clock() if origin is None else origin
    index = 0
    while clock() - origin < duration_s and not should_stop():
        payload = prepare(index)
        start = clock()
        error: Optional[BaseException] = None
        try:
            handler(payload)
        except Exception as caught:  # counted, never propagated
            error = caught
        end = clock()
        event = Event(due=start - origin, kind="call", tick=index)
        outcomes.append(
            Outcome(
                event=event,
                start=start - origin,
                end=end - origin,
                error=type(error).__name__ if error is not None else None,
                refused=error is not None and is_refusal(error),
            )
        )
        index += 1
    return outcomes
