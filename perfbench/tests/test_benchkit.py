"""Self-tests of the benchmark's own helpers."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from benchkit.loadgen import Event, drive_closed_loop, drive_open_loop, stream_schedule
from benchkit.percentiles import TooFewSamples, percentile, samples_beyond
from benchkit.spans import Span, Tracer, covered_ns, self_time_ns


class FakeClock:
    """A clock that sleeps instantly and ticks a microsecond per read."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        self.now += 1e-6
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(seconds, 0.0)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_reports_its_sample_count():
    estimate = percentile(range(1, 1001), 99)
    assert estimate.samples == 1000
    assert estimate.q == 99
    assert 989.0 < estimate.value < 991.0


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    percentile(range(1000), 99)
    with pytest.raises(TooFewSamples) as refused:
        percentile(range(999), 99)
    assert refused.value.samples == 999 and refused.value.beyond == 9
    percentile(range(20), 50)
    with pytest.raises(TooFewSamples):
        percentile(range(19), 50)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------
def test_seed_gives_identical_arrival_schedule():
    first = stream_schedule(seed=7, query_rate=200.0, queries_per_tick=10, duration_s=3.0)
    second = stream_schedule(seed=7, query_rate=200.0, queries_per_tick=10, duration_s=3.0)
    assert first == second
    other = stream_schedule(seed=8, query_rate=200.0, queries_per_tick=10, duration_s=3.0)
    assert first != other
    later_phase = stream_schedule(seed=7, query_rate=200.0, queries_per_tick=10, duration_s=3.0, phase=1)
    assert first != later_phase


def test_schedule_shape_ticks_and_poisson_queries():
    events = stream_schedule(seed=3, query_rate=400.0, queries_per_tick=10, duration_s=5.0)
    ingests = [event for event in events if event.kind == "ingest"]
    queries = [event for event in events if event.kind == "query"]
    assert [event.tick for event in ingests] == list(range(len(ingests)))
    assert all(abs(event.due - 0.025 * event.tick) < 1e-12 for event in ingests)
    assert 1800 < len(queries) < 2200  # Poisson(2000)
    assert all(0.025 * q.tick <= q.due < 0.025 * (q.tick + 1) for q in queries)
    assert [event.due for event in events] == sorted(event.due for event in events)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_child_coverage():
    parent = Span("parent", 1, None, 1, start_ns=0, end_ns=100)
    children = [
        Span("a", 2, 1, 1, start_ns=10, end_ns=30),
        Span("b", 3, 1, 1, start_ns=20, end_ns=40),  # overlaps a: counted once
        Span("c", 4, 1, 1, start_ns=90, end_ns=120),  # clipped to the parent
    ]
    assert covered_ns(0, 100, [(c.start_ns, c.end_ns) for c in children]) == 40
    assert self_time_ns(parent, children) == 60
    assert self_time_ns(parent, []) == 100


def test_tracer_links_children_and_computes_self_time():
    tracer = Tracer()
    with tracer.span("request") as outer:
        with tracer.span("layer") as inner:
            sum(range(10000))
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    selfs = tracer.self_times_ms()
    outer_ms = outer.duration_ns / 1e6
    assert selfs["request"][0] == pytest.approx(outer_ms - inner.duration_ns / 1e6)
    assert selfs["layer"][0] == pytest.approx(inner.duration_ns / 1e6)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def test_generator_lag_is_measured_against_scheduled_send_times():
    clock = FakeClock()
    events = [Event(due=0.0, kind="query", tick=0), Event(due=1.0, kind="query", tick=0),
              Event(due=2.0, kind="query", tick=1), Event(due=5.0, kind="query", tick=2)]

    def handler(event):
        clock.sleep(1.5)  # every request takes 1.5 s

    outcomes = drive_open_loop(events, handler, clock=clock, sleep=clock.sleep)
    lags = [round(outcome.lag, 3) for outcome in outcomes]
    latencies = [round(outcome.latency, 3) for outcome in outcomes]
    # The second request was due at 1.0 but could only start at 1.5, the
    # third at 3.0 instead of 2.0; the fourth (due 5.0) is on time again.
    assert lags == [0.0, 0.5, 1.0, 0.0]
    # Latency counts from the due time, so the stall shows in it.
    assert latencies == [1.5, 2.0, 2.5, 1.5]


def test_open_loop_records_failures_and_refusals():
    class Refused(Exception):
        pass

    def handler(event):
        if event.tick == 1:
            raise Refused()
        if event.tick == 2:
            raise ValueError("typed failure")

    clock = FakeClock()
    events = [Event(due=0.1 * index, kind="query", tick=index) for index in range(3)]
    outcomes = drive_open_loop(events, handler, is_refusal=lambda e: isinstance(e, Refused),
                               clock=clock, sleep=clock.sleep)
    assert [(o.error, o.refused) for o in outcomes] == [
        (None, False), ("Refused", True), ("ValueError", False)
    ]


def test_closed_loop_prepares_outside_the_timed_call():
    clock = FakeClock()

    def prepare(index):
        clock.sleep(10.0)  # not part of the call's latency
        return index

    def handler(payload):
        clock.sleep(1.0)

    outcomes = drive_closed_loop(handler, duration_s=35.0, prepare=prepare, clock=clock)
    assert len(outcomes) == 4  # calls start at 0, 11, 22 and 33 s
    assert all(round(outcome.latency, 3) == 1.0 for outcome in outcomes)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
_CHILDREN_SCRIPT = """
import os, time
from multiprocessing import get_context, resource_tracker, shared_memory
from benchkit.host import stop_child_processes

segment = shared_memory.SharedMemory(create=True, size=64)
worker = get_context("fork").Process(target=time.sleep, args=(60,), daemon=True)
worker.start()
pids = [resource_tracker._resource_tracker._pid, worker.pid]
segment.close()
segment.unlink()
stop_child_processes(grace=1.0)
print(sum(os.path.exists(f"/proc/{pid}") for pid in pids))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_stop_child_processes_reaps_workers_and_the_resource_tracker():
    done = subprocess.run(
        [sys.executable, "-c", _CHILDREN_SCRIPT],
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == ["0"]
