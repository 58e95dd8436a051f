"""The workloads' traffic, phases and end-to-end metrics.

``stream-interactive``
    Open loop against an inline ``ForecastService`` with quality control
    on: every tick ingests one step, about ``queries_per_tick``
    ``forecast_latest`` queries follow at Poisson times.  A base-rate
    phase gives the latency figures, then a fixed ladder of higher rates
    finds the highest sustainable one.
``bulk-backfill``
    One closed-loop caller sending ``forecast_many`` calls of distinct
    windows, so every window misses the cache and runs the plan.
``fleet-mixed``
    The stream traffic on the interactive lane of a process-tier service
    while one closed-loop caller sends bulk ``forecast_many`` chunks.

Every workload reports the same end-to-end metrics (see
``perfbench/CATALOGUE.md``), from untraced runs only.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fixtures import Fixture
from .loadgen import Event, Outcome, drive_closed_loop, drive_open_loop, stream_schedule
from .percentiles import TooFewSamples, percentile
from .serving import (
    check_bulk_answers,
    check_stream_answers,
    is_refusal,
    peak_rss_mb,
    set_up,
)
from .spans import Tracer

__all__ = ["Reservoir", "StreamTraffic", "BulkTraffic", "PhaseSummary", "run_traffic"]

#: Each ladder step lasts long enough for this many queries (a p99 with
#: 10 samples beyond it), and at least ``LADDER_MIN_SECONDS``.
LADDER_MIN_QUERIES = 1000
LADDER_MIN_SECONDS = 1.0
#: The base phase gets at least this share of ``--seconds``.
MIN_BASE_SHARE = 0.5
#: Steps the backfill ingests into the live buffer before each bulk call.
BACKFILL_INGESTS_PER_CALL = 8
#: Answers the correctness check recomputes: ``forecast_latest`` answers
#: of an open loop, whole ``forecast_many`` calls of a bulk caller.
STREAM_ANSWERS_CHECKED = 12
BULK_CALLS_CHECKED = 1


class Reservoir:
    """A seeded uniform sample of at most ``size`` offered items."""

    def __init__(self, size: int, seed: int) -> None:
        self.size = size
        self.items: List = []
        self.seen = 0
        self._random = random.Random(seed)

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
            return
        slot = self._random.randrange(self.seen)
        if slot < self.size:
            self.items[slot] = item


class StreamTraffic:
    """Ticks and ``forecast_latest`` queries against one service.

    ``tracer`` may be swapped in and out between phases; while set, every
    service call is recorded as a span.
    """

    def __init__(self, service, fixture: Fixture, sampler: Reservoir) -> None:
        self.service = service
        self.fixture = fixture
        self.sampler = sampler
        self.tracer: Optional[Tracer] = None
        self.steps = 0
        self.ingest_s: List[float] = []

    def prefill(self) -> None:
        """Fill the rolling window before traffic starts (untimed)."""
        for _ in range(self.fixture.config.input_length):
            self.service.ingest(self.fixture.stream_step(self.steps))
            self.steps += 1

    def handle(self, event: Event) -> None:
        tracer = self.tracer
        if event.kind == "ingest":
            observation = self.fixture.stream_step(self.steps)
            started = time.perf_counter()
            if tracer is None:
                self.service.ingest(observation)
            else:
                with tracer.span("service.ingest", trace_id=event.tick):
                    self.service.ingest(observation)
            self.ingest_s.append(time.perf_counter() - started)
            self.steps += 1
            return
        if tracer is None:
            answer = self.service.forecast_latest()
        else:
            with tracer.span("service.forecast_latest", trace_id=event.tick):
                answer = self.service.forecast_latest()
        self.sampler.offer((self.steps, answer))


class BulkTraffic:
    """Closed-loop ``forecast_many`` calls over distinct windows.

    With ``ingest_per_call`` the caller is a backfill: before each call it
    loads that many steps of the history into the live buffer, one timed
    ``ingest`` each (outside the call's timed region).
    """

    def __init__(self, service, fixture: Fixture, rows: int, sampler: Reservoir,
                 ingest_per_call: int = 0) -> None:
        self.service = service
        self.fixture = fixture
        self.rows = rows
        self.sampler = sampler
        self.ingest_per_call = ingest_per_call
        self.tracer: Optional[Tracer] = None
        self.ingest_s: List[float] = []
        self._next = 0
        self._steps = 0

    def prepare(self, _index: int) -> Tuple[range, np.ndarray]:
        history = self.fixture.history
        for _ in range(self.ingest_per_call):
            observation = history[self._steps % len(history)]
            started = time.perf_counter()
            self.service.ingest(observation)
            self.ingest_s.append(time.perf_counter() - started)
            self._steps += 1
        indices = range(self._next, self._next + self.rows)
        self._next += self.rows
        return indices, np.stack([self.fixture.bulk_window(index) for index in indices])

    def handle(self, payload: Tuple[range, np.ndarray]) -> None:
        indices, windows = payload
        tracer = self.tracer
        if tracer is None:
            answer = self.service.forecast_many(windows)
        else:
            with tracer.span("service.forecast_many"):
                answer = self.service.forecast_many(windows)
        self.sampler.offer((indices, answer))


@dataclass
class PhaseSummary:
    """Counts and timings of one traffic phase."""

    name: str
    duration_s: float
    rate_qps: Optional[float]
    attempted: int
    succeeded: int
    failed: int
    refused: int
    #: Per-call latency in ms; failed calls count as infinitely late.  An
    #: open-loop call is one query; a closed-loop call carries ``rows``.
    latencies_ms: List[float]
    #: Generator lag of every event in ms (open loop only).
    lags_ms: List[float] = field(default_factory=list)
    #: Seconds the calls themselves took (successful queries).
    service_s: List[float] = field(default_factory=list)
    final_lag_ms: float = 0.0

    @property
    def failed_share(self) -> float:
        return (self.failed + self.refused) / self.attempted if self.attempted else 0.0

    @property
    def achieved_qps(self) -> float:
        return self.succeeded / self.duration_s if self.duration_s else 0.0


def summarize_open(name: str, outcomes: Sequence[Outcome], duration_s: float,
                   rate: float) -> PhaseSummary:
    queries = [outcome for outcome in outcomes if outcome.event.kind == "query"]
    failed = sum(1 for o in queries if o.error is not None and not o.refused)
    refused = sum(1 for o in queries if o.refused)
    return PhaseSummary(
        name=name,
        duration_s=duration_s,
        rate_qps=rate,
        attempted=len(queries),
        succeeded=len(queries) - failed - refused,
        failed=failed,
        refused=refused,
        latencies_ms=[o.latency * 1e3 if o.error is None else math.inf for o in queries],
        lags_ms=[o.lag * 1e3 for o in outcomes],
        service_s=[o.service_time for o in queries if o.error is None],
        final_lag_ms=outcomes[-1].lag * 1e3 if outcomes else 0.0,
    )


def summarize_closed(name: str, outcomes: Sequence[Outcome], rows: int,
                     duration_s: float) -> PhaseSummary:
    """A query is one window, counted in ``attempted``/``failed``; the
    latencies are one per call, which all its windows share."""
    failed = sum(rows for o in outcomes if o.error is not None and not o.refused)
    refused = sum(rows for o in outcomes if o.refused)
    latencies = [o.latency * 1e3 if o.error is None else math.inf for o in outcomes]
    attempted = rows * len(outcomes)
    return PhaseSummary(
        name=name,
        duration_s=duration_s,
        rate_qps=None,
        attempted=attempted,
        succeeded=attempted - failed - refused,
        failed=failed,
        refused=refused,
        latencies_ms=latencies,
        service_s=[o.service_time for o in outcomes if o.error is None],
    )


def meets_limit(phase: PhaseSummary, limit_ms: float) -> Tuple[bool, str]:
    """The ladder's three conditions: p99 limit, failures, no backlog."""
    if phase.failed_share > 0.01:
        return False, f"failed share {phase.failed_share:.3f} > 0.01"
    try:
        p99 = percentile(phase.latencies_ms, 99).value
    except TooFewSamples as error:
        return False, str(error)
    if p99 > limit_ms:
        return False, f"p99 {p99:.2f} ms > limit {limit_ms} ms"
    if phase.final_lag_ms > limit_ms:
        return False, f"backlog: generator ended {phase.final_lag_ms:.1f} ms late"
    return True, f"p99 {p99:.2f} ms <= {limit_ms} ms"


def ladder_durations(settings: Dict) -> List[Tuple[float, float]]:
    """``(rate, seconds)`` per ladder step: enough queries for a p99."""
    return [
        (float(rate), max(LADDER_MIN_SECONDS, 1.1 * LADDER_MIN_QUERIES / rate))
        for rate in settings["rate_ladder_qps"]
    ]


@dataclass
class TrafficResult:
    """Everything the traffic of one run produced."""

    phases: List[PhaseSummary]
    #: The phases the end-to-end metrics come from.
    measured: List[PhaseSummary]
    ingest_us: List[float]
    throughput_wps: float
    #: What ``throughput_wps`` counted, over what time.
    throughput_support: str = ""
    ladder: List[Tuple[float, bool, str, float]] = field(default_factory=list)
    max_rate_rps: Optional[float] = None
    bulk_phase: Optional[PhaseSummary] = None
    stream_samples: List = field(default_factory=list)
    bulk_samples: List = field(default_factory=list)
    peak_rss_mb: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    trace_overhead_pct: Optional[float] = None
    lag_ms: List[float] = field(default_factory=list)


class _BulkThread:
    """The fleet's closed-loop bulk caller, on its own thread."""

    def __init__(self, traffic: BulkTraffic) -> None:
        self.traffic = traffic
        self.outcomes: List[Outcome] = []
        self._stop = threading.Event()
        self.origin = time.perf_counter()
        self._thread = threading.Thread(target=self._run, name="perfbench-bulk", daemon=True)

    def _run(self) -> None:
        self.outcomes = drive_closed_loop(
            self.traffic.handle,
            math.inf,
            prepare=self.traffic.prepare,
            should_stop=self._stop.is_set,
            is_refusal=is_refusal,
            origin=self.origin,
        )

    def start(self) -> "_BulkThread":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def windows_between(self, start: float, end: float) -> int:
        """Windows of successful calls that completed in ``[start, end]``."""
        rows = self.traffic.rows
        return sum(
            rows
            for outcome in self.outcomes
            if outcome.error is None and start <= self.origin + outcome.end <= end
        )


def _phase_plan(tracer: Optional[Tracer], seconds: float) -> List[Tuple[str, Optional[Tracer], float]]:
    """Untraced: one base phase.  Traced: untraced and traced quarters, alternated
    (so a drift in host speed biases neither side)."""
    if tracer is None:
        return [("base", None, seconds)]
    return [("untraced", None, seconds / 4), ("traced", tracer, seconds / 4)] * 2


def _overhead_pct(phases: Sequence[PhaseSummary]) -> float:
    """Mean service-call time, traced phases over untraced phases, in %."""
    def mean(name: str) -> float:
        values = [value for phase in phases if phase.name == name for value in phase.service_s]
        return float(np.mean(values)) if values else float("nan")

    return 100.0 * (mean("traced") / mean("untraced") - 1.0)


def run_traffic(
    settings: Dict,
    fixture: Fixture,
    seed: int,
    seconds: float,
    workdir: Path,
    tracer: Optional[Tracer] = None,
    after_traffic=None,
) -> TrafficResult:
    """Set up the service, run the workload's traffic, check answers.

    Untraced (``tracer is None``): a base phase at the base rate, then the
    rate ladder (open loop) — or ``seconds`` of closed-loop calls.  Traced:
    the base traffic in alternating untraced and traced quarters, so the
    tracing overhead can be read off; ``after_traffic(service, result)``
    then runs the per-layer measurements against the live service before
    it closes.
    """
    setup_s, service = set_up(fixture, settings, workdir)
    result: Optional[TrafficResult] = None
    stream_sampler = Reservoir(STREAM_ANSWERS_CHECKED, seed)
    bulk_sampler = Reservoir(BULK_CALLS_CHECKED, seed + 1)
    try:
        if settings["loop"] == "closed":
            result = _run_closed(service, fixture, settings, seconds, bulk_sampler, tracer)
        else:
            result = _run_open(service, fixture, settings, seed, seconds,
                               stream_sampler, bulk_sampler, tracer)
        result.setup_s = setup_s
        result.peak_rss_mb = peak_rss_mb(service)
        if after_traffic is not None:
            after_traffic(service, result)
    finally:
        service.close()
    result.stream_samples = list(stream_sampler.items)
    result.bulk_samples = list(bulk_sampler.items)
    return result


def _run_closed(service, fixture: Fixture, settings: Dict, seconds: float,
                sampler: Reservoir, tracer: Optional[Tracer]) -> TrafficResult:
    rows = settings["bulk_rows"]
    # The backfill loads the history into the live buffer as it goes
    # (quality control off); those ingest calls give ingest_p50_us.
    traffic = BulkTraffic(service, fixture, rows, sampler,
                          ingest_per_call=BACKFILL_INGESTS_PER_CALL)
    phases: List[PhaseSummary] = []
    for name, phase_tracer, duration in _phase_plan(tracer, seconds):
        traffic.tracer = phase_tracer
        started = time.perf_counter()
        outcomes = drive_closed_loop(
            traffic.handle, duration, prepare=traffic.prepare, is_refusal=is_refusal
        )
        elapsed = time.perf_counter() - started
        phases.append(summarize_closed(name, outcomes, rows, elapsed))
    traffic.tracer = None
    measured = phases
    windows = sum(phase.succeeded for phase in measured)
    elapsed = sum(phase.duration_s for phase in measured)
    result = TrafficResult(
        phases=phases,
        measured=measured,
        ingest_us=[value * 1e6 for value in traffic.ingest_s],
        throughput_wps=windows / elapsed if elapsed else 0.0,
        throughput_support=f"n={windows} windows in {elapsed:.2f} s of back-to-back calls",
    )
    result.max_rate_rps = result.throughput_wps  # closed loop: its rate is its throughput
    if tracer is not None:
        result.trace_overhead_pct = _overhead_pct(phases)
    return result


def _run_open(service, fixture: Fixture, settings: Dict, seed: int, seconds: float,
              stream_sampler: Reservoir, bulk_sampler: Reservoir,
              tracer: Optional[Tracer]) -> TrafficResult:
    base_rate = float(settings["base_rate_qps"])
    per_tick = float(settings["queries_per_tick"])
    limit_ms = float(settings["latency_limit_ms"])
    traffic = StreamTraffic(service, fixture, stream_sampler)
    traffic.prefill()
    bulk: Optional[_BulkThread] = None
    if "bulk_rows" in settings:
        bulk = _BulkThread(BulkTraffic(service, fixture, settings["bulk_rows"], bulk_sampler)).start()
    phases: List[PhaseSummary] = []
    ladder: List[Tuple[float, bool, str, float]] = []
    try:
        if tracer is None:
            ladder_plan = ladder_durations(settings)
            ladder_total = sum(duration for _, duration in ladder_plan)
            base_seconds = max(seconds - ladder_total, seconds * MIN_BASE_SHARE)
            plan = [("base", base_rate, base_seconds, None)] + [
                (f"ladder-{rate:g}", rate, duration, None) for rate, duration in ladder_plan
            ]
        else:
            plan = [(name, base_rate, duration, phase_tracer)
                    for name, phase_tracer, duration in _phase_plan(tracer, seconds)]
        measured: List[PhaseSummary] = []
        ingest_s: List[float] = []
        spans: List[Tuple[float, float]] = []
        measured_seconds = 0.0
        for index, (name, rate, duration, phase_tracer) in enumerate(plan):
            mark = len(traffic.ingest_s)
            events = stream_schedule(seed, rate, per_tick, duration, phase=index)
            traffic.tracer = phase_tracer
            if bulk is not None:
                bulk.traffic.tracer = phase_tracer
            origin = time.perf_counter()
            outcomes = drive_open_loop(events, traffic.handle, is_refusal=is_refusal, origin=origin)
            end = time.perf_counter()
            summary = summarize_open(name, outcomes, end - origin, rate)
            phases.append(summary)
            if not name.startswith("ladder"):
                measured.append(summary)
                ingest_s += traffic.ingest_s[mark:]
                measured_seconds += summary.duration_s
                spans.append((origin, end))
                if tracer is not None or name != "base":
                    continue
            passed, reason = meets_limit(summary, limit_ms)
            ladder.append((rate, passed, reason, summary.achieved_qps))
            if not passed:
                break
        traffic.tracer = None
    finally:
        if bulk is not None:
            bulk.stop()
            bulk.traffic.tracer = None
    # An open loop is answered at the rate it offers, so its wall-clock
    # rate says nothing of the service.  With a bulk caller beside it,
    # throughput counts that closed loop's windows per second; alone, the
    # queries answered per second of the calls' own (busy) time.
    if bulk is not None:
        windows = sum(bulk.windows_between(start, end) for start, end in spans)
        throughput = windows / measured_seconds if measured_seconds else 0.0
        support = f"n={windows} bulk-lane windows in {measured_seconds:.2f} s"
    else:
        busy_s = sum(value for phase in measured for value in phase.service_s)
        answered = sum(phase.succeeded for phase in measured)
        throughput = answered / busy_s if busy_s else 0.0
        support = f"n={answered} queries in {busy_s:.3f} s of service time"
    passing = [achieved for _, passed, _, achieved in ladder if passed]
    result = TrafficResult(
        phases=phases,
        measured=measured,
        ingest_us=[value * 1e6 for value in ingest_s],
        throughput_wps=throughput,
        throughput_support=support,
        ladder=ladder,
        max_rate_rps=passing[-1] if passing else None,
        lag_ms=[lag for phase in measured for lag in phase.lags_ms],
    )
    if bulk is not None:
        result.bulk_phase = summarize_closed(
            "bulk-lane", bulk.outcomes, bulk.traffic.rows, bulk.outcomes[-1].end if bulk.outcomes else 0.0
        )
    if tracer is not None:
        result.trace_overhead_pct = _overhead_pct(phases)
    return result


def check_answers(fixture: Fixture, settings: Dict, result: TrafficResult) -> List[float]:
    """``max |diff|`` of every sampled answer against the autograd reference."""
    diffs = []
    if result.stream_samples:
        diffs += check_stream_answers(fixture, settings, result.stream_samples)
    if result.bulk_samples:
        diffs += check_bulk_answers(fixture, settings, result.bulk_samples)
    return diffs
