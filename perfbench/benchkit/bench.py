"""One benchmark run: fixtures, traffic, correctness check, report.

:func:`run_benchmark` returns the report lines and the result object the
launcher prints last.  With ``trace=False`` the result carries every
end-to-end metric of ``BENCHMARK.json``; with ``trace=True`` every
per-layer metric (a metric the workload does not exercise reads 0 and
the report says why).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .fixtures import build_fixture
from .host import host_record
from .layers import LayerProbe
from .percentiles import TooFewSamples, percentile
from .serving import build_service
from .spans import Tracer
from .workloads import PhaseSummary, TrafficResult, check_answers, run_traffic

__all__ = ["run_benchmark"]


def _pct(values, q: float) -> Tuple[Optional[float], int, str]:
    """``(value, samples, note)``; value ``None`` when the sample is too small."""
    try:
        estimate = percentile(values, q)
    except TooFewSamples as error:
        return None, len(values), str(error)
    return estimate.value, estimate.samples, ""


def _phase_line(phase: PhaseSummary) -> str:
    p50, n, _ = _pct(phase.latencies_ms, 50)
    p99, _, note = _pct(phase.latencies_ms, 99)
    rate = f"{phase.rate_qps:g} q/s" if phase.rate_qps else "closed loop"
    tail = f"p99 {p99:.3f} ms" if p99 is not None else f"p99 refused ({note})"
    head = f"p50 {p50:.3f} ms" if p50 is not None else "p50 refused"
    unit = "queries" if phase.rate_qps else "calls"
    return (
        f"  phase {phase.name:<14} {rate:<12} {phase.duration_s:6.2f} s  "
        f"sent {phase.attempted} ok {phase.succeeded} failed {phase.failed} "
        f"refused {phase.refused}  {head}  {tail}  (n={n} {unit})"
    )


def _end_to_end(result: TrafficResult) -> Dict[str, Tuple[Optional[float], str, str]]:
    """Every end-to-end metric as ``(value, unit, support)``.

    A percentile the sample cannot support has value ``None`` and says why.
    """
    latencies = [value for phase in result.measured for value in phase.latencies_ms]
    metrics: Dict[str, Tuple[Optional[float], str, str]] = {
        "setup_s": (float(np.median(result.setup_s)), "s", f"median of {len(result.setup_s)} samples"),
    }
    for name, values, q, unit in (
        ("latency_p50_ms", latencies, 50, "ms"),
        ("latency_p99_ms", latencies, 99, "ms"),
        ("ingest_p50_us", result.ingest_us, 50, "us"),
    ):
        value, n, note = _pct(values, q)
        metrics[name] = (value, unit, f"n={n}" if value is not None else note)
    metrics["throughput_wps"] = (result.throughput_wps, "1/s", result.throughput_support)
    metrics["peak_rss_mb"] = (result.peak_rss_mb, "MiB", "n=1")
    return metrics


def _check_predictions(settings: Dict, probe: LayerProbe, tracer: Tracer,
                       latencies_ms: List[float]) -> List[str]:
    """The design predictions the traced run confirms or refutes.

    ``latencies_ms`` are the run's query latencies from their due times,
    the sample ``latency_p99_ms`` is taken from.
    """
    metrics = {name: value for name, (value, _) in probe.metrics.items()}
    lines = []

    def verdict(claim: str, holds: bool, measured: str) -> None:
        lines.append(f"prediction {claim}: {'holds' if holds else 'DOES NOT HOLD'} ({measured})")

    if settings["loop"] == "open":
        calls = tracer.durations_ms("service.forecast_latest")
        replay = metrics["runtime.plan_call_ms.b1"]
        p50, _, _ = _pct(calls, 50)
        if p50 is not None:
            verdict("the p50 query is a cache hit", p50 < 0.1 * replay,
                    f"p50 forecast_latest call {p50:.4f} ms vs batch-1 replay {replay:.3f} ms")
        # Only about one call in queries_per_tick replays, so the p99 of the
        # calls' own durations sits on the edge; the p99 query's latency from
        # its due time also counts the wait behind a replay.
        p99, n, _ = _pct(latencies_ms, 99)
        slow = sum(1 for call in calls if call >= 0.5 * replay)
        if p99 is not None and calls:
            claim = "the p99 query is a plan replay or waits behind one"
            if settings["executor"] == "processes":
                claim += " (or behind a bulk chunk)"
            verdict(claim, p99 >= 0.5 * replay,
                    f"p99 latency {p99:.3f} ms vs batch-1 replay {replay:.3f} ms, n={n}; "
                    f"{slow} of {len(calls)} calls ({100 * slow / len(calls):.2f}%) "
                    f"took at least half a replay")
    if settings["loop"] == "closed":
        calls = tracer.durations_ms("service.forecast_many")
        rows = settings["bulk_rows"]
        replay = metrics.get(f"runtime.plan_call_ms.b{rows}")
        if calls and replay:
            share = replay / float(np.median(calls))
            verdict("plan replay is most of each bulk call", share > 0.5,
                    f"batch-{rows} replay {replay:.1f} ms is {100 * share:.1f}% of the median "
                    f"{float(np.median(calls)):.1f} ms call, n={len(calls)}")
    if settings["executor"] == "processes":
        overhead = metrics.get("process.dispatch_overhead_ms", 0.0)
        verdict("process.dispatch_overhead_ms is non-zero", overhead != 0.0,
                f"{overhead:.3f} ms per one-window forecast_many: process "
                f"{probe.notes.get('process_call_ms', float('nan')):.2f} ms vs inline "
                f"{probe.notes.get('inline_call_ms', float('nan')):.2f} ms")
    return lines


def run_benchmark(
    workload: str,
    settings: Dict,
    spec: Dict,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    span_path: Path,
) -> Tuple[List[str], Dict]:
    lines: List[str] = []
    lines.append(f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    lines.append("host " + json.dumps(host_record(), sort_keys=True))
    fixture = build_fixture(settings["fixture"], seed, workdir)
    lines.append(
        f"fixture nodes={fixture.config.num_nodes} edges={int(np.count_nonzero(fixture.adjacency))} "
        f"steps={fixture.stream.shape[0]} faults={fixture.faults}"
    )
    tracer = Tracer() if trace else None
    probe: Optional[LayerProbe] = None
    predictions: List[str] = []

    def per_layer(service, traffic: TrafficResult) -> None:
        nonlocal probe
        probe = LayerProbe(fixture, settings, tracer, workdir)
        uses_batcher = "bulk_rows" in settings
        probe.serving_counters(service, uses_batcher)
        probe.quality()
        probe.buffer(streaming=settings["loop"] == "open")
        probe.cache_and_scaler()
        compiled = probe.runtime()
        probe.batcher(compiled, uses_batcher)
        if settings["executor"] == "processes":
            inline = build_service(
                fixture, {**settings, "executor": "inline"}, artifact_dir=workdir / "artifacts-inline"
            )
            try:
                probe.dispatch_overhead(service, inline)
            finally:
                inline.close()
        else:
            probe.mark_absent(["process.dispatch_overhead_ms"], "inline service: no process tier")
        probe.modules()
        probe.kernels()
        if traffic.lag_ms:
            lag, _, _ = _pct(traffic.lag_ms, 99)
            probe.record("loadgen.lag_p99_ms", lag if lag is not None else max(traffic.lag_ms), "ms")
        else:
            probe.mark_absent(["loadgen.lag_p99_ms"], "closed loop: no schedule to lag behind")
        probe.record("trace.overhead_pct", traffic.trace_overhead_pct, "%")
        latencies = [value for phase in traffic.measured for value in phase.latencies_ms]
        predictions.extend(_check_predictions(settings, probe, tracer, latencies))

    result = run_traffic(
        settings, fixture, seed, seconds, workdir,
        tracer=tracer, after_traffic=per_layer if trace else None,
    )
    lines.append("setup_s samples (mean set-up over >= 1 s each) "
                 + " ".join(f"{value:.4f}" for value in result.setup_s))
    for phase in result.phases:
        lines.append(_phase_line(phase))
    if result.bulk_phase is not None:
        lines.append(_phase_line(result.bulk_phase).replace("phase", "lane ", 1))

    # Correctness: sampled answers against an autograd forward of the same
    # checkpoint, computed after the timed traffic.
    diffs = check_answers(fixture, settings, result)
    wrong = sum(1 for diff in diffs if diff != 0.0)
    lines.append(
        f"correctness: {len(diffs)} sampled answers vs runtime='autograd', "
        f"max|diff| = {max(diffs) if diffs else float('nan'):.3g}, wrong = {wrong}"
    )

    phases = list(result.measured)
    if result.bulk_phase is not None:
        phases.append(result.bulk_phase)
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed + phase.refused for phase in phases) + wrong
    refused = sum(phase.refused for phase in phases)
    lines.append(
        f"queries: sent {attempted} succeeded {attempted - failed} failed {failed - refused} "
        f"refused {refused}; failed_share = {failed / attempted if attempted else 0.0:.6f}"
    )
    if not trace:
        for rate, passed, reason, achieved in result.ladder:
            lines.append(f"  ladder {rate:g} q/s: {'pass' if passed else 'FAIL'} ({reason}); achieved {achieved:.1f} q/s")
        if result.max_rate_rps is not None:
            lines.append(f"max_rate_rps = {result.max_rate_rps:.2f} 1/s")
        else:
            lines.append("max_rate_rps: no ladder step met the limit")

    metrics: Dict[str, Dict[str, float]] = {}
    if not trace:
        measured = _end_to_end(result)
        for name, (value, unit, support) in measured.items():
            shown = f"{value:.6g} {unit}" if value is not None else "refused"
            lines.append(f"metric {name} = {shown} ({support})")
        for entry in spec["end_to_end"]:
            value, unit, support = measured[entry["name"]]
            if value is None:
                raise RuntimeError(f"{entry['name']} cannot be reported: {support}")
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        if probe is None:
            raise RuntimeError("the traced run produced no per-layer measurements")
        lines.extend(predictions)
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name in probe.metrics:
                value, _ = probe.metrics[name]
                lines.append(f"layer {name} = {value:.6g} {entry['unit']}")
            else:
                value = 0.0
                reason = probe.absent.get(name, "not measured")
                lines.append(f"layer {name} = absent ({reason})")
            if value is None or not math.isfinite(value):
                value = 0.0
            metrics[name] = {"value": value, "unit": entry["unit"]}
        lines.append("notes " + json.dumps(probe.notes, sort_keys=True, default=float))
        durations: Dict[str, List[float]] = {}
        for span in tracer.spans:
            durations.setdefault(span.name, []).append(span.duration_ns / 1e6)
        for name, selfs in sorted(tracer.self_times_ms().items()):
            lines.append(
                f"span {name}: n={len(selfs)} median {float(np.median(durations[name])):.4f} ms, "
                f"self {float(np.median(selfs)):.4f} ms"
            )
        tracer.dump(span_path)
        lines.append(f"spans written to {span_path.name} ({len(tracer.spans)} spans)")
    output = {
        "correct": wrong == 0,
        "attempted": int(max(attempted, 1)),
        "failed": int(failed),
        "metrics": metrics,
    }
    return lines, output
