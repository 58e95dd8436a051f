"""Service construction, set-up timing, memory and the correctness check.

:func:`build_service` is the one place the benchmark constructs a
service, for every workload: an inline :class:`repro.serving.ForecastService`,
or the process-tier :class:`repro.serving.ShardedForecastService` in
replicas mode.  Merging those classes behind one constructor then needs
a change here only.
"""

from __future__ import annotations

import gc
import resource
import shutil
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.serving import (
    ForecastService,
    QualityConfig,
    ServiceOverloaded,
    ShardedForecastService,
)

from .fixtures import Fixture
from .host import cpu_count

__all__ = [
    "batch_sizes",
    "build_service",
    "set_up",
    "peak_rss_mb",
    "is_refusal",
    "max_abs_diff",
    "worker_count",
    "check_stream_answers",
    "check_bulk_answers",
]


#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Each sample averages consecutive set-ups until this much set-up time
#: has accumulated.  A shared 2-core VM was measured swinging in speed by
#: up to 1.5x in spells of about a second; an 80 ms set-up timed alone
#: lands inside one spell, so a median of single set-ups jumps with the
#: spells it hit.
SETUP_SAMPLE_SECONDS = 1.0

#: Admission queue depths of the process tier's two lanes (fleet-mixed).
INTERACTIVE_QUEUE_DEPTH = 8
BULK_QUEUE_DEPTH = 64


def batch_sizes(settings: Dict) -> List[int]:
    """The batch sizes a workload's traffic sends: 1 for ``forecast_latest``
    on an open loop, ``bulk_rows`` for bulk ``forecast_many`` calls."""
    sizes = [1] if settings["loop"] == "open" else []
    if "bulk_rows" in settings:
        sizes.append(settings["bulk_rows"])
    return sizes


def worker_count() -> int:
    """Process-tier workers: ``nproc - 1`` (at least one)."""
    return max(1, cpu_count() - 1)


def is_refusal(error: BaseException) -> bool:
    """Admission control refused the query (it is still a failure)."""
    return isinstance(error, ServiceOverloaded)


def build_service(fixture: Fixture, settings: Dict, artifact_dir=None, runtime=None):
    """Construct the workload's service from the fixture checkpoint.

    ``runtime="autograd"`` builds the inline reference service the
    correctness check compares against (same checkpoint, same quality
    control, no cache).
    """
    quality = QualityConfig() if settings["quality"] else None
    if runtime == "autograd":
        return ForecastService.from_checkpoint(
            fixture.checkpoint, runtime="autograd", quality=quality, cache_entries=0
        )
    if settings["executor"] == "inline":
        return ForecastService.from_checkpoint(
            fixture.checkpoint,
            artifact_dir=artifact_dir,
            quality=quality,
            precision="float64",
        )
    if settings["executor"] == "processes":
        return ShardedForecastService.from_checkpoint(
            fixture.checkpoint,
            num_shards=worker_count(),
            mode="replicas",
            executor="processes",
            artifact_dir=artifact_dir,
            quality=quality,
            precision="float64",
            bulk_chunk_rows=settings["bulk_rows"],
            interactive_queue_depth=INTERACTIVE_QUEUE_DEPTH,
            bulk_queue_depth=BULK_QUEUE_DEPTH,
        )
    raise ValueError(f"unknown executor {settings['executor']!r}")


def _probe_windows(fixture: Fixture, size: int) -> np.ndarray:
    """``size`` distinct constant windows no traffic window equals."""
    config = fixture.config
    shape = (size, config.input_length, config.num_nodes, config.input_dim)
    return np.full(shape, 1e4) + np.arange(size).reshape(size, 1, 1, 1)


def set_up(fixture: Fixture, settings: Dict, workdir: Path) -> Tuple[List[float], object]:
    """Build the service again and again from an empty artifact store.

    One set-up runs from construction from the checkpoint through
    ``warm_up`` of every batch size the workload uses, plus one probe
    query per batch size: the first replay of a plan touches its
    workspace pages, and on the process tier it spawns the workers and
    binds their plans — set-up work, not traffic.  Returns
    ``SETUP_SAMPLES`` samples, each the mean time of the consecutive
    set-ups that fill ``SETUP_SAMPLE_SECONDS``, and the last service,
    which serves the run.
    """
    samples: List[float] = []
    service = None
    store = None
    sizes = batch_sizes(settings)
    builds = 0
    for _ in range(SETUP_SAMPLES):
        spent = 0.0
        count = 0
        while count == 0 or spent < SETUP_SAMPLE_SECONDS:
            if service is not None:
                service.close()
                # Free the previous set-up before the next compile, so its
                # peak memory never stacks on this one's (peak_rss_mb).
                service = None
                gc.collect()
                shutil.rmtree(store, ignore_errors=True)
            store = workdir / f"artifacts-{builds}"
            started = time.perf_counter()
            service = build_service(fixture, settings, artifact_dir=store)
            try:
                service.warm_up(sizes)
                for size in sizes:
                    service.forecast_many(_probe_windows(fixture, size))
            except BaseException:
                service.close()  # its worker processes end with the run
                raise
            spent += time.perf_counter() - started
            count += 1
            builds += 1
        samples.append(spent / count)
    return samples, service


def _status_kib(pid, field: str) -> int:
    """One ``/proc/<pid>/status``-style field, in KiB."""
    path = f"/proc/{pid}/smaps_rollup" if field.startswith("Private") else f"/proc/{pid}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise ValueError(f"no {field} for pid {pid}")


def peak_rss_mb(service) -> float:
    """Peak RSS of this process plus the private memory of its workers.

    This process counts with its high-water mark (``VmHWM``), which
    includes compilation peaks.  A forked worker's RSS also counts the
    pages it shares copy-on-write with this process, so a worker counts
    with its private (unshared) resident memory after the traffic —
    its arena and plans, which stay allocated for its lifetime.
    """
    try:
        total = _status_kib("self", "VmHWM")
        for shard in service.health().shards:
            if shard.worker_pid is not None and shard.worker_alive:
                total += _status_kib(shard.worker_pid, "Private_Dirty")
                total += _status_kib(shard.worker_pid, "Private_Clean")
    except (OSError, ValueError):  # no /proc: this process's peak only (KiB on Linux)
        total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total / 1024.0


def max_abs_diff(served: np.ndarray, expected: np.ndarray) -> float:
    """``max |served - expected|``; shape mismatch or NaN counts as infinite."""
    served = np.asarray(served, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if served.shape != expected.shape:
        return float("inf")
    diff = np.abs(served - expected)
    if not np.isfinite(diff).all():
        return float("inf")
    return float(diff.max()) if diff.size else 0.0


def check_stream_answers(
    fixture: Fixture, settings: Dict, samples: Sequence[Tuple[int, np.ndarray]]
) -> List[float]:
    """Replay the ingested steps into the reference; compare sampled answers.

    ``samples`` holds ``(steps_ingested, answer)`` pairs of
    ``forecast_latest`` queries.  Returns one ``max |diff|`` per sample.
    """
    reference = build_service(fixture, settings, runtime="autograd")
    diffs: List[float] = []
    ingested = 0
    try:
        for steps, answer in sorted(samples, key=lambda pair: pair[0]):
            while ingested < steps:
                reference.ingest(fixture.stream_step(ingested))
                ingested += 1
            diffs.append(max_abs_diff(answer, reference.forecast_latest()))
    finally:
        reference.close()
    return diffs


def check_bulk_answers(
    fixture: Fixture, settings: Dict, samples: Sequence[Tuple[Sequence[int], np.ndarray]]
) -> List[float]:
    """Recompute sampled ``forecast_many`` calls with the reference."""
    reference = build_service(fixture, settings, runtime="autograd")
    diffs: List[float] = []
    try:
        for indices, answer in samples:
            windows = np.stack([fixture.bulk_window(index) for index in indices])
            diffs.append(max_abs_diff(answer, reference.forecast_many(windows)))
    finally:
        reference.close()
    return diffs
