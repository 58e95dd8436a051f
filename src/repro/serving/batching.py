"""Micro-batching request queue and the background linger flusher.

A production forecast endpoint receives many concurrent *single-window*
queries.  Running the model once per request wastes most of the time in
per-call overhead: every forward pass through the NumPy substrate pays a
fixed cost in Python-level op dispatch that is independent of the batch
size, while the matmuls themselves vectorise almost for free along the
batch dimension.  The :class:`MicroBatcher` therefore coalesces pending
requests into one ``(B, T, N, F)`` forward pass under ``no_grad`` and
distributes the per-sample slices back to the callers — the standard
dynamic-batching pattern of inference servers.

The batcher is deliberately ignorant of batch *shapes* beyond equality
checks: whatever ragged coalesced size a flush produces is handed to the
forward callable unchanged, and the compiled runtime's batch bucketing
(see ``docs/runtime.md``) pads it to a power-of-two plan internally.

Usage::

    batcher = MicroBatcher(model, max_batch_size=64)
    pending = [batcher.submit(w) for w in windows]   # enqueue, no compute
    batcher.flush()                                  # one batched forward
    results = [p.result() for p in pending]

``PendingForecast.result()`` flushes lazily when needed, so callers that
do not control the flush cadence still always get an answer.

Two pieces turn this synchronous queue into an asynchronous ingestion
loop (see ``docs/serving_quickstart.md``):

* :class:`BackgroundFlusher` — a daemon thread that drains batchers on a
  time-based linger: a request that has waited ``linger_ms`` is flushed
  even when the ``auto_flush_at`` threshold was never reached, so trickle
  traffic stops waiting for the next submit (or for its caller to block
  in ``result()``);
* :class:`AsyncForecast` — a handle pairing one :class:`PendingForecast`
  with a finalisation hook (denormalisation, cache insertion).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor, no_grad
from .resilience import Deadline, DeadlineExceeded, ResilienceError

__all__ = [
    "PendingForecast",
    "AsyncForecast",
    "BatcherStats",
    "MicroBatcher",
    "FlusherStats",
    "BackgroundFlusher",
]


class PendingForecast:
    """Handle for a forecast that has been enqueued but maybe not computed.

    The micro-batcher fulfils the handle during :meth:`MicroBatcher.flush`;
    calling :meth:`result` earlier triggers a flush so the caller never
    deadlocks on its own request.  If the model raised during the batched
    forward, :meth:`result` re-raises that error for every request of the
    failed batch instead of silently dropping them.
    """

    def __init__(self, batcher: "MicroBatcher") -> None:
        self._batcher = batcher
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._done = False

    @property
    def done(self) -> bool:
        """Whether the forecast has been computed (or failed)."""
        return self._done

    @property
    def error(self) -> Optional[BaseException]:
        """The failure behind this handle, if it failed (``None`` otherwise).

        Lets degraded-mode callers (partial-result assembly, stale-serve
        fallbacks) inspect the underlying cause without triggering the
        re-raise in :meth:`result`.
        """
        return self._error

    def _fulfil(self, value: np.ndarray) -> None:
        self._value = value
        self._done = True

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True

    def result(self) -> np.ndarray:
        """The forecast ``(T', N)``; flushes the queue if still pending."""
        if not self._done:
            self._batcher.flush()
        if not self._done:  # defensive: flush must settle every pending handle
            raise RuntimeError("flush did not settle this request")
        if self._error is not None:
            if isinstance(self._error, ResilienceError):
                # Typed resilience failures (DeadlineExceeded, WorkerCrashed,
                # CircuitOpen) are the caller-facing contract — re-raise them
                # unwrapped so except clauses can match on the type.
                raise self._error
            raise RuntimeError("batched forward failed for this request") from self._error
        return self._value


class AsyncForecast:
    """One forecast: a pending batch entry plus a finalisation hook.

    ``pending`` is the :class:`PendingForecast` handle of the window's
    batch-queue entry.  ``finalize`` maps the settled model output to the
    caller-facing forecast (denormalisation, horizon truncation, cache
    insertion).  :meth:`result` drives the same lazy-flush semantics as
    :class:`PendingForecast`, so a handle is always answerable even when
    no background flusher is running.
    """

    def __init__(
        self,
        pending: Optional[PendingForecast],
        finalize: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        self._pending = pending
        self._finalize = finalize
        self._value: Optional[np.ndarray] = None
        self._settled = False

    @classmethod
    def completed(cls, value: np.ndarray) -> "AsyncForecast":
        """A handle that is already settled (e.g. answered from the cache)."""
        handle = cls(None, lambda output: value)
        handle._value = value
        handle._settled = True
        return handle

    @property
    def done(self) -> bool:
        """Whether the forecast has been computed (or failed)."""
        return self._settled or self._pending.done

    def result(self) -> np.ndarray:
        """The raw-scale forecast; triggers a lazy flush if still pending.

        Re-raises the underlying forward error if the batch failed.
        """
        if not self._settled:
            self._value = self._finalize(self._pending.result())
            self._settled = True
        return self._value


@dataclass
class BatcherStats:
    """Running counters of how well requests were amortised into batches.

    Scalars only (no per-flush history), so the stats stay O(1) in memory
    over the lifetime of a long-running service.
    """

    requests: int = 0
    flushes: int = 0
    coalesced: int = 0
    largest_batch: int = 0
    #: Chunk forwards that raised; their requests are counted in
    #: ``failed_requests`` and never in ``coalesced``.
    failed_flushes: int = 0
    failed_requests: int = 0
    #: Requests whose deadline expired while queued; failed typed with
    #: :class:`~repro.serving.DeadlineExceeded` before any compute, and
    #: never counted in ``coalesced`` or ``failed_requests``.
    expired_requests: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests amortised per successful forward pass."""
        return self.coalesced / self.flushes if self.flushes else 0.0

    def _record_flush(self, batch_size: int) -> None:
        self.flushes += 1
        self.coalesced += batch_size
        self.largest_batch = max(self.largest_batch, batch_size)

    def _record_failure(self, batch_size: int) -> None:
        self.failed_flushes += 1
        self.failed_requests += batch_size


class MicroBatcher:
    """Coalesce concurrent single-window requests into batched forwards.

    Parameters
    ----------
    forward_fn:
        The model (or any callable) mapping a ``(B, T, N, F)`` batch to
        ``(B, T', N)`` predictions.  A :class:`~repro.nn.Module` is used
        directly; a :class:`~repro.runtime.CompiledModel` plugs in the
        graph-free kernel runtime (the serving default); outputs may be
        :class:`~repro.tensor.Tensor` or plain arrays.
    max_batch_size:
        Upper bound on the coalesced batch; larger queues are drained in
        several chunks (bounds peak memory).
    auto_flush_at:
        When set, :meth:`submit` triggers a flush as soon as this many
        requests are pending — callers then never have to flush manually.

    All entry points are thread-safe; the forward pass itself runs outside
    the queue lock so new requests can keep arriving while a batch computes.

    ``submit_listener`` (an attribute, set by :class:`BackgroundFlusher`)
    is invoked after every enqueue, outside all locks — the hook a linger
    flusher uses to re-arm its timer when the queue goes non-empty.
    """

    def __init__(
        self,
        forward_fn: Callable[[Tensor], object],
        max_batch_size: int = 128,
        auto_flush_at: Optional[int] = None,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if auto_flush_at is not None and auto_flush_at <= 0:
            raise ValueError("auto_flush_at must be positive when set")
        self.forward_fn = forward_fn
        self.max_batch_size = max_batch_size
        self.auto_flush_at = auto_flush_at
        self.submit_listener: Optional[Callable[[], None]] = None
        self._queue: List[Tuple[np.ndarray, PendingForecast, float, Optional[Deadline]]] = []
        self._queue_lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.stats = BatcherStats()

    @property
    def pending(self) -> int:
        """Number of enqueued, not yet computed requests."""
        with self._queue_lock:
            return len(self._queue)

    def oldest_pending_at(self) -> Optional[float]:
        """``time.monotonic()`` timestamp of the oldest queued request.

        ``None`` when the queue is empty.  A linger flusher drains the
        queue once ``time.monotonic() - oldest_pending_at()`` exceeds its
        linger window.
        """
        with self._queue_lock:
            return self._queue[0][2] if self._queue else None

    def oldest_pending_age(self) -> Optional[float]:
        """Seconds the oldest queued request has waited (``None`` if empty)."""
        oldest = self.oldest_pending_at()
        return None if oldest is None else max(0.0, time.monotonic() - oldest)

    def submit(self, window: np.ndarray,
               deadline: Optional[Deadline] = None) -> PendingForecast:
        """Enqueue one observation window ``(T, N, F)`` for forecasting.

        ``deadline`` rides with the queue entry: if the budget expires
        before the entry reaches a forward pass, the next flush fails its
        handle with a typed :class:`~repro.serving.DeadlineExceeded`
        instead of spending compute on an answer nobody is waiting for.
        """
        window = np.asarray(window, dtype=float)
        if window.ndim != 3:
            raise ValueError(f"window must have shape (T, N, F); got {window.shape}")
        handle = PendingForecast(self)
        with self._queue_lock:
            if self._queue and self._queue[0][0].shape != window.shape:
                raise ValueError(
                    f"window shape {window.shape} differs from the pending batch "
                    f"shape {self._queue[0][0].shape}"
                )
            was_empty = not self._queue
            self._queue.append((window, handle, time.monotonic(), deadline))
            should_flush = self.auto_flush_at is not None and len(self._queue) >= self.auto_flush_at
        with self._stats_lock:
            self.stats.requests += 1
        # Only the first request of a batch establishes a new earliest
        # linger deadline, so only the empty->non-empty transition needs to
        # wake a watching flusher — later submits would wake it for nothing.
        listener = self.submit_listener
        if was_empty and listener is not None:
            listener()
        if should_flush:
            self.flush()
        return handle

    def flush(self) -> int:
        """Drain the queue with batched forwards; returns requests fulfilled.

        If the model raises on a chunk, every handle of that chunk is failed
        with the error (so waiting callers see the real cause from
        :meth:`PendingForecast.result`), the failure is recorded in
        :attr:`stats` (``failed_flushes`` / ``failed_requests``) and the
        exception propagates with the number of requests fulfilled by the
        earlier, successful chunks attached as ``fulfilled_before_error`` —
        partial progress is never silently discarded.  Requests in later
        chunks stay queued for the next flush.
        """
        fulfilled = 0
        with self._flush_lock:
            while True:
                with self._queue_lock:
                    # Sweep expired entries first so a stale request never
                    # occupies a slot in the batch about to compute.
                    expired = [
                        entry for entry in self._queue
                        if entry[3] is not None and entry[3].expired
                    ]
                    if expired:
                        self._queue = [
                            entry for entry in self._queue
                            if entry[3] is None or not entry[3].expired
                        ]
                    chunk = self._queue[: self.max_batch_size]
                    del self._queue[: len(chunk)]
                for _, handle, _, entry_deadline in expired:
                    handle._fail(
                        DeadlineExceeded(
                            entry_deadline.budget_ms,
                            entry_deadline.elapsed_ms(),
                            "batch-queue",
                        )
                    )
                if expired:
                    with self._stats_lock:
                        self.stats.expired_requests += len(expired)
                if not chunk:
                    return fulfilled
                try:
                    windows = np.stack([window for window, _, _, _ in chunk], axis=0)
                    with no_grad():
                        outputs = self.forward_fn(Tensor(windows))
                    predictions = outputs.data if isinstance(outputs, Tensor) else np.asarray(outputs)
                    if predictions.shape[0] != len(chunk):
                        raise RuntimeError(
                            f"forward returned {predictions.shape[0]} predictions for a "
                            f"batch of {len(chunk)}"
                        )
                except BaseException as error:
                    for _, handle, _, _ in chunk:
                        handle._fail(error)
                    with self._stats_lock:
                        self.stats._record_failure(len(chunk))
                    try:
                        error.fulfilled_before_error = fulfilled
                    except (AttributeError, TypeError):  # exceptions with __slots__
                        pass
                    raise
                for index, (_, handle, _, _) in enumerate(chunk):
                    handle._fulfil(predictions[index].copy())
                with self._stats_lock:
                    self.stats._record_flush(len(chunk))
                fulfilled += len(chunk)

    def forecast_batch(self, windows: np.ndarray) -> np.ndarray:
        """Convenience path: forecast an already-assembled ``(B, T, N, F)`` batch.

        Bypasses the queue but shares the batching statistics, so benchmark
        comparisons see both paths.
        """
        windows = np.asarray(windows, dtype=float)
        if windows.ndim != 4:
            raise ValueError(f"batch must have shape (B, T, N, F); got {windows.shape}")
        with no_grad():
            outputs = self.forward_fn(Tensor(windows))
        predictions = outputs.data if isinstance(outputs, Tensor) else np.asarray(outputs)
        with self._stats_lock:
            self.stats.requests += windows.shape[0]
            self.stats._record_flush(windows.shape[0])
        return predictions


@dataclass(frozen=True)
class FlusherStats:
    """Counters of a background flusher's timed drains."""

    timed_flushes: int
    errors: int
    linger_ms: float


class BackgroundFlusher:
    """Daemon thread draining micro-batchers on a time-based linger.

    ``auto_flush_at`` bounds how *many* requests wait; the linger bounds
    how *long* they wait.  Without it, traffic that never reaches the
    threshold sits in the queue until the next submit happens to cross it
    or a caller blocks in ``result()`` — with it, any request is flushed
    at most ``linger_ms`` after enqueue.

    Parameters
    ----------
    targets:
        The batchers to watch.  Each entry is either a
        :class:`MicroBatcher` (drained with its own :meth:`~MicroBatcher.flush`
        on the flusher thread) or a ``(batcher, flush)`` pair — a sharded
        service passes the shard worker's asynchronous flush so drains run
        on the worker thread and a slow shard cannot block the timer.
    linger_ms:
        Maximum milliseconds a request may wait before its batcher is
        drained.

    Forward errors during a timed drain never kill the thread: the failed
    chunk's handles already carry the error (see
    :meth:`MicroBatcher.flush`), the batcher's stats record the failure,
    and the flusher counts it in :attr:`stats` and keeps serving.
    :meth:`close` stops the thread and drains every batcher one final
    time, so no pending handle is left waiting on a dead timer.
    """

    def __init__(self, targets, linger_ms: float = 25.0) -> None:
        if linger_ms <= 0:
            raise ValueError("linger_ms must be positive")
        self._linger = linger_ms / 1000.0
        self.linger_ms = float(linger_ms)
        self._targets: List[Tuple[MicroBatcher, Callable[[], object]]] = []
        for target in targets:
            if isinstance(target, MicroBatcher):
                self._targets.append((target, target.flush))
            else:
                batcher, flush = target
                self._targets.append((batcher, flush))
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._stats_lock = threading.Lock()
        self._timed_flushes = 0
        self._errors = 0
        for batcher, _ in self._targets:
            batcher.submit_listener = self._wake.set
        self._thread = threading.Thread(
            target=self._loop, name="repro-linger-flusher", daemon=True
        )
        self._thread.start()

    @property
    def running(self) -> bool:
        """Whether the flusher thread is alive and serving."""
        return self._thread.is_alive()

    def retarget(self, targets) -> None:
        """Point the running flusher at a new set of batchers (hot swap).

        The loop reads the target list afresh on every pass, so replacing
        the reference is safe without stopping the thread.  Old batchers
        stop being watched — the swap path drains them once at retirement,
        and their handles stay lazily flushable — and the new batchers'
        submit listeners are wired so the first enqueue wakes the timer.
        """
        resolved: List[Tuple[MicroBatcher, Callable[[], object]]] = []
        for target in targets:
            if isinstance(target, MicroBatcher):
                resolved.append((target, target.flush))
            else:
                batcher, flush = target
                resolved.append((batcher, flush))
        old = self._targets
        for batcher, _ in resolved:
            batcher.submit_listener = self._wake.set
        self._targets = resolved
        retargeted = {id(batcher) for batcher, _ in resolved}
        for batcher, _ in old:
            if id(batcher) not in retargeted:
                batcher.submit_listener = None
        self._wake.set()

    def stats(self) -> FlusherStats:
        """Snapshot of the timed-drain counters."""
        with self._stats_lock:
            return FlusherStats(
                timed_flushes=self._timed_flushes,
                errors=self._errors,
                linger_ms=self.linger_ms,
            )

    # ------------------------------------------------------------------
    def _next_timeout(self, now: float) -> Optional[float]:
        """Seconds until the earliest linger deadline (None: no pending)."""
        deadline: Optional[float] = None
        for batcher, _ in self._targets:
            oldest = batcher.oldest_pending_at()
            if oldest is None:
                continue
            due = oldest + self._linger
            if deadline is None or due < deadline:
                deadline = due
        if deadline is None:
            return None
        return max(deadline - now, 0.0)

    def _drain_due(self, now: float) -> None:
        # First pass schedules every due drain (asynchronous flush targets
        # start concurrently on their worker threads), second pass waits for
        # them — without the wait, a still-queued drain would leave
        # oldest_pending_at() in the past and spin this loop at timeout 0.
        scheduled = []
        for batcher, flush in self._targets:
            oldest = batcher.oldest_pending_at()
            if oldest is None or now - oldest < self._linger:
                continue
            try:
                result = flush()
            except BaseException:
                # The handles of the failed chunk already carry the error.
                result = None
                with self._stats_lock:
                    self._errors += 1
            with self._stats_lock:
                self._timed_flushes += 1
            if result is not None and hasattr(result, "wait"):
                scheduled.append(result)
        for job in scheduled:
            if job.wait() is not None:
                with self._stats_lock:
                    self._errors += 1

    def _loop(self) -> None:
        while not self._stop.is_set():
            timeout = self._next_timeout(time.monotonic())
            self._wake.wait(timeout)
            if self._stop.is_set():
                return
            self._wake.clear()
            self._drain_due(time.monotonic())

    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop the flusher; optionally drain every batcher one last time.

        Idempotent.  The final drain runs synchronously on the calling
        thread (the workers behind asynchronous flush targets may be
        stopping too), so after ``close()`` no handle is pending.
        """
        already_stopped = self._stop.is_set()
        self._stop.set()
        self._wake.set()
        if self._thread.is_alive():
            try:
                self._thread.join()
            except RuntimeError:  # pragma: no cover - interpreter teardown
                # join() raises after Python shutdown has begun; the daemon
                # thread is being torn down anyway, so a late close() (e.g.
                # from __del__ or an atexit-closed process tier) must not
                # turn cleanup into a crash.
                pass
        if already_stopped or not drain:
            return
        for batcher, _ in self._targets:
            batcher.submit_listener = None
            try:
                batcher.flush()
            except BaseException:
                with self._stats_lock:
                    self._errors += 1

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        # Last-resort stop (no drain: the forward engines behind the
        # batchers may already be gone).  Explicit close() remains the
        # contract; this only keeps an abandoned flusher from outliving
        # its service as a busy-waiting daemon.
        try:
            self.close(drain=False)
        except Exception:
            pass
