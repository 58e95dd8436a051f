"""The forecast-serving front end.

:class:`ForecastService` is the piece a production deployment talks to.  It
owns a trained :class:`~repro.core.DyHSL` (loaded from a self-describing
checkpoint or passed in), the fitted training scaler, a rolling observation
buffer for streaming ingestion, a micro-batching queue and an LRU forecast
cache, and exposes raw-scale queries:

* :meth:`forecast` — one raw window in, one ``(T', N)`` forecast out;
* :meth:`forecast_many` — a batch of windows, answered with cache lookups
  plus a single coalesced forward for the misses;
* :meth:`submit` — the asynchronous path: enqueue a window, keep going,
  collect the :class:`~repro.serving.AsyncForecast` handle later.  With
  ``auto_flush_at`` set, batches fire on a size threshold; with
  ``linger_ms`` set, a background flusher guarantees no request waits
  longer than the linger even when the threshold is never reached;
* :meth:`ingest` / :meth:`forecast_latest` — streaming operation: push
  detector readings as they arrive, forecast from the rolling buffer.

Forwards run through the **graph-free compiled runtime**
(:mod:`repro.runtime`) by default: the model's forward pass is compiled
once per batch shape into a flat kernel plan — elementwise chains fused
into blocked single-buffer sweeps — replayed on raw arrays with reused
workspace buffers.  The service itself passes whatever batch the cache
misses produce straight through: ragged sizes are padded to power-of-two
buckets (and sliced back) inside the runtime, so the plan cache stays
O(log max_batch) under bursty traffic (``REPRO_RUNTIME_BUCKETS`` caps or
disables this).  The escape hatch back to autograd forwards is the
``runtime="autograd"`` argument or ``REPRO_RUNTIME=autograd`` in the
environment (see ``docs/runtime.md``).

Warm start: :meth:`save_buffer_state` persists the rolling buffer next to
a checkpoint and :meth:`from_checkpoint`'s ``buffer_state=`` (or
:meth:`restore_buffer_state`) reloads it, so a restarted service serves
from its first ingest instead of waiting out a ``T``-step cold window.

The shared plumbing (normalisation, cache keys, the rolling buffer,
checkpoint loading) lives in :class:`ForecastFrontend`, the base class of
both this single-worker service and the multi-worker
:class:`~repro.serving.ShardedForecastService`.

All inputs and outputs are on the *original* flow scale (vehicles per five
minutes); normalisation is an internal concern.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from ..nn import Module
from ..runtime import (
    ArtifactStore,
    CompiledModel,
    resolve_precision,
    resolve_runtime_mode,
)
from ..tensor import Tensor, no_grad
from .batching import (
    AsyncForecast,
    BackgroundFlusher,
    BatcherStats,
    FlusherStats,
    MicroBatcher,
    PendingForecast,
)
from .buffer import RollingWindowBuffer
from .cache import CacheStats, ForecastCache, StaleForecast
from .quality import QualityConfig, QualityStats, SensorHealthMonitor
from .resilience import (
    Deadline,
    DeadlineExceeded,
    ResilienceConfig,
    ResilienceError,
    ResilientForward,
    ServiceHealth,
    ShardHealth,
)

__all__ = ["ServiceStats", "SwapReport", "ForecastFrontend", "ForecastService"]


def _weights_fingerprint(model: Module) -> str:
    """Short content hash of the model weights, used as the model version."""
    digest = hashlib.sha1()
    for name, value in sorted(model.state_dict().items()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()[:12]


@dataclass(frozen=True)
class ServiceStats:
    """Operational counters of a running service."""

    model_version: str
    requests: int
    cache: CacheStats
    batcher: BatcherStats
    runtime: str = "compiled"
    flusher: Optional[FlusherStats] = None
    #: Default execution precision policy of the forward engine.
    precision: str = "float64"
    #: Detector-health and imputation counters (None without a monitor).
    quality: Optional[QualityStats] = None
    #: Completed hot checkpoint swaps over the service's lifetime.
    swaps: int = 0


@dataclass(frozen=True)
class SwapReport:
    """What one :meth:`ForecastFrontend.swap_checkpoint` call did."""

    old_version: str
    new_version: str
    #: Whether the new checkpoint's scaler differed (and the streaming ring
    #: was re-normalised under the buffer lock).
    scaler_changed: bool
    #: Plan artifacts copied from the checkpoint's AOT sidecar into the
    #: deployment store before the engines were built.
    artifacts_adopted: int
    #: Plans bound from existing artifacts while warming the new engines.
    plans_reused: int
    #: Plans traced from scratch while warming the new engines.
    plans_compiled: int
    #: Wall-clock duration of the swap (load -> publish), milliseconds.
    swap_ms: float


class _Generation:
    """One immutable serving generation: weights, scaler, version, engines.

    The swap path builds a complete new generation off to the side (plans
    warmed, batchers constructed) and publishes it with a single reference
    assignment; every query captures ``self._gen`` once at entry, so a
    request runs start to finish against exactly one generation — never a
    torn old-model/new-scaler mix.
    """

    __slots__ = ("model", "scaler", "model_version", "engine")

    def __init__(self, model, scaler, model_version, engine=None) -> None:
        self.model = model
        self.scaler = scaler
        self.model_version = model_version
        self.engine = engine


class _ServiceEngine:
    """The single-worker generation payload: one forward, one batcher."""

    __slots__ = ("forward", "batcher")

    def __init__(self, forward, batcher) -> None:
        self.forward = forward
        self.batcher = batcher


def _merge_batcher_stats(parts: List[BatcherStats]) -> BatcherStats:
    """Sum batcher counters across generations (stats survive a hot swap)."""
    merged = BatcherStats()
    for part in parts:
        merged.requests += part.requests
        merged.flushes += part.flushes
        merged.coalesced += part.coalesced
        merged.largest_batch = max(merged.largest_batch, part.largest_batch)
        merged.failed_flushes += part.failed_flushes
        merged.failed_requests += part.failed_requests
        merged.expired_requests += part.expired_requests
    return merged


class ForecastFrontend:
    """Shared serving plumbing: scaling, caching, streaming, checkpoints.

    Holds everything a forecast front end needs *around* the model
    forwards — the fitted scaler, the weights-fingerprint model version,
    the LRU cache and the rolling streaming buffer — so the single-worker
    :class:`ForecastService` and the multi-worker
    :class:`~repro.serving.ShardedForecastService` only differ in how a
    batch of cache misses is computed.
    """

    def __init__(
        self,
        model: Module,
        scaler: Optional[object] = None,
        model_version: Optional[str] = None,
        cache_entries: int = 1024,
        runtime: Optional[str] = None,
        precision: Optional[str] = None,
        artifact_dir: Optional[Union[str, Path, ArtifactStore]] = None,
        quality: Union[None, bool, QualityConfig, SensorHealthMonitor] = None,
        quality_adjacency: Optional[np.ndarray] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        config = getattr(model, "config", None)
        if config is None:
            raise ValueError("model must expose a config attribute")
        model.eval()
        self.config = config
        # Failure policy for every serving path: deadlines, bounded retries,
        # optional circuit breakers, stale-serve.  The default config retries
        # retryable failures only and enables no breakers — see
        # docs/serving_quickstart.md §"Resilience & degraded modes".
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self._stale_served = 0
        # Expiries on direct (non-queued) paths; the batch queue's sweep
        # counts its own in BatcherStats.expired_requests.
        self._expired_direct = 0
        self._gen = _Generation(model, scaler, model_version or _weights_fingerprint(model))
        self._swap_lock = threading.Lock()
        self._swaps = 0
        self.runtime = resolve_runtime_mode(runtime)
        self.precision = resolve_precision(precision).name
        # One store instance for the whole deployment: resolved here so the
        # sharded service hands the SAME object to every worker — N shards
        # then share one on-disk directory *and* one in-process memo, i.e.
        # each trace is compiled once per fleet, not once per worker.
        # (Ignored under the autograd runtime, which compiles nothing.)
        self.artifact_store: Optional[ArtifactStore] = (
            artifact_dir
            if artifact_dir is None or isinstance(artifact_dir, ArtifactStore)
            else ArtifactStore(artifact_dir)
        )
        if self.runtime != "compiled" and self.precision != "float64":
            raise ValueError(
                "reduced-precision serving requires the compiled runtime; "
                f"runtime={self.runtime!r} executes float64 autograd forwards"
            )
        self.cache: Optional[ForecastCache] = (
            ForecastCache(max_entries=cache_entries) if cache_entries > 0 else None
        )
        # Streaming quality control: `quality=` accepts a ready monitor, a
        # QualityConfig, or True (default thresholds); the monitor sits in
        # front of the rolling buffer's ring, classifying and imputing every
        # ingested step (see repro.serving.quality).
        self.quality = self._resolve_quality(quality, quality_adjacency)
        # The streaming ring stores windows at the service's serving
        # precision.  On the single-worker direct path (_predict hands the
        # raw array to the compiled plan) a float32 snapshot enters the
        # float32 plan without an upcast-downcast round trip; batcher-routed
        # paths (the sharded streaming fan-out) still coalesce through a
        # float64 Tensor and pay the plan's entry cast — correct either way,
        # the ring dtype only removes casts where the array flows directly.
        self.buffer = RollingWindowBuffer(
            input_length=config.input_length,
            num_nodes=config.num_nodes,
            num_features=config.input_dim,
            scaler=scaler,
            dtype=np.float32 if self.precision == "float32" else float,
            quality=self.quality,
        )
        self._requests = 0
        self._requests_lock = threading.Lock()

    def _resolve_quality(
        self,
        quality: Union[None, bool, QualityConfig, SensorHealthMonitor],
        adjacency: Optional[np.ndarray],
    ) -> Optional[SensorHealthMonitor]:
        if quality is None or quality is False:
            return None
        if isinstance(quality, SensorHealthMonitor):
            return quality
        config = quality if isinstance(quality, QualityConfig) else QualityConfig()
        return SensorHealthMonitor(
            self.config.num_nodes,
            num_features=self.config.input_dim,
            config=config,
            adjacency=adjacency,
        )

    # ------------------------------------------------------------------
    # The live serving generation.  model / scaler / model_version read
    # through self._gen so a hot swap atomically retargets every consumer.
    # ------------------------------------------------------------------
    @property
    def model(self) -> Module:
        """The currently served model (changes on hot swap)."""
        return self._gen.model

    @property
    def scaler(self) -> Optional[object]:
        """The currently served scaler (changes on hot swap)."""
        return self._gen.scaler

    @property
    def model_version(self) -> str:
        """Version of the currently served weights (cache namespace)."""
        return self._gen.model_version

    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        path: Union[str, Path],
        buffer_state: Optional[Union[str, Path]] = None,
        **kwargs,
    ):
        """Build a service from a :func:`~repro.training.save_model_checkpoint` file.

        ``buffer_state`` optionally points at a
        :meth:`save_buffer_state` sidecar; when given, the rolling buffer is
        restored so streaming queries work immediately (warm start).
        Remaining keyword arguments go to the service constructor, so
        sharded deployments load the same checkpoints:
        ``ShardedForecastService.from_checkpoint(path, num_shards=4)``.
        """
        from ..training.checkpoints import load_model_checkpoint

        loaded = load_model_checkpoint(path)
        version = kwargs.pop("model_version", None)
        if version is None:
            version = loaded.metadata.get("model_version")
        if kwargs.get("quality") and kwargs.get("quality_adjacency") is None:
            # The neighbor-average imputation strategy averages over the
            # prior graph; the checkpoint carries exactly that adjacency.
            kwargs["quality_adjacency"] = loaded.adjacency
        service = cls(loaded.model, scaler=loaded.scaler, model_version=version, **kwargs)
        if buffer_state is not None:
            service.restore_buffer_state(buffer_state)
        return service

    # ------------------------------------------------------------------
    @property
    def horizon(self) -> int:
        """Forecast horizon ``T'`` of the served model."""
        return self.config.output_length

    def _normalise_window(
        self, window: np.ndarray, gen: Optional[_Generation] = None
    ) -> np.ndarray:
        scaler = (gen or self._gen).scaler
        window = np.asarray(window, dtype=float)
        if window.ndim == 2 and self.config.input_dim == 1:
            window = window[:, :, None]
        expected = (self.config.input_length, self.config.num_nodes, self.config.input_dim)
        if window.shape != expected:
            raise ValueError(f"window shape {window.shape} does not match model input {expected}")
        if scaler is not None:
            window = window.copy()
            window[..., 0] = scaler.transform(window[..., 0])
        return window

    def _normalise_batch(
        self, windows: np.ndarray, gen: Optional[_Generation] = None
    ) -> List[np.ndarray]:
        """Validate a raw ``(B, T, N, F)`` batch into normalised windows."""
        windows = np.asarray(windows, dtype=float)
        if windows.ndim == 3 and self.config.input_dim == 1:
            windows = windows[..., None]
        if windows.ndim != 4:
            raise ValueError(f"windows must have shape (B, T, N, F); got {windows.shape}")
        return [self._normalise_window(window, gen=gen) for window in windows]

    def _denormalise(
        self, predictions: np.ndarray, gen: Optional[_Generation] = None
    ) -> np.ndarray:
        scaler = (gen or self._gen).scaler
        if scaler is not None:
            return scaler.inverse_transform(predictions)
        return predictions

    def _check_horizon(self, horizon: Optional[int]) -> int:
        if horizon is None:
            return self.config.output_length
        if not 1 <= horizon <= self.config.output_length:
            raise ValueError(
                f"horizon must be in [1, {self.config.output_length}]; got {horizon}"
            )
        return int(horizon)

    def _empty_forecasts(self, horizon: int) -> np.ndarray:
        """The well-formed answer to an empty query batch."""
        return np.empty((0, horizon, self.config.num_nodes))

    # ------------------------------------------------------------------
    # Precision-policy plumbing.  The service-wide default is fixed at
    # construction; synchronous queries may override it per request — the
    # float64 SLA path of a float32 deployment (or an opportunistic
    # float32 answer from a float64 one).
    # ------------------------------------------------------------------
    def _resolve_request_precision(self, precision: Optional[str]) -> Optional[str]:
        """Normalise a per-request override; ``None`` means the default path.

        Overrides that merely restate the service default collapse to the
        default path (micro-batched, default cache namespace).  A genuine
        override requires the compiled runtime — autograd forwards are
        float64 by construction.
        """
        if precision is None:
            return None
        name = resolve_precision(precision).name
        if name == self.precision:
            return None
        if self.runtime != "compiled":
            raise ValueError(
                "per-request precision overrides require the compiled runtime"
            )
        return name

    def _key_version(
        self, precision: Optional[str] = None, gen: Optional[_Generation] = None
    ) -> str:
        """Cache namespace for one precision policy.

        Float32 and float64 answers to the same window differ, so they may
        never alias one cache entry; the float64 namespace stays the bare
        model version for cache continuity with earlier deployments.  The
        version comes from the request's captured generation, so a swap
        invalidates every stream/window key in one assignment.
        """
        version = (gen or self._gen).model_version
        name = precision or self.precision
        return version if name == "float64" else f"{version}:{name}"

    def _count_requests(self, count: int = 1) -> None:
        """Bump the request counter (locked: query paths race by design)."""
        with self._requests_lock:
            self._requests += count

    def _count_stale(self, count: int = 1) -> None:
        with self._requests_lock:
            self._stale_served += count

    def _check_deadline(self, deadline: Optional[Deadline], stage: str) -> None:
        """Deadline probe that keeps :meth:`health` honest.

        Direct-path expiries (predict, precision chunks — anything outside
        the batch queue, whose sweep already counts its own) land in the
        ``expired_requests`` health counter before the typed raise.
        """
        if deadline is None:
            return
        try:
            deadline.check(stage)
        except DeadlineExceeded:
            with self._requests_lock:
                self._expired_direct += 1
            raise

    def _entry_deadline(self, deadline_ms: Optional[float]) -> Optional[Deadline]:
        """Capture a request's time budget at entry.

        An explicit ``deadline_ms`` wins; otherwise the service-wide
        ``ResilienceConfig.default_deadline_ms`` applies; ``None`` for both
        means no budget (the historical behaviour).
        """
        if deadline_ms is None:
            deadline_ms = self.resilience.default_deadline_ms
        return Deadline.after(deadline_ms)

    def _serve_stale_instead(self, key, error: BaseException) -> Optional[StaleForecast]:
        """Degraded-mode fallback: a marked-stale cache entry for ``key``.

        Only consulted when ``ResilienceConfig(serve_stale=True)`` and only
        for typed resilience failures — a deterministic error (bad shape,
        unknown horizon) must surface, not be papered over with old data.
        """
        if not self.resilience.serve_stale or self.cache is None or key is None:
            return None
        if not isinstance(error, ResilienceError):
            return None
        stale = self.cache.get_stale(key)
        if stale is not None:
            self._count_stale()
        return stale

    # ------------------------------------------------------------------
    def _warm_up_sizes(self, batch_sizes, cap: int) -> List[int]:
        """Resolve a warm-up ladder: explicit sizes, or doubling up to ``cap``."""
        if batch_sizes is not None:
            sizes = sorted({int(size) for size in batch_sizes})
            if not sizes or sizes[0] <= 0:
                raise ValueError("warm_up batch sizes must be positive")
            return sizes
        sizes: List[int] = []
        size = 1
        while size < cap:
            sizes.append(size)
            size *= 2
        sizes.append(cap)
        return sizes

    def _example_batch(self, size: int) -> np.ndarray:
        """A zero batch of ``size`` windows shaped for the served model."""
        return np.zeros(
            (size, self.config.input_length, self.config.num_nodes, self.config.input_dim)
        )

    # ------------------------------------------------------------------
    # Shared query skeleton.  The cache front, miss deduplication and
    # finalisation (denormalise -> horizon -> cache insert) are identical
    # for every frontend; subclasses provide only the compute:
    # _compute_misses (synchronous) and _submit (asynchronous).
    # ------------------------------------------------------------------
    def _compute_misses(
        self,
        windows: List[np.ndarray],
        precision: Optional[str] = None,
        gen: Optional[_Generation] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[np.ndarray]:
        """Run the model for deduplicated misses (normalised in and out).

        ``precision`` is a resolved per-request override (never the
        default): such requests bypass the micro-batch queues — mixing
        precisions in one coalesced forward would serve some requests at
        the wrong policy — and compute on the calling thread.  ``gen`` is
        the generation captured at request entry; the compute must run on
        that generation's engines even if a swap lands mid-request.
        ``deadline`` is the budget captured at entry; expired requests fail
        typed before compute.
        """
        raise NotImplementedError

    def _submit(
        self, window: np.ndarray, gen: Optional[_Generation] = None,
        deadline: Optional[Deadline] = None,
    ) -> "PendingForecast":
        """Enqueue one normalised window; returns its pending entry."""
        raise NotImplementedError

    def _admit(self, lane: str, rows: int) -> None:
        """Admission-control hook, called at accept time for cache misses.

        The base frontend admits everything; the sharded service overrides
        this with bounded per-lane gates that raise
        :class:`~repro.serving.ServiceOverloaded` — always *before* the
        request touches a queue, so accepted work is never shed later.
        """

    def _finalize(self, key, horizon: int, gen: Optional[_Generation] = None):
        """Build the denormalise -> cache hook for one query."""
        gen = gen or self._gen

        def finalize(output: np.ndarray) -> np.ndarray:
            forecast = self._denormalise(output, gen=gen)[:horizon]
            if self.cache is not None and key is not None:
                self.cache.put(key, forecast)
            return forecast.copy()

        return finalize

    def _serve_normalised_batch(
        self,
        normalised: List[np.ndarray],
        horizon: int,
        precision: Optional[str] = None,
        gen: Optional[_Generation] = None,
        deadline: Optional[Deadline] = None,
    ) -> np.ndarray:
        """Serve normalised windows: cache hits, deduplicated misses, stack.

        ``precision`` is a resolved per-request override; it namespaces the
        cache keys (a float32 answer must never satisfy a float64 query)
        and is forwarded to :meth:`_compute_misses`.  When compute fails
        with a typed resilience error and stale-serve is on, misses are
        answered from any model version's cached entry for the same window
        (the whole stacked result is then a :class:`StaleForecast`).
        """
        gen = gen or self._gen
        version = self._key_version(precision, gen=gen)
        results: List[Optional[np.ndarray]] = [None] * len(normalised)
        # Requests that miss the cache, grouped by key so identical in-flight
        # windows share one forward slot.
        miss_groups: "dict[tuple, List[int]]" = {}
        for index, window in enumerate(normalised):
            key = ForecastCache.make_key(version, window, horizon)
            if self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    results[index] = cached
                    continue
            miss_groups.setdefault(key, []).append(index)

        served_stale = False
        if miss_groups:
            groups = list(miss_groups.items())
            self._admit("bulk", len(groups))
            try:
                outputs = self._compute_misses(
                    [normalised[group[0]] for _, group in groups],
                    precision=precision,
                    gen=gen,
                    deadline=deadline,
                )
            except ResilienceError as error:
                if not (self.resilience.serve_stale and self.cache is not None):
                    raise
                stale = [self.cache.get_stale(key) for key, _ in groups]
                if any(entry is None for entry in stale):
                    # Degraded mode can only answer what some generation
                    # once computed; a window never seen fails typed.
                    raise
                self._count_stale(len(groups))
                served_stale = True
                outputs = None
                for (key, group), entry in zip(groups, stale):
                    results[group[0]] = entry
                    for index in group[1:]:
                        results[index] = entry.copy()
            if outputs is not None:
                for (key, group), output in zip(groups, outputs):
                    forecast = self._denormalise(output, gen=gen)[:horizon]
                    if self.cache is not None:
                        self.cache.put(key, forecast)
                    results[group[0]] = forecast
                    for index in group[1:]:
                        results[index] = forecast.copy()
        stacked = np.stack(results, axis=0)
        return StaleForecast(stacked) if served_stale else stacked

    def forecast_many(
        self,
        windows: np.ndarray,
        horizon: Optional[int] = None,
        precision: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Forecast a batch of raw windows with caching plus batched compute.

        Cache hits are answered directly; misses are deduplicated (identical
        in-flight windows are computed once) and computed by the concrete
        frontend — one coalesced micro-batched forward on the single-worker
        service, a routed fan-out on the sharded one.  An empty batch is
        answered with an empty ``(0, horizon, N)`` array instead of
        reaching the model.

        ``precision`` overrides the service's execution-precision policy
        for this query only — e.g. ``precision="float64"`` is the SLA path
        of a ``precision="float32"`` deployment, served bit-identically to
        an all-float64 service from its own cache namespace.

        ``deadline_ms`` caps the request's total time budget: misses still
        queued (or dispatched chunks still waiting) past the budget fail
        with a typed :class:`~repro.serving.DeadlineExceeded` instead of
        computing.
        """
        horizon = self._check_horizon(horizon)
        precision = self._resolve_request_precision(precision)
        deadline = self._entry_deadline(deadline_ms)
        # One generation per request: a hot swap mid-batch must not mix the
        # old scaler's normalisation with the new model's forward.
        gen = self._gen
        normalised = self._normalise_batch(windows, gen=gen)
        self._count_requests(len(normalised))
        if not normalised:
            return self._empty_forecasts(horizon)
        return self._serve_normalised_batch(
            normalised, horizon, precision=precision, gen=gen, deadline=deadline
        )

    def forecast_node(
        self,
        window: np.ndarray,
        node: int,
        horizon: Optional[int] = None,
        precision: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Forecast a single sensor: returns shape ``(horizon,)``.

        Every sensor's forecast depends on the whole network (the
        hypergraph and graph stages couple all sensors), so this serves
        the full-network forecast — and its cache entry — and slices.
        """
        if not 0 <= node < self.config.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.config.num_nodes})")
        return self.forecast(
            window, horizon=horizon, precision=precision, deadline_ms=deadline_ms
        )[:, node]

    def submit(self, window: np.ndarray, horizon: Optional[int] = None,
               deadline_ms: Optional[float] = None) -> AsyncForecast:
        """Enqueue one raw window; returns a handle to collect later.

        The batched forward runs when ``auto_flush_at`` requests are
        pending, when the ``linger_ms`` background flusher fires, or
        lazily on :meth:`AsyncForecast.result` — whichever happens first.
        Cache hits return an already-settled handle.  (See the concrete
        service's ``auto_flush_at`` documentation for *which thread* the
        size-threshold flush runs on.)  ``deadline_ms`` rides with the
        queued entry: if it expires before a flush reaches the entry, the
        handle fails typed with
        :class:`~repro.serving.DeadlineExceeded` instead of computing.
        """
        horizon = self._check_horizon(horizon)
        deadline = self._entry_deadline(deadline_ms)
        self._count_requests()
        gen = self._gen
        normalised = self._normalise_window(window, gen=gen)
        key = None
        if self.cache is not None:
            key = ForecastCache.make_key(self._key_version(gen=gen), normalised, horizon)
            cached = self.cache.get(key)
            if cached is not None:
                return AsyncForecast.completed(cached)
        self._admit("bulk", 1)
        pending = self._submit(normalised, gen=gen, deadline=deadline)
        return AsyncForecast(pending, self._finalize(key, horizon, gen=gen))

    # ------------------------------------------------------------------
    # Streaming operation
    # ------------------------------------------------------------------
    def ingest(self, observation: np.ndarray) -> None:
        """Push one raw observation step ``(N, F)`` into the rolling buffer."""
        self.buffer.ingest(observation)

    def save_buffer_state(self, path: Union[str, Path]) -> Path:
        """Persist the rolling buffer next to a checkpoint (warm start).

        A restarted service built with ``from_checkpoint(..., buffer_state=...)``
        (or :meth:`restore_buffer_state`) resumes streaming forecasts
        immediately instead of waiting out a ``T``-step cold window.
        """
        return self.buffer.save(path)

    def restore_buffer_state(self, path: Union[str, Path]) -> None:
        """Reload a :meth:`save_buffer_state` snapshot into the live buffer."""
        self.buffer.restore(path)

    # ------------------------------------------------------------------
    # Hot checkpoint swap (zero downtime).
    # ------------------------------------------------------------------
    def _validate_swap_config(self, config) -> None:
        """A swapped checkpoint must describe the same serving geometry."""
        for attr in ("num_nodes", "input_length", "output_length", "input_dim"):
            live, new = getattr(self.config, attr), getattr(config, attr)
            if live != new:
                raise ValueError(
                    f"cannot hot-swap a checkpoint with {attr}={new} into a "
                    f"service built for {attr}={live}; geometry changes need "
                    "a new deployment"
                )

    def _build_engine(self, model: Module, warm_sizes=None) -> Tuple[object, int, int]:
        """Build (engine, plans_reused, plans_compiled) for a new generation.

        The base frontend has no engines; concrete services construct their
        forward/batcher payload here, fully warmed, *before* publication —
        the first request on the new generation must not pay a trace.
        """
        return None, 0, 0

    def _publish_generation(self, gen: _Generation) -> None:
        """Install a fully-built generation (runs under the buffer lock)."""
        self._gen = gen

    def _retire_generation(self, old: _Generation) -> None:
        """Drain whatever the old generation still owes after publication."""

    def swap_checkpoint(self, path: Union[str, Path], warm_sizes=None) -> SwapReport:
        """Atomically install a new checkpoint into the live service.

        Zero-downtime, drain-free: the new generation (weights, scaler,
        compiled plans, batchers) is built completely off to the side, then
        published with a single reference assignment performed **under the
        streaming buffer's lock**, atomically with re-normalising the ring
        if the new checkpoint's scaler differs.  Concurrent requests each
        captured a generation at entry: in-flight work completes on the old
        weights (its micro-batchers stay flushable and its plans stay
        valid), new requests see the new weights — never a mix.

        Cache correctness is free: forecast and plan caches are keyed by
        ``model_version`` (the weights fingerprint), so old entries can
        never answer new-version queries.  When the checkpoint has an AOT
        artifact sidecar (:func:`~repro.training.save_plan_artifacts`) and
        the service was built with ``artifact_dir=``, the sidecar's plans
        are adopted into the deployment store first, making the swap a
        handful of disk binds instead of retraces — and process-tier
        workers (whose store roots are fixed at spawn) can load them too.

        ``warm_sizes`` optionally lists batch sizes to pre-plan on the new
        engines (default: just the streaming batch of 1).
        """
        from ..training.checkpoints import artifact_dir_for, load_model_checkpoint

        started = time.perf_counter()
        loaded = load_model_checkpoint(path)
        self._validate_swap_config(loaded.config)
        version = loaded.metadata.get("model_version")
        if version is None:
            version = _weights_fingerprint(loaded.model)
        with self._swap_lock:
            adopted = 0
            if self.runtime == "compiled" and self.artifact_store is not None:
                sidecar = artifact_dir_for(path)
                if sidecar.is_dir():
                    adopted = len(self.artifact_store.adopt(sidecar))
            old = self._gen
            engine, reused, compiled = self._build_engine(loaded.model, warm_sizes)
            new = _Generation(loaded.model, loaded.scaler, version, engine)
            # rescale() runs the publication callback under the buffer lock:
            # ring re-normalisation (when the scaler changed) and generation
            # publication are one atomic event for snapshot() readers.
            rescaled = self.buffer.rescale(
                loaded.scaler, commit=lambda: self._publish_generation(new)
            )
            self._retire_generation(old)
            self._swaps += 1
        return SwapReport(
            old_version=old.model_version,
            new_version=version,
            scaler_changed=rescaled,
            artifacts_adopted=adopted,
            plans_reused=reused,
            plans_compiled=compiled,
            swap_ms=(time.perf_counter() - started) * 1e3,
        )

    # ------------------------------------------------------------------
    # Health surface (resilience visibility).
    # ------------------------------------------------------------------
    def _health_shards(self) -> Tuple[ShardHealth, ...]:
        """Per-shard liveness/breaker rows; concrete services override."""
        return ()

    def _health_lane_depths(self) -> dict:
        return {}

    def _health_counters(self) -> Tuple[int, int]:
        """(expired_requests, retries) for the health snapshot."""
        return 0, 0

    def health(self) -> ServiceHealth:
        """Resilience snapshot: breaker states, worker liveness, lane depths.

        ``healthy`` is the operator's one-bit summary: no breaker is open
        and no spawned worker is known dead.  The per-shard rows carry the
        detail (heartbeat ages, respawn/hang counters, breaker snapshots).
        """
        shards = self._health_shards()
        expired, retries = self._health_counters()
        healthy = True
        for shard in shards:
            if shard.breaker is not None and shard.breaker.state == "open":
                healthy = False
            if shard.worker_alive is False:
                healthy = False
        with self._requests_lock:
            stale_served = self._stale_served
        return ServiceHealth(
            healthy=healthy,
            shards=shards,
            lane_depths=self._health_lane_depths(),
            stale_served=stale_served,
            expired_requests=expired,
            retries=retries,
        )

    # ------------------------------------------------------------------
    # Lifecycle: subclasses with background threads override close().
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release background resources; the base frontend has none."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class ForecastService(ForecastFrontend):
    """Serve per-node traffic forecasts from a trained model.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.DyHSL` (any module exposing a
        ``config`` with ``input_length`` / ``output_length`` / ``num_nodes``
        / ``input_dim`` works).  The service switches it to evaluation mode.
    scaler:
        The scaler fitted on the training flow; ``None`` serves on the
        normalised scale directly.
    model_version:
        Cache namespace for this deployment; defaults to a fingerprint of
        the weights so a redeploy can never serve stale cached forecasts.
    cache_entries:
        LRU capacity (0 disables caching).
    max_batch_size:
        Largest coalesced forward pass of the micro-batcher.
    auto_flush_at:
        When set, a :meth:`submit` that brings the queue to this size
        triggers the batched forward immediately.  The size-based flush
        runs on the *submitting* thread (deliberate backpressure — see
        the sharded service for fully non-blocking submits).
    linger_ms:
        When set, a background flusher drains the queue once its oldest
        request has waited this long — asynchronous traffic below the
        ``auto_flush_at`` threshold no longer waits for the next submit.
        Stop it with :meth:`close` (or use the service as a context
        manager).
    runtime:
        ``"compiled"`` (graph-free kernel plans, the default) or
        ``"autograd"`` (plain ``no_grad`` forwards).  ``None`` consults the
        ``REPRO_RUNTIME`` environment variable.
    precision:
        Execution-precision policy of the compiled plans: ``"float64"``
        (bit-identical to autograd, the default) or ``"float32"`` (~2x
        memory-bandwidth headroom; see ``docs/runtime.md``).  ``None``
        consults ``REPRO_RUNTIME_PRECISION``.  Synchronous queries accept a
        per-request ``precision=`` override — the float64 SLA path.
    artifact_dir:
        Directory (or shared :class:`~repro.runtime.ArtifactStore`) of
        durable plan artifacts: a restarted service rebuilds its plans from
        disk instead of re-tracing — the warm-start recipe in
        ``docs/serving_quickstart.md``.  Fresh compiles are written through.

    Example
    -------
    >>> service = ForecastService.from_checkpoint("dyhsl.npz")
    >>> forecast = service.forecast(window)          # (T', N), raw scale
    >>> service.ingest(latest_reading)               # streaming path
    >>> if service.buffer.ready:
    ...     forecast = service.forecast_latest()
    """

    def __init__(
        self,
        model: Module,
        scaler: Optional[object] = None,
        model_version: Optional[str] = None,
        cache_entries: int = 1024,
        max_batch_size: int = 128,
        auto_flush_at: Optional[int] = None,
        linger_ms: Optional[float] = None,
        runtime: Optional[str] = None,
        precision: Optional[str] = None,
        artifact_dir: Optional[Union[str, Path, ArtifactStore]] = None,
        quality: Union[None, bool, QualityConfig, SensorHealthMonitor] = None,
        quality_adjacency: Optional[np.ndarray] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        super().__init__(
            model,
            scaler=scaler,
            model_version=model_version,
            cache_entries=cache_entries,
            runtime=runtime,
            precision=precision,
            artifact_dir=artifact_dir,
            quality=quality,
            quality_adjacency=quality_adjacency,
            resilience=resilience,
        )
        self._max_batch_size = max_batch_size
        self._auto_flush_at = auto_flush_at
        # The single worker's breaker (None unless configured).  Created
        # once and shared across generations, so a hot swap never resets
        # an open breaker's failure history.
        self._breaker = self.resilience.make_breaker(0)
        # Batcher counters of generations retired by hot swaps, folded into
        # stats() so a swap never resets the service's lifetime telemetry.
        self._retired_stats: List[BatcherStats] = []
        self._retired_retries = 0
        self._gen.engine, _, _ = self._build_engine(model, warm_sizes=())
        self.flusher: Optional[BackgroundFlusher] = (
            BackgroundFlusher([self.batcher], linger_ms=linger_ms)
            if linger_ms is not None
            else None
        )

    # ------------------------------------------------------------------
    # The live engines (one forward callable plus one micro-batcher per
    # generation): read through self._gen so a hot swap retargets every
    # serving path with one assignment.
    # ------------------------------------------------------------------
    @property
    def _forward(self):
        return self._gen.engine.forward

    @property
    def batcher(self) -> MicroBatcher:
        """The current generation's micro-batching queue."""
        return self._gen.engine.batcher

    def _build_engine(self, model: Module, warm_sizes=None) -> Tuple[_ServiceEngine, int, int]:
        # One forward callable for every serving path: the compiled runtime
        # returns plain arrays, the autograd model returns Tensors; both are
        # normalised in _predict / MicroBatcher.flush.
        forward = (
            CompiledModel(
                model,
                precision=self.precision,
                artifact_dir=self.artifact_store,
            )
            if self.runtime == "compiled"
            else model
        )
        reused = compiled = 0
        if self.runtime == "compiled" and warm_sizes != ():
            # Warm the new plans BEFORE the generation goes live: by default
            # the streaming batch of 1, or an explicit size ladder.  With
            # AOT artifacts in the store these are disk binds, not traces.
            sizes = [1] if warm_sizes is None else self._warm_up_sizes(warm_sizes, self._max_batch_size)
            for size in sizes:
                forward.compile_for(self._example_batch(size))
            info = forward.cache_info()
            reused, compiled = info.artifact_loads, info.compiles
        # Breaker + bounded-retry policy wraps the forward at the one point
        # every serving path funnels through (the batcher's forward_fn and
        # the direct _predict path read the same object).
        forward = ResilientForward(
            forward, retry=self.resilience.retry, breaker=self._breaker
        )
        batcher = MicroBatcher(
            forward, max_batch_size=self._max_batch_size, auto_flush_at=self._auto_flush_at
        )
        return _ServiceEngine(forward, batcher), reused, compiled

    def _retire_generation(self, old: _Generation) -> None:
        if old.engine is None:
            return
        try:
            # Requests still queued on the old generation complete on the
            # old weights (their handles lazily flush this same batcher, so
            # nothing is lost even if this drain races them).
            old.engine.batcher.flush()
        except BaseException:
            pass  # the affected handles carry the error
        self._retired_stats.append(old.engine.batcher.stats)
        self._retired_retries += getattr(old.engine.forward, "retries", 0)
        if self.flusher is not None:
            self.flusher.retarget([self.batcher])

    # ------------------------------------------------------------------
    def _predict(
        self,
        window: np.ndarray,
        horizon: int,
        precision: Optional[str] = None,
        gen: Optional[_Generation] = None,
        deadline: Optional[Deadline] = None,
    ) -> np.ndarray:
        """One uncached forward of a normalised window -> raw-scale forecast.

        The compiled runtime takes the raw array (its entry cast owns the
        dtype handling, so a float32 streaming window is served zero-copy);
        the autograd fallback wraps in a float64 ``Tensor`` as ever.
        """
        gen = gen or self._gen
        forward = gen.engine.forward
        self._check_deadline(deadline, "predict")
        with no_grad():
            if self.runtime == "compiled":
                outputs = (
                    forward(window[None], precision=precision)
                    if precision is not None
                    else forward(window[None])
                )
            else:
                outputs = forward(Tensor(np.asarray(window, dtype=float)[None]))
        predictions = outputs.data if isinstance(outputs, Tensor) else np.asarray(outputs)
        return self._denormalise(predictions[0], gen=gen)[:horizon]

    def _forecast_normalised(
        self,
        window: np.ndarray,
        horizon: int,
        precision: Optional[str] = None,
        gen: Optional[_Generation] = None,
        deadline: Optional[Deadline] = None,
    ) -> np.ndarray:
        """Serve one normalised window, consulting the cache around the model."""
        gen = gen or self._gen
        key = None
        if self.cache is not None:
            key = ForecastCache.make_key(self._key_version(precision, gen=gen), window, horizon)
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        try:
            forecast = self._predict(
                window, horizon, precision=precision, gen=gen, deadline=deadline
            )
        except ResilienceError as error:
            stale = self._serve_stale_instead(key, error)
            if stale is not None:
                return stale
            raise
        if self.cache is not None:
            self.cache.put(key, forecast)
        return forecast.copy()

    # ------------------------------------------------------------------
    def forecast(
        self,
        window: np.ndarray,
        horizon: Optional[int] = None,
        precision: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Forecast the next steps from one raw-scale window.

        Parameters
        ----------
        window:
            Raw observations of shape ``(T, N, F)`` (or ``(T, N)`` when the
            model consumes a single feature).
        horizon:
            Number of future steps wanted (defaults to the model's ``T'``).
        precision:
            Per-request override of the service's execution-precision
            policy (e.g. the float64 SLA path of a float32 deployment);
            served from its own cache namespace.
        deadline_ms:
            Per-request time budget; overrides the service-wide
            ``ResilienceConfig.default_deadline_ms``.  An expired budget
            fails the request with :class:`DeadlineExceeded` before the
            forward runs — or serves a :class:`StaleForecast` when
            ``serve_stale`` is enabled and a matching entry exists.

        Returns
        -------
        numpy.ndarray
            Forecast of shape ``(horizon, N)`` on the original flow scale.
        """
        horizon = self._check_horizon(horizon)
        precision = self._resolve_request_precision(precision)
        self._count_requests()
        deadline = self._entry_deadline(deadline_ms)
        gen = self._gen
        return self._forecast_normalised(
            self._normalise_window(window, gen=gen),
            horizon,
            precision=precision,
            gen=gen,
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    # The compute hooks behind the shared forecast_many / submit skeleton
    # (see ForecastFrontend): misses coalesce into one batched forward
    # pass, chunked by the batcher's max_batch_size.
    #
    # One sizing note on submit(): the single-worker service has no
    # executor thread, so the auto_flush_at size-threshold flush runs on
    # the *submitting* thread — the threshold is deliberate backpressure,
    # bounding how much work a producer can enqueue without paying for
    # any of it.  Linger drains always run on the background flusher;
    # ShardedForecastService schedules both kinds of drain onto its
    # worker threads, so its submit never computes.
    # ------------------------------------------------------------------
    def _compute_misses(
        self,
        windows: List[np.ndarray],
        precision: Optional[str] = None,
        gen: Optional[_Generation] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[np.ndarray]:
        engine = (gen or self._gen).engine
        if precision is not None:
            # Per-request precision override: direct compiled forwards at
            # the requested policy, off the (single-policy) batch queue —
            # chunked like a flush so an override query keeps the same
            # peak-batch bound as the default path.
            size = engine.batcher.max_batch_size
            outputs: List[np.ndarray] = []
            for start in range(0, len(windows), size):
                self._check_deadline(deadline, "precision-chunk")
                chunk = np.stack(windows[start : start + size], axis=0)
                outputs.extend(engine.forward(chunk, precision=precision))
            return outputs
        pending = [engine.batcher.submit(window, deadline=deadline) for window in windows]
        engine.batcher.flush()
        return [handle.result() for handle in pending]

    def _submit(
        self,
        window: np.ndarray,
        gen: Optional[_Generation] = None,
        deadline: Optional[Deadline] = None,
    ) -> PendingForecast:
        return (gen or self._gen).engine.batcher.submit(window, deadline=deadline)

    # ------------------------------------------------------------------
    # Streaming operation
    # ------------------------------------------------------------------
    def forecast_latest(
        self, horizon: Optional[int] = None, deadline_ms: Optional[float] = None
    ) -> np.ndarray:
        """Forecast from the most recent buffered window (streaming path).

        Cache lookups are keyed on the buffer's O(1) version token instead
        of a content hash of the window, so a repeated poll between stream
        advances costs one counter read plus one dictionary lookup — no
        window materialisation, no SHA-1 over ``T * N * F`` floats.
        """
        horizon = self._check_horizon(horizon)
        self._count_requests()
        deadline = self._entry_deadline(deadline_ms)
        if self.cache is None:
            # snapshot(also=...): lock-consistent copy, and the serving
            # generation is captured under that same lock — a racing ingest
            # OR hot swap lands entirely before or after it, never
            # mid-window (the swap publishes its generation inside
            # buffer.rescale, under this very lock).
            window, _, gen = self.buffer.snapshot(also=lambda: self._gen)
            return self._predict(window, horizon, gen=gen, deadline=deadline).copy()
        key = (self._key_version(), self.buffer.cache_token(), horizon)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        # Miss: copy the window atomically with its token AND the serving
        # generation (all taken under the buffer's mutation lock), so the
        # cache entry always describes exactly the data that was forecast —
        # and a swap that re-normalises the ring can never pair the old
        # window with the new model.
        window, token, gen = self.buffer.snapshot(also=lambda: self._gen)
        key = (self._key_version(gen=gen), token, horizon)
        try:
            forecast = self._predict(window, horizon, gen=gen, deadline=deadline)
        except ResilienceError as error:
            # Stale streaming fallback: the content index keys on the buffer
            # token, so an entry a *previous model version* computed for this
            # very window is still discoverable after a hot swap.
            stale = self._serve_stale_instead(key, error)
            if stale is not None:
                return stale
            raise
        self.cache.put(key, forecast)
        return forecast.copy()

    # ------------------------------------------------------------------
    def save_artifacts(self, path=None) -> List:
        """Persist every compiled plan as a durable artifact (AOT warm start).

        ``path`` may be a directory or an
        :class:`~repro.runtime.ArtifactStore`; omitted, the store attached
        at construction (``artifact_dir=``) is used.  A service restarted
        against the same store serves its first request with zero retraces.
        """
        if self.runtime != "compiled":
            raise ValueError("plan artifacts require the compiled runtime")
        return self._forward.save_artifacts(path)

    def warm_up(self, batch_sizes=None) -> List:
        """Build the batch-size ladder of plans before traffic arrives.

        A freshly started service pays its trace/fuse/schedule work — or,
        pointed at a saved artifact store (``artifact_dir=``), a few disk
        binds — here instead of on the first unlucky requests.  One plan
        per batch size is prepared (sizes above the replay tile share the
        tile plan); by default a doubling ladder up to the
        batcher's ``max_batch_size``.  Returns the
        :class:`~repro.runtime.PlanStats` of every warmed plan.  No-op
        under the autograd runtime, which has nothing to compile.
        """
        if self.runtime != "compiled":
            return []
        return [
            self._forward.compile_for(self._example_batch(size))
            for size in self._warm_up_sizes(batch_sizes, self.batcher.max_batch_size)
        ]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the background flusher and drain the queue; idempotent.

        With or without a flusher, no handle is left pending after
        ``close()`` (a failing final drain is carried by the affected
        handles, as always).  Synchronous queries keep working after —
        only the timed drains stop.
        """
        if self.flusher is not None:
            self.flusher.close(drain=True)
        else:
            try:
                self.batcher.flush()
            except BaseException:
                pass  # the affected handles carry the error

    # ------------------------------------------------------------------
    # health() hooks (see ForecastFrontend.health)
    # ------------------------------------------------------------------
    def _health_shards(self) -> Tuple[ShardHealth, ...]:
        return (
            ShardHealth(
                shard=0,
                breaker=self._breaker.snapshot() if self._breaker is not None else None,
                worker_pid=None,
                worker_alive=None,
                heartbeat_age_s=None,
                respawns=0,
                hung_detections=0,
            ),
        )

    def _health_lane_depths(self) -> dict:
        return {"bulk": self.batcher.pending}

    def _health_counters(self) -> Tuple[int, int]:
        batcher = _merge_batcher_stats(self._retired_stats + [self.batcher.stats])
        retries = self._retired_retries + getattr(self._forward, "retries", 0)
        with self._requests_lock:
            expired = self._expired_direct + batcher.expired_requests
        return expired, retries

    def stats(self) -> ServiceStats:
        """Operational counters: requests, cache hit rate, batch amortisation."""
        cache_stats = (
            self.cache.stats()
            if self.cache is not None
            else CacheStats(hits=0, misses=0, evictions=0, size=0, max_entries=0)
        )
        return ServiceStats(
            model_version=self.model_version,
            requests=self._requests,
            cache=cache_stats,
            batcher=_merge_batcher_stats(self._retired_stats + [self.batcher.stats]),
            runtime=self.runtime,
            flusher=self.flusher.stats() if self.flusher is not None else None,
            precision=self.precision,
            quality=self.buffer.quality_stats(),
            swaps=self._swaps,
        )
