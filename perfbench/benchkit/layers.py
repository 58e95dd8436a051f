"""Per-layer measurements of the traced run.

Each layer is measured by spans around the benchmark's own calls into
that layer's public functions, with the workload's data and shapes, plus
the counters the live service exposes through ``stats()`` / ``health()``
after the traffic.  Nothing here changes the library.

Layers: ``repro.serving.quality``, ``repro.serving.buffer``,
``repro.serving.cache``, ``repro.data.scalers``, ``repro.serving.batching``,
``repro.serving.process_tier``, ``repro.serving.resilience``,
``repro.runtime``, the DyHSL modules of ``repro.core`` (each compiled on
its own with ``compile_plan``) and the kernels of
``repro.tensor.kernels`` (each plan step replayed at the plan's shapes).
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.mhce import temporal_max_pool
from repro.graph import SparseMatrix, normalized_temporal_adjacency
from repro.nn import Module
from repro.runtime import (
    ArtifactStore,
    CompiledModel,
    build_plan_spec,
    compile_module,
    compile_plan,
    trace_module,
)
from repro.serving import (
    ForecastCache,
    MicroBatcher,
    QualityConfig,
    RollingWindowBuffer,
    SensorHealthMonitor,
    hash_window,
)
from repro.tensor import Tensor, kernels, no_grad, ops

from .fixtures import Fixture
from .spans import Tracer

__all__ = ["KERNEL_GROUPS", "LayerProbe", "replay_kernels"]

#: Kernels reported by name; every other plan kernel (views, small
#: elementwise steps, concatenation) is summed into ``kernel.other``.
KERNEL_GROUPS = (
    "spmm",
    "matmul",
    "layer_norm",
    "fused_elementwise",
    "reshape_copy",
    "max",
    "mean",
)


#: Calls per microsecond-scale measurement (quality, buffer, cache, scaler).
CALLS = 300

#: Batch sizes ``runtime.plan_call_ms.b<size>`` is measured at.
PLAN_BATCHES = (1, 32, 64)


def _median(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _nbytes(value) -> int:
    """Bytes of an operand: arrays directly, sparse constants by CSR parts."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    csr = getattr(value, "csr", None)
    if csr is not None:
        return csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    return 0


def replay_kernels(spec, values: List, example: np.ndarray, repeats: int) -> Dict[str, Dict[str, float]]:
    """Replay every step of a plan spec at its shapes, timing each kernel.

    The spec is bound the way :func:`repro.runtime.bind_plan` binds it
    (pooled storages, kernels resolved by name), then run step by step.
    Returns, per kernel name, the median over ``repeats`` of the summed
    milliseconds per plan replay, the calls per replay, and the megabytes
    per replay *computed from tensor sizes* (inputs plus output, never
    measured traffic).
    """
    dtype = np.dtype(spec.dtype)
    storages = [np.empty(nbytes, dtype=np.uint8) for nbytes in spec.storage_sizes]
    steps = []
    for step in spec.steps:
        kwargs = step.kwargs
        if step.name == "fused_elementwise":
            kwargs = {
                "chain": tuple(
                    (name, kernels.KERNELS[name], tuple(refs), kw)
                    for name, refs, kw in step.kwargs["chain"]
                )
            }
        buffer = None
        if step.storage is not None:
            buffer = storages[step.storage].view(dtype).reshape(step.out_shape)
        steps.append((step.name, kernels.KERNELS[step.name], step.in_slots, kwargs, step.out_slot, buffer))
    slots = list(values)
    per_repeat: List[Dict[str, float]] = []
    calls: Dict[str, int] = {}
    mbytes: Dict[str, float] = {}
    for repeat in range(repeats):
        slots[spec.input_slot] = np.ascontiguousarray(example, dtype=dtype)
        totals: Dict[str, float] = {}
        for name, kernel, in_slots, kwargs, out_slot, buffer in steps:
            operands = [slots[index] for index in in_slots]
            started = time.perf_counter_ns()
            slots[out_slot] = kernel(*operands, out=buffer, **kwargs)
            totals[name] = totals.get(name, 0.0) + (time.perf_counter_ns() - started) / 1e6
            if repeat == 0:
                calls[name] = calls.get(name, 0) + 1
                moved = sum(_nbytes(operand) for operand in operands)
                moved += sum(_nbytes(value) for value in kwargs.values())
                moved += _nbytes(slots[out_slot])
                mbytes[name] = mbytes.get(name, 0.0) + moved / 1e6
        per_repeat.append(totals)
    return {
        name: {
            "ms": _median([totals[name] for totals in per_repeat]),
            "calls": float(calls[name]),
            "mbytes": mbytes[name],
        }
        for name in calls
    }


class _Bound(Module):
    """A block with its extra forward arguments bound, compilable alone."""

    def __init__(self, block: Module, *extra) -> None:
        super().__init__()
        self.block = block
        self._extra = extra

    def forward(self, x):
        return self.block(x, *self._extra)


class LayerProbe:
    """Runs the per-layer measurements of one workload.

    ``metrics`` maps each per-layer metric name to ``(value, unit)``;
    ``absent`` maps a metric the workload does not exercise to the reason.
    """

    def __init__(self, fixture: Fixture, settings: Dict, tracer: Tracer, workdir: Path) -> None:
        self.fixture = fixture
        self.settings = settings
        self.tracer = tracer
        self.workdir = workdir
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.absent: Dict[str, str] = {}
        self.notes: Dict[str, object] = {}
        #: The workload batch: bulk calls' rows, else one window.
        self.batch = int(settings.get("bulk_rows", 1))
        #: Replays per plan-scale measurement: more for the cheap batch-1 plans.
        self.repeats = 5 if self.batch == 1 else 3

    # ------------------------------------------------------------------
    def record(self, name: str, value: float, unit: str) -> None:
        """Record one per-layer metric."""
        self.metrics[name] = (float(value), unit)

    def mark_absent(self, names: Sequence[str], reason: str) -> None:
        """Say why the workload does not exercise these metrics' layer."""
        for name in names:
            self.absent[name] = reason

    def _timed(self, name: str, fn: Callable[[], object], count: int) -> List[float]:
        """Call ``fn`` ``count`` times inside ``name`` spans; durations in ms."""
        durations = []
        for _ in range(count):
            with self.tracer.span(name) as span:
                fn()
            durations.append(span.duration_ns / 1e6)
        return durations

    def _windows(self, size: int, first: int = 10_000_000) -> np.ndarray:
        """``size`` distinct normalised windows at the workload's node count."""
        raw = np.stack([self.fixture.bulk_window(first + index) for index in range(size)])
        normalised = raw.copy()
        normalised[..., 0] = self.fixture.scaler.transform(raw[..., 0])
        return normalised

    # ------------------------------------------------------------------
    def serving_counters(self, service, uses_batcher: bool) -> None:
        """Counters of the live service after the traffic."""
        stats = service.stats()
        health = service.health()
        self.record("cache.hit_rate", stats.cache.hit_rate, "ratio")
        self.record("resilience.retries", health.retries, "count")
        self.record("resilience.expired", health.expired_requests, "count")
        quality = stats.quality
        names = ("quality.flagged_share", "quality.imputed_per_step")
        if quality is not None and quality.steps_observed:
            self.record(names[0], quality.flagged_steps / quality.steps_observed, "ratio")
            self.record(names[1], quality.imputed_values / quality.steps_observed, "count")
        else:
            self.mark_absent(names, "quality control is off on this workload")
        batcher = stats.batcher
        if uses_batcher:
            self.record("batcher.mean_batch_size", batcher.mean_batch_size, "count")
        else:
            self.mark_absent(["batcher.mean_batch_size"], "forecast_latest bypasses the micro-batcher")
        lanes = {lane.lane: lane for lane in getattr(stats, "lanes", ())}
        if lanes:
            self.record("process.interactive_rejects", lanes["interactive"].rejected, "count")
            self.record("process.bulk_rejects", lanes["bulk"].rejected, "count")
        else:
            self.mark_absent(
                ["process.interactive_rejects", "process.bulk_rejects"],
                "inline service: no process tier and no admission lanes",
            )

    def _median_us(self, name: str, fn: Callable[[], object]) -> float:
        """Median of ``CALLS`` spans of ``fn``, in microseconds."""
        return _median(self._timed(name, fn, CALLS)) * 1e3

    def quality(self) -> None:
        if not self.settings["quality"]:
            self.mark_absent(["quality.observe_us"], "quality control is off on this workload")
            return
        config = self.fixture.config
        monitor = SensorHealthMonitor(
            config.num_nodes, num_features=config.input_dim, config=QualityConfig(),
            adjacency=self.fixture.adjacency,
        )
        steps = itertools.count()
        self.record("quality.observe_us", self._median_us(
            "quality.observe", lambda: monitor.observe(self.fixture.stream_step(next(steps)))
        ), "us")

    def buffer(self, streaming: bool) -> None:
        config = self.fixture.config
        buffer = RollingWindowBuffer(
            input_length=config.input_length, num_nodes=config.num_nodes,
            num_features=config.input_dim, scaler=self.fixture.scaler,
        )
        history = self.fixture.history
        steps = itertools.count()
        self.record("buffer.ingest_us", self._median_us(
            "buffer.ingest", lambda: buffer.ingest(history[next(steps) % len(history)])
        ), "us")
        if not streaming:
            self.mark_absent(["buffer.window_us", "buffer.cache_token_us"],
                             "bulk-backfill never reads the rolling buffer")
            return
        self.record("buffer.window_us", self._median_us("buffer.window", buffer.window), "us")
        self.record("buffer.cache_token_us", self._median_us("buffer.cache_token", buffer.cache_token), "us")

    def cache_and_scaler(self) -> None:
        window = self._windows(1)[0]
        horizon = self.fixture.config.output_length
        cache = ForecastCache(max_entries=1024)
        key = ForecastCache.make_key("perfbench", window, horizon)
        forecast = np.zeros((horizon, self.fixture.config.num_nodes))
        self.record("cache.hash_window_us", self._median_us("cache.hash_window", lambda: hash_window(window)), "us")
        self.record("cache.put_us", self._median_us("cache.put", lambda: cache.put(key, forecast)), "us")
        self.record("cache.get_us", self._median_us("cache.get", lambda: cache.get(key)), "us")
        raw = window[..., 0]
        scaler = self.fixture.scaler
        self.record("scaler.transform_us", self._median_us("scaler.transform", lambda: scaler.transform(raw)), "us")
        self.record("scaler.inverse_us",
                    self._median_us("scaler.inverse", lambda: scaler.inverse_transform(forecast)), "us")

    def batcher(self, compiled: CompiledModel, uses_batcher: bool) -> None:
        names = ["batcher.submit_us", "batcher.flush_ms", "batcher.queue_wait_ms"]
        if not uses_batcher:
            self.mark_absent(names, "forecast_latest bypasses the micro-batcher")
            return
        batcher = MicroBatcher(compiled, max_batch_size=self.batch)
        submit_ms: List[float] = []
        flush_ms: List[float] = []
        waits_ms: List[float] = []
        for repeat in range(self.repeats):
            windows = self._windows(self.batch, first=20_000_000 + repeat * self.batch)
            submitted = []
            for window in windows:
                with self.tracer.span("batcher.submit") as span:
                    batcher.submit(window)
                submitted.append(span.start_ns)
                submit_ms.append(span.duration_ns / 1e6)
            with self.tracer.span("batcher.flush") as span:
                batcher.flush()
            flush_ms.append(span.duration_ns / 1e6)
            waits_ms.extend((span.start_ns - start) / 1e6 for start in submitted)
        self.record("batcher.submit_us", _median(submit_ms) * 1e3, "us")
        self.record("batcher.flush_ms", _median(flush_ms), "ms")
        self.record("batcher.queue_wait_ms", float(np.mean(waits_ms)), "ms")

    def dispatch_overhead(self, service, inline_service, pairs: int = 50) -> None:
        """Process-tier call time minus inline call time, one fresh window each.

        Batch 1 is the interactive path; at 32 rows the shared-memory
        round trip is far below the call-to-call noise of a 140 ms replay.
        Pairs alternate which side goes first; the metric is the median
        of the per-pair differences.
        """
        differences: List[float] = []
        process_ms: List[float] = []
        inline_ms: List[float] = []
        for pair in range(pairs):
            raw = self.fixture.bulk_window(30_000_000 + pair)[None]
            sides = [("process", service, raw), ("inline", inline_service, raw + 1e-6)]
            timings: Dict[str, float] = {}
            for name, target, window in sides if pair % 2 == 0 else sides[::-1]:
                with self.tracer.span(f"{name}.forecast_many") as span:
                    target.forecast_many(window)
                timings[name] = span.duration_ns / 1e6
            process_ms.append(timings["process"])
            inline_ms.append(timings["inline"])
            differences.append(timings["process"] - timings["inline"])
        self.notes["process_call_ms"] = _median(process_ms)
        self.notes["inline_call_ms"] = _median(inline_ms)
        self.record("process.dispatch_overhead_ms", _median(differences), "ms")

    # ------------------------------------------------------------------
    def runtime(self) -> CompiledModel:
        """Trace/compile/artifact costs, plan size, plan call per batch size."""
        model = self.fixture.model
        example = self._windows(self.batch, first=40_000_000)
        trace_ms: List[float] = []
        compile_ms: List[float] = []
        for _ in range(2):  # alternated, so neither pays first-allocation costs alone
            trace_ms += self._timed("runtime.trace", lambda: trace_module(model, example), 1)
            with self.tracer.span("runtime.compile") as span:
                plan = compile_plan(model, example)
            compile_ms.append(span.duration_ns / 1e6)
        self.record("runtime.trace_ms", _median(trace_ms), "ms")
        self.record("runtime.compile_ms", _median(compile_ms), "ms")
        self.record("runtime.plan_steps", len(plan.spec.steps), "count")
        self.record("runtime.workspace_mb", plan.spec.stats.workspace_bytes / 2 ** 20, "MiB")
        store_dir = self.workdir / "layer-artifacts"
        key = CompiledModel(model).artifact_key(example.shape)
        store = ArtifactStore(store_dir)
        save_ms = self._timed("runtime.artifact_save",
                              lambda: store.save(key, plan.spec, plan.constants()), 1)
        load_ms = self._timed("runtime.artifact_load", lambda: ArtifactStore(store_dir).load(key), 1)
        self.record("runtime.artifact_save_ms", save_ms[0], "ms")
        self.record("runtime.artifact_load_ms", load_ms[0], "ms")
        compiled = compile_module(model)
        for size in PLAN_BATCHES:
            batch = self._windows(size, first=50_000_000)
            compiled.compile_for(batch)
            compiled(batch)
            repeats = self.repeats if size > 1 else CALLS // 10
            timings = self._timed(f"runtime.plan_call.b{size}", lambda: compiled(batch), repeats)
            self.record(f"runtime.plan_call_ms.b{size}", _median(timings), "ms")
        return compiled

    def modules(self) -> None:
        """Each DyHSL module compiled alone, replayed at the workload's shapes.

        Modules and the whole model are compiled with ``compile_plan`` and
        replayed with ``Plan.execute``, so neither side pays the
        ``CompiledModel`` per-call wrapper (bucket padding, lock, output
        copy) and ``model.coverage`` compares like with like.
        """
        model = self.fixture.model
        config = model.config
        example = self._windows(self.batch, first=60_000_000)
        extractor = model.extractor
        timings: Dict[str, float] = {}

        def replay(name: str, module: Module, inputs: np.ndarray) -> float:
            plan = compile_plan(module.eval(), inputs)
            plan.execute(inputs)
            return _median(self._timed(f"model.{name}", lambda: plan.execute(inputs), self.repeats))

        def attribute(name: str, module: Module, inputs: np.ndarray) -> None:
            timings[name] = timings.get(name, 0.0) + replay(name, module, inputs)

        with no_grad():
            whole = replay("whole", model, example)
            x = Tensor(example)
            embedded = model.embedding(x)
            attribute("embedding", model.embedding, example)
            states = model.prior_encoder(embedded)
            attribute("prior_encoder", model.prior_encoder, embedded.data)
            batch, steps, nodes, dim = states.shape
            scale_embeddings = []
            for window in config.window_sizes:
                pooled_steps = steps // window
                hidden = temporal_max_pool(states, window).reshape(batch, pooled_steps * nodes, dim)
                adjacency = SparseMatrix(normalized_temporal_adjacency(self.fixture.adjacency, pooled_steps))
                for layer in range(config.mhce_layers):
                    dhsl = extractor.hypergraph_blocks[layer]
                    igc = extractor.igc_blocks[layer]
                    attribute(f"dhsl.l{layer}.w{window}", dhsl, hidden.data)
                    attribute(f"igc.l{layer}.w{window}", _Bound(igc, adjacency), hidden.data)
                    update = (dhsl(hidden) + igc(hidden, adjacency)) * 0.5
                    residual = hidden + update
                    attribute(f"layer_norm.l{layer}", extractor.layer_norms[layer], residual.data)
                    hidden = extractor.layer_norms[layer](residual)
                scale_embeddings.append(hidden.reshape(batch, pooled_steps, nodes, dim).mean(axis=1))
            fused = extractor.fusion(scale_embeddings)
            combined = ops.concatenate([fused, states[:, -1, :, :]], axis=-1)
            attribute("output_head", model.output_head, combined.data)
        for name, value in timings.items():
            self.record(f"model.{name}_ms", value, "ms")
        self.record("model.coverage", sum(timings.values()) / whole, "ratio")
        self.notes["model.whole_plan_ms"] = whole

    def kernels(self) -> None:
        example = self._windows(self.batch, first=70_000_000)
        spec, values = build_plan_spec(self.fixture.model, example)
        measured = replay_kernels(spec, values, example, self.repeats)
        self.notes["kernels_all"] = measured
        other = {"ms": 0.0, "calls": 0.0, "mbytes": 0.0}
        for name, row in measured.items():
            if name not in KERNEL_GROUPS:
                for field in other:
                    other[field] += row[field]
        for name in KERNEL_GROUPS + ("other",):
            row = other if name == "other" else measured.get(name)
            if row is None:
                self.mark_absent(
                    [f"kernel.{name}.ms", f"kernel.{name}.calls", f"kernel.{name}.mbytes"],
                    f"no {name} step in the batch-{self.batch} plan",
                )
                continue
            self.record(f"kernel.{name}.ms", row["ms"], "ms")
            self.record(f"kernel.{name}.calls", row["calls"], "count")
            self.record(f"kernel.{name}.mbytes", row["mbytes"], "MB")
