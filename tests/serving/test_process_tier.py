"""Process-backed serving tier: shared-memory plan replay, lanes, faults.

The contract under test (ISSUE 7): worker processes replay compiled plan
artifacts bit-identically to the thread tier, interactive requests overtake
bulk backfill, overload is rejected at accept time, and a killed worker is
detected, reported with partial progress, and respawned — all without the
child ever tracing a model or the parent pickling an array payload.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    ArtifactStore,
    bind_plan,
    compile_plan,
    plan_workspace_nbytes,
)
from repro.serving import (
    EXECUTOR_ENV_VAR,
    START_METHOD_ENV_VAR,
    ForecastService,
    ProcessShardExecutor,
    ServiceOverloaded,
    ShardedForecastService,
    resolve_executor,
    resolve_start_method,
)


def _raw_windows(forecasting_data, count, start=0):
    signal_ = forecasting_data.dataset.signal
    return np.stack([signal_[i : i + 12] for i in range(start, start + count)], axis=0)


def _sharded(tiny_model, forecasting_data, **kwargs):
    kwargs.setdefault("cache_entries", 64)
    kwargs.setdefault("executor", "processes")
    return ShardedForecastService(
        tiny_model, scaler=forecasting_data.scaler, **kwargs
    )


@pytest.fixture()
def single(tiny_model, forecasting_data):
    return ForecastService(tiny_model, scaler=forecasting_data.scaler, cache_entries=64)


def _executor(tiny_model, forecasting_data, **kwargs):
    config = tiny_model.config
    kwargs.setdefault("num_shards", 1)
    return ProcessShardExecutor(
        tiny_model,
        window_shape=(config.input_length, config.num_nodes, config.input_dim),
        output_length=config.output_length,
        num_nodes=config.num_nodes,
        **kwargs,
    )


class TestResolvers:
    def test_defaults_to_threads(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert resolve_executor() == "threads"

    def test_env_var_selects_processes(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "processes")
        assert resolve_executor() == "processes"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "processes")
        assert resolve_executor("threads") == "threads"

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown shard executor"):
            resolve_executor("fibers")

    def test_explicit_processes_requires_compiled_runtime(self):
        with pytest.raises(ValueError, match="compiled runtime"):
            resolve_executor("processes", runtime="autograd")

    def test_env_processes_falls_back_for_autograd(self, monkeypatch):
        # Fleet-wide env export must not break the autograd escape hatch.
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "processes")
        assert resolve_executor(runtime="autograd") == "threads"

    def test_start_method_prefers_fork(self, monkeypatch):
        monkeypatch.delenv(START_METHOD_ENV_VAR, raising=False)
        import multiprocessing as mp

        expected = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        assert resolve_start_method() == expected

    def test_start_method_env_and_argument(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV_VAR, "spawn")
        assert resolve_start_method() == "spawn"
        assert resolve_start_method("fork") == "fork"

    def test_unavailable_start_method_rejected(self):
        with pytest.raises(ValueError, match="not available"):
            resolve_start_method("no-such-method")


class TestWorkspaceBinding:
    """bind_plan(workspace=): the exported-buffer half of the shm protocol."""

    @pytest.fixture()
    def plan_and_batch(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 2)
        batch = forecasting_data.scaler.transform(windows)
        return compile_plan(tiny_model, batch), batch

    def test_workspace_plan_is_bit_identical_to_heap(self, plan_and_batch):
        heap_plan, batch = plan_and_batch
        spec = heap_plan.spec
        values = list(heap_plan._values)
        workspace = np.zeros(plan_workspace_nbytes(spec.storage_sizes), dtype=np.uint8)
        ws_plan = bind_plan(spec, values, workspace=workspace)
        expected = heap_plan.call(batch)
        produced = ws_plan.call(batch)
        assert np.abs(produced - expected).max() == 0.0

    def test_workspace_nbytes_is_aligned_and_sufficient(self, plan_and_batch):
        heap_plan, _ = plan_and_batch
        sizes = heap_plan.spec.storage_sizes
        total = plan_workspace_nbytes(sizes)
        assert total >= sum(int(nbytes) for nbytes in sizes)
        # Exactly-sized buffer binds; one byte short does not.
        bind_plan(heap_plan.spec, list(heap_plan._values),
                  workspace=np.zeros(total, dtype=np.uint8))
        with pytest.raises(ValueError, match="smaller than"):
            bind_plan(heap_plan.spec, list(heap_plan._values),
                      workspace=np.zeros(max(total - 1, 0), dtype=np.uint8))

    def test_workspace_must_be_flat_uint8(self, plan_and_batch):
        heap_plan, _ = plan_and_batch
        total = plan_workspace_nbytes(heap_plan.spec.storage_sizes)
        with pytest.raises(ValueError, match="flat uint8"):
            bind_plan(heap_plan.spec, list(heap_plan._values),
                      workspace=np.zeros(total, dtype=np.float64))
        with pytest.raises(ValueError, match="flat uint8"):
            bind_plan(heap_plan.spec, list(heap_plan._values),
                      workspace=np.zeros((2, total), dtype=np.uint8))

    def test_artifact_store_bind_round_trip(self, plan_and_batch, tmp_path):
        heap_plan, batch = plan_and_batch
        spec = heap_plan.spec
        constants = {slot: heap_plan._values[slot] for slot in spec.const_slots}
        store = ArtifactStore(tmp_path / "plans")
        store.save("demo", spec, constants)
        store.forget("demo")  # force the disk path
        bound = store.bind("demo")
        assert bound is not None
        assert np.abs(bound.call(batch) - heap_plan.call(batch)).max() == 0.0
        assert store.bind("missing") is None

    def test_peek_is_stat_neutral(self, plan_and_batch, tmp_path):
        heap_plan, _ = plan_and_batch
        spec = heap_plan.spec
        constants = {slot: heap_plan._values[slot] for slot in spec.const_slots}
        store = ArtifactStore(tmp_path / "plans")
        store.save("demo", spec, constants)
        before = store.stats()
        assert store.peek("demo") is not None
        assert store.peek("missing") is None
        after = store.stats()
        assert (after.loads, after.memo_hits, after.misses) == (
            before.loads, before.memo_hits, before.misses,
        )


class TestProcessParity:
    """float64 bit-parity (max|diff| == 0) between process and thread tiers."""

    @pytest.mark.parametrize("mode", ["replicas"])
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_forecast_many_bit_identical(
        self, tiny_model, forecasting_data, single, mode, num_shards
    ):
        windows = _raw_windows(forecasting_data, 5)
        reference = single.forecast_many(windows)
        with _sharded(
            tiny_model, forecasting_data, num_shards=num_shards, mode=mode
        ) as service:
            produced = service.forecast_many(windows)
            assert service.executor == "processes"
            assert np.abs(produced - reference).max() == 0.0
            tier = service.stats().process_tier
            assert tier is not None and tier.workers >= 1
            assert tier.bulk_rows >= len(windows)

    def test_single_forecast_and_horizon(self, tiny_model, forecasting_data, single):
        window = _raw_windows(forecasting_data, 1)[0]
        with _sharded(tiny_model, forecasting_data, num_shards=2) as service:
            assert np.array_equal(service.forecast(window), single.forecast(window))
            assert np.array_equal(
                service.forecast(window, horizon=4), single.forecast(window, horizon=4)
            )

    @pytest.mark.parametrize("mode", ["replicas"])
    def test_forecast_latest_bit_identical(
        self, tiny_model, forecasting_data, single, mode
    ):
        signal_ = forecasting_data.dataset.signal[:14]
        for step in signal_:
            single.ingest(step)
        reference = single.forecast_latest()
        with _sharded(
            tiny_model, forecasting_data, num_shards=2, mode=mode, cache_entries=0
        ) as service:
            for step in signal_:
                service.ingest(step)
            produced = service.forecast_latest()
            assert np.abs(produced - reference).max() == 0.0
            tier = service.stats().process_tier
            assert tier is not None and tier.interactive_batches >= 1

    def test_spawn_workers_bit_identical(self, tiny_model, forecasting_data, single):
        windows = _raw_windows(forecasting_data, 3)
        reference = single.forecast_many(windows)
        with _sharded(
            tiny_model,
            forecasting_data,
            num_shards=2,
            mode="replicas",
            start_method="spawn",
        ) as service:
            produced = service.forecast_many(windows)
            assert np.abs(produced - reference).max() == 0.0
            tier = service.stats().process_tier
            assert tier is not None and tier.start_method == "spawn"

    def test_float32_service_and_float64_override(
        self, tiny_model, forecasting_data, single
    ):
        windows = _raw_windows(forecasting_data, 3)
        reference64 = single.forecast_many(windows)
        with ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            precision="float32",
            cache_entries=0,
        ) as thread32, _sharded(
            tiny_model,
            forecasting_data,
            num_shards=2,
            mode="replicas",
            precision="float32",
            cache_entries=0,
        ) as service:
            # The float32 deployment matches the thread tier bit for bit...
            reference32 = thread32.forecast_many(windows)
            assert np.abs(service.forecast_many(windows) - reference32).max() == 0.0
            # ...and its per-request float64 SLA path matches full precision.
            produced = service.forecast_many(windows, precision="float64")
            assert np.abs(produced - reference64).max() == 0.0

    def test_warm_start_from_shared_store(
        self, tiny_model, forecasting_data, single, tmp_path
    ):
        windows = _raw_windows(forecasting_data, 2)
        reference = single.forecast_many(windows)
        store = ArtifactStore(tmp_path / "plans")
        with _sharded(
            tiny_model, forecasting_data, num_shards=2, artifact_dir=store,
        ) as service:
            assert np.abs(service.forecast_many(windows) - reference).max() == 0.0
        saves = store.stats().saves
        assert saves >= 1
        # Second fleet binds the published artifacts instead of recompiling.
        with _sharded(
            tiny_model, forecasting_data, num_shards=2, artifact_dir=store,
        ) as service:
            assert np.abs(service.forecast_many(windows) - reference).max() == 0.0
        assert store.stats().saves == saves


class TestReplayTiles:
    """Jobs are cut at the provider's replay tile, so a worker binds the same
    tile plan the parent compiled, and its arena is that plan's workspace."""

    TILE = 2

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_jobs_are_tile_sized_and_bind_the_tile_plan(
        self, tiny_model, forecasting_data, monkeypatch, start_method
    ):
        from repro.runtime import CompiledModel, engine, plan_row_bytes

        config = tiny_model.config
        window_shape = (config.input_length, config.num_nodes, config.input_dim)
        row_bytes = plan_row_bytes(compile_plan(tiny_model, np.zeros((1,) + window_shape)).spec)
        monkeypatch.setattr(engine, "TILE_BUDGET_BYTES", self.TILE * row_bytes)
        batch = forecasting_data.scaler.transform(_raw_windows(forecasting_data, 5))
        reference = CompiledModel(tiny_model)(batch)
        with _executor(
            tiny_model, forecasting_data, start_method=start_method, bulk_chunk_rows=32
        ) as executor:
            produced = executor.call(0, batch)
            provider = executor.provider(0)
            jobs = executor._make_jobs(0, batch, "bulk", np.dtype("float64"))
            tile_key = provider.artifact_key((self.TILE,) + window_shape)
            arena = executor._workers[0].layout.arena_nbytes
            stats = executor.stats()
        assert np.array_equal(produced, reference)
        assert [job.array.shape[0] for job in jobs] == [2, 2, 1]
        assert {job.key for job in jobs[:2]} == {tile_key}
        assert (stats.bulk_batches, stats.bulk_rows) == (3, 5)
        assert all(s.input_shape[0] <= self.TILE for s in provider.plan_stats())
        tile_spec = provider.artifact_store.peek(tile_key)[0]
        assert arena == plan_workspace_nbytes(tile_spec.storage_sizes)


class TestPriorityLanes:
    def test_interactive_overtakes_bulk_backfill(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 6)
        batch = forecasting_data.scaler.transform(windows)
        with _executor(
            tiny_model,
            forecasting_data,
            bulk_chunk_rows=1,
            _request_delay=0.05,
        ) as executor:
            # Warm up: compile + spawn outside the timed region.
            executor.call(0, batch[:1], lane="interactive")

            bulk_result: list = []

            def backfill():
                bulk_result.append(executor.call(0, batch, lane="bulk"))

            thread = threading.Thread(target=backfill)
            thread.start()
            while executor.lane_pending("bulk") == 0:  # dispatch has begun
                time.sleep(0.001)
            produced = executor.call(0, batch[:1], lane="interactive")
            # The interactive answer arrived while bulk chunks still queued:
            # it overtook them rather than waiting for the whole backfill.
            assert executor.lane_pending("bulk") > 0
            thread.join()
            stats = executor.stats()
            assert stats.interactive_batches >= 2
            assert stats.bulk_batches == len(windows)
            assert np.abs(produced - bulk_result[0][:1]).max() == 0.0

    def test_lane_names_validated(self, tiny_model, forecasting_data):
        with _executor(tiny_model, forecasting_data) as executor:
            with pytest.raises(ValueError, match="unknown lane"):
                executor.call(0, np.zeros((1, 12, tiny_model.config.num_nodes, 1)),
                              lane="express")


class TestAdmissionControl:
    def test_zero_bulk_depth_fast_rejects(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 3)
        service = _sharded(
            tiny_model,
            forecasting_data,
            num_shards=2,
            mode="replicas",
            executor="threads",
            cache_entries=0,
            bulk_queue_depth=0,
        )
        try:
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.forecast_many(windows)
            assert excinfo.value.lane == "bulk"
            assert excinfo.value.limit == 0
            lanes = {lane.lane: lane for lane in service.stats().lanes}
            assert lanes["bulk"].rejected == len(windows)
            assert lanes["bulk"].depth_limit == 0
        finally:
            service.close()

    def test_zero_interactive_depth_fast_rejects(self, tiny_model, forecasting_data):
        service = _sharded(
            tiny_model,
            forecasting_data,
            num_shards=2,
            mode="replicas",
            executor="threads",
            cache_entries=0,
            interactive_queue_depth=0,
        )
        try:
            for step in forecasting_data.dataset.signal[:13]:
                service.ingest(step)
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.forecast_latest()
            assert excinfo.value.lane == "interactive"
            lanes = {lane.lane: lane for lane in service.stats().lanes}
            assert lanes["interactive"].rejected == 1
        finally:
            service.close()

    def test_generous_depth_admits_and_counts(
        self, tiny_model, forecasting_data, single
    ):
        windows = _raw_windows(forecasting_data, 3)
        with _sharded(
            tiny_model,
            forecasting_data,
            num_shards=2,
            mode="replicas",
            cache_entries=0,
            bulk_queue_depth=64,
        ) as service:
            produced = service.forecast_many(windows)
            assert np.abs(produced - single.forecast_many(windows)).max() == 0.0
            lanes = {lane.lane: lane for lane in service.stats().lanes}
            assert lanes["bulk"].admitted >= len(windows)
            assert lanes["bulk"].rejected == 0

    def test_negative_depth_rejected_before_spawn(self, tiny_model, forecasting_data):
        with pytest.raises(ValueError, match="bulk_queue_depth"):
            _sharded(
                tiny_model, forecasting_data, num_shards=2, mode="replicas",
                executor="threads", bulk_queue_depth=-1,
            )

    def test_cache_hits_bypass_admission(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 2)
        service = _sharded(
            tiny_model,
            forecasting_data,
            num_shards=2,
            mode="replicas",
            executor="threads",
            cache_entries=64,
        )
        try:
            first = service.forecast_many(windows)
            # Tighten the gate after the cache is warm: hits still served.
            service._gates["bulk"].limit = 0
            again = service.forecast_many(windows)
            assert np.array_equal(first, again)
        finally:
            service.close()


class TestFaultInjection:
    def test_killed_worker_reports_partial_progress_and_respawns(
        self, tiny_model, forecasting_data, single
    ):
        windows = _raw_windows(forecasting_data, 4)
        batch = forecasting_data.scaler.transform(windows)
        with _executor(
            tiny_model,
            forecasting_data,
            bulk_chunk_rows=1,
            _request_delay=0.2,
        ) as executor:
            reference = executor.call(0, batch)  # warm: compile + spawn
            (pid,) = executor.worker_pids()
            errors: list = []

            def backfill():
                try:
                    executor.call(0, batch)
                except RuntimeError as error:
                    errors.append(error)

            thread = threading.Thread(target=backfill)
            thread.start()
            while executor.lane_pending("bulk") == 0:
                time.sleep(0.001)
            os.kill(pid, signal.SIGKILL)
            thread.join()
            assert len(errors) == 1
            assert "died mid-batch" in str(errors[0])
            fulfilled = errors[0].fulfilled_before_error
            assert 0 <= fulfilled < len(windows)
            # The tier respawned and keeps serving the same bits.
            produced = executor.call(0, batch)
            assert np.abs(produced - reference).max() == 0.0
            stats = executor.stats()
            assert stats.respawns >= 1
            assert executor.worker_pids()[0] != pid

    def test_killed_worker_service_keeps_serving(
        self, tiny_model, forecasting_data, single
    ):
        windows = _raw_windows(forecasting_data, 3)
        reference = single.forecast_many(windows)
        with _sharded(
            tiny_model, forecasting_data, num_shards=1, mode="replicas",
            cache_entries=0,
        ) as service:
            assert np.abs(service.forecast_many(windows) - reference).max() == 0.0
            (pid,) = service._tier.worker_pids()
            os.kill(pid, signal.SIGKILL)
            # The dead worker is detected on the next dispatch; the error
            # surfaces (nothing is silently dropped) and the respawned
            # worker serves the retry bit-identically.
            try:
                retry = service.forecast_many(windows)
            except RuntimeError:
                retry = service.forecast_many(windows)
            assert np.abs(retry - reference).max() == 0.0
            assert service.stats().process_tier.respawns >= 1

    def test_hung_worker_is_distinct_from_killed(self, tiny_model, forecasting_data):
        """A wedged worker (alive, heartbeat silent) trips the watchdog.

        Distinct from the SIGKILL path above: the process never exits on
        its own, so detection comes from the heartbeat beacon going stale,
        reaping needs the join -> terminate escalation, and the typed
        error says "wedged (hang watchdog)", not "died".
        """
        from repro.serving import (
            FaultPlan,
            FaultSpec,
            ResilienceConfig,
            RetryPolicy,
            WatchdogConfig,
            WorkerCrashed,
        )
        from repro.serving.faults import _decision

        # Dispatch visit 0 must stay safe on every worker incarnation (a
        # respawned worker restarts its deterministic visit stream at 0);
        # visit 1 wedges the serve loop.
        probability = 0.5
        seed = next(
            s for s in range(20_000)
            if _decision(s, "worker.dispatch", 0) >= probability
            and _decision(s, "worker.dispatch", 1) < probability
        )
        plan = FaultPlan.build(
            seed, [FaultSpec("worker.dispatch", action="hang", probability=probability)]
        )
        service = _sharded(
            tiny_model,
            forecasting_data,
            num_shards=1,
            mode="replicas",
            cache_entries=0,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1),  # surface the typed error
                watchdog=WatchdogConfig(hang_timeout_s=0.5),
            ),
            fault_plan=plan,
        )
        try:
            window = forecasting_data.dataset.signal[:12]
            reference = service.forecast(window)  # dispatch visit 0: safe
            first_pid = service._tier.worker_pids()[0]
            with pytest.raises(WorkerCrashed) as excinfo:
                service.forecast(window)  # visit 1: the serve loop wedges
            assert excinfo.value.hung
            assert "wedged (hang watchdog) mid-batch" in str(excinfo.value)
            assert "died mid-batch" not in str(excinfo.value)
            stats = service.stats().process_tier
            assert stats.hung_detections == 1
            assert stats.respawns >= 1
            # A wedged process never joins politely: reaping escalated.
            assert stats.escalations >= 1
            assert service._tier.worker_pids()[0] != first_pid
            row = service._tier.worker_health()[0]
            assert row["hung_detections"] == 1 and row["alive"]
            health = service.health()
            assert health.healthy
            assert health.shards[0].hung_detections == 1
            # Post-recovery parity: the respawned worker serves the same
            # bits (its visit 0 is safe again by construction).
            np.testing.assert_array_equal(service.forecast(window), reference)
        finally:
            service.close()

    def test_corrupt_header_rejected_not_crashed(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 2)
        batch = forecasting_data.scaler.transform(windows)
        with _executor(tiny_model, forecasting_data) as executor:
            reference = executor.call(0, batch)
            worker = executor._workers[0]
            worker._corrupt_next_request = True
            with pytest.raises(RuntimeError, match="rejected"):
                executor.call(0, batch)
            # The worker survived the garbage frame: same process, no
            # respawn, and the next well-formed request is bit-identical.
            assert executor.stats().respawns == 0
            assert np.abs(executor.call(0, batch) - reference).max() == 0.0


class TestWorkerBoot:
    """A worker that has not written its first heartbeat is booting, not
    wedged: boot time never counts against ``hang_timeout_s``."""

    @staticmethod
    def _slow_boot(monkeypatch, action):
        """Run ``action`` in every worker child before its first beacon.

        The child builds its read-only artifact stores before entering the
        serve loop; under fork it inherits this patched constructor.
        """
        from repro.serving import process_tier

        parent = os.getpid()
        real = process_tier.ArtifactStore

        def booting_store(*args, **kwargs):
            if os.getpid() != parent:
                action()
            return real(*args, **kwargs)

        monkeypatch.setattr(process_tier, "ArtifactStore", booting_store)

    @pytest.fixture()
    def forked(self):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs the fork start method")
        return "fork"

    def test_slow_booting_worker_serves_its_first_request(
        self, tiny_model, forecasting_data, monkeypatch, forked
    ):
        from repro.runtime import CompiledModel
        from repro.serving import WatchdogConfig

        batch = forecasting_data.scaler.transform(_raw_windows(forecasting_data, 2))
        reference = CompiledModel(tiny_model)(batch)
        with _executor(
            tiny_model,
            forecasting_data,
            start_method=forked,
            watchdog=WatchdogConfig(hang_timeout_s=0.3),
        ) as executor:
            self._slow_boot(monkeypatch, lambda: time.sleep(1.0))
            produced = executor.call(0, batch)  # spawns the worker
            assert np.abs(produced - reference).max() == 0.0
            stats = executor.stats()
            assert (stats.hung_detections, stats.respawns) == (0, 0)

    def test_worker_dying_while_booting_is_reported_dead(
        self, tiny_model, forecasting_data, monkeypatch, forked
    ):
        from repro.serving import WatchdogConfig, WorkerCrashed

        batch = forecasting_data.scaler.transform(_raw_windows(forecasting_data, 1))
        with _executor(
            tiny_model,
            forecasting_data,
            start_method=forked,
            watchdog=WatchdogConfig(hang_timeout_s=30.0),
        ) as executor:
            self._slow_boot(monkeypatch, lambda: os._exit(3))
            started = time.monotonic()
            with pytest.raises(WorkerCrashed) as excinfo:
                executor.call(0, batch)
            # Detected from the exit, long before the hang budget.
            assert time.monotonic() - started < 10.0
            assert not excinfo.value.hung
            assert "died mid-batch" in str(excinfo.value)


class TestLifecycle:
    def test_close_is_idempotent_and_degrades_inline(
        self, tiny_model, forecasting_data
    ):
        windows = _raw_windows(forecasting_data, 2)
        batch = forecasting_data.scaler.transform(windows)
        executor = _executor(tiny_model, forecasting_data)
        reference = executor.call(0, batch)
        segments = executor.segment_names()
        assert segments
        executor.close()
        executor.close()
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")
        # Post-close calls degrade to the in-parent provider: same bits.
        assert np.abs(executor.call(0, batch) - reference).max() == 0.0

    def test_construction_spawns_nothing(self, tiny_model, forecasting_data):
        with _executor(tiny_model, forecasting_data, num_shards=2) as executor:
            assert executor.worker_pids() == [None, None]
            assert executor.segment_names() == []
            assert executor.stats().workers == 0

    def test_service_close_unlinks_segments(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 2)
        service = _sharded(
            tiny_model, forecasting_data, num_shards=2, mode="replicas"
        )
        service.forecast_many(windows)
        segments = service._tier.segment_names()
        pids = [pid for pid in service._tier.worker_pids() if pid is not None]
        assert segments and pids
        service.close()
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")
        deadline = time.monotonic() + 5.0
        for pid in pids:
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            else:  # pragma: no cover - diagnostic
                pytest.fail(f"worker {pid} still alive after close()")
