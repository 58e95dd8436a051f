"""Deterministic fault-injection harness and the seeded chaos soak.

Two contracts (ISSUE 10).  First, the harness itself: whether a visit to a
named ``fault_point`` site fires is a pure function of
``(seed, site, visit_index)``, so any chaos run replays bit-for-bit from
its seed alone — across plan copies, pickling, and worker processes.
Second, the soak: a serving stack under a seeded fault storm loses no
request (every submitted request settles exactly once), fails only with
typed errors, and returns to bit-exact parity with a clean service once
the storm ends.
"""

from __future__ import annotations

import hashlib
import pickle
import time

import numpy as np
import pytest

from repro.serving import (
    FAULT_ACTIONS,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    ForecastService,
    InjectedFault,
    ResilienceConfig,
    RetryPolicy,
    ShardedForecastService,
    TransientError,
    WorkerCrashed,
    active_fault_plan,
    clear_fault_plan,
    fault_point,
    fault_report,
    inject,
    install_fault_plan,
)
from repro.serving.faults import _decision

# Everything a resilient serving stack may answer with under chaos; any
# other exception type means an untyped failure leaked through.
TYPED_FAILURES = (
    InjectedFault,
    TransientError,  # includes WorkerCrashed
    DeadlineExceeded,
)


def _raw_window(forecasting_data, index=0):
    return forecasting_data.dataset.signal[index : index + 12]


def _raw_windows(forecasting_data, count, start=0):
    signal = forecasting_data.dataset.signal
    return np.stack([signal[i : i + 12] for i in range(start, start + count)], axis=0)


def _digest(array):
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def _find_seed(site, probability, *, safe_visits=0, fire_visits=()):
    """Scan for a seed whose decision stream fires exactly where asked.

    Pure arithmetic over the SHA1 decision function — the scan itself is
    the determinism property in action: picking the fault schedule ahead
    of time is only possible because firing is a pure function of
    ``(seed, site, visit)``.
    """
    for seed in range(20_000):
        if any(_decision(seed, site, v) < probability for v in range(safe_visits)):
            continue
        if all(_decision(seed, site, v) < probability for v in fire_visits):
            # Captured by pytest and replayed on failure, so a red chaos
            # run in CI names the exact seed to rebuild the storm from.
            print(f"chaos seed: {seed} (site={site!r}, p={probability})")
            return seed
    raise AssertionError("no seed found for the requested fault schedule")


# ----------------------------------------------------------------------
# The harness itself.
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_action_catalogue(self):
        assert FAULT_ACTIONS == ("kill", "hang", "delay", "raise", "corrupt")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("site", action="explode")
        with pytest.raises(ValueError):
            FaultSpec("site", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec("site", delay_ms=-1.0)
        with pytest.raises(ValueError):
            FaultSpec("site", max_fires=-1)

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.build(0, [FaultSpec("a"), FaultSpec("a", action="delay")])

    def test_injected_fault_is_retryable(self):
        error = InjectedFault("worker.dispatch", 3)
        assert error.retryable
        assert error.site == "worker.dispatch"
        assert error.visit == 3


class TestDeterminism:
    def test_decision_is_a_pure_function(self):
        draws = [_decision(7, "worker.dispatch", v) for v in range(64)]
        again = [_decision(7, "worker.dispatch", v) for v in range(64)]
        assert draws == again
        assert all(0.0 <= d < 1.0 for d in draws)
        # Sites and seeds decorrelate the streams.
        assert draws != [_decision(7, "shm.publish", v) for v in range(64)]
        assert draws != [_decision(8, "worker.dispatch", v) for v in range(64)]

    def test_two_plans_same_seed_fire_identically(self):
        def run(plan):
            fired = []
            for _ in range(50):
                spec, visit = plan.decide("forward.call")
                fired.append((spec is not None, visit))
            return fired, plan.report()

        spec = [FaultSpec("forward.call", probability=0.3)]
        first = run(FaultPlan.build(123, spec))
        second = run(FaultPlan.build(123, spec))
        assert first == second
        fires = first[1]["forward.call"]["fires"]
        assert 0 < fires < 50  # a mixed schedule, not all-or-nothing

    def test_probability_bounds(self):
        never = FaultPlan.build(0, [FaultSpec("s", probability=0.0)])
        always = FaultPlan.build(0, [FaultSpec("s", probability=1.0)])
        assert all(never.decide("s")[0] is None for _ in range(20))
        assert all(always.decide("s")[0] is not None for _ in range(20))

    def test_max_fires_caps_the_storm(self):
        plan = FaultPlan.build(0, [FaultSpec("s", probability=1.0, max_fires=3)])
        fired = sum(plan.decide("s")[0] is not None for _ in range(10))
        assert fired == 3
        assert plan.report()["s"] == {"visits": 10, "fires": 3}

    def test_pickled_copy_replays_its_own_visit_sequence(self):
        plan = FaultPlan.build(55, [FaultSpec("s", probability=0.4)])
        original = [plan.decide("s")[0] is not None for _ in range(30)]
        copy = pickle.loads(pickle.dumps(plan))
        assert copy.seed == plan.seed and copy.rules == plan.rules
        # Fresh visit counters: the copy replays the same stream from 0 —
        # exactly what a spawned worker process does.
        replayed = [copy.decide("s")[0] is not None for _ in range(30)]
        assert replayed == original


class TestFaultPoint:
    def test_noop_without_a_plan(self):
        assert active_fault_plan() is None
        fault_point("anything")  # must not raise
        assert fault_report() == {}

    def test_raise_action(self):
        plan = FaultPlan.build(0, [FaultSpec("s", action="raise")])
        with inject(plan):
            with pytest.raises(InjectedFault) as excinfo:
                fault_point("s")
        assert excinfo.value.site == "s"
        assert excinfo.value.visit == 0

    def test_delay_action(self):
        plan = FaultPlan.build(0, [FaultSpec("s", action="delay", delay_ms=30.0)])
        with inject(plan):
            start = time.monotonic()
            fault_point("s")
            assert time.monotonic() - start >= 0.025

    def test_corrupt_action_poisons_the_payload(self):
        plan = FaultPlan.build(0, [FaultSpec("s", action="corrupt")])
        payload = np.zeros((2, 3))
        with inject(plan):
            fault_point("s", payload)
        assert np.isnan(payload).sum() == 1
        # Without a payload the action is a no-op, never a crash.
        with inject(FaultPlan.build(0, [FaultSpec("s", action="corrupt")])):
            fault_point("s")

    def test_inject_scopes_the_installation(self):
        plan = FaultPlan.build(0, [FaultSpec("s", probability=0.0)])
        with inject(plan) as installed:
            assert installed is plan
            assert active_fault_plan() is plan
        assert active_fault_plan() is None
        # install/clear are the unscoped equivalents.
        install_fault_plan(plan)
        assert active_fault_plan() is plan
        clear_fault_plan()
        assert active_fault_plan() is None

    def test_report_counts_unruled_sites_too(self):
        plan = FaultPlan.build(0, [FaultSpec("ruled", probability=0.0)])
        with inject(plan):
            fault_point("ruled")
            fault_point("unruled")
            report = fault_report()
        assert report["ruled"] == {"visits": 1, "fires": 0}
        assert report["unruled"] == {"visits": 1, "fires": 0}


# ----------------------------------------------------------------------
# The chaos soak, thread tier.
# ----------------------------------------------------------------------
def _soak_single(tiny_model, forecasting_data, seed, requests=20):
    """One seeded storm against a fresh single-worker service.

    Returns the per-request outcome log plus the plan's visit/fire report
    — together they ARE the run, so equality of two logs is bit-for-bit
    replay.
    """
    service = ForecastService(
        tiny_model,
        scaler=forecasting_data.scaler,
        cache_entries=0,
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay_ms=0.2)
        ),
    )
    plan = FaultPlan.build(seed, [FaultSpec("forward.call", probability=0.5)])
    outcomes = []
    with inject(plan):
        for index in range(requests):
            window = _raw_window(forecasting_data, index=index % 5)
            try:
                outcomes.append(("ok", _digest(service.forecast(window))))
            except Exception as error:  # noqa: BLE001 - the soak sorts them
                assert isinstance(error, TYPED_FAILURES), repr(error)
                outcomes.append((type(error).__name__, None))
        report = fault_report()
    return outcomes, report


class TestChaosSoak:
    def test_storm_replays_bit_for_bit(self, tiny_model, forecasting_data):
        # A seed whose schedule provably mixes outcomes: request 0 loses
        # both attempts (visits 0 and 1 fire) and some later attempt wins.
        seed = _find_seed("forward.call", 0.5, fire_visits=(0, 1))
        first = _soak_single(tiny_model, forecasting_data, seed)
        second = _soak_single(tiny_model, forecasting_data, seed)
        assert first == second
        outcomes, report = first
        assert outcomes[0] == ("InjectedFault", None)
        kinds = {kind for kind, _ in outcomes}
        assert "ok" in kinds  # the storm was survivable, not total
        assert report["forward.call"]["fires"] >= 2
        # A different seed is a different storm.
        other = _soak_single(tiny_model, forecasting_data, seed + 1)
        assert other[1] != report or other[0] != outcomes

    def test_sharded_storm_loses_no_request(self, tiny_model, forecasting_data):
        clean = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        )
        windows = _raw_windows(forecasting_data, 12)
        reference = clean.forecast_many(windows)
        service = ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            executor="threads",
            cache_entries=0,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2, base_delay_ms=0.2)
            ),
        )
        try:
            plan = FaultPlan.build(
                _find_seed("forward.call", 0.4, fire_visits=(0,)),
                [FaultSpec("forward.call", probability=0.4)],
            )
            with inject(plan):
                handles = [service.submit(window) for window in windows]
                outcomes = []
                for handle in handles:
                    try:
                        outcomes.append(("ok", handle.result()))
                    except Exception as error:  # noqa: BLE001
                        assert isinstance(error, TYPED_FAILURES), repr(error)
                        outcomes.append((type(error).__name__, None))
                report = fault_report()
            # Zero lost, zero double-fulfilled: every submitted request
            # settled exactly once, and a settled handle replays its
            # outcome instead of recomputing.
            assert len(outcomes) == len(windows)
            assert report["forward.call"]["fires"] >= 1
            for (kind, result), handle, expected in zip(outcomes, handles, reference):
                if kind != "ok":
                    continue
                np.testing.assert_array_equal(result, expected)
                np.testing.assert_array_equal(handle.result(), result)
            # Post-recovery parity: the storm leaves no residue.
            np.testing.assert_array_equal(service.forecast_many(windows), reference)
            assert service.health().retries >= 1
        finally:
            service.close()


# ----------------------------------------------------------------------
# The chaos soak, process tier: plans ship over the spawn/fork boundary
# and each worker replays its own deterministic visit stream.
# ----------------------------------------------------------------------
class TestProcessTierChaos:
    def test_injected_kill_is_detected_retried_and_respawned(
        self, tiny_model, forecasting_data
    ):
        # Dispatch visit 0 must be safe on EVERY worker incarnation (a
        # respawned worker restarts its visit stream at 0, so a visit-0
        # kill would loop forever); visit 1 fires.
        seed = _find_seed("worker.dispatch", 0.5, safe_visits=1, fire_visits=(1,))
        plan = FaultPlan.build(seed, [FaultSpec("worker.dispatch", action="kill", probability=0.5)])
        service = ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=1,
            mode="replicas",
            executor="processes",
            cache_entries=0,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2, base_delay_ms=1.0)
            ),
            fault_plan=plan,
        )
        try:
            window = _raw_window(forecasting_data)
            reference = service.forecast(window)  # dispatch visit 0: safe
            first_pid = service._tier.worker_pids()[0]
            # Visit 1 kills the worker mid-batch; the crash surfaces as a
            # retryable WorkerCrashed, the watchdog respawns, and the
            # retry lands on the fresh worker (its visit 0 is safe again).
            retried = service.forecast(window)
            np.testing.assert_array_equal(retried, reference)
            assert service._tier.worker_pids()[0] != first_pid
            stats = service.stats().process_tier
            assert stats.respawns >= 1
            assert service.health().retries >= 1
        finally:
            service.close()

    def test_worker_side_raise_storm_settles_and_recovers(
        self, tiny_model, forecasting_data
    ):
        # Fires on the first dispatches, capped so the storm ends itself;
        # worker-side InjectedFault comes back over the wire as a typed,
        # retryable TransientError.
        seed = _find_seed("worker.dispatch", 0.6, fire_visits=(0,))
        plan = FaultPlan.build(
            seed,
            [FaultSpec("worker.dispatch", probability=0.6, max_fires=4)],
        )
        clean = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        )
        windows = _raw_windows(forecasting_data, 8)
        reference = clean.forecast_many(windows)
        service = ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            executor="processes",
            cache_entries=0,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=3, base_delay_ms=1.0)
            ),
            fault_plan=plan,
        )
        try:
            outcomes = []
            for index, window in enumerate(windows):
                try:
                    outcomes.append(("ok", service.forecast(window)))
                except Exception as error:  # noqa: BLE001
                    assert isinstance(error, TYPED_FAILURES), repr(error)
                    outcomes.append((type(error).__name__, None))
            assert len(outcomes) == len(windows)
            for (kind, result), expected in zip(outcomes, reference):
                if kind == "ok":
                    np.testing.assert_array_equal(result, expected)
            # max_fires exhausted: the fleet is clean again, bit-exact.
            np.testing.assert_array_equal(service.forecast_many(windows), reference)
            assert service.health().retries >= 1
        finally:
            service.close()
