"""Batch bucketing: ragged batches pad to power-of-two plans, bit-exactly.

Under bucketing the plan LRU holds O(log max_batch) plans instead of one
per observed batch size; padded rows replicate the first row and are
sliced back off the output, so callers see exactly the forecasts an
exact-shape plan would have produced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DyHSL, DyHSLConfig
from repro.runtime import (
    BUCKETS_ENV_VAR,
    CompiledModel,
    DEFAULT_BUCKET_CAP,
    bucket_batch_size,
    compile_module,
    compile_plan,
    engine,
    plan_row_bytes,
    replay_tile,
    resolve_bucket_cap,
)
from repro.tensor import Tensor, no_grad
from repro.tensor import seed as seed_everything

NUM_NODES = 7

#: The ragged batch sizes of record (ISSUE 3 satellite).
RAGGED_BATCHES = (1, 3, 17, 100)


@pytest.fixture(scope="module")
def model():
    seed_everything(81)
    rng = np.random.default_rng(81)
    adjacency = (rng.random((NUM_NODES, NUM_NODES)) < 0.5).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    config = DyHSLConfig(
        num_nodes=NUM_NODES,
        hidden_dim=10,
        prior_layers=1,
        num_hyperedges=5,
        window_sizes=(1, 4, 12),
        mhce_layers=1,
    )
    return DyHSL(config, adjacency).eval()


def _reference(model, x):
    with no_grad():
        return model(Tensor(x)).data


class TestBucketPolicy:
    def test_power_of_two_rounding(self):
        cap = DEFAULT_BUCKET_CAP
        assert bucket_batch_size(1, cap) == 1
        assert bucket_batch_size(2, cap) == 2
        assert bucket_batch_size(3, cap) == 4
        assert bucket_batch_size(17, cap) == 32
        assert bucket_batch_size(100, cap) == 128
        assert bucket_batch_size(128, cap) == 128

    def test_cap_clamps_and_oversize_serves_exact(self):
        assert bucket_batch_size(70, 100) == 100  # clamped to the cap
        assert bucket_batch_size(100, 100) == 100
        assert bucket_batch_size(101, 100) == 101  # above the cap: exact
        assert bucket_batch_size(9, None) == 9  # disabled: exact

    def test_resolve_from_arguments(self):
        assert resolve_bucket_cap(True) == DEFAULT_BUCKET_CAP
        assert resolve_bucket_cap(False) is None
        assert resolve_bucket_cap(64) == 64
        assert resolve_bucket_cap(0) is None

    def test_resolve_from_environment(self, monkeypatch):
        monkeypatch.delenv(BUCKETS_ENV_VAR, raising=False)
        assert resolve_bucket_cap() == DEFAULT_BUCKET_CAP
        monkeypatch.setenv(BUCKETS_ENV_VAR, "off")
        assert resolve_bucket_cap() is None
        monkeypatch.setenv(BUCKETS_ENV_VAR, "256")
        assert resolve_bucket_cap() == 256
        monkeypatch.setenv(BUCKETS_ENV_VAR, "sideways")
        with pytest.raises(ValueError):
            resolve_bucket_cap()


class TestBucketedServing:
    def test_ragged_batches_are_bit_identical(self, model):
        """Padding plus slice-back must be invisible in the numbers."""
        compiled = compile_module(model)
        rng = np.random.default_rng(82)
        for batch in RAGGED_BATCHES:
            x = rng.normal(size=(batch, 12, NUM_NODES, 1))
            produced = compiled(x)
            assert produced.shape[0] == batch
            assert np.array_equal(produced, _reference(model, x))

    def test_plan_cache_holds_buckets_not_sizes(self, model):
        compiled = compile_module(model)
        rng = np.random.default_rng(83)
        for batch in RAGGED_BATCHES:
            compiled(rng.normal(size=(batch, 12, NUM_NODES, 1)))
        shapes = sorted(stats.input_shape[0] for stats in compiled.plan_stats())
        assert shapes == [1, 4, 32, 128]
        # Re-serving any size landing in those buckets compiles nothing new.
        for batch in (4, 20, 31, 65, 128):
            compiled(rng.normal(size=(batch, 12, NUM_NODES, 1)))
        assert len(compiled.plan_stats()) == 4

    def test_bucketing_disabled_compiles_exact_shapes(self, model):
        compiled = CompiledModel(model, bucket_batches=False)
        rng = np.random.default_rng(84)
        for batch in RAGGED_BATCHES:
            x = rng.normal(size=(batch, 12, NUM_NODES, 1))
            assert np.array_equal(compiled(x), _reference(model, x))
        shapes = sorted(stats.input_shape[0] for stats in compiled.plan_stats())
        assert shapes == sorted(RAGGED_BATCHES)

    def test_environment_disables_bucketing(self, model, monkeypatch):
        monkeypatch.setenv(BUCKETS_ENV_VAR, "exact")
        compiled = compile_module(model)
        rng = np.random.default_rng(85)
        compiled(rng.normal(size=(3, 12, NUM_NODES, 1)))
        assert [stats.input_shape[0] for stats in compiled.plan_stats()] == [3]

    def test_batches_above_the_cap_serve_exact(self, model):
        compiled = CompiledModel(model, bucket_batches=8)
        rng = np.random.default_rng(86)
        x = rng.normal(size=(11, 12, NUM_NODES, 1))
        assert np.array_equal(compiled(x), _reference(model, x))
        assert [stats.input_shape[0] for stats in compiled.plan_stats()] == [11]

    def test_compile_for_reports_the_bucketed_plan(self, model):
        compiled = compile_module(model)
        stats = compiled.compile_for(np.zeros((5, 12, NUM_NODES, 1)))
        assert stats.input_shape[0] == 8


class TestEdgeShapes:
    """Bucketing edge shapes must serve, not crash (ISSUE 4 satellite)."""

    def test_empty_batch_serves_empty_output(self, model):
        compiled = compile_module(model)
        produced = compiled(np.zeros((0, 12, NUM_NODES, 1)))
        assert produced.shape == (0, 12, NUM_NODES)
        assert np.array_equal(produced, _reference(model, np.zeros((0, 12, NUM_NODES, 1))))

    def test_empty_batch_reuses_the_single_row_bucket(self, model):
        """B == 0 must not trace a degenerate (0, ...) plan into the LRU."""
        compiled = compile_module(model)
        compiled(np.zeros((0, 12, NUM_NODES, 1)))
        assert [stats.input_shape[0] for stats in compiled.plan_stats()] == [1]
        # A later real single-row request replays that same plan.
        rng = np.random.default_rng(88)
        x = rng.normal(size=(1, 12, NUM_NODES, 1))
        assert np.array_equal(compiled(x), _reference(model, x))
        assert len(compiled.plan_stats()) == 1

    def test_empty_batch_with_bucketing_disabled(self, model):
        compiled = CompiledModel(model, bucket_batches=False)
        assert compiled(np.zeros((0, 12, NUM_NODES, 1))).shape == (0, 12, NUM_NODES)

    def test_over_cap_batch_is_bit_identical(self, model):
        """A batch above the cap takes the exact-shape path, unpadded."""
        compiled = CompiledModel(model, bucket_batches=4)
        rng = np.random.default_rng(89)
        x = rng.normal(size=(9, 12, NUM_NODES, 1))
        assert np.array_equal(compiled(x), _reference(model, x))
        assert [stats.input_shape[0] for stats in compiled.plan_stats()] == [9]

    def test_pad_helper_leaves_edge_shapes_alone(self):
        from repro.runtime.engine import pad_batch_to_bucket

        empty = np.zeros((0, 3))
        padded, trim = pad_batch_to_bucket(empty, 16)
        assert padded is empty and trim is None
        over = np.zeros((20, 3))
        padded, trim = pad_batch_to_bucket(over, 16)
        assert padded is over and trim is None


class TestServingPathsPassRaggedThrough:
    """ForecastService / MicroBatcher need no changes: any coalesced batch
    size funnels into the bucketed CompiledModel unchanged."""

    def test_micro_batcher_over_compiled_model(self, model):
        from repro.serving import MicroBatcher

        compiled = compile_module(model)
        batcher = MicroBatcher(compiled, max_batch_size=64)
        rng = np.random.default_rng(87)
        windows = rng.normal(size=(5, 12, NUM_NODES, 1))
        pending = [batcher.submit(window) for window in windows]
        batcher.flush()
        produced = np.stack([handle.result() for handle in pending], axis=0)
        assert np.array_equal(produced, _reference(model, windows))
        # 5 requests coalesced into one flush, served by the bucket-8 plan.
        assert batcher.stats.flushes == 1
        assert [stats.input_shape[0] for stats in compiled.plan_stats()] == [8]


class TestReplayTiles:
    """Batches above the replay tile replay the tile plan over row tiles.

    The 7-node model's rows are 6,720 bytes wide, so the default budget
    gives a 128-row tile (which is why the shape pins above still hold);
    these tests shrink the budget to a 4-row tile.
    """

    TILE = 4

    @pytest.fixture()
    def row_bytes(self, model):
        return plan_row_bytes(compile_plan(model, np.zeros((1, 12, NUM_NODES, 1))).spec)

    @pytest.fixture()
    def small_budget(self, row_bytes, monkeypatch):
        monkeypatch.setattr(engine, "TILE_BUDGET_BYTES", self.TILE * row_bytes)

    def test_default_budget_keeps_the_bucket_plans(self, model, row_bytes):
        assert row_bytes == 6720
        assert replay_tile(row_bytes) == 128
        compiled = compile_module(model)
        assert compiled.tile_rows((100, 12, NUM_NODES, 1)) == 128

    def test_ragged_batches_are_bit_exact(self, model, small_budget):
        compiled = compile_module(model)
        rng = np.random.default_rng(90)
        for batch in RAGGED_BATCHES:
            x = rng.normal(size=(batch, 12, NUM_NODES, 1))
            produced = compiled(x)
            assert produced.shape[0] == batch
            assert np.array_equal(produced, _reference(model, x))

    def test_plan_cache_holds_only_tile_sized_plans(self, model, small_budget):
        compiled = compile_module(model)
        rng = np.random.default_rng(91)
        for batch in RAGGED_BATCHES:
            compiled(rng.normal(size=(batch, 12, NUM_NODES, 1)))
        # 17 = 4 tiles + 1 row, 100 = 25 tiles: every shape is <= the tile.
        shapes = sorted(stats.input_shape[0] for stats in compiled.plan_stats())
        assert shapes == [1, 4]

    def test_large_batch_compiles_no_large_plan(self, model, small_budget):
        compiled = compile_module(model)
        x = np.random.default_rng(92).normal(size=(1000, 12, NUM_NODES, 1))
        assert np.array_equal(compiled(x), _reference(model, x))
        assert [stats.input_shape[0] for stats in compiled.plan_stats()] == [self.TILE]
        info = compiled.cache_info()
        # One tile plan, plus one one-row probe that sized the tile.
        assert (info.compiles, info.tile_probes) == (1, 1)

    def test_compile_for_reports_the_tile_plan(self, model, small_budget):
        compiled = compile_module(model)
        stats = compiled.compile_for(np.zeros((1000, 12, NUM_NODES, 1)))
        assert stats.input_shape[0] == self.TILE
        assert compiled.tile_rows((1000, 12, NUM_NODES, 1)) == self.TILE
        # The tile plan then serves a large batch without another compile.
        compiled(np.zeros((64, 12, NUM_NODES, 1)))
        assert compiled.cache_info().compiles == 1

    def test_cached_row_plan_sizes_the_tile_without_a_probe(self, model, small_budget):
        compiled = compile_module(model)
        rng = np.random.default_rng(93)
        compiled(rng.normal(size=(1, 12, NUM_NODES, 1)))
        compiled(rng.normal(size=(9, 12, NUM_NODES, 1)))
        assert compiled.cache_info().tile_probes == 0
        assert sorted(stats.input_shape[0] for stats in compiled.plan_stats()) == [1, 4]
