"""Replay tiles are invisible in the numbers: generated-input proof.

A batch larger than the replay tile is served by replaying the tile plan
over consecutive row tiles.  That is only sound because the DyHSL forward
is batch-invariant (every ``tensordot_last`` contracts each leading-batch
slice with its own fixed-shape GEMM), so these properties are checked on
random small DyHSL configurations, batch sizes and tiles:

* the tiled float64 output equals the autograd forward of the *whole*
  batch with ``max|diff| == 0``;
* row ``i`` of it equals the autograd forward of ``x[i:i+1]`` alone;
* a tiled float32 plan stays inside the documented rtol/atol 1e-4.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import DyHSL, DyHSLConfig
from repro.runtime import CompiledModel, compile_plan, plan_row_bytes
from repro.runtime import engine
from repro.tensor import Tensor, no_grad
from repro.tensor import seed as seed_everything

_settings = settings(max_examples=25, deadline=None)


@st.composite
def configs(draw):
    nodes = draw(st.integers(min_value=2, max_value=7))
    windows = draw(
        st.lists(st.sampled_from((2, 3, 4, 6, 12)), max_size=2, unique=True)
    )
    return DyHSLConfig(
        num_nodes=nodes,
        # 16 makes the output-head GEMM 32 deep, where BLAS kernels switch
        # with the row count.
        hidden_dim=draw(st.sampled_from((2, 5, 8, 16))),
        prior_layers=draw(st.integers(min_value=0, max_value=2)),
        num_hyperedges=draw(st.integers(min_value=1, max_value=5)),
        window_sizes=tuple(sorted({1, *windows})),
        mhce_layers=draw(st.integers(min_value=1, max_value=2)),
        structure_learning=draw(st.sampled_from(("low_rank", "static", "from_scratch"))),
    )


@st.composite
def cases(draw):
    """(config, seed, batch, tile): tile is a power of two up to the batch."""
    config = draw(configs())
    batch = draw(st.integers(min_value=1, max_value=40))
    tile = 1 << draw(st.integers(min_value=0, max_value=batch.bit_length() - 1))
    return config, draw(st.integers(min_value=0, max_value=2**16)), batch, tile


def _build(config: DyHSLConfig, seed: int):
    seed_everything(seed)
    rng = np.random.default_rng(seed)
    adjacency = (rng.random((config.num_nodes, config.num_nodes)) < 0.5).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return DyHSL(config, adjacency).eval(), rng


def _autograd(model, x):
    with no_grad():
        return model(Tensor(x)).data


def _tiled(model, tile: int, precision: str = "float64"):
    """A CompiledModel and a budget patch admitting exactly ``tile`` rows."""
    row = np.zeros((1, 12, model.config.num_nodes, 1))
    row_bytes = plan_row_bytes(compile_plan(model, row, dtype=np.dtype(precision)).spec)
    budget = mock.patch.object(engine, "TILE_BUDGET_BYTES", tile * row_bytes)
    return CompiledModel(model, precision=precision), budget


#: A 90-sensor head GEMM over 40 rows (3,600 x 32 @ 32 x 12) is large enough
#: for one flattened GEMM to switch BLAS kernels, which the small generated
#: configurations never reach: it pins the failure a flattened product has.
_WIDE_CASE = (
    DyHSLConfig(
        num_nodes=90, hidden_dim=16, prior_layers=1, num_hyperedges=4,
        window_sizes=(1, 12), mhce_layers=1,
    ),
    7,
    40,
    4,
)


@_settings
@given(cases())
@example(_WIDE_CASE)
def test_tiled_float64_equals_autograd_on_the_whole_batch(case):
    config, seed, batch, tile = case
    model, rng = _build(config, seed)
    x = rng.normal(size=(batch, 12, config.num_nodes, 1))
    compiled, budget = _tiled(model, tile)
    with budget:
        produced = compiled(x)
        assert compiled.tile_rows(x.shape) == tile
    assert all(stats.input_shape[0] <= tile for stats in compiled.plan_stats())
    assert np.abs(produced - _autograd(model, x)).max() == 0.0
    for row in range(batch):
        assert np.array_equal(produced[row], _autograd(model, x[row : row + 1])[0])


@_settings
@given(cases())
def test_tiled_float32_within_the_tolerance_contract(case):
    config, seed, batch, tile = case
    model, rng = _build(config, seed)
    x = rng.normal(size=(batch, 12, config.num_nodes, 1))
    compiled, budget = _tiled(model, tile, precision="float32")
    with budget:
        produced = compiled(x)
        assert compiled.tile_rows(x.shape) == tile
    assert produced.dtype == np.float64
    np.testing.assert_allclose(produced, _autograd(model, x), rtol=1e-4, atol=1e-4)
