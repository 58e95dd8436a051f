"""The block form of a constant sparse matrix and its cost-model choice.

``SparseMatrix.block_form`` derives, from the CSR alone, a stack of dense
``b x b`` diagonal blocks plus the band of entries exactly ``b`` off the
diagonal; ``repro.tensor.kernels.spmm`` runs it as one stacked GEMM plus an
in-place band pass whenever ``M * b <= BLOCK_COST_RATIO * nnz``.  These
tests pin the detection rule, the cost model's choice on the repository's
graph fixtures, the numerics (CSR agreement, batch invariance, gradients)
and the end-to-end compiled == autograd contract on a dense graph.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DyHSL, DyHSLConfig
from repro.data import load_dataset
from repro.graph import SparseMatrix, normalized_temporal_adjacency, sparse_matmul
from repro.graph.road_network import corridor_road_network
from repro.graph.sparse import BLOCK_COST_RATIO, _build_block_form
from repro.runtime import artifacts, build_plan_spec, compile_module
from repro.tensor import Tensor, kernels as K, no_grad, seed as seed_everything

#: The pooled sequence lengths of DyHSL's six scales (window sizes 1..12).
SCALES = (12, 6, 4, 3, 2, 1)


def _random_adjacency(nodes: int, density: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    adjacency = (rng.random((nodes, nodes)) < density).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


def _assembled(form, size: int) -> np.ndarray:
    """The dense matrix a block form describes."""
    steps = form.blocks.shape[0]
    dense = np.zeros((steps * size, steps * size))
    for t, block in enumerate(form.blocks):
        dense[t * size : (t + 1) * size, t * size : (t + 1) * size] = block
    if form.band is not None:
        dense += form.band.toarray()
    return dense


def _relative_error(produced: np.ndarray, expected: np.ndarray) -> float:
    scale = float(np.abs(expected).max()) or 1.0
    return float(np.abs(produced - expected).max()) / scale


@pytest.fixture(scope="module")
def road_170() -> np.ndarray:
    dataset = load_dataset("PEMS08", node_scale=1.0, step_scale=0.05, seed=7)
    return np.asarray(dataset.adjacency, dtype=float)


class TestDetection:
    @settings(max_examples=40, deadline=None)
    @given(
        nodes=st.integers(1, 12),
        steps=st.integers(2, 6),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_temporal_graphs_have_block_size_n(self, nodes, steps, density, seed):
        matrix = SparseMatrix(
            normalized_temporal_adjacency(_random_adjacency(nodes, density, seed), steps)
        )
        assert matrix.block_size == nodes
        form = _build_block_form(matrix.csr, nodes)
        assert form.blocks.shape == (steps, nodes, nodes)
        assert form.band.nnz == 2 * (steps - 1) * nodes
        assert np.array_equal(_assembled(form, nodes), matrix.to_dense())

    @settings(max_examples=40, deadline=None)
    @given(nodes=st.integers(3, 12), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    def test_one_time_step_is_a_single_block(self, nodes, density, seed):
        adjacency = _random_adjacency(nodes, density, seed)
        # Close the ring: the widest offset is then N - 1, which does not
        # divide N, so no finer block structure can exist.
        adjacency[0, nodes - 1] = adjacency[nodes - 1, 0] = 1.0
        matrix = SparseMatrix(normalized_temporal_adjacency(adjacency, 1))
        assert matrix.block_size == nodes
        form = _build_block_form(matrix.csr, nodes)
        assert form.blocks.shape == (1, nodes, nodes) and form.band is None
        assert np.array_equal(_assembled(form, nodes), matrix.to_dense())

    def test_a_banded_pattern_finds_its_finer_blocks(self):
        """Detection reads the pattern, not how it was built: a chain of
        pairs is 2x2 blocks plus a +-2 band even at one time step."""
        dense = np.eye(6)
        for row in range(0, 6, 2):
            dense[row, row + 1] = dense[row + 1, row] = 0.5
        dense[0, 2] = dense[3, 1] = 0.25
        assert SparseMatrix(dense).block_size == 2

    def test_non_square_and_empty_stay_csr(self):
        rng = np.random.default_rng(0)
        non_square = SparseMatrix(rng.random((6, 4)))
        empty = SparseMatrix(np.zeros((6, 6)))
        for matrix in (non_square, empty):
            assert matrix.block_size is None
            assert matrix.block_form() is None

    def test_non_conforming_patterns_are_one_block(self):
        # A link two steps apart breaks the +-N band.
        temporal = normalized_temporal_adjacency(_random_adjacency(5, 0.3, 1), 4)
        temporal[0, 12] = 0.5
        assert SparseMatrix(temporal).block_size == 20
        # A diagonal matrix has no b x b blocks at all (max offset 0).
        assert SparseMatrix(np.diag(np.arange(1.0, 7.0))).block_size == 6

    def test_sparse_non_conforming_stays_csr_dense_goes_blocked(self):
        rng = np.random.default_rng(3)
        sparse = np.zeros((60, 60))
        sparse[rng.integers(0, 60, 40), rng.integers(0, 60, 40)] = 1.0
        matrix = SparseMatrix(sparse)
        assert matrix.block_size == 60
        assert matrix.block_form() is None
        dense = SparseMatrix((rng.random((7, 7)) < 0.4) * rng.normal(size=(7, 7)))
        form = dense.block_form()
        assert form is not None and form.blocks.shape == (1, 7, 7) and form.band is None


class TestCostModel:
    @staticmethod
    def _choices(adjacency: np.ndarray):
        for steps in SCALES:
            matrix = SparseMatrix(normalized_temporal_adjacency(adjacency, steps))
            ratio = matrix.shape[0] * matrix.block_size / matrix.nnz
            yield steps, ratio, matrix.block_form() is not None

    def test_road_170_stays_csr_at_every_scale(self, road_170):
        assert road_170.shape == (170, 170)
        for steps, ratio, blocked in self._choices(road_170):
            assert not blocked, (steps, ratio)
            assert ratio > BLOCK_COST_RATIO

    def test_corridor_network_stays_csr_at_every_scale(self):
        adjacency = corridor_road_network(170, seed=7).adjacency
        for steps, ratio, blocked in self._choices(adjacency):
            assert not blocked, (steps, ratio)

    def test_random_85_goes_blocked_at_every_scale(self):
        for steps, ratio, blocked in self._choices(_random_adjacency(85, 0.4, 7)):
            assert blocked, (steps, ratio)
            assert ratio < 3.0


class TestNumerics:
    @settings(max_examples=30, deadline=None)
    @given(
        nodes=st.integers(2, 10),
        steps=st.integers(1, 5),
        density=st.floats(0.3, 1.0),
        features=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_blocked_matches_csr_to_rounding(self, nodes, steps, density, features, seed):
        matrix = SparseMatrix(
            normalized_temporal_adjacency(_random_adjacency(nodes, density, seed), steps)
        )
        assert matrix.block_form() is not None
        operand = np.random.default_rng(seed).normal(size=(3, matrix.shape[1], features))
        expected = np.stack([matrix.csr @ page for page in operand])
        assert _relative_error(K.spmm(operand, matrix=matrix), expected) <= 1e-12

    @pytest.mark.parametrize("batch", [1, 2, 3, 8])
    def test_batched_call_equals_per_page_calls(self, batch):
        matrix = SparseMatrix(normalized_temporal_adjacency(_random_adjacency(9, 0.4, 2), 4))
        assert matrix.block_form() is not None
        operand = np.random.default_rng(batch).normal(size=(batch, 36, 5))
        batched = K.spmm(operand, matrix=matrix)
        per_page = np.stack([K.spmm(page, matrix=matrix) for page in operand])
        assert np.array_equal(batched, per_page)
        out = np.full_like(batched, np.nan)
        assert K.spmm(operand, out=out, matrix=matrix) is out
        assert np.array_equal(out, batched)

    def test_out_call_allocates_no_temporaries(self):
        matrix = SparseMatrix(normalized_temporal_adjacency(_random_adjacency(20, 0.4, 4), 6))
        assert matrix.block_form() is not None and matrix.block_form().band is not None
        operand = np.random.default_rng(4).normal(size=(8, 120, 16))
        out = np.empty_like(operand)
        K.spmm(operand, out=out, matrix=matrix)
        tracemalloc.start()
        try:
            K.spmm(operand, out=out, matrix=matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes // 8, peak

    @pytest.mark.parametrize("graph", ["random-12", "corridor-40"])
    def test_every_variant_chooses_the_same_form(self, graph):
        if graph == "random-12":
            adjacency = _random_adjacency(12, 0.4, 5)
        else:
            adjacency = corridor_road_network(40, seed=5).adjacency
        matrix = SparseMatrix(normalized_temporal_adjacency(adjacency, 4))
        assert (matrix.block_form() is not None) == (graph == "random-12")
        arrays = {}
        decoded = artifacts._decode(artifacts._encode(matrix, arrays), arrays)
        for variant in (matrix.with_dtype(np.float32), matrix.transposed(), decoded):
            assert variant.block_size == matrix.block_size
            assert (variant.block_form() is None) == (matrix.block_form() is None)
        form = matrix.block_form()
        if form is not None:
            transposed = matrix.transposed().block_form()
            assert np.array_equal(transposed.blocks, form.blocks.transpose(0, 2, 1))
            assert np.array_equal(decoded.block_form().blocks, form.blocks)
            assert matrix.with_dtype(np.float32).block_form().blocks.dtype == np.float32

    def test_gradient_through_a_blocked_matrix_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        matrix = SparseMatrix(normalized_temporal_adjacency(_random_adjacency(3, 0.7, 6), 3))
        assert matrix.block_form() is not None
        operand = rng.normal(size=(2, 9, 2))
        weights = rng.normal(size=(2, 9, 2))

        def loss(values):
            return float((sparse_matmul(matrix, Tensor(values)).numpy() ** 2 * weights).sum())

        x = Tensor(operand.copy(), requires_grad=True)
        out = sparse_matmul(matrix, x)
        ((out * out) * Tensor(weights)).sum().backward()
        numerical = np.zeros_like(operand)
        eps = 1e-6
        for index in np.ndindex(operand.shape):
            shifted = operand.copy()
            shifted[index] += eps
            plus = loss(shifted)
            shifted[index] -= 2 * eps
            numerical[index] = (plus - loss(shifted)) / (2 * eps)
        np.testing.assert_allclose(x.grad, numerical, rtol=1e-6, atol=1e-8)


class TestDenseGraphModel:
    """DyHSL on a 40%-dense graph: every temporal matrix runs blocked, and
    the compiled runtime still reproduces autograd exactly."""

    @pytest.fixture(scope="class")
    def model(self):
        seed_everything(11)
        config = DyHSLConfig(
            num_nodes=40, hidden_dim=16, prior_layers=2, num_hyperedges=8,
            window_sizes=(1, 2, 3, 4, 6, 12), mhce_layers=2,
        )
        return DyHSL(config, _random_adjacency(40, 0.4, 11)).eval()

    def test_every_temporal_matrix_runs_blocked(self, model):
        spec, _ = build_plan_spec(model, np.zeros((1, 12, 40, 1)))
        matrices = [step.kwargs["matrix"] for step in spec.steps if step.name == "spmm"]
        assert len(matrices) == 2 + 6 * 2
        assert all(matrix.block_form() is not None for matrix in matrices)

    def test_tiled_compiled_forward_equals_autograd(self, model):
        windows = np.random.default_rng(11).normal(size=(64, 12, 40, 1))
        with no_grad():
            reference = model(Tensor(windows)).data
        compiled = compile_module(model)
        assert compiled.tile_rows(windows.shape) < 64
        assert float(np.abs(compiled(windows) - reference).max()) == 0.0
        float32 = compile_module(model, precision="float32")
        np.testing.assert_allclose(float32(windows), reference, rtol=1e-4, atol=1e-4)
