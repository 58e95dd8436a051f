"""Batch-major sparse propagation in compiled plans.

``spmm`` reads ``(B, K, F)`` and writes a contiguous ``(B, M, F)``, so the
lowering needs no transpose of the batch into the feature axis and the
``Linear`` that follows reshapes its input as a view.  Contracts:

* a DyHSL plan holds **zero** ``reshape_copy`` steps and exactly one
  ``spmm`` step per prior-encoder layer and per IGC call — a lowering change
  that brings the layout copies back fails here;
* the compiled training tape records the same single 3-D ``spmm`` and its
  backward reproduces autograd's gradients bit for bit.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import DyHSL, DyHSLConfig
from repro.core.igc import InteractiveGraphConvolution
from repro.graph import SparseMatrix
from repro.nn import Module
from repro.runtime import build_plan_spec, compile_training_model
from repro.tensor import Tensor
from repro.tensor import seed as seed_everything

NODES = 9


def _ci_dyhsl(dropout: float = 0.1) -> DyHSL:
    """The small DyHSL of the CI smoke jobs."""
    seed_everything(7)
    rng = np.random.default_rng(7)
    adjacency = (rng.random((NODES, NODES)) < 0.45).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    config = DyHSLConfig(
        num_nodes=NODES, hidden_dim=12, prior_layers=2, num_hyperedges=6,
        window_sizes=(1, 3, 12), mhce_layers=2, dropout=dropout,
    )
    return DyHSL(config, adjacency)


def _expected_spmm_steps(config: DyHSLConfig) -> int:
    return config.prior_layers + len(config.window_sizes) * config.mhce_layers


class TestPlanShape:
    @pytest.mark.parametrize("fuse", [True, False])
    def test_no_layout_copies_and_one_spmm_per_propagation(self, fuse):
        model = _ci_dyhsl().eval()
        windows = np.random.default_rng(8).normal(size=(4, 12, NODES, 1))
        spec, _ = build_plan_spec(model, windows, fuse=fuse)
        kernels = Counter(step.name for step in spec.steps)
        assert kernels["reshape_copy"] == 0
        assert kernels["spmm"] == _expected_spmm_steps(model.config)
        for step in spec.steps:
            if step.name == "spmm":
                assert len(step.out_shape) == 3 and step.out_shape[0] == 4


class _IGCOnGraph(Module):
    """One IGC block over a fixed graph, as a single-input module."""

    def __init__(self, adjacency: np.ndarray, hidden_dim: int) -> None:
        super().__init__()
        self.block = InteractiveGraphConvolution(hidden_dim, dropout=0.0)
        self.adjacency = SparseMatrix(adjacency)

    def forward(self, hidden: Tensor) -> Tensor:
        return self.block(hidden, self.adjacency)


def _grads(module, x, backward):
    module.zero_grad()
    backward(module, x)
    grads = {name: p.grad.copy() for name, p in module.named_parameters()}
    module.zero_grad()
    return grads


def _autograd_backward(module, x):
    predictions = module(Tensor(x))
    (predictions * predictions).sum().backward()


def _tape_backward(module, x):
    step = compile_training_model(module).step(x)
    step.backward(2.0 * step.predictions)


class TestTrainingTape:
    def _spmm_steps(self, module, x):
        runtime = compile_training_model(module)
        runtime.step(x)
        plan = next(iter(runtime._plans.values()))
        names = [name for name, *_ in plan._steps]
        shapes = [buffer.shape for name, _, _, _, _, buffer in plan._steps if name == "spmm"]
        return names, shapes

    def test_dyhsl_tape_records_one_3d_spmm_per_propagation(self):
        model = _ci_dyhsl(dropout=0.0).train()
        names, shapes = self._spmm_steps(model, np.zeros((3, 12, NODES, 1)))
        assert "reshape_copy" not in names
        assert len(shapes) == _expected_spmm_steps(model.config)
        assert all(len(shape) == 3 and shape[0] == 3 for shape in shapes)

    def test_prior_encoder_gradients_are_bit_identical(self):
        encoder = _ci_dyhsl(dropout=0.0).prior_encoder.train()
        x = np.random.default_rng(10).normal(size=(3, 12, NODES, 12))
        reference = _grads(encoder, x, _autograd_backward)
        produced = _grads(encoder, x, _tape_backward)
        assert produced.keys() == reference.keys()
        for name, grad in produced.items():
            assert np.array_equal(grad, reference[name]), name

    def test_igc_block_gradients_are_bit_identical(self):
        rng = np.random.default_rng(11)
        adjacency = (rng.random((21, 21)) < 0.3) * rng.random((21, 21))
        seed_everything(11)
        module = _IGCOnGraph(adjacency, hidden_dim=10).train()
        x = rng.normal(size=(4, 21, 10))
        reference = _grads(module, x, _autograd_backward)
        produced = _grads(module, x, _tape_backward)
        assert produced.keys() == reference.keys()
        for name, grad in produced.items():
            assert np.array_equal(grad, reference[name]), name
