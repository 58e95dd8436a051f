"""DCRNN baseline (Li et al., ICLR 2018).

Diffusion Convolutional Recurrent Neural Network: a GRU whose gate
transformations are replaced by diffusion convolutions over the road graph
(random-walk transition matrices in both directions, up to ``K`` hops).
The original model is a sequence-to-sequence architecture with scheduled
sampling; this reproduction keeps the diffusion-convolutional encoder and
replaces the autoregressive decoder with a direct multi-horizon projection,
which preserves the model's characteristic spatial operator while keeping
CPU training tractable.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..graph.adjacency import validate_adjacency
from ..nn import Linear, Module, Parameter
from ..tensor import Tensor, init, ops

__all__ = ["DiffusionConv", "DCGRUCell", "DCRNN"]


def _random_walk_matrices(adjacency: np.ndarray) -> List[np.ndarray]:
    """Forward and backward random-walk transition matrices."""
    adjacency = validate_adjacency(adjacency)
    out_degree = adjacency.sum(axis=1)
    in_degree = adjacency.sum(axis=0)
    forward = np.divide(adjacency, np.maximum(out_degree, 1e-8)[:, None])
    backward = np.divide(adjacency.T, np.maximum(in_degree, 1e-8)[:, None])
    return [forward, backward]


class DiffusionConv(Module):
    """Bidirectional K-hop diffusion convolution.

    Computes ``sum_{direction} sum_{k=0..K} P_direction^k X W_{direction,k}``
    for input ``(..., N, C)``.
    """

    def __init__(self, adjacency: np.ndarray, in_channels: int, out_channels: int, max_diffusion_step: int = 2) -> None:
        super().__init__()
        if max_diffusion_step < 1:
            raise ValueError("max_diffusion_step must be at least 1")
        self.max_diffusion_step = max_diffusion_step
        supports: List[np.ndarray] = [np.eye(adjacency.shape[0])]
        for transition in _random_walk_matrices(adjacency):
            power = np.eye(adjacency.shape[0])
            for _ in range(max_diffusion_step):
                power = power @ transition
                supports.append(power.copy())
        self._supports = [Tensor(support) for support in supports]
        self.weight = Parameter(
            init.xavier_uniform((len(supports) * in_channels, out_channels)), name="diffusion_weight"
        )
        self.bias = Parameter(init.zeros((out_channels,)), name="diffusion_bias")

    def forward(self, x: Tensor) -> Tensor:
        propagated = [support.matmul(x) for support in self._supports]
        stacked = ops.concatenate(propagated, axis=-1)
        return ops.tensordot_last(stacked, self.weight) + self.bias


class DCGRUCell(Module):
    """GRU cell whose gates use diffusion convolution instead of dense maps."""

    def __init__(self, adjacency: np.ndarray, input_dim: int, hidden_dim: int, max_diffusion_step: int = 2) -> None:
        super().__init__()
        self.hidden_dim = hidden_dim
        self.gate_conv = DiffusionConv(adjacency, input_dim + hidden_dim, 2 * hidden_dim, max_diffusion_step)
        self.candidate_conv = DiffusionConv(adjacency, input_dim + hidden_dim, hidden_dim, max_diffusion_step)

    def forward(self, x: Tensor, hidden: Optional[Tensor] = None) -> Tensor:
        """Update the hidden state for input ``(B, N, F)`` and state ``(B, N, H)``."""
        if hidden is None:
            hidden = Tensor(np.zeros(x.shape[:-1] + (self.hidden_dim,)))
        combined = ops.concatenate([x, hidden], axis=-1)
        gates = self.gate_conv(combined).sigmoid()
        reset, update = gates[..., : self.hidden_dim], gates[..., self.hidden_dim:]
        candidate_input = ops.concatenate([x, reset * hidden], axis=-1)
        candidate = self.candidate_conv(candidate_input).tanh()
        return update * hidden + (1.0 - update) * candidate


class DCRNN(Module):
    """Diffusion-convolutional recurrent forecaster.

    Parameters
    ----------
    adjacency:
        Road-network adjacency ``(N, N)``.
    input_dim:
        Raw feature dimension ``F``.
    hidden_dim:
        Hidden width of the DCGRU.
    horizon:
        Forecast horizon ``T'``.
    max_diffusion_step:
        Number of diffusion hops ``K``.
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        input_dim: int = 1,
        hidden_dim: int = 32,
        horizon: int = 12,
        max_diffusion_step: int = 2,
    ) -> None:
        super().__init__()
        self.cell = DCGRUCell(adjacency, input_dim, hidden_dim, max_diffusion_step)
        self.head = Linear(hidden_dim, horizon)
        self.horizon = horizon

    def forward(self, x: Tensor) -> Tensor:
        """Forecast from ``(B, T, N, F)`` to ``(B, T', N)``."""
        steps = x.shape[1]
        hidden = None
        for step in range(steps):
            hidden = self.cell(x[:, step], hidden)
        return self.head(hidden).swapaxes(-1, -2)
