"""Classical statistical baselines: HA, ARIMA, VAR and SVR.

These implement the "traditional statistic-based methods" block of the
paper's Table III.  Each model keeps the per-window interface of
:class:`repro.baselines.base.StatisticalForecaster`: they are fitted on the
raw training signal and then forecast the next ``T'`` steps of every test
window independently.

Implementation notes
--------------------
* **ARIMA** is implemented as a per-node AR(p) model on the differenced
  series (i.e. ARIMA(p, d, 0)) fitted by ridge-regularised least squares —
  the moving-average terms of a full ARIMA require iterative maximum
  likelihood and add little on top of the AR terms for 5-minute traffic
  data.
* **SVR** is a linear support vector regressor on lagged features trained
  with sub-gradient descent on the ε-insensitive loss, shared across nodes.
  The original baseline uses an RBF kernel SVM; the linear version keeps the
  characteristic sparse-support behaviour while staying dependency-free.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor.random import fork_rng
from .base import StatisticalForecaster, build_lag_matrix

__all__ = ["HistoricalAverage", "ARIMAForecaster", "VARForecaster", "SVRForecaster"]


class HistoricalAverage(StatisticalForecaster):
    """Historical Average (HA).

    Predicts every future step as the average of the observed input window
    of the same node — the weighted-average formulation in the paper reduces
    to this when the only available history is the input window.
    """

    def _fit(self, signal: np.ndarray) -> None:
        # HA needs no global statistics; kept for interface symmetry.
        self._global_mean = float(signal.mean())

    def _forecast(self, windows: np.ndarray) -> np.ndarray:
        window_mean = windows.mean(axis=1, keepdims=True)  # (samples, 1, N)
        return np.repeat(window_mean, self.horizon, axis=1)


class ARIMAForecaster(StatisticalForecaster):
    """Per-node AR-integrated model (ARIMA(p, d, 0)).

    Parameters
    ----------
    order:
        Number of autoregressive lags ``p``.
    difference:
        Differencing order ``d`` (0 or 1).
    ridge:
        Ridge regularisation strength of the least-squares fit.
    horizon:
        Forecast horizon ``T'``.
    """

    def __init__(self, order: int = 3, difference: int = 1, ridge: float = 1e-3, horizon: int = 12) -> None:
        super().__init__(horizon)
        if order <= 0:
            raise ValueError("order must be positive")
        if difference not in (0, 1):
            raise ValueError("difference must be 0 or 1")
        self.order = order
        self.difference = difference
        self.ridge = ridge
        self.coefficients: Optional[np.ndarray] = None  # (N, order)
        self.intercepts: Optional[np.ndarray] = None  # (N,)

    def _fit(self, signal: np.ndarray) -> None:
        series = np.diff(signal, axis=0) if self.difference else signal
        num_nodes = signal.shape[1]
        coefficients = np.zeros((num_nodes, self.order))
        intercepts = np.zeros(num_nodes)
        eye = np.eye(self.order + 1) * self.ridge
        eye[0, 0] = 0.0  # do not regularise the intercept
        for node in range(num_nodes):
            design, target = build_lag_matrix(series[:, node], self.order)
            design = np.column_stack([np.ones(design.shape[0]), design])
            gram = design.T @ design + eye
            solution = np.linalg.solve(gram, design.T @ target)
            intercepts[node] = solution[0]
            coefficients[node] = solution[1:]
        self.coefficients = coefficients
        self.intercepts = intercepts

    def _forecast(self, windows: np.ndarray) -> np.ndarray:
        samples, length, num_nodes = windows.shape
        if length <= self.order + self.difference:
            raise ValueError("input window shorter than the AR order")
        series = np.diff(windows, axis=1) if self.difference else windows.copy()
        history = series[:, -self.order:, :]  # (samples, order, N)
        last_level = windows[:, -1, :]
        predictions = np.zeros((samples, self.horizon, num_nodes))
        for step in range(self.horizon):
            # lag 1 is the most recent value: reverse the history block.
            lags = history[:, ::-1, :]
            increment = self.intercepts[None, :] + np.einsum("spn,np->sn", lags, self.coefficients)
            if self.difference:
                last_level = last_level + increment
                predictions[:, step] = last_level
            else:
                predictions[:, step] = increment
            history = np.concatenate([history[:, 1:, :], increment[:, None, :]], axis=1)
        return np.clip(predictions, 0.0, None)


class VARForecaster(StatisticalForecaster):
    """Vector auto-regression over all nodes jointly.

    Parameters
    ----------
    order:
        Number of lags ``p``.
    ridge:
        Ridge regularisation (essential: the design has ``p * N`` columns).
    horizon:
        Forecast horizon ``T'``.
    """

    def __init__(self, order: int = 3, ridge: float = 1.0, horizon: int = 12) -> None:
        super().__init__(horizon)
        if order <= 0:
            raise ValueError("order must be positive")
        self.order = order
        self.ridge = ridge
        self.coefficients: Optional[np.ndarray] = None  # (p * N + 1, N)
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    def _fit(self, signal: np.ndarray) -> None:
        self._mean = signal.mean(axis=0)
        self._std = np.maximum(signal.std(axis=0), 1e-6)
        standardized = (signal - self._mean) / self._std
        design, target = build_lag_matrix(standardized, self.order)
        design = np.column_stack([np.ones(design.shape[0]), design])
        penalty = np.eye(design.shape[1]) * self.ridge
        penalty[0, 0] = 0.0
        gram = design.T @ design + penalty
        self.coefficients = np.linalg.solve(gram, design.T @ target)

    def _forecast(self, windows: np.ndarray) -> np.ndarray:
        samples, length, num_nodes = windows.shape
        if length < self.order:
            raise ValueError("input window shorter than the VAR order")
        standardized = (windows - self._mean[None, None, :]) / self._std[None, None, :]
        history = standardized[:, -self.order:, :]
        predictions = np.zeros((samples, self.horizon, num_nodes))
        for step in range(self.horizon):
            lags = history[:, ::-1, :].reshape(samples, -1)  # lag 1 first
            design = np.column_stack([np.ones(samples), lags])
            forecast = design @ self.coefficients
            predictions[:, step] = forecast
            history = np.concatenate([history[:, 1:, :], forecast[:, None, :]], axis=1)
        return np.clip(predictions * self._std[None, None, :] + self._mean[None, None, :], 0.0, None)


class SVRForecaster(StatisticalForecaster):
    """Linear ε-insensitive support vector regression on lagged features.

    A single regressor per forecast step is shared across nodes: the feature
    vector is the node's own lagged window (standardised), and the model is
    trained with stochastic sub-gradient descent on

    .. math::  \\frac{1}{2}\\lVert w \\rVert^2 + C \\sum_i \\max(0, |y_i - w^T x_i - b| - ε)

    Parameters
    ----------
    c:
        Soft-margin trade-off ``C``.
    epsilon:
        Width of the ε-insensitive tube.
    iterations:
        Number of sub-gradient epochs.
    max_samples:
        Training windows are subsampled to at most this many examples to
        keep the fit fast.
    """

    def __init__(
        self,
        c: float = 1.0,
        epsilon: float = 0.1,
        iterations: int = 80,
        learning_rate: float = 0.01,
        max_samples: int = 4000,
        order: int = 12,
        horizon: int = 12,
    ) -> None:
        super().__init__(horizon)
        self.c = c
        self.epsilon = epsilon
        self.iterations = iterations
        self.learning_rate = learning_rate
        self.max_samples = max_samples
        self.order = order
        self.weights: Optional[np.ndarray] = None  # (horizon, order)
        self.biases: Optional[np.ndarray] = None  # (horizon,)
        self._mean = 0.0
        self._std = 1.0
        self._rng = fork_rng(offset=71)

    def _fit(self, signal: np.ndarray) -> None:
        self._mean = float(signal.mean())
        self._std = float(max(signal.std(), 1e-6))
        standardized = (signal - self._mean) / self._std
        steps, num_nodes = standardized.shape
        usable = steps - self.order - self.horizon + 1
        if usable <= 0:
            raise ValueError("training signal too short for the SVR lag order and horizon")
        # Build (window, future) pairs pooled over nodes, then subsample.
        starts = np.arange(usable)
        features = np.stack([standardized[s:s + self.order] for s in starts], axis=0)  # (u, order, N)
        futures = np.stack(
            [standardized[s + self.order:s + self.order + self.horizon] for s in starts], axis=0
        )  # (u, horizon, N)
        features = features.transpose(0, 2, 1).reshape(-1, self.order)
        futures = futures.transpose(0, 2, 1).reshape(-1, self.horizon)
        if features.shape[0] > self.max_samples:
            chosen = self._rng.choice(features.shape[0], size=self.max_samples, replace=False)
            features, futures = features[chosen], futures[chosen]

        num_examples = features.shape[0]
        weights = np.zeros((self.horizon, self.order))
        biases = np.zeros(self.horizon)
        for step in range(self.horizon):
            w = np.zeros(self.order)
            b = 0.0
            target = futures[:, step]
            for iteration in range(self.iterations):
                lr = self.learning_rate / (1.0 + 0.05 * iteration)
                residual = features @ w + b - target
                outside = np.abs(residual) > self.epsilon
                sign = np.sign(residual) * outside
                grad_w = w + self.c * (features * sign[:, None]).sum(axis=0) / num_examples
                grad_b = self.c * sign.sum() / num_examples
                w -= lr * grad_w
                b -= lr * grad_b
            weights[step] = w
            biases[step] = b
        self.weights = weights
        self.biases = biases

    def _forecast(self, windows: np.ndarray) -> np.ndarray:
        samples, length, num_nodes = windows.shape
        if length < self.order:
            raise ValueError("input window shorter than the SVR lag order")
        standardized = (windows - self._mean) / self._std
        features = standardized[:, -self.order:, :].transpose(0, 2, 1).reshape(-1, self.order)
        outputs = features @ self.weights.T + self.biases[None, :]  # (samples*N, horizon)
        outputs = outputs.reshape(samples, num_nodes, self.horizon).transpose(0, 2, 1)
        return np.clip(outputs * self._std + self._mean, 0.0, None)
