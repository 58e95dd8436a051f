"""Training loop for neural forecasting models.

The trainer reproduces the optimisation protocol of Section V-A4: Adam with
learning rate ``1e-3``, batch size 32, MAE loss on the (normalised) model
outputs, with early stopping on the validation MAE and restoration of the
best weights.  Epoch counts and batch sizes are configurable because the
CPU-scale benchmark harness trains far shorter runs than the paper's 100
GPU epochs.

Conventions
-----------
* models consume normalised inputs ``(batch, T, N, F)`` and produce
  normalised predictions ``(batch, T', N)``;
* targets handed to the trainer are on the **original** scale; the trainer
  normalises them with the pipeline's scaler for the loss and
  inverse-transforms predictions for metric reporting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..data.loaders import DataLoader, ForecastingData
from ..nn import MaskedMAELoss, Module
from ..optim import Adam, clip_grad_norm
from ..tensor import Tensor, no_grad
from .checkpoints import InMemoryCheckpoint
from .early_stopping import EarlyStopping
from .metrics import ForecastMetrics, evaluate_forecast

__all__ = ["TrainerConfig", "TrainingHistory", "Trainer"]


@dataclass
class TrainerConfig:
    """Optimisation hyperparameters.

    The defaults mirror the paper; ``max_epochs`` is deliberately small so
    CPU experiments stay tractable — increase it for full runs.
    """

    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 32
    max_epochs: int = 30
    gradient_clip: Optional[float] = 5.0
    patience: int = 10
    null_value: Optional[float] = 0.0
    shuffle: bool = True
    verbose: bool = False
    #: Replay the training forward through the compiled runtime when the
    #: model is eligible (no active dropout / batch norm — see
    #: :func:`repro.runtime.plan_trainable`); ineligible models fall back
    #: to plain autograd automatically.  ``REPRO_RUNTIME=autograd`` also
    #: disables it.
    compiled_training: bool = True
    #: Execution-precision policy of the *inference* plans behind
    #: :meth:`Trainer.predict` / :meth:`Trainer.evaluate` (``"float64"`` /
    #: ``"float32"``; ``None`` consults ``REPRO_RUNTIME_PRECISION``).
    #: Training forwards and gradients always run float64 — the optimiser's
    #: accumulation precision is not a serving knob.
    inference_precision: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_epochs <= 0 or self.batch_size <= 0:
            raise ValueError("max_epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainingHistory:
    """Per-epoch records produced by :meth:`Trainer.fit`."""

    train_loss: List[float] = field(default_factory=list)
    validation_mae: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    best_epoch: Optional[int] = None

    @property
    def num_epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)

    @property
    def mean_epoch_seconds(self) -> float:
        """Average wall-clock seconds per epoch (Table IV's training time)."""
        return float(np.mean(self.epoch_seconds)) if self.epoch_seconds else 0.0


class Trainer:
    """Train and evaluate a neural forecasting model on a data pipeline.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module` mapping ``(B, T, N, F)`` to ``(B, T', N)``.
    data:
        The preprocessed forecasting data pipeline.
    config:
        Optimisation settings.
    """

    def __init__(self, model: Module, data: ForecastingData, config: Optional[TrainerConfig] = None) -> None:
        self.model = model
        self.data = data
        self.config = config or TrainerConfig()
        self.loss_fn = MaskedMAELoss(null_value=None)
        self.optimizer = Adam(
            model.parameters(), lr=self.config.learning_rate, weight_decay=self.config.weight_decay
        )
        self.history = TrainingHistory()
        # Compiled-plan caches.  Inference plans fold parameter-derived
        # constants, so they are keyed by a parameter-version token and
        # rebuilt after weight updates; the training runtime captures
        # parameters by reference (nothing folded) and never goes stale.
        self._inference_runtime = None
        self._inference_token = None
        self._training_runtime = None
        self._training_runtime_resolved = False

    # ------------------------------------------------------------------
    def _normalise_targets(self, targets: np.ndarray) -> np.ndarray:
        return self.data.scaler.transform(targets)

    def _train_epoch(self, loader: DataLoader) -> float:
        """One optimisation pass over the training split.

        When the model is eligible (see :attr:`TrainerConfig.compiled_training`)
        the forward replays the fused kernel plan of the compiled training
        runtime: autograd re-attaches only at the loss boundary (the
        predictions become a leaf tensor), and the plan's recorded-tape
        backward routes ``d loss / d predictions`` to the parameter
        gradients — after which clipping and the optimiser run unchanged.
        """
        self.model.train()
        runtime = self._training_forward_runtime()
        losses: List[float] = []
        for inputs, targets in loader:
            self.optimizer.zero_grad()
            step = None
            if runtime is not None:
                step = runtime.step(inputs)
                predictions = Tensor(step.predictions, requires_grad=True)
            else:
                predictions = self.model(Tensor(inputs))
            loss = self.loss_fn(predictions, Tensor(self._normalise_targets(targets)))
            loss.backward()
            if step is not None:
                step.backward(predictions.grad)
            if self.config.gradient_clip is not None:
                clip_grad_norm(self.optimizer.parameters, self.config.gradient_clip)
            self.optimizer.step()
            losses.append(loss.item())
        return float(np.mean(losses)) if losses else 0.0

    def _training_forward_runtime(self):
        """The compiled training runtime, or ``None`` for plain autograd."""
        if not self.config.compiled_training:
            return None
        from ..runtime import resolve_runtime_mode

        if resolve_runtime_mode(None) != "compiled":
            return None
        if not self._training_runtime_resolved:
            self._training_runtime_resolved = True
            from ..runtime import compile_training_model, plan_trainable

            if plan_trainable(self.model)[0]:
                self._training_runtime = compile_training_model(self.model)
        return self._training_runtime

    def predict(
        self,
        inputs: np.ndarray,
        batch_size: Optional[int] = None,
        runtime: Optional[str] = None,
    ) -> np.ndarray:
        """Predict raw-scale flow for an array of input windows.

        Inference runs through the graph-free compiled runtime by default
        (``runtime="autograd"`` or ``REPRO_RUNTIME=autograd`` falls back to
        plain ``no_grad`` forwards; both agree within 1e-10).  The compiled
        model is cached against a parameter-version token
        ``(optimizer.step_count, model.weights_version)``: repeated
        ``predict`` / ``evaluate`` calls between weight updates reuse the
        same plans instead of re-tracing per call, and any ``step()`` or
        ``load_state_dict`` invalidates the cache (direct in-place edits of
        ``parameter.data`` bypass the token — mutate through the optimiser
        or a state dict, or construct a fresh trainer).

        Parameters
        ----------
        inputs:
            Normalised windows of shape ``(samples, T, N, F)``.
        batch_size:
            Prediction batch size (defaults to the training batch size).
        runtime:
            ``"compiled"``, ``"autograd"`` or ``None`` (environment /
            compiled default) — see :func:`repro.runtime.resolve_runtime_mode`.

        Returns
        -------
        numpy.ndarray
            Predictions of shape ``(samples, T', N)`` on the original scale.
        """
        from ..runtime import resolve_runtime_mode

        self.model.eval()
        batch_size = batch_size or self.config.batch_size
        compiled = (
            self._compiled_for_inference()
            if resolve_runtime_mode(runtime) == "compiled"
            else None
        )
        outputs: List[np.ndarray] = []
        with no_grad():
            for start in range(0, inputs.shape[0], batch_size):
                batch = inputs[start:start + batch_size]
                if compiled is not None:
                    outputs.append(compiled(batch))
                else:
                    outputs.append(self.model(Tensor(batch)).data)
        stacked = np.concatenate(outputs, axis=0) if outputs else np.empty((0,))
        return self.data.inverse_transform(stacked)

    def _compiled_for_inference(self):
        """Version-cached :class:`~repro.runtime.CompiledModel` of the model.

        Inference plans bake folded parameter values, so the cache key is
        the parameter-version token; a stale token drops every plan and
        recompiles lazily on the next forward.
        """
        from ..runtime import compile_module

        token = (self.optimizer.step_count, self.model.weights_version)
        if self._inference_runtime is None or self._inference_token != token:
            self._inference_runtime = compile_module(
                self.model, precision=self.config.inference_precision
            )
            self._inference_token = token
        return self._inference_runtime

    def evaluate(self, split: str = "test") -> ForecastMetrics:
        """Evaluate MAE / RMSE / MAPE on one split (original scale)."""
        split_data = getattr(self.data, split)
        predictions = self.predict(split_data.inputs)
        return evaluate_forecast(predictions, split_data.targets, null_value=self.config.null_value)

    # ------------------------------------------------------------------
    def fit(self) -> TrainingHistory:
        """Run the full training loop with early stopping.

        Returns the per-epoch history; the model is left holding the weights
        of its best validation epoch.
        """
        config = self.config
        train_loader = self.data.train.loader(batch_size=config.batch_size, shuffle=config.shuffle)
        stopper = EarlyStopping(patience=config.patience)
        checkpoint = InMemoryCheckpoint()

        for epoch in range(1, config.max_epochs + 1):
            started = time.perf_counter()
            train_loss = self._train_epoch(train_loader)
            validation = self.evaluate(split="validation")
            elapsed = time.perf_counter() - started

            self.history.train_loss.append(train_loss)
            self.history.validation_mae.append(validation.mae)
            self.history.epoch_seconds.append(elapsed)

            improved = stopper.update(validation.mae)
            if improved:
                checkpoint.save(self.model, epoch=epoch, validation_mae=validation.mae)
                self.history.best_epoch = epoch
            if config.verbose:
                print(
                    f"epoch {epoch:3d}  loss {train_loss:.4f}  val MAE {validation.mae:.3f}"
                    f"  ({elapsed:.1f}s){'  *' if improved else ''}"
                )
            if stopper.should_stop:
                break

        if checkpoint.has_snapshot:
            checkpoint.restore(self.model)
        return self.history
