"""Seeded fixtures, generated at run start in the run's work directory.

Everything a workload needs comes from its seed: the synthetic PEMS08
flow (:func:`repro.data.load_dataset`), the adjacency, the DyHSL weights,
the scaler fitted on the first 60% of the flow, the self-describing
checkpoint (:func:`repro.training.save_model_checkpoint`) and the
sensor-fault schedule.  Nothing binary is committed and nothing is read
from the environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.core import DyHSL, DyHSLConfig
from repro.data import StandardScaler, load_dataset
from repro.tensor import seed as seed_library
from repro.training import save_model_checkpoint

__all__ = ["Fixture", "build_fixture", "apply_faults"]

#: Share of the flow the scaler is fitted on (the paper's training split).
TRAIN_SHARE = 0.6

#: The DyHSL configuration of every workload (the ROADMAP re-anchor model).
MODEL = dict(
    hidden_dim=16,
    prior_layers=2,
    num_hyperedges=8,
    window_sizes=(1, 2, 3, 4, 6, 12),
    mhce_layers=2,
)

#: Share of the synthetic PEMS08 time steps generated (1786 of 17856).
STEP_SCALE = 0.1

#: Steps between a faulty sensor's episodes, and an episode's length
#: (``[low, high)`` ranges the seed draws from).
FAULT_PERIOD = (20, 32)
FAULT_LENGTH = (8, 16)
#: The first episodes start within this many steps after the clean prefix.
FIRST_FAULT_SPREAD = 8


@dataclass
class Fixture:
    """The generated inputs of one run."""

    checkpoint: Path
    model: DyHSL
    adjacency: np.ndarray
    scaler: StandardScaler
    #: Raw flow ``(steps, N, 1)`` as the detectors report it, faults applied.
    stream: np.ndarray
    #: Clean raw flow ``(steps, N, 1)``; bulk windows are cut from it.
    history: np.ndarray
    #: ``(sensor, kind, first_step, period, length)`` per faulty sensor.
    faults: List[Tuple[int, str, int, int, int]] = field(default_factory=list)

    @property
    def config(self) -> DyHSLConfig:
        return self.model.config

    def stream_step(self, tick: int) -> np.ndarray:
        """The observation ingested at ``tick`` (the flow repeats)."""
        return self.stream[tick % self.stream.shape[0]]

    def bulk_window(self, index: int) -> np.ndarray:
        """Distinct raw window ``index``: a slice of the flow, shifted per pass.

        Windows repeat their slice once the flow is exhausted, offset by a
        small per-pass constant, so no two indices share a cache key.
        """
        length = self.config.input_length
        count = self.history.shape[0] - length
        start = index % count
        shift = 1e-3 * (index // count)
        return self.history[start : start + length] + shift


def apply_faults(
    flow: np.ndarray, rng: np.random.Generator, share: float, min_gap: int
) -> Tuple[np.ndarray, List[Tuple[int, str, int, int, int]]]:
    """Make ``share`` of the sensors go stuck or drop out, periodically.

    Each faulty sensor gets recurring episodes — a stuck sensor repeats
    its last reading, a dropped-out one reports NaN — so quality control
    has work throughout a run of any length.  The first ``min_gap`` steps
    stay clean; every faulty sensor's first episode starts within
    :data:`FIRST_FAULT_SPREAD` steps after them, so even a run that streams
    only a few dozen steps (two ticks a second) imputes.  An episode lasts
    longer than quality control's default ``stuck_steps`` (6), so a stuck
    sensor is flagged, not just repeated.
    """
    stream = flow.copy()
    steps, nodes = flow.shape[:2]
    count = int(round(share * nodes))
    faults = []
    for sensor in sorted(rng.choice(nodes, size=count, replace=False).tolist()):
        kind = str(rng.choice(["stuck", "dropout"]))
        period = int(rng.integers(*FAULT_PERIOD))
        length = int(rng.integers(*FAULT_LENGTH))
        first = int(rng.integers(min_gap, min_gap + FIRST_FAULT_SPREAD))
        for start in range(first, steps, period):
            stop = min(start + length, steps)
            if kind == "stuck":
                stream[start:stop, sensor] = stream[start - 1, sensor]
            else:
                stream[start:stop, sensor] = np.nan
        faults.append((int(sensor), kind, first, period, length))
    return stream, faults


def build_fixture(settings: Dict, seed: int, workdir: Path) -> Fixture:
    """Generate every input of one run from ``seed`` into ``workdir``."""
    dataset = load_dataset("PEMS08", node_scale=settings["node_scale"], step_scale=STEP_SCALE, seed=seed)
    flow = np.asarray(dataset.signal[..., :1], dtype=float)
    nodes = flow.shape[1]
    if settings["adjacency"] == "random":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        adjacency = (rng.random((nodes, nodes)) < settings["density"]).astype(float)
        np.fill_diagonal(adjacency, 0.0)
    elif settings["adjacency"] == "road":
        adjacency = np.asarray(dataset.adjacency, dtype=float)
    else:
        raise ValueError(f"unknown adjacency kind {settings['adjacency']!r}")
    config = DyHSLConfig(num_nodes=nodes, **MODEL)
    seed_library(seed)
    model = DyHSL(config, adjacency).eval()
    scaler = StandardScaler().fit(flow[: int(TRAIN_SHARE * flow.shape[0]), :, 0])
    checkpoint = save_model_checkpoint(
        model, workdir / "dyhsl.npz", adjacency, scaler=scaler, metadata={"seed": seed}
    )
    fault_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    stream, faults = apply_faults(
        flow, fault_rng, settings.get("fault_share", 0.0), min_gap=2 * config.input_length
    )
    return Fixture(
        checkpoint=Path(checkpoint),
        model=model,
        adjacency=adjacency,
        scaler=scaler,
        stream=stream,
        history=flow,
        faults=faults,
    )
