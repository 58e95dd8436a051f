"""Table III — main forecasting comparison.

The paper's Table III reports MAE / RMSE / MAPE of 26 baselines and DyHSL on
the four PEMS datasets.  This benchmark regenerates the comparison for a
representative member of every baseline family (statistical, sequence-only,
spatio-temporal GNN) plus DyHSL, on scaled-down synthetic stand-ins of
PEMS04 and PEMS08 (set ``REPRO_BENCH_DATASETS=PEMS03,PEMS04,PEMS07,PEMS08``
to run all four).

The reproduction target is the *shape* of the table: graph-based neural
models beat sequence-only models, which beat the weak statistical baselines,
and DyHSL sits at or near the top.  Absolute numbers differ from the paper
because the substrate is a CPU-scale synthetic simulator (see the scale
settings in ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

from repro.baselines import BASELINE_REGISTRY, create_baseline
from repro.tensor import seed as seed_everything
from repro.training import run_neural_experiment, run_statistical_experiment

from conftest import EPOCHS, HIDDEN, SEED, benchmark_data, print_table, trainer_config

#: Paper Table III values (MAE, RMSE, MAPE%) for the reproduced subset.
PAPER_TABLE3 = {
    "PEMS04": {
        "HA": (38.03, 59.24, 27.88),
        "ARIMA": (33.73, 48.80, 24.18),
        "VAR": (24.54, 38.61, 17.24),
        "SVR": (28.70, 44.56, 19.20),
        "FC-LSTM": (26.77, 40.65, 18.23),
        "TCN": (23.22, 37.26, 15.59),
        "GRU-ED": (23.68, 39.27, 16.44),
        "STGCN": (21.16, 34.89, 13.83),
        "DCRNN": (21.22, 33.44, 14.17),
        "GraphWaveNet": (24.89, 39.66, 17.29),
        "AGCRN": (19.83, 32.26, 12.97),
        "STSGCN": (21.19, 33.65, 13.90),
        "DyHSL": (17.66, 29.46, 12.42),
    },
    "PEMS08": {
        "HA": (34.86, 59.24, 27.88),
        "ARIMA": (31.09, 44.32, 22.73),
        "VAR": (19.19, 29.81, 13.10),
        "SVR": (23.25, 36.16, 14.64),
        "FC-LSTM": (23.09, 35.17, 14.99),
        "TCN": (22.72, 35.79, 14.03),
        "GRU-ED": (22.00, 36.22, 13.33),
        "STGCN": (17.50, 27.09, 11.29),
        "DCRNN": (16.82, 26.36, 10.92),
        "GraphWaveNet": (18.28, 30.05, 12.15),
        "AGCRN": (15.95, 25.22, 10.09),
        "STSGCN": (17.13, 26.80, 10.96),
        "DyHSL": (14.01, 22.91, 8.60),
    },
    "PEMS03": {
        "HA": (31.58, 52.39, 33.78), "ARIMA": (35.41, 47.59, 33.78), "VAR": (23.65, 38.26, 24.51),
        "SVR": (21.97, 35.29, 21.51), "FC-LSTM": (21.33, 35.11, 23.33), "TCN": (19.32, 33.55, 19.93),
        "GRU-ED": (19.12, 32.85, 19.31), "STGCN": (17.55, 30.42, 17.34), "DCRNN": (17.99, 30.31, 18.34),
        "GraphWaveNet": (19.12, 32.77, 18.89), "AGCRN": (15.98, 28.25, 15.23), "STSGCN": (17.48, 29.21, 16.78),
        "DyHSL": (15.49, 27.06, 14.38),
    },
    "PEMS07": {
        "HA": (45.12, 65.64, 24.51), "ARIMA": (38.17, 59.27, 19.46), "VAR": (50.22, 75.63, 32.22),
        "SVR": (32.49, 50.22, 14.26), "FC-LSTM": (29.98, 45.94, 13.20), "TCN": (32.72, 42.23, 14.26),
        "GRU-ED": (27.66, 43.49, 12.20), "STGCN": (25.33, 39.34, 11.21), "DCRNN": (25.22, 38.61, 11.82),
        "GraphWaveNet": (26.39, 41.50, 11.97), "AGCRN": (22.37, 36.55, 9.12), "STSGCN": (24.26, 39.03, 10.21),
        "DyHSL": (18.84, 31.65, 8.11),
    },
}

MODELS = [
    "HA", "ARIMA", "VAR", "SVR",
    "FC-LSTM", "TCN", "GRU-ED",
    "STGCN", "DCRNN", "GraphWaveNet", "AGCRN", "STSGCN",
    "DyHSL",
]

DATASETS = [
    name.strip().upper()
    for name in os.environ.get("REPRO_BENCH_DATASETS", "PEMS04,PEMS08").split(",")
    if name.strip()
]

#: Collected rows, printed once per dataset as models finish.
_RESULTS: Dict[str, List[dict]] = {}


def _run_model(model_name: str, dataset_name: str):
    data = benchmark_data(dataset_name)
    seed_everything(SEED + hash(model_name) % 1000)
    spec = BASELINE_REGISTRY[model_name]
    model = create_baseline(
        model_name, data.adjacency, data.num_nodes, horizon=12, input_length=12, hidden_dim=HIDDEN
    )
    if spec.neural:
        return run_neural_experiment(model_name, model, data, trainer_config())
    return run_statistical_experiment(model_name, model, data)


@pytest.mark.parametrize("dataset_name", DATASETS)
@pytest.mark.parametrize("model_name", MODELS)
def test_table3_forecasting_errors(benchmark, model_name, dataset_name):
    """Train/fit one model on one dataset and record its Table III row."""
    result = benchmark.pedantic(_run_model, args=(model_name, dataset_name), rounds=1, iterations=1)
    paper = PAPER_TABLE3.get(dataset_name, {}).get(model_name)
    row = {
        "model": model_name,
        "MAE": round(result.metrics.mae, 2),
        "RMSE": round(result.metrics.rmse, 2),
        "MAPE%": round(result.metrics.mape, 2),
        "paper MAE": paper[0] if paper else "-",
        "paper RMSE": paper[1] if paper else "-",
        "paper MAPE%": paper[2] if paper else "-",
    }
    _RESULTS.setdefault(dataset_name, []).append(row)
    assert result.metrics.mae > 0

    # Once every model for this dataset has run, print the assembled table.
    if len(_RESULTS[dataset_name]) == len(MODELS):
        print_table(
            f"Table III — forecasting errors on {dataset_name} (synthetic, {EPOCHS} epochs)",
            _RESULTS[dataset_name],
            ["model", "MAE", "RMSE", "MAPE%", "paper MAE", "paper RMSE", "paper MAPE%"],
        )
