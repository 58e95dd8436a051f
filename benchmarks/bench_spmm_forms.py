"""Sparse propagation forms — the sweep that calibrates ``BLOCK_COST_RATIO``.

Every constant :class:`~repro.graph.SparseMatrix` runs ``spmm`` in one of two
forms, chosen from its CSR alone: the CSR product, or the *block form* —
``T`` dense ``b x b`` diagonal blocks as one stacked GEMM plus the ``+-b``
band (the Eq. 4 temporal graph has ``b = N``).  The block form is kept when
``M * b <= k * nnz`` with ``k`` = :data:`repro.graph.sparse.BLOCK_COST_RATIO`.

This benchmark times both forms of the same matrix with the feature width of
the repo benchmark's model (16) and records, under ``spmm_forms`` in
``benchmarks/BENCH_runtime.json``:

* ``fixtures``: per DyHSL scale (``T`` = 12, 6, 4, 3, 2, 1), CSR µs vs
  blocked µs, ``M * b / nnz`` and the form the cost model picks, for
  ``random-85`` (40% dense, the ``fleet-mixed`` graph) at its replay tile of
  8 rows, ``road-170`` (1x PEMS08, the ``bulk-backfill`` graph) at its tile
  of 4 rows and a 170-sensor ``corridor`` road network at 4 rows;
* ``sweep``: the density sweep that sets ``k`` — random graphs of 85 and
  170 sensors at ``T = 12`` from 1% to 40% density, with the smallest
  ``M * b / nnz`` at which CSR won (``csr_wins_from``);
* the host's core count (``nproc``).

Timings are medians of interleaved rounds, so host drift hits both forms
alike.  The contract asserted: on every fixture row the chosen form is no
slower than 1.3x the other (near the crossover the two are within noise).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_spmm_forms.py -s
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

from repro.data import load_dataset
from repro.graph import SparseMatrix, normalized_temporal_adjacency
from repro.graph.road_network import corridor_road_network
from repro.graph.sparse import BLOCK_COST_RATIO, _build_block_form
from repro.tensor import kernels

from conftest import SEED, print_table, record_bench

FEATURES = 16
SCALES = (12, 6, 4, 3, 2, 1)
DENSITIES = (0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.13, 0.16, 0.20, 0.30, 0.40)
REPEATS = 25


def _random(nodes: int, density: float) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    adjacency = (rng.random((nodes, nodes)) < density).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


def _with_form(matrix: SparseMatrix, blocked: bool) -> SparseMatrix:
    """A copy of ``matrix`` pinned to one form, whatever the cost model says."""
    pinned = SparseMatrix.__new__(SparseMatrix)
    pinned._matrix = matrix.csr
    form = _build_block_form(matrix.csr, matrix.block_size) if blocked else None
    pinned.__dict__["_block_form"] = form
    return pinned


def _time_forms(matrix: SparseMatrix, rows: int) -> Dict[str, object]:
    operand = np.random.default_rng(SEED).normal(size=(rows, matrix.shape[1], FEATURES))
    out = np.empty((rows, matrix.shape[0], FEATURES))
    forms = {"csr": _with_form(matrix, False), "blocked": _with_form(matrix, True)}
    results = {name: kernels.spmm(operand, matrix=pinned) for name, pinned in forms.items()}
    scale = float(np.abs(results["csr"]).max())
    assert float(np.abs(results["blocked"] - results["csr"]).max()) <= 1e-12 * scale
    timings: Dict[str, List[float]] = {name: [] for name in forms}
    for _ in range(REPEATS):
        for name, pinned in forms.items():
            started = time.perf_counter()
            kernels.spmm(operand, out=out, matrix=pinned)
            timings[name].append(time.perf_counter() - started)
    csr_us, blocked_us = (1e6 * float(np.median(timings[name])) for name in ("csr", "blocked"))
    return {
        "M": matrix.shape[0],
        "b": matrix.block_size,
        "nnz": matrix.nnz,
        "cost_ratio": round(matrix.shape[0] * matrix.block_size / matrix.nnz, 2),
        "csr_us": round(csr_us, 1),
        "blocked_us": round(blocked_us, 1),
        "blocked_speedup": round(csr_us / blocked_us, 2),
        "chosen": "csr" if matrix.block_form() is None else "blocked",
    }


def _fixture_rows() -> List[Dict[str, object]]:
    road = np.asarray(
        load_dataset("PEMS08", node_scale=1.0, step_scale=0.05, seed=SEED).adjacency, dtype=float
    )
    fixtures = (
        ("random-85", _random(85, 0.4), 8),
        ("road-170", road, 4),
        ("corridor-170", corridor_road_network(170, seed=SEED).adjacency, 4),
    )
    rows = []
    for name, adjacency, tile in fixtures:
        for steps in SCALES:
            matrix = SparseMatrix(normalized_temporal_adjacency(adjacency, steps))
            rows.append({"fixture": name, "tile": tile, "T": steps, **_time_forms(matrix, tile)})
    return rows


def _sweep_rows() -> List[Dict[str, object]]:
    rows = []
    for nodes, tile in ((85, 8), (170, 4)):
        for density in DENSITIES:
            matrix = SparseMatrix(normalized_temporal_adjacency(_random(nodes, density), 12))
            rows.append({"nodes": nodes, "tile": tile, "density": density, **_time_forms(matrix, tile)})
    return rows


def test_spmm_form_sweep():
    fixtures = _fixture_rows()
    sweep = _sweep_rows()
    columns = ["M", "b", "nnz", "cost_ratio", "csr_us", "blocked_us", "blocked_speedup", "chosen"]
    print_table(
        f"spmm forms on the benchmark graphs (k = {BLOCK_COST_RATIO}, F = {FEATURES})",
        fixtures,
        ["fixture", "tile", "T"] + columns,
    )
    print_table("spmm density sweep at T = 12", sweep, ["nodes", "tile", "density"] + columns)
    csr_wins = [row["cost_ratio"] for row in sweep if row["blocked_speedup"] < 1.0]
    record_bench(
        "spmm_forms",
        {
            "k": BLOCK_COST_RATIO,
            "features": FEATURES,
            "nproc": os.cpu_count(),
            "repeats": REPEATS,
            "fixtures": fixtures,
            "sweep": sweep,
            "csr_wins_from": min(csr_wins) if csr_wins else None,
        },
    )
    for row in fixtures:
        chosen, other = (
            (row["blocked_us"], row["csr_us"]) if row["chosen"] == "blocked"
            else (row["csr_us"], row["blocked_us"])
        )
        assert chosen <= 1.3 * other, row
