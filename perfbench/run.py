#!/usr/bin/env python3
"""DyHSL serving benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-interactive --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The report goes to standard output; its last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every sampled answer matched the autograd reference.

The launcher pins BLAS to one thread before NumPy loads (worker
processes inherit it), keeps every file it writes under ``.perfbench_*``
directories of the checkout, builds the library from ``src/``, and
stops and waits for every child process before it exits.
See ``perfbench/CATALOGUE.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS threads: the inline service runs on the generator's thread and the
#: fleet's second generator thread shares the host with its workers, so one
#: BLAS thread keeps every workload within nproc busy threads.
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    settings = json.loads((HERE / "workloads.json").read_text())
    spec_path = ROOT / "BENCHMARK.json"
    if args.workload not in settings:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(settings)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no library source (src/repro) or BENCHMARK.json",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    from benchkit.host import pin_blas_threads, stop_child_processes

    pin_blas_threads(BLAS_THREADS)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    # Temporary files of the library (the process tier's spill store)
    # stay inside the checkout too.
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from benchkit.bench import run_benchmark

        lines, result = run_benchmark(
            args.workload,
            settings[args.workload],
            json.loads(spec_path.read_text()),
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
            ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl",
        )
    finally:
        stop_child_processes()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
