"""Helpers of the DyHSL serving benchmark (``perfbench/run.py``).

The package drives the public API of :mod:`repro` with seeded, generated
traffic and measures it; it never changes the library.  Modules:

* :mod:`.percentiles` — percentiles that carry their sample count and
  refuse a tail the sample cannot support;
* :mod:`.spans` — in-memory spans with parent links and self time;
* :mod:`.loadgen` — seeded arrival schedules and the open- and closed-loop runners;
* :mod:`.host` — the host record printed with every result;
* :mod:`.fixtures` — seeded model, scaler, checkpoint, flows and faults;
* :mod:`.serving` — service construction, set-up timing, correctness;
* :mod:`.workloads` — the traffic of each workload and its metrics;
* :mod:`.layers` — the per-layer measurements of the traced run.
"""
