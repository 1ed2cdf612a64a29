"""Performance plumbing for the experiment harness.

Nothing in here changes *what* an experiment computes — this package
exists so the full suite re-runs fast enough to live in an edit loop:

* :mod:`repro.perf.cache` — a content-addressed on-disk result cache.
  Keys cover the experiment name, the package version, the
  :class:`~repro.core.context.RunContext` token, a digest of the
  context's device specs and a per-process memoised digest of the
  whole ``repro`` source tree, so a cached
  :class:`~repro.core.registry.ExperimentResult` can only ever be
  returned when re-running the builder would produce the same table
  and checks — any source edit misses every entry.
* :mod:`repro.perf.profile` — per-experiment wall-clock timings, the
  ``BENCH_perf.json`` trajectory format, the append-only
  ``BENCH_perf_history.jsonl`` archive and the regression comparator
  CI runs against the committed baseline.
* :mod:`repro.perf.runner` — the parallel experiment runner
  (:func:`~repro.perf.runner.run_experiments`) that fans
  context-parameterized builders out over a process pool and merges
  results deterministically in requested-name order, plus
  :func:`~repro.perf.runner.parallel_map`, the ordered process-pool
  fan-out it shares with the fuzz driver and the serve dispatcher.
"""

from __future__ import annotations

from repro.perf.cache import ResultCache, ResultCacheStats
from repro.perf.profile import (
    ExperimentTiming,
    Profiler,
    append_bench_history,
    compare_bench,
    latest_bench_entry,
    load_bench_history,
    load_bench_json,
    write_bench_json,
)
from repro.perf.runner import RunReport, parallel_map, run_experiments

__all__ = [
    "ResultCache",
    "ResultCacheStats",
    "ExperimentTiming",
    "Profiler",
    "compare_bench",
    "load_bench_json",
    "write_bench_json",
    "append_bench_history",
    "load_bench_history",
    "latest_bench_entry",
    "RunReport",
    "run_experiments",
    "parallel_map",
]
