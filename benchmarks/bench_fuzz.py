#!/usr/bin/env python
"""Ordered one-item-per-task dispatch vs chunked fan-out on a
heavy-tailed mix.

Usage::

    python benchmarks/bench_fuzz.py              # report
    python benchmarks/bench_fuzz.py --check      # CI gate
    python benchmarks/bench_fuzz.py \
        --merge BENCH_perf.current.json          # + record

The fuzz driver streams ~1000 scenarios whose costs are wildly
skewed — most check in around a millisecond, a handful (deep passes,
big DSM ladders) cost two orders of magnitude more.  Chunked
``ProcessPoolExecutor.map`` pre-assigns each worker ``n/jobs``
contiguous items, so whichever worker drew the heavy cluster finishes
long after the rest sit idle.  :func:`repro.perf.parallel_map` hands
``Pool.imap`` one item per task, so each idle worker takes the next
pending item — same results, same order, saturated workers.

The workload here makes the skew explicit and *dispatch-policy
shaped*: 1000 jobs, each sleeping for its declared cost, with a dozen
~150 ms heavies clustered at the front of the list (the worst case
for contiguous chunking) and ~1 ms lights everywhere else.  Sleeping
jobs release the GIL and the CPU, so the pool reaches wall-clock
parallelism on any core count and the measured ratio is purely the
dispatch discipline, not machine-dependent arithmetic throughput.
Both passes run the *same* jobs on the same number of workers — the
chunked side is an inline ``ProcessPoolExecutor(4).map(...,
chunksize=ceil(n/4))``, the discipline this gate was written against —
and the result lists are cross-checked for equality before any timing
is reported.

Gate (``--check``): ``parallel_map`` wall time beats chunked
``ProcessPoolExecutor.map`` by ``>= --min-speedup`` (default 2x) on
the mix above.

``--merge`` injects both timings as ``fuzz_map_chunked`` /
``fuzz_map_stealing`` pseudo-experiments into an existing
``BENCH_perf.json`` snapshot.

Also importable by pytest (``pytest benchmarks/``) for the
pytest-benchmark harness.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import List, Tuple

from repro.perf import parallel_map

_JOBS = 4
_N_JOBS = 1000
_N_HEAVY = 12
_HEAVY_S = 0.150
_LIGHT_S = 0.001


def job_mix(n: int = _N_JOBS, heavies: int = _N_HEAVY) -> List[float]:
    """Per-job sleep costs: a cluster of heavies at the head of the
    list (all land in worker 0's chunk under contiguous chunking),
    lights everywhere else."""
    costs = [_LIGHT_S] * n
    for i in range(min(heavies, n)):
        costs[i] = _HEAVY_S
    return costs


def sleep_job(cost_s: float) -> int:
    """A job whose cost is its input — sleeps, then returns a
    deterministic token so the two passes can be cross-checked.
    Module-level for pickling."""
    time.sleep(cost_s)
    return round(cost_s * 1e6)


def run_chunked(costs: List[float],
                repeat: int) -> Tuple[float, List[int]]:
    """Contiguous chunks, one per worker."""
    chunksize = math.ceil(len(costs) / _JOBS)
    best = float("inf")
    results: List[int] = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        with ProcessPoolExecutor(_JOBS) as pool:
            results = list(pool.map(sleep_job, costs,
                                    chunksize=chunksize))
        best = min(best, time.perf_counter() - t0)
    return best, results


def run_stealing(costs: List[float],
                 repeat: int) -> Tuple[float, List[int]]:
    """``parallel_map``: one item per task, results in input
    order."""
    best = float("inf")
    results: List[int] = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        results = list(parallel_map(sleep_job, costs, jobs=_JOBS))
        best = min(best, time.perf_counter() - t0)
    return best, results


def merge_into_bench(path: Path, chunked_s: float,
                     stealing_s: float) -> None:
    """Add both timings as pseudo-experiments to a bench snapshot."""
    data = json.loads(path.read_text())
    if data.get("schema") != 1:
        raise ValueError(
            f"{path}: unsupported bench schema {data.get('schema')!r}")
    exps = data.setdefault("experiments", {})
    exps["fuzz_map_chunked"] = {"cached": False,
                                "wall_s": round(chunked_s, 6)}
    exps["fuzz_map_stealing"] = {"cached": False,
                                 "wall_s": round(stealing_s, 6)}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=1,
                    help="best-of-N timing (default: 1)")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero unless the gate holds")
    ap.add_argument("--min-speedup", type=float, default=2.0,
                    help="parallel_map-vs-chunked wall-time ratio the "
                         "--check gate requires (default: 2.0)")
    ap.add_argument("--merge", default=None, metavar="BENCH.json",
                    help="inject fuzz_map_{chunked,stealing} into an "
                         "existing BENCH_perf.json snapshot")
    args = ap.parse_args(argv)

    costs = job_mix()
    chunked_s, chunked_r = run_chunked(costs, args.repeat)
    stealing_s, stealing_r = run_stealing(costs, args.repeat)
    if chunked_r != stealing_r:
        print("FAIL: chunked and stealing results disagree",
              file=sys.stderr)
        return 1
    speedup = chunked_s / stealing_s if stealing_s else float("inf")
    print(f"{len(costs)} sleep-jobs "
          f"({_N_HEAVY} x {_HEAVY_S * 1e3:.0f} ms heavies at the "
          f"head, {_LIGHT_S * 1e3:.0f} ms lights), "
          f"{_JOBS} workers, best of {args.repeat}:")
    print(f"  chunked pool.map    {chunked_s * 1e3:8.1f} ms")
    print(f"  parallel_map        {stealing_s * 1e3:8.1f} ms  "
          f"({speedup:.1f}x)")

    if args.merge:
        merge_into_bench(Path(args.merge), chunked_s, stealing_s)
        print(f"merged into {args.merge}")

    if args.check and speedup < args.min_speedup:
        print(f"FAIL: parallel_map speedup {speedup:.2f}x is below "
              f"the {args.min_speedup:.1f}x gate", file=sys.stderr)
        return 1
    return 0


# -- pytest-benchmark entry points ----------------------------------------


def test_stealing_matches_and_beats_chunked():
    costs = job_mix(200, 6)
    chunked_s, chunked_r = run_chunked(costs, 1)
    stealing_s, stealing_r = run_stealing(costs, 1)
    assert chunked_r == stealing_r
    assert stealing_s < chunked_s


def test_bench_fuzz_map_chunked(benchmark):
    costs = job_mix(200, 6)
    benchmark(lambda: run_chunked(costs, 1))


def test_bench_fuzz_map_stealing(benchmark):
    costs = job_mix(200, 6)
    benchmark(lambda: run_stealing(costs, 1))


if __name__ == "__main__":
    raise SystemExit(main())
