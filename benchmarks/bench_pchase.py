#!/usr/bin/env python
"""Steady-state chase engine vs the scalar P-chase loops.

Usage::

    python benchmarks/bench_pchase.py             # report
    python benchmarks/bench_pchase.py --check     # CI gates (>=5x, >=25x)
    python benchmarks/bench_pchase.py \
        --merge BENCH_perf.current.json           # + record

Replays every pointer chase ``ext_cache_detection`` issues at **full**
fidelity — the capacity sweep (with its steady-state warmup passes),
the stride sweep and the conflict ladders, on all three paper devices
— twice: once through scalar one-``load()``-per-hop chase loops
(the loop ``tests/reference/chase.py`` pins the engine against) and
once through the steady-state :class:`~repro.memory.chase.ChaseEngine`.

Only the chases themselves are timed.  The warm-up fills
(``warm_l1``/``warm_l2``/``warm_tlb``) are the *same* vectorized
helpers on both paths, so including them would dilute the comparison
with identical work; the chase loop is precisely what this engine
vectorized.  Both passes run the identical task list against
identically prepared hierarchies, and the bench cross-checks that the
summed cycles of every chase agree bit-for-bit before reporting —
``tests/test_memory_chase.py`` pins the full equivalence claim, this
script pins the *speed* claim.

A second, cold-start ladder replays chases in the shape the
``memory.latency`` query oracle issues them: a fresh hierarchy with
the TLB warmed over the footprint and ``n + 256`` accesses over an
``n``-entry ascending walk, for footprints of 1/4 to 2 × L1 at strides
of 32, 64, 128 and 4096 B (the ladder of the layer benchmark's
``oracle-mix`` workload) on the H800.  These chases start from empty
caches, so the engine answers them in closed form.  Its scalar pass
is timed once: at about 1 s it is long enough to hold still, and
repeating it would push the script well past 10 s.

``--merge`` injects the timings as ``pchase_scalar`` /
``pchase_vectorized`` and ``pchase_cold_scalar`` /
``pchase_cold_engine`` pseudo-experiments into an existing
``BENCH_perf.json`` snapshot.  ``--check`` exits non-zero unless the
engine beats the scalar chase by ``--min-speedup`` (default 5x) on the
detection workload and by 25x on the cold-start ladder (the
fixed-point engine reached about 17x there).

Also importable by pytest (``pytest benchmarks/``) for the
pytest-benchmark harness.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

from repro.arch import get_device
from repro.isa.memory_ops import CacheOp
from repro.memory import MemoryHierarchy
from repro.memory.cache_study import (PROBE_BUDGETS,
                                      capacity_sweep_sizes)
from repro.memory.chase import (ChaseEngine, chase_total_clk,
                                latency_counts)

_DEVICES = ("RTX4090", "A100", "H800")
_BUDGET = PROBE_BUDGETS["full"]
_STRIDES = (4, 8, 16, 32, 64, 128)
_STRIDE_ARRAY_KIB = 512
_MAX_WAYS = 16
#: the cold-start ladder: footprints as multiples of L1, strides, the
#: accesses chased past one pass, and the speedup ``--check`` demands
_COLD_FOOTPRINTS = (0.25, 0.5, 0.75, 0.875, 1.125, 1.25, 1.5, 2.0)
_COLD_STRIDES = (32, 64, 128, 4096)
_COLD_TAIL_ITERS = 256
_COLD_DEVICES = ("H800",)
_COLD_MIN_SPEEDUP = 25.0


@dataclass
class ChaseTask:
    """One chase of the detection workload: how to prepare the
    hierarchy (untimed) and which runs to chase over it (timed)."""

    label: str
    seq: np.ndarray
    runs: List[int]                  # iteration budgets, in order
    width: int
    op: CacheOp = CacheOp.CACHE_ALL
    setup: Callable[[MemoryHierarchy], None] = field(
        default=lambda mh: None)


def _conflict_set_stride(device) -> int:
    geo = device.cache
    l1_lines = geo.l1_size_bytes // geo.line_bytes
    return (l1_lines // geo.l1_associativity) * geo.line_bytes


def detection_tasks(device) -> List[ChaseTask]:
    """Every chase ``CacheProbe(device, fidelity="full").detect()``
    issues, in sweep order."""
    tasks: List[ChaseTask] = []
    warmup = _BUDGET["warmup_passes"]

    for kib in capacity_sweep_sizes(16, 1024):
        size = kib * 1024
        n = size // 128
        runs = ([warmup * n] if warmup else []) \
            + [_BUDGET["capacity_iters"]]
        tasks.append(ChaseTask(
            label=f"capacity/{kib}KiB",
            seq=np.arange(n, dtype=np.int64) * 128,
            runs=runs, width=32,
            setup=lambda mh, size=size: (mh.warm_l1(0, 0, size),
                                         mh.warm_tlb(0, size)),
        ))

    array = _STRIDE_ARRAY_KIB * 1024
    for stride in _STRIDES:
        n = array // stride
        tasks.append(ChaseTask(
            label=f"stride/{stride}B",
            seq=np.arange(n, dtype=np.int64) * stride,
            runs=[_BUDGET["stride_iters"]], width=4,
            setup=lambda mh: (mh.warm_tlb(0, array),
                              mh.warm_l2(0, array)),
        ))

    set_stride = _conflict_set_stride(device)
    for w in range(1, _MAX_WAYS + 1):
        span = (w - 1) * set_stride + 128
        tasks.append(ChaseTask(
            label=f"conflict/{w}way",
            seq=np.arange(w, dtype=np.int64) * set_stride,
            runs=[(1 + warmup) * w, _BUDGET["conflict_iters"]],
            width=32,
            setup=lambda mh, span=span: mh.warm_tlb(0, span),
        ))
    return tasks


def cold_tasks(device) -> List[ChaseTask]:
    """The cold-start ladder on ``device``, in the serve shape."""
    tasks: List[ChaseTask] = []
    for f in _COLD_FOOTPRINTS:
        footprint = round(f * device.cache.l1_size_kib) * 1024
        for stride in _COLD_STRIDES:
            n = max(1, footprint // stride)
            tasks.append(ChaseTask(
                label=f"cold/{f}xL1/{stride}B",
                seq=np.arange(n, dtype=np.int64) * stride,
                runs=[n + _COLD_TAIL_ITERS], width=32,
                setup=lambda mh, footprint=footprint: mh.warm_tlb(
                    0, footprint),
            ))
    return tasks


def _chase_scalar(mh: MemoryHierarchy, task: ChaseTask,
                  iters: int) -> float:
    """The executable spec: one ``load()`` per hop."""
    addrs = task.seq.tolist()
    period = len(addrs)
    load = mh.load
    lats = np.empty(iters)
    for i in range(iters):
        lats[i] = load(addrs[i % period], task.width,
                       cache_op=task.op).latency_clk
    return chase_total_clk(latency_counts(lats))


def _chase_engine(mh: MemoryHierarchy, task: ChaseTask,
                  iters: int) -> float:
    return ChaseEngine(mh, size=task.width,
                       cache_op=task.op).run(
                           task.seq, iters).total_latency_clk


def run_workload(chase, repeat: int, tasks=detection_tasks,
                 devices=_DEVICES) -> Tuple[float, List[float]]:
    """Best-of-``repeat`` chase time over the full workload, plus the
    per-run cycle totals of the last pass (the cross-check)."""
    best = float("inf")
    totals: List[float] = []
    for _ in range(repeat):
        totals = []
        elapsed = 0.0
        for name in devices:
            device = get_device(name)
            for task in tasks(device):
                mh = MemoryHierarchy(device)
                task.setup(mh)
                t0 = time.perf_counter()
                for iters in task.runs:
                    totals.append(chase(mh, task, iters))
                elapsed += time.perf_counter() - t0
        best = min(best, elapsed)
    return best, totals


def merge_into_bench(path: Path, timings) -> None:
    """Add the ``{name: seconds}`` timings as pseudo-experiments to a
    bench snapshot."""
    data = json.loads(path.read_text())
    if data.get("schema") != 1:
        raise ValueError(
            f"{path}: unsupported bench schema {data.get('schema')!r}")
    exps = data.setdefault("experiments", {})
    for name, seconds in timings.items():
        exps[name] = {"cached": False, "wall_s": round(seconds, 6)}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="best-of-N timing (default: 3)")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero unless the engine beats the "
                         "scalar chase by --min-speedup")
    ap.add_argument("--min-speedup", type=float, default=5.0,
                    help="speedup the --check gate requires "
                         "(default: 5.0)")
    ap.add_argument("--merge", default=None, metavar="BENCH.json",
                    help="inject pchase_{scalar,vectorized} and "
                         "pchase_cold_{scalar,engine} into an existing "
                         "BENCH_perf.json snapshot")
    args = ap.parse_args(argv)

    timings = {}
    failed = False
    for label, tasks, devices, names, scalar_repeat, gate in (
            ("ext_cache_detection chases", detection_tasks, _DEVICES,
             ("pchase_scalar", "pchase_vectorized"), args.repeat,
             args.min_speedup),
            ("cold-start ladder chases", cold_tasks, _COLD_DEVICES,
             ("pchase_cold_scalar", "pchase_cold_engine"), 1,
             _COLD_MIN_SPEEDUP)):
        n_chases = sum(len(t.runs) for d in devices
                       for t in tasks(get_device(d)))
        scalar_s, scalar_totals = run_workload(
            _chase_scalar, scalar_repeat, tasks, devices)
        engine_s, engine_totals = run_workload(
            _chase_engine, args.repeat, tasks, devices)
        if scalar_totals != engine_totals:
            print(f"FAIL: engine and scalar chases disagree on summed "
                  f"cycles ({label})", file=sys.stderr)
            return 1
        speedup = scalar_s / engine_s if engine_s else float("inf")
        print(f"{n_chases} {label} per pass (scalar best of "
              f"{scalar_repeat}, engine best of {args.repeat}):")
        print(f"  scalar chase loops  {scalar_s * 1e3:8.2f} ms")
        print(f"  chase engine        {engine_s * 1e3:8.2f} ms  "
              f"({speedup:.1f}x)")
        timings.update(zip(names, (scalar_s, engine_s)))
        if args.check and speedup < gate:
            print(f"FAIL: engine speedup {speedup:.2f}x on the "
                  f"{label} is below the {gate:.1f}x gate",
                  file=sys.stderr)
            failed = True

    if args.merge:
        merge_into_bench(Path(args.merge), timings)
        print(f"merged into {args.merge}")
    return 1 if failed else 0


# -- pytest-benchmark entry points ----------------------------------------


def test_engine_matches_and_beats_scalar_chase():
    for tasks, devices in ((detection_tasks, _DEVICES),
                           (cold_tasks, _COLD_DEVICES)):
        scalar_s, scalar_totals = run_workload(_chase_scalar, 1, tasks,
                                               devices)
        engine_s, engine_totals = run_workload(_chase_engine, 1, tasks,
                                               devices)
        assert scalar_totals == engine_totals
        assert engine_s < scalar_s


def test_bench_scalar_chase(benchmark):
    benchmark(lambda: run_workload(_chase_scalar, 1))


def test_bench_chase_engine(benchmark):
    benchmark(lambda: run_workload(_chase_engine, 1))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
