#!/usr/bin/env python
"""Vectorized tensor-core sweeps vs the scalar reference walk.

Usage::

    python benchmarks/bench_tensorcore_sweep.py            # report
    python benchmarks/bench_tensorcore_sweep.py --check    # CI gate
    python benchmarks/bench_tensorcore_sweep.py \
        --merge BENCH_perf.current.json                    # + record

Times the full legal mma grid (every dtype pair × shape × dense/
sparse, on every device) and the full wgmma N-sweep (Hopper) twice:
once through the scalar per-instruction walk
(``TensorCoreTimingModel(dev).mma(instr)``) and once through the batched
:class:`MmaSweep`/:class:`WgmmaSweep` constructors.  Both paths price
the identical instruction list — ``tests/test_vectorized_equivalence``
pins them bit-equal, this script pins the *speed* claim.

``--merge`` injects the two timings as ``tc_sweep_scalar`` /
``tc_sweep_vectorized`` pseudo-experiments into an existing
``BENCH_perf.json`` snapshot, so the committed baseline tracks the
sweep trajectory next to the real experiments.  ``--check`` exits
non-zero unless the vectorized pass beats the scalar walk.

Also importable by pytest (``pytest benchmarks/``) for the
pytest-benchmark harness.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Tuple

from repro.arch import get_device, list_devices
from repro.isa.dtypes import DType, accumulator_types
from repro.isa.mma import (
    MmaInstruction,
    OperandSource,
    WgmmaInstruction,
    mma_shapes,
    valid_wgmma_n,
    wgmma_k,
)
from repro.tensorcore import TensorCoreTimingModel

_MMA_ABS = (DType.FP16, DType.BF16, DType.TF32, DType.FP64,
            DType.INT8, DType.INT4, DType.BIN1)
_WGMMA_ABS = (DType.FP16, DType.BF16, DType.TF32, DType.E4M3,
              DType.E5M2, DType.INT8, DType.BIN1)
#: replication factor — the legal grid alone is small enough that
#: timing noise would dominate; repeating it keeps both paths honest
#: without changing the work mix
_TILE = 40


def _price_mma(timing) -> None:
    """Read everything a :class:`SweepEntry` carries — the scalar
    dataclass is lazy, so the walk must touch the properties to do
    the work the sweep does eagerly."""
    timing.latency_clk
    timing.issue_interval_clk
    timing.throughput_tflops("zero")
    timing.throughput_tflops("rand")
    timing.fraction_of_peak()


def _price_wgmma(timing) -> None:
    timing.latency_clk
    timing.issue_interval_clk
    timing.throughput_tflops("zero")
    timing.throughput_tflops("rand")
    timing.fraction_of_peak()


def base_mma_grid() -> List[MmaInstruction]:
    instrs = []
    for ab in _MMA_ABS:
        for cd in sorted(accumulator_types(ab), key=lambda d: d.name):
            for shape in mma_shapes(ab):
                for sparse in (False, True):
                    if sparse and ab in (DType.BIN1, DType.FP64):
                        continue
                    instrs.append(MmaInstruction(ab, cd, shape,
                                                 sparse=sparse))
    return instrs


def base_wgmma_grid() -> List[WgmmaInstruction]:
    instrs = []
    for ab in _WGMMA_ABS:
        cd = sorted(accumulator_types(ab), key=lambda d: d.name)[0]
        for n in valid_wgmma_n():
            for src in (OperandSource.SHARED, OperandSource.REGISTER):
                instrs.append(WgmmaInstruction(ab, cd, n,
                                               a_source=src))
    return instrs


def mma_grids() -> List[Tuple[object, List[MmaInstruction]]]:
    """Per-device instruction lists, filtered to combos the scalar
    path prices cleanly (some dtype pairs have no peak entry on some
    parts — the sweep maps those to NaN, the scalar walk raises)."""
    grids = []
    for d in list_devices():
        dev = get_device(d)
        model = TensorCoreTimingModel(dev)
        ok = []
        for instr in base_mma_grid():
            try:
                _price_mma(model.mma(instr))
            except (KeyError, ValueError):
                continue
            ok.append(instr)
        grids.append((dev, ok * _TILE))
    return grids


def wgmma_grid() -> Tuple[object, List[WgmmaInstruction]]:
    dev = get_device("H800")
    model = TensorCoreTimingModel(dev)
    ok = []
    for instr in base_wgmma_grid():
        try:
            _price_wgmma(model.wgmma(instr))
        except (KeyError, ValueError):
            continue
        ok.append(instr)
    return dev, ok * (_TILE // 8)


def time_scalar(repeat: int) -> float:
    grids = mma_grids()
    hopper, wgmma_instrs = wgmma_grid()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for dev, instrs in grids:
            model = TensorCoreTimingModel(dev)
            for instr in instrs:
                _price_mma(model.mma(instr))
        model = TensorCoreTimingModel(hopper)
        for instr in wgmma_instrs:
            _price_wgmma(model.wgmma(instr))
        best = min(best, time.perf_counter() - t0)
    return best


def time_vectorized(repeat: int) -> float:
    grids = mma_grids()
    hopper, wgmma_instrs = wgmma_grid()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for dev, instrs in grids:
            TensorCoreTimingModel(dev).mma_sweep(instrs)
        TensorCoreTimingModel(hopper).wgmma_sweep(wgmma_instrs)
        best = min(best, time.perf_counter() - t0)
    return best


def merge_into_bench(path: Path, scalar_s: float,
                     vectorized_s: float) -> None:
    """Add both timings as pseudo-experiments to a bench snapshot."""
    data = json.loads(path.read_text())
    if data.get("schema") != 1:
        raise ValueError(
            f"{path}: unsupported bench schema {data.get('schema')!r}")
    exps = data.setdefault("experiments", {})
    exps["tc_sweep_scalar"] = {"cached": False,
                               "wall_s": round(scalar_s, 6)}
    exps["tc_sweep_vectorized"] = {"cached": False,
                                   "wall_s": round(vectorized_s, 6)}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="best-of-N timing (default: 3)")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero unless vectorized < scalar")
    ap.add_argument("--merge", default=None, metavar="BENCH.json",
                    help="inject tc_sweep_{scalar,vectorized} into an "
                         "existing BENCH_perf.json snapshot")
    args = ap.parse_args(argv)

    n = (sum(len(instrs) for _, instrs in mma_grids())
         + len(wgmma_grid()[1]))
    scalar_s = time_scalar(args.repeat)
    vectorized_s = time_vectorized(args.repeat)
    speedup = scalar_s / vectorized_s if vectorized_s else float("inf")
    print(f"{n} instruction prices per pass "
          f"(best of {args.repeat}):")
    print(f"  scalar walk     {scalar_s * 1e3:8.2f} ms")
    print(f"  vectorized sweep{vectorized_s * 1e3:8.2f} ms  "
          f"({speedup:.1f}x)")

    if args.merge:
        merge_into_bench(Path(args.merge), scalar_s, vectorized_s)
        print(f"merged into {args.merge}")

    if args.check and vectorized_s >= scalar_s:
        print("FAIL: vectorized sweep did not beat the scalar walk",
              file=sys.stderr)
        return 1
    return 0


# -- pytest-benchmark entry points ----------------------------------------


def test_vectorized_sweep_beats_scalar():
    assert time_vectorized(3) < time_scalar(3)


def test_bench_scalar_walk(benchmark):
    grids = mma_grids()

    def scalar():
        for dev, instrs in grids:
            model = TensorCoreTimingModel(dev)
            for instr in instrs:
                _price_mma(model.mma(instr))

    benchmark(scalar)


def test_bench_vectorized_sweep(benchmark):
    grids = mma_grids()

    def vectorized():
        for dev, instrs in grids:
            TensorCoreTimingModel(dev).mma_sweep(instrs)

    benchmark(vectorized)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
