"""Run one workload of the layer benchmark and print its metrics.

Usage, from the repository root::

    python3 layerbench/run.py --workload suite --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
metrics, the import budget and ``trace.overhead_pct``, and writes the
spans as a Chrome/Perfetto trace under ``.layerbench/``.  Every line
before the last is for people; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, whose names and
units are those ``BENCHMARK.json`` lists.  See ``layerbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one thread: numpy's BLAS pool would otherwise add a second busy
# thread on the two shared cores (set before numpy is first imported;
# the set-up subprocesses inherit it)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed  # noqa: E402
from tracing import (Recorder, budget_lines, install,  # noqa: E402
                     layer_metrics, traced_counts)
from workloads import WORKLOADS  # noqa: E402

#: untraced iterations per run at the least; each reported pass time
#: and unit latency is a median over them
MIN_ITERATIONS = 5
#: units of work that must lie beyond the reported tail latency
TAIL_BEYOND = 10
#: fresh-process set-up samples per untraced run (after one warm-up)
SETUP_REPEATS = 7
#: packages whose cumulative import time is a per-layer metric
IMPORT_PACKAGES = ("core", "serve", "fuzz", "perf")


def tail_latency(samples):
    """``(value, percentile)``: the highest nearest-rank percentile
    with at least ``TAIL_BEYOND`` samples beyond it (the median when
    there are too few samples for that)."""
    ordered = sorted(samples)
    rank = max(math.ceil(len(ordered) / 2), len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100 * rank / len(ordered)


def median_units(iterations, scales, attr: str):
    """Each unit's median host-scaled CPU time (ms) over
    ``iterations``, iteration ``i`` scaled by ``scales[i]``."""
    return [statistics.median(col) for col in zip(*(
        [u * scale for u in getattr(it, attr)]
        for it, scale in zip(iterations, scales)))]


def _pass_times(iterations, attr: str) -> str:
    return ", ".join(f"{sum(getattr(it, attr)) / 1e3:.3f}"
                     for it in iterations)


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_sample(workload, root: Path, workdir: Path) -> float:
    """CPU time (user + system), launch to exit, of one fresh process
    that only sets up the workload (imports plus service/cache
    construction; the cold single-query CLI on ``oracle-mix``)."""
    env = _child_env(root)
    cache_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
    env["HOPPERDISSECT_CACHE_DIR"] = cache_dir
    t0 = _children_cpu()
    proc = subprocess.run(workload.setup_argv(cache_dir), env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    cpu = _children_cpu() - t0
    shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0 or not workload.setup_ok(proc.stdout):
        raise RuntimeError(f"set-up process failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-400:]}")
    return cpu


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_times(argv, root: Path):
    """``-X importtime`` of one fresh process: {module: (self_us,
    cumulative_us)}."""
    proc = subprocess.run([argv[0], "-X", "importtime", *argv[1:]],
                          env=_child_env(root), cwd=root,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"importtime run failed: {proc.stderr[-400:]}")
    out = {}
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            out[m.group(3)] = (int(m.group(1)), int(m.group(2)))
    return out


def import_budget(workload, root: Path, workdir: Path):
    """``import.repro.<pkg>_ms`` (median cumulative of three fresh
    ``import repro.<pkg>`` processes) and the ten modules with the
    largest self time in the workload's own set-up process."""
    metrics = {}
    for pkg in IMPORT_PACKAGES:
        name = f"repro.{pkg}"
        runs = [import_times([sys.executable, "-c", f"import {name}"],
                             root)[name][1] for _ in range(3)]
        metrics[f"import.{name}_ms"] = statistics.median(runs) / 1e3
    cache_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
    own = import_times(workload.setup_argv(cache_dir), root)
    shutil.rmtree(cache_dir, ignore_errors=True)
    top = sorted(own.items(), key=lambda kv: -kv[1][0])[:10]
    return metrics, top


def fidelity_metrics():
    """Per-artefact MAPE and worst-cell error from ``compute_all()``,
    in percent.  Simulated against the paper's numbers: no run-to-run
    spread."""
    from repro.core.fidelity import compute_all

    per_layer = {}
    mapes = []
    for tf in compute_all():
        slug = re.sub(r"[^a-z0-9]+", "-", tf.name.lower()).strip("-")
        per_layer[f"fidelity.{slug}.mape_pct"] = 100 * tf.mape
        per_layer[f"fidelity.{slug}.worst_pct"] = 100 * tf.worst.rel_error
        mapes.append(100 * tf.mape)
    e2e = {"fidelity_mape_mean_pct": statistics.fmean(mapes),
           "fidelity_mape_max_pct": max(mapes)}
    return e2e, per_layer


def _loop(seconds: float, min_iters: int, step):
    """Call ``step()`` until ``seconds`` have passed and at least
    ``min_iters`` iterations ran."""
    t0 = time.perf_counter()
    done = 0
    while done < min_iters or time.perf_counter() - t0 < seconds:
        step()
        done += 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and one iteration (self-test)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("layerbench: no src/repro under the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    (root / ".layerbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=root / ".layerbench"))
    try:
        return _run(args, root, workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, root: Path, workdir: Path, spec: dict) -> int:
    w = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
    print(f"layerbench {w.name}: seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    # the warm-up compiles the bytecode; the samples are spread over
    # the run, one after each of the first untraced iterations, each
    # scaled by the host-speed sample taken next to it
    setup_sample(w, root, workdir)
    setup_repeats = 0 if args.trace else 2 if args.tiny else SETUP_REPEATS
    setup_samples = []

    w.prepare()
    fid_e2e, fid_layers = fidelity_metrics()
    min_iters = 1 if args.tiny else MIN_ITERATIONS
    untraced = []
    traced = []
    rec = Recorder()
    host = HostSpeed()
    #: per untraced iteration, the host-speed scale of its CPU times
    scales = []

    def untraced_step():
        # each iteration between two kernel samples; back to back
        # untraced iterations share the sample between them
        before = host.samples[-1] if host.samples and not args.trace \
            else host.sample()
        untraced.append(w.iteration())
        after = host.sample()
        scales.append(host.scale(before, after))
        if len(setup_samples) < setup_repeats:
            setup_samples.append(host.scale(after)
                                 * setup_sample(w, root, workdir))

    def traced_step():
        first = len(rec.spans)
        uninstall = install(rec)
        try:
            it = w.iteration(rec)
        finally:
            uninstall()
        traced.append((it, first, len(rec.spans)))

    if args.trace:
        def step():
            untraced_step()
            traced_step()
        _loop(args.seconds, 1 if args.tiny else 2, step)
    else:
        _loop(args.seconds, min_iters, untraced_step)

    while len(setup_samples) < setup_repeats:
        setup_samples.append(host.scale(host.sample())
                             * setup_sample(w, root, workdir))
    if setup_samples:
        print(f"setup: median {statistics.median(setup_samples):.4f} "
              f"host-scaled CPU s of "
              f"{', '.join(f'{s:.3f}' for s in setup_samples)}")

    iterations = untraced + [t[0] for t in traced]
    problems = [p for it in iterations for p in it.problems]
    problems += w.final_checks()
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)

    first = iterations[0]
    print(f"output sha256: {first.digest}")
    print("counts per pass: " + ", ".join(
        f"{k}={v}" for k, v in first.counts.items()))
    print(f"checks: attempted={attempted} failed={failed} "
          f"problems={len(problems)}")
    for p in problems:
        print(f"  PROBLEM {p}")

    # each unit of work counts with its median host-scaled CPU time
    # over the iterations, and a pass with the sum of those medians
    units = median_units(untraced, scales, "cold_ms")
    cold = sum(units) / 1e3
    rerun = sum(median_units(untraced, scales, "rerun_ms")) / 1e3
    p50 = statistics.median(units)
    tail, tail_pct = tail_latency(units)
    print(f"iterations: {len(untraced)} untraced, {len(traced)} traced; "
          f"cold passes {_pass_times(untraced, 'cold_ms')} CPU s; "
          f"reruns {_pass_times(untraced, 'rerun_ms')} CPU s")
    print(f"host speed: reference kernel {len(host.samples)} samples, "
          f"median {statistics.median(host.samples) * 1e3:.2f} ms, "
          f"best {min(host.samples) * 1e3:.2f} ms; iteration scales "
          f"{min(scales):.3f}-{max(scales):.3f}, median "
          f"{statistics.median(scales):.4f}")
    print(f"units: {len(units)} x {w.unit}, median of {len(untraced)} "
          f"host-scaled each; p50 {p50:.3f} ms, p{tail_pct:.1f} "
          f"{tail:.3f} ms "
          f"({len(units) - round(tail_pct * len(units) / 100)} beyond)")
    for line in w.figures(cold, rerun, p50, tail, tail_pct):
        print(line)

    if args.trace:
        kind = "per_layer"
        n_traced = len(traced)
        t_first = traced[0][1]
        fuzz = {k: sum(t[0].counts.get(k, 0) for t in traced)
                for k in ("scenarios", "queries", "checks")}
        metrics = layer_metrics(rec, t_first, n_traced, fuzz)
        print("traced counts per iteration: " + ", ".join(
            f"{k}={v:g}" for k, v in sorted(
                traced_counts(rec, t_first, n_traced).items())))
        cpu_traced = [sum(t[0].cold_ms) + sum(t[0].rerun_ms)
                        for t in traced]
        cpu_plain = [sum(it.cold_ms) + sum(it.rerun_ms)
                       for it in untraced]
        metrics["trace.overhead_pct"] = 100 * (
            statistics.median(cpu_traced)
            / statistics.median(cpu_plain) - 1)
        imports, top = import_budget(w, root, workdir)
        metrics.update(imports)
        metrics.update(fid_layers)
        _, lo, hi = traced[-1]
        cut = next(i for i in range(lo, hi)
                   if rec.spans[i][0] == "bench.rerun")
        for line in (budget_lines(rec, lo, cut, "cold pass")
                     + budget_lines(rec, cut, hi, "rerun pass")):
            print(line)
        print("ten largest self import times in the set-up process:")
        for mod, (self_us, cum_us) in top:
            print(f"    {mod:<40} self {self_us / 1e3:8.2f} ms  "
                  f"cumulative {cum_us / 1e3:8.2f} ms")
        trace_path = root / ".layerbench" / (
            f"trace-{w.name}-seed{args.seed}.json")
        rec.write_chrome(trace_path)
        print(f"trace: {len(rec.spans)} spans written to "
              f"{trace_path.relative_to(root)}")
    else:
        kind = "end_to_end"
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": 1 - failed / attempted,
            "cold_pass_s": cold,
            "rerun_pass_s": rerun,
            "unit_p50_ms": p50,
            "unit_tail_ms": tail,
            **fid_e2e,
        }

    units_of = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units_of) != set(metrics):
        print(f"layerbench: computed {kind} metrics do not match "
              f"BENCHMARK.json: missing {sorted(set(units_of) - set(metrics))}"
              f", unlisted {sorted(set(metrics) - set(units_of))}",
              file=sys.stderr)
        return 3
    for name in units_of:
        print(f"metric {name} = {metrics[name]!r} {units_of[name]}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units_of[name]}
                    for name in units_of},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
