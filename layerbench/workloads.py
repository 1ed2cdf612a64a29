"""The three workloads, each a closed loop with one client.

Every workload runs in iterations of two passes over one fixed input
set derived from the seed: a **cold** pass and a **rerun** pass.

* ``suite`` — the paper-reproduction user.  Cold: every experiment the
  paper context supports through ``repro.perf.run_experiments`` against
  an empty result-cache directory, then each result rendered.  Rerun:
  the same against the filled directory with a fresh ``ResultCache``.
  Builders and engines work in the cold pass; in the rerun only the
  cache key/get path works, so a cache change and an engine change are
  each seen once with their mechanism and once without it.
* ``oracle-mix`` — the cost-oracle client.  A seeded stream of ``serve``
  JSONL queries goes in fixed-size batches through
  ``QueryService.answer_lines_text`` on a service with a persistent
  ``ResultCache`` in a fresh directory (cold), then a fresh service
  replays it from the filled blob tier (rerun).  Blob-tier writes and
  chases take most of the cold pass, so a memory-engine or blob-tier
  change shows here; schema, planner and service overhead show per
  query.
* ``fuzz-sweep`` — the self-check user: ``repro.fuzz.run_fuzz`` in
  fixed chunks over every registered device.  It uses no persistent
  cache, so its rerun costs what its cold pass costs; the prediction
  for a cache-keying change here is no change.

Output checks compare every pass with the first cold pass byte for
byte; a sha256 of that canonical output is printed so that a
speed-only change can show every simulated result unchanged.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass
class Iteration:
    """One cold + rerun iteration of a workload."""

    #: CPU time (ms) of each unit of work of the cold and rerun passes,
    #: in input order; a pass is the sequence of its units (one
    #: thread, no I/O waits: CPU time is wall time without the time
    #: the shared host gives to other tenants)
    cold_ms: List[float]
    rerun_ms: List[float]
    attempted: int
    failed: int
    digest: str
    counts: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _phase(rec, name: str):
    return rec.span(name) if rec is not None else nullcontext()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Workload:
    name = ""
    unit = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.reference: Optional[str] = None

    def _fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.workdir)

    def _check_digest(self, it: Iteration) -> Iteration:
        if self.reference is None:
            self.reference = it.digest
        elif it.digest != self.reference:
            it.problems.append(
                f"{self.name}: output digest changed between "
                f"iterations ({it.digest[:12]} != "
                f"{self.reference[:12]})")
        return it

    def setup_argv(self, cache_dir: str) -> List[str]:
        raise NotImplementedError

    def setup_ok(self, stdout: str) -> bool:
        return True

    def prepare(self) -> None:
        raise NotImplementedError

    def iteration(self, rec=None) -> Iteration:
        raise NotImplementedError

    def final_checks(self) -> List[str]:
        """Checks run once, outside the timed passes."""
        return []

    def figures(self, cold: float, rerun: float, p50: float, tail: float,
                tail_pct: float) -> List[str]:
        """The end-to-end figures under this workload's own names."""
        raise NotImplementedError


# -- suite ------------------------------------------------------------------


class Suite(_Workload):
    name = "suite"
    unit = "experiment"

    def setup_argv(self, cache_dir: str) -> List[str]:
        return [sys.executable, "-c",
                "import sys, repro.core, repro.perf; "
                "repro.perf.ResultCache(root=sys.argv[1])", cache_dir]

    def figures(self, cold, rerun, p50, tail, tail_pct):
        return [f"suite_cold_s = {cold:.4f} s",
                f"suite_warm_s = {rerun:.4f} s"]

    def prepare(self) -> None:
        from repro.core import RunContext, supported_experiments

        self.context = RunContext(seed=self.seed)
        self.names = supported_experiments(self.context)

    def _pass(self, cache_dir: str):
        """Each experiment in turn through ``run_experiments`` on one
        ``ResultCache``, its result rendered — one unit each."""
        from repro import perf

        units, results, cached = [], [], 0
        cache = perf.ResultCache(root=cache_dir)
        for name in self.names:
            t0 = time.process_time()
            report = perf.run_experiments([name], jobs=1, cache=cache,
                                          context=self.context)
            result = report.results[name]
            text = result.render()
            units.append((time.process_time() - t0) * 1e3)
            results.append((result, text))
            cached += sum(1 for t in report.profiler.timings if t.cached)
        return units, results, cached

    def iteration(self, rec=None) -> Iteration:
        cache_dir = self._fresh_dir()
        try:
            with _phase(rec, "bench.cold"):
                cold_ms, cold, cold_hits = self._pass(cache_dir)
            with _phase(rec, "bench.rerun"):
                rerun_ms, rerun, hits = self._pass(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        problems = []
        checks = [c for r, _ in cold + rerun for c in r.checks]
        failed = sum(1 for c in checks if not c.passed)
        built = len(self.names) - cold_hits
        cold_texts = [text for _, text in cold]
        rerun_texts = [text for _, text in rerun]
        if built != len(self.names):
            problems.append(f"suite: cold pass built {built} of "
                            f"{len(self.names)} experiments")
        if hits != len(self.names):
            problems.append(f"suite: rerun served {hits} of "
                            f"{len(self.names)} from the cache")
        if rerun_texts != cold_texts:
            problems.append("suite: rerun rendered differently "
                            "from the cold pass")
        it = Iteration(
            cold_ms=cold_ms, rerun_ms=rerun_ms,
            attempted=len(checks), failed=failed,
            digest=_sha("\n\n".join(cold_texts)),
            counts={"experiments": len(self.names),
                    "experiments_built_cold": built,
                    "experiments_cache_hits_rerun": hits,
                    "finding_checks_per_pass": len(checks) // 2,
                    "finding_checks_failed": failed},
            problems=problems)
        return self._check_digest(it)


# -- oracle-mix -------------------------------------------------------------

#: The oracle-mix stream, parameter by parameter, with its basis.
#: The repo keeps no query log, so each value is tied to an in-repo
#: client or measurement, or is marked as an assumption.
#:
#: * batch size 64: ``benchmarks/bench_serve.py``'s acceptance batch;
#: * 32 batches (2048 lines): the size of the serve mix whose chase
#:   share and chase cost were first measured (about 220 of 2048
#:   queries were chases);
#: * chase share: the ladder below gives 8 footprints x 4 strides = 32
#:   chases per device, 160 on the five registered devices, which is
#:   10.4 % of the 1536 fresh lines, the same share as that mix;
#: * kind shares of the other lines: the shares ``repro.fuzz``'s
#:   generator produces once its memory-latency family is set aside
#:   (measured over its first 2000 scenarios of seed 0: te.linear
#:   32.5 %, wgmma 28.3 %, dsm.bandwidth 17.8 %, mma 14.4 %,
#:   llm.generate 7.0 %), and its parameter value sets;
#: * repeat share 25 %: an assumption with no in-repo basis.
BATCH_SIZE = 64
N_BATCHES = 32
#: share of stream lines that repeat an earlier line's question
#: (an assumption, see above)
REPEAT_SHARE = 0.25
#: the chase ladder, chased on every device: footprints as multiples
#: of the device's L1 size, four L1-resident and four L1-spilling,
#: at the 32 B sector, 64 B, the serve default 128 B and
#: ``repro.fuzz``'s 4096 B stride.  The 16 B sub-sector stride is left
#: out: it takes the engine's slowest path, about 30 x the cost of a
#: 32 B chase, and would turn the workload into a benchmark of that
#: one path.
CHASE_FOOTPRINTS = (0.25, 0.5, 0.75, 0.875, 1.125, 1.25, 1.5, 2.0)
CHASE_STRIDES = (32, 64, 128, 4096)
#: relative weights of the non-chase kinds (``repro.fuzz``'s shares)
_FILL_KINDS = (("te.linear", 325), ("wgmma", 283), ("dsm.bandwidth", 178),
               ("mma", 144), ("llm.generate", 70))
# parameter value sets as ``repro.fuzz``'s generator draws them
_PRECISIONS = ("fp32", "fp16", "bf16", "fp8")
_LLM_MODELS = ("llama-3B", "llama-2-7B", "llama-2-13B")
_MMA_AB = ("fp16", "bf16", "tf32", "int8")
_WGMMA_AB = ("fp16", "bf16", "tf32", "e4m3", "int8")
_WGMMA_N = (8, 16, 32, 64, 128, 256)
#: legal PTX mma shapes per input dtype (paper Table VII grid)
_MMA_SHAPES = {"fp16": ((16, 8, 8), (16, 8, 16)),
               "bf16": ((16, 8, 8), (16, 8, 16)),
               "tf32": ((16, 8, 4), (16, 8, 8)),
               "int8": ((16, 8, 16), (16, 8, 32))}
_ACCUM = {"fp16": ("fp16", "fp32"), "bf16": ("fp32",),
          "tf32": ("fp32",), "int8": ("int32",),
          "e4m3": ("fp16", "fp32")}


def _fill_query(rng: random.Random, kind: str, dev: str) -> dict:
    """One non-chase query of ``kind`` on ``dev``, its parameters
    drawn from ``repro.fuzz``'s value sets."""
    from repro.arch import get_device

    if kind == "te.linear":
        q = {"precision": rng.choice(_PRECISIONS),
             "params": {"m": rng.randrange(1, 2048) * rng.randrange(1, 6),
                        "n": rng.choice((256, 1024, 4096)),
                        "k": rng.choice((256, 1024, 4096))}}
    elif kind == "mma":
        ab = rng.choice(_MMA_AB)
        m, n, k = rng.choice(_MMA_SHAPES[ab])
        q = {"params": {"ab": ab, "cd": rng.choice(_ACCUM[ab]),
                        "m": m, "n": n, "k": k}}
    elif kind == "wgmma":
        ab = rng.choice(_WGMMA_AB)
        q = {"params": {"ab": ab, "cd": rng.choice(_ACCUM[ab]),
                        "n": rng.choice(_WGMMA_N),
                        "a_source": rng.choice(("ss", "rs"))}}
    elif kind == "dsm.bandwidth":
        top = max(2, get_device(dev).max_cluster_size)
        q = {"params": {"cluster_size": rng.choice(
            [c for c in (1, 2, 4, 8, 16) if c <= top])}}
    else:
        seq = rng.choice((128, 512, 2048))
        q = {"precision": rng.choice(_PRECISIONS),
             "params": {"model": rng.choice(_LLM_MODELS),
                        "batch": rng.choice((1, 4, 8, 16, 64)),
                        "input_len": seq, "output_len": seq}}
    q.update(kind=kind, device=dev)
    return q


def oracle_stream(seed: int, n_batches: int = N_BATCHES,
                  batch: int = BATCH_SIZE,
                  footprints=CHASE_FOOTPRINTS,
                  strides=CHASE_STRIDES) -> List[List[str]]:
    """The seeded ``serve`` JSONL stream of the oracle-mix workload,
    as ``n_batches`` batches of ``batch`` lines.

    Every point kind over every registered device.  Capability gaps
    (fp8 before Hopper, wgmma off Hopper, DSM without a cluster
    fabric) arise from drawing every kind on every device.  The chase
    ladder is a fixed part of every stream and is dealt evenly over the
    batches, and the fill has fixed counts per kind and device, so the
    cost of a pass does not swing with the seed; the seed draws the
    fill's parameters, which batch each query lands in, the order and
    the repeats.  ``REPEAT_SHARE`` of the lines ask an earlier line's
    question again under their own id.
    """
    from repro.arch import get_device, list_devices

    rng = random.Random(f"layerbench.oracle-mix:{seed}")
    devices = list_devices()
    chases = [{"kind": "memory.latency", "device": dev,
               "params": {"footprint_kib": round(
                   f * get_device(dev).cache.l1_size_kib),
                   "stride_bytes": s}}
              for dev in devices for f in footprints for s in strides]
    repeats = round(batch * REPEAT_SHARE)
    n_fill = n_batches * (batch - repeats) - len(chases)
    if n_fill < 0:
        raise ValueError("oracle-mix: the chase ladder does not fit")
    total = sum(w for _, w in _FILL_KINDS)
    counts = [round(n_fill * w / total) for _, w in _FILL_KINDS]
    counts[0] += n_fill - sum(counts)
    fill = [_fill_query(rng, kind, devices[i % len(devices)])
            for (kind, _), n in zip(_FILL_KINDS, counts)
            for i in range(n)]
    rng.shuffle(chases)
    rng.shuffle(fill)
    batches: List[List[dict]] = []
    asked: List[dict] = []
    taken = 0
    for b in range(n_batches):
        fresh = chases[b::n_batches]
        n = batch - repeats - len(fresh)
        fresh += fill[taken:taken + n]
        taken += n
        asked += fresh
        lines = fresh + [rng.choice(asked) for _ in range(repeats)]
        rng.shuffle(lines)
        batches.append(lines)
    return [[json.dumps(dict(q, id=f"q{b * batch + i:05d}"),
                        sort_keys=True)
             for i, q in enumerate(lines)]
            for b, lines in enumerate(batches)]


class OracleMix(_Workload):
    name = "oracle-mix"
    unit = "batch"

    def __init__(self, seed: int, workdir: Path, tiny: bool) -> None:
        super().__init__(seed, workdir, tiny)
        self.batch = BATCH_SIZE
        self.cold_lines: Optional[List[str]] = None

    def setup_argv(self, cache_dir: str) -> List[str]:
        # the cold single-query CLI: fresh process, empty cache dir
        m = 128 * (1 + self.seed % 64)
        return [sys.executable, "-m", "repro.cli", "query", "te.linear",
                "-d", "H800", "--precision", "fp16",
                "-p", f"m={m}", "-p", "n=4096", "-p", "k=4096"]

    def figures(self, cold, rerun, p50, tail, tail_pct):
        n = len(self.lines)
        return [f"oracle_qps = {n / cold:.1f} queries/s "
                f"(batch size {self.batch})",
                f"oracle_batch_p50_ms = {p50:.3f} ms",
                f"oracle_batch_tail_ms = {tail:.3f} ms "
                f"(p{tail_pct:.1f} of {len(self.batches)} batches)",
                f"oracle_rerun_qps = {n / rerun:.1f} queries/s"]

    def setup_ok(self, stdout: str) -> bool:
        lines = stdout.strip().splitlines()
        return bool(lines) and json.loads(lines[-1])["status"] == "ok"

    def prepare(self) -> None:
        from repro.serve import parse_query_line, plan_queries

        if self.tiny:
            self.batches = oracle_stream(self.seed, n_batches=4,
                                         footprints=(0.5, 1.5),
                                         strides=(128,))
        else:
            self.batches = oracle_stream(self.seed)
        self.lines = [line for batch in self.batches for line in batch]
        # exact plan shape, computed once outside the timed passes
        shards = slots = 0
        for batch in self.batches:
            plan = plan_queries([parse_query_line(x) for x in batch])
            shards += len(plan.shards)
            slots += sum(len(s.queries) for s in plan.shards)
        self.plan_counts = {"shards_per_pass": shards,
                            "unique_slots_per_pass": slots}

    def _pass(self, cache_dir: str):
        from repro.perf import ResultCache
        from repro.serve import QueryService

        units = []
        out = []
        service = QueryService(cache=ResultCache(root=cache_dir), jobs=1)
        for batch in self.batches:
            t0 = time.process_time()
            out.append(service.answer_lines_text(batch))
            units.append((time.process_time() - t0) * 1e3)
        return units, "".join(out)

    def iteration(self, rec=None) -> Iteration:
        cache_dir = self._fresh_dir()
        try:
            with _phase(rec, "bench.cold"):
                cold_ms, cold_text = self._pass(cache_dir)
            with _phase(rec, "bench.rerun"):
                rerun_ms, rerun_text = self._pass(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        problems = []
        lines = cold_text.splitlines()
        if len(lines) != len(self.lines):
            problems.append(f"oracle-mix: {len(lines)} answers for "
                            f"{len(self.lines)} queries")
        if rerun_text != cold_text:
            problems.append("oracle-mix: blob-tier replay differs "
                            "from the cold stream")
        by = Counter()
        for line in lines:
            p = json.loads(line)
            by[f"{p['kind']}/{p['status']}"] += 1
        errors = sum(n for k, n in by.items() if k.endswith("/error"))
        self.cold_lines = lines
        counts = {"queries_per_pass": len(lines), **self.plan_counts}
        counts.update({f"answers.{k}": n for k, n in sorted(by.items())})
        it = Iteration(cold_ms=cold_ms, rerun_ms=rerun_ms,
                       attempted=2 * len(self.lines), failed=2 * errors,
                       digest=_sha(cold_text), counts=counts,
                       problems=problems)
        return self._check_digest(it)

    def final_checks(self) -> List[str]:
        """A seeded sample answered one query at a time must equal its
        batched answers."""
        from repro.serve import QueryService

        if self.cold_lines is None:
            return ["oracle-mix: no cold pass ran"]
        rng = random.Random(f"layerbench.oracle-sample:{self.seed}")
        sample = sorted(rng.sample(range(len(self.lines)),
                                   min(32, len(self.lines))))
        service = QueryService(cache=None, jobs=1)
        return [f"oracle-mix: query {i} answered alone differs from "
                "its batched answer"
                for i in sample
                if service.answer_lines_text([self.lines[i]]).rstrip("\n")
                != self.cold_lines[i]]


# -- fuzz-sweep -------------------------------------------------------------


class FuzzSweep(_Workload):
    name = "fuzz-sweep"
    unit = "run_fuzz call"

    def __init__(self, seed: int, workdir: Path, tiny: bool) -> None:
        super().__init__(seed, workdir, tiny)
        # 100 calls: the scenarios' cost varies with their seeds, and
        # the pass total over 600 scenarios spreads by about 5 % from
        # seed to seed (9 % over 240)
        calls, budget = (4, 3) if tiny else (100, 6)
        rng = random.Random(f"layerbench.fuzz-sweep:{seed}")
        self.chunks: List[Tuple[int, int]] = [
            (rng.randrange(2 ** 31), budget) for _ in range(calls)]

    def setup_argv(self, cache_dir: str) -> List[str]:
        return [sys.executable, "-c",
                "import sys, repro.fuzz; "
                "repro.fuzz.ScenarioGenerator(int(sys.argv[1]))",
                str(self.seed)]

    def figures(self, cold, rerun, p50, tail, tail_pct):
        n = sum(b for _, b in self.chunks)
        return [f"fuzz_scenarios_per_s = {n / cold:.2f} scenarios/s "
                f"({n} scenarios in {len(self.chunks)} run_fuzz calls)"]

    def prepare(self) -> None:
        import repro.fuzz  # noqa: F401

    def _pass(self):
        from repro import fuzz

        units = []
        reports = []
        raised = []
        for seed, budget in self.chunks:
            t0 = time.process_time()
            try:
                reports.append(fuzz.run_fuzz(seed, budget, jobs=1))
            except Exception as exc:  # noqa: BLE001 - counted as failed
                raised.append((budget, f"fuzz-sweep: run_fuzz({seed}, "
                               f"{budget}) raised {type(exc).__name__}: "
                               f"{exc}"))
            units.append((time.process_time() - t0) * 1e3)
        return units, reports, raised

    def iteration(self, rec=None) -> Iteration:
        with _phase(rec, "bench.cold"):
            cold_ms, cold, raised = self._pass()
        with _phase(rec, "bench.rerun"):
            rerun_ms, rerun, raised_rerun = self._pass()
        raised += raised_rerun
        problems = [message for _, message in raised]
        text = "\n".join(r.summary() for r in cold)
        if "\n".join(r.summary() for r in rerun) != text:
            problems.append("fuzz-sweep: rerun reported differently "
                            "from the cold pass")
        reports = cold + rerun
        violations = sum(len(r.violations) for r in reports)
        # failed scenarios, not violations: one scenario may break
        # several invariants
        failed_scenarios = sum(
            len({v.scenario_index for v in r.violations}) for r in reports)
        budget = sum(b for _, b in self.chunks)
        statuses = Counter()
        for r in cold:
            statuses.update(r.status_counts)
        counts = {"scenarios": sum(r.scenarios for r in cold),
                  "queries": sum(r.queries for r in cold),
                  "checks": sum(r.checks for r in cold),
                  "violations": violations}
        counts.update({f"answers.{k}": n
                       for k, n in sorted(statuses.items())})
        it = Iteration(
            cold_ms=cold_ms, rerun_ms=rerun_ms,
            attempted=2 * budget,
            failed=failed_scenarios + sum(b for b, _ in raised),
            digest=_sha(text), counts=counts, problems=problems)
        return self._check_digest(it)


WORKLOADS = {w.name: w for w in (Suite, OracleMix, FuzzSweep)}
