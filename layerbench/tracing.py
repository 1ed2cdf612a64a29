"""Span recording around the program's public entry points.

The traced run installs a wrapper on every binding a caller looks a
layer's entry point up through (``repro.serve.service.plan_queries``
as well as ``repro.serve.planner.plan_queries``; a class attribute for
methods), so no call bypasses its span.  Each wrapper records a span
``[name, start, end, parent, info]`` in memory; :meth:`Recorder.fold`
turns them into per-name self times (span time minus the time its
child spans cover) and :meth:`Recorder.write_chrome` writes a
Chrome/Perfetto trace at the end.  Nothing is patched while the
end-to-end metrics are measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

#: experiment-builder modules, one ``core.build.<module>`` layer each
BUILD_MODULES = ("memory", "tensorcore_exp", "te_exp", "features",
                 "extensions", "devices")

#: point-query kinds the cost oracle answers
ORACLE_KINDS = ("te.linear", "mma", "wgmma", "memory.latency",
                "dsm.bandwidth", "llm.generate")


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.services: List[Any] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one per pass)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable, name, info: Optional[Callable] = None):
        """``fn`` recording a span per call.  ``name`` is a string or
        a function of the call's arguments; ``info(result, *args)``
        stores exact counts taken from the call on its span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name if isinstance(name, str)
                              else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span[4] = info(result, *args, **kwargs)
            return result

        return traced

    # -- folding ------------------------------------------------------------

    def fold(self, first: int = 0) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls``, ``total_s`` and ``self_s`` over the
        spans recorded from index ``first`` on."""
        child_s = defaultdict(float)
        for span in self.spans[first:]:
            if span[3] >= first:
                child_s[span[3]] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = {}
        for i, span in enumerate(self.spans[first:], start=first):
            row = out.setdefault(span[0], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            dur = span[2] - span[1]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_s[i]
        return out

    def infos(self, prefix: str, first: int = 0) -> List[Any]:
        """The ``info`` payloads of spans whose name starts with
        ``prefix``, in call order."""
        return [s[4] for s in self.spans[first:]
                if s[0].startswith(prefix) and s[4] is not None]

    def write_chrome(self, path) -> None:
        """All spans as Chrome trace-event JSON (``X`` events)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [{
            "name": s[0], "cat": s[0].split(".")[0], "ph": "X",
            "pid": 1, "tid": 1,
            "ts": round((s[1] - t0) * 1e6, 3),
            "dur": round((s[2] - s[1]) * 1e6, 3),
            "args": {"span": i, "parent": s[3]},
        } for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)


# -- the entry points -------------------------------------------------------


def _build_name(exp, *_a, **_k) -> str:
    module = getattr(exp.builder, "__module__", "") or ""
    return "core.build." + module.rsplit(".", 1)[-1]


def _chase_info(stats, *_a, **_k):
    return (stats.simulated, stats.extrapolated)


def _plan_info(plan, *_a, **_k):
    return (plan.n_queries, sum(len(s.queries) for s in plan.shards),
            len(plan.shards))


def _hit_info(result, *_a, **_k):
    return result is not None


def _group_info(result, _oracle, kind, queries, *_a, **_k):
    return (kind, len(queries))


def _scenario_info(scenario, *_a, **_k):
    return tuple(q.kind for q in scenario.queries)


def _entry_points():
    """(span name, info, bindings): every binding is
    ``module:attr`` or ``module:Class.attr``."""
    return [
        ("perf.runner", None, ["repro.perf.runner:run_experiments",
                               "repro.perf:run_experiments"]),
        (_build_name, None, ["repro.core.registry:Experiment.run"]),
        ("core.render", None,
         ["repro.core.registry:ExperimentResult.render"]),
        ("perf.cache.key", None, ["repro.perf.cache:ResultCache.key_for"]),
        ("perf.cache.get", _hit_info, ["repro.perf.cache:ResultCache.get"]),
        ("perf.cache.put", None, ["repro.perf.cache:ResultCache.put"]),
        ("perf.cache.blob_get", _hit_info,
         ["repro.perf.cache:ResultCache.get_blob"]),
        ("perf.cache.blob_put", None,
         ["repro.perf.cache:ResultCache.put_blob"]),
        ("serve.schema.parse", None,
         ["repro.serve.service:parse_query_line",
          "repro.serve.schema:parse_query_line",
          "repro.serve:parse_query_line"]),
        ("serve.planner.plan", _plan_info,
         ["repro.serve.service:plan_queries",
          "repro.serve.planner:plan_queries",
          "repro.serve:plan_queries"]),
        ("serve.service", None,
         ["repro.serve.service:QueryService.answer_lines_text",
          "repro.serve.service:QueryService.answer_lines",
          "repro.serve.service:QueryService.answer_batch"]),
        ("serve.dispatch", None,
         ["repro.serve.service:dispatch_shards",
          "repro.serve.dispatch:dispatch_shards"]),
        (lambda _o, kind, *_a, **_k: "serve.oracle." + kind, _group_info,
         ["repro.serve.oracle:CostOracle.answer_group"]),
        ("memory.chase", _chase_info,
         ["repro.memory.chase:ChaseEngine.run"]),
        ("tensorcore.sweep", None,
         ["repro.tensorcore.timing:MmaSweep.__init__",
          "repro.tensorcore.timing:WgmmaSweep.__init__"]),
        ("te.cost.linear_batch", None,
         ["repro.te.cost:CostModel.linear_seconds_batch"]),
        ("fuzz.driver", None, ["repro.fuzz.driver:run_fuzz",
                               "repro.fuzz:run_fuzz"]),
        ("fuzz.generate", _scenario_info,
         ["repro.fuzz.generator:ScenarioGenerator.scenario"]),
        ("fuzz.check", None, ["repro.fuzz.driver:check_scenario",
                              "repro.fuzz.oracle:check_scenario",
                              "repro.fuzz:check_scenario"]),
    ]


def _resolve(binding: str):
    module_name, _, attr = binding.partition(":")
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every entry point; returns the function that undoes it.

    A function re-exported under several names is wrapped once and the
    same wrapper installed on each name that still holds the original.
    ``QueryService.__init__`` is wrapped too, so the services the
    program creates internally can report their cache-tier stats.
    """
    undo = []
    for name, info, bindings in _entry_points():
        wrapped: Dict[int, Callable] = {}
        for binding in bindings:
            owner, leaf = _resolve(binding)
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
            if id(original) not in wrapped:
                wrapped[id(original)] = rec.wrap(original, name, info)
            setattr(owner, leaf, wrapped[id(original)])
            undo.append((owner, leaf, original))

    from repro.serve.service import QueryService

    init = QueryService.__dict__["__init__"]

    @functools.wraps(init)
    def remembered(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rec.services.append(self)

    QueryService.__init__ = remembered
    undo.append((QueryService, "__init__", init))

    def uninstall() -> None:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)

    return uninstall


# -- per-layer metrics ------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, first: int, iterations: int,
                  fuzz_counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics from the spans recorded from ``first`` on,
    over ``iterations`` traced iterations: times are self times per
    iteration; counts are exact per iteration; ratios are pooled."""
    rows = rec.fold(first)
    per_it = max(1, iterations)

    def self_ms(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0) * 1e3 / per_it

    def per_call_us(name: str) -> float:
        row = rows.get(name)
        return _ratio(row["self_s"] * 1e6, row["calls"]) if row else 0.0

    m: Dict[str, float] = {}
    for mod in BUILD_MODULES:
        m[f"core.build.{mod}_ms"] = self_ms(f"core.build.{mod}")
    m["core.render_ms"] = self_ms("core.render")
    for op in ("key", "get", "put", "blob_get", "blob_put"):
        m[f"perf.cache.{op}_ms"] = self_ms(f"perf.cache.{op}")
    hits = rec.infos("perf.cache.get", first) \
        + rec.infos("perf.cache.blob_get", first)
    m["perf.cache.hit_ratio"] = _ratio(sum(hits), len(hits))
    m["perf.runner.self_ms"] = self_ms("perf.runner")

    m["serve.schema.parse_us"] = per_call_us("serve.schema.parse")
    m["serve.planner.plan_us"] = per_call_us("serve.planner.plan")
    plans = rec.infos("serve.planner.plan", first)
    m["serve.planner.unique_share"] = _ratio(
        sum(p[1] for p in plans), sum(p[0] for p in plans))
    m["serve.service.self_ms"] = self_ms("serve.service")
    m["serve.dispatch.self_ms"] = self_ms("serve.dispatch")
    tiers = defaultdict(int)
    for svc in rec.services:
        stats = svc.stats_payload()["stats"]
        for tier in ("memo_hits", "blob_hits", "shard_misses"):
            tiers[tier] += stats.get(f"serve.cache.{tier}", 0)
    lookups = tiers["memo_hits"] + tiers["blob_hits"] \
        + tiers["shard_misses"]
    m["serve.memo.hit_ratio"] = _ratio(tiers["memo_hits"], lookups)
    m["serve.blob.hit_ratio"] = _ratio(
        tiers["blob_hits"], lookups - tiers["memo_hits"])

    groups = defaultdict(int)
    for kind, n in rec.infos("serve.oracle.", first):
        groups[kind] += n
    oracle_self = 0.0
    for kind in ORACLE_KINDS:
        row = rows.get("serve.oracle." + kind)
        slug = kind.replace(".", "-")
        m[f"serve.oracle.{slug}.us_per_query"] = _ratio(
            row["total_s"] * 1e6, groups[kind]) if row else 0.0
        m[f"serve.oracle.{slug}.queries"] = groups[kind] / per_it
        oracle_self += self_ms("serve.oracle." + kind)
    m["serve.oracle.self_ms"] = oracle_self

    chases = rec.infos("memory.chase", first)
    simulated = sum(c[0] for c in chases)
    extrapolated = sum(c[1] for c in chases)
    chase_s = rows.get("memory.chase", {}).get("self_s", 0.0)
    m["memory.chase.ms"] = self_ms("memory.chase")
    m["memory.chase.runs"] = len(chases) / per_it
    m["memory.chase.simulated_share"] = _ratio(
        simulated, simulated + extrapolated)
    m["memory.chase.sim_accesses_per_s"] = _ratio(simulated, chase_s)
    m["tensorcore.sweep_ms"] = self_ms("tensorcore.sweep")
    m["te.cost.linear_batch_ms"] = self_ms("te.cost.linear_batch")

    m["fuzz.driver.self_ms"] = self_ms("fuzz.driver")
    m["fuzz.generate_ms"] = self_ms("fuzz.generate")
    m["fuzz.check.self_ms"] = self_ms("fuzz.check")
    for key in ("scenarios", "queries", "checks"):
        m[f"fuzz.{key}"] = fuzz_counts.get(key, 0) / per_it
    m["bench.unattributed_ms"] = sum(
        self_ms(name) for name in rows if name.startswith("bench."))
    return m


def traced_counts(rec: Recorder, first: int,
                  iterations: int) -> Dict[str, float]:
    """Exact simulated-work counts per iteration, taken at the layer
    boundaries: chase runs and accesses, shard plans, oracle queries
    by kind and generated fuzz queries by kind."""
    per_it = max(1, iterations)
    counts: Dict[str, float] = defaultdict(float)
    for simulated, extrapolated in rec.infos("memory.chase", first):
        counts["chase.runs"] += 1
        counts["chase.simulated_accesses"] += simulated
        counts["chase.extrapolated_accesses"] += extrapolated
    for queries, slots, shards in rec.infos("serve.planner.plan", first):
        counts["plan.batches"] += 1
        counts["plan.queries"] += queries
        counts["plan.unique_slots"] += slots
        counts["plan.shards"] += shards
    for kind, n in rec.infos("serve.oracle.", first):
        counts[f"oracle.{kind}"] += n
    for kinds in rec.infos("fuzz.generate", first):
        for kind in kinds:
            counts[f"generated.{kind}"] += 1
    return {k: v / per_it for k, v in counts.items()}


def budget_lines(rec: Recorder, first: int, last: int,
                 label: str) -> List[str]:
    """A self-time budget table over spans ``first``..``last``: every
    layer's share of the traced wall, and the check that the shares
    add up to the root spans' time."""
    sub = Recorder()
    sub.spans = [[s[0], s[1], s[2], s[3] - first if s[3] >= first
                  else -1, s[4]] for s in rec.spans[first:last]]
    rows = sub.fold()
    wall = sum(s[2] - s[1] for s in sub.spans if s[3] == -1)
    total = sum(r["self_s"] for r in rows.values())
    lines = [f"  layer budget, {label}: traced wall {wall * 1e3:.1f} ms, "
             f"self times add to {total * 1e3:.1f} ms"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"    {name:<34} {row['self_s'] * 1e3:10.2f} ms "
                     f"{_ratio(100 * row['self_s'], wall):6.1f} %  "
                     f"calls={row['calls']}")
    return lines
