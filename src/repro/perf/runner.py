"""The parallel experiment runner.

Experiments are independent pure functions of their
:class:`~repro.core.context.RunContext`, so the suite parallelises
trivially — the only care needed is determinism (results are merged in
requested-name order no matter which worker finishes first) and
picklability (workers receive ``(name, context_payload, obs, trace)``
and ship back ``(name, table, checks, wall, dump)``; the
:class:`~repro.core.registry.ExperimentResult` is reassembled in the
parent against its own registry, because ``Experiment.builder`` is an
arbitrary callable that may not pickle, and the context hook — an
arbitrary callable too — never crosses the process boundary).

:func:`parallel_map` is the one fan-out of the package: the
experiment runner, the fuzz driver and the serve dispatcher all use
it.  It yields results in input order from
``multiprocessing.Pool.imap`` with one item per task, so an idle
worker always takes the next pending item (a heavy-tailed job mix
never strands light items behind a pre-assigned chunk —
``benchmarks/bench_fuzz.py`` gates the >=2x claim against chunked
dispatch) and callers never re-order anything.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, TypeVar)

from repro.core.context import DEFAULT_CONTEXT, RunContext
from repro.core.registry import (
    ExperimentResult,
    get_experiment,
    list_experiments,
)
from repro.obs import session as _obs
from repro.obs.session import isolated
from repro.perf.cache import ResultCache
from repro.perf.profile import Profiler

__all__ = ["RunReport", "run_experiments", "parallel_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def _run_one(task: Tuple[str, dict, bool, bool]) \
        -> Tuple[str, object, tuple, float, Optional[dict]]:
    """Worker entry point — must stay module-level for pickling.

    Importing :mod:`repro.core` on the worker side (re)populates the
    registry, so this also works under spawn-style process start
    methods where the child begins with a blank interpreter.

    When observability is requested (``obs``), the experiment runs
    under a **fresh nested session** and its counter/event delta ships
    back with the result.  The same path runs in-process for serial
    runs, so the parent merges per-experiment integer deltas in
    requested-name order either way — which is what makes serial and
    ``--jobs N`` counter dumps byte-identical.
    """
    import repro.core  # noqa: F401  (registers experiments)

    name, ctx_payload, obs, trace = task
    ctx = RunContext.from_payload(ctx_payload)
    t0 = time.perf_counter()
    result, dump = isolated(get_experiment(name).run, ctx, obs=obs,
                            trace=trace)
    wall = time.perf_counter() - t0
    return name, result.table, tuple(result.checks), wall, dump


@dataclass(frozen=True)
class RunReport:
    """Outcome of one :func:`run_experiments` invocation."""

    results: Dict[str, ExperimentResult]   # in requested order
    profiler: Profiler

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())


def run_experiments(
    names: Optional[Sequence[str]] = None,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    context: Optional[RunContext] = None,
) -> RunReport:
    """Run ``names`` (default: all), optionally cached and parallel.

    The returned mapping iterates in requested-name order and every
    result is identical to what a serial ``run_experiment`` loop would
    produce under the same ``context`` — parallelism and caching
    change wall time only.
    """
    ctx = DEFAULT_CONTEXT if context is None else context
    if names is None:
        names = list_experiments()
    names = list(names)
    for name in names:
        get_experiment(name)   # fail fast on unknown names

    profiler = Profiler(jobs=max(1, jobs))
    results: Dict[str, ExperimentResult] = {}
    timings: Dict[str, Tuple[float, bool]] = {}

    sess = _obs.ACTIVE
    tracer = sess.tracer if sess is not None else None

    def _span(label: str, **args):
        """A ``runner.*`` self-profiling span on the wall track —
        orchestration overhead (cache probes, serialization, dispatch,
        merge) shows up in the trace next to the experiment spans."""
        if tracer is None:
            return nullcontext()
        return tracer.span(label, cat="runner", tid="runner",
                           args=args or None)

    # 1. serve what we can from the cache
    pending: List[str] = []
    for name in names:
        hit = None
        if cache is not None:
            with _span("runner.cache_lookup", experiment=name):
                t0 = time.perf_counter()
                hit = cache.get(name, ctx)
                wall = time.perf_counter() - t0
        if hit is not None:
            results[name] = hit
            timings[name] = (wall, True)
        else:
            pending.append(name)

    # 2. run the rest, fanned out if asked to
    if pending:
        with _span("runner.context_serialize"):
            payload = ctx.to_payload()
            tasks = [(name, payload, sess is not None, tracer is not None)
                     for name in pending]
        with _span("runner.dispatch", jobs=max(1, jobs),
                   pending=len(pending)):
            outcomes = list(parallel_map(_run_one, tasks, jobs=jobs))
        for name, table, checks, wall, dump in outcomes:
            res = ExperimentResult(
                experiment=get_experiment(name),
                table=table,
                checks=checks,
                context=ctx.without_hook(),
            )
            results[name] = res
            timings[name] = (wall, False)
            if sess is not None and dump is not None:
                with _span("runner.merge", experiment=name):
                    sess.merge(dump, experiment=name)
            ctx.emit(name, wall)
            if cache is not None:
                with _span("runner.cache_store", experiment=name):
                    cache.put(name, res, ctx)

    # 3. deterministic merge: requested order, whatever ran where
    ordered = {name: results[name] for name in names}
    for name in names:
        wall, cached = timings[name]
        profiler.add(name, wall, cached=cached)
    if cache is not None:
        profiler.cache_hits = cache.stats.hits
        profiler.cache_misses = cache.stats.misses
    else:
        profiler.cache_misses = len(names)
    return RunReport(results=ordered, profiler=profiler)


def parallel_map(fn: Callable[[_T], _R], items: Iterable[_T], *,
                 jobs: int = 1) -> Iterator[_R]:
    """Yield ``fn(x)`` for each of ``items``, in input order.

    ``jobs <= 1`` or a single item runs in-process, so callers can
    pass a user-controlled job count straight through.  Otherwise
    ``fn`` (module-level, so it pickles) runs on a
    ``multiprocessing.Pool`` of ``min(jobs, len(items))`` workers
    through ``imap`` with one item per task: each idle worker takes
    the next pending item, and results still come back in input
    order.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with multiprocessing.Pool(processes=min(jobs, len(items))) as pool:
        yield from pool.imap(fn, items)
