"""Steady-state pointer-chase engine.

Every chase the paper's methodology runs — capacity sweeps, stride
sweeps, conflict ladders, the Table IV per-level probes — walks a
*periodic* address stream: a pointer chain (or modular walk) of period
``P`` replayed for ``iters`` accesses.  The driving loop used to step
the hierarchy one scalar ``load()`` at a time, which made the chase
the last Python-rate hot loop in the simulator.

:class:`ChaseEngine` exploits the periodicity instead of paying for
it.  It simulates whole periods through the batched
:meth:`~repro.memory.hierarchy.MemoryHierarchy.load_many` path —
grouped into "superlaps" of several periods so short chains still
move in efficiently sized batches (any multiple of the period is
itself a period) — and fingerprints each superlap with

* the per-access latency vector and serving levels,
* the per-access TLB hit bits, and
* a canonical digest of every piece of state the stream can see:
  the touched L1/L2 sets (resident lines, sector masks, relative LRU
  rank — see :meth:`SetAssociativeCache.state_digest`) and the TLB's
  recency order.

When two consecutive laps fingerprint equal, the chase has reached a
fixed point: the digest captures all behaviour-relevant state
ordinally (LRU decisions compare stamps, never read them), so every
future lap must repeat the confirming lap's outcomes *and* its
counter increments exactly.  The engine then accounts the remaining
whole laps analytically — outcome counts, ``CacheStats`` fields,
TLB hit/miss totals and the active :class:`ObsSession` counter bank
all advance by ``k ×`` the confirming lap's delta — and simulates
only the final partial lap, which by the same equivalence argument
is exact.  Nothing about the result is approximate; the scalar chase
loop is preserved as the executable spec in
``tests/reference/chase.py`` and property tests assert exact cycle
totals and counter-bank equality against it.

A chase that starts from empty caches is not simulated at all.  For
a cyclic stream through LRU levels the Mattson stack distance decides
every access — it hits iff fewer than ``ways`` other lines of its set
were touched since the line's last access, and its sector is valid —
so lap 1 is all compulsory misses, the L1 repeats one outcome from
lap 2 on, and the L2, which from lap 2 on sees only the lines of
thrashing L1 sets, from lap 3 on (see :func:`_cold_lru`).  When the
stream allows it (single-sector ``.ca``/``.cg`` accesses, each line
and page one contiguous run per period, no sector repeated; the TLB
empty or holding every page of the chain) and the chase is long
enough to pay for it, the engine counts the
outcomes of laps 1, 2 and 3+ per line, multiplies whole laps, adds
the last lap as a prefix, and hands each cache the state the chase
leaves behind.  The result, the counters and that state are those of
the simulation; everything else is simulated as above.

Summed cycles are computed with :func:`chase_total_clk` — a
count-weighted sum over the distinct latency values in ascending
order — on the engine *and* spec paths, so totals compare bit-equal
regardless of how many laps were extrapolated.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.isa.memory_ops import CacheOp
from repro.memory.hierarchy import (LEVEL_CODES, BatchAccessResult,
                                    MemLevel, MemoryHierarchy)
from repro.obs.session import active_tracer
from repro.obs.trace import SIM_TRACK

__all__ = ["ChaseEngine", "ChaseStats", "chase_total_clk",
           "latency_counts"]

#: target accesses per simulated batch: laps are grouped into
#: "superlaps" of ``ceil(_BATCH_TARGET / period)`` periods so short
#: chains still move through ``load_many`` in efficiently sized calls.
#: Any multiple of the period is itself a period, so fixed-point
#: detection on superlap signatures is exactly as sound as on single
#: laps — it just confirms after at most two superlaps instead of two
#: laps.
_BATCH_TARGET = 512


def latency_counts(latencies: Union[Sequence[float], np.ndarray]) \
        -> Dict[float, int]:
    """Histogram a latency stream into ``{value: count}``."""
    values, counts = np.unique(np.asarray(latencies, dtype=np.float64),
                               return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def chase_total_clk(counts: Mapping[float, int]) -> float:
    """Total cycles of a chase from its latency histogram.

    Summation order is fixed (ascending latency value, one multiply
    per distinct value), so any two paths that agree on the histogram
    — e.g. a scalar loop and an engine that extrapolated most of its
    laps — produce bit-identical totals.
    """
    total = 0.0
    for value in sorted(counts):
        total += value * counts[value]
    return total


@dataclass(frozen=True)
class ChaseStats:
    """Outcome of one engine chase, exact in every count."""

    iters: int
    latency_counts: Dict[float, int]
    level_counts: Dict[MemLevel, int]
    tlb_hits: int
    #: accesses resolved by simulation vs accounted analytically
    simulated: int = 0
    extrapolated: int = 0

    @property
    def total_latency_clk(self) -> float:
        return chase_total_clk(self.latency_counts)

    @property
    def mean_latency_clk(self) -> float:
        return self.total_latency_clk / self.iters if self.iters \
            else 0.0

    def at_level(self, level: MemLevel) -> float:
        """Fraction of accesses served at ``level``."""
        if not self.iters:
            return 0.0
        return self.level_counts.get(level, 0) / self.iters


#: cache operators the closed form models: both allocate on a miss
#: in every cache they pass through
_CLOSED_FORM_OPS = (CacheOp.CACHE_ALL, CacheOp.CACHE_GLOBAL)

#: shortest chase the closed form takes.  Its cost is some two hundred
#: array operations whatever the length, plus installing the end state
#: if the caches are used again; a shorter chase simulates for less
#: (H800, periods 1-256: a cold chase of 8-128 accesses simulates in
#: 0.12-0.9 ms, the closed form with its install takes 0.55-1.2 ms;
#: they meet at 256-512 accesses)
_CLOSED_FORM_MIN_ITERS = 256


@dataclass(frozen=True)
class _Runs:
    """A period's accesses grouped into maximal runs of one key (a
    line or a page), each key forming exactly one run."""

    keys: np.ndarray      # per run, in lap order
    heads: np.ndarray     # first position of each run
    ends: np.ndarray      # one past its last position

    @classmethod
    def of(cls, key: np.ndarray, ascending: bool) -> Optional["_Runs"]:
        """The runs of ``key``, or ``None`` if some key recurs after
        another one (its accesses are not contiguous)."""
        heads = np.concatenate(
            ([0], np.flatnonzero(key[1:] != key[:-1]) + 1))
        keys = key[heads]
        if not ascending and len(np.unique(keys)) != len(keys):
            return None
        return cls(keys, heads, np.append(heads[1:], len(key)))


class _Laps:
    """How ``iters`` accesses fall on the laps of a period.  A cold
    chase has three lap patterns (laps 1, 2 and 3+): ``full`` whole
    laps of each, then the first ``rest`` accesses of lap ``last``,
    of pattern ``tail``.  Per-run flags are summed over the chase
    with weights ``(per whole lap, in the tail)``: run lengths for
    accesses, ones for run heads."""

    def __init__(self, iters: int, period: int) -> None:
        q, self.rest = divmod(iters, period)
        self.full = (min(q, 1), int(q >= 2), max(q - 2, 0))
        self.tail = min(q, 2)
        self.last = q + (self.rest > 0)          # laps started
        self.cut = self.rest or period           # accesses of the last

    def weights(self, runs: _Runs, heads: bool = False):
        """The weights that count ``runs``' accesses, or with
        ``heads`` their heads."""
        if heads:
            return np.ones(len(runs.keys), dtype=np.int64), \
                (runs.heads < self.rest).astype(np.int64)
        length = runs.ends - runs.heads
        return length, np.clip(self.rest - runs.heads, 0, length)

    def total(self, rows, weights) -> int:
        """Sum over the chase of per-run flags given per lap pattern
        (``rows``: laps 1, 2, 3+) under ``weights``."""
        whole, tail = weights
        return int(sum(f * int(row @ whole)
                       for f, row in zip(self.full, rows) if f)
                   + rows[self.tail] @ tail)

    def before(self, j: np.ndarray, per_lap) -> np.ndarray:
        """Sum of ``per_lap`` (per pattern) over laps ``1..j-1``."""
        return (per_lap[0] * (j > 1) + per_lap[1] * (j > 2)
                + per_lap[2] * np.maximum(j - 3, 0))

    def last_lap(self, runs: _Runs, later: np.ndarray) -> np.ndarray:
        """Per run, the lap of its last access.  ``later`` marks the
        runs still reached from lap 2 on; the others are reached in
        lap 1 only."""
        return np.where(later, np.where(runs.heads < self.cut,
                                        self.last, self.last - 1), 1)


def _cold_lru(sets: np.ndarray, ways: int,
              later: Optional[np.ndarray] = None):
    """Head hits ``(lap 2, laps 3+)`` of the runs of a cyclic stream
    through an LRU level that starts empty, one line per run, and the
    number of lines the level holds at the end: ``(hits, fill)``.

    The level sees every run in lap 1 and, from lap 2 on, only the
    ``later`` runs (all when ``None``).  By the Mattson stack distance
    a run head hits iff fewer than ``ways`` other lines of its set
    were touched since the line's last access.  Lap 1 is all
    compulsory misses.  In lap 2 a ``later`` line of a set with
    ``k`` lines is preceded by every line of its set but itself and
    the lap-1-only lines before it.  From lap 3 on it is preceded by
    the other ``later`` lines of its set, so the set hits iff it has
    at most ``ways`` of them.  A run's tail follows its head: hits
    after a hit, sector misses after a tag miss.
    """
    k = np.bincount(sets)
    fill = int(np.minimum(k, ways).sum())
    if later is None or later.all():
        hit = k[sets] <= ways
        return (hit, hit), fill
    if not later.any():                 # no line comes back: no hits
        return (later, later), fill
    once = np.bincount(sets[~later], minlength=len(k))
    order = np.argsort(sets, kind="stable")
    flag = (~later[order]).astype(np.int64)
    before = np.empty(len(sets), dtype=np.int64)
    before[order] = np.cumsum(flag) - flag \
        - (np.cumsum(once) - once)[sets[order]]
    return (later & (k[sets] - 1 - before < ways),
            later & (k[sets] - once[sets] <= ways)), fill


def _settle(cache, lines: _Runs, laps: _Laps, later: np.ndarray,
            hit, fill: int, masks: np.ndarray, cut_run: Optional[int],
            cut_mask: int) -> None:
    """Account the chase's accesses to ``cache`` and hand it the state
    they leave behind (see :meth:`SetAssociativeCache.settle`).

    A set that ends holding ``min(k, ways)`` of its ``k`` lines has
    evicted one line per insertion beyond that, so the evictions are
    the insertions (tag misses) less ``fill``."""
    n = len(lines.keys)
    tag = (np.ones(n, dtype=bool), later & ~hit[0], later & ~hit[1])
    w = laps.weights(lines)
    tags = laps.total(tag, laps.weights(lines, heads=True))

    def resolve():
        # every line keeps the clock of its last access, the sectors
        # it holds (``cut_mask`` if the run the last lap stops inside
        # refilled it) and the number of its last insertion
        length = w[0]
        acc_later = length * later
        j = laps.last_lap(lines, later)
        pat = np.minimum(j, 3) - 1
        # clock: accesses of the laps before, of the lap before the
        # run, and of the run itself
        stamp = laps.before(j, (int(length.sum()),)
                            + (int(acc_later.sum()),) * 2) \
            + np.where(pat, np.cumsum(acc_later) - acc_later,
                       lines.heads) + length
        refilled = np.choose(pat, tag)  # last run began with a tag miss
        # a run that hit is resident since the last lap it missed:
        # lap 2 or 1 (laps 3+ repeat one outcome)
        j_ins = np.where(refilled, j,
                         np.where((j >= 3) & tag[1], 2, 1))
        ins = laps.before(j_ins, (n, int(tag[1].sum()),
                                  int(tag[2].sum()))) \
            + np.choose(np.minimum(j_ins, 3) - 1,
                        (np.arange(n), np.cumsum(tag[1]) - tag[1],
                         np.cumsum(tag[2]) - tag[2]))
        valid = masks
        if cut_run is not None and j[cut_run] == laps.last:
            stamp[cut_run] -= lines.ends[cut_run] - laps.cut
            if refilled[cut_run]:
                valid = masks.copy()
                valid[cut_run] = cut_mask
        return lines.keys, valid, stamp, ins

    cache.settle(resolve,
                 accesses=laps.total((tag[0], later, later), w),
                 hits=laps.total((~tag[0],) + hit, w), tag_misses=tags,
                 evictions=tags - fill)


class ChaseEngine:
    """Runs periodic chase workloads on one
    :class:`MemoryHierarchy` (see module docstring).

    Parameters mirror the scalar chase loops: ``size`` is the access
    width, ``cache_op`` the PTX cache operator, ``sm_id`` the issuing
    SM.  The engine shares the hierarchy's observability sink, so a
    chase fires exactly the counters the equivalent scalar loop
    would.
    """

    def __init__(self, hierarchy: MemoryHierarchy, *, size: int = 32,
                 sm_id: int = 0,
                 cache_op: CacheOp = CacheOp.CACHE_ALL) -> None:
        self.hierarchy = hierarchy
        self.size = size
        self.sm_id = sm_id
        self.cache_op = cache_op

    # -- the drive loop -----------------------------------------------------

    def run(self, seq: Union[Sequence[int], np.ndarray],
            iters: int) -> ChaseStats:
        """Chase ``iters`` accesses through the periodic address
        stream ``seq`` (access ``i`` goes to ``seq[i % len(seq)]``),
        exactly as a scalar loop would."""
        seq = np.ascontiguousarray(seq, dtype=np.int64)
        period = len(seq)
        if period == 0:
            raise ValueError("need a non-empty address sequence")
        if iters < 0:
            raise ValueError("iters must be non-negative")

        closed = self._closed_form(seq, iters)
        if closed is not None:
            return closed

        h = self.hierarchy
        l1 = h.l1_for_sm(self.sm_id) if self.cache_op.allocates_l1 \
            else None
        l2 = h.l2
        # touched-set lists are only needed to take a signature; many
        # chases (short budgets relative to the period) never take one
        l1_sets = l2_sets = None

        # a superlap = ``batch`` whole periods, simulated in one
        # load_many call; the stream is periodic in it too.  Short
        # chains (conflict ladders) stay at batch=1: their laps are
        # too concentrated for the caches' lockstep path, and per-lap
        # signatures reach the fixed point after a handful of
        # simulated accesses instead of hundreds.
        if period >= 32:
            batch = max(1, -(-_BATCH_TARGET // period))
        else:
            batch = 1
        superlap = batch * period
        if batch > 1:
            stream = np.tile(seq, batch)
        else:
            stream = seq

        counts: Dict[float, int] = {}
        levels: Dict[MemLevel, int] = {}
        tlb_hits = 0
        simulated = extrapolated = 0

        obs = h._obs
        # Sampled tracing: the trace stays small no matter how long
        # the chase is — one span for the steady-state (confirming)
        # superlap plus one fixed-point instant, on the sim-cycle
        # clock, instead of an event per access or per lap.
        tracer = active_tracer()
        cycle_cursor = 0.0
        prev_sig: Optional[bytes] = None
        done = 0
        while done < iters:
            remaining = iters - done
            if remaining < superlap:
                # tail: fewer accesses than one superlap.  Outcome
                # histograms don't care about lap boundaries, so the
                # whole tail is one batched call.  When it follows a
                # detected fixed point this is still exact — the
                # steady state is digest-equivalent to the state the
                # true tail would have started from.
                res = self._lap(stream[:remaining])
                self._absorb(res, counts, levels)
                tlb_hits += res.tlb_hits
                simulated += remaining
                done = iters
                break
            obs_snap = obs.as_dict() if obs.enabled else None
            stat_snap = self._stats_snapshot(l1, l2)
            res = self._lap(stream)
            self._absorb(res, counts, levels)
            tlb_hits += res.tlb_hits
            simulated += superlap
            done += superlap
            if tracer is not None:
                lap_clk = float(res.latency_clk.sum())
                cycle_cursor += lap_clk
            # A signature only pays if a comparison can still save
            # work: comparing needs a *next* full superlap (whose own
            # signature requires ``done + superlap <= iters`` then),
            # and a first-of-a-pair signature additionally needs ≥ 1
            # extrapolatable lap beyond that comparison point.  Both
            # conditions are monotone in ``done``, so skipping never
            # breaks the consecutive-lap invariant — once skipped,
            # no later lap takes a signature either.
            if done + superlap <= iters and \
                    (prev_sig is not None
                     or done + 2 * superlap <= iters):
                if l2_sets is None:
                    l1_sets = np.unique(
                        (seq // l1.line_bytes) % l1.num_sets) \
                        if l1 is not None else None
                    l2_sets = np.unique(
                        (seq // l2.line_bytes) % l2.num_sets)
                sig = self._signature(res, l1, l1_sets, l2, l2_sets)
                if sig == prev_sig:
                    # fixed point: account the remaining whole
                    # superlaps analytically from the confirming
                    # superlap's deltas
                    k = (iters - done) // superlap
                    if tracer is not None:
                        tracer.complete(
                            "chase steady-state lap",
                            cycle_cursor - lap_clk, lap_clk,
                            cat="chase", pid=SIM_TRACK,
                            tid=f"chase sm{self.sm_id}",
                            args={"period": period,
                                  "superlap": superlap,
                                  "lap_clk": lap_clk})
                        tracer.instant(
                            "chase fixed point",
                            ts=cycle_cursor,
                            cat="chase", pid=SIM_TRACK,
                            tid=f"chase sm{self.sm_id}",
                            args={"iters": iters,
                                  "simulated": simulated,
                                  "extrapolated_laps": k,
                                  "extrapolated": k * superlap})
                    if k:
                        self._absorb(res, counts, levels, scale=k)
                        tlb_hits += res.tlb_hits * k
                        self._scale_stats(l1, l2, stat_snap, k)
                        if obs.enabled:
                            obs.add_scaled(obs.delta_since(obs_snap),
                                           k)
                        extrapolated += k * superlap
                        done += k * superlap
                        if tracer is not None:
                            cycle_cursor += k * lap_clk
                prev_sig = sig
        return ChaseStats(iters=iters, latency_counts=counts,
                          level_counts=levels, tlb_hits=tlb_hits,
                          simulated=simulated,
                          extrapolated=extrapolated)

    # -- the closed form -----------------------------------------------------

    def _closed_form(self, seq: np.ndarray,
                     iters: int) -> Optional[ChaseStats]:
        """Resolve a chase from empty caches without simulating it
        (see the module docstring); ``None`` when the stream or the
        hierarchy's state is not eligible."""
        h = self.hierarchy
        op = self.cache_op
        if iters < _CLOSED_FORM_MIN_ITERS or op not in _CLOSED_FORM_OPS:
            return None
        l2 = h.l2
        l1 = h.l1_for_sm(self.sm_id) if op.allocates_l1 else None
        if not l2.empty or (l1 is not None and not (
                l1.empty and l1.line_bytes == l2.line_bytes
                and l1.sector_bytes == l2.sector_bytes)):
            return None
        # a chase shorter than its period runs one partial lap: the
        # accessed prefix is a period of its own
        seq = seq[:iters]
        sb = l2.sector_bytes
        spl = l2.sectors_per_line
        sector = seq // sb
        if self.size <= 0 or int(seq.min()) < 0 or \
                ((seq + (self.size - 1)) // sb != sector).any():
            return None
        ascending = bool((sector[1:] > sector[:-1]).all())
        line = sector // spl
        tlb = h.tlb
        lines = _Runs.of(line, ascending)
        pages = _Runs.of(seq // tlb.page_bytes, ascending)
        if lines is None or pages is None:
            return None
        # one bit per sector; a line's bits sum to their OR iff no
        # sector repeats within the period
        bits = np.int64(1) << (sector - line * spl)
        masks = np.add.reduceat(bits, lines.heads)
        if not ascending and np.any(
                masks != np.bitwise_or.reduceat(bits, lines.heads)):
            return None
        tlb_warm = tlb.holds(pages.keys)
        if not tlb_warm and tlb.resident_pages:
            return None

        period = len(seq)
        laps = _Laps(iters, period)
        n_lines = len(lines.keys)
        # per-line head hits of laps 2 and 3+, level by level; from
        # lap 2 on L2 sees only the lines whose L1 set thrashes
        if l1 is not None:
            (l1_hit, _), l1_fill = _cold_lru(lines.keys % l1.num_sets,
                                             l1.ways)
        else:
            l1_hit = np.zeros(n_lines, dtype=bool)
        later = ~l1_hit
        l2_hit, l2_fill = _cold_lru(lines.keys % l2.num_sets, l2.ways,
                                    later)

        # accesses per serving level (lap 1 goes to DRAM); a TLB miss
        # is a page head that misses, served where its line is
        acc_w = laps.weights(lines)
        never = np.zeros(n_lines, dtype=bool)
        served = [laps.total((never, l1_hit, l1_hit), acc_w),
                  laps.total((never,) + l2_hit, acc_w)]
        served.append(iters - sum(served))
        missed = [0, 0, 0]
        if not tlb_warm:
            # every page head misses in lap 1 and, if the pages
            # overflow the TLB, in every later lap
            at = np.searchsorted(lines.heads, pages.heads,
                                 side="right") - 1
            head_w = laps.weights(pages, heads=True)
            again = len(pages.keys) > tlb.entries
            none = np.zeros(len(pages.keys), dtype=bool)
            missed = [laps.total((none, h2[at] & again, h3[at] & again),
                                 head_w)
                      for h2, h3 in ((l1_hit, l1_hit), l2_hit)]
            missed.append(laps.total((~none, ~none & again,
                                      ~none & again), head_w)
                          - sum(missed))
        tlb_hits = iters - sum(missed)

        lat = h.device.mem_latencies
        base = (lat.l1_hit_clk, lat.l2_hit_clk,
                lat.l2_hit_clk + lat.dram_clk)
        counts: Dict[float, int] = {}
        levels: Dict[MemLevel, int] = {}
        obs = h._obs
        for code, lvl in enumerate(LEVEL_CODES):
            for value, n in ((base[code] + 0.0,
                              served[code] - missed[code]),
                             (base[code] + lat.tlb_miss_clk,
                              missed[code])):
                if n:
                    counts[value] = counts.get(value, 0) + n
                    if obs.enabled:
                        obs.observe(f"mem.latency.{lvl.value}", value, n)
            if served[code]:
                levels[lvl] = served[code]
        if obs.enabled:
            obs.add("mem.loads", iters)
            if tlb_hits:
                obs.add("mem.tlb.hits", tlb_hits)
            if iters - tlb_hits:
                obs.add("mem.tlb.misses", iters - tlb_hits)
            for lvl, n in levels.items():
                obs.add(f"mem.bytes.{lvl.value}", n * self.size)

        # the state left behind, and the caches' own totals
        cut_run = cut_mask = None
        if laps.rest:
            cut_run = int(np.searchsorted(lines.heads, laps.cut,
                                          side="right")) - 1
            cut_mask = int(bits[lines.heads[cut_run]:laps.cut].sum())
        if l1 is not None:
            _settle(l1, lines, laps, ~never, (l1_hit, l1_hit), l1_fill,
                    masks, cut_run, cut_mask)
        _settle(l2, lines, laps, later, l2_hit, l2_fill, masks, cut_run,
                cut_mask)
        recency = pages.keys
        if laps.rest:
            started = pages.heads < laps.cut
            recency = np.concatenate((recency[~started],
                                      recency[started]))
        tlb.settle(recency, hits=tlb_hits, misses=iters - tlb_hits)

        tracer = active_tracer()
        if tracer is not None:
            tracer.instant("chase closed form", ts=0.0, cat="chase",
                           pid=SIM_TRACK, tid=f"chase sm{self.sm_id}",
                           args={"iters": iters, "period": period,
                                 "extrapolated": iters})
        return ChaseStats(iters=iters, latency_counts=counts,
                          level_counts=levels, tlb_hits=tlb_hits,
                          simulated=0, extrapolated=iters)

    # -- internals ----------------------------------------------------------

    def _lap(self, addrs: np.ndarray) -> BatchAccessResult:
        return self.hierarchy.load_many(addrs, self.size,
                                        sm_id=self.sm_id,
                                        cache_op=self.cache_op)

    @staticmethod
    def _absorb(res: BatchAccessResult, counts: Dict[float, int],
                levels: Dict[MemLevel, int], scale: int = 1) -> None:
        values, n = np.unique(res.latency_clk, return_counts=True)
        for v, c in zip(values.tolist(), n.tolist()):
            counts[v] = counts.get(v, 0) + c * scale
        for lvl, c in res.level_counts.items():
            if c:
                levels[lvl] = levels.get(lvl, 0) + c * scale

    def _signature(self, res: BatchAccessResult, l1, l1_sets, l2,
                   l2_sets) -> bytes:
        """Fingerprint of one lap: its outcomes plus the canonical
        digest of all state the stream can observe afterwards."""
        h = hashlib.blake2b(digest_size=16)
        h.update(res.latency_clk.tobytes())
        h.update(res.levels.tobytes())
        h.update(res.tlb_hit.tobytes())
        if l1 is not None:
            h.update(l1.state_digest(l1_sets))
        h.update(l2.state_digest(l2_sets))
        h.update(self.hierarchy.tlb.state_digest())
        return h.digest()

    def _stats_snapshot(self, l1, l2):
        def cache_fields(c):
            s = c.stats
            return (s.accesses, s.hits, s.sector_misses, s.tag_misses,
                    s.evictions)

        tlb = self.hierarchy.tlb
        return (cache_fields(l1) if l1 is not None else None,
                cache_fields(l2), (tlb.hits, tlb.misses))

    def _scale_stats(self, l1, l2, snap, k: int) -> None:
        """Advance ``CacheStats`` / TLB totals by ``k`` laps' worth of
        the deltas recorded since ``snap``."""
        l1_snap, l2_snap, tlb_snap = snap

        def bump(c, before):
            s = c.stats
            now = (s.accesses, s.hits, s.sector_misses, s.tag_misses,
                   s.evictions)
            s.accesses += (now[0] - before[0]) * k
            s.hits += (now[1] - before[1]) * k
            s.sector_misses += (now[2] - before[2]) * k
            s.tag_misses += (now[3] - before[3]) * k
            s.evictions += (now[4] - before[4]) * k

        if l1 is not None:
            bump(l1, l1_snap)
        bump(l2, l2_snap)
        tlb = self.hierarchy.tlb
        tlb.hits += (tlb.hits - tlb_snap[0]) * k
        tlb.misses += (tlb.misses - tlb_snap[1]) * k
