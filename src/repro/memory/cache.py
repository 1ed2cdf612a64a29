"""Sectored set-associative cache model (vectorized).

Nvidia caches are organised as 128-byte lines split into 32-byte
sectors: a tag covers the whole line but data is filled per sector, so
a strided stream that touches one word per line still transfers only
the sectors it needs.  The model tracks tags + per-sector validity with
true-LRU replacement, which is sufficient for every access pattern the
paper's microbenchmarks generate (sequential warm-up passes followed by
pointer chases).

The state lives in NumPy matrices of shape ``(num_sets, ways)`` —
``_lines`` (resident line address), ``_valid`` (per-sector valid
bitmask) and ``_stamp`` (LRU timestamp) — with a flat
``line address → way`` dict as the lookup index, so a scalar
:meth:`access` is O(1) in the associativity instead of a linear way
scan, and constructing a cache is O(1) in its capacity (the matrices
are callocated, never eagerly initialised).  The batched
:meth:`access_many` additionally recognises the dominant warm-up
pattern (monotonically ascending, single-sector accesses into an empty
cache — what :meth:`warm` and the P-chase initialisation passes emit)
and computes the final state matrices in closed form with array
operations, skipping the per-access loop entirely.

Behaviour is access-for-access identical to the original scalar
implementation, preserved as the reference cache in
``tests/reference/cache.py`` and enforced by property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.obs.counters import NULL_COUNTERS
from repro.obs.session import counters_or_null

__all__ = ["SetAssociativeCache", "CacheStats"]

#: below this batch size the per-access loop beats the lockstep setup
_LOCKSTEP_MIN = 32

#: initial row count of the state matrices (grown on demand)
_INIT_SETS = 512

_I64_MAX = np.iinfo(np.int64).max


@dataclass
class CacheStats:
    """Running hit/miss counters."""

    accesses: int = 0
    hits: int = 0
    sector_misses: int = 0   # tag hit but sector not yet filled
    tag_misses: int = 0
    evictions: int = 0

    @property
    def misses(self) -> int:
        return self.sector_misses + self.tag_misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = 0
        self.sector_misses = self.tag_misses = self.evictions = 0


class SetAssociativeCache:
    """A sectored, true-LRU, set-associative cache.

    Parameters
    ----------
    size_bytes:
        Total data capacity.
    line_bytes:
        Tag granularity (128 B on all three devices).
    sector_bytes:
        Fill granularity (32 B).
    ways:
        Associativity.
    name:
        For diagnostics only.
    level:
        Observability label (``"l1"``/``"l2"``).  When set *and* an
        :class:`~repro.obs.session.ObsSession` is active at
        construction, recorded accesses additionally feed the
        session's ``cache.<level>.*`` counters; otherwise the cache
        holds the null sink and instrumentation costs one flag check.
    """

    def __init__(
        self,
        size_bytes: int,
        *,
        line_bytes: int = 128,
        sector_bytes: int = 32,
        ways: int = 4,
        name: str = "cache",
        level: Optional[str] = None,
    ) -> None:
        if size_bytes <= 0 or size_bytes % line_bytes:
            raise ValueError("size must be a positive multiple of the line")
        if line_bytes % sector_bytes:
            raise ValueError("line must be a multiple of the sector")
        num_lines = size_bytes // line_bytes
        if num_lines % ways:
            raise ValueError("line count must be divisible by ways")
        if line_bytes // sector_bytes > 63:
            raise ValueError("at most 63 sectors per line (int64 bitmask)")
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.ways = ways
        self.num_sets = num_lines // ways
        self.sectors_per_line = line_bytes // sector_bytes
        self.stats = CacheStats()
        self.level = level
        self._obs = counters_or_null() if level else NULL_COUNTERS
        self._k_acc = f"cache.{level}.accesses"
        self._k_hit = f"cache.{level}.hits"
        self._k_sector = f"cache.{level}.sector_misses"
        self._k_tag = f"cache.{level}.tag_misses"
        self._k_evict = f"cache.{level}.evictions"
        self._clock = 0
        self._ins_counter = 0   # global insertion sequence (LRU tie-break)
        self._alloc_state()

    def _alloc_state(self) -> None:
        # Occupied ways of a set are always 0.._set_fill[set]-1, so the
        # zero-initialised matrices are never read before being written.
        # Rows are allocated for a *prefix* of the sets and grown on
        # demand (_ensure_sets): a multi-MB L2 costs real milliseconds
        # to calloc in full, yet the microbenchmarks touch a small
        # fraction of its sets — an untouched set has no state to
        # store, so the short matrices are indistinguishable from
        # full-size ones.
        self._alloc_sets = min(self.num_sets, _INIT_SETS)
        shape = (self._alloc_sets, self.ways)
        self._lines = np.zeros(shape, dtype=np.int64)   # line addresses
        self._valid = np.zeros(shape, dtype=np.int64)   # sector bitmasks
        self._stamp = np.zeros(shape, dtype=np.int64)   # LRU timestamps
        self._ins = np.zeros(shape, dtype=np.int64)     # insertion seq
        self._set_fill = np.zeros(self._alloc_sets, dtype=np.int64)
        # line addr → way lookup index for the scalar path.  Lazy:
        # the batched paths maintain residency in the matrices alone
        # and set this to None; _index() rebuilds it on the next
        # scalar access.  Keeping it eagerly in sync cost more than
        # the whole closed-form fill for warm-up-sized streams.
        self._where: Optional[Dict[int, int]] = {}
        self._empty = True                   # no line inserted yet
        self._pending = None                 # state of a settle() stream

    def _ensure_sets(self, hi: int) -> None:
        """Grow the state matrices to cover set indices ``< hi``."""
        cur = self._alloc_sets
        if hi <= cur:
            return
        new = min(self.num_sets, max(hi, 2 * cur))

        def grown(m: np.ndarray) -> np.ndarray:
            g = np.zeros((new,) + m.shape[1:], dtype=m.dtype)
            g[:cur] = m
            return g

        self._lines = grown(self._lines)
        self._valid = grown(self._valid)
        self._stamp = grown(self._stamp)
        self._ins = grown(self._ins)
        self._set_fill = grown(self._set_fill)
        self._alloc_sets = new

    def reserve_span(self, nbytes: int) -> None:
        """Pre-grow the state matrices for accesses inside
        ``[0, nbytes)`` — an allocation hint (one growth instead of a
        doubling cascade); cache state is unchanged."""
        if nbytes > 0:
            self._ensure_sets(min(-(-nbytes // self.line_bytes),
                                  self.num_sets))

    def _index(self) -> Dict[int, int]:
        """The line→way dict, rebuilt from the matrices if a batched
        path invalidated it (cost ∝ resident lines)."""
        w = self._where
        if w is None:
            occ = (np.arange(self.ways, dtype=np.int64)[None, :]
                   < self._set_fill[:, None])
            r, c = np.nonzero(occ)
            w = self._where = dict(zip(self._lines[r, c].tolist(),
                                       c.tolist()))
        return w

    # -- address helpers ----------------------------------------------------

    def _locate(self, addr: int) -> Tuple[int, int, int]:
        line_addr = addr // self.line_bytes
        set_idx = line_addr % self.num_sets
        sector = (addr % self.line_bytes) // self.sector_bytes
        return line_addr, set_idx, sector

    def _sector_span(self, addr: int, size: int) -> List[Tuple[int, int, int]]:
        """All (line, set, sector) triples a [addr, addr+size) access
        touches.  Accesses are at most a line in practice."""
        out = []
        a = addr
        end = addr + max(size, 1)
        while a < end:
            out.append(self._locate(a))
            a = (a // self.sector_bytes + 1) * self.sector_bytes
        return out

    # -- main interface -------------------------------------------------------

    def access(self, addr: int, size: int = 4, *, write: bool = False,
               allocate: bool = True, record: bool = True) -> bool:
        """Probe the cache; returns True iff *all* touched sectors hit.

        Misses fill the touched sectors (when ``allocate``), evicting
        the LRU line of the set if the set is full.  Write policy is
        write-allocate (both L1 and L2 on these parts are
        write-allocate for the access sizes we model).

        ``record=False`` updates the cache state (fills, LRU stamps)
        without touching :attr:`stats` — the warm-up path, so reported
        hit rates cover only the measured phase.
        """
        if self._pending is not None:
            self._install()
        self._clock += 1
        clock = self._clock
        obs = self._obs if record else NULL_COUNTERS
        if record:
            self.stats.accesses += 1
            if obs.enabled:
                obs.add(self._k_acc)
        all_hit = True
        if 0 < size <= self.sector_bytes - addr % self.sector_bytes:
            # single-sector fast path — the overwhelmingly common
            # shape (4–32 B aligned loads); same transitions as the
            # loop below, minus the span bookkeeping
            span = (self._locate(addr),)
            hi = span[0][1] + 1
        else:
            span = self._sector_span(addr, size)
            hi = max(s for _, s, _ in span) + 1
        if hi > self._alloc_sets:
            self._ensure_sets(hi)
        valid = self._valid
        stamp = self._stamp
        where = self._index()
        for line_addr, set_idx, sector in span:
            way = where.get(line_addr)
            bit = 1 << sector
            if way is not None and int(valid[set_idx, way]) & bit:
                stamp[set_idx, way] = clock
                continue
            all_hit = False
            if way is not None:
                if record:
                    self.stats.sector_misses += 1
                    if obs.enabled:
                        obs.add(self._k_sector)
                if allocate:
                    valid[set_idx, way] |= bit
                    stamp[set_idx, way] = clock
            else:
                if record:
                    self.stats.tag_misses += 1
                    if obs.enabled:
                        obs.add(self._k_tag)
                if allocate:
                    self._insert(line_addr, set_idx, bit, record)
        if all_hit and record:
            self.stats.hits += 1
            if obs.enabled:
                obs.add(self._k_hit)
        return all_hit

    def access_many(self, addrs: Union[Sequence[int], np.ndarray],
                    size: int = 4, *, write: bool = False,
                    allocate: bool = True,
                    record: bool = True) -> np.ndarray:
        """Batched :meth:`access` — semantically identical to calling
        ``access`` once per address in order; returns the per-access
        hit booleans.

        Ascending single-sector streams into an empty cache (the
        ``warm()`` / initialisation-pass pattern) are resolved in
        closed form without a per-access loop.  General single-sector
        streams — pointer chases — run on the lockstep path: sets are
        independent, so the stream is split per set and one matrix
        step resolves the *i*-th access of every touched set at once
        (see :meth:`_lockstep_access`).  Anything else falls back to
        the exact scalar path.
        """
        if self._pending is not None:
            self._install()
        a = np.ascontiguousarray(addrs, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("addrs must be one-dimensional")
        n = len(a)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if allocate and self._empty and self._bulk_ok(a, size):
            return self._bulk_fill(a, record)
        if n >= _LOCKSTEP_MIN and self._lockstep_ok(a, size):
            hit = self._all_hit_fast(a, record=record)
            if hit is not None:
                return hit
            return self._lockstep_access(a, size, allocate=allocate,
                                         record=record)
        return self._access_loop(a, size, write=write, allocate=allocate,
                                 record=record)

    def _access_loop(self, a: np.ndarray, size: int, *, write: bool,
                     allocate: bool, record: bool) -> np.ndarray:
        """The exact per-access fallback of :meth:`access_many`."""
        out = np.empty(len(a), dtype=bool)
        acc = self.access
        for i, addr in enumerate(a.tolist()):
            out[i] = acc(addr, size, write=write, allocate=allocate,
                         record=record)
        return out

    def probe(self, addr: int, size: int = 4) -> bool:
        """Non-destructive lookup (no fill, no LRU update, no stats)."""
        if self._pending is not None:
            self._install()
        where = self._index()
        for line_addr, set_idx, sector in self._sector_span(addr, size):
            way = where.get(line_addr)
            if way is None or not (int(self._valid[set_idx, way])
                                   & (1 << sector)):
                return False
        return True

    def warm(self, base: int, size: int, *, record: bool = False) -> None:
        """Fill an address range (the ``ld.ca`` warm-up pass).

        Warm-up accesses advance the LRU clock exactly like measured
        ones but by default leave :attr:`stats` untouched, matching
        the paper's warm-up-then-measure protocol.
        """
        start = (base // self.sector_bytes) * self.sector_bytes
        end = base + size
        if start >= end:
            return
        if self._empty and start >= 0:
            # the stream below is exactly the closed-form fill's
            # eligible pattern; resolve it at line granularity without
            # materialising the per-sector address array
            self._warm_fill(start, end, record)
            return
        addrs = np.arange(start, end, self.sector_bytes, dtype=np.int64)
        self.access_many(addrs, self.sector_bytes, record=record)

    def flush(self) -> None:
        # Retains the (possibly grown) matrices: occupied ways are
        # always 0.._set_fill[set]-1, so zeroing the fill vector alone
        # empties the cache — stale rows are never consulted.  The
        # clocks keep running, exactly as before a flush; LRU is
        # ordinal so no outcome can tell.  Reusing the allocation
        # makes flush-and-rewarm loops (parameter sweeps) cheap.
        self._set_fill[:] = 0
        self._where = {}
        self._empty = True
        self._pending = None
        self.stats.reset()

    @property
    def empty(self) -> bool:
        """No line inserted since construction or the last flush."""
        return self._empty

    def settle(self, resolve: Callable[[], Tuple[np.ndarray, ...]], *,
               accesses: int, hits: int, tag_misses: int,
               evictions: int) -> None:
        """Account a recorded single-sector stream that the caller
        resolved in closed form against this *empty* cache, without
        replaying it.

        ``CacheStats``, the counters and the clocks advance at once.
        The state the stream leaves behind is installed when the cache
        is next used, so a cache that is dropped after the stream
        never pays for it: ``resolve()`` returns the distinct lines
        the stream touched, the sector mask each holds at the end, the
        stream-relative clock of its last access (1 for the first
        access) and the number of its last insertion (0 for the first
        tag miss).
        """
        if not self._empty:
            raise ValueError("settle() needs an empty cache")
        self._pending = (resolve, self._clock, self._ins_counter)
        self._clock += accesses
        self._ins_counter += tag_misses
        self._empty = False
        self._record(accesses, hits, accesses - hits - tag_misses,
                     tag_misses, evictions)

    def _install(self) -> None:
        """Install the state of a :meth:`settle`-d stream.  From empty,
        LRU holds the ``ways`` most recently used lines of every set
        (Mattson's inclusion property); they go in LRU→MRU order."""
        resolve, clock, ins_counter = self._pending
        self._pending = None
        lines, valid, stamp, ins = resolve()
        n = len(lines)
        sets = lines % self.num_sets
        order = np.lexsort((stamp, sets))
        ss = sets[order]
        first = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
        size = np.diff(np.r_[first, n])
        grp = np.repeat(np.arange(len(first)), size)
        way = np.arange(n) - first[grp] - np.maximum(size - self.ways,
                                                     0)[grp]
        keep = way >= 0
        k = order[keep]
        rows = ss[keep]
        way = way[keep]
        self._ensure_sets(int(ss[-1]) + 1)
        self._lines[rows, way] = lines[k]
        self._valid[rows, way] = valid[k]
        self._stamp[rows, way] = clock + stamp[k]
        self._ins[rows, way] = ins_counter + ins[k]
        self._set_fill[ss[first]] = np.minimum(size, self.ways)
        self._where = None

    # -- internals --------------------------------------------------------------

    def _record(self, accesses: int, hits: int, sector_misses: int,
                tag_misses: int, evictions: int) -> None:
        """Advance ``CacheStats`` and the ``cache.<level>.*`` counters
        by one batch's outcome counts."""
        st = self.stats
        st.accesses += accesses
        st.hits += hits
        st.sector_misses += sector_misses
        st.tag_misses += tag_misses
        st.evictions += evictions
        obs = self._obs
        if obs.enabled:
            for key, n in ((self._k_acc, accesses), (self._k_hit, hits),
                           (self._k_sector, sector_misses),
                           (self._k_tag, tag_misses),
                           (self._k_evict, evictions)):
                if n:
                    obs.add(key, n)

    def _insert(self, line_addr: int, set_idx: int, sector_bits: int,
                record: bool) -> None:
        fill = int(self._set_fill[set_idx])
        if fill >= self.ways:
            # true LRU: smallest stamp; ties (multi-line accesses share
            # one clock) broken by insertion order, like the scalar
            # model's list scan.  Rows are at most `ways` wide, where
            # a plain list scan beats any array reduction.
            row = self._stamp[set_idx].tolist()
            lo = min(row)
            if row.count(lo) == 1:
                way = row.index(lo)
            else:
                ins = self._ins[set_idx].tolist()
                way = min((i for i, s in enumerate(row) if s == lo),
                          key=ins.__getitem__)
            del self._where[int(self._lines[set_idx, way])]
            if record:
                self.stats.evictions += 1
                if self._obs.enabled:
                    self._obs.add(self._k_evict)
        else:
            way = fill
            self._set_fill[set_idx] = fill + 1
        self._lines[set_idx, way] = line_addr
        self._valid[set_idx, way] = sector_bits
        self._stamp[set_idx, way] = self._clock
        self._ins[set_idx, way] = self._ins_counter
        self._ins_counter += 1
        self._where[line_addr] = way     # access() built it via _index
        self._empty = False

    def _bulk_ok(self, addrs: np.ndarray, size: int) -> bool:
        """Is this stream eligible for the closed-form fill?"""
        if size <= 0:
            return False
        if addrs[0] < 0:
            return False
        # single sector per access …
        if np.any(addrs % self.sector_bytes + size > self.sector_bytes):
            return False
        # … and strictly ascending sectors (each touched once).
        sectors = addrs // self.sector_bytes
        return bool(np.all(np.diff(sectors) > 0)) if len(addrs) > 1 \
            else True

    def _bulk_fill(self, addrs: np.ndarray, record: bool) -> np.ndarray:
        """Closed-form fill of an empty cache from an ascending
        single-sector stream.

        Every access is a miss (first touch of its sector); a line's
        sectors arrive consecutively, so per set the lines arrive in
        ascending order and LRU keeps the last ``ways`` of them.
        Stamps and insertion sequence are assigned exactly as the
        sequential path would.
        """
        n = len(addrs)
        line = addrs // self.line_bytes
        sector = (addrs % self.line_bytes) // self.sector_bytes
        first = np.flatnonzero(np.r_[True, line[1:] != line[:-1]])
        bounds = np.r_[first[1:], n]
        lines_u = line[first]
        n_lines = len(lines_u)
        valid_u = np.bitwise_or.reduceat(np.int64(1) << sector, first)
        stamp_u = self._clock + bounds          # clock after last touch
        ins_u = self._ins_counter + np.arange(n_lines)
        set_u = lines_u % self.num_sets
        self._ensure_sets(int(set_u.max()) + 1)

        # keep the newest `ways` lines of every set
        order = np.argsort(set_u, kind="stable")
        ss = set_u[order]
        grp_first = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
        grp_sizes = np.r_[grp_first[1:], n_lines] - grp_first
        sizes_rep = np.repeat(grp_sizes, grp_sizes)
        cum = np.arange(n_lines) - np.repeat(grp_first, grp_sizes)
        keep = cum >= sizes_rep - self.ways
        way_sorted = cum - np.maximum(sizes_rep - self.ways, 0)

        kept = order[keep]
        set_k = set_u[kept]
        way_k = way_sorted[keep]
        line_k = lines_u[kept]
        self._lines[set_k, way_k] = line_k
        self._valid[set_k, way_k] = valid_u[kept]
        self._stamp[set_k, way_k] = stamp_u[kept]
        self._ins[set_k, way_k] = ins_u[kept]
        self._set_fill[ss[grp_first]] = np.minimum(grp_sizes, self.ways)
        self._where = None               # index rebuilt lazily
        self._empty = False

        self._clock += n
        self._ins_counter += n_lines
        if record:
            self._record(n, 0, n - n_lines, n_lines,
                         int(np.maximum(grp_sizes - self.ways, 0).sum()))
        return np.zeros(n, dtype=bool)

    def _warm_fill(self, start: int, end: int, record: bool) -> None:
        """:meth:`warm` into an empty cache, in closed form at *line*
        granularity.

        The warm stream is one sector-ascending pass over
        ``[start, end)``, so its :meth:`_bulk_fill` outcome is fully
        determined by the touched line range: per set, consecutive
        lines arrive in ascending order and LRU keeps the last
        ``min(count, ways)``; a line's final stamp is the clock after
        its last sector and its insertion number is its rank.  State,
        stats and clocks land bit-identical to streaming the
        addresses through :meth:`access_many` — pinned by tests —
        without ever materialising per-sector arrays.
        """
        spl = self.sectors_per_line
        sb = self.sector_bytes
        s0 = start // sb
        s1 = -(-end // sb)
        n = s1 - s0                                   # sector accesses
        l0 = s0 // spl
        l1 = (s1 - 1) // spl + 1
        m = l1 - l0                                   # lines touched
        S = self.num_sets
        W = self.ways
        clock = self._clock
        full = (np.int64(1) << spl) - np.int64(1)

        def stamps(lines: np.ndarray) -> np.ndarray:
            return clock + np.minimum((lines + 1) * spl, s1) - s0

        def fix_edges(lines: np.ndarray, valid: np.ndarray) -> None:
            # the first / last line of the range may be partial
            if s0 % spl:
                valid[lines == l0] &= full & ~((np.int64(1)
                                                << (s0 % spl)) - 1)
            if s1 % spl:
                valid[lines == l1 - 1] &= \
                    (np.int64(1) << (s1 - (l1 - 1) * spl)) - 1

        evicted = 0
        if m <= S:
            # every touched set holds exactly one line, in way 0; the
            # row indices are consecutive mod S, i.e. at most two
            # contiguous slices — scatter with slice assignments
            lines = np.arange(l0, l1, dtype=np.int64)
            valid = np.full(m, full, dtype=np.int64)
            if s0 % spl:
                valid[0] &= full & ~((np.int64(1)
                                      << (s0 % spl)) - 1)
            if s1 % spl:
                valid[-1] &= (np.int64(1)
                              << (s1 - (l1 - 1) * spl)) - 1
            st = clock + (lines + 1) * spl - s0
            st[-1] = clock + n            # last line: clamp to range
            ins = self._ins_counter + np.arange(m, dtype=np.int64)
            r0 = l0 % S
            first = min(m, S - r0)
            self._ensure_sets(S if first < m else r0 + m)
            for dst, src, ln in ((r0, 0, first),
                                 (0, first, m - first)):
                if ln <= 0:
                    continue
                d = slice(dst, dst + ln)
                s_ = slice(src, src + ln)
                self._lines[d, 0] = lines[s_]
                self._valid[d, 0] = valid[s_]
                self._stamp[d, 0] = st[s_]
                self._ins[d, 0] = ins[s_]
                self._set_fill[d] = 1
        else:
            # per set s: first line f = l0+i (i = rank of s in the
            # touch order), count c, kept = the last K = min(c, W)
            # lines f + (c-K..c-1)·S in ways 0..K-1
            i = np.arange(S, dtype=np.int64)
            f = l0 + i
            rows = f % S
            self._ensure_sets(S)
            c = 1 + (l1 - 1 - f) // S
            K = np.minimum(c, W)
            evicted = int((c - K).sum())
            grid = ((f + (c - K) * S)[:, None]
                    + np.arange(W, dtype=np.int64)[None, :] * S)
            occ = np.arange(W, dtype=np.int64)[None, :] < K[:, None]
            valid = np.where(occ, full, np.int64(0))
            fix_edges(grid, valid)
            self._lines[rows] = grid
            self._valid[rows] = valid
            self._stamp[rows] = np.where(occ, stamps(grid), 0)
            self._ins[rows] = np.where(
                occ, self._ins_counter + grid - l0, 0)
            self._set_fill[rows] = K

        self._where = None
        self._empty = False
        self._clock += n
        self._ins_counter += m
        if record:
            self._record(n, 0, n - m, m, evicted)

    def _all_hit_fast(self, a: np.ndarray, *,
                      record: bool) -> Optional[np.ndarray]:
        """Resolve a single-sector stream consisting entirely of hits.

        A steady-state chase over a resident footprint — the measured
        phase of every under-capacity P-chase point — only ever bumps
        LRU stamps: no fills, no evictions, no state beyond the
        clock.  Residency of the whole batch is decided by one
        gather; on the first non-hit the caller falls back to the
        exact general paths, having mutated nothing.

        Stamps are position-based (``clock0 + i + 1``) exactly as on
        the scalar and lockstep paths, and a line accessed several
        times in the batch keeps its *last* occurrence's stamp —
        fancy assignment applies values in order, so repeated
        ``(set, way)`` indices end on the final one.
        """
        if self._empty:
            return None
        line = a // self.line_bytes
        set_idx = line % self.num_sets
        hi = int(set_idx.max()) + 1
        if hi > self._alloc_sets:
            return None        # an untouched set means a sure miss
        rows = self._lines[set_idx]
        occ = (np.arange(self.ways, dtype=np.int64)[None, :]
               < self._set_fill[set_idx][:, None])
        match = (rows == line[:, None]) & occ
        tag_hit = match.any(axis=1)
        if not tag_hit.all():
            return None
        way = match.argmax(axis=1)
        bits = np.int64(1) << ((a % self.line_bytes)
                               // self.sector_bytes)
        if np.any(self._valid[set_idx, way] & bits == 0):
            return None
        n = len(a)
        self._stamp[set_idx, way] = \
            self._clock + 1 + np.arange(n, dtype=np.int64)
        self._clock += n
        if record:
            self._record(n, n, 0, 0, 0)
        return np.ones(n, dtype=bool)

    def _lockstep_ok(self, addrs: np.ndarray, size: int) -> bool:
        """Is this stream eligible for the lockstep path?  Single
        sector per access is the only hard requirement (multi-sector
        accesses would interleave within one clock tick)."""
        if size <= 0:
            return False
        return not bool(np.any(addrs % self.sector_bytes + size
                               > self.sector_bytes))

    def _lockstep_access(self, a: np.ndarray, size: int, *,
                         allocate: bool, record: bool) -> np.ndarray:
        """Exact vectorized replay of a single-sector access stream.

        Sets are fully independent state machines, so the stream is
        split into per-set sub-streams (a stable argsort keeps each in
        issue order) and processed in *lockstep*: step ``i`` resolves
        the ``i``-th access of every touched set simultaneously with
        matrix operations.  The step count is the deepest sub-stream,
        not the batch length — a chase spread over S sets runs in
        ~n/S steps.

        Exactness relies on two invariants of the scalar path:

        * per-access clocks are position-based (``c0 + i + 1``), so
          LRU stamps can be computed up front;
        * stamps assigned within this call are distinct and larger
          than every pre-existing stamp, so the ``(stamp, _ins)``
          LRU tie-break can only involve pre-call lines — insertion
          sequence numbers are therefore assigned *after* the loop,
          in global access order, without affecting any victim choice
          made during it.
        """
        n = len(a)
        line = a // self.line_bytes
        set_idx = line % self.num_sets
        order = np.argsort(set_idx, kind="stable")
        gs = set_idx[order]
        starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        counts = np.r_[starts[1:], n] - starts
        depth = int(counts.max())
        if depth * 8 > n:
            # concentrated in few sets: lockstep degenerates to ~n tiny
            # matrix steps — the scalar loop is cheaper and exact
            return self._access_loop(a, size, write=False,
                                     allocate=allocate, record=record)
        us = gs[starts]                       # touched sets, ascending
        self._ensure_sets(int(us[-1]) + 1)
        ways = self.ways

        # local copies of the touched rows (fancy indexing copies);
        # written back once at the end
        L = self._lines[us]
        V = self._valid[us]
        S = self._stamp[us]
        Ins = self._ins[us]
        F = self._set_fill[us]

        line_s = line[order]
        bits_s = np.int64(1) << ((a[order] % self.line_bytes)
                                 // self.sector_bytes)
        clk_s = self._clock + order + 1       # position-based clocks
        pos_s = order

        out = np.empty(n, dtype=bool)
        way_col = np.arange(ways, dtype=np.int64)
        n_hit = n_sector = n_tag = n_evict = 0
        v_changed = False
        ins_pos: List[np.ndarray] = []
        ins_row: List[np.ndarray] = []
        ins_way: List[np.ndarray] = []
        ins_line: List[np.ndarray] = []
        ev_pos: List[np.ndarray] = []
        ev_line: List[np.ndarray] = []

        for step in range(depth):
            rows = np.flatnonzero(counts > step)   # one access per set
            idx = starts[rows] + step
            li = line_s[idx]
            bi = bits_s[idx]
            ck = clk_s[idx]
            po = pos_s[idx]

            occ = way_col < F[rows, None]
            match = (L[rows] == li[:, None]) & occ
            tag_hit = match.any(axis=1)
            w = match.argmax(axis=1)

            hit = np.zeros(len(rows), dtype=bool)
            th = np.flatnonzero(tag_hit)
            if len(th):
                hit[th] = (V[rows[th], w[th]] & bi[th]) != 0
            out[po] = hit

            h = np.flatnonzero(hit)
            sm = np.flatnonzero(tag_hit & ~hit)
            tm = np.flatnonzero(~tag_hit)
            if record:
                n_hit += len(h)
                n_sector += len(sm)
                n_tag += len(tm)
            if len(h):
                S[rows[h], w[h]] = ck[h]
            if allocate:
                if len(sm):
                    V[rows[sm], w[sm]] |= bi[sm]
                    S[rows[sm], w[sm]] = ck[sm]
                    v_changed = True
                if len(tm):
                    r = rows[tm]
                    fill = F[r]
                    wn = fill.copy()              # fresh way when not full
                    full = np.flatnonzero(fill >= ways)
                    if len(full):
                        rr = r[full]
                        Sr = S[rr]
                        key = np.where(Sr == Sr.min(axis=1)[:, None],
                                       Ins[rr], _I64_MAX)
                        wv = key.argmin(axis=1)   # LRU, ties by _ins
                        wn[full] = wv
                        ev_pos.append(po[tm][full])
                        ev_line.append(L[rr, wv].copy())
                        n_evict += len(full)
                    F[r] = np.minimum(fill + 1, ways)
                    L[r, wn] = li[tm]
                    V[r, wn] = bi[tm]
                    S[r, wn] = ck[tm]
                    ins_pos.append(po[tm])
                    ins_row.append(r)
                    ins_way.append(wn)
                    ins_line.append(li[tm])

        # insertion sequence numbers, assigned in global access order;
        # for a (set, way) slot filled several times only the last
        # insertion survives (the earlier ones were evicted)
        if ins_pos:
            ip = np.concatenate(ins_pos)
            ir = np.concatenate(ins_row)
            iw = np.concatenate(ins_way)
            o2 = np.argsort(ip)               # positions are unique
            slot = ir[o2] * ways + iw[o2]
            _, first_rev = np.unique(slot[::-1], return_index=True)
            keep = len(slot) - 1 - first_rev
            Ins[ir[o2][keep], iw[o2][keep]] = \
                self._ins_counter + keep
            self._ins_counter += len(ip)

        # write back only what could have changed: stamps move on
        # every access, the rest only on misses that allocated
        self._stamp[us] = S
        if ins_pos:
            self._lines[us] = L
            self._ins[us] = Ins
            self._set_fill[us] = F
        if v_changed or ins_pos:
            self._valid[us] = V

        if ins_pos:
            self._empty = False
        # replay eviction/insertion events into the line→way index —
        # unless it is already invalidated, in which case the matrices
        # alone carry residency and _index() rebuilds on demand
        if self._where is not None and (ins_pos or ev_pos):
            ep = np.concatenate(ev_pos + ins_pos) if ev_pos \
                else np.concatenate(ins_pos)
            el = np.concatenate(ev_line + ins_line) if ev_pos \
                else np.concatenate(ins_line)
            ew = np.concatenate(
                [np.full(sum(map(len, ev_pos)), -1, dtype=np.int64)]
                + ins_way) if ev_pos else np.concatenate(ins_way)
            o3 = np.argsort(ep)
            el_s = el[o3]
            ew_s = ew[o3]
            _, first_rev = np.unique(el_s[::-1], return_index=True)
            last = len(el_s) - 1 - first_rev
            final_line = el_s[last]
            final_way = ew_s[last]
            dead = final_way < 0
            where = self._where
            for lk in final_line[dead].tolist():
                where.pop(lk, None)     # inserted-then-evicted in-call
            where.update(zip(final_line[~dead].tolist(),
                             final_way[~dead].tolist()))

        self._clock += n
        if record:
            self._record(n, n_hit, n_sector, n_tag, n_evict)
        return out

    # -- introspection -------------------------------------------------------------

    def state_digest(self, sets: Union[Sequence[int], np.ndarray]) \
            -> bytes:
        """Canonical digest of the state of ``sets`` as it affects any
        future access stream confined to them: per set, the resident
        line addresses and sector-valid masks in LRU→MRU order (the
        lexicographic ``(stamp, _ins)`` rank), plus occupancy.
        Absolute clock values and physical way positions are
        deliberately excluded — LRU decisions are ordinal, and no
        outcome depends on *which* way holds a line — so two states
        one steady-state chase period apart digest equal even when
        the resident lines have rotated through the ways (as LRU
        thrash patterns make them do).
        """
        import hashlib

        if self._pending is not None:
            self._install()
        rows = np.ascontiguousarray(sets, dtype=np.int64)
        if len(rows):
            self._ensure_sets(int(rows.max()) + 1)
        if len(rows) <= 32:
            # tiny set lists (conflict ladders): plain-Python sort of
            # a few ways per set beats the vectorized lexsort setup
            h = hashlib.blake2b(digest_size=16)
            payload = []
            for r in rows.tolist():
                fill = int(self._set_fill[r])
                payload.append(fill)
                occ = sorted(
                    zip(self._stamp[r, :fill].tolist(),
                        self._ins[r, :fill].tolist(),
                        self._lines[r, :fill].tolist(),
                        self._valid[r, :fill].tolist()))
                for _, _, ln, vd in occ:
                    payload.append(ln)
                    payload.append(vd)
            h.update(repr(payload).encode())
            return h.digest()
        L = self._lines[rows]
        V = self._valid[rows]
        S = self._stamp[rows]
        Ins = self._ins[rows]
        F = self._set_fill[rows]
        occ = np.arange(self.ways)[None, :] < F[:, None]
        # list each set's lines in LRU-to-MRU order; unoccupied ways
        # sort last and are masked to sentinels
        order = np.lexsort((np.where(occ, Ins, _I64_MAX),
                            np.where(occ, S, _I64_MAX)), axis=-1)
        h = hashlib.blake2b(digest_size=16)
        h.update(F.tobytes())
        h.update(np.where(occ, np.take_along_axis(L, order, axis=1),
                          -1).tobytes())
        h.update(np.where(occ, np.take_along_axis(V, order, axis=1),
                          0).tobytes())
        return h.digest()

    @property
    def resident_bytes(self) -> int:
        """Bytes of valid sectors currently cached."""
        if self._empty:
            return 0
        if self._pending is not None:
            self._install()
        # mask to occupied ways: flush() leaves stale bits behind
        occ = (np.arange(self.ways, dtype=np.int64)[None, :]
               < self._set_fill[:, None])
        valid = np.where(occ, self._valid, 0)
        if hasattr(np, "bitwise_count"):
            sectors = int(np.bitwise_count(valid).sum())
        else:  # pragma: no cover - numpy < 2.0
            sectors = int(np.unpackbits(
                valid.astype(np.uint64).view(np.uint8)).sum())
        return sectors * self.sector_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{self.name}: {self.size_bytes // 1024} KiB, "
            f"{self.ways}-way, {self.num_sets} sets>"
        )
