"""The scalar P-chase: one ``load()`` per hop.

:func:`scalar_chase` is the executable specification of
:class:`repro.memory.chase.ChaseEngine` — it walks a periodic address
stream through a :class:`~repro.memory.MemoryHierarchy` one load at a
time.  :class:`ScalarPChase` runs the Table IV probes of
:class:`repro.memory.PChase` on it (and the shared-memory probe
hop-by-hop through real storage), so the engine-backed probes can be
pinned against the loops they replaced.
"""

from __future__ import annotations

from typing import Dict, Tuple
from unittest import mock

import numpy as np

from repro.isa.memory_ops import CacheOp
from repro.memory import pchase
from repro.memory.chase import chase_total_clk, latency_counts
from repro.memory.hierarchy import MemLevel, MemoryHierarchy
from repro.memory.pchase import PChase, PChaseResult, _chain
from repro.memory.shared import SharedMemory

__all__ = ["ScalarPChase", "measure_latencies_scalar", "scalar_chase"]


def scalar_chase(mh: MemoryHierarchy, seq, iters: int, *, size: int = 32,
                 cache_op: CacheOp = CacheOp.CACHE_ALL) \
        -> Tuple[np.ndarray, Dict[MemLevel, int], int]:
    """Hop the periodic stream ``seq`` one load at a time; returns the
    per-hop latencies, the level counts and the TLB hits."""
    lats = np.empty(iters)
    levels: Dict[MemLevel, int] = {}
    tlb_hits = 0
    period = len(seq)
    for i in range(iters):
        r = mh.load(int(seq[i % period]), size, cache_op=cache_op)
        lats[i] = r.latency_clk
        levels[r.level] = levels.get(r.level, 0) + 1
        tlb_hits += r.tlb_hit
    return lats, levels, tlb_hits


class ScalarPChase(PChase):
    """:class:`PChase` with its probes run on the scalar loops."""

    def shared_latency(self, *, array_kib: int = 16,
                       iters: int = 2048) -> PChaseResult:
        """The original hop-by-hop loop through real storage."""
        size = array_kib * 1024
        n = size // 8
        smem = SharedMemory(size)
        chain = _chain(n, seed=self.seed)
        smem.write(0, chain.astype(np.int64))
        base = self.device.mem_latencies.shared_clk
        idx = 0
        lats = np.empty(iters)
        for i in range(iters):
            # one thread, one 8-byte word: never a bank conflict
            lats[i] = smem.access_cycles([idx * 8], base)
            idx = int(np.frombuffer(
                smem.read(idx * 8, 8).tobytes(), dtype=np.int64
            )[0])
        total = chase_total_clk(latency_counts(lats))
        return PChaseResult("Shared", total / iters, iters, 1.0)

    def _run(self, n_entries: int, iters: int, op: CacheOp,
             expect: MemLevel, label: str,
             stride_pages: bool = False) -> PChaseResult:
        """Follow the stored pointer chain from entry 0, one load per
        hop."""
        chain = _chain(n_entries, seed=self.seed)
        stride = (self.hierarchy.tlb.page_bytes if stride_pages
                  else self.STRIDE_BYTES)
        hops = np.empty(n_entries, dtype=np.int64)
        idx = 0
        for i in range(n_entries):     # the chain is one full cycle
            hops[i] = idx
            idx = int(chain[idx])
        lats, levels, _ = scalar_chase(self.hierarchy, hops * stride,
                                       iters, cache_op=op)
        total = chase_total_clk(latency_counts(lats))
        return PChaseResult(label, total / iters, iters,
                            levels.get(expect, 0) / iters)


def measure_latencies_scalar(device, **kwargs) -> Dict[str, float]:
    """:func:`repro.memory.pchase.measure_latencies` with every probe
    on :class:`ScalarPChase`."""
    with mock.patch.object(pchase, "PChase", ScalarPChase):
        return pchase.measure_latencies(device, **kwargs)
