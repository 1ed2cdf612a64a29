"""Reference scalar implementation of the sectored cache.

This is the original pure-Python :class:`SetAssociativeCache` (per-set
``_Line`` lists, linear tag scans, ``min()`` LRU selection), preserved
verbatim in behaviour as the executable specification for the
vectorized implementation in :mod:`repro.memory.cache`.  The property
tests in ``tests/test_memory_cache.py`` drive both models with the
same random access streams and assert access-for-access equivalence.

It lives with the tests because nothing in the package runs it — it
exists to be obviously correct, not fast.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.memory.cache import CacheStats

__all__ = ["ScalarSetAssociativeCache"]


class _Line:
    """One cache line: tag + per-sector valid bits + LRU stamp."""

    __slots__ = ("tag", "valid_sectors", "stamp")

    def __init__(self, tag: int, stamp: int,
                 valid_sectors: int = 0) -> None:
        self.tag = tag
        self.valid_sectors = valid_sectors  # bitmask over sectors
        self.stamp = stamp


class ScalarSetAssociativeCache:
    """The original sectored, true-LRU, set-associative cache model.

    Interface-compatible with
    :class:`repro.memory.cache.SetAssociativeCache` for ``access``,
    ``probe``, ``warm``, ``flush`` and ``resident_bytes``.
    """

    def __init__(
        self,
        size_bytes: int,
        *,
        line_bytes: int = 128,
        sector_bytes: int = 32,
        ways: int = 4,
        name: str = "cache",
    ) -> None:
        if size_bytes <= 0 or size_bytes % line_bytes:
            raise ValueError("size must be a positive multiple of the line")
        if line_bytes % sector_bytes:
            raise ValueError("line must be a multiple of the sector")
        num_lines = size_bytes // line_bytes
        if num_lines % ways:
            raise ValueError("line count must be divisible by ways")
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.ways = ways
        self.num_sets = num_lines // ways
        self.sectors_per_line = line_bytes // sector_bytes
        self.stats = CacheStats()
        self._clock = 0
        # sets[set_index] -> list of _Line (size <= ways)
        self._sets: List[List[_Line]] = [[] for _ in range(self.num_sets)]

    # -- address helpers ----------------------------------------------------

    def _locate(self, addr: int) -> Tuple[int, int, int]:
        line_addr = addr // self.line_bytes
        set_idx = line_addr % self.num_sets
        tag = line_addr // self.num_sets
        sector = (addr % self.line_bytes) // self.sector_bytes
        return set_idx, tag, sector

    def _sector_span(self, addr: int, size: int) -> List[Tuple[int, int, int]]:
        out = []
        a = addr
        end = addr + max(size, 1)
        while a < end:
            out.append(self._locate(a))
            a = (a // self.sector_bytes + 1) * self.sector_bytes
        return out

    # -- main interface -------------------------------------------------------

    def access(self, addr: int, size: int = 4, *, write: bool = False,
               allocate: bool = True) -> bool:
        """Probe the cache; returns True iff *all* touched sectors hit."""
        self._clock += 1
        self.stats.accesses += 1
        all_hit = True
        touched = self._sector_span(addr, size)
        for set_idx, tag, sector in touched:
            line = self._find(set_idx, tag)
            bit = 1 << sector
            if line is not None and line.valid_sectors & bit:
                line.stamp = self._clock
                continue
            all_hit = False
            if line is not None:
                self.stats.sector_misses += 1
                if allocate:
                    line.valid_sectors |= bit
                    line.stamp = self._clock
            else:
                self.stats.tag_misses += 1
                if allocate:
                    self._fill(set_idx, tag, bit)
        if all_hit:
            self.stats.hits += 1
        return all_hit

    def probe(self, addr: int, size: int = 4) -> bool:
        """Non-destructive lookup (no fill, no LRU update, no stats)."""
        for set_idx, tag, sector in self._sector_span(addr, size):
            line = self._find(set_idx, tag)
            if line is None or not (line.valid_sectors & (1 << sector)):
                return False
        return True

    def warm(self, base: int, size: int) -> None:
        """Fill an address range (the ``ld.ca`` warm-up pass)."""
        addr = (base // self.sector_bytes) * self.sector_bytes
        end = base + size
        while addr < end:
            self.access(addr, self.sector_bytes)
            addr += self.sector_bytes

    def flush(self) -> None:
        for s in self._sets:
            s.clear()
        self.stats.reset()

    # -- internals --------------------------------------------------------------

    def _find(self, set_idx: int, tag: int) -> Optional[_Line]:
        for line in self._sets[set_idx]:
            if line.tag == tag:
                return line
        return None

    def _fill(self, set_idx: int, tag: int, sector_bits: int) -> None:
        lines = self._sets[set_idx]
        if len(lines) >= self.ways:
            victim = min(lines, key=lambda l: l.stamp)
            lines.remove(victim)
            self.stats.evictions += 1
        lines.append(_Line(tag, self._clock, sector_bits))

    # -- introspection -------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        total = 0
        for s in self._sets:
            for line in s:
                total += bin(line.valid_sectors).count("1")
        return total * self.sector_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<scalar {self.name}: {self.size_bytes // 1024} KiB, "
            f"{self.ways}-way, {self.num_sets} sets>"
        )
