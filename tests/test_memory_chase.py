"""Engine-vs-scalar equivalence for the steady-state chase engine.

:class:`~repro.memory.chase.ChaseEngine` claims to be *exact*: any
periodic chase it runs — simulated laps, batched tails and
analytically extrapolated fixed-point laps alike — must produce the
same latency histogram, summed cycles, level counts, TLB hits,
``CacheStats`` fields and observability counter bank as the scalar
one-``load()``-at-a-time loop it replaced.  This suite makes that
claim a property over random chains, strides, cache operators and
iteration budgets, and pins the :class:`~repro.memory.pchase.PChase`
probes against the scalar reference in ``tests/reference/chase.py``.
"""

from __future__ import annotations

from dataclasses import replace
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import get_device, list_devices
from repro.fuzz.strategies import (
    cache_ops,
    chain_lengths,
    chase_iters,
    chase_seeds,
    chase_strides,
)
from repro.isa.memory_ops import CacheOp
from repro.memory import MemoryHierarchy, PChase, chase
from repro.memory.chase import (ChaseEngine, chase_total_clk,
                                latency_counts)
from repro.memory.pchase import _chain_order, measure_latencies
from repro.obs.session import ObsSession

from reference.chase import (ScalarPChase, measure_latencies_scalar,
                             scalar_chase)


def _tiny_device():
    """An H800 with a 512 KiB L2 — over-capacity chases stay cheap."""
    h800 = get_device("H800")
    return h800.with_overrides(
        cache=replace(h800.cache, l2_size_kib=512)
    )


_TINY = _tiny_device()

#: strides giving line-grained, page-straddling and page-per-entry
#: walks (shared with the fuzzer's property strategies)
_STRIDES = chase_strides


def _counter_bank(mh):
    """Every post-run counter a chase can influence."""
    def fields(c):
        s = c.stats
        return (s.accesses, s.hits, s.sector_misses, s.tag_misses,
                s.evictions)

    return (fields(mh.l1_for_sm(0)), fields(mh.l2),
            (mh.tlb.hits, mh.tlb.misses))


class TestEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(n=chain_lengths(48),
           iters=chase_iters(400),
           seed=chase_seeds,
           stride=_STRIDES,
           op=cache_ops)
    def test_engine_matches_scalar_chase(self, n, iters, seed, stride,
                                         op):
        seq = _chain_order(n, seed=seed) * stride

        mh_v = MemoryHierarchy(_TINY)
        stats = ChaseEngine(mh_v, size=32, cache_op=op).run(seq, iters)

        mh_s = MemoryHierarchy(_TINY)
        lats, levels, tlb_hits = scalar_chase(mh_s, seq, iters,
                                              cache_op=op)

        # outcomes: exact, including bit-equal summed cycles
        assert stats.latency_counts == latency_counts(lats)
        assert stats.total_latency_clk == \
            chase_total_clk(latency_counts(lats))
        assert stats.level_counts == levels
        assert stats.tlb_hits == tlb_hits
        assert stats.iters == iters
        assert stats.simulated + stats.extrapolated == iters
        # side effects: identical cache/TLB counter banks
        assert _counter_bank(mh_v) == _counter_bank(mh_s)

    @pytest.mark.parametrize("period", [8, 40])
    def test_extrapolated_chase_stays_exact(self, period):
        """Budgets far past the fixed point: most laps are accounted
        analytically, yet every number still equals the spec's.  The
        L2 is warmed over the chain first, so the chase is simulated
        up to its fixed point (a cold start takes the closed form)."""
        seq = _chain_order(period) * 128
        mh_v = MemoryHierarchy(_TINY)
        mh_v.warm_l2(0, period * 128)
        stats = ChaseEngine(mh_v).run(seq, 5000)
        assert stats.simulated > 0 and stats.extrapolated > 0

        mh_s = MemoryHierarchy(_TINY)
        mh_s.warm_l2(0, period * 128)
        lats, levels, tlb_hits = scalar_chase(mh_s, seq, 5000)
        assert stats.latency_counts == latency_counts(lats)
        assert stats.level_counts == levels
        assert stats.tlb_hits == tlb_hits
        assert _counter_bank(mh_v) == _counter_bank(mh_s)

    @settings(max_examples=20, deadline=None)
    @given(n=chain_lengths(32),
           iters=st.integers(min_value=1, max_value=300),
           seed=st.sampled_from((None, 7)))
    def test_obs_counter_bank_matches_scalar(self, n, iters, seed):
        """Under an active ObsSession the engine fires exactly the
        counters (and latency-histogram buckets — they share the
        namespace) the scalar loop fires."""
        seq = _chain_order(n, seed=seed) * 128

        s_sess = ObsSession()
        with s_sess.activate():
            scalar_chase(MemoryHierarchy(_TINY), seq, iters)

        v_sess = ObsSession()
        with v_sess.activate():
            ChaseEngine(MemoryHierarchy(_TINY)).run(seq, iters)

        assert s_sess.counters.as_dict() == v_sess.counters.as_dict()

    def test_extrapolation_engages_on_long_chases(self):
        mh = MemoryHierarchy(_TINY)
        mh.warm_l2(0, 64 * 128)          # warmed: no closed form
        stats = ChaseEngine(mh).run(_chain_order(64) * 128, 100_000)
        assert stats.simulated > 0 and stats.extrapolated > 0
        assert stats.simulated + stats.extrapolated == 100_000
        assert sum(stats.latency_counts.values()) == 100_000
        assert sum(stats.level_counts.values()) == 100_000

    def test_zero_iters(self):
        stats = ChaseEngine(MemoryHierarchy(_TINY)).run([0, 128], 0)
        assert stats.iters == 0
        assert stats.latency_counts == {}
        assert stats.mean_latency_clk == 0.0

    def test_validation(self):
        engine = ChaseEngine(MemoryHierarchy(_TINY))
        with pytest.raises(ValueError):
            engine.run([], 10)
        with pytest.raises(ValueError):
            engine.run([0, 128], -1)


class TestPChaseEngineParity:
    """The public probes agree between the engine and the preserved
    scalar reference loops — for sequential *and* seeded chains."""

    @pytest.mark.parametrize("seed", [None, 7])
    def test_per_level_probes_match_scalar(self, tiny_device, seed):
        probes = [
            ("l1_latency", dict(iters=256)),
            ("shared_latency", dict(iters=128)),
            ("l2_latency", dict(array_kib=256, iters=256)),
            ("global_latency", dict(iters=256)),
            ("global_latency_cold_tlb", dict(iters=128)),
        ]
        vec = PChase(tiny_device, seed=seed)
        ref = ScalarPChase(tiny_device, seed=seed)
        for method, kwargs in probes:
            v = getattr(vec, method)(**kwargs)
            s = getattr(ref, method)(**kwargs)
            assert v.mean_latency_clk == s.mean_latency_clk, method
            assert v.hits_at_level == s.hits_at_level, method
            assert v.accesses == s.accesses, method

    @pytest.mark.parametrize("seed", [None, 0])
    def test_measure_latencies_engine_parity(self, seed):
        device = get_device("A100")
        assert measure_latencies(device, fast=True, seed=seed) == \
            measure_latencies_scalar(device, fast=True, seed=seed)


# -- the closed form ---------------------------------------------------------

def _shrunk(name):
    """A registered device with its L2 shrunk as :func:`_tiny_device`
    shrinks the H800's."""
    dev = get_device(name)
    return dev.with_overrides(cache=replace(dev.cache, l2_size_kib=512))


_DEVICES = list_devices()
_CLOSED_STRIDES = (32, 64, 128, 4096, 2 << 20)
_OPS = (CacheOp.CACHE_ALL, CacheOp.CACHE_GLOBAL)


def _lines_per_set(stride, cache, k):
    """Accesses of an ascending ``stride`` walk that puts ``k`` lines
    in every set it touches."""
    step = max(1, stride // cache.line_bytes)
    sets = cache.num_sets // gcd(cache.num_sets, step)
    return sets * k * max(1, cache.line_bytes // stride)


def _fresh(device, session, warm_tlb_over=None):
    """A hierarchy whose counters feed ``session`` (L1 built eagerly:
    caches bind the active session when constructed)."""
    with session.activate():
        mh = MemoryHierarchy(device)
        mh.l1_for_sm(0)
    if warm_tlb_over is not None:
        mh.warm_tlb(0, int(warm_tlb_over.max()) + 1)
    return mh


def _touched_sets(cache, seq):
    return np.unique((seq // cache.line_bytes) % cache.num_sets)


def _fingerprint(mh, seq):
    """Every outcome-relevant side effect of a chase: the cache and
    TLB totals plus the state digests of the touched L1/L2 sets and
    the TLB."""
    l1 = mh.l1_for_sm(0)
    return (_counter_bank(mh),
            l1.state_digest(_touched_sets(l1, seq)),
            mh.l2.state_digest(_touched_sets(mh.l2, seq)),
            mh.tlb.state_digest())


def _raw_state(mh, seq):
    """The touched sets' resident lines as (LRU clock, insertion
    number, line, sector mask) and the caches' clocks.  The closed
    form reproduces even these, the LRU tie-break order included;
    fixed-point extrapolation keeps only their order."""
    out = []
    for cache in (mh.l1_for_sm(0), mh.l2):
        sets = _touched_sets(cache, seq)
        cache.state_digest(sets)           # installs a pending state
        out.append(([sorted(zip(*(m[r, :cache._set_fill[r]].tolist()
                                  for m in (cache._stamp, cache._ins,
                                            cache._lines,
                                            cache._valid))))
                     for r in sets.tolist()],
                    cache._clock, cache._ins_counter))
    return out


def _scalar_checkpoints(device, seq, checkpoints, op, warm):
    """The scalar chase, observed after each of ``checkpoints``
    accesses: ``{iters: (latency histogram, levels, tlb hits,
    fingerprint, counter bank)}``."""
    sess = ObsSession()
    mh = _fresh(device, sess, seq if warm else None)
    out = {}
    lats, levels, tlb_hits, done = [], {}, 0, 0
    for stop in sorted(set(checkpoints)):
        part, lv, th = scalar_chase(
            mh, np.roll(seq, -(done % len(seq))), stop - done,
            cache_op=op)
        lats.extend(part.tolist())
        for k, v in lv.items():
            levels[k] = levels.get(k, 0) + v
        tlb_hits += th
        done = stop
        out[stop] = (latency_counts(lats), dict(levels), tlb_hits,
                     _fingerprint(mh, seq), sess.counters.as_dict()), \
            _raw_state(mh, seq)
    return out


def _engine(device, seq, iters, op, warm):
    sess = ObsSession()
    mh = _fresh(device, sess, seq if warm else None)
    stats = ChaseEngine(mh, size=32, cache_op=op).run(seq, iters)
    return stats, (stats.latency_counts, stats.level_counts,
                   stats.tlb_hits, _fingerprint(mh, seq),
                   sess.counters.as_dict()), _raw_state(mh, seq)


@pytest.fixture
def any_length(monkeypatch):
    """Let the closed form take chases of any length, so its rule is
    pinned on short chains too (``run`` simulates short chases, which
    cost less that way)."""
    monkeypatch.setattr(chase, "_CLOSED_FORM_MIN_ITERS", 1)


class TestClosedForm:
    """Cold-start chases are answered in closed form and must equal
    the scalar chase in every outcome, total, counter and in the
    state they leave behind."""

    @pytest.mark.parametrize("op", _OPS, ids=lambda o: o.value)
    @pytest.mark.parametrize("stride", _CLOSED_STRIDES)
    @pytest.mark.parametrize("name", _DEVICES)
    def test_closed_form_matches_scalar(self, name, stride, op,
                                        any_length):
        """Over the device × stride × op grid the per-set line count
        ``k`` (of L1 for ``.ca``, of L2 for ``.cg``) sits just below,
        at and just above the way count, and the chain order and the
        TLB's start state alternate, so every stride sees all three
        ``k`` and both TLB states and every device both orders."""
        d, s, o = _DEVICES.index(name), _CLOSED_STRIDES.index(stride), \
            _OPS.index(op)
        device = _shrunk(name)
        mh = MemoryHierarchy(device)
        cache = mh.l1_for_sm(0) if op is CacheOp.CACHE_ALL else mh.l2
        k = cache.ways + (d + s) % 3 - 1
        n = _lines_per_set(stride, cache, k)
        seed = 7 if (d + o) % 2 else None
        warm = bool((s + o) % 2)
        seq = _chain_order(n, seed=seed) * stride
        # no access, under a lap, one lap, inside lap 2, two laps and
        # into lap 4
        checkpoints = (0, n // 2, n, n + n // 3, 2 * n, 3 * n + 1)
        expected = _scalar_checkpoints(device, seq, checkpoints, op,
                                       warm)
        # a seeded order scatters a sub-line walk's lines: simulated
        closed = seed is None or stride >= 128
        for iters in checkpoints:
            stats, got, raw = _engine(device, seq, iters, op, warm)
            want, want_raw = expected[iters]
            assert got == want, (iters, k, seed, warm)
            assert stats.total_latency_clk == chase_total_clk(want[0])
            assert stats.simulated + stats.extrapolated == iters
            if closed and iters:
                assert stats.simulated == 0, (iters, k, seed, warm)
                assert raw == want_raw, (iters, k, seed, warm)

    @pytest.mark.parametrize("name", _DEVICES)
    def test_simulated_chase_after_closed_form(self, name, any_length):
        """Two chases on one hierarchy: a closed-form warm-up leaves
        the exact state a simulated chase then starts from (the
        ``CacheProbe.conflict_sweep`` pattern, plus a different
        second chain)."""
        device = _shrunk(name)
        l1 = MemoryHierarchy(device).l1_for_sm(0)
        set_stride = l1.num_sets * l1.line_bytes
        sub_line = np.arange(4 * l1.num_sets) * 32    # a line per set
        for first, warm_iters, second, iters in (
                (np.arange(5) * set_stride, 16,
                 np.arange(5) * set_stride, 203),
                (np.arange(1500) * 128, 4501,
                 _chain_order(700, seed=3) * 64, 1801),
                # the warm-up stops inside line 0's run: its last
                # access, not its run's end, sets its LRU clock, which
                # decides the first eviction from its set
                (sub_line, 3 * len(sub_line) + 2,
                 np.arange(1, l1.ways + 1) * set_stride, 2 * l1.ways + 1)):
            engine_sess, scalar_sess = ObsSession(), ObsSession()
            mh_v = _fresh(device, engine_sess, first)
            mh_s = _fresh(device, scalar_sess, first)
            engine = ChaseEngine(mh_v, size=32)
            warmup = engine.run(first, warm_iters)
            assert warmup.simulated == 0
            scalar_chase(mh_s, first, warm_iters)
            stats = engine.run(second, iters)
            assert stats.simulated > 0
            lats, levels, tlb_hits = scalar_chase(mh_s, second, iters)
            assert stats.latency_counts == latency_counts(lats)
            assert stats.level_counts == levels
            assert stats.tlb_hits == tlb_hits
            both = np.concatenate((first, second))
            assert _fingerprint(mh_v, both) == _fingerprint(mh_s, both)
            assert engine_sess.counters.as_dict() == \
                scalar_sess.counters.as_dict()

    @pytest.mark.parametrize("order", ["shared_first", "interleaved",
                                       "shared_last"])
    def test_l2_second_lap_distance_at_the_way_count(self, order,
                                                      any_length):
        """One L2 set whose lines split between a thrashing L1 set
        (seen by L2 again from lap 2) and a fitting one (lap 1 only).
        In lap 2 a line's stack distance is the set's line count less
        one less the lap-1-only lines before it; the orders put it
        below, at and above the way count.  A second such set follows
        in lap order."""
        mh = MemoryHierarchy(_TINY)
        l1, l2 = mh.l1_for_sm(0), mh.l2
        assert l1.num_sets == 2 * l2.num_sets     # L2 set 0 -> L1 0, 256
        thrash = [2 * i * l2.num_sets for i in range(l2.ways - 3)]
        fits = [(2 * i + 1) * l2.num_sets for i in range(l1.ways)]
        lines = {"shared_first": fits + thrash,
                 "shared_last": thrash + fits,
                 "interleaved": [x for pair in zip(fits, thrash)
                                 for x in pair] + thrash[len(fits):]}
        # the same again in L2 set 1, after set 0 in lap order
        seq = np.asarray(lines[order], dtype=np.int64)
        seq = np.concatenate((seq, seq + 1)) * l2.line_bytes
        for iters in (len(seq) * 2, len(seq) * 3 + 2):
            stats, got, raw = _engine(_TINY, seq, iters,
                                      CacheOp.CACHE_ALL, True)
            assert stats.simulated == 0
            assert (got, raw) == _scalar_checkpoints(
                _TINY, seq, (iters,), CacheOp.CACHE_ALL, True)[iters]

    @pytest.mark.parametrize("op", _OPS, ids=lambda o: o.value)
    @pytest.mark.parametrize("stride", [1 << 20, 2 << 20])
    def test_tlb_overflow(self, stride, op):
        """More pages than TLB entries, one or two accesses each, from
        an empty TLB: every page head misses in every lap."""
        tlb_entries = MemoryHierarchy(_TINY).tlb.entries
        n = (tlb_entries + 8) * (2 << 20) // stride
        seq = np.arange(n, dtype=np.int64) * stride
        checkpoints = (n + n // 2 + 1, 2 * n + 1)
        expected = _scalar_checkpoints(_TINY, seq, checkpoints, op, False)
        for iters in checkpoints:
            stats, got, raw = _engine(_TINY, seq, iters, op, False)
            assert stats.simulated == 0
            assert (got, raw) == expected[iters]

    @pytest.mark.parametrize("case", [
        "stride16", "stride48", "random32", "streaming", "warm_l2",
        "warm_l1"])
    def test_ineligible_chases_stay_simulated_and_exact(self, case):
        """Sub-sector and sector-straddling walks, repeated lines, a
        cache operator that does not allocate like ``.ca``/``.cg`` and
        a warmed start all fall back to simulation, exactly."""
        stride, seed, op = 128, None, CacheOp.CACHE_ALL
        if case in ("stride16", "stride48"):
            stride = int(case[-2:])
        elif case == "random32":
            stride, seed = 32, 5
        elif case == "streaming":
            op = CacheOp.STREAMING
        seq = _chain_order(600, seed=seed) * stride
        iters = 2 * len(seq) + 17
        runs = []
        for chase in ("engine", "scalar"):
            sess = ObsSession()
            mh = _fresh(_TINY, sess, seq)
            if case == "warm_l2":
                mh.warm_l2(0, int(seq.max()) + 32)
            elif case == "warm_l1":
                mh.warm_l1(0, 0, int(seq.max()) + 32)
            if chase == "engine":
                stats = ChaseEngine(mh, size=32, cache_op=op).run(
                    seq, iters)
                assert stats.simulated > 0
                runs.append((stats.latency_counts, stats.level_counts,
                             stats.tlb_hits))
            else:
                lats, levels, tlb_hits = scalar_chase(mh, seq, iters,
                                                      cache_op=op)
                runs.append((latency_counts(lats), levels, tlb_hits))
            runs[-1] += (_fingerprint(mh, seq), sess.counters.as_dict())
        assert runs[0] == runs[1]

    def test_short_chases_are_simulated(self):
        """``run`` takes the closed form from 256 accesses on and
        simulates shorter chases, exactly either way."""
        seq = np.arange(300, dtype=np.int64) * 128
        expected = _scalar_checkpoints(_TINY, seq, (255, 256),
                                       CacheOp.CACHE_ALL, True)
        for iters, simulated in ((255, 255), (256, 0)):
            stats, got, _ = _engine(_TINY, seq, iters,
                                    CacheOp.CACHE_ALL, True)
            assert stats.simulated == simulated
            assert got == expected[iters][0]

    def test_closed_form_reports_and_traces(self):
        """A closed-form run accounts every access as extrapolated and
        leaves one instant on the chase's sim track."""
        sess = ObsSession(trace=True)
        with sess.activate():
            mh = MemoryHierarchy(_TINY)
            stats = ChaseEngine(mh).run(np.arange(300) * 128, 556)
        assert (stats.simulated, stats.extrapolated) == (0, 556)
        marks = [e for e in sess.tracer.events
                 if e["name"].startswith("chase ")]
        assert [e["name"] for e in marks] == ["chase closed form"]
        assert marks[0]["tid"] == "chase sm0"
