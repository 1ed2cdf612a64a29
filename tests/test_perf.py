"""Tests for the result cache and the perf trajectory format."""

from __future__ import annotations

import pytest

from repro.core import run_experiment
from repro.perf import (
    Profiler,
    ResultCache,
    compare_bench,
    load_bench_json,
    write_bench_json,
)

EXP = "table03_devices"


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        assert cache.get(EXP) is None
        res = run_experiment(EXP)
        cache.put(EXP, res)
        got = cache.get(EXP)
        assert got is not None
        assert got.render() == res.render()
        assert got.experiment is res.experiment
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        cache.put(EXP, run_experiment(EXP))
        cache.path_for(EXP).write_bytes(b"not a pickle")
        assert cache.get(EXP) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        cache.put(EXP, run_experiment(EXP))
        path = cache.path_for(EXP)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(EXP) is None

    def test_keys_separate_experiments(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        cache.put(EXP, run_experiment(EXP))
        assert cache.get("table06_sass") is None

    def test_default_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOPPERDISSECT_CACHE_DIR",
                           str(tmp_path / "from-env"))
        cache = ResultCache()
        cache.put(EXP, run_experiment(EXP))
        assert (tmp_path / "from-env").is_dir()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        cache.put(EXP, run_experiment(EXP))
        assert cache.clear() == 1
        assert cache.get(EXP) is None


def _profiler() -> Profiler:
    p = Profiler(jobs=2)
    p.add("exp_a", 0.5)
    p.add("exp_b", 0.001, cached=True)
    p.cache_hits, p.cache_misses = 1, 1
    return p


class TestBenchJson:
    def test_write_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        write_bench_json(path, _profiler())
        data = load_bench_json(path)
        assert data["experiments"]["exp_a"]["wall_s"] == 0.5
        assert data["experiments"]["exp_b"]["cached"] is True
        assert data["jobs"] == 2

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99}')
        with pytest.raises(ValueError, match="schema"):
            load_bench_json(path)

    def test_render_mentions_cache(self):
        out = _profiler().render()
        assert "exp_a" in out and "cache" in out
        assert "1 cached" in out


def _bench(walls, cached=()):
    return {
        "schema": 1,
        "experiments": {
            name: {"wall_s": w, "cached": name in cached}
            for name, w in walls.items()
        },
    }


class TestCompareBench:
    def test_no_regression(self):
        base = _bench({"a": 0.2, "b": 1.0})
        cur = _bench({"a": 0.3, "b": 1.5})
        assert compare_bench(base, cur) == []

    def test_regression_detected(self):
        base = _bench({"a": 0.2})
        cur = _bench({"a": 0.9})
        problems = compare_bench(base, cur, threshold=3.0)
        assert len(problems) == 1 and "a:" in problems[0]

    def test_floor_suppresses_noise(self):
        # 0.1ms -> 3ms is a 30x blowup but under the measurement floor
        base = _bench({"a": 0.0001})
        cur = _bench({"a": 0.003})
        assert compare_bench(base, cur, floor_s=0.05) == []

    def test_missing_experiment_reported(self):
        problems = compare_bench(_bench({"a": 0.2, "b": 0.2}),
                                 _bench({"a": 0.2}))
        assert problems == ["b: missing from current run"]

    def test_cached_timings_skipped(self):
        base = _bench({"a": 0.2})
        cur = _bench({"a": 5.0}, cached={"a"})
        assert compare_bench(base, cur) == []


class TestSourceKeys:
    """One content key: any edit to any ``repro`` module misses every
    cached experiment, including modules no builder imports."""

    NAMES = ("table03_devices", "table04_mem_latency", "fig04_te_linear")

    def _fill(self, root):
        cache = ResultCache(root)
        for name in self.NAMES:
            cache.put(name, run_experiment(name))

    def _assert_all_miss(self, root):
        warm = ResultCache(root)
        assert [warm.get(n) for n in self.NAMES] == [None] * 3
        assert warm.stats.misses == 3

    def test_unedited_tree_stays_warm(self, tmp_path):
        self._fill(tmp_path / "rc")
        warm = ResultCache(tmp_path / "rc")
        assert all(warm.get(n) is not None for n in self.NAMES)
        assert warm.stats.hits == 3

    def test_te_edit_invalidates_memory_experiments(self, tmp_path,
                                                    edit_source):
        self._fill(tmp_path / "rc")
        edit_source("te/modules.py")
        self._assert_all_miss(tmp_path / "rc")

    def test_memory_edit_invalidates_memory_experiments(self, tmp_path,
                                                        edit_source):
        self._fill(tmp_path / "rc")
        edit_source("memory/hierarchy.py")
        self._assert_all_miss(tmp_path / "rc")

    @pytest.mark.parametrize("module", ["perf/runner.py", "cli.py"],
                             ids=["runner", "cli"])
    def test_orchestration_edit_invalidates(self, tmp_path, edit_source,
                                            module):
        self._fill(tmp_path / "rc")
        edit_source(module)
        self._assert_all_miss(tmp_path / "rc")

    def test_tree_is_read_once_per_process(self, tmp_path, monkeypatch):
        from repro.perf import cache as cmod

        reads = []
        real = cmod._read_source

        def counting(path):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(cmod, "_read_source", counting)
        cmod.source_digest.cache_clear()
        try:
            for _ in range(2):
                cache = ResultCache(tmp_path / "rc")
                for name in self.NAMES:
                    cache.key_for(name)
            assert len(reads) == len(set(reads)) > 0
        finally:
            cmod.source_digest.cache_clear()


class TestDeviceDigest:
    def test_reregistering_a_device_changes_digest_and_key(self,
                                                           tmp_path):
        from repro.arch import get_device, register_device
        from repro.perf.cache import device_digest

        original = get_device("H800")
        cache = ResultCache(tmp_path / "rc")
        digest, key = device_digest(("H800",)), cache.key_for(EXP)
        assert device_digest(("H800",)) == digest      # memo hit
        try:
            register_device(original.with_overrides(
                power_cap_watts=original.power_cap_watts + 1.0),
                overwrite=True)
            assert device_digest(("H800",)) != digest
            assert cache.key_for(EXP) != key
        finally:
            register_device(original, overwrite=True)
        assert device_digest(("H800",)) == digest
        assert cache.key_for(EXP) == key


class TestContextKeys:
    """The same experiment under different contexts coexists."""

    def test_contexts_do_not_collide(self, tmp_path):
        from repro.core import RunContext
        from repro.perf import ResultCache

        ctx = RunContext(devices=("A100",))
        cache = ResultCache(tmp_path / "rc")
        default_res = run_experiment(EXP)
        sweep_res = run_experiment(EXP, ctx)
        cache.put(EXP, default_res)
        cache.put(EXP, sweep_res, ctx)

        assert cache.path_for(EXP) != cache.path_for(EXP, ctx)
        got_default = cache.get(EXP)
        got_sweep = cache.get(EXP, ctx)
        assert got_default.render() == default_res.render()
        assert got_sweep.render() == sweep_res.render()
        assert got_sweep.context == ctx

    def test_seed_changes_the_key(self, tmp_path):
        from repro.core import RunContext
        from repro.perf import ResultCache

        cache = ResultCache(tmp_path / "rc")
        assert cache.key_for(EXP) != \
            cache.key_for(EXP, RunContext(seed=1))


class TestBenchHistory:
    def test_append_and_latest(self, tmp_path):
        from repro.perf import (
            append_bench_history,
            latest_bench_entry,
            load_bench_history,
        )

        path = tmp_path / "BENCH_perf_history.jsonl"
        append_bench_history(path, _profiler(), timestamp=100.0,
                             label="first")
        append_bench_history(path, _profiler(), timestamp=200.0)
        entries = load_bench_history(path)
        assert len(entries) == 2
        assert entries[0]["label"] == "first"
        latest = latest_bench_entry(path)
        assert latest["timestamp"] == 200.0
        assert latest["experiments"]["exp_a"]["wall_s"] == 0.5

    def test_wrong_schema_line_rejected(self, tmp_path):
        from repro.perf import load_bench_history

        path = tmp_path / "h.jsonl"
        path.write_text('{"schema": 99}\n')
        with pytest.raises(ValueError, match="schema"):
            load_bench_history(path)

    def test_empty_archive_rejected(self, tmp_path):
        from repro.perf import latest_bench_entry

        path = tmp_path / "h.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            latest_bench_entry(path)

    def test_regression_gate_reads_jsonl(self, tmp_path):
        import subprocess
        import sys

        from repro.perf import append_bench_history

        path = tmp_path / "hist.jsonl"
        append_bench_history(path, _profiler(), timestamp=1.0)
        out = subprocess.run(
            [sys.executable, "benchmarks/check_perf_regression.py",
             str(path), str(path)],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert "no perf regressions" in out.stdout
