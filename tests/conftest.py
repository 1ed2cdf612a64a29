"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.arch import get_device


@pytest.fixture(autouse=True)
def _hermetic_result_cache(tmp_path, monkeypatch):
    """Point the result cache at a throwaway dir so tests never read
    or write the user's real cache."""
    monkeypatch.setenv("HOPPERDISSECT_CACHE_DIR",
                       str(tmp_path / "result-cache"))


@pytest.fixture()
def edit_source(monkeypatch):
    """``edit_source("te/modules.py")`` makes the source digest see
    that module as edited: it stubs ``perf.cache._read_source`` and
    resets the per-process digest memo (again on teardown, so later
    tests digest the real tree)."""
    from repro.perf import cache as cmod

    real = cmod._read_source

    def edit(suffix):
        def patched(path):
            data = real(path)
            if path.as_posix().endswith(suffix):
                return data + b"\n# edited\n"
            return data

        monkeypatch.setattr(cmod, "_read_source", patched)
        cmod.source_digest.cache_clear()

    yield edit
    cmod.source_digest.cache_clear()


@pytest.fixture(scope="session")
def a100():
    return get_device("A100")


@pytest.fixture(scope="session")
def rtx4090():
    return get_device("RTX4090")


@pytest.fixture(scope="session")
def h800():
    return get_device("H800")


@pytest.fixture(scope="session", params=["A100", "RTX4090", "H800"])
def any_device(request):
    """Parametrised over all three paper devices."""
    return get_device(request.param)


@pytest.fixture()
def tiny_device(h800):
    """An H800 with a shrunken L2 for fast over-capacity tests."""
    from dataclasses import replace
    return h800.with_overrides(
        cache=replace(h800.cache, l2_size_kib=512)
    )
