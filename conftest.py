"""Fixtures shared by both test paths (``tests/`` and ``benchmarks/``)."""

import pytest


@pytest.fixture(autouse=True)
def _hermetic_ctd_cache(monkeypatch):
    """Keep every run hermetic: never touch a shared on-disk CTD cache.

    Tests that exercise the decomposition cache opt back in by passing an
    explicit directory (``execute(..., cache=str(tmp_path))``) or an explicit
    :class:`~repro.core.cache.DecompositionCache` instance, both of which
    bypass the kill switch.
    """
    monkeypatch.setenv("REPRO_CTD_CACHE_OFF", "1")
    monkeypatch.delenv("REPRO_CTD_CACHE", raising=False)
