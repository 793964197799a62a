"""The repo-root hermetic CTD-cache fixture covers ``benchmarks/`` too.

This test lives under ``benchmarks/`` on purpose: it is the witness that
the autouse fixture in the repo-root ``conftest.py`` reaches the modules
collected from this directory, not only those under ``tests/``.
"""

from repro.core.solve import SolveRequest, execute
from repro.hypergraph.library import cycle_hypergraph


def test_default_cache_writes_nothing_from_benchmark_modules(tmp_path, monkeypatch):
    """A solve through the default cache (``"auto"``) from a benchmark module
    leaves the working directory untouched instead of filling a shared
    ``workloads/.ctd-cache`` with entries from every run."""
    monkeypatch.chdir(tmp_path)
    request = SolveRequest(
        hypergraph=cycle_hypergraph(6), mode="enumerate", width=2, limit=2
    )
    result = execute(request)
    assert result.decided
    assert list(tmp_path.iterdir()) == []
