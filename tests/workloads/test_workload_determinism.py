"""Cross-process determinism of the workload generators.

Generator coordinates are only sound as a data identity (benchmark data
keys, pinned benchmark answers) if generation is a pure function of
``(workload, scale, seed)``: the same triple must produce byte-identical
code columns in any process, under any ``PYTHONHASHSEED`` (numpy's PCG64
stream is stable across platforms, and the columnar ingest path never
iterates a set or dict whose order could leak in).
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.workloads.registry import workload_entries

#: (workload, scale, seed) triples covered by the determinism tests.
CASES = [
    ("tpcds", 0.3, 5),
    ("hetionet", 0.3, 99),
    ("lsqb", 0.3, 123),
    ("joblite", 0.3, 31),
]

_FINGERPRINT_SCRIPT = """
import hashlib

from repro.workloads.registry import workload_entry

entry = workload_entry({workload!r})
database = entry.load(scale={scale!r}, seed={seed!r})
digest = hashlib.sha256()
for name in database.relation_names():
    relation = database.relation(name)
    digest.update(name.encode())
    for attribute in relation.attributes:
        digest.update(attribute.encode())
        digest.update(relation.codes(attribute).tobytes())
for value in database.interner.values():
    digest.update(repr(value).encode())
print(digest.hexdigest())
"""


def _fingerprint_in_subprocess(workload, scale, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    script = textwrap.dedent(
        _FINGERPRINT_SCRIPT.format(workload=workload, scale=scale, seed=seed)
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout.strip()


@pytest.mark.parametrize("workload,scale,seed", CASES)
def test_byte_identical_across_processes(workload, scale, seed):
    digests = {
        _fingerprint_in_subprocess(workload, scale, seed, hash_seed)
        for hash_seed in ("0", "1", "4242")
    }
    assert len(digests) == 1
    assert next(iter(digests))


class TestInProcessDeterminism:
    @pytest.mark.parametrize("workload,scale,seed", CASES)
    def test_same_seed_same_code_columns(self, workload, scale, seed):
        entry = workload_entries()[workload]
        a = entry.load(scale=scale, seed=seed)
        b = entry.load(scale=scale, seed=seed)
        for name in a.relation_names():
            for attribute in a.relation(name).attributes:
                assert np.array_equal(
                    a.relation(name).codes(attribute),
                    b.relation(name).codes(attribute),
                ), (name, attribute)
        assert a.interner.values() == b.interner.values()

    @pytest.mark.parametrize("workload", sorted(w for w, _, _ in CASES))
    def test_different_seeds_differ(self, workload):
        entry = workload_entries()[workload]
        a = entry.load(scale=0.3, seed=1)
        b = entry.load(scale=0.3, seed=2)
        assert any(
            not np.array_equal(
                a.relation(name).codes(attribute),
                b.relation(name).codes(attribute),
            )
            for name in a.relation_names()
            for attribute in a.relation(name).attributes
            if len(a.relation(name)) == len(b.relation(name))
        ) or a.total_rows() != b.total_rows()
