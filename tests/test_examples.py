"""The example scripts stay importable and deprecation-free.

The examples must track the current API instead of exercising deprecated
surfaces (the PR 4 beam-era no-op parameters are now removed entirely), so
each one is executed in a subprocess with ``-W error::DeprecationWarning``
— any use of a deprecated parameter (or a stale import) fails the suite,
not just CI.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

#: Every script in ``examples/``.
EXAMPLES = [
    "quickstart.py",
    "constrained_distributed.py",
    "query_evaluation.py",
    "width_hierarchy.py",
]


def test_every_example_is_covered():
    scripts = sorted(f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py"))
    assert scripts == sorted(EXAMPLES)


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs_without_deprecation_warnings(example, tmp_path):
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # Hermetic: any CTD cache or other file an example writes lands in the
    # test's temporary directory, never under the repository.
    env["REPRO_CTD_CACHE"] = str(tmp_path / "ctd-cache")
    result = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::DeprecationWarning",
            os.path.abspath(os.path.join(EXAMPLES_DIR, example)),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), f"{example} produced no output"
