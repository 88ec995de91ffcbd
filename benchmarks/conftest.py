"""Benchmark configuration.

Every benchmark regenerates one table or figure of the paper.  They run under
the ``tiny`` experiment profile by default so the whole suite finishes in a
few minutes on CPU; set ``REPRO_PROFILE=fast`` or ``REPRO_PROFILE=full`` for
larger (slower, closer-to-paper) runs, and ``REPRO_FULL_GRID=1`` to sweep all
datasets instead of one representative dataset per table.
"""

import os
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
# ``src/`` for the package; ``tests/streaming/`` for the scalar POT oracle
# that the adaptive-threshold benchmark checks the fleet POT against.
for _path in (_ROOT / "src", _ROOT / "tests" / "streaming"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

# Default to the smallest profile unless the user explicitly chose one.
os.environ.setdefault("REPRO_PROFILE", "tiny")


@pytest.fixture(scope="session")
def profile():
    from repro.experiments import get_profile

    return get_profile()


@pytest.fixture(scope="session")
def full_grid() -> bool:
    return os.environ.get("REPRO_FULL_GRID", "0") == "1"


def run_once(benchmark, func, *args, **kwargs):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)
