import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from bpre import exact

# subprocess tests run ``python -m bpre.cli``; let them import the source tree
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile(
    "bpre",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("bpre")


@pytest.fixture(autouse=True)
def _no_kept_block_table():
    # ``exact`` keeps the last block table it built; each test starts and
    # ends without one, so no test reads a table another one built
    exact._lf_block_table.cache_clear()
    yield
    exact._lf_block_table.cache_clear()


@pytest.fixture
def table_free(monkeypatch):
    """``table_free(fn)`` is fn() on the table-free route: at 0 rows no block table is built."""

    def run(fn):
        rows = exact._SUFFIX_ROWS
        monkeypatch.setattr(exact, "_SUFFIX_ROWS", 0)
        exact._lf_block_table.cache_clear()
        try:
            return fn()
        finally:
            monkeypatch.setattr(exact, "_SUFFIX_ROWS", rows)
            exact._lf_block_table.cache_clear()

    return run
