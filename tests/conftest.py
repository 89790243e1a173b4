import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def empty_kostka_cache():
    """No affine column held in memory before the test, and none left after it."""
    from kgroth import kostka, tableaux

    tableaux._PREFIXES.clear()
    kostka._column.cache_clear()
    yield
    tableaux._PREFIXES.clear()
    kostka._column.cache_clear()
