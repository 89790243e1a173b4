import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def empty_kostka_cache():
    """No Kostka matrix held in memory before the test, and none left after it."""
    from kgroth import kostka

    kostka._MATRICES.clear()
    yield
    kostka._MATRICES.clear()
