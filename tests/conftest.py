import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def empty_kostka_cache():
    """No affine column held in memory before the test, and none left after it.

    The memoized affine series G^(k) reads the columns, so it is forgotten too.
    """
    from kgroth import families, kostka, tableaux

    def forget():
        tableaux._PREFIXES.clear()
        kostka._column.cache_clear()
        families.affine_grothendieck.cache_clear()

    forget()
    yield
    forget()
