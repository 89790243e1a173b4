import hashlib

import pytest

import kgroth.kostka as kostka
from kgroth.partitions import k_bounded_up_to
from kgroth.tableaux import kostka_column

# SHA-256 of affine_kostka_k3_d8_v1.json as written before the matrix was
# built by one walk over the prefix tree of the weights; pins the file format
K3_D8_FILE_SHA256 = "6c7ab25cc38f283532ba9ee4e9d583e0ada414679eed8cda4afaa1e7c2493ffa"


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_prefix_tree_matches_per_weight_sweeps(k):
    columns = kostka._all_columns(k, 9)
    weights = k_bounded_up_to(9, k)
    assert sorted(columns) == sorted(weights)
    for mu in weights:
        assert columns[mu] == kostka_column(mu, k), mu
        assert columns[mu][mu] == 1


def test_cache_file_bytes_are_pinned(tmp_path):
    kostka._MEMO.clear()
    try:
        matrix = kostka.build_affine_kostka(3, 8, str(tmp_path))
        path = kostka._cache_path(3, 8, str(tmp_path))
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == K3_D8_FILE_SHA256
        loaded = kostka._load(3, 8, str(tmp_path))
        assert loaded is not None and loaded.columns == matrix.columns
    finally:
        kostka._MEMO.clear()


def test_entries_are_sorted_rows():
    matrix = kostka.KostkaMatrix(2, 2, kostka._all_columns(2, 2))
    rows = matrix.entries
    assert rows == sorted(rows)
    assert ((1,), (1, 1), 1) in rows
    assert len(rows) == sum(len(col) for col in matrix.columns.values())


def test_affine_kostka_is_zero_when_the_weight_is_too_small():
    assert kostka.affine_kostka((2, 1), (1, 1), 2) == 0
