import hashlib

import pytest

import kgroth.kostka as kostka
from kgroth.partitions import k_bounded_up_to

from oracles import affine_column_by_weight

# SHA-256 of affine_kostka_k3_d8_v2.json as first written by the column-major
# format; pins the file format
K3_D8_FILE_SHA256 = "112a86b1ce5e95e3d00b5f4312fc2bea0db54af97adee21140edb307afc8d146"


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_prefix_tree_matches_per_weight_sweeps(k):
    columns = kostka._all_columns(k, 9)
    weights = k_bounded_up_to(9, k)
    assert sorted(columns) == sorted(weights)
    for mu in weights:
        assert columns[mu] == affine_column_by_weight(mu, k), mu
        assert columns[mu][mu] == 1


def test_cache_file_bytes_are_pinned(tmp_path, empty_kostka_cache):
    matrix = kostka.build_affine_kostka(3, 8, str(tmp_path))
    path = kostka._cache_path(3, 8, str(tmp_path))
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == K3_D8_FILE_SHA256
    loaded = kostka._load(3, 8, str(tmp_path))
    assert loaded is not None and loaded.columns == matrix.columns


def test_a_smaller_matrix_is_a_slice_of_the_held_one(tmp_path, empty_kostka_cache):
    large = kostka.build_affine_kostka(3, 8)
    small = kostka.build_affine_kostka(3, 5, str(tmp_path / "slice"))
    assert kostka._MATRICES[3] is large
    assert small.deg_max == 5 and set(small.columns) == set(k_bounded_up_to(5, 3))
    kostka._MATRICES.clear()
    fresh = kostka.build_affine_kostka(3, 5, str(tmp_path / "fresh"))
    assert small == fresh
    with open(kostka._cache_path(3, 5, str(tmp_path / "slice")), "rb") as fh, \
            open(kostka._cache_path(3, 5, str(tmp_path / "fresh")), "rb") as good:
        assert fh.read() == good.read()


def test_entries_are_sorted_rows():
    matrix = kostka.KostkaMatrix(2, 2, kostka._all_columns(2, 2))
    rows = matrix.entries
    assert rows == sorted(rows)
    assert ((1,), (1, 1), 1) in rows
    assert len(rows) == sum(len(col) for col in matrix.columns.values())


def test_affine_kostka_is_zero_when_the_weight_is_too_small():
    assert kostka.affine_kostka((2, 1), (1, 1), 2) == 0
