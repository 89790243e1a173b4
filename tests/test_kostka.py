import hashlib
import os

import pytest

import kgroth.kostka as kostka
from kgroth import tableaux
from kgroth.cli import main
from kgroth.partitions import k_bounded_up_to

from oracles import affine_column_by_weight

# SHA-256 of affine_kostka_k3_d8_v2.json as first written by the column-major
# format; pins the file format
K3_D8_FILE_SHA256 = "112a86b1ce5e95e3d00b5f4312fc2bea0db54af97adee21140edb307afc8d146"

# SHA-256 of the file and of the JSON stdout of the k = 5, degree 13 writer
# request, recorded when the build stepped each block through the sorted
# (gamma, rho) strip transitions and each column was sorted as (index, count) pairs
K5_D13_FILE_SHA256 = "56ed0140074aac0be07b2c207a8793718908feff877be2851f4d19a4c8445a77"
K5_D13_WRITER_STDOUT_SHA256 = "f918955d30fe536c7643d07ce249394273face251cdbac2cd69cba2d14b5e0be"


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_prefix_tree_matches_per_weight_sweeps(k):
    columns = kostka.build_affine_kostka(k, 9).columns
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


def test_the_writer_request_bytes_are_pinned(tmp_path, capsys, empty_kostka_cache):
    cache_dir = str(tmp_path / "D")
    code = main(["expand", "--family", "Gk", "--partition", "5,3,1", "--k", "5",
                 "--deg-max", "13", "--cache-dir", cache_dir, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == K5_D13_WRITER_STDOUT_SHA256
    with open(kostka._cache_path(5, 13, cache_dir), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == K5_D13_FILE_SHA256


def test_a_failed_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch,
                                                       empty_kostka_cache):
    matrix = kostka.build_affine_kostka(2, 4)
    seen = []

    def broken(*args, **kwargs):
        seen.extend((p.name, p.stat().st_mode & 0o777) for p in tmp_path.iterdir())
        raise RuntimeError("write failed")

    monkeypatch.setattr(kostka.json, "dumps", broken)
    with pytest.raises(RuntimeError, match="write failed"):
        kostka._save(matrix, str(tmp_path))
    # the write failed with the private sibling open, and the sibling is gone
    [(name, mode)] = seen
    assert name.startswith(os.path.basename(kostka._cache_path(2, 4, str(tmp_path))) + ".")
    assert name.endswith(".tmp") and mode == 0o600
    assert list(tmp_path.glob("*.tmp")) == [] and list(tmp_path.iterdir()) == []


def _forget_columns():
    tableaux._PREFIXES.clear()
    kostka._column.cache_clear()


def test_a_smaller_matrix_is_a_slice_of_the_held_one(tmp_path, empty_kostka_cache):
    large = kostka.build_affine_kostka(3, 8)
    small = kostka.build_affine_kostka(3, 5, str(tmp_path / "slice"))
    assert small.deg_max == 5 and set(small.columns) == set(k_bounded_up_to(5, 3))
    assert all(col is large.columns[mu] for mu, col in small.columns.items())
    _forget_columns()
    fresh = kostka.build_affine_kostka(3, 5, str(tmp_path / "fresh"))
    assert small == fresh
    with open(kostka._cache_path(3, 5, str(tmp_path / "slice")), "rb") as fh, \
            open(kostka._cache_path(3, 5, str(tmp_path / "fresh")), "rb") as good:
        assert fh.read() == good.read()


def test_a_loaded_matrix_is_read_through_the_sweep_memo(tmp_path, empty_kostka_cache):
    built = kostka.build_affine_kostka(3, 7, str(tmp_path))
    _forget_columns()
    loaded = kostka.build_affine_kostka(3, 7, str(tmp_path))
    assert loaded == built
    memo = tableaux._PREFIXES[(tableaux._affine_steps, (3,))]
    for mu in k_bounded_up_to(7, 3):
        assert kostka._column(mu, 3) is loaded.columns[mu] is memo[mu], mu
    # a heavier weight advances from its loaded prefix
    assert kostka._column((3, 3, 1, 1), 3) == affine_column_by_weight((3, 3, 1, 1), 3)


def test_a_column_swept_before_a_load_is_kept(tmp_path, empty_kostka_cache):
    kostka.build_affine_kostka(2, 6, str(tmp_path))
    _forget_columns()
    swept = kostka._column((2, 2, 1, 1), 2)
    on_file = kostka._load(2, 6, str(tmp_path)).columns
    loaded = kostka.build_affine_kostka(2, 6, str(tmp_path))
    memo = tableaux._PREFIXES[(tableaux._affine_steps, (2,))]
    assert loaded.columns[(2, 2, 1, 1)] is swept is memo[(2, 2, 1, 1)]
    assert on_file[(2, 2, 1, 1)] == swept and on_file[(2, 2, 1, 1)] is not swept
    assert loaded.columns[(2, 2, 2)] is memo[(2, 2, 2)] is kostka._column((2, 2, 2), 2)


def test_entries_are_sorted_rows():
    matrix = kostka.build_affine_kostka(2, 2)
    rows = matrix.entries
    assert rows == sorted(rows)
    assert ((1,), (1, 1), 1) in rows
    assert len(rows) == sum(len(col) for col in matrix.columns.values())


def test_affine_kostka_is_zero_when_the_weight_is_too_small():
    assert kostka.affine_kostka((2, 1), (1, 1), 2) == 0
