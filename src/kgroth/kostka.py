"""Affine set-valued Kostka numbers: memoized columns, bulk matrices, cache.

The numbers count tableaux of a given shape and weight.  Every column is a
read of tableaux.sweep, which keeps the states of each weight prefix it has
swept, so a bulk matrix, every column of the weights up to deg_max, takes one
sweep step per weight.  That sweep memo is the one in-process store of
columns: a matrix only names the columns of its weights, and a matrix loaded
from a cache file adds its columns to the memo, where a column already swept
is kept.  Later sweeps of heavier weights then advance from the loaded ones.

Bulk matrices are persisted as versioned JSON, written to a random-named
sibling file that then replaces the cache file, so concurrent readers never
see a torn file, and spot-checked when read back.
The version 2 file is column-major: the sorted list of k-bounded partitions
of degree <= deg_max, once, indexes both shapes and weights, and each
weight, in that order, has one flat [shape index, count, ...] list.  Files
of other versions have other names and are never read.
"""

from __future__ import annotations

import json
import os
from functools import cache

from .partitions import (
    Record,
    _set,
    check_bounded,
    check_composition,
    degree,
    k_bounded_up_to,
)
from .tableaux import _PREFIXES, _affine_steps, kostka_column

FORMAT_VERSION = 2

# a loaded file's columns of weights up to this degree are compared with
# fresh sweeps, which stay a few short ones at any k
CHECKED_DEGREE = 3


# the hot affine read over the sweep memo's columns: a hit costs 0.12-0.20 us,
# a kept weight read through sweep() 0.29-0.31 us (k = 4, Python 3.11, x86-64)
@cache
def _column(mu: tuple[int, ...], k: int) -> dict[tuple[int, ...], int]:
    """All affine Kostka numbers of the k-bounded weight partition mu, keyed by shape; do not mutate."""
    return kostka_column(mu, k)


def affine_kostka(lam, mu, k: int) -> int:
    """The affine set-valued Kostka number for shape lam and weight mu.

    The weight is sorted into a partition first; rearranging it never changes
    the count, which the symmetry suite checks composition by composition.
    """
    lam = check_bounded(lam, k)
    mu = tuple(sorted(check_composition(mu, k), reverse=True))
    if degree(lam) > sum(mu):
        return 0
    return _column(mu, k).get(lam, 0)


class KostkaMatrix(Record):
    """All affine set-valued Kostka numbers with k-bounded indices up to deg_max.

    columns maps each weight to its column, keyed by shape.
    """

    __slots__ = ("k", "deg_max", "columns")

    def __init__(
        self, k: int, deg_max: int, columns: dict[tuple[int, ...], dict[tuple[int, ...], int]]
    ):
        _set(self, "k", k)
        _set(self, "deg_max", deg_max)
        _set(self, "columns", columns)

    @property
    def entries(self) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """The nonzero entries as (shape, weight, count) rows, sorted."""
        # the weights are walked in order, so each shape's rows come out
        # sorted and only the shapes need sorting, not every row
        by_shape: dict[tuple[int, ...], list] = {}
        for mu in sorted(self.columns):
            for lam, v in self.columns[mu].items():
                by_shape.setdefault(lam, []).append((lam, mu, v))
        return [row for lam in sorted(by_shape) for row in by_shape[lam]]


def build_affine_kostka(k: int, deg_max: int, cache_dir: str | None = None) -> KostkaMatrix:
    """Load (or build) the matrix of entries with |lam| <= |mu| <= deg_max."""
    if deg_max < 0:
        raise ValueError("deg_max must be nonnegative")
    loaded = _load(k, deg_max, cache_dir) if cache_dir else None
    if loaded is not None:
        # the loaded columns join the sweep memo, where a column already swept is kept
        memo = _PREFIXES[(_affine_steps, (k,))]
        return KostkaMatrix(k, deg_max, {
            mu: memo.setdefault(mu, col) for mu, col in loaded.columns.items()
        })
    # by increasing degree, each column is one sweep step
    matrix = KostkaMatrix(k, deg_max, {mu: _column(mu, k) for mu in k_bounded_up_to(deg_max, k)})
    if cache_dir:
        _save(matrix, cache_dir)
    return matrix


def _cache_path(k: int, deg_max: int, cache_dir: str) -> str:
    return os.path.join(cache_dir, f"affine_kostka_k{k}_d{deg_max}_v{FORMAT_VERSION}.json")


def _load(k: int, deg_max: int, cache_dir: str) -> KostkaMatrix | None:
    path = _cache_path(k, deg_max, cache_dir)
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or (
        data.get("format_version"), data.get("k"), data.get("deg_max")
    ) != (FORMAT_VERSION, k, deg_max):
        return None
    columns: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    try:
        parts = [tuple(p) for p in data["partitions"]]
        flats = data["columns"]
        if len(flats) != len(parts):
            return None
        for mu, flat in zip(parts, flats):
            index = flat[::2]
            # a negative index would count from the end of the list
            if len(flat) % 2 or (index and min(index) < 0):
                return None
            columns[mu] = dict(zip(map(parts.__getitem__, index), map(int, flat[1::2])))
    except (KeyError, TypeError, ValueError, IndexError):
        return None
    if not _plausible(columns, k, deg_max):
        return None
    return KostkaMatrix(k, deg_max, columns)


def _plausible(
    columns: dict[tuple[int, ...], dict[tuple[int, ...], int]], k: int, deg_max: int
) -> bool:
    """Spot-check loaded columns: every weight, unit diagonal, fresh low degrees.

    The solvers rely on K[mu|mu] = 1; the low-degree columns are recomputed.
    """
    if set(columns) != set(k_bounded_up_to(deg_max, k)):
        return False
    if any(col.get(mu) != 1 for mu, col in columns.items()):
        return False
    return all(col == _column(mu, k) for mu, col in columns.items() if degree(mu) <= CHECKED_DEGREE)


def _save(matrix: KostkaMatrix, cache_dir: str) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(matrix.k, matrix.deg_max, cache_dir)
    # the weights are all the k-bounded partitions of degree <= deg_max, so
    # their list indexes every shape too
    parts = sorted(matrix.columns)
    index_of = {lam: i for i, lam in enumerate(parts)}.__getitem__
    flats = []
    for mu in parts:
        # the shape indices sort as the shapes do, and as plain ints faster
        col = matrix.columns[mu]
        flat: list[int] = []
        for i in sorted(map(index_of, col)):
            flat += (i, col[parts[i]])
        flats.append(flat)
    payload = {
        "format_version": FORMAT_VERSION,
        "k": matrix.k,
        "deg_max": matrix.deg_max,
        "partitions": parts,
        "columns": flats,
    }
    # write-then-rename keeps readers away from partial files.  The sibling
    # is opened the way tempfile.mkstemp opens one, exclusively and private;
    # importing tempfile would cost a writer process about 8 ms
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            # json.dumps runs the C encoder, json.dump never does; the bytes agree.
            # The payload is lists of ints and tuples, so no cycle check is needed
            fh.write(json.dumps(payload, sort_keys=True, check_circular=False))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
