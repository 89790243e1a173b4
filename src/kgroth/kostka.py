"""Affine set-valued Kostka numbers: memoized columns, bulk matrices, cache.

The numbers count tableaux of a given shape and weight.  Every column is a
read of tableaux.sweep, which keeps the states of each weight prefix it has
swept, so a bulk matrix, every column of the weights up to deg_max, takes one
sweep step per weight.  The process keeps one matrix per k, the one of the
largest deg_max built or loaded; it answers every smaller deg_max too, since
a shape is never larger than its weight.

Bulk matrices are persisted as versioned JSON, written atomically so
concurrent readers never see a torn file, and spot-checked when read back.
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
    check_partition,
    degree,
    is_k_bounded,
    k_bounded_up_to,
)
from .tableaux import _affine_steps, kostka_column, sweep

FORMAT_VERSION = 2

# a loaded file's columns of weights up to this degree are compared with
# fresh sweeps, which stay a few short ones at any k
CHECKED_DEGREE = 3


# sweep() already keeps every column it reads; this cache stays because the
# traced benchmark run reports its cache_info()
@cache
def _column(mu: tuple[int, ...], k: int) -> dict[tuple[int, ...], int]:
    return kostka_column(mu, k)


def weight_column(mu: tuple[int, ...], k: int) -> dict[tuple[int, ...], int]:
    """All affine Kostka numbers of the k-bounded weight partition mu, keyed by shape.

    The matrix held for k answers when it covers the weight; otherwise one
    sweep computes the column.  Callers must not mutate the result.
    """
    matrix = _MATRICES.get(k)
    column = matrix.columns.get(mu) if matrix is not None else None
    return _column(mu, k) if column is None else column


def affine_kostka(lam, mu, k: int) -> int:
    """The affine set-valued Kostka number for shape lam and weight mu.

    The weight is sorted into a partition first; rearranging it never changes
    the count, which the symmetry suite checks composition by composition.
    """
    lam = check_partition(lam)
    mu = tuple(sorted((int(a) for a in mu if int(a)), reverse=True))
    if not is_k_bounded(lam, k):
        raise ValueError(f"{lam} is not {k}-bounded")
    if any(a < 0 or a > k for a in mu):
        raise ValueError(f"weight must be k-bounded and nonnegative: {mu}")
    if degree(lam) > sum(mu):
        return 0
    return weight_column(mu, k).get(lam, 0)


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
        return sorted((lam, mu, v) for mu, col in self.columns.items() for lam, v in col.items())


# per k, the matrix of the largest deg_max built or loaded in this process
_MATRICES: dict[int, KostkaMatrix] = {}


def build_affine_kostka(k: int, deg_max: int, cache_dir: str | None = None) -> KostkaMatrix:
    """Build (or load) the matrix of entries with |lam| <= |mu| <= deg_max."""
    if deg_max < 0:
        raise ValueError("deg_max must be nonnegative")
    matrix = _MATRICES.get(k)
    built = False
    if matrix is None or matrix.deg_max < deg_max:
        matrix = _load(k, deg_max, cache_dir) if cache_dir else None
        built = matrix is None
        if built:
            matrix = KostkaMatrix(k, deg_max, _all_columns(k, deg_max))
        _MATRICES[k] = matrix
    elif matrix.deg_max > deg_max:
        # |lam| <= |mu|, so the columns of the smaller weights are exact
        matrix = KostkaMatrix(k, deg_max, {
            mu: col for mu, col in matrix.columns.items() if degree(mu) <= deg_max
        })
    # a file that failed to load is replaced
    if cache_dir and (built or not os.path.exists(_cache_path(k, deg_max, cache_dir))):
        _save(matrix, cache_dir)
    return matrix


def _all_columns(k: int, deg_max: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Every column up to deg_max; by increasing degree, each read is one sweep step."""
    return {mu: sweep(mu, _affine_steps, k) for mu in k_bounded_up_to(deg_max, k)}


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
    # only a cache write needs tempfile, and importing it costs every process
    # a few milliseconds
    import tempfile

    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(matrix.k, matrix.deg_max, cache_dir)
    # the weights are all the k-bounded partitions of degree <= deg_max, so
    # their list indexes every shape too
    parts = sorted(matrix.columns)
    index = {lam: i for i, lam in enumerate(parts)}
    payload = {
        "format_version": FORMAT_VERSION,
        "k": matrix.k,
        "deg_max": matrix.deg_max,
        "partitions": parts,
        "columns": [
            [x for entry in sorted((index[lam], v) for lam, v in matrix.columns[mu].items())
             for x in entry]
            for mu in parts
        ],
    }
    # write-then-rename keeps readers away from partial files
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            # json.dumps runs the C encoder, json.dump never does; the bytes agree
            fh.write(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
