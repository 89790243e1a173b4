"""Affine set-valued Kostka numbers: memoized columns, bulk matrices, cache.

The numbers count tableaux of a given shape and weight; one dynamic-programming
sweep per weight produces a whole column at once, and a bulk matrix takes one
sweep step per weight over the prefix tree of the weights.  Bulk matrices are
persisted as versioned JSON, written atomically so concurrent readers never
see a torn file, and spot-checked when read back.
"""

from __future__ import annotations

import json
import os
from functools import cache

from .partitions import (
    Record,
    _set,
    check_partition,
    core_to_bounded,
    degree,
    is_k_bounded,
    k_bounded_up_to,
)
from .tableaux import _affine_steps, _walk_weights, kostka_column

FORMAT_VERSION = 1

# a loaded file's columns of weights up to this degree are compared with
# fresh sweeps, which stay a few short ones at any k
CHECKED_DEGREE = 3


@cache
def _column(mu: tuple[int, ...], k: int) -> dict[tuple[int, ...], int]:
    return kostka_column(mu, k)


def weight_column(mu: tuple[int, ...], k: int) -> dict[tuple[int, ...], int]:
    """All affine Kostka numbers of the k-bounded weight partition mu, keyed by shape.

    A matrix built or loaded in this process answers when it covers the
    weight; otherwise one sweep computes the column.  Callers must not mutate
    the result.
    """
    for (kk, bound), matrix in _MEMO.items():
        if kk == k and bound >= degree(mu):
            return matrix.columns.get(mu, {})
    return _column(mu, k)


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


_MEMO: dict[tuple[int, int], KostkaMatrix] = {}


def build_affine_kostka(k: int, deg_max: int, cache_dir: str | None = None) -> KostkaMatrix:
    """Build (or load) the matrix of entries with |lam| <= |mu| <= deg_max."""
    if deg_max < 0:
        raise ValueError("deg_max must be nonnegative")
    key = (k, deg_max)
    matrix = _MEMO.get(key)
    if matrix is None and cache_dir:
        matrix = _load(k, deg_max, cache_dir)
    built = matrix is None
    if built:
        matrix = KostkaMatrix(k, deg_max, _all_columns(k, deg_max))
    _MEMO[key] = matrix
    # a file that failed to load is replaced
    if cache_dir and (built or not os.path.exists(_cache_path(k, deg_max, cache_dir))):
        _save(matrix, cache_dir)
    return matrix


def _all_columns(k: int, deg_max: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """The column of every k-bounded weight of degree <= deg_max, in one walk."""
    return {
        mu: {core_to_bounded(shape, k): cnt for shape, cnt in states.items()}
        for mu, states in _walk_weights(deg_max, k, _affine_steps, k)
    }


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
        for lam, mu, v in data.get("entries", []):
            columns.setdefault(tuple(mu), {})[tuple(lam)] = int(v)
    except (TypeError, ValueError):
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
    payload = {
        "format_version": FORMAT_VERSION,
        "k": matrix.k,
        "deg_max": matrix.deg_max,
        "entries": matrix.entries,
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
