"""Affine set-valued Kostka numbers: memoized columns, bulk matrices, cache.

The numbers count tableaux of a given shape and weight.  A column is a read of
tableaux.sweep, whose memo of the states of every weight prefix swept is the
one in-process store of columns.  A bulk matrix, every column of the weights
up to deg_max, is one sweep over their prefix tree on int ids, the shapes'
indices in the cache file.  Each weight's column is one dense list over the
ids, summed from its parent's, whose nonzero entries come out in file order,
and each column it steps joins the memo.  A matrix loaded from a file joins
it too.  A column already held is kept either way, and later sweeps of
heavier weights advance from the matrix's columns.

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
from itertools import chain, compress

from .partitions import (
    Record,
    _set,
    bounded_to_core,
    check_bounded,
    check_composition,
    core_to_bounded,
    degree,
    k_bounded_up_to,
)
from .tableaux import _PREFIXES, _affine_ends, _affine_steps, kostka_column

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
    memo = _PREFIXES[(_affine_steps, (k,))]
    if loaded is not None:
        # the loaded columns join the sweep memo, where a column already swept is kept
        return KostkaMatrix(k, deg_max, {
            mu: memo.setdefault(mu, col) for mu, col in loaded.columns.items()
        })
    weights = k_bounded_up_to(deg_max, k)
    flats = [None] * len(weights) if cache_dir else None
    _sweep_numbered(k, deg_max, sorted(weights), memo, flats)
    matrix = KostkaMatrix(k, deg_max, {mu: memo[mu] for mu in weights})
    if cache_dir:
        _save(matrix, cache_dir, flats)
    return matrix


def _sweep_numbered(k: int, deg_max: int, parts: list, memo: dict, flats: list | None) -> None:
    """Sweep the weights in parts into the memo, and their flat lists into flats if given.

    A shape's id is its index in parts.  The weights go depth-first, each one
    block from its parent's column, held as ascending ids and their counts.
    Each (id, r) row, read once off the block walk, records its end cores and
    is kept as (end id, count) pairs.  A step sums the parent's rows into a
    dense vector over every id, whose nonzero entries are read off in id order.
    """
    id_of = {lam: i for i, lam in enumerate(parts)}
    every_id = range(len(parts))
    cores: dict[int, tuple[int, ...]] = {}
    rows: list[dict[int, tuple[tuple[int, int], ...]]] = [{} for _ in range(k + 1)]
    stack = [((), 0, None, None)]
    while stack:
        mu, n, ids, counts = stack.pop()
        if (col := memo.get(mu)) is None:
            r, row_of = mu[-1], rows[mu[-1]]
            out = [0] * len(parts)
            for i, c in zip(ids, counts):
                if (row := row_of.get(i)) is None:
                    ends = _affine_ends(cores.get(i) or bounded_to_core(parts[i], k).shape, r, k)
                    to = [id_of[core_to_bounded(g, k)] for g in ends]
                    row = row_of[i] = tuple(zip(to, ends.values()))
                    cores.update(zip(to, ends))
                for j, t in row:
                    out[j] += c * t
            ids = list(compress(every_id, out))
            counts = list(filter(None, out))
            memo.setdefault(mu, dict(zip(map(parts.__getitem__, ids), counts)))
        else:
            ids, counts = _numbered(col, id_of, parts)
        if flats is not None:
            flats[id_of[mu]] = _flat(ids, counts)
        top = min(mu[-1] if mu else k, deg_max - n)
        stack.extend((mu + (r,), n + r, ids, counts) for r in range(1, top + 1))


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
        # every part, index and count is an int, never a bool, float or string
        if len(flats) != len(parts) or not set(map(type, chain(*parts))) <= {int}:
            return None
        for mu, flat in zip(parts, flats):
            # a negative index would count from the end of the list; a count is positive
            if len(flat) % 2 or not set(map(type, flat)) <= {int} or (
                    flat and (min(flat[::2]) < 0 or min(flat[1::2]) < 1)):
                return None
            columns[mu] = dict(zip(map(parts.__getitem__, flat[::2]), flat[1::2]))
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


def _numbered(col: dict, id_of: dict, parts: list) -> tuple[list[int], list[int]]:
    """The ascending ids of a shape-keyed column's shapes, and their counts."""
    ids = sorted(map(id_of.__getitem__, col))
    return ids, list(map(col.__getitem__, map(parts.__getitem__, ids)))


def _flat(ids: list[int], counts) -> list[int]:
    """The [id, count, ...] list of ascending ids and their counts, filled by slices."""
    flat = [0] * (2 * len(ids))
    flat[::2] = ids
    flat[1::2] = counts
    return flat


def _save(matrix: KostkaMatrix, cache_dir: str, flats: list[list[int]] | None = None) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(matrix.k, matrix.deg_max, cache_dir)
    # the weights are all the k-bounded partitions of degree <= deg_max, so their
    # sorted list numbers every shape too; a build passes the flat lists it swept
    parts = sorted(matrix.columns)
    if flats is None:
        index_of = {lam: i for i, lam in enumerate(parts)}
        flats = [_flat(*_numbered(matrix.columns[mu], index_of, parts)) for mu in parts]
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
