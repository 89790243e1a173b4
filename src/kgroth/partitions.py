"""Partitions, Ferrers geometry, (k+1)-cores and the core/bounded bijection.

Partitions are plain tuples of weakly decreasing positive integers, empty
tuple for the empty partition.  Cells are 0-indexed pairs (row, col) with
row counted from the bottom and col from the left, so the residue of a cell
is (col - row) mod (k+1) with zeros on the main diagonal.
"""

from __future__ import annotations

from functools import cache
from operator import add

Cell = tuple[int, int]

# the records below set their fields once, in __init__, past their own __setattr__
_set = object.__setattr__


class Record:
    """Base of the package's immutable value classes.

    Subclasses list their fields in __slots__ and set them in __init__ with
    _set.  A record compares equal to another of its exact class with the same
    _key() and hashes as hash(_key()), the tuple of its fields unless a
    subclass narrows it; its repr names every field.  Assigning or deleting an
    attribute raises AttributeError.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


def check_partition(parts) -> tuple[int, ...]:
    """Normalize an iterable to a partition tuple, rejecting bad input."""
    lam = tuple(map(int, parts))
    if lam and min(lam) <= 0:
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(map(int.__lt__, lam, lam[1:])):
        raise ValueError(f"partition parts must weakly decrease: {lam}")
    return lam


def degree(lam: tuple[int, ...]) -> int:
    return sum(lam)


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths of lam; an involution.

    One walk in O(lam[0] + len(lam)): column j is as long as the number of
    rows longer than j, and that count only shrinks as j grows.
    """
    out = []
    rows = len(lam)
    for j in range(lam[0] if lam else 0):
        while lam[rows - 1] <= j:
            rows -= 1
        out.append(rows)
    return tuple(out)


def contains(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """True iff mu fits inside lam row by row."""
    if len(mu) > len(lam):
        return False
    return all(lam[i] >= mu[i] for i in range(len(mu)))


def dominates(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """Dominance order: equal degree and partial sums of lam weakly exceed mu's."""
    if degree(lam) != degree(mu):
        return False
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def main_hook(lam: tuple[int, ...]) -> int:
    """Hook length of the corner cell (0,0); 0 for the empty shape."""
    if not lam:
        return 0
    return lam[0] + len(lam) - 1


def removable_corners(lam: tuple[int, ...]) -> list[Cell]:
    """Cells whose removal keeps a partition shape, bottom row first."""
    out = []
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i + 1] < lam[i]:
            out.append((i, lam[i] - 1))
    return out


def skew_cells(gamma: tuple[int, ...], rho: tuple[int, ...]) -> list[Cell]:
    """Cells of gamma/rho; rho must be contained in gamma."""
    if not contains(gamma, rho):
        raise ValueError(f"{rho} is not contained in {gamma}")
    out = []
    for i, row in enumerate(gamma):
        lo = rho[i] if i < len(rho) else 0
        out.extend((i, j) for j in range(lo, row))
    return out


def residue(cell: Cell, k: int) -> int:
    """(col - row) mod (k+1)."""
    i, j = cell
    return (j - i) % (k + 1)


def is_core(lam: tuple[int, ...], k: int) -> bool:
    """True iff no cell of lam has hook length exactly k+1.

    The abacus test, one step per row: the first-column hook lengths are
    distinct, and a cell of hook length k+1 exists exactly when one of them,
    h >= k+1, has h-(k+1) missing from the set.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p = k + 1
    beads = set(map(add, lam, range(len(lam) - 1, -1, -1)))
    return all(h - p in beads for h in beads if h >= p)


def is_k_bounded(lam: tuple[int, ...], k: int) -> bool:
    return not lam or lam[0] <= k


def check_bounded(parts, k: int) -> tuple[int, ...]:
    """check_partition, also rejecting a partition with a part above k."""
    lam = check_partition(parts)
    if not is_k_bounded(lam, k):
        raise ValueError(f"{lam} is not {k}-bounded")
    return lam


def check_composition(alpha, k: int) -> tuple[int, ...]:
    """The nonzero parts of alpha, which must all lie in [0, k]."""
    parts = tuple(int(a) for a in alpha if int(a))
    if any(a < 0 or a > k for a in parts):
        raise ValueError(f"composition must be k-bounded and nonnegative: {alpha}")
    return parts


def _check_core(shape, k: int) -> tuple[int, ...]:
    """The partition tuple of shape, which must be a (k+1)-core with k >= 1."""
    shape = check_partition(shape)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not is_core(shape, k):
        raise ValueError(f"{shape} is not a {k + 1}-core")
    return shape


@cache
def _corner_step(shape: tuple[int, ...], k: int, i: int) -> tuple[tuple[int, ...], tuple[Cell, ...]]:
    """The corner step of letter i on a (k+1)-core: the shape after it and the cells it touches.

    Adds every addable i-corner when there is one; otherwise the shape stays
    and its removable i-corners are marked.  No touched cell means there is
    neither kind of i-corner: the letter is dead on this core.  Cells come
    bottom row first.  This is the one letter rule: bounded_to_core, word
    evaluation and the block walk behind the strip transitions and the
    factorizations all step shape tuples through it.
    """
    p = k + 1
    i %= p
    n = len(shape)
    # the addable corners of residue i, then (when there are none) the removable ones
    added = [(r, c) for r, c in enumerate(shape)
             if (c - r) % p == i and (r == 0 or shape[r - 1] > c)]
    if -n % p == i:
        added.append((n, 0))
    if added:
        # distinct addable corners, at most one per row: each grows its row by one
        rows = [*shape, 0]
        for r, _ in added:
            rows[r] += 1
        return tuple(filter(None, rows)), tuple(added)
    return shape, tuple((r, c - 1) for r, c in enumerate(shape)
                        if (c - 1 - r) % p == i and (r == n - 1 or shape[r + 1] < c))


# Most cores are built by the library itself, from tuples, and the same few
# shapes recur across the sweeps, so the check is memoized per (shape, k).
_check_core_tuple = cache(_check_core)


class Core(Record):
    """A (k+1)-core: partition shape with no hook of length k+1.

    Construction validates the hook condition, so a Core value is always a
    genuine core of its level.
    """

    __slots__ = ("shape", "k")

    def __init__(self, shape: tuple[int, ...], k: int):
        if type(shape) is tuple:
            shape = _check_core_tuple(shape, k)
        else:
            shape = _check_core(shape, k)
        _set(self, "shape", shape)
        _set(self, "k", k)

    def to_bounded(self) -> tuple[int, ...]:
        """The bijection onto k-bounded partitions: delete all hooks above k."""
        return core_to_bounded(self.shape, self.k)

    @staticmethod
    def from_bounded(lam: tuple[int, ...], k: int) -> "Core":
        return bounded_to_core(check_partition(lam), k)

    def conjugate(self) -> "Core":
        return Core(conjugate(self.shape), self.k)


@cache
def core_to_bounded(shape: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Row lengths surviving after deleting all cells of hook length > k.

    Hooks strictly grow from right to left along a row, so each row is read
    from its right end up to the first hook above k; that hook being k+1
    is the one way the shape can fail to be a (k+1)-core.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    conj = conjugate(shape)
    rows = []
    for i, row in enumerate(shape):
        j = row - 1
        while j >= 0 and (hook := row - j + conj[j] - i - 1) <= k:
            j -= 1
        if j >= 0 and hook == k + 1:
            raise ValueError(f"{shape} is not a {k + 1}-core")
        rows.append(row - 1 - j)
    lam = tuple(v for v in rows if v > 0)
    # the survivors of a core always read as a partition
    assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)), shape
    return lam


@cache
def bounded_to_core(lam: tuple[int, ...], k: int) -> Core:
    """Inverse bijection, built by adding residue corners along lam's word.

    The residues of lam are read right to left, top row down; applying the
    corner-adding operators in that order to the empty core rebuilds the
    (k+1)-core whose k-bounded image is lam.  The steps run on plain shapes,
    and the result is checked once.
    """
    if not is_k_bounded(lam, k):
        raise ValueError(f"{lam} is not {k}-bounded")
    shape: tuple[int, ...] = ()
    for i in reversed(residue_word(lam, k)):
        shape = _corner_step(shape, k, i)[0]
    return Core(shape, k)


def residue_word(lam: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Residues of the cells of lam, rows top to bottom, right to left.

    The rightmost letter corresponds to the cell (0,0) and is applied first
    when the word is evaluated.
    """
    # row i reads the residues descending from that of its last cell, a slice
    # of the descending cycle k, k-1, ..., 0, k, ... long enough for any row
    cycle = tuple(range(k, -1, -1)) * (max(lam, default=0) // (k + 1) + 2)
    letters: list[int] = []
    for i in range(len(lam) - 1, -1, -1):
        start = k - (lam[i] - 1 - i) % (k + 1)
        letters += cycle[start:start + lam[i]]
    return tuple(letters)


def k_conjugate(lam: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Bounded image of the conjugated core; an involution on k-bounded shapes."""
    return bounded_to_core(lam, k).conjugate().to_bounded()


def k_bounded_partitions(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-bounded partitions of n, lexicographically decreasing."""
    return list(_k_bounded_partitions(n, k))


@cache
def _k_bounded_partitions(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    # a depth-first walk on an explicit stack, so no size reaches the recursion
    # limit; the largest next part is pushed last and so comes out first
    out: list[tuple[int, ...]] = []
    stack = [(n, k, ())]
    while stack:
        remaining, maxpart, prefix = stack.pop()
        if remaining == 0:
            out.append(prefix)
            continue
        for part in range(1, min(remaining, maxpart) + 1):
            stack.append((remaining - part, part, prefix + (part,)))
    return tuple(out)


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n (no part bound)."""
    return k_bounded_partitions(n, n if n else 1)


def k_bounded_up_to(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-bounded partitions of degree <= n, by increasing degree."""
    return [lam for d in range(n + 1) for lam in k_bounded_partitions(d, k)]
