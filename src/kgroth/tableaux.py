"""Set-valued fillings, affine set-valued strip transitions, strip chains and counting.

Affine set-valued tableaux are built as chains of affine set-valued strips,
which also serve every count.  For the bijection suite, a filling's standard
condition is checked literally and its weight conditions are read as one
table of valid letter blocks.  The strip sets are produced by applying
cyclically decreasing blocks of marked letters, one subset of residues per
block, through words._alive_blocks, the one block walk: each block's
letters step the shape tuple through partitions._corner_step.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from math import comb

from .partitions import (
    Cell,
    Core,
    Record,
    _set,
    bounded_to_core,
    check_bounded,
    check_composition,
    check_partition,
    conjugate,
    contains,
    core_to_bounded,
    degree,
    is_core,
    removable_corners,
    residue,
    skew_cells,
)
from .words import _alive_blocks


# ---------------------------------------------------------------------------
# fillings


class SetValuedFilling(Record):
    """A Ferrers shape whose cells hold nonempty sets of positive integers."""

    __slots__ = ("shape", "cells")

    def __init__(self, shape: tuple[int, ...], cells: dict[Cell, frozenset[int]]):
        shape = check_partition(shape)
        want = {(i, j) for i, row in enumerate(shape) for j in range(row)}
        got = set(cells)
        if want != got:
            raise ValueError(f"cells {sorted(got)} do not cover shape {shape}")
        norm = {}
        for c, letters in cells.items():
            letters = frozenset(int(v) for v in letters)
            if not letters or min(letters) < 1:
                raise ValueError(f"cell {c} must hold a nonempty set of positive letters")
            norm[c] = letters
        _set(self, "shape", shape)
        _set(self, "cells", norm)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetValuedFilling)
            and self.shape == other.shape
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash((self.shape, tuple(sorted((c, tuple(sorted(s))) for c, s in self.cells.items()))))

    def max_letter(self) -> int:
        return max((max(s) for s in self.cells.values()), default=0)

    def weight(self) -> tuple[int, ...]:
        """Multiplicity of each letter 1..max as a composition."""
        counts = [0] * self.max_letter()
        for s in self.cells.values():
            for v in s:
                counts[v - 1] += 1
        return tuple(counts)

    def cells_with(self, letters) -> list[Cell]:
        wanted = set(letters)
        return sorted(c for c, s in self.cells.items() if s & wanted)

    def restricted_shape(self, x: int) -> tuple[int, ...] | None:
        """Shape of the subtableau keeping letters <= x, or None if not a shape."""
        kept = {c for c, s in self.cells.items() if min(s) <= x}
        return shape_of_cells(kept)

    def to_json_dict(self) -> dict:
        return {
            "shape": list(self.shape),
            "cells": [
                {"row": c[0], "col": c[1], "letters": sorted(self.cells[c])}
                for c in sorted(self.cells)
            ],
        }

    def render(self, k: int | None = None, show_residues: bool = False) -> str:
        """French display, bottom row last; optional residue subscripts."""
        if not self.shape:
            return "(empty)"
        texts = {}
        for c, s in self.cells.items():
            t = "{" + ",".join(str(v) for v in sorted(s)) + "}"
            if show_residues and k is not None:
                t += f"_{residue(c, k)}"
            texts[c] = t
        width = max(len(t) for t in texts.values())
        lines = []
        for i in range(len(self.shape) - 1, -1, -1):
            lines.append(" ".join(texts[(i, j)].ljust(width) for j in range(self.shape[i])).rstrip())
        return "\n".join(lines)


def shape_of_cells(cellset) -> tuple[int, ...] | None:
    """The partition a left-justified cell set spells, or None."""
    if not cellset:
        return ()
    rows: dict[int, set[int]] = {}
    for i, j in cellset:
        rows.setdefault(i, set()).add(j)
    nrows = max(rows) + 1
    lengths = []
    for i in range(nrows):
        cols = rows.get(i, set())
        if cols != set(range(len(cols))):
            return None
        lengths.append(len(cols))
    if any(v == 0 for v in lengths):
        return None
    if any(lengths[i] < lengths[i + 1] for i in range(nrows - 1)):
        return None
    return tuple(lengths)


def is_classical_set_valued(t: SetValuedFilling) -> bool:
    """Semistandard set-valued condition: weak along rows, strict up columns."""
    for (i, j), s in t.cells.items():
        east = t.cells.get((i, j + 1))
        if east is not None and max(s) > min(east):
            return False
        north = t.cells.get((i + 1, j))
        if north is not None and max(s) >= min(north):
            return False
    return True


def lowest_reading_word(t: SetValuedFilling, alphabet) -> tuple[int, ...]:
    """Read the lowest occurrence of each alphabet letter, top rows first.

    Within a row cells are read left to right and letters sharing a cell in
    decreasing order.
    """
    chosen: dict[Cell, list[int]] = {}
    for a in alphabet:
        spots = [c for c, s in t.cells.items() if a in s]
        if not spots:
            continue
        cell = min(spots)
        chosen.setdefault(cell, []).append(a)
    word: list[int] = []
    for cell in sorted(chosen, key=lambda c: (-c[0], c[1])):
        word.extend(sorted(chosen[cell], reverse=True))
    return tuple(word)


def is_standard_affine_sv(t: SetValuedFilling, k: int) -> bool:
    """Literal check of the standard condition, letter by letter.

    Each letter x must sit in exactly the removable corners of one residue
    of the shape restricted to letters <= x, and every restricted shape must
    be a core.
    """
    if not is_classical_set_valued(t):
        return False
    n = t.max_letter()
    if t.shape and n == 0:
        return False
    weight = t.weight() if n else ()
    if any(v == 0 for v in weight):
        return False
    for x in range(1, n + 1):
        shape_x = t.restricted_shape(x)
        if shape_x is None or not is_core(shape_x, k):
            return False
        spots = t.cells_with([x])
        residues = {residue(c, k) for c in spots}
        if len(residues) != 1:
            return False
        i = residues.pop()
        corner_set = {c for c in removable_corners(shape_x) if residue(c, k) == i}
        if set(spots) != corner_set:
            return False
    return True


def valid_blocks(t: SetValuedFilling, k: int) -> set[tuple[int, int]]:
    """The letter intervals [a, b) of t that a weight may take as one block.

    An interval qualifies when it holds at most k letters, read in increasing
    order by the lowest reading word, on distinct residues and in distinct
    columns.  A composition of a standard t's letters is a weight of t exactly
    when each of its blocks is in this table.
    """
    n = t.max_letter()
    table = set()
    for a in range(1, n + 1):
        for b in range(a + 1, min(a + k, n + 1) + 1):
            word = lowest_reading_word(t, range(a, b))
            spots = t.cells_with(range(a, b))
            if (list(word) == sorted(word) and len({residue(c, k) for c in spots}) == b - a
                    and len({c[1] for c in spots}) == len(spots)):
                table.add((a, b))
    return table


# ---------------------------------------------------------------------------
# strips


def gamma_blocked(cell: Cell, gamma: tuple[int, ...]) -> bool:
    """True when the cell lies directly below a cell of gamma."""
    i, j = cell
    return i + 1 < len(gamma) and gamma[i + 1] > j


@cache
def _strip_transitions(beta_shape: tuple[int, ...], r: int, k: int):
    """All (gamma_shape, rho) reachable from beta by one marked block of size r."""
    Core(beta_shape, k)  # rejects a shape that is not a (k+1)-core
    out = []
    for gamma, touched, _ in _alive_blocks(beta_shape, r, k):
        rows = list(gamma)
        for row, _ in touched:
            rows[row] -= 1
        out.append((gamma, tuple(v for v in rows if v > 0)))
    out.sort()
    return tuple(out)


def _vertical_transitions(beta_shape: tuple[int, ...], r: int, k: int):
    """The strip transitions of the conjugate core, each (gamma, rho) conjugated back, sorted.

    The conjugate of a (k+1)-core is one, so this is the transport of the
    row strips through the k-conjugation, on shape tuples.
    """
    return sorted(
        (conjugate(gamma), conjugate(rho))
        for gamma, rho in _strip_transitions(conjugate(beta_shape), r, k)
    )


def enumerate_sv_strips(beta: Core, r: int) -> list[tuple[Core, tuple[int, ...]]]:
    """The multiset of affine set-valued r-strips that can be added to beta.

    Pairs are keyed by (gamma, rho); equal gamma with distinct rho count
    separately, which is what gives Pieri coefficients beyond +-1.
    """
    if not 0 <= r <= beta.k:
        raise ValueError(f"strip size must lie in [0, {beta.k}]: {r}")
    return [(Core(g, beta.k), rho) for g, rho in _strip_transitions(beta.shape, r, beta.k)]


def enumerate_sv_strips_vertical(beta: Core, r: int) -> list[tuple[Core, tuple[int, ...]]]:
    """Conjugate transport of enumerate_sv_strips through the k-conjugation."""
    if not 0 <= r <= beta.k:
        raise ValueError(f"strip size must lie in [0, {beta.k}]: {r}")
    return [(Core(g, beta.k), rho) for g, rho in _vertical_transitions(beta.shape, r, beta.k)]


# ---------------------------------------------------------------------------
# strip chains and enumeration


class StripChain(Record):
    """A chain of (shape, rho) pairs encoding an affine set-valued tableau."""

    __slots__ = ("k", "steps")

    def __init__(self, k: int, steps: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]):
        _set(self, "k", k)
        _set(self, "steps", steps)

    def final_shape(self) -> tuple[int, ...]:
        return self.steps[-1][0] if self.steps else ()

    def to_filling(self, alpha) -> SetValuedFilling:
        """Fill the chain with letters, rightmost residue getting the top letter."""
        sizes = [int(a) for a in alpha if int(a)]
        if len(sizes) != len(self.steps):
            raise ValueError("composition length does not match the chain")
        cellmap: dict[Cell, set[int]] = {}
        prefix = 0
        for (gshape, rho), a in zip(self.steps, sizes):
            # the strip's cells by residue, in order of their rightmost column
            groups: dict[int, list[Cell]] = {}
            for cell in sorted(skew_cells(gshape, rho), key=lambda c: -c[1]):
                groups.setdefault(residue(cell, self.k), []).append(cell)
            if len(groups) != a:
                raise ValueError("strip does not carry exactly its weight in residues")
            for letter, cells in zip(range(prefix + a, prefix, -1), groups.values()):
                for c in cells:
                    cellmap.setdefault(c, set()).add(letter)
            prefix += a
        shape = self.final_shape()
        return SetValuedFilling(shape, {c: frozenset(v) for c, v in cellmap.items()})


def enumerate_tableaux(lam, alpha, k: int) -> list[StripChain]:
    """All strip chains from the empty core to lam's core with sizes alpha."""
    lam = check_bounded(lam, k)
    sizes = check_composition(alpha, k)
    target = Core.from_bounded(lam, k).shape
    n = degree(lam)
    chains: list[StripChain] = []
    # an explicit stack, so a long weight cannot reach the recursion limit
    stack = [(0, (), ())]
    while stack:
        pos, shape, acc = stack.pop()
        if pos == len(sizes):
            if shape == target:
                chains.append(StripChain(k, acc))
            continue
        rest = sum(sizes[pos + 1:])
        for gshape, rho in _strip_transitions(shape, sizes[pos], k):
            if not contains(target, gshape):
                continue
            size = degree(core_to_bounded(gshape, k))
            if size > n or size + rest < n:
                continue
            stack.append((pos + 1, gshape, acc + ((gshape, rho),)))
    chains.sort(key=lambda ch: ch.steps)
    return chains


# ---------------------------------------------------------------------------
# counting
#
# Every count is a sweep: states map a shape to an integer coefficient, and
# step(shape, r, *args) gives the (shape', multiplicity) pairs one block of r
# letters reaches.  Each tableau family has its own step, and sweep() serves
# every column of every family: a column is the states after its weight.
# The affine step counts the end cores of _alive_blocks, the walk the strip
# transitions share, and marks no cells: a count never reads rho.
# The same engine folds the images of the inhomogeneous conjugation, whose
# step multiplies an h-term by the image of one generator.


def _advance(states: dict[tuple[int, ...], int], r: int, step, *args) -> dict[tuple[int, ...], int]:
    """One sweep step: add a block of r letters to every counted shape."""
    nxt: dict[tuple[int, ...], int] = {}
    get = nxt.get
    for shape, cnt in states.items():
        for gshape, mult in step(shape, r, *args):
            nxt[gshape] = get(gshape, 0) + cnt * mult
    return nxt


# per (step, args), the states after every partition prefix swept or loaded
_PREFIXES: dict[tuple, dict[tuple[int, ...], dict[tuple[int, ...], int]]] = defaultdict(
    lambda: {(): {(): 1}})


def sweep(mu, step, *args) -> dict[tuple[int, ...], int]:
    """The states after one block of letters per nonzero part of mu, in order.

    The states of every partition prefix of a weight are kept, so a read
    advances from the longest prefix already swept.  The parts after the
    first ascent of a composition are swept afresh and not kept: only the
    symmetry check reads such weights.  Callers must not mutate the result.
    """
    memo = _PREFIXES[(step, args)]
    # a kept weight reads back in one lookup; lists and zero-padded weights walk
    states = memo.get(mu) if type(mu) is tuple else None
    if states is not None:
        return states
    parts = tuple(int(a) for a in mu if int(a))
    kept = min(1, len(parts))
    while kept < len(parts) and parts[kept] <= parts[kept - 1]:
        kept += 1
    done = kept
    while parts[:done] not in memo:
        done -= 1
    states = memo[parts[:done]]
    for i in range(done, len(parts)):
        states = _advance(states, parts[i], step, *args)
        if i < kept:
            memo[parts[:i + 1]] = states
    return states


@cache
def _affine_steps(shape: tuple[int, ...], r: int, k: int):
    """(gamma, count) pairs: the affine set-valued r-strips on the core of the k-bounded shape."""
    # bounded_to_core has checked the core, so the walk starts from it unchecked
    out: dict[tuple[int, ...], int] = {}
    for gshape, _, _ in _alive_blocks(bounded_to_core(shape, k).shape, r, k):
        gamma = core_to_bounded(gshape, k)
        out[gamma] = out.get(gamma, 0) + 1
    return tuple(out.items())


def count_kostka(lam, alpha, k: int) -> int:
    """Number of affine set-valued tableaux of shape c(lam) and weight alpha."""
    lam = check_bounded(lam, k)
    sizes = check_composition(alpha, k)
    if sum(sizes) < degree(lam):
        return 0
    # pruned to the shapes inside the target's core, far fewer than a column
    target = bounded_to_core(lam, k).shape
    n = degree(lam)
    budget = sum(sizes)
    states = {(): 1}
    for r in sizes:
        budget -= r
        states = {
            gamma: cnt
            for gamma, cnt in _advance(states, r, _affine_steps, k).items()
            if n - budget <= degree(gamma) <= n
            and contains(target, bounded_to_core(gamma, k).shape)
        }
    return states.get(lam, 0)


# a named read of sweep(), which the traced benchmark run counts per call
def kostka_column(mu, k: int) -> dict[tuple[int, ...], int]:
    """All affine Kostka numbers of weight mu at once, keyed by shape; do not mutate."""
    return sweep(mu, _affine_steps, k)


# classical (large-k) counterparts ------------------------------------------


@cache
def _horizontal_strips(beta: tuple[int, ...], r: int):
    """(gamma, 1) pairs, gamma increasing: gamma/beta a horizontal strip of exactly r cells."""
    rows = len(beta)
    out = []
    # an explicit stack; row i grows by at most the overhang of row i-1 (row 0
    # freely), and the cells left over open a row no longer than beta's last
    stack = [(0, r, ())]
    while stack:
        i, left, acc = stack.pop()
        if i == rows:
            if not left:
                out.append((acc, 1))
            elif left <= (beta[-1] if beta else r):
                out.append((acc + (left,), 1))
            continue
        room = left if i == 0 else min(left, beta[i - 1] - beta[i])
        # the smallest growth is pushed last and so comes out first
        stack.extend((i + 1, left - g, acc + (beta[i] + g,)) for g in range(room, -1, -1))
    return tuple(out)


@cache
def _classical_sv_transitions(beta: tuple[int, ...], r: int):
    """(gamma, multiplicity) pairs for one classical set-valued r-strip."""
    corners = removable_corners(beta)
    out = []
    for new in range(r + 1):
        for gamma, _ in _horizontal_strips(beta, new):
            mult = comb(sum(1 for c in corners if not gamma_blocked(c, gamma)), r - new)
            if mult:
                out.append((gamma, mult))
    out.sort()
    return tuple(out)


# a public count and a traced name, so it stays a read of its column
def count_classical_kostka(lam, alpha) -> int:
    """Number of classical set-valued tableaux of shape lam and weight alpha."""
    lam = check_partition(lam)
    if any(int(a) < 0 for a in alpha):
        raise ValueError(f"composition parts must be nonnegative: {alpha}")
    return classical_kostka_column(alpha).get(lam, 0)


# a named read of sweep(), which the traced benchmark run counts per call
def classical_kostka_column(mu) -> dict[tuple[int, ...], int]:
    """All classical set-valued Kostka numbers of weight mu, keyed by shape; do not mutate."""
    return sweep(mu, _classical_sv_transitions)


# a public count and a traced name, so it stays a read of its column
def count_semistandard(lam, mu) -> int:
    """Classical Kostka number: semistandard tableaux of shape lam, weight mu.

    Rearranging the weight never changes the count.
    """
    lam = check_partition(lam)
    weight = tuple(sorted((int(a) for a in mu if int(a)), reverse=True))
    return sweep(weight, _horizontal_strips).get(lam, 0)
