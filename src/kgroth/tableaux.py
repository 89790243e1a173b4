"""Set-valued fillings, affine strips, strip chains and tableau counting.

Two independent constructions of the same tableau family live here: chains
of affine set-valued strips (the production path, also used for counting)
and the literal definition checker used as an oracle.  The strip sets are
produced by applying cyclically decreasing blocks of marked letters, one
subset of residues per block: each block's letters, cached per block size,
step the shape tuple through partitions._corner_step, the letter rule that
Core.act wraps.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb

from .partitions import (
    Cell,
    Core,
    Record,
    _corner_step,
    _set,
    add_cells,
    addable_corners,
    bounded_to_core,
    check_partition,
    conjugate,
    contains,
    core_to_bounded,
    degree,
    is_core,
    is_horizontal_strip,
    is_k_bounded,
    removable_corners,
    residue,
    skew_cells,
)
from .words import cyclically_decreasing_word


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


def alphabet_blocks(alpha) -> list[range]:
    """Consecutive letter intervals of sizes alpha (zero parts skipped)."""
    blocks = []
    lo = 1
    for a in alpha:
        a = int(a)
        if a < 0:
            raise ValueError(f"negative part in composition {alpha}")
        blocks.append(range(lo, lo + a))
        lo += a
    return [b for b in blocks if len(b)]


def is_affine_sv_tableau(t: SetValuedFilling, alpha, k: int) -> bool:
    """Direct-definition oracle for affine set-valued tableaux of weight alpha."""
    return fits_affine_sv_blocks(t, alpha, k) and is_standard_affine_sv(t, k)


def fits_affine_sv_blocks(t: SetValuedFilling, alpha, k: int) -> bool:
    """The conditions that weight alpha adds to the standard ones.

    Each block of letters holds at most k letters, read in increasing order
    by the lowest reading word, on distinct residues and in distinct columns;
    the blocks use up the letters of t.
    """
    blocks = alphabet_blocks(alpha)
    n = sum(len(b) for b in blocks)
    if any(len(b) > k for b in blocks):
        return False
    if t.max_letter() != n:
        return False
    for block in blocks:
        word = lowest_reading_word(t, block)
        if list(word) != sorted(word):
            return False
        spots = t.cells_with(block)
        if len({residue(c, k) for c in spots}) != len(block):
            return False
        cols = [c[1] for c in spots]
        if len(cols) != len(set(cols)):
            return False
    return True


def is_k_tableau(t: SetValuedFilling, k: int) -> bool:
    """Singleton semistandard filling of a core whose residue counts fill its size."""
    if any(len(s) != 1 for s in t.cells.values()):
        return False
    if not is_classical_set_valued(t):
        return False
    if not is_core(t.shape, k):
        return False
    n = t.max_letter()
    if any(v == 0 for v in t.weight()):
        return False
    total = 0
    for x in range(1, n + 1):
        total += len({residue(c, k) for c in t.cells_with([x])})
    return total == degree(core_to_bounded(t.shape, k))


def k_tableau_weight(t: SetValuedFilling, k: int) -> tuple[int, ...]:
    """Distinct-residue count of each letter; the weight of a k-tableau."""
    return tuple(
        len({residue(c, k) for c in t.cells_with([x])}) for x in range(1, t.max_letter() + 1)
    )


# ---------------------------------------------------------------------------
# strips


def is_affine_strip(gamma: Core, beta: Core, r: int) -> bool:
    """Horizontal skew of cores gaining r in size and occupying r residues."""
    if gamma.k != beta.k:
        raise ValueError("cores must share a level")
    if not contains(gamma.shape, beta.shape):
        return False
    if not is_horizontal_strip(gamma.shape, beta.shape):
        return False
    if gamma.size() - beta.size() != r:
        return False
    residues = {gamma.residue(c) for c in skew_cells(gamma.shape, beta.shape)}
    return len(residues) == r


def gamma_blocked(cell: Cell, gamma: tuple[int, ...]) -> bool:
    """True when the cell lies directly below a cell of gamma."""
    i, j = cell
    return i + 1 < len(gamma) and gamma[i + 1] > j


class AffineSVStrip(Record):
    """The pair (gamma/beta, rho) datum of an affine set-valued r-strip."""

    __slots__ = ("gamma", "beta", "rho", "r")

    def __init__(self, gamma: Core, beta: Core, rho: tuple[int, ...], r: int):
        rho = check_partition(rho)
        if gamma.k != beta.k:
            raise ValueError("cores must share a level")
        _set(self, "gamma", gamma)
        _set(self, "beta", beta)
        _set(self, "rho", rho)
        _set(self, "r", r)


def is_affine_sv_strip(s: AffineSVStrip) -> bool:
    """Verify the three defining conditions literally."""
    gamma, beta, rho, r = s.gamma.shape, s.beta.shape, s.rho, s.r
    k = s.gamma.k
    if not (contains(beta, rho) and contains(gamma, beta)):
        return False
    if not (0 <= r <= k):
        return False
    # asv1: gamma/rho horizontal
    if not is_horizontal_strip(gamma, rho):
        return False
    inner = skew_cells(beta, rho)
    m = len({residue(c, k) for c in inner})
    # asv2: gamma/beta is an affine (r - m)-strip
    if not is_affine_strip(s.gamma, s.beta, r - m):
        return False
    # asv3: beta/rho consists of removable corners, closed per residue over
    # the non-blocked ones
    removables = set(removable_corners(beta))
    if not set(inner) <= removables:
        return False
    inner_residues = {residue(c, k) for c in inner}
    for c in removables:
        i = residue(c, k)
        if i in inner_residues and not gamma_blocked(c, gamma) and c not in inner:
            return False
    return True


@cache
def _block_letters(r: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The letters of the block on every r-subset of [0, k], in evaluation order.

    Subsets come in combinations order; each block's letters are those of
    its cyclically decreasing word, rightmost first.
    """
    return tuple(
        cyclically_decreasing_word(subset, k).letters[::-1]
        for subset in combinations(range(k + 1), r)
    )


@cache
def _strip_transitions(beta_shape: tuple[int, ...], r: int, k: int):
    """All (gamma_shape, rho) reachable from beta by one marked block of size r."""
    Core(beta_shape, k)  # rejects a shape that is not a (k+1)-core
    if r == 0:
        return ((beta_shape, beta_shape),)
    out = []
    for letters in _block_letters(r, k):
        gamma = beta_shape
        touched: list[Cell] = []
        for i in letters:
            gamma, cells = _corner_step(gamma, k, i)
            if not cells:
                break
            touched.extend(cells)
        else:
            rows = list(gamma)
            for row, _ in touched:
                rows[row] -= 1
            out.append((gamma, tuple(v for v in rows if v > 0)))
    out.sort()
    return tuple(out)


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
    out = [
        (gamma.conjugate(), conjugate(rho))
        for gamma, rho in enumerate_sv_strips(beta.conjugate(), r)
    ]
    out.sort(key=lambda p: (p[0].shape, p[1]))
    return out


def peel_sv_strip(s: AffineSVStrip) -> AffineSVStrip:
    """One peeling step: strip off the residue of the rightmost cell.

    Removes the gamma-removable corners of that residue when it came from
    gamma/beta, otherwise grows rho by its addable corners of that residue.
    """
    if s.r <= 0:
        raise ValueError("nothing to peel from an empty strip")
    k = s.gamma.k
    strip_cells = skew_cells(s.gamma.shape, s.rho)
    cell = max(strip_cells, key=lambda c: c[1])
    i = residue(cell, k)
    outer = {residue(c, k) for c in skew_cells(s.gamma.shape, s.beta.shape)}
    if i in outer:
        removed = s.gamma.removable_of_residue(i)
        rows = list(s.gamma.shape)
        for row, _ in removed:
            rows[row] -= 1
        gamma = Core(tuple(v for v in rows if v > 0), k)
        return AffineSVStrip(gamma, s.beta, s.rho, s.r - 1)
    grown = [c for c in addable_corners(s.rho) if residue(c, k) == i]
    rho = add_cells(s.rho, grown)
    return AffineSVStrip(s.gamma, s.beta, rho, s.r - 1)


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

    def is_valid(self, alpha) -> bool:
        sizes = [int(a) for a in alpha if int(a)]
        if len(sizes) != len(self.steps):
            return False
        prev = Core((), self.k)
        for (gshape, rho), r in zip(self.steps, sizes):
            s = AffineSVStrip(Core(gshape, self.k), prev, rho, r)
            if not is_affine_sv_strip(s):
                return False
            prev = Core(gshape, self.k)
        return True

    def to_filling(self, alpha) -> SetValuedFilling:
        """Fill the chain with letters, rightmost residue getting the top letter."""
        sizes = [int(a) for a in alpha if int(a)]
        if len(sizes) != len(self.steps):
            raise ValueError("composition length does not match the chain")
        cellmap: dict[Cell, set[int]] = {}
        prefix = 0
        for (gshape, rho), a in zip(self.steps, sizes):
            strip = skew_cells(gshape, rho)
            unfilled = set(strip)
            letter = prefix + a
            while unfilled:
                cell = max(unfilled, key=lambda c: c[1])
                i = residue(cell, self.k)
                for c in strip:
                    if residue(c, self.k) == i:
                        cellmap.setdefault(c, set()).add(letter)
                        unfilled.discard(c)
                letter -= 1
            if letter != prefix:
                raise ValueError("strip does not carry exactly its weight in residues")
            prefix += a
        shape = self.final_shape()
        return SetValuedFilling(shape, {c: frozenset(v) for c, v in cellmap.items()})


def compress_filling(t: SetValuedFilling, alpha) -> SetValuedFilling:
    """Replace the letters of each alphabet block by the block index."""
    blocks = alphabet_blocks(alpha)
    to_block = {a: x for x, block in enumerate(blocks, start=1) for a in block}
    return SetValuedFilling(
        t.shape, {c: frozenset(to_block[v] for v in s) for c, s in t.cells.items()}
    )


def enumerate_tableaux(lam, alpha, k: int) -> list[StripChain]:
    """All strip chains from the empty core to lam's core with sizes alpha."""
    lam = check_partition(lam)
    if not is_k_bounded(lam, k):
        raise ValueError(f"{lam} is not {k}-bounded")
    sizes = [int(a) for a in alpha if int(a)]
    if any(a < 0 or a > k for a in sizes):
        raise ValueError(f"composition must be k-bounded and nonnegative: {alpha}")
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
# Every count is a sweep: states map a shape to its number of fillings, and
# step(shape, r, *args) gives the (shape', multiplicity) pairs one block of r
# letters reaches.  Each tableau family has its own step, and sweep() serves
# every column of every family: a column is the states after its weight.


def _advance(states: dict[tuple[int, ...], int], r: int, step, *args) -> dict[tuple[int, ...], int]:
    """One sweep step: add a block of r letters to every counted shape."""
    nxt: dict[tuple[int, ...], int] = {}
    for shape, cnt in states.items():
        for gshape, mult in step(shape, r, *args):
            nxt[gshape] = nxt.get(gshape, 0) + cnt * mult
    return nxt


# per (step, args), the states after every partition prefix swept so far
_PREFIXES: dict[tuple, dict[tuple[int, ...], dict[tuple[int, ...], int]]] = {}


def sweep(mu, step, *args) -> dict[tuple[int, ...], int]:
    """The states after one block of letters per nonzero part of mu, in order.

    The states of every partition prefix of a weight are kept, so a read
    advances from the longest prefix already swept.  The parts after the
    first ascent of a composition are swept afresh and not kept: only the
    symmetry check reads such weights.  Callers must not mutate the result.
    """
    memo = _PREFIXES.setdefault((step, args), {(): {(): 1}})
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
    out: dict[tuple[int, ...], int] = {}
    for gshape, _rho in _strip_transitions(bounded_to_core(shape, k).shape, r, k):
        gamma = core_to_bounded(gshape, k)
        out[gamma] = out.get(gamma, 0) + 1
    return tuple(out.items())


def count_kostka(lam, alpha, k: int) -> int:
    """Number of affine set-valued tableaux of shape c(lam) and weight alpha."""
    lam = check_partition(lam)
    if not is_k_bounded(lam, k):
        raise ValueError(f"{lam} is not {k}-bounded")
    sizes = [int(a) for a in alpha if int(a)]
    if any(a < 0 or a > k for a in sizes):
        raise ValueError(f"composition must be k-bounded and nonnegative: {alpha}")
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


def count_ktab_kostka(lam, alpha, k: int) -> int:
    """Number of k-tableaux of shape c(lam) and weight alpha; 0 off-degree."""
    lam = check_partition(lam)
    sizes = [int(a) for a in alpha if int(a)]
    if sum(sizes) != degree(lam):
        return 0
    return count_kostka(lam, sizes, k)


# a named read of sweep(), which the traced benchmark run counts per call
def kostka_column(mu, k: int) -> dict[tuple[int, ...], int]:
    """All affine Kostka numbers of weight mu at once, keyed by shape; do not mutate."""
    return sweep(mu, _affine_steps, k)


# classical (large-k) counterparts ------------------------------------------


def _horizontal_extensions(beta: tuple[int, ...], max_new: int):
    """All gamma >= beta with gamma/beta a horizontal strip of <= max_new cells."""
    rows = len(beta)
    out: list[tuple[int, ...]] = []

    def rec(i: int, used: int, acc: tuple[int, ...]):
        if i == rows:
            out.append(acc)
            top = beta[rows - 1] if rows else max_new
            for extra in range(1, min(max_new - used, top) + 1):
                out.append(acc + (extra,))
            return
        hi = beta[i - 1] if i > 0 else beta[0] + (max_new - used)
        for v in range(beta[i], min(hi, beta[i] + max_new - used) + 1):
            rec(i + 1, used + v - beta[i], acc + (v,))

    if rows == 0:
        out.append(())
        out.extend((m,) for m in range(1, max_new + 1))
    else:
        rec(0, 0, ())
    return out


@cache
def _classical_sv_transitions(beta: tuple[int, ...], r: int):
    """(gamma, multiplicity) pairs for one classical set-valued r-strip."""
    out = []
    for gamma in _horizontal_extensions(beta, r):
        new = degree(gamma) - degree(beta)
        free = sum(
            1 for c in removable_corners(beta) if not gamma_blocked(c, gamma)
        )
        mult = comb(free, r - new) if r - new >= 0 else 0
        if mult:
            out.append((gamma, mult))
    out.sort()
    return tuple(out)


@cache
def _horizontal_strips(beta: tuple[int, ...], r: int):
    """(gamma, 1) pairs: gamma/beta a horizontal strip of exactly r cells."""
    n = degree(beta) + r
    return tuple((gamma, 1) for gamma in _horizontal_extensions(beta, r) if degree(gamma) == n)


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
