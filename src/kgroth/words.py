"""Residue words, corner-adding evaluation, cyclically decreasing blocks.

A word is a finite sequence of residues in [0, k].  Words are stored in
display order: the rightmost letter acts first when the word is evaluated
on the empty core, matching the convention that reduced words are read
off a shape from the top row down, right to left.  Every walk here steps
plain shape tuples through partitions._corner_step, the one letter rule; a
Core is built only where a public function returns one.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .partitions import (
    Core,
    Cell,
    Record,
    _corner_step,
    _set,
    check_bounded,
    check_composition,
    core_to_bounded,
    residue_word,
)


class DeadWordError(Exception):
    """Raised when a letter finds neither an addable nor a removable corner.

    Distinct from ValueError so callers can tell valid-but-vanishing words
    apart from malformed input.
    """


class ResidueWord(Record):
    """A word over residues [0, k]; rightmost letter applied first."""

    __slots__ = ("letters", "k")

    def __init__(self, letters: tuple[int, ...], k: int):
        letters = tuple(int(v) for v in letters)
        if k < 1:
            raise ValueError("k must be >= 1")
        if any(not 0 <= v <= k for v in letters):
            raise ValueError(f"letters must lie in [0, {k}]: {letters}")
        _set(self, "letters", letters)
        _set(self, "k", k)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.letters)


def word_of_partition(lam, k: int) -> ResidueWord:
    """The canonical reduced word of the grassmannian element attached to lam.

    Reads the residues of lam's own diagram from the top row down, right to
    left; evaluating it on the empty core produces the core image of lam.
    """
    lam = check_bounded(lam, k)
    return ResidueWord(residue_word(lam, k), k)


def evaluate_steps(word: ResidueWord, shape: tuple[int, ...] = ()):
    """Yield (shape_after, cells_receiving_letter) per evaluation step.

    Starts from the (k+1)-core shape, the empty core by default.  Each step
    is _corner_step: it either adds all addable i-corners (the new cells
    receive the letter) or, failing that, marks all removable i-corners.  If
    neither kind of corner exists the word is dead.
    """
    for pos, i in enumerate(reversed(word.letters)):
        after, touched = _corner_step(shape, word.k, i)
        if not touched:
            raise DeadWordError(
                f"letter {i} at step {pos + 1} of {word}: no addable or removable {i}-corner on {shape}"
            )
        shape = after
        yield shape, touched


def evaluate(word: ResidueWord) -> Core:
    """Apply the corner-adding operators rightmost letter first to the empty core."""
    shape: tuple[int, ...] = ()
    for shape, _ in evaluate_steps(word):
        pass
    return Core(shape, word.k)


def alive_words(n: int, k: int) -> list[ResidueWord]:
    """Every word of length n alive on the empty core, by a walk over its letters.

    Each letter steps each alive prefix's shape through _corner_step; a letter
    that touches no cell is dead and drops the prefix.
    """
    level: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    for _ in range(n):
        steps = ((applied + (i,), _corner_step(shape, k, i))
                 for applied, shape in level for i in range(k + 1))
        level = [(applied, after) for applied, (after, touched) in steps if touched]
    return [ResidueWord(applied[::-1], k) for applied, _ in level]


def standard_tableau_of_word(word: ResidueWord):
    """The standard affine set-valued filling encoding an alive word.

    Step x writes the letter x into every cell that step touches; dead
    words raise DeadWordError.
    """
    from .tableaux import SetValuedFilling

    cellmap: dict[Cell, set[int]] = {}
    shape: tuple[int, ...] = ()
    for x, (shape, touched) in enumerate(evaluate_steps(word), start=1):
        for c in touched:
            cellmap.setdefault(c, set()).add(x)
    return SetValuedFilling(shape, {c: frozenset(s) for c, s in cellmap.items()})


def cyclically_decreasing_word(residues, k: int) -> ResidueWord:
    """Canonical cyclically decreasing word on a proper subset of [0, k].

    The subset splits into maximal cyclic runs; each run is emitted from its
    top residue downwards, runs ordered by their starting residue.  Any
    other admissible order differs only by commutations.
    """
    p = k + 1
    residues = tuple(int(v) for v in residues)
    for v in residues:
        if not 0 <= v <= k:
            raise ValueError(f"residue {v} does not lie in [0, {k}]")
    s = set(residues)
    if len(s) != len(residues):
        raise ValueError(f"residues must be distinct: {residues}")
    if len(s) == p:
        raise ValueError("a cyclically decreasing word uses a proper subset of residues")
    starts = sorted(v for v in s if (v - 1) % p not in s)
    letters: list[int] = []
    for start in starts:
        run = [start]
        while (run[-1] + 1) % p in s:
            run.append((run[-1] + 1) % p)
        letters.extend(reversed(run))
    return ResidueWord(tuple(letters), k)


def apply_block(core: Core, residues) -> tuple[Core, tuple[Cell, ...]]:
    """Apply the cyclically decreasing block on a residue set, tracking cells.

    Returns the new core together with every cell the block's letter landed
    in (new cells for addable steps, existing corners for removable steps).
    Raises DeadWordError when some letter finds no corner.  Each letter
    steps on its own, so this is the reference the block walk is checked by.
    """
    shape = core.shape
    touched: list[Cell] = []
    for shape, cells in evaluate_steps(cyclically_decreasing_word(residues, core.k), shape):
        touched.extend(cells)
    return Core(shape, core.k), tuple(sorted(touched))


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


def _alive_blocks(beta_shape: tuple[int, ...], r: int, k: int):
    """(gamma_shape, touched cells, letters) of each r-block alive on the (k+1)-core beta.

    Blocks come in the order of _block_letters, whose letters they carry.
    """
    for letters in _block_letters(r, k):
        gamma = beta_shape
        touched: list[Cell] = []
        for i in letters:
            gamma, cells = _corner_step(gamma, k, i)
            if not cells:
                break
            touched.extend(cells)
        else:
            yield gamma, touched, letters


class Factorization(Record):
    """A decomposition into cyclically decreasing blocks of prescribed lengths.

    blocks[x] is the block consumed at step x+1; evaluating the blocks in
    ascending index order on the empty core reaches the target.
    """

    __slots__ = ("blocks", "k")

    def __init__(self, blocks: tuple[ResidueWord, ...], k: int):
        _set(self, "blocks", blocks)
        _set(self, "k", k)


def factorizations_by_shape(alpha, k: int) -> dict[tuple[int, ...], list[Factorization]]:
    """Every factorization with block sizes alpha, keyed by its k-bounded shape.

    One walk over the blocks, level by level: each part of alpha extends
    every alive prefix by each block of that size alive on its core (each
    subset of [0, k] carries a unique cyclically decreasing element).  A
    complete tuple factors the grassmannian element of the bounded image of
    its final core.  Zero parts of alpha are skipped.  Each list is sorted
    by the letters of its blocks.
    """
    level: list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = [((), ())]
    for r in check_composition(alpha, k):
        level = [(chosen + (letters,), gamma)
                 for chosen, shape in level for gamma, _, letters in _alive_blocks(shape, r, k)]
    groups: dict[tuple[int, ...], list[Factorization]] = {}
    for chosen, shape in level:
        blocks = tuple(ResidueWord(letters[::-1], k) for letters in chosen)
        groups.setdefault(core_to_bounded(shape, k), []).append(Factorization(blocks, k))
    for facts in groups.values():
        facts.sort(key=lambda f: tuple(b.letters for b in f.blocks))
    return groups


def alpha_factorizations(lam, alpha, k: int) -> list[Factorization]:
    """All factorizations of lam's grassmannian element with block sizes alpha.

    The lam entry of factorizations_by_shape(alpha, k).
    """
    lam = check_bounded(lam, k)
    return factorizations_by_shape(alpha, k).get(lam, [])
