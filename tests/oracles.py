"""Independent brute-force oracles the fast paths are checked against.

The point is to recompute answers by a different route.  The literal
checkers of the strip, chain and k-tableau definitions live here, not in
the package, and so does the whole weight check of an affine set-valued
tableau, which the bijection suite reads as a table of valid blocks.
From the package this takes plain shape and core helpers, the
SetValuedFilling record, tableaux.gamma_blocked (the one strip condition
the classical count shares), tableaux.lowest_reading_word,
cyclically_decreasing_word, and words.apply_block, the letter-by-letter
block application that the cached strip transitions and the block walk of
the factorizations are compared with.  The first forms of conjugate, of the
Pieri rules on Core values and of SymFunc's coefficient normalization stay
here too, as the references their faster forms are pinned to.
The few symfunc names used are imported inside the functions that use them.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, permutations

from kgroth.partitions import (
    Cell,
    Core,
    Record,
    _set,
    check_composition,
    check_partition,
    conjugate,
    contains,
    core_to_bounded,
    degree,
    is_k_bounded,
    k_conjugate,
    partitions_of,
    removable_corners,
    residue,
    residue_word,
    skew_cells,
)
from kgroth.tableaux import SetValuedFilling, gamma_blocked, lowest_reading_word
from kgroth.words import (
    DeadWordError,
    Factorization,
    ResidueWord,
    apply_block,
    cyclically_decreasing_word,
)


class AffPerm:
    """Affine permutation in window notation: w(i + n) = w(i) + n."""

    def __init__(self, window):
        self.n = len(window)
        self.window = tuple(window)

    @classmethod
    def identity(cls, n: int) -> "AffPerm":
        return cls(tuple(range(1, n + 1)))

    def left_mult(self, i: int) -> "AffPerm":
        """Compose with the reflection swapping values i, i+1 modulo n."""
        n = self.n
        out = []
        for v in self.window:
            r = v % n
            if r == i % n:
                out.append(v + 1)
            elif r == (i + 1) % n:
                out.append(v - 1)
            else:
                out.append(v)
        return AffPerm(out)

    def right_descents(self) -> list[int]:
        n = self.n
        ds = [i for i in range(1, n) if self.window[i - 1] > self.window[i]]
        if self.window[n - 1] > self.window[0] + n:
            ds.append(0)
        return ds

    def right_mult(self, i: int) -> "AffPerm":
        n = self.n
        w = list(self.window)
        if i == 0:
            a, b = w[n - 1] - n, w[0]
            w[0], w[n - 1] = a, b + n
        else:
            w[i - 1], w[i] = w[i], w[i - 1]
        return AffPerm(w)

    def length(self) -> int:
        w, ell = self, 0
        while True:
            ds = w.right_descents()
            if not ds:
                return ell
            w = w.right_mult(ds[0])
            ell += 1

    def is_grassmannian(self) -> bool:
        return all(self.window[i] < self.window[i + 1] for i in range(self.n - 1))

    def __eq__(self, other):
        return isinstance(other, AffPerm) and self.window == other.window

    def __hash__(self):
        return hash(self.window)


def demazure_product(letters, k: int) -> AffPerm:
    """0-Hecke product of the word, rightmost letter first."""
    n = k + 1
    v = AffPerm.identity(n)
    lv = 0
    for i in reversed(tuple(letters)):
        u = v.left_mult(i)
        lu = u.length()
        if lu > lv:
            v, lv = u, lu
    return v


def coxeter_product(letters, k: int) -> AffPerm:
    """Plain group product of the word, rightmost letter first."""
    v = AffPerm.identity(k + 1)
    for i in reversed(tuple(letters)):
        v = v.left_mult(i)
    return v


def _cyclic_runs_word(subset, k: int) -> tuple[int, ...]:
    """One admissible decreasing listing of a proper residue subset."""
    p = k + 1
    s = set(subset)
    letters = []
    for start in sorted(v for v in s if (v - 1) % p not in s):
        run = [start]
        while (run[-1] + 1) % p in s:
            run.append((run[-1] + 1) % p)
        letters.extend(reversed(run))
    return tuple(letters)


def block_factorization_count(lam, alpha, k: int) -> int:
    """Count block factorizations with window arithmetic only.

    Tuples of residue subsets of the prescribed sizes whose concatenated
    word has 0-Hecke product equal to the element of lam, built without any
    core or strip machinery.
    """
    from itertools import combinations

    from kgroth.partitions import residue_word

    target = coxeter_product(residue_word(tuple(lam), k), k)
    sizes = [a for a in alpha if a]
    count = 0

    def rec(pos: int, perm: AffPerm, length: int):
        nonlocal count
        if pos == len(sizes):
            if perm == target:
                count += 1
            return
        for subset in combinations(range(k + 1), sizes[pos]):
            nxt, lnxt = perm, length
            for i in reversed(_cyclic_runs_word(subset, k)):
                cand = nxt.left_mult(i)
                lcand = cand.length()
                if lcand > lnxt:
                    nxt, lnxt = cand, lcand
            rec(pos + 1, nxt, lnxt)

    rec(0, AffPerm.identity(k + 1), 0)
    return count


# ---------------------------------------------------------------------------
# cores through the corner lists and the full hook table


def addable_corners(lam: tuple[int, ...]) -> list[Cell]:
    """Cells addable to lam keeping a partition shape, bottom row first."""
    out = []
    for i in range(len(lam)):
        if i == 0 or lam[i - 1] > lam[i]:
            out.append((i, lam[i]))
    out.append((len(lam), 0))
    return out


def add_cells(lam: tuple[int, ...], new) -> tuple[int, ...]:
    """lam with the cells new added, each at the end of its row, in row order."""
    rows = list(lam)
    for i, j in sorted(new):
        if i == len(rows):
            rows.append(0)
        if j != rows[i]:
            raise ValueError(f"cannot add cell ({i},{j}) to {lam}")
        rows[i] += 1
    return check_partition(rows)


def corner_step_by_corners(shape: tuple[int, ...], k: int, i: int):
    """The corner step of letter i, read off addable_corners and removable_corners."""
    i %= k + 1
    added = tuple(c for c in addable_corners(shape) if residue(c, k) == i)
    if added:
        return add_cells(shape, added), added
    return shape, tuple(c for c in removable_corners(shape) if residue(c, k) == i)


def is_core_by_hooks(lam: tuple[int, ...], k: int) -> bool:
    """True iff no cell of lam has hook length exactly k+1, every cell's hook computed."""
    if k < 1:
        raise ValueError("k must be >= 1")
    conj = conjugate(lam)
    p = k + 1
    for i, row in enumerate(lam):
        for j in range(row):
            if (row - j) + (conj[j] - i) - 1 == p:
                return False
    return True


def core_to_bounded_by_hooks(shape: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The k-bounded image: is_core_by_hooks first, then every cell's hook compared with k."""
    if not is_core_by_hooks(shape, k):
        raise ValueError(f"{shape} is not a {k + 1}-core")
    conj = conjugate(shape)
    rows = []
    for i, row in enumerate(shape):
        rows.append(sum(1 for j in range(row) if (row - j) + (conj[j] - i) - 1 <= k))
    return tuple(v for v in rows if v > 0)


def bounded_to_core_by_corners(lam: tuple[int, ...], k: int) -> Core:
    """The core of lam, one checked Core per letter of lam's residue word."""
    if not is_k_bounded(lam, k):
        raise ValueError(f"{lam} is not {k}-bounded")
    core = Core((), k)
    for i in reversed(residue_word(lam, k)):
        core = Core(corner_step_by_corners(core.shape, k, i)[0], k)
    return core


def strip_transitions_by_corners(beta_shape: tuple[int, ...], r: int, k: int):
    """The (gamma, rho) pairs of one marked r-block on beta, stepped by corner_step_by_corners."""
    if r == 0:
        return ((beta_shape, beta_shape),)
    out = []
    for subset in combinations(range(k + 1), r):
        gamma, touched = beta_shape, []
        for i in reversed(cyclically_decreasing_word(subset, k).letters):
            gamma, cells = corner_step_by_corners(gamma, k, i)
            if not cells:
                break
            touched.extend(cells)
        else:
            rows = list(gamma)
            for row, _ in touched:
                rows[row] -= 1
            out.append((gamma, tuple(v for v in rows if v > 0)))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# literal checkers of the strip, chain and k-tableau definitions


def is_horizontal_strip(gamma: tuple[int, ...], rho: tuple[int, ...]) -> bool:
    """True iff every column of gamma/rho has at most one cell."""
    if not contains(gamma, rho):
        raise ValueError(f"{rho} is not contained in {gamma}")
    # one cell per column at most <=> gamma_{i} <= rho_{i-1} for every upper row
    for i in range(1, len(gamma)):
        lo = rho[i - 1] if i - 1 < len(rho) else 0
        if gamma[i] > lo:
            return False
    return True


def is_cyclically_decreasing(word: ResidueWord) -> bool:
    """No repeats, and j appears before j-1 (mod k+1) whenever both occur."""
    letters = word.letters
    if len(set(letters)) != len(letters):
        return False
    pos = {v: idx for idx, v in enumerate(letters)}
    p = word.k + 1
    for j in letters:
        below = (j - 1) % p
        if below in pos and pos[j] > pos[below]:
            return False
    return True


def is_affine_strip(gamma: Core, beta: Core, r: int) -> bool:
    """Horizontal skew of cores gaining r in size and occupying r residues."""
    if gamma.k != beta.k:
        raise ValueError("cores must share a level")
    k = gamma.k
    if not contains(gamma.shape, beta.shape):
        return False
    if not is_horizontal_strip(gamma.shape, beta.shape):
        return False
    if degree(gamma.to_bounded()) - degree(beta.to_bounded()) != r:
        return False
    residues = {residue(c, k) for c in skew_cells(gamma.shape, beta.shape)}
    return len(residues) == r


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


def chain_is_valid(chain, alpha) -> bool:
    """Every step of a StripChain is an affine set-valued strip of its size in alpha."""
    sizes = [int(a) for a in alpha if int(a)]
    if len(sizes) != len(chain.steps):
        return False
    prev = Core((), chain.k)
    for (gshape, rho), r in zip(chain.steps, sizes):
        s = AffineSVStrip(Core(gshape, chain.k), prev, rho, r)
        if not is_affine_sv_strip(s):
            return False
        prev = Core(gshape, chain.k)
    return True


def is_k_tableau(t: SetValuedFilling, k: int) -> bool:
    """Singleton semistandard filling of a core whose residue counts fill its size."""
    if any(len(s) != 1 for s in t.cells.values()):
        return False
    entry = {c: min(s) for c, s in t.cells.items()}
    # weak along rows, strict up columns
    if any(entry.get((i, j + 1), v) < v or entry.get((i + 1, j), v + 1) <= v
           for (i, j), v in entry.items()):
        return False
    if not is_core_by_hooks(t.shape, k):
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


def compress_filling(t: SetValuedFilling, alpha) -> SetValuedFilling:
    """Replace the letters of each alphabet block by the block index."""
    sizes = [int(a) for a in alpha if int(a)]
    block_of = [x for x, a in enumerate(sizes, start=1) for _ in range(a)]
    return SetValuedFilling(
        t.shape, {c: frozenset(block_of[v - 1] for v in s) for c, s in t.cells.items()}
    )


# ---------------------------------------------------------------------------
# strips by exhaustive filtering


def sv_strips_brute(beta: Core, r: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All affine set-valued r-strips on beta, by filtering every candidate.

    Candidate outer shapes add at most one row and at most k columns (both
    bounds follow from horizontality and the residue count); candidate rho
    delete any subset of beta's removable corners.
    """
    k = beta.k
    b = beta.shape
    found = []
    for gamma_shape in _shapes_over(b, k):
        if not is_core_by_hooks(gamma_shape, k):
            continue
        gamma = Core(gamma_shape, k)
        for removed in _subsets(removable_corners(b)):
            rows = list(b)
            for i, _ in removed:
                rows[i] -= 1
            rho = tuple(v for v in rows if v > 0)
            if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
                continue
            strip = AffineSVStrip(gamma, beta, rho, r)
            if is_affine_sv_strip(strip):
                found.append((gamma_shape, rho))
    return sorted(found)


def strip_transitions_by_blocks(beta_shape: tuple[int, ...], r: int, k: int):
    """The (gamma, rho) pairs of one marked r-block on beta, sorted.

    Applies the block of every r-subset of [0, k], in combinations order,
    through words.apply_block and drops the dead ones; rho is gamma less the
    cells the block touched.
    """
    beta = Core(beta_shape, k)
    if r == 0:
        return ((beta_shape, beta_shape),)
    out = []
    for subset in combinations(range(k + 1), r):
        try:
            gamma, touched = apply_block(beta, subset)
        except DeadWordError:
            continue
        rows = list(gamma.shape)
        for i, _ in touched:
            rows[i] -= 1
        out.append((gamma.shape, tuple(v for v in rows if v > 0)))
    out.sort()
    return tuple(out)


def factorizations_by_search(alpha, k: int) -> dict[tuple[int, ...], list]:
    """words.factorizations_by_shape by a recursive search over tuples of blocks.

    Tries the block of every subset of [0, k] of each size in turn through
    words.apply_block, dropping a tuple at its first dead letter; a complete
    tuple is keyed by the bounded image of its final core.
    """
    sizes = check_composition(alpha, k)
    groups: dict[tuple[int, ...], list] = {}

    def rec(pos: int, core: Core, chosen: tuple[ResidueWord, ...]):
        if pos == len(sizes):
            groups.setdefault(core.to_bounded(), []).append(Factorization(chosen, k))
            return
        for subset in combinations(range(k + 1), sizes[pos]):
            try:
                nxt, _ = apply_block(core, subset)
            except DeadWordError:
                continue
            rec(pos + 1, nxt, chosen + (cyclically_decreasing_word(subset, k),))

    rec(0, Core((), k), ())
    for facts in groups.values():
        facts.sort(key=lambda f: tuple(b.letters for b in f.blocks))
    return groups


def column_by_weight(mu, step, *args) -> dict[tuple[int, ...], int]:
    """The states after one block per nonzero part of mu, swept afresh.

    The per-weight loop with no memo: step(shape, r, *args) gives the
    (shape', multiplicity) pairs one block of r letters reaches.
    """
    states = {(): 1}
    for r in [int(a) for a in mu if int(a)]:
        nxt: dict[tuple[int, ...], int] = {}
        for shape, cnt in states.items():
            for gshape, mult in step(shape, r, *args):
                nxt[gshape] = nxt.get(gshape, 0) + cnt * mult
        states = nxt
    return states


@cache
def _core_steps(shape: tuple[int, ...], r: int, k: int):
    return tuple(Counter(g for g, _ in strip_transitions_by_blocks(shape, r, k)).items())


def affine_column_by_weight(mu, k: int) -> dict[tuple[int, ...], int]:
    """Affine Kostka column of mu: cores swept by applied blocks, bounded at the end."""
    return {core_to_bounded(s, k): c for s, c in column_by_weight(mu, _core_steps, k).items()}


def _shapes_over(beta: tuple[int, ...], width: int):
    """All partitions containing beta with gamma/beta horizontal, row growth <= width."""
    rows = len(beta)
    out = []

    def rec(i, acc):
        if i == rows:
            out.append(tuple(acc))
            top = beta[rows - 1] if rows else width
            for extra in range(1, top + 1):
                out.append(tuple(acc) + (extra,))
            return
        hi = beta[i - 1] if i > 0 else beta[0] + width
        for v in range(beta[i], hi + 1):
            rec(i + 1, acc + [v])

    if rows == 0:
        out.append(())
        out.extend((m,) for m in range(1, width + 1))
    else:
        rec(0, [])
    return out


def _subsets(items):
    for size in range(len(items) + 1):
        yield from combinations(items, size)


def vertical_strips_brute(beta: Core, r: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Vertical strips by testing the defining conjugate condition pairwise."""
    k = beta.k
    lam = beta.to_bounded()
    lamw = k_conjugate(lam, k)
    out = []
    for gconj_shape, rho_conj in sv_strips_brute(Core.from_bounded(lamw, k), r):
        mu_w = Core(gconj_shape, k).to_bounded()
        mu = k_conjugate(mu_w, k)
        out.append((Core.from_bounded(mu, k).shape, conjugate(rho_conj)))
    return sorted(out)


# ---------------------------------------------------------------------------
# classical fillings by cell-by-cell search


def classical_sv_fillings(shape: tuple[int, ...], total: int) -> list[SetValuedFilling]:
    """Every semistandard set-valued filling of shape with letters summing to total."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    cells.sort(key=lambda c: (c[0], c[1]))
    results: list[SetValuedFilling] = []
    max_letter = total  # letters above the cell count never fit the budget

    def rec(idx: int, used: int, acc: dict):
        if used > total:
            return
        if idx == len(cells):
            if used == total:
                results.append(SetValuedFilling(shape, {c: frozenset(s) for c, s in acc.items()}))
            return
        cell = cells[idx]
        i, j = cell
        lo = 1
        if j > 0:
            lo = max(lo, max(acc[(i, j - 1)]))
        if i > 0:
            lo = max(lo, max(acc[(i - 1, j)]) + 1)
        budget = total - used
        for subset in _nonempty_subsets(range(lo, max_letter + 1), budget):
            acc[cell] = set(subset)
            rec(idx + 1, used + len(subset), acc)
            del acc[cell]

    rec(0, 0, {})
    return results


def _nonempty_subsets(universe, max_size: int):
    universe = tuple(universe)
    for size in range(1, min(len(universe), max_size) + 1):
        yield from combinations(universe, size)


def classical_sv_count(shape: tuple[int, ...], weight: tuple[int, ...]) -> int:
    weight = tuple(v for v in weight if v)
    total = sum(weight)
    count = 0
    for t in classical_sv_fillings(shape, total):
        w = t.weight()
        if tuple(v for v in w) == weight:
            count += 1
    return count


def semistandard_fillings(shape: tuple[int, ...], weight: tuple[int, ...]):
    """Semistandard single-letter fillings of the exact weight."""
    n = len(weight)
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    cells.sort()
    results = []

    def rec(idx: int, left: list[int], acc: dict):
        if idx == len(cells):
            if all(v == 0 for v in left):
                results.append(
                    SetValuedFilling(shape, {c: frozenset([v]) for c, v in acc.items()})
                )
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, acc[(i, j - 1)])
        if i > 0:
            lo = max(lo, acc[(i - 1, j)] + 1)
        for v in range(lo, n + 1):
            if left[v - 1]:
                left[v - 1] -= 1
                acc[(i, j)] = v
                rec(idx + 1, left, acc)
                del acc[(i, j)]
                left[v - 1] += 1

    rec(0, list(weight), {})
    return results


def jacobi_trudi_h(lam) -> dict[tuple[int, ...], int]:
    """h-expansion of s_lam: det(h_{lam_i - i + j}) expanded over all permutations."""
    n = len(lam)
    out: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(n)):
        parts = [lam[i] + perm[i] - i for i in range(n)]
        if any(v < 0 for v in parts):
            continue
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        key = tuple(sorted((v for v in parts if v), reverse=True))
        out[key] = out.get(key, 0) + (-1) ** inversions
    return {key: c for key, c in out.items() if c}


# ---------------------------------------------------------------------------
# monomial multiplication in explicit variables


def m_polynomial(lam: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    """Exponent-vector dictionary of the monomial symmetric polynomial."""
    from kgroth.symfunc import distinct_permutations

    padded = tuple(lam) + (0,) * (nvars - len(lam))
    return {expo: 1 for expo in distinct_permutations(padded)}


def m_product_expanded(lam, mu) -> dict[tuple[int, ...], int]:
    """Multiply two monomial symmetric polynomials in enough variables.

    Multiplies every monomial of one by every monomial of the other; the
    reference that m_product_oracle is checked against on small cases.
    """
    nvars = len(lam) + len(mu)
    if nvars == 0:
        return {(): 1}
    fa = m_polynomial(tuple(lam), nvars)
    fb = m_polynomial(tuple(mu), nvars)
    prod: dict[tuple[int, ...], int] = {}
    for ea, ca in fa.items():
        for eb, cb in fb.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            prod[key] = prod.get(key, 0) + ca * cb
    out: dict[tuple[int, ...], int] = {}
    for expo, c in prod.items():
        if all(expo[i] >= expo[i + 1] for i in range(nvars - 1)):
            out[tuple(x for x in expo if x)] = c
    return out


def m_product_oracle(lam, mu) -> dict[tuple[int, ...], int]:
    """Multiply two monomial symmetric polynomials in enough variables.

    The coefficient of m_nu counts the pairs of monomials, one of m_lam and
    one of m_mu in len(lam) + len(mu) variables, whose product is x^nu.  A
    depth-first search over the variables picks one remaining part of the
    zero-padded lam and of the zero-padded mu per variable, distinct values
    only, so each monomial pair is visited once; it keeps the exponent sums
    weakly decreasing, which skips the pairs whose product is not of the
    form x^nu for a partition nu.
    """
    nvars = len(lam) + len(mu)
    left = Counter(tuple(lam) + (0,) * (nvars - len(lam)))
    right = Counter(tuple(mu) + (0,) * (nvars - len(mu)))
    out: dict[tuple[int, ...], int] = {}

    def rec(expo: tuple[int, ...], cap: int) -> None:
        if len(expo) == nvars:
            key = tuple(x for x in expo if x)
            out[key] = out.get(key, 0) + 1
            return
        for a in [v for v, c in left.items() if c]:
            left[a] -= 1
            for b in [v for v, c in right.items() if c and a + v <= cap]:
                right[b] -= 1
                rec(expo + (a + b,), a + b)
                right[b] += 1
            left[a] += 1

    rec((), sum(lam) + sum(mu))
    return out


# ---------------------------------------------------------------------------
# monomial to h and e without the Schur basis


@cache
def matrix_count(rows: tuple[int, ...], cols: tuple[int, ...], zero_one: bool) -> int:
    """Nonnegative integer matrices with the given row and column sums.

    With zero_one only 0/1 entries count.  h_lam = sum_mu matrix_count(lam,
    mu, False) m_mu, and e_lam the same with zero_one.
    """
    if sum(rows) != sum(cols):
        return 0
    if not rows:
        return 1
    total = 0
    for first in _row_fillings(rows[0], cols, zero_one):
        # permuting the columns changes no count, so the rest is keyed sorted
        left = tuple(sorted((c - v for c, v in zip(cols, first) if c > v), reverse=True))
        total += matrix_count(rows[1:], left, zero_one)
    return total


def _row_fillings(r: int, caps: tuple[int, ...], zero_one: bool):
    """All rows with entries at most caps (and 1 with zero_one) summing to r."""
    if not caps:
        if r == 0:
            yield ()
        return
    for v in range(min(r, caps[0], 1 if zero_one else r) + 1):
        for rest in _row_fillings(r - v, caps[1:], zero_one):
            yield (v,) + rest


def m_to_he_through_e(f, target: str):
    """m -> e (then h) by a solve against the 0/1-matrix counts of e in m.

    e_{nu'} is m_nu plus dominance-smaller terms, so the columns of e_{nu'}
    are unitriangular in the m-side order.  This was the production route
    before m -> h and m -> e went through the Schur basis.
    """
    from kgroth.symfunc import SymFunc, convert, m_order, solve_unitriangular

    def column(nu):
        lam = conjugate(nu)
        return {mu: c for mu in partitions_of(sum(lam)) if (c := matrix_count(lam, mu, True))}

    solved = solve_unitriangular(f.coeffs, column, m_order)
    f_e = SymFunc("e", {conjugate(nu): c for nu, c in solved.items()}, f.deg_max)
    return f_e if target == "e" else convert(f_e, "h")


# ---------------------------------------------------------------------------
# the inhomogeneous conjugation through the e basis


def omega_big_oracle(lam):
    """Image of h_lam under h_r -> sum_j C(r-1, j-1) e_j, as an h-expansion.

    The generators' images stay in the e basis, where the image of h_r has r
    terms; their product is converted to h once.  The package instead
    multiplies each partial image by the h-expansion of the next generator's.
    """
    from math import comb

    from kgroth.symfunc import SymFunc, convert

    image = SymFunc("e", {(): 1})
    for r in lam:
        image = image * SymFunc("e", {(j,): comb(r - 1, j - 1) for j in range(1, r + 1)})
    return convert(image, "h")


# ---------------------------------------------------------------------------
# re-expansion into a family by a solve against its members


def expand_in_family_by_solve(f, family, index_sets) -> dict[tuple[int, ...], int]:
    """Coefficients of f in a graded-unitriangular h-basis family, solved against the members.

    family(mu) must have leading h-term at mu, same-degree keys dominating mu
    and otherwise lower-degree keys; index_sets(d) lists the family indices of
    degree d.  Solving top degree first, each degree in lex (a dominance
    linear extension) ascending, makes the solve exact.  The package instead
    multiplies f by the signed counts that define the family.
    """
    from kgroth.symfunc import convert, h_order, solve_unitriangular

    work = convert(f, "h")
    if work.deg_max is not None:
        raise ValueError("re-expansion needs an exact h-expansion")
    members = {nu for d in range(work.max_degree() + 1) for nu in index_sets(d)}

    def column(nu):
        if nu not in members:
            raise ValueError(f"element is not in the span of the family at degree {degree(nu)}")
        return convert(family(nu), "h").coeffs

    return solve_unitriangular(work.coeffs, column, h_order)


# ---------------------------------------------------------------------------
# conjugation, Pieri strips and SymFunc normalization as they were first written


def conjugate_by_counts(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths of lam, each counted over every row: O(lam[0] * len(lam))."""
    if not lam:
        return ()
    return tuple(sum(1 for v in lam if v > j) for j in range(lam[0]))


def vertical_strips_by_cores(beta: Core, r: int) -> list[tuple[Core, tuple[int, ...]]]:
    """The row strips of the conjugate Core, each (gamma, rho) conjugated back as Core values."""
    from kgroth.tableaux import enumerate_sv_strips

    k = beta.k
    out = [
        (Core(conjugate_by_counts(gamma.shape), k), conjugate_by_counts(rho))
        for gamma, rho in enumerate_sv_strips(Core(conjugate_by_counts(beta.shape), k), r)
    ]
    out.sort(key=lambda p: (p[0].shape, p[1]))
    return out


def pieri_by_cores(direction: str, lam, r: int, k: int):
    """families._pieri with a Core value per strip, each end core read through Core.to_bounded."""
    from kgroth.families import PieriResult
    from kgroth.partitions import check_bounded
    from kgroth.tableaux import enumerate_sv_strips

    lam = check_bounded(lam, k)
    if not 0 <= r <= k:
        raise ValueError(f"r must lie in [0, {k}]: {r}")
    beta = Core.from_bounded(lam, k)
    enum = enumerate_sv_strips if direction == "row" else vertical_strips_by_cores
    terms: dict[tuple[int, ...], int] = {}
    strips = []
    for gamma, rho in enum(beta, r):
        mu = gamma.to_bounded()
        strips.append((mu, rho))
        sign = -1 if (degree(lam) + r - degree(mu)) % 2 else 1
        terms[mu] = terms.get(mu, 0) + sign
    terms = {mu: c for mu, c in terms.items() if c}
    return PieriResult(direction, lam, r, k, terms, tuple(sorted(strips)))


def normalized_by_two_passes(coeffs: dict, deg_max=None, k=None) -> dict:
    """SymFunc's coefficient normalization: sum every key, then drop the zero sums."""
    clean: dict[tuple[int, ...], int] = {}
    for key, c in coeffs.items():
        lam = check_partition(key)
        c = int(c)
        if not c:
            continue
        if deg_max is not None and sum(lam) > deg_max:
            continue
        if k is not None and lam and lam[0] > k:
            continue
        clean[lam] = clean.get(lam, 0) + c
    return {a: b for a, b in clean.items() if b}
