"""Independent brute-force oracles the fast paths are checked against.

Nothing here imports the production strip/chain machinery beyond plain
shape helpers and the literal condition checkers; the point is to recompute
answers by a different route.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, permutations

from kgroth.partitions import (
    Core,
    conjugate,
    core_to_bounded,
    is_core,
    k_conjugate,
    partitions_of,
    removable_corners,
)
from kgroth.tableaux import AffineSVStrip, SetValuedFilling, is_affine_sv_strip
from kgroth.words import DeadWordError, apply_block


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
        if not is_core(gamma_shape, k):
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
