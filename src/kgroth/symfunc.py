"""Graded integer symmetric-function arithmetic over the m, h, e, s bases.

Coefficients are exact Python integers.  A SymFunc is a finitely supported
map from partitions to integers tagged with a basis; deg_max carries the
truncation bound of inherently infinite expansions (None means exact).
Monomial-basis elements may additionally be tagged with a level k, in which
case they live in the quotient by the span of monomials with a part above k.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import comb, factorial

from .partitions import (
    Record, _set, check_partition, conjugate, degree, descending_partitions, dominates,
    listed_partitions, partitions_of,
)
from .tableaux import _horizontal_strips, _linear, sweep

BASES = ("m", "h", "e", "s")

# Keys are checked on every construction, and most are partitions the library
# built itself, so the check is memoized per tuple.
_check_key = cache(check_partition)


class SymFunc(Record):
    __slots__ = ("basis", "coeffs", "deg_max", "k")

    def __init__(
        self,
        basis: str,
        coeffs: dict[tuple[int, ...], int] | None = None,
        deg_max: int | None = None,
        k: int | None = None,
    ):
        _set(self, "basis", basis)
        _set(self, "coeffs", {} if coeffs is None else coeffs)
        _set(self, "deg_max", deg_max)
        _set(self, "k", k)
        # looked up on the class, so a hook rebound there sees every construction
        self.__post_init__()

    def __post_init__(self):
        """Check the basis and level, and normalize coeffs to nonzero integers.

        One pass builds a new dict, never the caller's; only when two keys
        normalize to the same partition can a sum be zero, and only then is a
        second pass made to drop it.
        """
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        deg_max, k = self.deg_max, self.k
        if k is not None and self.basis != "m":
            raise ValueError("only monomial-basis elements live in the quotient")
        clean: dict[tuple[int, ...], int] = {}
        merged = False
        for key, c in self.coeffs.items():
            lam = _check_key(key) if type(key) is tuple else check_partition(key)
            if type(c) is not int:
                c = int(c)
            if not c:
                continue
            if deg_max is not None and sum(lam) > deg_max:
                continue
            if k is not None and lam and lam[0] > k:
                continue
            if lam in clean:
                merged = True
                clean[lam] += c
            else:
                clean[lam] = c
        if merged:
            clean = {a: b for a, b in clean.items() if b}
        _set(self, "coeffs", clean)

    # -- inspection ---------------------------------------------------------

    def coeff(self, lam) -> int:
        return self.coeffs.get(check_partition(lam), 0)

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.coeffs.items(), key=lambda t: (degree(t[0]), t[0]))

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_degree(self) -> int:
        return max((degree(lam) for lam in self.coeffs), default=0)

    def homogeneous(self, d: int) -> "SymFunc":
        part = {lam: c for lam, c in self.coeffs.items() if degree(lam) == d}
        return SymFunc(self.basis, part, self.deg_max, self.k)

    def truncate(self, deg_max: int | None) -> "SymFunc":
        bound = _min_bound(self.deg_max, deg_max)
        return SymFunc(self.basis, self.coeffs, bound, self.k)

    def __eq__(self, other) -> bool:
        # deg_max is bookkeeping, not part of the value
        return (
            isinstance(other, SymFunc)
            and self.basis == other.basis
            and self.k == other.k
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.basis, self.k, tuple(self.terms())))

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for lam, c in self.terms():
            name = f"{self.basis}{list(lam)}"
            bits.append(f"{'+' if c >= 0 else '-'} {abs(c) if abs(c) != 1 else ''}{name}")
        text = " ".join(bits).lstrip("+ ")
        if self.deg_max is not None:
            text += f"  (deg<={self.deg_max})"
        return text

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError(f"cannot add {self.basis}- and {other.basis}-expansions")
        k = _merge_levels(self.k, other.k)
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, 0) + c
        return SymFunc(self.basis, out, _min_bound(self.deg_max, other.deg_max), k)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-other)

    def __neg__(self) -> "SymFunc":
        return SymFunc(self.basis, {a: -b for a, b in self.coeffs.items()}, self.deg_max, self.k)

    def __rmul__(self, scalar):
        if isinstance(scalar, int):
            return SymFunc(
                self.basis, {a: scalar * b for a, b in self.coeffs.items()}, self.deg_max, self.k
            )
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError(f"cannot multiply {self.basis}- and {other.basis}-expansions")
        k = _merge_levels(self.k, other.k)
        bound = _min_bound(self.deg_max, other.deg_max)
        if self.basis == "s":
            # route through the complete homogeneous basis
            return convert(convert(self, "h") * convert(other, "h"), "s")
        table = _m_mult if self.basis == "m" else _h_mult
        out: dict[tuple[int, ...], int] = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                if bound is not None and degree(a) + degree(b) > bound:
                    continue
                for key, mult in table(a, b).items():
                    out[key] = out.get(key, 0) + ca * cb * mult
        return SymFunc(self.basis, out, bound, k)


def _min_bound(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _merge_levels(a: int | None, b: int | None) -> int | None:
    if a is not None and b is not None and a != b:
        raise ValueError(f"incompatible levels k={a} and k={b}")
    return a if a is not None else b


def h(lam=(), coeff: int = 1, deg_max: int | None = None) -> SymFunc:
    return SymFunc("h", {check_partition(lam): coeff}, deg_max)


def e(lam=(), coeff: int = 1, deg_max: int | None = None) -> SymFunc:
    return SymFunc("e", {check_partition(lam): coeff}, deg_max)


def m(lam=(), coeff: int = 1, deg_max: int | None = None, k: int | None = None) -> SymFunc:
    return SymFunc("m", {check_partition(lam): coeff}, deg_max, k)


def s(lam=(), coeff: int = 1, deg_max: int | None = None) -> SymFunc:
    return SymFunc("s", {check_partition(lam): coeff}, deg_max)


# ---------------------------------------------------------------------------
# products of basis elements


@cache
def _h_mult(lam: tuple[int, ...], mu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """h_lam * h_mu = h_(lam + mu), and e alike: the one key, the parts of both sorted."""
    return {tuple(sorted(lam + mu, reverse=True)): 1}


def distinct_permutations(values: tuple[int, ...]):
    """All distinct orderings of a multiset of integers, lexicographically increasing."""
    # each is the next permutation of the one before, so nothing recurses
    perm = sorted(values)
    n = len(perm)
    while True:
        yield tuple(perm)
        i = n - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])


@cache
def _m_mult(lam: tuple[int, ...], mu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Coefficients of m_lam * m_mu, from the pairings of their parts.

    A monomial of the product adds an exponent vector of m_lam to one of m_mu,
    so some parts of lam meet a part of mu and the others stay alone.  Such a
    pairing is a multiset of columns (a, b), with 0 for a missing part; its
    column sums are the parts of nu, and the columns with the same sum fill
    the positions of that part of nu in multinomially many distinct ways.
    """
    lam_items = sorted(Counter(lam).items())
    mu_items = sorted(Counter(mu).items())
    mu_parts = tuple(b for b, _ in mu_items)
    out: dict[tuple[int, ...], int] = {}

    def rec(i: int, free: tuple[int, ...], columns: list[tuple[int, int]]):
        # columns holds (sum, count) for every column chosen so far
        if i == len(lam_items):
            columns = columns + [(b, n) for b, n in zip(mu_parts, free) if n]
            counts: dict[int, list[int]] = {}
            for total, n in columns:
                counts.setdefault(total, []).append(n)
            coeff, parts = 1, []
            for total, ns in counts.items():
                coeff *= _multinomial(ns)
                parts += [total] * sum(ns)
            nu = tuple(sorted(parts, reverse=True))
            out[nu] = out.get(nu, 0) + coeff
            return
        a, r = lam_items[i]
        for used in _bounded_vectors(r, free):
            paired = [(a + b, n) for b, n in zip(mu_parts, used) if n]
            alone = r - sum(used)
            if alone:
                paired.append((a, alone))
            rec(i + 1, tuple(f - n for f, n in zip(free, used)), columns + paired)

    rec(0, tuple(n for _, n in mu_items), [])
    return out


def _bounded_vectors(r: int, caps: tuple[int, ...]):
    """All integer vectors x with 0 <= x[j] <= caps[j] and sum(x) <= r."""
    if not caps:
        yield ()
        return
    for x in range(min(r, caps[0]) + 1):
        for rest in _bounded_vectors(r - x, caps[1:]):
            yield (x,) + rest


def _multinomial(ns: list[int]) -> int:
    out, total = 1, 0
    for n in ns:
        total += n
        out *= comb(total, n)
    return out


# ---------------------------------------------------------------------------
# transition coefficients


def _s_in_m(lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Row lam of the Kostka matrix: s_lam = sum_mu K(lam, mu) m_mu.

    K(lam, mu) is positive exactly when lam dominates mu, so only those
    columns are read.
    """
    return {mu: _h_in_s(mu)[lam] for mu in partitions_of(degree(lam)) if dominates(lam, mu)}


def _h_in_s(mu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Column mu of the Kostka matrix: h_mu = sum_lam K(lam, mu) s_lam."""
    return sweep(mu, _horizontal_strips)


# ---------------------------------------------------------------------------
# unitriangular solves


def solve_unitriangular(target: dict, column, *args) -> dict:
    """Coefficients x with sum_key x[key] * (-1)^(|key|-|nu|) * column(key, *args)[nu] == target[nu].

    The keys of degree d are the k-bounded partitions of d, with k = args[0]
    if given.  The solve walks them one degree at a time, and only the
    degrees that hold a residual key: top degree first, each degree lex
    ascending.  A degree that k_bounded_partitions has listed is walked
    whole.  Any other is walked from the residual's least key there, over
    partitions no longer than its longest key there.  Each walked key pops
    its residual coefficient, and a key with a nonzero one is settled: its
    column column(key, *args), read once, must hold key with coefficient 1
    and otherwise only keys later in the walk, those of its own degree
    dominating key.  The residual is kept times (-1)^|nu|, so degree parity
    signs only the target and the settled coefficients, and homogeneous
    columns solve the plain system.  A column that breaks the order or names
    a key outside the index set leaves a key the walk has passed, and the
    solve raises ArithmeticError.
    """
    residual = {key: -c if sum(key) % 2 else c for key, c in target.items() if c}
    get, pop = residual.get, residual.pop
    out = {}
    d = None
    while residual:
        # the walk goes on at the next degree that holds a key
        after = max(map(sum, residual))
        if d is not None and after >= d:
            nu = next((key for key in residual if key in out), None)
            if nu is not None:
                raise ArithmeticError(f"a column puts back the settled key {nu}")
            nu = next(key for key in residual if sum(key) == after)
            raise ArithmeticError(f"a column names {nu}, outside the index set or behind the walk")
        d = after
        walk = listed_partitions(d, *args)
        if walk is None:
            here = [key for key in residual if sum(key) == d]
            first = min(here)
            walk = []
            for key in descending_partitions(d, *args, rows=max(map(len, here))):
                walk.append(key)
                if key == first:
                    break
        for key in reversed(walk):
            c = pop(key, 0)
            if c:
                for nu, t in column(key, *args).items():
                    residual[nu] = get(nu, 0) - c * t
                # the key's own entry puts back -c exactly when it is 1
                if pop(key, 0) != -c:
                    raise ArithmeticError(f"column {key} does not lead with coefficient 1")
                out[key] = -c if d % 2 else c
    return out


def _conjugated(coeffs: dict) -> dict[tuple[int, ...], int]:
    """The coefficients with every key conjugated."""
    return {conjugate(lam): c for lam, c in coeffs.items()}


def convert(f: SymFunc, target: str) -> SymFunc:
    """Exact change of basis among m, h, e, s; truncation bound is preserved.

    Every conversion goes to s and then from s, each step a row read, a
    column read or a unitriangular solve against the classical Kostka
    numbers; each column is swept only when a step reads it.  Both solves
    walk the partitions of each degree that holds a key, top degree first,
    each degree lex ascending from the least key there and over partitions
    no longer than the longest.  s -> h solves as h_mu is s_mu plus
    dominance-larger terms.  m -> s solves over conjugated keys: s_lam is
    m_lam plus dominance-smaller terms, and conjugation reverses dominance,
    so the row {mu': K(lam, mu)} keyed lam' meets the same order.  So s_(n)
    -> h lists one partition of n, and s_(30,30) -> h the 31 with two parts.
    """
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if f.basis == target:
        return f
    if f.k is not None:
        raise ValueError("a quotient element has no well-defined lift; convert before projecting")
    # omega swaps h_mu and e_mu and sends s_lam to s_lam', so the e-side
    # transitions are the h-side ones with the Schur indices conjugated
    if f.basis == "m":
        coeffs = _conjugated(solve_unitriangular(
            _conjugated(f.coeffs), lambda nu: _conjugated(_s_in_m(conjugate(nu)))))
    elif f.basis == "s":
        coeffs = f.coeffs
    else:
        coeffs = _linear(f.coeffs, _h_in_s)
        if f.basis == "e":
            coeffs = _conjugated(coeffs)
    if target == "m":
        coeffs = _linear(coeffs, _s_in_m)
    elif target != "s":
        # h_mu is s_mu plus dominance-larger, hence lexicographically larger, terms
        if target == "e":
            coeffs = _conjugated(coeffs)
        coeffs = solve_unitriangular(coeffs, _h_in_s)
    return SymFunc(target, coeffs, f.deg_max)


def hall_inner(f: SymFunc, g: SymFunc) -> int:
    """Hall pairing via <h_lam, m_mu> = delta; exact on sufficient truncations."""
    fh = convert(f, "h")
    gm = g if g.basis == "m" else convert(g, "m")
    if not fh.coeffs:
        return 0
    need = fh.max_degree()
    if gm.deg_max is not None and gm.deg_max < need:
        raise ValueError(
            f"pairing needs the m-side up to degree {need}, only {gm.deg_max} available"
        )
    return sum(c * gm.coeffs.get(lam, 0) for lam, c in fh.coeffs.items())


def binomial(n: int, j: int) -> int:
    """Falling-factorial binomial, defined for any integer n; 0 for j < 0."""
    if j < 0:
        return 0
    num = 1
    for t in range(j):
        num *= n - t
    val, rem = divmod(num, factorial(j))
    assert rem == 0
    return val
