"""The distinguished bases, their Pieri rules, involutions and check suites.

Finite objects (dual Grothendieck polynomials, their affine refinements,
k-Schur functions) are exact h-expansions obtained by graded triangular
back-substitution; the inherently infinite generating functions carry an
explicit truncation bound on their monomial expansions.
"""

from __future__ import annotations

from functools import cache

from .kostka import weight_column
from .partitions import (
    check_partition,
    conjugate,
    degree,
    is_k_bounded,
    k_bounded_partitions,
    k_bounded_up_to,
    k_conjugate,
    main_hook,
    partitions_of,
    Core,
    Record,
    _set,
)
from .symfunc import (
    SymFunc, _concat_product, _linear, binomial, convert, e, h, h_order, m_order, project_bounded,
    distinct_permutations, solve_unitriangular,
)
from .tableaux import (
    classical_kostka_column,
    count_kostka,
    enumerate_sv_strips,
    enumerate_sv_strips_vertical,
    kostka_column,
)

# ---------------------------------------------------------------------------
# triangular solves and weight series over tableau-count columns
#
# Writing h_mu = sum_lam (-1)^(|mu|-|lam|) K(lam, mu) g_lam for a family g,
# with K(lam, mu) the tableau count of shape lam and weight mu, the h-expansion
# of g_lam is the solution of that unitriangular system.  Solving against the
# unsigned columns and signing the solution by degree parity is the same
# thing: the signs are a diagonal change of basis on both sides.  The dual
# family G_lam is the series of the same signed counts over the weights mu.


def _solve_h(lam: tuple[int, ...], column) -> SymFunc:
    n = degree(lam)
    solved = solve_unitriangular({lam: 1}, column, h_order)
    return SymFunc("h", {mu: -c if (n - degree(mu)) % 2 else c for mu, c in solved.items()})


def _series(lam: tuple[int, ...], deg_max: int, weights, column, *args) -> dict:
    """m-coefficients (-1)^(|mu|-|lam|) column(mu)[lam], mu in weights(d), |lam| <= d <= deg_max."""
    n = degree(lam)
    if deg_max < n:
        raise ValueError(f"deg_max {deg_max} is below the degree of {lam}")
    coeffs: dict[tuple[int, ...], int] = {}
    for d in range(n, deg_max + 1):
        sign = -1 if (d - n) % 2 else 1
        for mu in weights(d, *args):
            count = column(mu, *args).get(lam)
            if count:
                coeffs[mu] = sign * count
    return coeffs


# ---------------------------------------------------------------------------
# classical dual Grothendieck polynomials


@cache
def dual_grothendieck(lam) -> SymFunc:
    """Exact h-expansion, from inverting the set-valued weight system."""
    return _solve_h(check_partition(lam), classical_kostka_column)


def grothendieck(lam, deg_max: int) -> SymFunc:
    """Monomial expansion of the stable Grothendieck polynomial, truncated."""
    lam = check_partition(lam)
    return SymFunc("m", _series(lam, deg_max, partitions_of, classical_kostka_column), deg_max)


# ---------------------------------------------------------------------------
# the affine families


@cache
def kkschur(lam, k: int) -> SymFunc:
    """Exact h-expansion of the K-theoretic affine family member for lam."""
    lam = check_partition(lam)
    if not is_k_bounded(lam, k):
        raise ValueError(f"{lam} is not {k}-bounded")
    return _solve_h(lam, lambda mu: weight_column(mu, k))


@cache
def k_schur(lam, k: int) -> SymFunc:
    """Exact homogeneous h-expansion from the k-tableau system."""
    lam = check_partition(lam)
    if not is_k_bounded(lam, k):
        raise ValueError(f"{lam} is not {k}-bounded")

    def top_column(mu):
        n = degree(mu)
        return {nu: c for nu, c in weight_column(mu, k).items() if degree(nu) == n}

    return _solve_h(lam, top_column)


def dual_k_schur(lam, k: int) -> SymFunc:
    """Weight generating function of the homogeneous tableau family, in m mod the level ideal."""
    lam = check_partition(lam)
    if not is_k_bounded(lam, k):
        raise ValueError(f"{lam} is not {k}-bounded")
    n = degree(lam)
    return SymFunc("m", _series(lam, n, k_bounded_partitions, weight_column, k), None, k)


def affine_grothendieck(lam, k: int, deg_max: int) -> SymFunc:
    """Signed weight generating function over all weights up to deg_max."""
    lam = check_partition(lam)
    if not is_k_bounded(lam, k):
        raise ValueError(f"{lam} is not {k}-bounded")
    coeffs = _series(lam, deg_max, k_bounded_partitions, weight_column, k)
    return SymFunc("m", coeffs, deg_max, k)


# ---------------------------------------------------------------------------
# Pieri rules


class PieriResult(Record):
    """Signed expansion of a Pieri product, with the raw strip multiset.

    Two results are equal when they answer the same question: terms and
    strips take no part in equality or hashing.
    """

    __slots__ = ("direction", "lam", "r", "k", "terms", "strips")

    def __init__(
        self,
        direction: str,
        lam: tuple[int, ...],
        r: int,
        k: int,
        terms: dict[tuple[int, ...], int],
        strips: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
    ):
        _set(self, "direction", direction)
        _set(self, "lam", lam)
        _set(self, "r", r)
        _set(self, "k", k)
        _set(self, "terms", terms)
        _set(self, "strips", strips)

    def _key(self) -> tuple:
        return (self.direction, self.lam, self.r, self.k)

    def as_symfunc(self) -> SymFunc:
        """Sum of the expansion re-expanded into the h-basis."""
        return SymFunc("h", _linear(self.terms, lambda mu: kkschur(mu, self.k).coeffs))


def _pieri(direction: str, lam, r: int, k: int) -> PieriResult:
    lam = check_partition(lam)
    if not is_k_bounded(lam, k):
        raise ValueError(f"{lam} is not {k}-bounded")
    if not 0 <= r <= k:
        raise ValueError(f"r must lie in [0, {k}]: {r}")
    beta = Core.from_bounded(lam, k)
    enum = enumerate_sv_strips if direction == "row" else enumerate_sv_strips_vertical
    terms: dict[tuple[int, ...], int] = {}
    strips = []
    for gamma, rho in enum(beta, r):
        mu = gamma.to_bounded()
        strips.append((mu, rho))
        sign = -1 if (degree(lam) + r - degree(mu)) % 2 else 1
        terms[mu] = terms.get(mu, 0) + sign
    terms = {mu: c for mu, c in terms.items() if c}
    return PieriResult(direction, lam, r, k, terms, tuple(sorted(strips)))


def row_pieri(lam, r: int, k: int) -> PieriResult:
    """Expansion of the degree-r row generator times the lam element."""
    return _pieri("row", lam, r, k)


def column_pieri(lam, r: int, k: int) -> PieriResult:
    """Expansion of the r-fold column generator times the lam element."""
    return _pieri("col", lam, r, k)


# ---------------------------------------------------------------------------
# involutions


def omega_classical(f: SymFunc) -> SymFunc:
    """The h <-> e swap; sends a Schur element to its conjugate."""
    if f.k is not None:
        raise ValueError("omega acts on the full ring, not the quotient")
    if f.basis == "s":
        return SymFunc("s", {conjugate(lam): c for lam, c in f.coeffs.items()}, f.deg_max)
    if f.basis == "m":
        f = convert(f, "h")
    swapped = "e" if f.basis == "h" else "h"
    return SymFunc(swapped, dict(f.coeffs), f.deg_max)


@cache
def _omega_big_h(r: int) -> SymFunc:
    """Image of a single complete generator, re-expressed in the h-basis."""
    if r == 0:
        return h(())
    return convert(SymFunc("e", {(j,): binomial(r - 1, j - 1) for j in range(1, r + 1)}), "h")


def _omega_big_image(lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """h-coefficients of the image of h_lam: the product of its generators' images."""
    image = {(): 1}
    for r in lam:
        image = _concat_product(image, _omega_big_h(r).coeffs)
    return image


def omega_big(f: SymFunc) -> SymFunc:
    """The inhomogeneous conjugation h_r -> sum_j C(r-1, j-1) e_j, multiplicatively."""
    fh = convert(f, "h")
    if fh.deg_max is not None:
        raise ValueError("the inhomogeneous conjugation needs an exact expansion")
    return SymFunc("h", _linear(fh.coeffs, _omega_big_image))


# ---------------------------------------------------------------------------
# triangular re-expansion into distinguished families


def expand_in_family(f: SymFunc, family, index_sets) -> dict[tuple[int, ...], int]:
    """Coefficients of f in a graded-unitriangular h-basis family.

    family(mu) must have leading h-term at mu, same-degree keys dominating mu
    and otherwise lower-degree keys; index_sets(d) lists the family indices of
    degree d.  Solving top degree first, each degree in lex (a dominance
    linear extension) ascending, makes the solve exact.
    """
    work = convert(f, "h")
    if work.deg_max is not None:
        raise ValueError("re-expansion needs an exact h-expansion")
    members = {nu for d in range(work.max_degree() + 1) for nu in index_sets(d)}

    def column(nu):
        if nu not in members:
            raise ValueError(f"element is not in the span of the family at degree {degree(nu)}")
        return convert(family(nu), "h").coeffs

    return solve_unitriangular(work.coeffs, column, h_order)


def expand_in_dual_family(
    f: SymFunc, family, index_sets, deg_max: int
) -> dict[tuple[int, ...], int]:
    """Coefficients of f in a family with unitriangular monomial leading terms.

    family(mu) must expand as m_mu plus dominance-smaller same-degree terms
    plus higher-degree terms.  Solving bottom degree first, each degree in lex
    descending, gives coefficients exact up to deg_max.
    """
    members = {nu for d in range(deg_max + 1) for nu in index_sets(d)}

    def column(nu):
        if nu not in members:
            raise ValueError("element is not in the span of the family at this truncation")
        return convert(family(nu), "m").truncate(deg_max).coeffs

    return solve_unitriangular(convert(f, "m").truncate(deg_max).coeffs, column, m_order)


def expand_in_kkschur(f: SymFunc, k: int) -> dict[tuple[int, ...], int]:
    return expand_in_family(f, lambda mu: kkschur(mu, k), lambda d: k_bounded_partitions(d, k))


# ---------------------------------------------------------------------------
# identity checks


def verify_newton(ell: int) -> bool:
    """Alternating pairing of complete and elementary generators vanishes.

    The degree-0 instance is the constant-term identity, so the sum is 1
    there and 0 for every positive degree.
    """
    acc = SymFunc("h", {})
    for r in range(ell + 1):
        sign = -1 if r % 2 else 1
        term = h((ell - r,) if ell - r else ()) * convert(e((r,) if r else ()), "h")
        acc = acc + sign * term
    want = h(()) if ell == 0 else SymFunc("h", {})
    return acc == want


def verify_k_newton(ell: int) -> bool:
    """K-theoretic Newton identity over row and column dual Grothendiecks.

    The sum telescopes to two plain Newton sums in adjacent degrees, so its
    value is +1 at degree 0, -1 at degree 1 and 0 from degree 2 on; the
    check pins those constants exactly.
    """
    acc = SymFunc("h", {})
    for r in range(ell + 1):
        for j in range(r + 1):
            coeff = binomial(r - 2, j)
            if not coeff:
                continue
            sign = -1 if (j + r) % 2 else 1
            row = dual_grothendieck((ell - r,) if ell - r else ())
            col = dual_grothendieck((1,) * (r - j))
            acc = acc + sign * coeff * (row * col)
    if ell == 0:
        return acc == h(())
    if ell == 1:
        return acc == -1 * h(())
    return acc.is_zero()


# ---------------------------------------------------------------------------
# verification suites


class CheckResult(Record):
    """The instances one verify suite ran and the messages of those that failed.

    Unlike the other records it is filled in as the suite runs, so its fields
    can be assigned and it has no hash.
    """

    __slots__ = ("check", "params", "instances", "failures")

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, check: str, params: dict, instances: int = 0, failures: list[str] | None = None
    ):
        self.check = check
        self.params = params
        self.instances = instances
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        # a check that ran on nothing shows nothing
        return self.instances > 0 and not self.failures

    def record(self, condition: bool, message: str):
        self.instances += 1
        if not condition:
            self.failures.append(message)


def verify_duality(k: int, deg_max: int) -> CheckResult:
    """Hall pairing of the two affine families is the identity matrix.

    With <h_nu, m_nu'> = delta the pairing matrix is one sparse product: each
    g[lam]'s h-coefficients meet the G[mu]'s m-coefficients of the same key.
    It is exact because every g[lam] has degree at most deg_max.
    """
    res = CheckResult("duality", {"k": k, "deg_max": deg_max})
    shapes = k_bounded_up_to(deg_max, k)
    big_by_key: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for mu in shapes:
        for nu, c in affine_grothendieck(mu, k, deg_max).coeffs.items():
            big_by_key.setdefault(nu, {})[mu] = c
    for lam in shapes:
        row = _linear(kkschur(lam, k).coeffs, lambda nu: big_by_key.get(nu, {}))
        for mu in shapes:
            want = 1 if lam == mu else 0
            got = row.get(mu, 0)
            res.record(got == want, f"<g[{lam}], G[{mu}]> = {got}, expected {want}")
    return res


def verify_omega(k: int, deg_max: int) -> CheckResult:
    """The inhomogeneous conjugation squares to one and permutes the family."""
    res = CheckResult("omega", {"k": k, "deg_max": deg_max})
    for lam in k_bounded_up_to(deg_max, k):
        back = omega_big(omega_big(h(lam)))
        res.record(back == h(lam), f"omega^2 moved h[{lam}]")
        image = omega_big(kkschur(lam, k))
        want = kkschur(k_conjugate(lam, k), k)
        res.record(image == want, f"omega g[{lam}] != g[{k_conjugate(lam, k)}]")
    return res


def verify_newton_suite(deg_max: int) -> CheckResult:
    res = CheckResult("newton", {"deg_max": deg_max})
    for ell in range(deg_max + 1):
        res.record(verify_newton(ell), f"Newton identity fails at degree {ell}")
    return res


def verify_k_newton_suite(deg_max: int) -> CheckResult:
    res = CheckResult("k-newton", {"deg_max": deg_max})
    for ell in range(deg_max + 1):
        res.record(verify_k_newton(ell), f"K-Newton identity fails at degree {ell}")
    return res


def verify_reduction_g(k: int, deg_max: int) -> CheckResult:
    """Small shapes reduce to classical duals; top terms are k-Schur."""
    res = CheckResult("reduction-g", {"k": k, "deg_max": deg_max})
    for lam in k_bounded_up_to(deg_max, k):
        g = kkschur(lam, k)
        if degree(lam) <= k:
            res.record(g == dual_grothendieck(lam), f"g[{lam}] != classical dual at k={k}")
        top = g.homogeneous(degree(lam))
        res.record(top == k_schur(lam, k), f"top of g[{lam}] is not the k-Schur element")
    return res


def verify_reduction_G(k: int, deg_max: int) -> CheckResult:
    """Low hooks reduce to classical; lowest terms are the homogeneous duals."""
    res = CheckResult("reduction-G", {"k": k, "deg_max": deg_max})
    for lam in k_bounded_up_to(deg_max, k):
        bound = degree(lam) + 3
        big = affine_grothendieck(lam, k, bound)
        if main_hook(lam) <= k:
            classical = grothendieck(lam, bound)
            res.record(
                big.coeffs == classical.coeffs,
                f"G[{lam}] differs from the classical expansion at k={k}",
            )
        lowest = big.homogeneous(degree(lam))
        res.record(
            lowest == dual_k_schur(lam, k),
            f"lowest component of G[{lam}] is not the dual k-Schur element",
        )
    return res


def verify_pieri(k: int, deg_max: int) -> CheckResult:
    """Strip expansions match the direct h-basis products."""
    res = CheckResult("pieri-consistency", {"k": k, "deg_max": deg_max})
    for lam in k_bounded_up_to(deg_max, k):
        g = kkschur(lam, k)
        for r in range(1, k + 1):
            row = row_pieri(lam, r, k).as_symfunc()
            res.record(row == h((r,)) * g, f"row rule fails at lam={lam}, r={r}")
            col = column_pieri(lam, r, k).as_symfunc()
            res.record(
                col == kkschur((1,) * r, k) * g, f"column rule fails at lam={lam}, r={r}"
            )
    return res


def verify_kostka_symmetry(k: int, deg_max: int) -> CheckResult:
    """Tableau counts are invariant under rearranging the weight."""
    res = CheckResult("kostka-symmetry", {"k": k, "deg_max": deg_max})
    for mu in k_bounded_up_to(deg_max, k):
        if not mu:
            continue
        shapes = k_bounded_up_to(degree(mu), k)
        base = {lam: count_kostka(lam, mu, k) for lam in shapes}
        for arrangement in distinct_permutations(mu):
            if arrangement == mu:
                continue
            column = kostka_column(arrangement, k)
            for lam in shapes:
                got = column.get(lam, 0)
                res.record(
                    got == base[lam],
                    f"count({lam}, {arrangement}) = {got} != {base[lam]}",
                )
    return res


def verify_bijection(k: int, deg_max: int) -> CheckResult:
    """Chain, factorization and direct-definition enumerations coincide."""
    from itertools import product as iproduct

    from .partitions import core_to_bounded
    from .tableaux import enumerate_tableaux, fits_affine_sv_blocks, is_standard_affine_sv
    from .words import DeadWordError, ResidueWord, factorizations_by_shape, standard_tableau_of_word

    res = CheckResult("bijection", {"k": k, "deg_max": deg_max})
    for n in range(deg_max + 1):
        # the (bounded shape, standard filling) pair of every alive word of length n;
        # standardness does not depend on the weight, so it is checked once per word
        alive = []
        for letters in iproduct(range(k + 1), repeat=n):
            try:
                t = standard_tableau_of_word(ResidueWord(letters, k))
            except DeadWordError:
                continue
            if is_standard_affine_sv(t, k):
                alive.append((core_to_bounded(t.shape, k), t))
        for alpha in [a for mu in k_bounded_partitions(n, k) for a in distinct_permutations(mu)]:
            factorizations = factorizations_by_shape(alpha, k)
            fillings_by_shape: dict[tuple[int, ...], set] = {}
            for lam, t in alive:
                if fits_affine_sv_blocks(t, alpha, k):
                    fillings_by_shape.setdefault(lam, set()).add(t)
            for lam in k_bounded_up_to(n, k):
                direct = fillings_by_shape.get(lam, set())
                chains = enumerate_tableaux(lam, alpha, k)
                from_chains = {ch.to_filling(alpha) for ch in chains}
                res.record(
                    from_chains == direct,
                    f"chain fillings differ from direct fillings at lam={lam}, alpha={alpha}",
                )
                count = count_kostka(lam, alpha, k)
                factor = len(factorizations.get(lam, ()))
                res.record(
                    len(chains) == count == factor == len(direct),
                    f"counts disagree at lam={lam}, alpha={alpha}: chains={len(chains)} "
                    f"dp={count} factorizations={factor} direct={len(direct)}",
                )
    return res


VERIFY_CHECKS = {
    "duality": lambda k, n: verify_duality(k, n),
    "omega": lambda k, n: verify_omega(k, n),
    "newton": lambda k, n: verify_newton_suite(n),
    "k-newton": lambda k, n: verify_k_newton_suite(n),
    "reduction-G": lambda k, n: verify_reduction_G(k, n),
    "reduction-g": lambda k, n: verify_reduction_g(k, n),
    "pieri-consistency": lambda k, n: verify_pieri(k, n),
    "kostka-symmetry": lambda k, n: verify_kostka_symmetry(k, n),
    "bijection": lambda k, n: verify_bijection(k, n),
}


# ---------------------------------------------------------------------------
# conjecture scans: findings, never failures


def _sign_entries(rows, expect_nonneg_after_sign: bool):
    entries = []
    violations = []
    for lam, mu, coeff in rows:
        signed = coeff if not expect_nonneg_after_sign else (
            coeff if (degree(lam) + degree(mu)) % 2 == 0 else -coeff
        )
        entry = {
            "lam": list(lam),
            "mu": list(mu),
            "coeff": coeff,
            "normalized": signed,
            "sign_ok": signed >= 0,
        }
        entries.append(entry)
        if signed < 0:
            violations.append(entry)
    return entries, violations


def scan_G_in_dualks(k: int, deg_max: int) -> dict:
    rows = []
    for lam in k_bounded_up_to(deg_max, k):
        big = affine_grothendieck(lam, k, deg_max)
        coeffs = expand_in_dual_family(
            big, lambda mu: dual_k_schur(mu, k), lambda d: k_bounded_partitions(d, k), deg_max
        )
        rows.extend((lam, mu, c) for mu, c in sorted(coeffs.items()))
    entries, violations = _sign_entries(rows, True)
    return _report("G-in-dualks-positivity", k, deg_max, entries, violations)


def scan_gk_in_g(k: int, deg_max: int) -> dict:
    rows = []
    for lam in k_bounded_up_to(deg_max, k):
        coeffs = expand_in_family(kkschur(lam, k), dual_grothendieck, partitions_of)
        rows.extend((lam, mu, c) for mu, c in sorted(coeffs.items()))
    entries, violations = _sign_entries(rows, True)
    return _report("gk-in-g-positivity", k, deg_max, entries, violations)


def scan_gk_branching(k: int, deg_max: int) -> dict:
    """Level k expressed at level k+1, on both sides of the duality."""
    rows = []
    for lam in k_bounded_up_to(deg_max, k):
        coeffs = expand_in_family(
            kkschur(lam, k),
            lambda mu: kkschur(mu, k + 1),
            lambda d: k_bounded_partitions(d, k + 1),
        )
        rows.extend((lam, mu, c) for mu, c in sorted(coeffs.items()))
    entries, violations = _sign_entries(rows, True)
    # dual side: level-(k+1) generating functions reduced into level k
    for lam in k_bounded_up_to(deg_max, k + 1):
        coeffs = expand_in_dual_family(
            project_bounded(affine_grothendieck(lam, k + 1, deg_max), k),
            lambda mu: affine_grothendieck(mu, k, deg_max),
            lambda d: k_bounded_partitions(d, k),
            deg_max,
        )
        sub_rows = [(lam, mu, c) for mu, c in sorted(coeffs.items())]
        sub_entries, sub_violations = _sign_entries(sub_rows, True)
        for entry in sub_entries:
            entry["series"] = "generating-function-branching"
        entries.extend(sub_entries)
        violations.extend(sub_violations)
    return _report("gk-branching-positivity", k, deg_max, entries, violations)


def scan_s_in_Gk(k: int, deg_max: int) -> dict:
    from .symfunc import s as schur

    rows = []
    for lam in k_bounded_up_to(deg_max, k):
        coeffs = expand_in_dual_family(
            project_bounded(schur(lam), k),
            lambda mu: affine_grothendieck(mu, k, deg_max),
            lambda d: k_bounded_partitions(d, k),
            deg_max,
        )
        rows.extend((lam, mu, c) for mu, c in sorted(coeffs.items()))
    entries, violations = _sign_entries(rows, False)
    return _report("s-in-Gk-positivity", k, deg_max, entries, violations)


def scan_kss_cancellation(k: int, deg_max: int) -> dict:
    """Whether low-hook members equal their classical limits exactly."""
    entries = []
    violations = []
    for lam in k_bounded_up_to(deg_max, k):
        if main_hook(lam) > k:
            continue
        residual = kkschur(lam, k) - dual_grothendieck(lam)
        entry = {
            "lam": list(lam),
            "mu": list(lam),
            "coeff": len(residual.coeffs),
            "normalized": len(residual.coeffs),
            "sign_ok": residual.is_zero(),
            "exact": residual.is_zero(),
        }
        entries.append(entry)
        if not residual.is_zero():
            violations.append(entry)
    return _report("kss-cancellation", k, deg_max, entries, violations)


def _report(name: str, k: int, deg_max: int, entries, violations) -> dict:
    return {
        "conjecture": name,
        "k": k,
        "deg_max": deg_max,
        "entries": entries,
        "violations": violations,
    }


SCANS = {
    "G-in-dualks-positivity": scan_G_in_dualks,
    "gk-in-g-positivity": scan_gk_in_g,
    "gk-branching-positivity": scan_gk_branching,
    "s-in-Gk-positivity": scan_s_in_Gk,
    "kss-cancellation": scan_kss_cancellation,
}
