"""The distinguished bases, their Pieri rules, involutions and check suites.

Finite objects (dual Grothendieck polynomials, their affine refinements,
k-Schur functions) are exact h-expansions obtained by graded triangular
back-substitution; the inherently infinite generating functions carry an
explicit truncation bound on their monomial expansions.
"""

from __future__ import annotations

from functools import cache

from .kostka import _column
from .partitions import (
    bounded_to_core,
    check_bounded,
    check_partition,
    core_to_bounded,
    degree,
    k_bounded_partitions,
    k_bounded_up_to,
    k_conjugate,
    main_hook,
    partitions_of,
    Record,
    _set,
)
from .symfunc import (
    SymFunc, _linear, binomial, convert, e, h, h_order, m_order, project_bounded,
    distinct_permutations, solve_unitriangular,
)
from .tableaux import (
    _strip_transitions,
    _vertical_transitions,
    classical_kostka_column,
    count_kostka,
    kostka_column,
    sweep,
)

# ---------------------------------------------------------------------------
# triangular solves and weight series over tableau-count columns
#
# Writing h_mu = sum_lam (-1)^(|mu|-|lam|) K(lam, mu) g_lam for a family g,
# with K(lam, mu) the tableau count of shape lam and weight mu, the h-expansion
# of g_lam is the solution of that unitriangular system.  Solving against the
# unsigned columns between two signings by degree parity is the same thing:
# the signs are a diagonal change of basis on both sides.  Read forwards, the
# same signed counts re-expand any f into the family (expand_in_family), and
# the dual family G_lam is their series over the weights mu.


def _signed(coeffs: dict) -> dict[tuple[int, ...], int]:
    """The nonzero coefficients, each times (-1)^|mu| for its key mu."""
    return {mu: -c if sum(mu) % 2 else c for mu, c in coeffs.items() if c}


def _solve_h(lam: tuple[int, ...], column) -> SymFunc:
    return SymFunc("h", _signed(solve_unitriangular(_signed({lam: 1}), column, h_order)))


def _series(lam: tuple[int, ...], deg_max: int, weights, column) -> dict:
    """m-coefficients (-1)^(|mu|-|lam|) column(mu)[lam], mu in weights(d), |lam| <= d <= deg_max."""
    n = degree(lam)
    if deg_max < n:
        raise ValueError(f"deg_max {deg_max} is below the degree of {lam}")
    coeffs: dict[tuple[int, ...], int] = {}
    for d in range(n, deg_max + 1):
        sign = -1 if (d - n) % 2 else 1
        for mu in weights(d):
            count = column(mu).get(lam)
            if count:
                coeffs[mu] = sign * count
    return coeffs


# ---------------------------------------------------------------------------
# classical dual Grothendieck polynomials


@cache
def dual_grothendieck(lam) -> SymFunc:
    """Exact h-expansion, from inverting the set-valued weight system."""
    return _solve_h(check_partition(lam), classical_kostka_column)


@cache
def grothendieck(lam, deg_max: int) -> SymFunc:
    """Monomial expansion of the stable Grothendieck polynomial, truncated."""
    lam = check_partition(lam)
    return SymFunc("m", _series(lam, deg_max, partitions_of, classical_kostka_column), deg_max)


# ---------------------------------------------------------------------------
# the affine families


@cache
def kkschur(lam, k: int) -> SymFunc:
    """Exact h-expansion of the K-theoretic affine family member for lam."""
    lam = check_bounded(lam, k)
    return _solve_h(lam, lambda mu: _column(mu, k))


@cache
def k_schur(lam, k: int) -> SymFunc:
    """Exact homogeneous h-expansion from the k-tableau system."""
    lam = check_bounded(lam, k)

    def top_column(mu):
        n = degree(mu)
        return {nu: c for nu, c in _column(mu, k).items() if degree(nu) == n}

    return _solve_h(lam, top_column)


@cache
def dual_k_schur(lam, k: int) -> SymFunc:
    """Weight generating function of the homogeneous tableau family, in m mod the level ideal."""
    lam = check_bounded(lam, k)
    coeffs = _series(lam, degree(lam), lambda d: k_bounded_partitions(d, k),
                     lambda mu: _column(mu, k))
    return SymFunc("m", coeffs, None, k)


@cache
def affine_grothendieck(lam, k: int, deg_max: int) -> SymFunc:
    """Signed weight generating function over all weights up to deg_max."""
    lam = check_bounded(lam, k)
    coeffs = _series(lam, deg_max, lambda d: k_bounded_partitions(d, k),
                     lambda mu: _column(mu, k))
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
    """The row rule reads the strip transitions of lam's core; the column rule their transport."""
    lam = check_bounded(lam, k)
    if not 0 <= r <= k:
        raise ValueError(f"r must lie in [0, {k}]: {r}")
    beta = bounded_to_core(lam, k).shape
    transitions = _strip_transitions if direction == "row" else _vertical_transitions
    top = degree(lam) + r
    terms: dict[tuple[int, ...], int] = {}
    strips = []
    for gamma, rho in transitions(beta, r, k):
        mu = core_to_bounded(gamma, k)
        strips.append((mu, rho))
        terms[mu] = terms.get(mu, 0) + (-1 if (top - degree(mu)) % 2 else 1)
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


@cache
def _omega_big_h(r: int) -> SymFunc:
    """Image of a single complete generator, re-expressed in the h-basis."""
    if r == 0:
        return h(())
    return convert(SymFunc("e", {(j,): binomial(r - 1, j - 1) for j in range(1, r + 1)}), "h")


@cache
def _omega_step(shape: tuple[int, ...], r: int):
    """(key, coefficient) pairs: the h-term shape times the image of h_r."""
    return tuple(
        (tuple(sorted(shape + key, reverse=True)), c) for key, c in _omega_big_h(r).coeffs.items()
    )


def omega_big(f: SymFunc) -> SymFunc:
    """The inhomogeneous conjugation h_r -> sum_j C(r-1, j-1) e_j, multiplicatively.

    The image of h_lam is the sweep of lam's parts through _omega_step, so
    images that share a prefix of parts share its product.
    """
    fh = convert(f, "h")
    if fh.deg_max is not None:
        raise ValueError("the inhomogeneous conjugation needs an exact expansion")
    return SymFunc("h", _linear(fh.coeffs, lambda lam: sweep(lam, _omega_step)))


# ---------------------------------------------------------------------------
# re-expansion into distinguished families


def expand_in_family(f: SymFunc, column, index_sets) -> dict[tuple[int, ...], int]:
    """Coefficients of f in an h-side family, one signed product with its count columns.

    column(mu) is the count column {nu: K(nu, mu)} that defines the family,
    as for _solve_h, and index_sets(d) lists the family indices of degree d.
    Since h_mu = sum_nu (-1)^(|mu|-|nu|) K(nu, mu) g_nu, the coefficient of
    g_nu is sum_mu (-1)^(|mu|-|nu|) K(nu, mu) f[mu] over the h-terms of f;
    no family member is built.  The members span the h_mu with mu an index,
    so any other h-term puts f outside the span.
    """
    work = convert(f, "h")
    if work.deg_max is not None:
        raise ValueError("re-expansion needs an exact h-expansion")
    members = {nu for d in range(work.max_degree() + 1) for nu in index_sets(d)}
    for mu in work.coeffs:
        if mu not in members:
            raise ValueError(f"element is not in the span of the family at degree {degree(mu)}")
    return _signed(_linear(_signed(work.coeffs), column))


def expand_in_dual_family(
    f: SymFunc, family, index_sets, deg_max: int
) -> dict[tuple[int, ...], int]:
    """Coefficients of f in a family with unitriangular monomial leading terms.

    family(mu) must expand as m_mu plus dominance-smaller same-degree terms
    plus higher-degree terms.  Solving bottom degree first, each degree in lex
    descending, against the members' m-coefficients up to deg_max gives
    coefficients exact up to deg_max.
    """
    members = {nu for d in range(deg_max + 1) for nu in index_sets(d)}

    def column(nu):
        if nu not in members:
            raise ValueError("element is not in the span of the family at this truncation")
        member = convert(family(nu), "m")
        if member.deg_max is not None and member.deg_max <= deg_max:
            return member.coeffs
        return {mu: c for mu, c in member.coeffs.items() if sum(mu) <= deg_max}

    return solve_unitriangular(convert(f, "m").truncate(deg_max).coeffs, column, m_order)


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

    A suite states each comparison once through expect, which builds the
    instance's message only when the comparison fails.  Unlike the other
    records it is filled in as the suite runs, so its fields can be assigned
    and it has no hash.
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

    def expect(self, got, want, template: str, **inputs):
        """Count one instance; if got != want, keep template filled with got, want and inputs."""
        self.instances += 1
        if got != want:
            self.failures.append(template.format(got=got, want=want, **inputs))


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
            res.expect(row.get(mu, 0), int(lam == mu),
                       "<g[{lam}], G[{mu}]> = {got}, expected {want}", lam=lam, mu=mu)
    return res


def verify_omega(k: int, deg_max: int) -> CheckResult:
    """The inhomogeneous conjugation squares to one and permutes the family."""
    res = CheckResult("omega", {"k": k, "deg_max": deg_max})
    for lam in k_bounded_up_to(deg_max, k):
        res.expect(omega_big(omega_big(h(lam))), h(lam), "omega^2 moved h[{lam}]", lam=lam)
        conj = k_conjugate(lam, k)
        res.expect(omega_big(kkschur(lam, k)), kkschur(conj, k),
                   "omega g[{lam}] != g[{conj}]", lam=lam, conj=conj)
    return res


def verify_newton_suite(deg_max: int) -> CheckResult:
    res = CheckResult("newton", {"deg_max": deg_max})
    for ell in range(deg_max + 1):
        res.expect(verify_newton(ell), True, "Newton identity fails at degree {ell}", ell=ell)
    return res


def verify_k_newton_suite(deg_max: int) -> CheckResult:
    res = CheckResult("k-newton", {"deg_max": deg_max})
    for ell in range(deg_max + 1):
        res.expect(verify_k_newton(ell), True, "K-Newton identity fails at degree {ell}", ell=ell)
    return res


def verify_reduction_g(k: int, deg_max: int) -> CheckResult:
    """Small shapes reduce to classical duals; top terms are k-Schur."""
    res = CheckResult("reduction-g", {"k": k, "deg_max": deg_max})
    for lam in k_bounded_up_to(deg_max, k):
        g = kkschur(lam, k)
        if degree(lam) <= k:
            res.expect(g, dual_grothendieck(lam), "g[{lam}] != classical dual at k={k}",
                       lam=lam, k=k)
        res.expect(g.homogeneous(degree(lam)), k_schur(lam, k),
                   "top of g[{lam}] is not the k-Schur element", lam=lam)
    return res


def verify_reduction_G(k: int, deg_max: int) -> CheckResult:
    """Low hooks reduce to classical; lowest terms are the homogeneous duals."""
    res = CheckResult("reduction-G", {"k": k, "deg_max": deg_max})
    for lam in k_bounded_up_to(deg_max, k):
        bound = degree(lam) + 3
        big = affine_grothendieck(lam, k, bound)
        if main_hook(lam) <= k:
            res.expect(big.coeffs, grothendieck(lam, bound).coeffs,
                       "G[{lam}] differs from the classical expansion at k={k}", lam=lam, k=k)
        res.expect(big.homogeneous(degree(lam)), dual_k_schur(lam, k),
                   "lowest component of G[{lam}] is not the dual k-Schur element", lam=lam)
    return res


def verify_pieri(k: int, deg_max: int) -> CheckResult:
    """Strip expansions match the direct h-basis products."""
    res = CheckResult("pieri-consistency", {"k": k, "deg_max": deg_max})
    rows = {r: h((r,)) for r in range(1, k + 1)}
    columns = {r: kkschur((1,) * r, k) for r in range(1, k + 1)}
    for lam in k_bounded_up_to(deg_max, k):
        g = kkschur(lam, k)
        for r in range(1, k + 1):
            res.expect(row_pieri(lam, r, k).as_symfunc(), rows[r] * g,
                       "row rule fails at lam={lam}, r={r}", lam=lam, r=r)
            res.expect(column_pieri(lam, r, k).as_symfunc(), columns[r] * g,
                       "column rule fails at lam={lam}, r={r}", lam=lam, r=r)
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
                res.expect(column.get(lam, 0), base[lam],
                           "count({lam}, {arrangement}) = {got} != {want}",
                           lam=lam, arrangement=arrangement)
    return res


def verify_bijection(k: int, deg_max: int) -> CheckResult:
    """Chains, the DP count, factorizations and direct fillings give the same tableaux.

    A direct filling is an alive word's, checked standard letter by letter; it
    takes a weight when each of the weight's blocks is in its valid_blocks table.
    """
    from itertools import accumulate

    from .tableaux import enumerate_tableaux, is_standard_affine_sv, valid_blocks
    from .words import alive_words, factorizations_by_shape, standard_tableau_of_word

    res = CheckResult("bijection", {"k": k, "deg_max": deg_max})
    for n in range(deg_max + 1):
        # the bounded shape, standard filling and valid blocks of every alive word
        # of length n; none depends on the weight, so each is found once per word
        alive = []
        for word in alive_words(n, k):
            t = standard_tableau_of_word(word)
            if is_standard_affine_sv(t, k):
                alive.append((core_to_bounded(t.shape, k), t, valid_blocks(t, k)))
        for alpha in [a for mu in k_bounded_partitions(n, k) for a in distinct_permutations(mu)]:
            ends = list(accumulate(alpha, initial=1))
            blocks = set(zip(ends, ends[1:]))
            factorizations = factorizations_by_shape(alpha, k)
            fillings_by_shape: dict[tuple[int, ...], set] = {}
            for lam, t, table in alive:
                if blocks <= table:
                    fillings_by_shape.setdefault(lam, set()).add(t)
            for lam in k_bounded_up_to(n, k):
                direct = fillings_by_shape.get(lam, set())
                chains = enumerate_tableaux(lam, alpha, k)
                res.expect({ch.to_filling(alpha) for ch in chains}, direct,
                           "chain fillings differ from direct fillings at lam={lam}, alpha={alpha}",
                           lam=lam, alpha=alpha)
                factor = len(factorizations.get(lam, ()))
                res.expect((len(chains), count_kostka(lam, alpha, k), factor), (len(direct),) * 3,
                           "counts disagree at lam={lam}, alpha={alpha}: chains={got[0]} "
                           "dp={got[1]} factorizations={got[2]} direct={want[0]}",
                           lam=lam, alpha=alpha)
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


def _entries(rows, signed: bool = True, **fields) -> list[dict]:
    """Report entries of (lam, mu, coeff) rows with the extra fields, which may set sign_ok.

    A signed row's coefficient is normalized by the parity of |lam| + |mu|.
    """
    entries = []
    for lam, mu, coeff in rows:
        normalized = -coeff if signed and (degree(lam) + degree(mu)) % 2 else coeff
        entries.append({
            "lam": list(lam),
            "mu": list(mu),
            "coeff": coeff,
            "normalized": normalized,
            "sign_ok": normalized >= 0,
            **fields,
        })
    return entries


def _report(name: str, k: int, deg_max: int, entries: list[dict]) -> dict:
    """A scan's report: its findings are the entries that are not sign_ok."""
    return {
        "conjecture": name,
        "k": k,
        "deg_max": deg_max,
        "entries": entries,
        "violations": [entry for entry in entries if not entry["sign_ok"]],
    }


def scan_G_in_dualks(k: int, deg_max: int) -> dict:
    rows = []
    for lam in k_bounded_up_to(deg_max, k):
        big = affine_grothendieck(lam, k, deg_max)
        coeffs = expand_in_dual_family(
            big, lambda mu: dual_k_schur(mu, k), lambda d: k_bounded_partitions(d, k), deg_max
        )
        rows.extend((lam, mu, c) for mu, c in sorted(coeffs.items()))
    return _report("G-in-dualks-positivity", k, deg_max, _entries(rows))


def scan_gk_in_g(k: int, deg_max: int) -> dict:
    rows = []
    for lam in k_bounded_up_to(deg_max, k):
        coeffs = expand_in_family(kkschur(lam, k), classical_kostka_column, partitions_of)
        rows.extend((lam, mu, c) for mu, c in sorted(coeffs.items()))
    return _report("gk-in-g-positivity", k, deg_max, _entries(rows))


def scan_gk_branching(k: int, deg_max: int) -> dict:
    """Level k expressed at level k+1, on both sides of the duality."""
    rows = []
    for lam in k_bounded_up_to(deg_max, k):
        coeffs = expand_in_family(
            kkschur(lam, k),
            lambda mu: _column(mu, k + 1),
            lambda d: k_bounded_partitions(d, k + 1),
        )
        rows.extend((lam, mu, c) for mu, c in sorted(coeffs.items()))
    # dual side: level-(k+1) generating functions reduced into level k
    dual_rows = []
    for lam in k_bounded_up_to(deg_max, k + 1):
        coeffs = expand_in_dual_family(
            project_bounded(affine_grothendieck(lam, k + 1, deg_max), k),
            lambda mu: affine_grothendieck(mu, k, deg_max),
            lambda d: k_bounded_partitions(d, k),
            deg_max,
        )
        dual_rows.extend((lam, mu, c) for mu, c in sorted(coeffs.items()))
    entries = _entries(rows) + _entries(dual_rows, series="generating-function-branching")
    return _report("gk-branching-positivity", k, deg_max, entries)


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
    return _report("s-in-Gk-positivity", k, deg_max, _entries(rows, signed=False))


def scan_kss_cancellation(k: int, deg_max: int) -> dict:
    """Whether low-hook members equal their classical limits exactly."""
    entries = []
    for lam in k_bounded_up_to(deg_max, k):
        if main_hook(lam) > k:
            continue
        residual = kkschur(lam, k) - dual_grothendieck(lam)
        exact = residual.is_zero()
        entries += _entries([(lam, lam, len(residual.coeffs))], sign_ok=exact, exact=exact)
    return _report("kss-cancellation", k, deg_max, entries)


SCANS = {
    "G-in-dualks-positivity": scan_G_in_dualks,
    "gk-in-g-positivity": scan_gk_in_g,
    "gk-branching-positivity": scan_gk_branching,
    "s-in-Gk-positivity": scan_s_in_Gk,
    "kss-cancellation": scan_kss_cancellation,
}
