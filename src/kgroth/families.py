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
    Record,
    _set,
)
from .symfunc import (
    SymFunc, _h_in_s, binomial, convert, distinct_permutations, e, h, solve_unitriangular,
)
from .tableaux import (
    _linear,
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
# of g_lam is the solution of that unitriangular system.  Every reader here
# takes the family as column, *args: solve_unitriangular reads the unsigned
# counts column(mu, *args) and signs by degree parity as it walks the indices,
# the k-bounded partitions with k = args[0] (all partitions without args), top
# degree first.  Read forwards, the same signed counts re-expand any f into the
# family (expand_in_family), and the dual family G_lam is their series over the
# weights mu; into an m-side family that product is transposed through the Hall
# pairing (expand_in_dual_family), so _solve_h is the only solve.


def _signed(coeffs: dict) -> dict[tuple[int, ...], int]:
    """The nonzero coefficients, each times (-1)^|mu| for its key mu."""
    return {mu: -c if sum(mu) % 2 else c for mu, c in coeffs.items() if c}


def _solve_h(lam: tuple[int, ...], column, *args) -> SymFunc:
    """The h-expansion of the family member lam, against the columns column(mu, *args)."""
    return SymFunc("h", solve_unitriangular({lam: 1}, column, *args))


def _series(lam: tuple[int, ...], deg_max: int, column, *args) -> dict:
    """m-coefficients (-1)^(|mu|-|lam|) column(mu, *args)[lam] for mu in
    k_bounded_partitions(d, *args), |lam| <= d <= deg_max."""
    n = degree(lam)
    if deg_max < n:
        raise ValueError(f"deg_max {deg_max} is below the degree of {lam}")
    coeffs: dict[tuple[int, ...], int] = {}
    for d in range(n, deg_max + 1):
        sign = -1 if (d - n) % 2 else 1
        for mu in k_bounded_partitions(d, *args):
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
    return SymFunc("m", _series(lam, deg_max, classical_kostka_column), deg_max)


# ---------------------------------------------------------------------------
# the affine families


@cache
def kkschur(lam, k: int) -> SymFunc:
    """Exact h-expansion of the K-theoretic affine family member for lam."""
    lam = check_bounded(lam, k)
    return _solve_h(lam, _column, k)


@cache
def _top_column(mu: tuple[int, ...], k: int) -> dict[tuple[int, ...], int]:
    """The degree-|mu| entries of _column(mu, k): the k-tableau counts of weight mu."""
    n = degree(mu)
    return {nu: c for nu, c in _column(mu, k).items() if degree(nu) == n}


@cache
def k_schur(lam, k: int) -> SymFunc:
    """Exact homogeneous h-expansion from the k-tableau system."""
    lam = check_bounded(lam, k)
    return _solve_h(lam, _top_column, k)


def dual_k_schur(lam, k: int) -> SymFunc:
    """Weight generating function of the homogeneous tableau family, in m mod the level ideal."""
    lam = check_bounded(lam, k)
    return SymFunc("m", _series(lam, degree(lam), _column, k), None, k)


@cache
def affine_grothendieck(lam, k: int, deg_max: int) -> SymFunc:
    """Signed weight generating function over all weights up to deg_max."""
    lam = check_bounded(lam, k)
    return SymFunc("m", _series(lam, deg_max, _column, k), deg_max, k)


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
    """{key: coefficient}: the h-term shape times the image of h_r."""
    image = _omega_big_h(r).coeffs
    return {tuple(sorted(shape + key, reverse=True)): c for key, c in image.items()}


def omega_big(f: SymFunc) -> SymFunc:
    """The inhomogeneous conjugation h_r -> sum_j C(r-1, j-1) e_j, multiplicatively.

    The image of h_lam is the sweep of lam's parts through _omega_step, so
    images that share a prefix of parts share its product.
    """
    fh = convert(f, "h")
    if fh.deg_max is not None:
        raise ValueError("the inhomogeneous conjugation needs an exact expansion")
    return SymFunc("h", _linear(fh.coeffs, sweep, _omega_step))


# ---------------------------------------------------------------------------
# re-expansion into distinguished families


def expand_in_family(f: SymFunc, column, *args) -> dict[tuple[int, ...], int]:
    """Coefficients of f in an h-side family, one signed product with its count columns.

    column(mu, *args) is the count column {nu: K(nu, mu)} that defines the
    family, as for _solve_h, and its indices are the k-bounded partitions with
    k = args[0], or all partitions without args.  Since h_mu = sum_nu
    (-1)^(|mu|-|nu|) K(nu, mu) g_nu, the coefficient of g_nu is sum_mu
    (-1)^(|mu|-|nu|) K(nu, mu) f[mu] over the h-terms of f; no family member
    is built.  The members span the h_mu with mu an index, so an h-term with
    a part above k puts f outside the span.
    """
    work = convert(f, "h")
    if work.deg_max is not None:
        raise ValueError("re-expansion needs an exact h-expansion")
    for mu in work.coeffs:
        if args and mu and mu[0] > args[0]:
            raise ValueError(f"element is not in the span of the family at degree {degree(mu)}")
    return _signed(_linear(_signed(work.coeffs), column, *args))


def _transpose(table: dict) -> dict:
    """{lam: {mu: c}} from {mu: {lam: c}}, lam in the order first met."""
    out: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for mu, row in table.items():
        for lam, c in row.items():
            out.setdefault(lam, {})[mu] = c
    return out


def expand_in_dual_family(duals: dict, column, *args) -> dict:
    """Coefficients {lam: {mu: c}} of the members A_lam of an m-side family in another, B.

    duals maps each index mu of B to b_mu, the h-side member dual to B_mu;
    column, *args define a, the h-side family dual to A, as for
    expand_in_family.  Under the Hall pairing [B_mu]A_lam = <A_lam, b_mu> =
    [a_lam]b_mu, so the table is the transpose of one signed Kostka product
    per dual: no member of A or B is built and nothing is solved.
    """
    return _transpose({mu: expand_in_family(b, column, *args) for mu, b in duals.items()})


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
    It is exact because every g[lam] has degree at most deg_max.  Every key
    of a row is some mu, so a row whose nonzero entries are {lam: 1} passes
    all its instances at once; only another row is compared entry by entry.
    """
    res = CheckResult("duality", {"k": k, "deg_max": deg_max})
    shapes = k_bounded_up_to(deg_max, k)
    big_by_key = _transpose({mu: affine_grothendieck(mu, k, deg_max).coeffs for mu in shapes})
    for lam in shapes:
        row = _linear(kkschur(lam, k).coeffs, big_by_key.get, {})
        if {mu: c for mu, c in row.items() if c} == {lam: 1}:
            res.instances += len(shapes)
            continue
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
    """Low hooks reduce to classical; lowest terms are dual to the k-Schur elements.

    The lowest component of G[lam] pairs to 1 with the k-Schur element of lam
    and to 0 with every other one.  As in verify_duality, the pairings are one
    sparse product with the k-Schur h-coefficients by key.  Each G[lam] is read
    only to the degree compared: |lam| + 3 for a low hook, whose whole series
    is compared with the classical one up to there, and |lam| otherwise.
    """
    res = CheckResult("reduction-G", {"k": k, "deg_max": deg_max})
    shapes = k_bounded_up_to(deg_max, k)
    schur_by_key = _transpose({mu: k_schur(mu, k).coeffs for mu in shapes})
    for lam in shapes:
        n = degree(lam)
        low = main_hook(lam) <= k
        big = affine_grothendieck(lam, k, n + 3 if low else n)
        if low:
            res.expect(big.coeffs, grothendieck(lam, n + 3).coeffs,
                       "G[{lam}] differs from the classical expansion at k={k}", lam=lam, k=k)
        pairings = _linear(big.homogeneous(n).coeffs, schur_by_key.get, {})
        res.expect({mu: c for mu, c in pairings.items() if c}, {lam: 1},
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


def _rows(shapes, table: dict) -> list[tuple]:
    """(lam, mu, c) rows of a {lam: {mu: c}} table, lam in the order of shapes, mu sorted."""
    return [(lam, mu, c) for lam in shapes for mu, c in sorted(table.get(lam, {}).items())]


def scan_G_in_dualks(k: int, deg_max: int) -> dict:
    """G^(k) in the dual k-Schur functions, through their duals g^(k) and the k-Schur functions."""
    shapes = k_bounded_up_to(deg_max, k)
    table = expand_in_dual_family({mu: k_schur(mu, k) for mu in shapes}, _column, k)
    return _report("G-in-dualks-positivity", k, deg_max, _entries(_rows(shapes, table)))


def scan_gk_in_g(k: int, deg_max: int) -> dict:
    shapes = k_bounded_up_to(deg_max, k)
    table = {lam: expand_in_family(kkschur(lam, k), classical_kostka_column) for lam in shapes}
    return _report("gk-in-g-positivity", k, deg_max, _entries(_rows(shapes, table)))


def scan_gk_branching(k: int, deg_max: int) -> dict:
    """Level k expressed at level k+1, on both sides of the duality.

    The coefficient of G^(k)_mu in G^(k+1)_lam is that of g^(k+1)_lam in
    g^(k)_mu, so the generating-function rows are the h-side rows transposed.
    """
    shapes = k_bounded_up_to(deg_max, k)
    table = {lam: expand_in_family(kkschur(lam, k), _column, k + 1) for lam in shapes}
    dual_rows = _rows(k_bounded_up_to(deg_max, k + 1), _transpose(table))
    entries = _entries(_rows(shapes, table)) + _entries(
        dual_rows, series="generating-function-branching")
    return _report("gk-branching-positivity", k, deg_max, entries)


def scan_s_in_Gk(k: int, deg_max: int) -> dict:
    """Schur functions in G^(k) mod the level ideal; s is self-dual, so through g^(k) in s."""
    shapes = k_bounded_up_to(deg_max, k)
    table = expand_in_dual_family({mu: kkschur(mu, k) for mu in shapes}, _h_in_s)
    return _report("s-in-Gk-positivity", k, deg_max, _entries(_rows(shapes, table), signed=False))


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
