import pytest
from hypothesis import given, settings, strategies as st

from kgroth import symfunc
from kgroth.families import _top_column, dual_grothendieck, k_schur, kkschur
from kgroth.kostka import _column
from kgroth.partitions import conjugate, descending_partitions, k_bounded_up_to, partitions_of
from kgroth.symfunc import (
    BASES,
    SymFunc,
    binomial,
    convert,
    distinct_permutations,
    e,
    h,
    hall_inner,
    m,
    s,
    solve_unitriangular,
    _h_mult,
    _m_mult,
)
from kgroth.tableaux import classical_kostka_column

from oracles import (
    convert_by_heap,
    jacobi_trudi_h,
    m_product_expanded,
    m_product_oracle,
    m_to_he_through_e,
    matrix_count,
    normalized_by_two_passes,
    product_by_pairs,
    project_bounded,
    solve_h_by_heap,
)


@st.composite
def small_partitions(draw, max_part=4, max_len=4):
    length = draw(st.integers(min_value=0, max_value=max_len))
    parts = sorted(
        (draw(st.integers(min_value=1, max_value=max_part)) for _ in range(length)),
        reverse=True,
    )
    return tuple(parts)


def test_basic_arithmetic():
    assert h((2,)) * h((1,)) == h((2, 1))
    assert e((2, 1)) * e((1,)) == e((2, 1, 1))
    f = h((2, 1)) - h((3,))
    assert f + h((3,)) == h((2, 1))
    assert 1 * f == f
    assert 0 * f == SymFunc("h", {})
    assert f * h(()) == f


def test_construction_validates_keys():
    # twice each: a rejected key must not be remembered as valid
    for _ in range(2):
        for bad in (lambda: SymFunc("h", {(1, 2): 1}), lambda: SymFunc("m", {(2, 0): 1}),
                    lambda: h((1, 2)), lambda: m((0,))):
            with pytest.raises(ValueError):
                bad()


def test_construction_normalizes_keys():
    f = SymFunc("h", {(2.0, 1.0): 3})
    assert f.coeffs == {(2, 1): 3}
    assert all(type(p) is int for p in next(iter(f.coeffs)))
    assert SymFunc("h", {(2.5, 1): 1}).coeffs == {(2, 1): 1}
    # a non-tuple key is read as a sequence of parts and merges with its tuple
    assert SymFunc("h", {"21": 1, (2, 1): 2}).coeffs == {(2, 1): 3}
    assert SymFunc("h", {"21": 1, (2, 1): -1}).is_zero()
    assert SymFunc("m", {(3,): 1, (2, 1): 1, (1,): 0}, deg_max=3, k=2).coeffs == {(2, 1): 1}


class _Pairs:
    """A coefficient table given as (key, coefficient) pairs, so a key may be a list."""

    def __init__(self, *pairs):
        self.pairs = pairs

    def items(self):
        return iter(self.pairs)


@pytest.mark.parametrize("basis, coeffs, deg_max, k", [
    # already clean: still copied, never kept
    ("h", {(2, 1): 3, (1,): -1}, None, None),
    ("h", _Pairs(([2, 1], 3), ((1,), 2), ([1], -2), ([3], 1)), None, None),
    ("h", {("2", 1): 1, (2.0,): 2, (1, 1): 4, (2, 1): 5}, None, None),
    ("e", {(1,): True, (2,): False, (1, 1): True, (3,): 2.0}, None, None),
    # keys that merge and cancel, one of them back again later
    ("h", _Pairs(((3,), 1), ("2", 1), ((1,), 1), ((2,), -1), ("1", -1), ([1], 4)), None, None),
    ("m", {(3,): 1, (2, 1): 1, (1,): 0, (2,): 2, (1, 1, 1, 1): 1}, 3, 2),
    ("m", _Pairs(((2, 2), 1), ([2, 2], -1), ((1, 1), 3), ((4,), 1)), 4, None),
    ("m", _Pairs(((3,), 1), ("3", 1), ((2, 1), 2), ((1,), 1)), None, 2),
])
def test_normalization_matches_the_two_pass_oracle(basis, coeffs, deg_max, k):
    f = SymFunc(basis, coeffs, deg_max, k)
    want = normalized_by_two_passes(coeffs, deg_max, k)
    assert list(f.coeffs.items()) == list(want.items())
    assert all(type(c) is int and c for c in f.coeffs.values())
    assert f.coeffs is not coeffs


@pytest.mark.parametrize("coeffs", [{(1, 2): "x"}, {(2, 1): "x"}, {(2, 1): 1, (0,): 1}])
def test_normalization_raises_as_the_two_pass_oracle(coeffs):
    with pytest.raises(ValueError) as want:
        normalized_by_two_passes(coeffs)
    with pytest.raises(ValueError) as got:
        SymFunc("h", coeffs)
    assert str(got.value) == str(want.value)


def test_monomial_multiplication_examples():
    assert m((1,)) * m((1,)) == m((2,)) + 2 * m((1, 1))
    assert _m_mult((2, 1), ()) == {(2, 1): 1}


@settings(max_examples=60, deadline=None)
@given(small_partitions(), small_partitions())
def test_monomial_multiplication_against_polynomials(lam, mu):
    assert _m_mult(lam, mu) == m_product_oracle(lam, mu)


def test_product_oracle_matches_the_full_expansion():
    small = [lam for n in range(7) for lam in partitions_of(n)
             if len(lam) <= 3 and max(lam, default=0) <= 2]
    assert len(small) == 10
    for lam in small:
        for mu in small:
            assert m_product_oracle(lam, mu) == m_product_expanded(lam, mu), (lam, mu)


@st.composite
def expansions(draw, basis, bounded):
    keys = draw(st.lists(small_partitions(max_part=3, max_len=3), max_size=3))
    coeffs = {key: draw(st.integers(min_value=-3, max_value=3)) for key in keys}
    deg_max = draw(st.integers(min_value=0, max_value=9)) if bounded else None
    return SymFunc(basis, coeffs, deg_max)


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("basis", ["h", "e", "m"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_products_match_the_pair_by_pair_oracle(basis, bounded, data):
    f = data.draw(expansions(basis, bounded))
    g = data.draw(expansions(basis, bounded))
    for left, right in ((f, g), (g, f)):
        product = left * right
        assert product.basis == basis
        assert product.deg_max == (min(f.deg_max, g.deg_max) if bounded else None)
        assert product.coeffs == product_by_pairs(left, right)


def test_pieri_suite_reads_most_h_products_from_the_pair_table():
    from kgroth.families import verify_pieri

    _h_mult.cache_clear()
    verify_pieri(4, 6)
    info = _h_mult.cache_info()
    assert info.hits > info.misses > 0


def test_level_mismatch_errors():
    with pytest.raises(ValueError):
        m((1,), k=2) + m((1,), k=3)
    with pytest.raises(ValueError):
        m((1,), k=2) * m((1,), k=3)


def test_quotient_projection():
    f = m((3,)) + m((2, 1))
    g = project_bounded(f, 2)
    assert g.coeffs == {(2, 1): 1}
    assert (m((2,), k=2) * m((2,), k=2)).coeffs == {(2, 2): 2}


def test_truncation_semantics():
    f = h((2,), deg_max=3) * h((2,), deg_max=5)
    assert f.deg_max == 3
    assert f.is_zero()


def test_conversion_examples():
    assert convert(h((1,)), "m") == m((1,))
    assert convert(e((2,)), "h") == h((1, 1)) - h((2,))
    assert convert(s((2, 1)), "m") == m((2, 1)) + 2 * m((1, 1, 1))
    assert convert(e((2,)), "m") == m((1, 1))
    assert convert(s((1, 1, 1)), "h") == convert(e((3,)), "h")
    assert convert(s((3,)), "h") == h((3,))


@pytest.mark.parametrize("basis", ["h", "e", "s"])
def test_conversion_roundtrips(basis):
    for d in range(9):
        for lam in partitions_of(d):
            start = SymFunc(basis, {lam: 1})
            assert convert(convert(start, "m"), basis) == start


def test_h_and_e_to_monomial_match_matrix_counts():
    # the round trips above go through the same Kostka matrix both ways, so
    # an error shared by both directions only shows against an outside count
    for d in range(9):
        for lam in partitions_of(d):
            for f, zero_one in ((h(lam), False), (e(lam), True)):
                want = {
                    mu: c for mu in partitions_of(d) if (c := matrix_count(lam, mu, zero_one))
                }
                assert convert(f, "m").coeffs == want, f


@pytest.mark.parametrize("target", ["h", "e"])
def test_monomial_to_h_and_e_through_schur_matches_the_e_solve(target):
    for d in range(8):
        for lam in partitions_of(d):
            got = convert(m(lam, deg_max=7), target)
            want = m_to_he_through_e(m(lam, deg_max=7), target)
            assert got == want and got.deg_max == want.deg_max == 7, lam


def test_solve_unitriangular_rejects_columns_that_break_the_order():
    # (1, 1) comes before (2,), so the column of (2,) must not reach it
    columns = {(2,): {(2,): 1, (1, 1): 1}, (1, 1): {(1, 1): 1}}
    with pytest.raises(ArithmeticError):
        solve_unitriangular({(2,): 1}, columns.__getitem__)
    with pytest.raises(ArithmeticError):
        solve_unitriangular({(2,): 1}, {(2,): {(2,): 2}}.__getitem__)
    # the column of (2,), read after (1, 1) is settled, must not put (1, 1) back
    columns = {(1, 1): {(1, 1): 1, (2,): 1}, (2,): {(2,): 1, (1, 1): 1}}
    with pytest.raises(ArithmeticError, match=r"puts back the settled key \(1, 1\)"):
        solve_unitriangular({(1, 1): 1}, columns.__getitem__)
    # (2,) is not 1-bounded, so the walk over the 1-bounded partitions never reaches it
    columns = {(1, 1): {(1, 1): 1, (2,): 1}}
    with pytest.raises(ArithmeticError, match=r"\(2,\), outside the index set"):
        solve_unitriangular({(1, 1): 1}, lambda mu, k: columns[mu], 1)


def test_monomial_to_schur_rejects_a_row_with_a_dominance_larger_key(monkeypatch):
    # s_lam is m_lam plus dominance-smaller terms; (3,) dominates (2, 1), so
    # its conjugate (1, 1, 1) comes before (2, 1) in the conjugated walk
    true = symfunc._s_in_m

    def planted(lam):
        row = true(lam)
        return {**row, (3,): 1} if lam == (2, 1) else row

    monkeypatch.setattr(symfunc, "_s_in_m", planted)
    with pytest.raises(ArithmeticError):
        convert(m((2, 1)), "s")


@pytest.mark.parametrize("lam, degrees, listed", [
    # the homogeneous Schur columns leave degrees 59 down to 2 empty, and
    # degree 60 is listed only up to (60,), the target's least key there
    (((60,), (1,)), [60, 1], 2),
    # h_mu is s_mu plus dominance-larger terms, so no key is longer than the
    # target's: the partitions of 60 with at most two or three parts
    (((30, 30),), [60], 31),
    (((20, 20, 20),), [60], 331),
])
def test_solve_unitriangular_lists_only_the_partitions_a_key_can_reach(monkeypatch, lam, degrees, listed):
    walked = []

    def counted(d, *args, **bounds):
        walked.append(d)
        for mu in descending_partitions(d, *args, **bounds):
            walked.append(mu)
            yield mu

    # no degree is walked from a kept listing, so each one is generated
    monkeypatch.setattr(symfunc, "listed_partitions", lambda d, *args: None)
    monkeypatch.setattr(symfunc, "descending_partitions", counted)
    f = SymFunc("s", dict.fromkeys(lam, 1))
    want = {}
    for mu in lam:
        want.update(jacobi_trudi_h(mu))
    assert convert(f, "h").coeffs == want
    assert [d for d in walked if isinstance(d, int)] == degrees
    assert len(walked) - len(degrees) == listed


@pytest.fixture(params=["listed", "generated"])
def walk(request, monkeypatch):
    """Solve over the kept listings of k_bounded_partitions, or generate every degree."""
    if request.param == "generated":
        monkeypatch.setattr(symfunc, "listed_partitions", lambda d, *args: None)
    else:
        for d in range(10):
            partitions_of(d)
    for member in (dual_grothendieck, kkschur, k_schur):
        member.cache_clear()
    return request.param


def test_solve_unitriangular_matches_the_heap_solve_on_every_family_member(walk):
    # the same coefficients, settled in the same order
    for lam in k_bounded_up_to(9, 9):
        want = solve_h_by_heap(lam, classical_kostka_column)
        assert list(dual_grothendieck(lam).coeffs.items()) == list(want.items()), lam
    for k in range(1, 6):
        for lam in k_bounded_up_to(9, k):
            want = solve_h_by_heap(lam, lambda mu: _column(mu, k))
            assert list(kkschur(lam, k).coeffs.items()) == list(want.items()), (lam, k)
            want = solve_h_by_heap(lam, lambda mu: _top_column(mu, k))
            assert list(k_schur(lam, k).coeffs.items()) == list(want.items()), (lam, k)


def test_convert_matches_the_heap_solves_between_all_four_bases(walk):
    lams = [lam for d in range(9) for lam in partitions_of(d)]
    # one inhomogeneous element too, so a solve walks several degrees
    mixed = {lam: (-1) ** i * (i + 1) for i, lam in enumerate(lams)}
    for basis in BASES:
        sources = [SymFunc(basis, {lam: 1}) for lam in lams] + [SymFunc(basis, mixed)]
        for f in sources:
            for target in BASES:
                want = convert_by_heap(f, target)
                assert list(convert(f, target).coeffs.items()) == list(want.items()), (f, target)


def test_omega_symmetry_of_transitions():
    # the e-expansion of h mirrors the h-expansion of e
    for d in range(1, 6):
        for lam in partitions_of(d):
            assert convert(h(lam), "e").coeffs == convert(e(lam), "h").coeffs


def test_schur_in_monomials_is_kostka():
    # weight (1,...,1) coefficient counts standard tableaux
    f = convert(s((3, 2)), "m")
    assert f.coeff((1, 1, 1, 1, 1)) == 5
    assert f.coeff((3, 2)) == 1


def test_jacobi_trudi_edge_cases():
    assert convert(s(()), "h") == h(())
    assert convert(s((2, 2)), "h") == h((2, 2)) - h((3, 1))


def test_schur_to_h_and_e_match_jacobi_trudi():
    # the dual Jacobi-Trudi identity: s_lam = det(e_{lam'_i - i + j})
    for d in range(8):
        for lam in partitions_of(d):
            assert convert(s(lam), "h").coeffs == jacobi_trudi_h(lam), lam
            assert convert(s(lam), "e").coeffs == jacobi_trudi_h(conjugate(lam)), lam


def test_schur_products_match_jacobi_trudi():
    # s_lam * s_mu in h is the concatenation product of the two determinants
    pairs = [(lam, mu) for d in range(7) for n in range(d + 1)
             for lam in partitions_of(n) for mu in partitions_of(d - n)]
    pairs += [((4, 3, 2, 1), (4, 3, 2, 1)), ((5, 3, 1), (4, 2, 2))]
    for lam, mu in pairs:
        want: dict = {}
        for a, ca in jacobi_trudi_h(lam).items():
            for b, cb in jacobi_trudi_h(mu).items():
                key = tuple(sorted(a + b, reverse=True))
                want[key] = want.get(key, 0) + ca * cb
        want = {key: c for key, c in want.items() if c}
        assert convert(s(lam) * s(mu), "h").coeffs == want, (lam, mu)
    assert s((2,), deg_max=3) * s((2,)) == SymFunc("s", {}, 3)


def test_h_and_e_to_schur_match_the_route_through_m():
    for d in range(8):
        for mu in partitions_of(d):
            for f in (h(mu), e(mu)):
                assert convert(f, "s") == convert(convert(f, "m"), "s"), f


def test_schur_of_a_long_column_is_elementary():
    # s_{1^n} = e_n; a determinant expansion would take 12! terms here
    assert convert(s((1,) * 12), "h") == convert(e((12,)), "h")


def test_hall_inner():
    assert hall_inner(h((2, 1)), m((2, 1))) == 1
    assert hall_inner(h((2,)), m((1, 1))) == 0
    assert hall_inner(h(()), m(())) == 1
    # schur orthonormality through the pairing
    for d in range(5):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                want = 1 if lam == mu else 0
                assert hall_inner(s(lam), convert(s(mu), "m")) == want


def test_hall_inner_truncation_guard():
    g = m((1,), deg_max=1)
    with pytest.raises(ValueError):
        hall_inner(h((2,)), g)


def test_binomial():
    assert binomial(3, 2) == 3
    assert binomial(3, 0) == 1
    assert binomial(2, 5) == 0
    assert binomial(0, 0) == 1
    assert binomial(-1, 3) == -1
    assert binomial(-2, 3) == -4
    assert binomial(5, -1) == 0


def test_distinct_permutations():
    assert sorted(distinct_permutations((1, 1, 2))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert list(distinct_permutations(())) == [()]


def test_distinct_permutations_come_lexicographically_increasing():
    from itertools import permutations

    for n in range(7):
        for v in partitions_of(n):
            assert list(distinct_permutations(v)) == sorted(set(permutations(v)))


def test_distinct_permutations_do_not_recurse_per_part():
    assert list(distinct_permutations((1,) * 3000)) == [(1,) * 3000]
