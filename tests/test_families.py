import jsonschema
import pytest

from kgroth.families import (
    CheckResult,
    affine_grothendieck,
    column_pieri,
    dual_grothendieck,
    dual_k_schur,
    expand_in_dual_family,
    expand_in_family,
    grothendieck,
    k_schur,
    kkschur,
    omega_big,
    row_pieri,
    scan_kss_cancellation,
    verify_bijection,
    verify_duality,
    verify_k_newton,
    verify_kostka_symmetry,
    verify_newton,
    verify_omega,
    verify_pieri,
    verify_reduction_g,
    verify_reduction_G,
)
from kgroth.partitions import (
    degree,
    k_bounded_partitions,
    k_bounded_up_to,
    k_conjugate,
    main_hook,
    partitions_of,
)
from kgroth.schemas import SCAN_REPORT_SCHEMA
from kgroth.symfunc import SymFunc, binomial, convert, e, h, hall_inner, s
from kgroth.tableaux import classical_kostka_column, kostka_column

from known_values import COL_PIERI_321_R2_K3, ROW_PIERI_321_R2_K3
from oracles import (
    duality_by_instances, expand_in_family_by_solve, k_schur_by_filtered_columns,
    m_side_scan_by_solve, omega_big_oracle, pieri_by_cores,
)


def test_dual_grothendieck_rows_are_complete_generators():
    for r in range(6):
        lam = (r,) if r else ()
        assert dual_grothendieck(lam) == h(lam)


def test_dual_grothendieck_columns():
    """Columns expand through binomials into elementary generators."""
    for ell in range(6):
        expected = SymFunc("e", {})
        for j in range(1, ell + 1):
            expected = expected + binomial(ell - 1, j - 1) * e((j,))
        if ell == 0:
            expected = e(())
        assert dual_grothendieck((1,) * ell) == convert(expected, "h")


def test_dual_grothendieck_top_term_is_schur():
    for d in range(1, 6):
        for lam in partitions_of(d):
            g = dual_grothendieck(lam)
            assert g.homogeneous(d) == convert(s(lam), "h")


def test_grothendieck_truncations():
    assert grothendieck((1,), 2) == SymFunc("m", {(1,): 1, (1, 1): -1}, 2)
    assert grothendieck((1,), 3).coeff((1, 1, 1)) == 1
    assert grothendieck((), 2) == SymFunc("m", {(): 1}, 2)
    with pytest.raises(ValueError):
        grothendieck((2, 1), 2)


def test_grothendieck_is_dual_to_its_inverse_system():
    for d in range(4):
        for lam in partitions_of(d):
            for mu in partitions_of(d + 1):
                want = 1 if lam == mu else 0
                assert hall_inner(dual_grothendieck(lam), grothendieck(mu, 4)) == want
            assert hall_inner(dual_grothendieck(lam), grothendieck(lam, 4)) == 1


def test_kkschur_row_cases():
    for k in (2, 3):
        for r in range(1, k + 1):
            assert kkschur((r,), k) == h((r,))
    assert kkschur((), 3) == h(())


def test_kkschur_reduces_to_dual_grothendieck():
    for k in (2, 3):
        for lam in k_bounded_up_to(k, k):
            assert kkschur(lam, k) == dual_grothendieck(lam)


def test_kkschur_leading_structure():
    for k in (2, 3):
        for lam in k_bounded_up_to(5, k):
            g = kkschur(lam, k)
            assert g.coeff(lam) == 1
            top = g.homogeneous(degree(lam))
            assert top == k_schur(lam, k)
            from kgroth.partitions import dominates

            for mu in top.coeffs:
                assert dominates(mu, lam)


def test_kkschur_regression_value():
    # fixed by inverting the weight system up to degree 6
    g = kkschur((3, 2, 1), 3)
    assert g == h((3, 2, 1)) - h((3, 3)) + h((3, 1, 1)) + h((3, 1))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_k_schur_solves_against_the_top_of_each_column(k):
    from kgroth.families import _top_column
    from kgroth.kostka import _column

    for mu in k_bounded_up_to(9, k):
        n = degree(mu)
        assert _top_column(mu, k) == {nu: c for nu, c in _column(mu, k).items()
                                      if degree(nu) == n}, mu
        assert k_schur(mu, k) == k_schur_by_filtered_columns(mu, k), mu


def test_k_schur_reduces_to_schur_for_small_hooks():
    for k in (2, 3, 4):
        for lam in k_bounded_up_to(6, k):
            if main_hook(lam) <= k:
                assert k_schur(lam, k) == convert(s(lam), "h")


def test_dual_k_schur_unitriangular():
    for k in (2, 3):
        for lam in k_bounded_up_to(5, k):
            f = dual_k_schur(lam, k)
            assert f.coeff(lam) == 1
            from kgroth.partitions import dominates

            for mu in f.coeffs:
                assert dominates(lam, mu)


def test_affine_grothendieck_structure():
    assert affine_grothendieck((), 2, 3) == SymFunc("m", {(): 1}, 3, 2)
    big = affine_grothendieck((2, 1, 1), 2, 5)
    assert big.coeff((2, 1, 1, 1)) == -4
    assert big.homogeneous(4) == dual_k_schur((2, 1, 1), 2)
    g3 = affine_grothendieck((3, 3, 2, 1), 3, 9)
    assert abs(g3.coeff((3, 2, 1, 1, 1, 1))) == 3


def test_row_pieri_worked_example():
    assert row_pieri((3, 2, 1), 2, 3).terms == ROW_PIERI_321_R2_K3


def test_column_pieri_worked_example():
    assert column_pieri((3, 2, 1), 2, 3).terms == COL_PIERI_321_R2_K3


def test_pieri_edges():
    assert row_pieri((), 2, 3).terms == {(2,): 1}
    assert column_pieri((), 2, 3).terms == {(1, 1): 1}
    for lam in k_bounded_up_to(3, 2):
        assert row_pieri(lam, 1, 2).terms == column_pieri(lam, 1, 2).terms
    with pytest.raises(ValueError):
        row_pieri((1,), 3, 2)


def test_pieri_matches_products_small():
    for lam in k_bounded_up_to(4, 2):
        g = kkschur(lam, 2)
        for r in (1, 2):
            assert row_pieri(lam, r, 2).as_symfunc() == h((r,)) * g
            assert column_pieri(lam, r, 2).as_symfunc() == kkschur((1,) * r, 2) * g


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_pieri_rules_match_the_core_object_oracle(k):
    # the terms in their key order and the strips, both directions, every r
    for lam in k_bounded_up_to(8, k):
        for r in range(k + 1):
            for rule, direction in ((row_pieri, "row"), (column_pieri, "col")):
                got, want = rule(lam, r, k), pieri_by_cores(direction, lam, r, k)
                assert list(got.terms.items()) == list(want.terms.items()), (direction, lam, r)
                assert got.strips == want.strips, (direction, lam, r)


def _one_term_dropped(rule, lam, r):
    """rule with the first term of its expansion at (lam, r) left out."""
    from kgroth.families import PieriResult

    def planted(mu, s, k):
        res = rule(mu, s, k)
        if (mu, s) != (lam, r):
            return res
        terms = dict(list(res.terms.items())[1:])
        return PieriResult(res.direction, res.lam, res.r, res.k, terms, res.strips)

    return planted


@pytest.mark.parametrize("rule, message", [
    ("row_pieri", "row rule fails at lam=(2, 1), r=1"),
    ("column_pieri", "column rule fails at lam=(2, 1), r=1"),
])
def test_pieri_consistency_reports_a_dropped_term(rule, message, monkeypatch):
    import kgroth.families as families

    instances = verify_pieri(2, 4).instances
    monkeypatch.setattr(families, rule, _one_term_dropped(getattr(families, rule), (2, 1), 1))
    res = verify_pieri(2, 4)
    assert res.instances == instances == 2 * 2 * len(k_bounded_up_to(4, 2))
    assert res.failures == [message]


def test_reduction_g_reports_a_wrong_k_schur_member(monkeypatch):
    import kgroth.families as families

    instances = verify_reduction_g(2, 4).instances
    true = families.k_schur
    monkeypatch.setattr(families, "k_schur",
                        lambda lam, k: true(lam, k) + h(lam) if lam == (2, 1) else true(lam, k))
    res = verify_reduction_g(2, 4)
    assert res.instances == instances
    assert res.failures == ["top of g[(2, 1)] is not the k-Schur element"]


@pytest.mark.parametrize("member, wrong, message", [
    ("k_schur", (2, 1), "lowest component of G[(2, 1)] is not the dual k-Schur element"),
    # the classical comparison runs only where the main hook is at most k
    ("grothendieck", (2,), "G[(2,)] differs from the classical expansion at k=2"),
])
def test_reduction_G_reports_a_wrong_member(member, wrong, message, monkeypatch):
    import kgroth.families as families

    instances = verify_reduction_G(2, 4).instances
    true = getattr(families, member)

    def planted(lam, *rest):
        f = true(lam, *rest)
        return f + SymFunc(f.basis, {lam: 1}, f.deg_max, f.k) if lam == wrong else f

    monkeypatch.setattr(families, member, planted)
    res = verify_reduction_G(2, 4)
    assert res.instances == instances
    assert res.failures == [message]


def test_reduction_G_reports_a_series_without_its_lowest_term(monkeypatch, empty_kostka_cache):
    # (2, 1) has main hook 3 > k, so only the pairing with the k-Schur
    # elements sees its G-series lose the leading m[(2, 1)]
    import kgroth.families as families

    instances = verify_reduction_G(2, 4).instances
    true = families._series

    def planted(lam, *rest):
        coeffs = true(lam, *rest)
        return {mu: c for mu, c in coeffs.items() if mu != lam} if lam == (2, 1) else coeffs

    families.affine_grothendieck.cache_clear()
    monkeypatch.setattr(families, "_series", planted)
    res = verify_reduction_G(2, 4)
    assert res.instances == instances
    assert res.failures == ["lowest component of G[(2, 1)] is not the dual k-Schur element"]


@pytest.mark.parametrize("k, deg_max", [(2, 6), (3, 7), (4, 9)])
def test_reduction_G_reads_each_member_to_the_degree_it_compares(k, deg_max, monkeypatch):
    # a low hook is compared with the classical series up to |lam| + 3; every
    # other member is read only at its lowest degree, |lam|
    import kgroth.families as families

    reads = []
    true = families.affine_grothendieck

    def recorded(lam, k, deg_max):
        reads.append((lam, deg_max))
        return true(lam, k, deg_max)

    monkeypatch.setattr(families, "affine_grothendieck", recorded)
    verify_reduction_G(k, deg_max)
    shapes = k_bounded_up_to(deg_max, k)
    assert sorted(lam for lam, _ in reads) == sorted(shapes)
    for lam, read in reads:
        assert read == degree(lam) + (3 if main_hook(lam) <= k else 0), lam


def test_reduction_G_sweeps_no_weight_above_deg_max(empty_kostka_cache):
    from kgroth import tableaux

    verify_reduction_G(4, 9)
    memo = tableaux._PREFIXES[(tableaux._affine_steps, (4,))]
    assert max(map(degree, memo)) == 9


def test_reduction_G_compares_the_top_degree_of_a_low_hook(monkeypatch):
    # (2,) is a low hook at k = 2, so its series is compared up to degree 5;
    # a term planted there is lost if the member is truncated any lower
    import kgroth.families as families

    instances = verify_reduction_G(2, 4).instances
    true = families.affine_grothendieck

    def planted(lam, k, deg_max):
        f = true(lam, k, deg_max)
        if (lam, k, deg_max) == ((2,), 2, 5):
            return f + SymFunc("m", {(2, 2, 1): 1}, deg_max, k)
        return f

    monkeypatch.setattr(families, "affine_grothendieck", planted)
    res = verify_reduction_G(2, 4)
    assert res.instances == instances
    assert res.failures == ["G[(2,)] differs from the classical expansion at k=2"]


def test_omega_big_basics():
    assert omega_big(h(())) == h(())
    assert omega_big(h((1,))) == h((1,))
    # the image of a single generator matches the column expansion
    for ell in range(1, 6):
        assert omega_big(h((ell,))) == dual_grothendieck((1,) * ell)
    with pytest.raises(ValueError):
        omega_big(h((2,), deg_max=3))


def test_omega_big_matches_the_e_basis_oracle():
    shapes = [lam for d in range(9) for lam in partitions_of(d)]
    assert len(shapes) == 67
    for lam in shapes:
        assert omega_big(h(lam)) == omega_big_oracle(lam), lam


def test_omega_big_involution_small():
    for lam in k_bounded_up_to(5, 2):
        assert omega_big(omega_big(h(lam))) == h(lam)


def test_omega_big_permutes_the_family():
    for k in (2, 3):
        for lam in k_bounded_up_to(4, k):
            assert omega_big(kkschur(lam, k)) == kkschur(k_conjugate(lam, k), k)


def test_newton_identities():
    for ell in range(7):
        assert verify_newton(ell)
        assert verify_k_newton(ell)


def test_expand_in_kkschur_roundtrip():
    k = 3
    f = h((2,)) * kkschur((3, 2, 1), k)
    assert expand_in_family(f, kostka_column, k) == ROW_PIERI_321_R2_K3
    assert expand_in_family(kkschur((2, 1), k), kostka_column, k) == {(2, 1): 1}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_expand_in_g_matches_the_solve_against_members(k):
    for lam in k_bounded_up_to(7, k):
        f = kkschur(lam, k)
        assert (expand_in_family(f, classical_kostka_column)
                == expand_in_family_by_solve(f, dual_grothendieck, partitions_of)), lam


@pytest.mark.parametrize("k", [2, 3])
def test_expand_in_the_next_level_matches_the_solve_against_members(k):
    def index_sets(d):
        return k_bounded_partitions(d, k + 1)

    for lam in k_bounded_up_to(7, k):
        f = kkschur(lam, k)
        assert (expand_in_family(f, kostka_column, k + 1)
                == expand_in_family_by_solve(f, lambda mu: kkschur(mu, k + 1), index_sets)), lam


def test_expand_in_family_rejects_outsiders():
    with pytest.raises(ValueError):
        expand_in_family(h((3,)), kkschur, 2)


def test_expand_in_family_rejects_outsiders_whose_columns_exist():
    # the classical columns are defined at (3,), but (3,) indexes no 2-bounded member
    for f in (h((3,)), h((3,)) + h((2, 1))):
        with pytest.raises(ValueError):
            expand_in_family(f, lambda mu, k: classical_kostka_column(mu), 2)


def test_expand_in_family_lists_no_index_partition(monkeypatch):
    # membership is the part bound, so an outsider is found with no listing
    import kgroth.families as families
    from kgroth.kostka import _column

    def listed(*args):
        raise AssertionError("an index set was listed")

    monkeypatch.setattr(families, "k_bounded_partitions", listed)
    with pytest.raises(ValueError, match="not in the span"):
        expand_in_family(h((3, 1)), _column, 2)


def test_expand_in_dual_family_roundtrip():
    # each G[lam] re-expanded in the G-side family through the duals g[mu]
    for k in (2, 3):
        shapes = k_bounded_up_to(5, k)
        table = expand_in_dual_family({mu: kkschur(mu, k) for mu in shapes}, kostka_column, k)
        assert table == {lam: {lam: 1} for lam in shapes}, k


def test_expand_in_dual_family_rejects_outsiders():
    # h[3] has a part above k=2, alone or next to a member of the span
    for dual in (h((3,)), h((3,)) + h((2, 1))):
        with pytest.raises(ValueError):
            expand_in_dual_family({(2, 1): kkschur((2, 1), 2), (3,): dual}, kostka_column, 2)


@pytest.mark.parametrize("name", [
    "G-in-dualks-positivity", "gk-branching-positivity", "s-in-Gk-positivity",
])
def test_m_side_scans_match_the_solve_against_members(name):
    # whole reports, entry order included
    import json

    from kgroth.families import SCANS

    for k in range(1, 5):
        for deg_max in range(9):
            want = m_side_scan_by_solve(name, k, deg_max)
            assert json.dumps(SCANS[name](k, deg_max)) == json.dumps(want), (k, deg_max)


def test_duality_small():
    res = verify_duality(2, 4)
    assert res.ok and res.instances == 9 * 9


def test_duality_at_level_four():
    assert verify_duality(4, 4).ok


def test_duality_reports_a_wrong_member(monkeypatch):
    import kgroth.families as families

    true = families.kkschur

    def planted(lam, k):
        g = true(lam, k)
        return g + h((1,)) if lam == (2, 1) else g

    monkeypatch.setattr(families, "kkschur", planted)
    res = verify_duality(2, 4)
    n = len(k_bounded_up_to(4, 2))
    assert res.instances == n * n and not res.ok
    assert "<g[(2, 1)], G[(1,)]> = 1, expected 0" in res.failures
    assert all(f.startswith("<g[(2, 1)], G[") for f in res.failures)


@pytest.mark.parametrize("k, deg_max", [(2, 4), (3, 6), (4, 7)])
def test_duality_counts_every_pair_as_the_per_instance_oracle(k, deg_max):
    res, want = verify_duality(k, deg_max), duality_by_instances(k, deg_max)
    assert res.ok and res.instances == len(k_bounded_up_to(deg_max, k)) ** 2
    assert (res.instances, res.failures) == (want.instances, want.failures)


@pytest.mark.parametrize("plant", [
    # twice the member breaks the diagonal entry of its row
    lambda g, true: 2 * g,
    # two other members, added and taken away, break two entries off the diagonal
    lambda g, true: g + true((1, 1, 1), 3) - true((3,), 3),
])
def test_duality_reports_a_broken_row_as_the_per_instance_oracle(plant, monkeypatch):
    import kgroth.families as families

    true = families.kkschur
    monkeypatch.setattr(families, "kkschur",
                        lambda lam, k: plant(true(lam, k), true) if lam == (2, 1) else true(lam, k))
    res, want = verify_duality(3, 5), duality_by_instances(3, 5)
    assert not res.ok and want.failures
    assert (res.instances, res.failures) == (want.instances, want.failures)


def test_kostka_symmetry_reports_a_wrong_column(monkeypatch):
    import kgroth.families as families

    true = families.kostka_column

    def planted(mu, k):
        column = dict(true(mu, k))
        if tuple(mu) == (1, 2):
            column[(2, 1)] = column.get((2, 1), 0) + 1
        return column

    monkeypatch.setattr(families, "kostka_column", planted)
    res = verify_kostka_symmetry(2, 3)
    assert res.instances == 6
    assert res.failures == ["count((2, 1), (1, 2)) = 2 != 1"]


def test_bijection_reports_missing_direct_fillings(monkeypatch):
    import kgroth.tableaux as tableaux

    true = tableaux.valid_blocks

    def planted(t, k):
        # no filling may take its letters 1 and 2 as one block
        return true(t, k) - {(1, 3)}

    monkeypatch.setattr(tableaux, "valid_blocks", planted)
    res = verify_bijection(2, 3)
    assert res.instances == 58
    assert res.failures == [
        f"{msg} at lam={lam}, alpha={alpha}{tail}"
        for lam, alpha in (((2,), (2,)), ((2,), (2, 1)), ((2, 1), (2, 1)))
        for msg, tail in (
            ("chain fillings differ from direct fillings", ""),
            ("counts disagree", ": chains=1 dp=1 factorizations=1 direct=0"),
        )
    ]


def test_omega_reports_a_wrong_generator_image(monkeypatch):
    import kgroth.families as families

    true = families._omega_step

    def planted(shape, r):
        # the image of h_2 gains h_2
        image = dict(true(shape, r))
        if r == 2:
            key = tuple(sorted(shape + (2,), reverse=True))
            image[key] = image.get(key, 0) + 1
        return image

    # a patched step is a new sweep key, so the faulty images get their own memo
    monkeypatch.setattr(families, "_omega_step", planted)
    res = verify_omega(2, 3)
    assert res.instances == 12
    assert len(res.failures) == 6
    assert res.failures[0] == "omega^2 moved h[(2,)]"
    monkeypatch.undo()
    assert verify_omega(2, 3).ok


@pytest.mark.parametrize(
    "suite, k, deg_max, instances",
    [
        (verify_kostka_symmetry, 2, 5, 84),
        (verify_kostka_symmetry, 3, 5, 168),
        (verify_kostka_symmetry, 3, 8, 4586),
        (verify_bijection, 2, 3, 58),
        (verify_bijection, 3, 5, 648),
    ],
)
def test_oracle_suite_instance_counts(suite, k, deg_max, instances):
    res = suite(k, deg_max)
    assert res.ok and res.instances == instances


def test_quotient_lift_is_rejected():
    with pytest.raises(ValueError):
        convert(dual_k_schur((2, 1), 2), "h")


def test_verify_suites_smoke():
    assert verify_omega(2, 3).ok
    assert verify_pieri(2, 3).ok
    assert verify_bijection(2, 3).ok


def test_check_result_records():
    res = CheckResult("demo", {})
    res.expect(1, 1, "fine")
    res.expect(2, 3, "{name}: {got} != {want}", name="broken")
    assert not res.ok and res.instances == 2 and res.failures == ["broken: 2 != 3"]


def test_check_result_formats_only_failing_instances():
    class Unformattable:
        def __format__(self, spec):
            raise AssertionError("a passing instance was formatted")

    res = CheckResult("demo", {})
    u = Unformattable()
    res.expect(u, u, "{got} {want} {lam}", lam=u)
    assert res.ok and res.instances == 1
    res.expect((1, 2), (2, 1), "count({lam}) = {got} != {want}", lam=(2, 1))
    assert res.instances == 2 and res.failures == ["count((2, 1)) = (1, 2) != (2, 1)"]
    with pytest.raises(AssertionError):
        res.expect(0, 1, "{lam}", lam=u)


def test_every_suite_states_its_comparisons_through_expect():
    """Each expect call's template is a literal, so no message is built before a failure."""
    import ast
    from pathlib import Path

    import kgroth.families as families

    tree = ast.parse(Path(families.__file__).read_text(encoding="utf-8"))

    def expect_calls(node):
        return [
            sub for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "expect"
        ]

    for call in expect_calls(tree):
        template = call.args[2] if len(call.args) > 2 else next(
            kw.value for kw in call.keywords if kw.arg == "template"
        )
        assert isinstance(template, ast.Constant) and isinstance(template.value, str), (
            ast.unparse(call)
        )
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "VERIFY_CHECKS"
    )
    assert [key.value for key in table.keys] == list(families.VERIFY_CHECKS)
    for key, entry in zip(table.keys, table.values):
        suite = defs[entry.body.func.id]
        assert expect_calls(suite), key.value
        assert not any(isinstance(sub, ast.JoinedStr) for sub in ast.walk(suite)), key.value


def test_check_result_without_instances_fails():
    assert not CheckResult("demo", {}).ok


def test_scan_reports_are_schema_valid():
    from kgroth.families import SCANS

    for name, fn in SCANS.items():
        report = fn(2, 3)
        jsonschema.validate(report, SCAN_REPORT_SCHEMA)
        assert report["conjecture"] == name


def test_kss_scan_is_exact_at_tiny_degree():
    report = scan_kss_cancellation(2, 2)
    assert all(entry["exact"] for entry in report["entries"])


def _every_other_negated(solve):
    """solve with every other coefficient of its result negated, in key order."""

    def planted(*args):
        coeffs = sorted(solve(*args).items())
        return {mu: -c if i % 2 else c for i, (mu, c) in enumerate(coeffs)}

    return planted


def _wrong_at_2(dual):
    """dual with a wrong value at (2,), a shape whose main hook is 2."""
    return lambda lam: dual(lam) + h((1,)) if lam == (2,) else dual(lam)


def _count_moved(delta, level=None):
    """A column reader off by delta at shape (1,) of weight (2, 1), at one level or at all."""

    def plant(column):
        def planted(mu, k):
            col = column(mu, k)
            if mu == (2, 1) and level in (None, k):
                col = {**col, (1,): col.get((1,), 0) + delta}
            return col

        return planted

    return plant


# SHA-256 of json.dumps(report, sort_keys=True) for each scan at k=2, deg_max=5
# with the planted faults.  The m-side scans' digests were recorded when each
# of their rows was a solve against the G-side members, which read the same
# planted column; the others when each scan built its entry and violation lists
SCAN_FINDINGS_SHA256 = {
    "G-in-dualks-positivity": "5dd5d96ab810d6852e50d4d4198116091f277e9268371f218db139fe0015a030",
    "gk-in-g-positivity": "8dd6b2bd7539d989d60c1b3b56324d778673e017354e2d279f9b44c9639efad5",
    "gk-branching-positivity": "532129b600dd24212ce0e13957b09dd0aa9f95fe76f49827c685eab6af96be1a",
    "s-in-Gk-positivity": "a7050e8cb25d6212bca39c04a86593147eac2581d625a69d36868bfddb6a91c2",
    "kss-cancellation": "0311f0435ac4d290f80b21ef4e4b44b4c165484b34a4670b961c9ef9a262c14e",
}


@pytest.mark.parametrize("name, planted", [
    ("G-in-dualks-positivity", (("_column", _count_moved(2)),)),
    ("gk-in-g-positivity", (("expand_in_family", _every_other_negated),)),
    ("gk-branching-positivity", (("_column", _count_moved(-2, level=3)),)),
    ("s-in-Gk-positivity", (("_column", _count_moved(2)),)),
    ("kss-cancellation", (("dual_grothendieck", _wrong_at_2),)),
])
def test_scan_findings_are_pinned(name, planted, monkeypatch):
    # no scan finds anything on the true families at small sizes, so faults
    # are planted to reach the findings; a planted column reaches the members
    # and top columns built from it, so they are forgotten before the scan and after it
    import hashlib
    import json

    import kgroth.families as families

    def forget():
        for member in (families.kkschur, families.k_schur, families.affine_grothendieck,
                       families._top_column):
            member.cache_clear()

    for attr, plant in planted:
        monkeypatch.setattr(families, attr, plant(getattr(families, attr)))
    forget()
    try:
        report = families.SCANS[name](2, 5)
    finally:
        forget()
    jsonschema.validate(report, SCAN_REPORT_SCHEMA)
    assert report["violations"]
    assert report["violations"] == [entry for entry in report["entries"] if not entry["sign_ok"]]
    if name == "gk-branching-positivity":
        assert {v.get("series") for v in report["violations"]} == {
            None, "generating-function-branching"
        }
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode("ascii")).hexdigest()
    assert digest == SCAN_FINDINGS_SHA256[name]


@pytest.mark.parametrize("name, k, deg_max", [
    ("G-in-dualks-positivity", 3, 6),
    ("gk-branching-positivity", 2, 5),
    ("s-in-Gk-positivity", 2, 6),
])
def test_m_side_scans_build_no_weight_series(name, k, deg_max, monkeypatch, empty_kostka_cache):
    # the m-side scans read the h-side duals, so no G-side member, and no
    # weight series, is built; the caches start empty so a memo cannot hide one
    import kgroth.families as families

    calls = []
    true = families._series

    def counted(*args):
        calls.append(args[0])
        return true(*args)

    monkeypatch.setattr(families, "_series", counted)
    families.SCANS[name](k, deg_max)
    assert calls == []


def test_every_scan_reports_through_one_builder():
    """Each scan returns _report(...), the only function that builds a report dict."""
    import ast
    from pathlib import Path

    import kgroth.families as families

    tree = ast.parse(Path(families.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for fn in families.SCANS.values():
        returns = [sub for sub in ast.walk(defs[fn.__name__]) if isinstance(sub, ast.Return)]
        assert returns, fn.__name__
        for ret in returns:
            assert isinstance(ret.value, ast.Call), fn.__name__
            assert getattr(ret.value.func, "id", None) == "_report", fn.__name__
    for name, node in defs.items():
        if name == "_report":
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Dict):
                keys = sub.keys
            elif isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store):
                keys = [sub.slice]
            else:
                keys = []
            assert not any(isinstance(key, ast.Constant) and key.value == "violations"
                           for key in keys), name
