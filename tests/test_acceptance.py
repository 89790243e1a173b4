"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test prints one pass/fail line, and every criterion is expected to pass.
Criteria 1b, 1c and 2 pin the complete enumerations on the core (3,1,1) at
k=2: 10 standard fillings of degree 5, 4 fillings of weight (2,1,1,1), and
the ten-word reading multiset of the standard fillings.  The affine stable
Grothendieck polynomial is defined by factorizations in the affine 0-Hecke
monoid, so each count is the number of 0-Hecke factorizations of the element
of (2,1,1) into cyclically decreasing factors of the given sizes.  Counted by
window arithmetic alone, that is 10 for (1,1,1,1,1) and 4 for (2,1,1,1) and
for every rearrangement of it, as symmetry requires.
``test_words.py::test_counts_against_window_arithmetic`` checks both counts
against the window-arithmetic oracle in ``oracles.py``, and criterion 10
checks that counts agree across rearrangements of a weight.  An earlier example
list gave 8, 3 and eight words; it left out the fillings with reading words
54123 and 21354 and one filling of weight (2,1,1,1).
"""

import time
from collections import Counter

import jsonschema

from kgroth.families import (
    SCANS,
    verify_bijection,
    verify_duality,
    verify_k_newton,
    verify_kostka_symmetry,
    verify_newton,
    verify_omega,
    verify_pieri,
    verify_reduction_g,
    verify_reduction_G,
    column_pieri,
    row_pieri,
)
from kgroth.partitions import Core, degree
from kgroth.schemas import SCAN_REPORT_SCHEMA
from kgroth.tableaux import count_kostka, enumerate_tableaux, lowest_reading_word

from known_values import COL_PIERI_321_R2_K3, ROW_PIERI_321_R2_K3


def report(number: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01a_equal_degree_count():
    start = time.monotonic()
    lam = Core((8, 5, 2, 1), 3).to_bounded()
    alpha = (1, 3, 1, 2, 1, 1)
    # at equal degree the affine set-valued tableaux are the k-tableaux
    assert sum(alpha) == degree(lam)
    count = count_kostka(lam, alpha, 3)
    elapsed = time.monotonic() - start
    ok = count == 3 and elapsed < 1.0
    report("1a", ok, f"weight (1,3,1,2,1,1) on (8,5,2,1), k=3: {count} in {elapsed:.2f}s")


def test_criterion_01b_standard_degree_five_count():
    start = time.monotonic()
    count = count_kostka((2, 1, 1), (1, 1, 1, 1, 1), 2)
    elapsed = time.monotonic() - start
    ok = count == 10 and elapsed < 1.0
    report("1b", ok, f"standard degree 5 on (3,1,1), k=2: {count} (required 10) in {elapsed:.2f}s")


def test_criterion_01c_weighted_count():
    start = time.monotonic()
    count = count_kostka((2, 1, 1), (2, 1, 1, 1), 2)
    elapsed = time.monotonic() - start
    ok = count == 4 and elapsed < 1.0
    report("1c", ok, f"weight (2,1,1,1) on (3,1,1), k=2: {count} (required 4) in {elapsed:.2f}s")


def test_criterion_02_reading_words():
    alpha = (1, 1, 1, 1, 1)
    chains = enumerate_tableaux((2, 1, 1), alpha, 2)
    words = Counter(
        "".join(map(str, lowest_reading_word(ch.to_filling(alpha), range(1, 6))))
        for ch in chains
    )
    required = Counter(
        [
            "21435", "52134", "52134", "32145", "32145",
            "51324", "51243", "41253", "54123", "21354",
        ]
    )
    ok = words == required
    report("2", ok, f"reading-word multiset {sorted(words.items())} vs required {sorted(required.items())}")


def test_criterion_03_row_pieri_example():
    terms = row_pieri((3, 2, 1), 2, 3).terms
    ok = terms == ROW_PIERI_321_R2_K3
    report("3", ok, f"row strip product on (3,2,1), r=2, k=3: {sorted(terms.items())}")


def test_criterion_04_column_pieri_example():
    terms = column_pieri((3, 2, 1), 2, 3).terms
    ok = terms == COL_PIERI_321_R2_K3
    report("4", ok, f"column strip product on (3,2,1), r=2, k=3: {sorted(terms.items())}")


def test_criterion_05_duality_suite():
    start = time.monotonic()
    results = [verify_duality(k, 6) for k in (2, 3)]
    elapsed = time.monotonic() - start
    ok = all(r.ok for r in results) and elapsed < 300
    detail = ", ".join(f"k={r.params['k']}: {r.instances} pairings" for r in results)
    report("5", ok, f"{detail} in {elapsed:.1f}s")


def test_criterion_06_involution_suite():
    results = [verify_omega(k, 6) for k in (2, 3)]
    ok = all(r.ok for r in results)
    report("6", ok, ", ".join(f"k={r.params['k']}: {r.instances} checks" for r in results))


def test_criterion_07_reduction_suite():
    results = []
    for k in (2, 3, 4):
        results.append(verify_reduction_g(k, 6))
        results.append(verify_reduction_G(k, 6))
    ok = all(r.ok for r in results)
    bad = [f for r in results for f in r.failures]
    report("7", ok, f"{sum(r.instances for r in results)} reductions, failures: {bad}")


def test_criterion_08_oracle_equivalence_suite():
    results = [verify_bijection(k, 5) for k in (2, 3)]
    ok = all(r.ok for r in results)
    report("8", ok, ", ".join(f"k={r.params['k']}: {r.instances} comparisons" for r in results))


def test_criterion_09_identity_suite():
    newton_ok = all(verify_newton(ell) and verify_k_newton(ell) for ell in range(7))
    pieri = [verify_pieri(k, 5) for k in (2, 3)]
    ok = newton_ok and all(r.ok for r in pieri)
    report(
        "9",
        ok,
        f"newton degrees 0..6 and {sum(r.instances for r in pieri)} strip-product identities",
    )


def test_criterion_10_kostka_symmetry():
    results = [verify_kostka_symmetry(k, 5) for k in (2, 3)]
    ok = all(r.ok for r in results)
    report("10", ok, ", ".join(f"k={r.params['k']}: {r.instances} rearrangements" for r in results))


def test_scan_reports_run_and_validate():
    ok = True
    details = []
    for name, fn in sorted(SCANS.items()):
        reportdoc = fn(2, 6)
        jsonschema.validate(reportdoc, SCAN_REPORT_SCHEMA)
        details.append(f"{name}: {len(reportdoc['entries'])} coefficients, {len(reportdoc['violations'])} findings")
    report("scan", ok, "; ".join(details))
