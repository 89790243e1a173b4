from collections import Counter
from itertools import accumulate, product

import pytest

import kgroth.tableaux as tableaux
from kgroth.partitions import (
    Core,
    bounded_to_core,
    contains,
    degree,
    k_bounded_up_to,
    partitions_of,
)
from kgroth.symfunc import _h_in_s, _s_in_m, distinct_permutations
from kgroth.tableaux import (
    SetValuedFilling,
    StripChain,
    _classical_sv_transitions,
    _horizontal_strips,
    _strip_transitions,
    classical_kostka_column,
    count_classical_kostka,
    count_kostka,
    count_semistandard,
    enumerate_sv_strips,
    enumerate_sv_strips_vertical,
    enumerate_tableaux,
    is_classical_set_valued,
    is_standard_affine_sv,
    kostka_column,
    lowest_reading_word,
    shape_of_cells,
    sweep,
    valid_blocks,
)
from kgroth.words import DeadWordError, ResidueWord, alive_words, standard_tableau_of_word

from known_values import (
    DOCUMENTED_READING_WORDS,
    KTAB_8521_W131211,
    SSASV_W2111_DOCUMENTED,
    SSASV_W2111_UNDOCUMENTED,
    STANDARD_DEG5_K2_DOCUMENTED,
    STANDARD_DEG5_K2_UNDOCUMENTED,
    UNDOCUMENTED_READING_WORDS,
    filling,
)
from oracles import (
    AffineSVStrip,
    affine_column_by_weight,
    alphabet_blocks,
    chain_is_valid,
    classical_sv_count,
    classical_sv_fillings,
    column_by_weight,
    compress_filling,
    core_to_bounded_by_hooks,
    fits_affine_sv_blocks,
    is_affine_strip,
    is_affine_sv_strip,
    is_horizontal_strip,
    is_k_tableau,
    k_tableau_weight,
    semistandard_fillings,
    strip_transitions_by_blocks,
    sv_strips_brute,
    vertical_strips_brute,
    vertical_strips_by_cores,
)


def all_standard_fillings(n, k):
    """Every standard filling of degree n, via exhaustive word search."""
    out = []
    for letters in product(range(k + 1), repeat=n):
        word = ResidueWord(letters, k)
        try:
            out.append(standard_tableau_of_word(word))
        except DeadWordError:
            continue
    return out


def is_affine_sv_tableau(t, alpha, k):
    """The whole definition of an affine set-valued tableau of weight alpha."""
    return fits_affine_sv_blocks(t, alpha, k) and is_standard_affine_sv(t, k)


# ---------------------------------------------------------------------------
# fillings


def test_filling_validation():
    with pytest.raises(ValueError):
        SetValuedFilling((2,), {(0, 0): frozenset({1})})
    with pytest.raises(ValueError):
        SetValuedFilling((1,), {(0, 0): frozenset()})


def test_shape_of_cells():
    assert shape_of_cells({(0, 0), (0, 1), (1, 0)}) == (2, 1)
    assert shape_of_cells(set()) == ()
    assert shape_of_cells({(0, 1)}) is None
    assert shape_of_cells({(1, 0)}) is None


def test_weight_and_render():
    t = filling((2, 1), {(0, 0): {1}, (0, 1): {1, 2}, (1, 0): {3}})
    assert t.weight() == (2, 1, 1)
    text = t.render(k=2, show_residues=True)
    assert text.splitlines()[-1].startswith("{1}_0")


def test_classical_set_valued_condition():
    good = filling((2, 1), {(0, 0): {1}, (0, 1): {1, 2}, (1, 0): {3}})
    assert is_classical_set_valued(good)
    bad_row = filling((2,), {(0, 0): {2}, (0, 1): {1}})
    assert not is_classical_set_valued(bad_row)
    bad_col = filling((1, 1), {(0, 0): {1, 2}, (1, 0): {2}})
    assert not is_classical_set_valued(bad_col)


def test_lowest_reading_words_of_documented_fillings():
    for t, expected in zip(STANDARD_DEG5_K2_DOCUMENTED, DOCUMENTED_READING_WORDS):
        assert lowest_reading_word(t, range(1, 6)) == expected
    for t, expected in zip(STANDARD_DEG5_K2_UNDOCUMENTED, UNDOCUMENTED_READING_WORDS):
        assert lowest_reading_word(t, range(1, 6)) == expected
    assert lowest_reading_word(filling((1,), {(0, 0): {1, 2}}), (1, 2)) == (2, 1)


def test_standard_condition_examples():
    for t in STANDARD_DEG5_K2_DOCUMENTED + STANDARD_DEG5_K2_UNDOCUMENTED:
        assert is_standard_affine_sv(t, 2)
    not_core_chain = filling((2, 1), {(0, 0): {1}, (0, 1): {2}, (1, 0): {3}})
    assert not is_standard_affine_sv(not_core_chain, 2)


def test_standard_enumeration_matches_words():
    fillings = all_standard_fillings(5, 2)
    on_shape = [t for t in fillings if t.shape == (3, 1, 1)]
    assert len(on_shape) == 10
    expected = set(STANDARD_DEG5_K2_DOCUMENTED + STANDARD_DEG5_K2_UNDOCUMENTED)
    assert set(on_shape) == expected
    for t in fillings:
        assert is_standard_affine_sv(t, 2)


# every (k, n) with k = 2..4 and n <= 6; the walk and the block table add n = 7
SMALL_SIZES = [(k, n) for k in (2, 3, 4) for n in range(7)]


def test_alive_words_are_the_words_that_survive_evaluation():
    """The walk finds the words that evaluating all (k+1)^n words keeps.

    A filling records the residue of each letter, so equal multisets of
    fillings mean equal sets of words.
    """
    for k, n in SMALL_SIZES + [(2, 7), (3, 7)]:
        walked = [standard_tableau_of_word(word) for word in alive_words(n, k)]
        assert Counter(walked) == Counter(all_standard_fillings(n, k)), (k, n)
        assert all(is_standard_affine_sv(t, k) for t in walked), (k, n)


def assert_blocks_decide_as_the_literal_check(t, k):
    """Each composition of t's letters, parts above k too, fits t by the table as by the literal check."""
    table = valid_blocks(t, k)
    for mu in partitions_of(t.max_letter()):
        for alpha in distinct_permutations(mu):
            ends = list(accumulate(alpha, initial=1))
            fits = set(zip(ends, ends[1:])) <= table
            assert fits == fits_affine_sv_blocks(t, alpha, k), (t.cells, k, alpha)


def test_valid_blocks_decide_each_weight_as_the_literal_check():
    """A composition fits an alive filling exactly when each of its blocks is valid."""
    for k, n in SMALL_SIZES + [(2, 7)]:
        for word in alive_words(n, k):
            assert_blocks_decide_as_the_literal_check(standard_tableau_of_word(word), k)


def test_valid_blocks_match_the_literal_check_off_standard_fillings():
    """The same verdicts on every semistandard set-valued filling of at most 5 letters.

    On standard fillings the other conditions imply the residue and size
    conditions at the sizes tried, so only these fillings pin them.
    """
    for total in range(1, 6):
        for shape in [mu for size in range(1, total + 1) for mu in partitions_of(size)]:
            for t in classical_sv_fillings(shape, total):
                for k in (1, 2, 3):
                    assert_blocks_decide_as_the_literal_check(t, k)


def test_weighted_membership():
    for t in STANDARD_DEG5_K2_DOCUMENTED + STANDARD_DEG5_K2_UNDOCUMENTED:
        assert is_affine_sv_tableau(t, (1, 1, 1, 1, 1), 2)
    for t in SSASV_W2111_DOCUMENTED + SSASV_W2111_UNDOCUMENTED:
        assert is_affine_sv_tableau(t, (2, 1, 1, 1), 2)
    # a single block of size five is not 2-bounded, and the first filling
    # fails the distinct-residue count anyway
    assert not is_affine_sv_tableau(STANDARD_DEG5_K2_DOCUMENTED[0], (5,), 2)
    assert not is_affine_sv_tableau(STANDARD_DEG5_K2_DOCUMENTED[0], (2, 3), 3)
    single = filling((1,), {(0, 0): {1}})
    assert is_affine_sv_tableau(single, (1,), 2)


def test_k_tableau_checker():
    for t in KTAB_8521_W131211:
        assert is_k_tableau(t, 3)
        assert k_tableau_weight(t, 3) == (1, 3, 1, 2, 1, 1)
    with_pair = filling((1,), {(0, 0): {1, 2}})
    assert not is_k_tableau(with_pair, 2)
    repeated_row = filling((2,), {(0, 0): {1}, (0, 1): {1}})
    assert is_k_tableau(repeated_row, 3) and k_tableau_weight(repeated_row, 3) == (2,)
    # residue total 5 exceeds the size 4 of the bounded image
    wrong_total = filling(
        (4, 1), {(0, 0): {1}, (0, 1): {1}, (0, 2): {1}, (0, 3): {1}, (1, 0): {2}}
    )
    assert not is_k_tableau(wrong_total, 3)


# ---------------------------------------------------------------------------
# strips


def test_affine_strip_examples():
    c = Core((3, 1, 1), 2)
    assert is_affine_strip(c, c, 0)
    assert is_affine_strip(Core((3, 1, 1), 2), Core((1, 1), 2), 2)
    assert is_affine_strip(Core((2,), 2), Core((), 2), 2)
    assert not is_affine_strip(Core((2,), 2), Core((), 2), 1)


def test_affine_sv_strip_oracle_examples():
    gamma, beta = Core((3, 1, 1), 2), Core((1, 1), 2)
    assert is_affine_sv_strip(AffineSVStrip(gamma, beta, beta.shape, 2))
    c = Core((2, 1, 1), 2)
    assert is_affine_sv_strip(AffineSVStrip(c, c, c.shape, 0))


@pytest.mark.parametrize("k", [2, 3])
def test_strips_match_brute_force(k):
    for lam in k_bounded_up_to(4, k):
        beta = bounded_to_core(lam, k)
        for r in range(k + 1):
            fast = sorted((g.shape, rho) for g, rho in enumerate_sv_strips(beta, r))
            brute = [(g, rho) for g, rho in sv_strips_brute(beta, r)]
            assert fast == brute, (lam, r)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_strip_transitions_match_block_application(k):
    # tuple equality: the order enumerate_sv_strips and `pieri --strips` print is pinned too
    for lam in k_bounded_up_to(7, k):
        shape = bounded_to_core(lam, k).shape
        for r in range(k + 1):
            got = _strip_transitions(shape, r, k)
            assert got == strip_transitions_by_blocks(shape, r, k), (lam, r)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_affine_steps_count_the_end_cores_of_block_application(k):
    for lam in k_bounded_up_to(9, k):
        shape = bounded_to_core(lam, k).shape
        for r in range(k + 1):
            ends = Counter(core_to_bounded_by_hooks(gamma, k)
                           for gamma, _rho in strip_transitions_by_blocks(shape, r, k))
            assert dict(tableaux._affine_steps(lam, r, k)) == ends, (lam, r)


def test_every_enumerated_strip_passes_the_checker():
    for k in (2, 3):
        for lam in k_bounded_up_to(4, k):
            beta = bounded_to_core(lam, k)
            for r in range(k + 1):
                for gamma, rho in enumerate_sv_strips(beta, r):
                    assert is_affine_sv_strip(AffineSVStrip(gamma, beta, rho, r))


def test_row_strip_multiset_for_worked_example():
    beta = bounded_to_core((3, 2, 1), 3)
    strips = enumerate_sv_strips(beta, 2)
    mus = sorted(gamma.to_bounded() for gamma, _ in strips)
    assert mus == sorted(
        [(3, 2, 2, 1), (3, 3, 1, 1), (3, 2, 1, 1), (3, 2, 2), (3, 2, 2), (3, 2, 1)]
    )


def test_vertical_strip_multiset_for_worked_example():
    beta = bounded_to_core((3, 2, 1), 3)
    strips = enumerate_sv_strips_vertical(beta, 2)
    mus = sorted(gamma.to_bounded() for gamma, _ in strips)
    assert mus == sorted(
        [(3, 2, 1, 1, 1), (3, 2, 2, 1), (3, 2, 1, 1), (3, 2, 2), (3, 2, 1)]
    )


def test_vertical_strips_trivial_and_brute():
    assert [(g.shape, rho) for g, rho in enumerate_sv_strips_vertical(Core((), 2), 1)] == [
        ((1,), ())
    ]
    for k in (2, 3):
        for lam in k_bounded_up_to(3, k):
            beta = bounded_to_core(lam, k)
            for r in range(k + 1):
                fast = sorted((g.shape, rho) for g, rho in enumerate_sv_strips_vertical(beta, r))
                assert fast == vertical_strips_brute(beta, r), (lam, r)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_vertical_strips_match_the_core_transport_in_order(k):
    for lam in k_bounded_up_to(7, k):
        beta = bounded_to_core(lam, k)
        for r in range(k + 1):
            got = enumerate_sv_strips_vertical(beta, r)
            assert got == vertical_strips_by_cores(beta, r), (lam, r)


def test_strip_bounds():
    with pytest.raises(ValueError):
        enumerate_sv_strips(Core((), 2), 3)
    with pytest.raises(ValueError):
        enumerate_sv_strips_vertical(Core((), 2), 5)


# ---------------------------------------------------------------------------
# chains and counts


def test_enumerate_tableaux_worked_examples():
    chains = enumerate_tableaux((2, 1, 1), (2, 1, 1, 1), 2)
    fillings = {ch.to_filling((2, 1, 1, 1)) for ch in chains}
    assert fillings == set(SSASV_W2111_DOCUMENTED + SSASV_W2111_UNDOCUMENTED)
    chains5 = enumerate_tableaux((2, 1, 1), (1, 1, 1, 1, 1), 2)
    fillings5 = {ch.to_filling((1, 1, 1, 1, 1)) for ch in chains5}
    assert fillings5 == set(STANDARD_DEG5_K2_DOCUMENTED + STANDARD_DEG5_K2_UNDOCUMENTED)


def test_enumerate_tableaux_equal_degree_gives_k_tableaux():
    alpha = (1, 3, 1, 2, 1, 1)
    chains = enumerate_tableaux((3, 3, 2, 1), alpha, 3)
    assert len(chains) == 3
    compressed = {compress_filling(ch.to_filling(alpha), alpha) for ch in chains}
    assert compressed == set(KTAB_8521_W131211)


def test_chain_validity_and_conversion():
    alpha = (2, 1, 1, 1)
    for ch in enumerate_tableaux((2, 1, 1), alpha, 2):
        assert chain_is_valid(ch, alpha)
        assert is_affine_sv_tableau(ch.to_filling(alpha), alpha, 2)


def test_to_filling_rejects_a_rho_outside_its_gamma():
    # a row of rho longer than gamma's, a row of rho above gamma, and a chain
    # that the rows of gamma alone would fill as the tableau {1}{2} of shape (2)
    for steps, alpha in [((((1,), (2,)),), (1,)), ((((2,), (1, 1)),), (1,)),
                         ((((1,), ()), ((2,), (1, 1))), (1, 1))]:
        with pytest.raises(ValueError, match="is not contained in"):
            StripChain(2, steps).to_filling(alpha)


def test_zero_parts_are_skipped():
    assert count_kostka((2, 1, 1), (2, 0, 1, 1, 0, 1), 2) == count_kostka(
        (2, 1, 1), (2, 1, 1, 1), 2
    )
    chains = enumerate_tableaux((1,), (0, 1, 0), 2)
    assert len(chains) == 1


def test_count_kostka_examples():
    assert count_kostka((2, 1, 1), (2, 1, 1, 1), 2) == 4
    assert count_kostka((3, 3, 2, 1), (1, 3, 1, 2, 1, 1), 3) == 3
    assert count_kostka((2, 1, 1), (1, 1, 1), 2) == 0  # degree bound
    assert count_kostka((), (), 2) == 1
    with pytest.raises(ValueError):
        count_kostka((2, 1), (3, 1), 2)


@pytest.mark.parametrize("k", [2, 3])
def test_degree_bound_and_triangularity(k):
    for lam in k_bounded_up_to(5, k):
        assert count_kostka(lam, lam, k) == 1
        for mu in k_bounded_up_to(degree(lam), k):
            if degree(mu) < degree(lam):
                assert count_kostka(lam, mu, k) == 0
            elif degree(mu) == degree(lam):
                from kgroth.partitions import dominates

                if not dominates(lam, mu):
                    assert count_kostka(lam, mu, k) == 0


@pytest.mark.parametrize("k", [2, 3])
def test_equal_degree_counts_are_k_tableau_counts(k):
    """At equal degree the enumeration lands on singleton fillings."""
    for lam in k_bounded_up_to(5, k):
        for mu in k_bounded_up_to(degree(lam), k):
            if degree(mu) != degree(lam):
                continue
            for alpha in distinct_permutations(mu):
                chains = enumerate_tableaux(lam, alpha, k)
                assert sum(alpha) == degree(lam)
                assert len(chains) == count_kostka(lam, alpha, k)
                for ch in chains:
                    t = ch.to_filling(alpha)
                    compressed = compress_filling(t, alpha)
                    assert is_k_tableau(compressed, k)
                    assert k_tableau_weight(compressed, k) == tuple(alpha)


def test_classical_reduction_of_counts():
    """Low-hook shapes count classical set-valued tableaux."""
    from kgroth.partitions import main_hook

    for k in (2, 3):
        for lam in k_bounded_up_to(4, k):
            if main_hook(lam) > k:
                continue
            for mu in k_bounded_up_to(degree(lam) + 2, k):
                if degree(mu) < degree(lam):
                    continue
                assert count_kostka(lam, mu, k) == count_classical_kostka(lam, mu), (lam, mu, k)


def test_classical_counts_against_brute_force():
    for lam in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
        for n in range(degree(lam), degree(lam) + 3):
            from kgroth.partitions import partitions_of

            for mu in partitions_of(n):
                if len(mu) > 5:
                    continue
                assert count_classical_kostka(lam, mu) == classical_sv_count(lam, mu), (lam, mu)


def test_semistandard_counts():
    assert count_semistandard((2, 1), (1, 1, 1)) == 2
    assert count_semistandard((2, 1), (2, 1)) == 1
    assert count_semistandard((2, 1), (3,)) == 0
    for lam in [(2, 1), (2, 2), (3, 1), (2, 1, 1)]:
        from kgroth.partitions import partitions_of

        for mu in partitions_of(degree(lam)):
            assert count_semistandard(lam, mu) == len(semistandard_fillings([*lam] and lam, mu))
    # rearranged weights and zero parts read the column of the sorted weight
    for lam, mu in [((2, 1), (1, 2)), ((2, 1), (0, 2, 1)), ((2, 1), (1, 0, 1, 1)),
                    ((3, 1), (1, 3)), ((2, 2), (1, 2, 1)), ((3, 2, 1), (0, 1, 3, 0, 2)),
                    ((2, 1), (0, 2, 2))]:
        assert count_semistandard(lam, mu) == len(semistandard_fillings(lam, mu)), (lam, mu)


def test_schur_kostka_against_brute_force():
    from kgroth.partitions import partitions_of

    for n in range(7):
        for mu in partitions_of(n):
            column = _h_in_s(mu)
            for lam in partitions_of(n):
                want = len(semistandard_fillings(lam, mu))
                assert column.get(lam, 0) == want, (lam, mu)
                assert _s_in_m(lam).get(mu, 0) == want, (lam, mu)
            assert 0 not in column.values()
        for lam in partitions_of(n):
            row = _s_in_m(lam)
            assert 0 not in row.values()
            assert list(row) == [mu for mu in partitions_of(n) if mu in row]


def _compositions(n: int, max_part: int) -> list[tuple[int, ...]]:
    """Every composition of n with parts in 1..max_part."""
    if n == 0:
        return [()]
    return [(a,) + rest for a in range(1, min(n, max_part) + 1)
            for rest in _compositions(n - a, max_part)]


def _with_zeros(alpha: tuple[int, ...]) -> tuple[int, ...]:
    """alpha with a zero part before and after every part."""
    return (0,) + tuple(x for a in alpha for x in (a, 0))


def _is_partition(parts: tuple[int, ...]) -> bool:
    return list(parts) == sorted(parts, reverse=True)


@pytest.fixture
def fresh_sweeps():
    """No swept prefix kept before the test, so its reads walk the memo from empty."""
    tableaux._PREFIXES.clear()
    yield
    tableaux._PREFIXES.clear()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_affine_sweep_matches_the_per_weight_loop(k, fresh_sweeps):
    for n in range(9):
        for alpha in _compositions(n, k):
            want = affine_column_by_weight(alpha, k)
            assert kostka_column(alpha, k) == want, alpha
            assert kostka_column(_with_zeros(alpha), k) == want, alpha
    kept = tableaux._PREFIXES[(tableaux._affine_steps, (k,))]
    assert all(_is_partition(prefix) for prefix in kept)
    assert set(kept) == set(k_bounded_up_to(8, k))


def test_horizontal_strips_are_every_strip_of_their_size_in_increasing_order():
    for n in range(7):
        for beta in partitions_of(n):
            for r in range(5):
                want = sorted(gamma for gamma in partitions_of(n + r)
                              if contains(gamma, beta) and is_horizontal_strip(gamma, beta))
                got = list(_horizontal_strips(beta, r).items())
                assert got == [(gamma, 1) for gamma in want], (beta, r)


@pytest.mark.parametrize("step, read", [
    (_classical_sv_transitions, classical_kostka_column),
    (_horizontal_strips, _h_in_s),
], ids=["classical", "schur"])
def test_classical_sweeps_match_the_per_weight_loop(step, read, fresh_sweeps):
    from kgroth.partitions import partitions_of

    for n in range(9):
        for alpha in _compositions(n, n):
            want = column_by_weight(alpha, step)
            assert read(alpha) == want, alpha
            assert read(_with_zeros(alpha)) == want, alpha
    kept = tableaux._PREFIXES[(step, ())]
    assert all(_is_partition(prefix) for prefix in kept)
    assert set(kept) == {mu for n in range(9) for mu in partitions_of(n)}


def test_a_kept_weight_reads_back_the_walked_states(fresh_sweeps):
    walked = sweep((3, 2, 1), tableaux._affine_steps, 3)
    kept = tableaux._PREFIXES[(tableaux._affine_steps, (3,))]
    assert kept[(3, 2, 1)] is walked
    assert sweep((3, 2, 1), tableaux._affine_steps, 3) is walked
    # a list is not a memo key and a padded weight is not kept: both walk
    assert sweep([3, 2, 1], tableaux._affine_steps, 3) is walked
    assert sweep((3, 2, 1, 0), tableaux._affine_steps, 3) is walked
    assert sweep((2, 2, 0), tableaux._affine_steps, 3) is kept[(2, 2)]
    assert all(0 not in prefix for prefix in kept)


def test_sweep_walks_long_weights_without_recursion(fresh_sweeps):
    def stay(shape, r):
        return {shape: 1}

    # longer than the default recursion limit, both as kept prefixes and as
    # the unkept tail after an ascent
    assert sweep((2,) * 1500, stay) == {(): 1}
    assert sweep((1,) + (2,) * 3000, stay) == {(): 1}
    assert len(tableaux._PREFIXES[(stay, ())]) == 1502


def test_one_sparse_map_accumulates_table_rows():
    """No function but _linear sums a keyed table row into a dict in a nested loop.

    The pattern is d[key] = d.get(key, 0) + ..., or the same through a bound
    get, in a for loop inside another.  SymFunc.__mul__ keeps one double loop
    over pairs of terms, each pair read off a memoized table: one dict per
    pair through _linear is slower.
    """
    import ast
    from pathlib import Path

    def accumulates(stmt):
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Subscript)
                and isinstance(stmt.value, ast.BinOp) and isinstance(stmt.value.op, ast.Add)):
            return False
        read = stmt.value.left
        return (isinstance(read, ast.Call) and len(read.args) == 2
                and isinstance(read.args[1], ast.Constant) and read.args[1].value == 0
                and ast.dump(read.args[0]) == ast.dump(stmt.targets[0].slice)
                and (getattr(read.func, "attr", None) == "get"
                     or isinstance(read.func, ast.Name)))

    def offends(fn):
        return any(
            accumulates(stmt)
            for outer in ast.walk(fn) if isinstance(outer, ast.For)
            for inner in ast.walk(outer) if isinstance(inner, ast.For) and inner is not outer
            for stmt in ast.walk(inner)
        )

    found = set()
    for path in Path(tableaux.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                fns = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                fns = [(f"{node.name}.{sub.name}", sub)
                       for sub in node.body if isinstance(sub, ast.FunctionDef)]
            else:
                continue
            found.update(f"{path.stem}.{name}" for name, fn in fns if offends(fn))
    assert found == {"tableaux._linear", "symfunc.SymFunc.__mul__"}


def test_one_dense_kernel_steps_numbered_rows():
    """No function but kostka._sweep_numbered sums products into a subscript in a nested loop.

    The pattern is x[j] += <a product>, in a for loop inside another.  The
    matrix build numbers every shape of its file, so a step sums the parent's
    rows of (end id, count) pairs into one list over all ids: a cold k = 5,
    degree 13 sweep took 30 ms that way against 40 ms through _linear on
    id-keyed dicts (medians of 12 alternating fresh processes, Python 3.11,
    x86-64).  Everywhere else the keys have no dense numbering.
    """
    import ast
    from pathlib import Path

    def accumulates(stmt):
        return (isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add)
                and isinstance(stmt.target, ast.Subscript)
                and isinstance(stmt.value, ast.BinOp) and isinstance(stmt.value.op, ast.Mult))

    def offends(fn):
        return any(
            accumulates(stmt)
            for outer in ast.walk(fn) if isinstance(outer, ast.For)
            for inner in ast.walk(outer) if isinstance(inner, ast.For) and inner is not outer
            for stmt in ast.walk(inner)
        )

    found = set()
    for path in Path(tableaux.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                fns = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                fns = [(f"{node.name}.{sub.name}", sub)
                       for sub in node.body if isinstance(sub, ast.FunctionDef)]
            else:
                continue
            found.update(f"{path.stem}.{name}" for name, fn in fns if offends(fn))
    assert found == {"kostka._sweep_numbered"}


def test_direct_definition_agrees_with_chains():
    """The literal-condition filter and the chain construction coincide."""
    k = 2
    for alpha in [
        (1, 1, 1),
        (2, 1),
        (1, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
        (2, 2),
        (2, 2, 2),
        (1, 1, 1, 1, 1, 1),
    ]:
        n = sum(alpha)
        direct: dict[tuple[int, ...], set] = {}
        for t in all_standard_fillings(n, k):
            if is_affine_sv_tableau(t, alpha, k):
                lam = Core(t.shape, k).to_bounded()
                direct.setdefault(lam, set()).add(t)
        for lam in k_bounded_up_to(n, k):
            chains = enumerate_tableaux(lam, alpha, k)
            assert {ch.to_filling(alpha) for ch in chains} == direct.get(lam, set())


def test_alphabet_blocks():
    assert [list(b) for b in alphabet_blocks((2, 0, 1))] == [[1, 2], [3]]
