from itertools import product

import pytest

from kgroth import words
from kgroth.partitions import Core, bounded_to_core, degree, k_bounded_up_to
from kgroth.tableaux import count_kostka
from kgroth.words import (
    DeadWordError,
    ResidueWord,
    alpha_factorizations,
    apply_block,
    cyclically_decreasing_word,
    evaluate,
    factorizations_by_shape,
    standard_tableau_of_word,
    word_of_partition,
)

from known_values import STANDARD_DEG5_K2_DOCUMENTED, filling
from oracles import (
    alive_blocks_by_enumeration,
    coxeter_product,
    demazure_product,
    factorizations_by_search,
    is_cyclically_decreasing,
)


def W(text, k):
    return ResidueWord(tuple(int(v) for v in text.split()), k)


def test_word_of_partition_examples():
    assert str(word_of_partition((2, 1, 1), 2)) == "1 2 1 0"
    assert str(word_of_partition((1,), 3)) == "0"
    assert str(word_of_partition((2,), 2)) == "1 0"
    with pytest.raises(ValueError):
        word_of_partition((3,), 2)


def test_words_end_in_zero():
    for k in (2, 3):
        for lam in k_bounded_up_to(6, k):
            if lam:
                assert word_of_partition(lam, k).letters[-1] == 0


def test_evaluate_examples():
    assert evaluate(W("1 2 1 0", 2)).shape == (3, 1, 1)
    assert evaluate(ResidueWord((), 2)).shape == ()
    # a doubled final letter joins the removable corner: still alive
    assert evaluate(W("0 0", 2)).shape == (1,)
    with pytest.raises(DeadWordError):
        evaluate(W("0 1 0", 2))
    with pytest.raises(DeadWordError):
        evaluate(W("1", 2))


@pytest.mark.parametrize("k", [2, 3])
def test_word_of_partition_reaches_the_core(k):
    for lam in k_bounded_up_to(7, k):
        word = word_of_partition(lam, k)
        assert len(word) == degree(lam)
        assert evaluate(word).to_bounded() == lam


@pytest.mark.parametrize("k,maxlen", [(2, 5), (3, 4)])
def test_alive_words_match_the_zero_hecke_oracle(k, maxlen):
    """Aliveness is exactly grassmannianity of the 0-Hecke product."""
    for n in range(maxlen + 1):
        for letters in product(range(k + 1), repeat=n):
            word = ResidueWord(letters, k)
            dem = demazure_product(letters, k)
            try:
                core = evaluate(word)
            except DeadWordError:
                core = None
            assert (core is not None) == dem.is_grassmannian()
            if core is not None and letters:
                assert letters[-1] == 0
                lam = core.to_bounded()
                assert degree(lam) == dem.length()
                assert coxeter_product(word_of_partition(lam, k).letters, k) == dem


def test_cyclically_decreasing_predicate():
    assert is_cyclically_decreasing(W("2 1", 2))
    assert not is_cyclically_decreasing(W("1 2", 2))
    assert is_cyclically_decreasing(W("0 2", 2))
    assert not is_cyclically_decreasing(W("2 0", 2))
    assert not is_cyclically_decreasing(W("1 1", 2))
    assert is_cyclically_decreasing(ResidueWord((), 2))


def test_canonical_cyclically_decreasing_word():
    assert cyclically_decreasing_word({1}, 2).letters == (1,)
    assert cyclically_decreasing_word({0, 1}, 2).letters == (1, 0)
    assert cyclically_decreasing_word({0, 2}, 2).letters == (0, 2)
    assert cyclically_decreasing_word({0, 1, 3}, 3).letters == (1, 0, 3)
    with pytest.raises(ValueError):
        cyclically_decreasing_word({0, 1, 2}, 2)
    with pytest.raises(ValueError, match=r"^residue 5 does not lie in \[0, 2\]$"):
        cyclically_decreasing_word((5,), 2)
    with pytest.raises(ValueError, match=r"^residue 3 does not lie in \[0, 2\]$"):
        apply_block(Core((), 2), {3})
    with pytest.raises(ValueError, match=r"^residue 3 does not lie in \[0, 2\]$"):
        cyclically_decreasing_word((0, 3), 2)
    for k in (2, 3):
        from itertools import combinations

        for size in range(k + 1):
            for subset in combinations(range(k + 1), size):
                assert is_cyclically_decreasing(cyclically_decreasing_word(subset, k))


def test_apply_block_matches_letterwise_evaluation():
    beta = Core((5, 2, 1), 3)
    gamma, touched = apply_block(beta, {2, 3})
    assert gamma.shape == (5, 2, 2)
    assert set(touched) == {(2, 0), (2, 1)}
    with pytest.raises(DeadWordError):
        apply_block(Core((), 3), {1})


def test_standard_tableau_of_word_examples():
    t = standard_tableau_of_word(W("1 2 1 0", 2))
    assert t == filling(
        (3, 1, 1), {(0, 0): {1}, (0, 1): {2}, (0, 2): {3}, (1, 0): {3}, (2, 0): {4}}
    )
    assert standard_tableau_of_word(W("0", 2)) == filling((1,), {(0, 0): {1}})
    t = standard_tableau_of_word(W("1 2 1 1 0", 2))
    assert t in STANDARD_DEG5_K2_DOCUMENTED
    with pytest.raises(DeadWordError):
        standard_tableau_of_word(W("0 1 0", 2))


def test_alpha_factorizations_examples():
    assert len(alpha_factorizations((2, 1, 1), (1, 1, 1, 1), 2)) == 2
    assert len(alpha_factorizations((2, 1, 1), (1, 1, 1, 1, 1), 2)) == 10
    assert len(alpha_factorizations((2, 1, 1), (2, 1, 1, 1), 2)) == 4
    only = alpha_factorizations((1,), (1,), 5)
    assert len(only) == 1 and only[0].blocks[0].letters == (0,)


def test_factorization_structure():
    for fact in alpha_factorizations((2, 1, 1), (2, 1, 1, 1), 2):
        assert [len(b) for b in fact.blocks] == [2, 1, 1, 1]
        for block in fact.blocks:
            assert is_cyclically_decreasing(block)
        word = ResidueWord(tuple(v for block in reversed(fact.blocks) for v in block.letters), 2)
        assert evaluate(word).to_bounded() == (2, 1, 1)


@pytest.mark.parametrize("k, n_max", [(2, 7), (3, 6), (4, 6)])
def test_factorizations_by_shape_match_the_recursive_search(k, n_max):
    from kgroth.partitions import k_bounded_partitions
    from kgroth.symfunc import distinct_permutations

    for n in range(n_max + 1):
        for alpha in (a for mu in k_bounded_partitions(n, k) for a in distinct_permutations(mu)):
            walked, searched = factorizations_by_shape(alpha, k), factorizations_by_search(alpha, k)
            letters = {lam: [tuple(b.letters for b in f.blocks) for f in facts]
                       for lam, facts in searched.items()}
            # the same letter tuples under the same keys, the keys in the same order
            assert walked == letters and list(walked) == list(letters), alpha


def test_factorizations_by_shape_builds_no_record(monkeypatch):
    built = []
    init = ResidueWord.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ResidueWord, "__init__", counted)
    walked = factorizations_by_shape((2, 1, 2, 1), 3)
    assert sum(map(len, walked.values())) > 0 and not built
    assert alpha_factorizations((3, 2, 1), (2, 1, 2, 1), 3) and built


@pytest.mark.parametrize("k", [2, 3, 4])
def test_alpha_factorizations_match_the_recursive_search(k):
    from kgroth.partitions import k_bounded_partitions
    from kgroth.symfunc import distinct_permutations

    for n in range(7):
        for alpha in (a for mu in k_bounded_partitions(n, k) for a in distinct_permutations(mu)):
            searched = factorizations_by_search(alpha, k)
            for lam in k_bounded_up_to(n, k):
                assert alpha_factorizations(lam, alpha, k) == searched.get(lam, []), (lam, alpha)


@pytest.mark.parametrize("k", [2, 3])
def test_factorization_counts_match_tableau_counts(k):
    from kgroth.symfunc import distinct_permutations
    from kgroth.partitions import k_bounded_partitions

    for n in range(5):
        for mu in k_bounded_partitions(n, k):
            for alpha in distinct_permutations(mu):
                for lam in k_bounded_up_to(n, k):
                    assert len(alpha_factorizations(lam, alpha, k)) == count_kostka(
                        lam, alpha, k
                    )


@pytest.mark.parametrize(
    "lam,alpha,k",
    [
        ((2, 1, 1), (2, 1, 1, 1), 2),
        ((2, 1, 1), (1, 1, 1, 1, 1), 2),
        ((2, 2), (2, 1, 1), 2),
        ((3, 2, 1), (2, 2, 2), 3),
        ((2, 2, 1), (3, 2, 1), 3),
        ((3, 1), (2, 2, 1), 3),
        ((4, 2), (4, 2, 1), 4),
    ],
)
def test_counts_against_window_arithmetic(lam, alpha, k):
    """Tableau counts equal block counts computed purely from permutations."""
    from kgroth.kostka import affine_kostka
    from oracles import block_factorization_count

    assert affine_kostka(lam, alpha, k) == block_factorization_count(lam, alpha, k)


@pytest.mark.parametrize("k", range(1, 13))
def test_alive_blocks_match_the_enumeration_of_every_residue_subset(k):
    # the walk draws its subsets near the residues alive on the core once k
    # is large beside the core and r, and must still yield every live block
    # in combinations order
    for lam in k_bounded_up_to(7 if k < 9 else 5, k):
        beta = bounded_to_core(lam, k).shape
        for r in range(min(k, 5) + 1):
            got = [(gamma, tuple(sorted(touched)), letters)
                   for gamma, touched, letters in words._alive_blocks(beta, r, k)]
            assert got == alive_blocks_by_enumeration(beta, r, k), (beta, r)


def test_a_large_level_builds_few_block_words(monkeypatch, capsys, empty_kostka_cache):
    # at k = 60 a block of r letters has C(61, r) residue sets, 5,949,147 for
    # r = 5; the walk builds the words of those near the few corners of each core
    from kgroth import families, tableaux
    from kgroth.cli import main

    built = []
    true = words.cyclically_decreasing_word

    def counted(residues, k):
        built.append(residues)
        return true(residues, k)

    for memo in (words._block_letters, tableaux._strip_transitions, families.kkschur):
        memo.cache_clear()
    monkeypatch.setattr(words, "cyclically_decreasing_word", counted)
    main(["expand", "--family", "gk", "--partition", "3,2", "--k", "60", "--format", "json"])
    assert capsys.readouterr().out
    assert 0 < len(built) <= 300
