import re

import pytest
from hypothesis import given, strategies as st

from kgroth import families, kostka, tableaux, words
from kgroth.partitions import (
    Core,
    _corner_step,
    bounded_to_core,
    check_bounded,
    check_composition,
    check_partition,
    conjugate,
    core_to_bounded,
    degree,
    dominates,
    is_core,
    k_bounded_partitions,
    k_bounded_up_to,
    k_conjugate,
    main_hook,
    partitions_of,
    removable_corners,
    residue,
    residue_word,
)
from kgroth.tableaux import _strip_transitions
from oracles import (
    add_cells,
    addable_corners,
    bounded_to_core_by_corners,
    conjugate_by_counts,
    core_to_bounded_by_hooks,
    corner_step_by_corners,
    is_core_by_hooks,
    is_horizontal_strip,
    strip_transitions_by_corners,
)


def test_check_bounded():
    assert check_bounded([2, 1], 2) == (2, 1)
    assert check_bounded((), 1) == ()
    with pytest.raises(ValueError, match=r"^\(3, 1\) is not 2-bounded$"):
        check_bounded((3, 1), 2)
    with pytest.raises(ValueError, match="weakly decrease"):
        check_bounded((1, 2), 2)


@pytest.mark.parametrize(
    "call",
    [
        (families.kkschur, (2,)),
        (families.k_schur, (2,)),
        (families.dual_k_schur, (2,)),
        (families.affine_grothendieck, (2, 5)),
        (families.row_pieri, (1, 2)),
        (kostka.affine_kostka, ((1, 1, 1), 2)),
        (tableaux.enumerate_tableaux, ((1, 1, 1), 2)),
        (tableaux.count_kostka, ((1, 1, 1), 2)),
        (words.word_of_partition, (2,)),
        (words.alpha_factorizations, ((1, 1, 1), 2)),
    ],
    ids=lambda call: call[0].__name__,
)
def test_every_library_entry_rejects_an_unbounded_shape_alike(call):
    fn, rest = call
    with pytest.raises(ValueError, match=r"^\(3,\) is not 2-bounded$"):
        fn((3,), *rest)


@pytest.mark.parametrize(
    "count",
    [
        lambda alpha: tableaux.count_kostka((2, 1), alpha, 2),
        lambda alpha: len(tableaux.enumerate_tableaux((2, 1), alpha, 2)),
        lambda alpha: len(words.factorizations_by_shape(alpha, 2).get((2, 1), [])),
        lambda alpha: len(words.alpha_factorizations((2, 1), alpha, 2)),
        lambda alpha: kostka.affine_kostka((2, 1), alpha, 2),
    ],
    ids=["count_kostka", "enumerate_tableaux", "factorizations_by_shape", "alpha_factorizations",
         "affine_kostka"],
)
def test_every_library_entry_checks_a_composition_alike(count):
    for alpha in ((3,), (1, -1)):
        message = f"composition must be k-bounded and nonnegative: {alpha}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            count(alpha)
    assert count((0, 1, 0, 1, 1)) == count((1, 1, 1)) > 0
    assert check_composition((0, 2, 0, 1), 2) == (2, 1)


@st.composite
def partitions(draw, max_part=6, max_len=6):
    length = draw(st.integers(min_value=0, max_value=max_len))
    parts = sorted(
        (draw(st.integers(min_value=1, max_value=max_part)) for _ in range(length)),
        reverse=True,
    )
    return tuple(parts)


def all_cores(max_size: int, k: int):
    return [bounded_to_core(lam, k) for lam in k_bounded_up_to(max_size, k)]


def test_check_partition_rejects_bad_input():
    # anything int() reads is a part, and every check keeps its message
    assert check_partition(("2", 1)) == (2, 1)
    assert check_partition((2.0,)) == (2,) and type(check_partition((2.0,))[0]) is int
    assert check_partition(v for v in (3, 3, 1)) == (3, 3, 1)
    assert check_partition(()) == ()
    for parts, message in (
        ((3, 0), "partition parts must be positive: (3, 0)"),
        ((2, 0), "partition parts must be positive: (2, 0)"),
        ((-1,), "partition parts must be positive: (-1,)"),
        ((0, 1), "partition parts must be positive: (0, 1)"),
        ((1, 2), "partition parts must weakly decrease: (1, 2)"),
        ((3, 1, 2), "partition parts must weakly decrease: (3, 1, 2)"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_partition(parts)
    with pytest.raises(ValueError, match="invalid literal for int"):
        check_partition(("a",))
    with pytest.raises(TypeError):
        check_partition((None,))


def test_conjugate_examples():
    assert conjugate((3, 1, 1)) == (3, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((6, 4, 3, 1, 1, 1)) == (6, 3, 3, 2, 1, 1)


def test_conjugate_matches_the_column_counts():
    for n in range(16):
        for lam in partitions_of(n):
            assert conjugate(lam) == conjugate_by_counts(lam), lam


@given(partitions())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert degree(conjugate(lam)) == degree(lam)


def test_dominance():
    assert dominates((2, 1), (1, 1, 1))
    assert not dominates((2, 1), (3,))
    assert dominates((3, 2, 1), (3, 2, 1))
    assert not dominates((2, 2), (2, 1))  # unequal degree


def test_residue_grid_of_five_core():
    # the canonical 5-residue labelling of (6,4,3,1,1,1)
    grid = {
        0: [0, 1, 2, 3, 4, 0],
        1: [4, 0, 1, 2],
        2: [3, 4, 0],
        3: [2],
        4: [1],
        5: [0],
    }
    for row, values in grid.items():
        assert [residue((row, col), 4) for col in range(len(values))] == values


def test_is_core_examples():
    assert is_core((6, 4, 3, 1, 1, 1), 4)
    assert is_core((3, 1, 1), 2)
    assert not is_core((2, 2), 2)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_is_core_matches_the_hook_scan(k):
    # the 684 partitions of size <= 15, so 4,104 pairs over k = 1..6
    shapes = [lam for n in range(16) for lam in partitions_of(n)]
    assert len(shapes) == 684
    verdicts = [is_core(lam, k) for lam in shapes]
    assert verdicts == [is_core_by_hooks(lam, k) for lam in shapes]
    assert any(verdicts) and not all(verdicts)


def test_corners():
    assert addable_corners(()) == [(0, 0)]
    shape = (3, 1, 1)
    assert removable_corners(shape) == [(0, 2), (2, 0)]
    assert [residue(c, 2) for c in removable_corners(shape)] == [2, 1]
    # all three addable cells carry residue 0
    assert addable_corners(shape) == [(0, 3), (1, 1), (3, 0)]
    assert {residue(c, 2) for c in addable_corners(shape)} == {0}


def test_core_bounded_bijection_examples():
    assert core_to_bounded((3, 1, 1), 2) == (2, 1, 1)
    assert core_to_bounded((4,), 4) == (4,)
    assert core_to_bounded((8, 5, 2, 1), 3) == (3, 3, 2, 1)
    assert bounded_to_core((2, 1, 1), 2).shape == (3, 1, 1)
    assert bounded_to_core((3, 3, 2, 1), 3).shape == (8, 5, 2, 1)
    with pytest.raises(ValueError):
        bounded_to_core((3,), 2)
    with pytest.raises(ValueError):
        core_to_bounded((2, 2), 2)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_core_bounded_roundtrip(k):
    for lam in k_bounded_up_to(8, k):
        core = bounded_to_core(lam, k)
        assert core.to_bounded() == lam
        assert bounded_to_core(core.to_bounded(), k) == core


def test_small_hook_shapes_are_their_own_cores():
    for k in (2, 3, 4):
        for lam in k_bounded_up_to(6, k):
            if main_hook(lam) <= k:
                assert bounded_to_core(lam, k).shape == lam
                assert k_conjugate(lam, k) == conjugate(lam)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_no_addable_and_removable_corner_share_a_residue(k):
    for core in all_cores(6, k):
        addable = {residue(c, k) for c in addable_corners(core.shape)}
        removable = {residue(c, k) for c in removable_corners(core.shape)}
        assert not (addable & removable), core.shape


@pytest.mark.parametrize("k", [2, 3, 4])
def test_act_adds_the_addable_corners_or_marks_the_removable_ones(k):
    for core in all_cores(6, k):
        for i in range(k + 1):
            addable = [c for c in addable_corners(core.shape) if residue(c, k) == i]
            removable = [c for c in removable_corners(core.shape) if residue(c, k) == i]
            after, touched = _corner_step(core.shape, k, i)
            if addable:
                assert touched == tuple(addable)
                assert Core(after, k) == Core(add_cells(core.shape, addable), k)
            else:
                assert touched == tuple(removable)
                assert after == core.shape


def add_residue(core: Core, i: int) -> Core:
    """The core after letter i: every addable i-corner added, or an equal core."""
    return Core(_corner_step(core.shape, core.k, i)[0], core.k)


@pytest.mark.parametrize("k", [2, 3])
def test_add_residue_grows_by_one(k):
    for core in all_cores(6, k):
        for i in range(k + 1):
            grown = add_residue(core, i)
            if any(residue(c, k) == i for c in addable_corners(core.shape)):
                assert degree(grown.to_bounded()) == degree(core.to_bounded()) + 1
            else:
                assert grown == core


def test_add_residue_examples():
    assert add_residue(Core((), 2), 0).shape == (1,)
    assert add_residue(Core((1,), 2), 1).shape == (2,)
    core = Core((), 2)
    for i in (0, 1, 2, 1):
        core = add_residue(core, i)
    assert core.shape == (3, 1, 1)


@pytest.mark.parametrize("k", [2, 3])
def test_corner_operator_relations(k):
    p = k + 1
    for core in all_cores(5, k):
        for i in range(p):
            once = add_residue(core, i)
            assert add_residue(once, i) == once
            j = (i + 1) % p
            lhs = add_residue(add_residue(once, j), i)
            rhs = add_residue(add_residue(add_residue(core, j), i), j)
            assert lhs == rhs
            for j in range(p):
                if (i - j) % p not in (0, 1, p - 1):
                    assert add_residue(once, j) == add_residue(add_residue(core, j), i)


@pytest.mark.parametrize("k, deg_max", [(1, 9), (2, 9), (3, 9), (4, 9), (5, 8)])
def test_conversions_and_strip_steps_match_the_corner_list_oracles(k, deg_max):
    for lam in k_bounded_up_to(deg_max, k):
        core = bounded_to_core(lam, k)
        assert core == bounded_to_core_by_corners(lam, k), lam
        assert core_to_bounded(core.shape, k) == core_to_bounded_by_hooks(core.shape, k) == lam
        for i in range(k + 1):
            assert _corner_step(core.shape, k, i) == corner_step_by_corners(core.shape, k, i)
        for r in range(k + 1):
            assert (_strip_transitions(core.shape, r, k)
                    == strip_transitions_by_corners(core.shape, r, k)), (lam, r)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_residue_word_reads_each_cell_residue(k):
    for lam in (lam for n in range(9) for lam in partitions_of(n)):
        cells = [(i, j) for i in range(len(lam) - 1, -1, -1) for j in range(lam[i] - 1, -1, -1)]
        assert residue_word(lam, k) == tuple(residue(c, k) for c in cells), lam


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_core_to_bounded_rejects_non_cores_like_the_oracle(k):
    def outcome(convert, shape):
        try:
            return convert(shape, k)
        except ValueError as exc:
            return str(exc)

    for shape in (lam for n in range(8) for lam in partitions_of(n)):
        assert outcome(core_to_bounded, shape) == outcome(core_to_bounded_by_hooks, shape), shape
    if k == 1:
        with pytest.raises(ValueError, match=r"^\(2,\) is not a 2-core$"):
            core_to_bounded((2,), k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_k_conjugate_involution(k):
    for lam in k_bounded_up_to(7, k):
        assert k_conjugate(k_conjugate(lam, k), k) == lam


def test_k_conjugate_examples():
    assert k_conjugate((2, 1, 1), 2) == (2, 1, 1)
    assert k_conjugate((3, 2, 1), 3) == (2, 1, 1, 1, 1)


def test_horizontal_strip():
    assert is_horizontal_strip((3, 1), (1,))
    assert not is_horizontal_strip((2, 2), (1,))
    assert is_horizontal_strip((3, 1, 1), (3, 1))
    with pytest.raises(ValueError):
        is_horizontal_strip((2,), (3,))


def test_partition_generators():
    assert k_bounded_partitions(4, 2) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(k_bounded_up_to(3, 1)) == 4


def test_k_bounded_partitions_come_lexicographically_decreasing():
    from itertools import combinations_with_replacement

    for k in range(1, 5):
        for n in range(11):
            want = sorted(
                (tuple(reversed(parts)) for r in range(n + 1)
                 for parts in combinations_with_replacement(range(1, k + 1), r)
                 if sum(parts) == n),
                reverse=True,
            )
            assert k_bounded_partitions(n, k) == want


def test_k_bounded_partitions_do_not_recurse_per_part():
    assert k_bounded_partitions(3000, 1) == [(1,) * 3000]
