"""Exact combinatorics of (k+1)-cores, affine set-valued tableaux and the
polynomial families they generate, with brute-force oracles behind every
fast path."""

from .partitions import (
    Core,
    bounded_to_core,
    check_partition,
    conjugate,
    core_to_bounded,
    dominates,
    is_core,
    k_conjugate,
    removable_corners,
)
from .words import (
    DeadWordError,
    Factorization,
    ResidueWord,
    alpha_factorizations,
    cyclically_decreasing_word,
    evaluate,
    standard_tableau_of_word,
    word_of_partition,
)
from .tableaux import (
    SetValuedFilling,
    StripChain,
    count_classical_kostka,
    count_kostka,
    enumerate_sv_strips,
    enumerate_sv_strips_vertical,
    enumerate_tableaux,
    is_classical_set_valued,
    lowest_reading_word,
)
from .symfunc import SymFunc, binomial, convert, e, h, hall_inner, m, s
from .kostka import KostkaMatrix, affine_kostka, build_affine_kostka
from .families import (
    affine_grothendieck,
    column_pieri,
    dual_grothendieck,
    dual_k_schur,
    grothendieck,
    k_schur,
    kkschur,
    omega_big,
    row_pieri,
    verify_k_newton,
    verify_newton,
)

__all__ = [name for name in dir() if not name.startswith("_")]
