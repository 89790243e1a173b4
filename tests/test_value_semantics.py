"""Value semantics of the package's record classes.

Every record compares and hashes by the tuple of its compared fields, so set
and dict iteration order, and with it the CLI's stdout, depends on exactly
that hash.  The reprs, the immutability and the keyword constructors are
pinned here as well.
"""

import pytest

from kgroth.families import CheckResult, PieriResult
from kgroth.kostka import KostkaMatrix
from kgroth.partitions import Core
from kgroth.symfunc import SymFunc
from kgroth.tableaux import SetValuedFilling, StripChain
from kgroth.words import Factorization, ResidueWord

from oracles import AffineSVStrip


def _records():
    """One instance of each frozen record: maker, repr, fields, compared values."""
    blocks = (ResidueWord((0,), 2), ResidueWord((2, 1), 2))
    core, inner = Core((2,), 2), Core((1,), 2)
    steps = (((1,), ()), ((2,), (1,)))
    columns = {(): {(): 1}, (1,): {(1,): 1, (): -1}}
    cases = [
        (lambda: Core((2,), 2), "Core(shape=(2,), k=2)", ("shape", "k"), ((2,), 2)),
        (
            lambda: ResidueWord((1, 0), 2),
            "ResidueWord(letters=(1, 0), k=2)",
            ("letters", "k"),
            ((1, 0), 2),
        ),
        (
            lambda: Factorization(blocks, 2),
            "Factorization(blocks=(ResidueWord(letters=(0,), k=2), "
            "ResidueWord(letters=(2, 1), k=2)), k=2)",
            ("blocks", "k"),
            (blocks, 2),
        ),
        (
            lambda: AffineSVStrip(Core((2,), 2), Core((1,), 2), (1,), 1),
            "AffineSVStrip(gamma=Core(shape=(2,), k=2), beta=Core(shape=(1,), k=2), rho=(1,), r=1)",
            ("gamma", "beta", "rho", "r"),
            (core, inner, (1,), 1),
        ),
        (
            lambda: StripChain(2, steps),
            "StripChain(k=2, steps=(((1,), ()), ((2,), (1,))))",
            ("k", "steps"),
            (2, steps),
        ),
        (
            lambda: KostkaMatrix(2, 1, {(): {(): 1}, (1,): {(1,): 1, (): -1}}),
            "KostkaMatrix(k=2, deg_max=1, columns={(): {(): 1}, (1,): {(1,): 1, (): -1}})",
            ("k", "deg_max", "columns"),
            (2, 1, columns),
        ),
        (
            lambda: PieriResult("row", (1,), 1, 2, {(2,): 1, (1, 1): 1}, (((2,), (1,)),)),
            "PieriResult(direction='row', lam=(1,), r=1, k=2, terms={(2,): 1, (1, 1): 1}, "
            "strips=(((2,), (1,)),))",
            ("direction", "lam", "r", "k", "terms", "strips"),
            ("row", (1,), 1, 2),
        ),
        (
            lambda: SetValuedFilling((2, 1), {(0, 0): {1}, (0, 1): {2, 3}, (1, 0): {2}}),
            "SetValuedFilling(shape=(2, 1), cells={(0, 0): frozenset({1}), "
            "(0, 1): frozenset({2, 3}), (1, 0): frozenset({2})})",
            ("shape", "cells"),
            ((2, 1), (((0, 0), (1,)), ((0, 1), (2, 3)), ((1, 0), (2,)))),
        ),
        (
            lambda: SymFunc("m", {(1,): 2, (2, 1): -1}, deg_max=3, k=2),
            "2m[1] - m[2, 1]  (deg<=3)",
            ("basis", "coeffs", "deg_max", "k"),
            ("m", 2, (((1,), 2), ((2, 1), -1))),
        ),
    ]
    return [pytest.param(*case, id=type(case[0]()).__name__) for case in cases]


RECORDS = _records()


@pytest.mark.parametrize("make, text, fields, compared", RECORDS)
def test_repr_eq_and_hash(make, text, fields, compared):
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b
    if type(a) not in (SymFunc, SetValuedFilling):
        # their own __eq__ answers False for any other type
        assert a.__eq__(object()) is NotImplemented
    assert a != compared
    try:
        want = hash(compared)
    except TypeError:
        # a record holding a dict is unhashable in practice
        with pytest.raises(TypeError):
            hash(a)
        assert type(a) is KostkaMatrix
    else:
        assert hash(a) == hash(b) == want


@pytest.mark.parametrize("make, text, fields, compared", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(make, text, fields, compared):
    obj = make()
    for name in fields:
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_pieri_equality_ignores_terms_and_strips():
    a = PieriResult("row", (1,), 1, 2, {(2,): 1}, (((2,), (1,)),))
    b = PieriResult("row", (1,), 1, 2, {}, ())
    assert a == b and hash(a) == hash(b)
    assert a != PieriResult("col", (1,), 1, 2, {(2,): 1}, (((2,), (1,)),))


def test_check_result_is_mutable_and_unhashable():
    res = CheckResult("demo", {"k": 2})
    assert repr(res) == "CheckResult(check='demo', params={'k': 2}, instances=0, failures=[])"
    res.expect(1, 2, "x")
    res.instances += 2
    assert res == CheckResult("demo", {"k": 2}, 3, ["x"])
    assert res != CheckResult("demo", {"k": 2}, 3, [])
    assert CheckResult("a", {}).failures is not CheckResult("a", {}).failures
    with pytest.raises(TypeError):
        hash(res)


def test_keyword_constructors_and_defaults():
    assert Core(shape=(2,), k=2) == Core((2,), 2)
    assert ResidueWord(letters=[1, 0], k=2).letters == (1, 0)
    f = SymFunc("m", {(1,): 1}, deg_max=3, k=2)
    assert (f.basis, f.coeffs, f.deg_max, f.k) == ("m", {(1,): 1}, 3, 2)
    a, b = SymFunc("h"), SymFunc(basis="h")
    assert a.coeffs == {} and a.coeffs is not b.coeffs
    assert (a.deg_max, a.k) == (None, None)
    assert CheckResult(check="c", params={}).instances == 0
    assert KostkaMatrix(k=1, deg_max=0, columns={(): {(): 1}}).entries == [((), (), 1)]


def test_construction_still_validates():
    with pytest.raises(ValueError):
        Core((2, 1), 2)
    with pytest.raises(ValueError):
        ResidueWord((3,), 2)
    with pytest.raises(ValueError):
        SymFunc("x")
    with pytest.raises(ValueError):
        SetValuedFilling((1,), {})
    with pytest.raises(ValueError):
        AffineSVStrip(Core((2,), 2), Core((1,), 3), (1,), 1)
