import hashlib
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from kgroth.cli import main, parse_composition, parse_partition
from kgroth.schemas import EXPANSION_SCHEMA, FILLING_SCHEMA, SCAN_REPORT_SCHEMA


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


def test_parse_partition():
    assert parse_partition("3,1,1") == (3, 1, 1)
    assert parse_partition("") == ()
    with pytest.raises(Exception):
        parse_partition("1,3")
    assert parse_composition("2,0,1") == (2, 0, 1)


def test_expand_gk_row_is_single_generator(capsys):
    code, doc, _ = run_json(
        capsys, "expand", "--family", "gk", "--partition", "2", "--k", "3", "--basis", "h"
    )
    assert code == 0
    assert doc["terms"] == [{"partition": [2], "coeff": 1}]
    jsonschema.validate(doc, EXPANSION_SCHEMA)


def test_expand_gk_leading_term(capsys):
    code, doc, _ = run_json(
        capsys, "expand", "--family", "gk", "--partition", "3,2,1", "--k", "3"
    )
    assert code == 0
    assert {"partition": [3, 2, 1], "coeff": 1} in doc["terms"]
    assert doc["deg_max"] is None
    jsonschema.validate(doc, EXPANSION_SCHEMA)


def test_expand_constant(capsys):
    code, doc, _ = run_json(capsys, "expand", "--family", "Gk", "--partition", "", "--k", "2")
    assert code == 0
    assert doc["terms"] == [{"partition": [], "coeff": 1}]


def test_expand_rejects_unbounded(capsys):
    code, _, err = run_cli(
        capsys, "expand", "--family", "gk", "--partition", "4,1", "--k", "3"
    )
    assert code == 2 and "bounded" in err


def test_expand_rejects_low_truncation(capsys):
    code, _, err = run_cli(
        capsys,
        "expand", "--family", "G", "--partition", "2,1", "--deg-max", "2",
    )
    assert code == 2


def test_tableaux_counts(capsys):
    code, doc, _ = run_json(
        capsys, "tableaux", "--shape", "2,1,1", "--weight", "2,1,1,1", "--k", "2"
    )
    assert code == 0 and doc["count"] == 4
    code, doc, _ = run_json(
        capsys, "tableaux", "--shape", "2,1,1", "--standard-degree", "5", "--k", "2"
    )
    assert code == 0 and doc["count"] == 10
    code, doc, _ = run_json(capsys, "tableaux", "--shape", "1", "--weight", "1", "--k", "1")
    assert code == 0 and doc["count"] == 1


def test_tableaux_zero_parts_are_stripped(capsys):
    _, with_zeros, _ = run_json(
        capsys, "tableaux", "--shape", "2,1,1", "--weight", "2,0,1,1,1", "--k", "2"
    )
    _, without, _ = run_json(
        capsys, "tableaux", "--shape", "2,1,1", "--weight", "2,1,1,1", "--k", "2"
    )
    assert with_zeros["count"] == without["count"]


def test_tableaux_listing(capsys, monkeypatch):
    from kgroth.tableaux import SetValuedFilling

    def refuse(*args, **kwargs):
        raise AssertionError("a JSON listing rendered a tableau as text")

    with monkeypatch.context() as patch:
        patch.setattr(SetValuedFilling, "render", refuse)
        code, doc, _ = run_json(
            capsys, "tableaux", "--shape", "2", "--weight", "2,1", "--k", "2", "--list"
        )
    assert code == 0 and doc["count"] == 1
    for t in doc["tableaux"]:
        jsonschema.validate(t, FILLING_SCHEMA)
    code, out, _ = run_cli(
        capsys,
        "tableaux", "--shape", "2", "--weight", "2,1", "--k", "2", "--list", "--residues",
    )
    assert code == 0 and "{2,3}_1" in out


def test_tableaux_count_builds_no_tableau(capsys, monkeypatch):
    import kgroth.cli
    import kgroth.tableaux

    def refuse(*args, **kwargs):
        raise AssertionError("a bare count built a tableau")

    monkeypatch.setattr(kgroth.cli, "enumerate_tableaux", refuse)
    monkeypatch.setattr(kgroth.tableaux.StripChain, "to_filling", refuse)
    argv = ["tableaux", "--shape", "2,1,1", "--weight", "2,1,1,1", "--k", "2"]
    assert run_cli(capsys, *argv) == (0, "count: 4\n", "")
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0 and doc == {"count": 4, "k": 2, "shape": [2, 1, 1], "weight": [2, 1, 1, 1]}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tableaux_count_is_the_listed_and_the_kostka_count(capsys, k):
    from kgroth.partitions import k_bounded_up_to

    for lam in k_bounded_up_to(5, k):
        n = sum(lam)
        for alpha in [(1,) * n, (1,) * (n + 1), (2, 0) + (1,) * n]:
            shape, weight = ",".join(map(str, lam)), ",".join(map(str, alpha))
            common = ["--shape", shape, "--weight", weight, "--k", str(k), "--format", "json"]
            code, counted, _ = run_cli(capsys, "tableaux", *common)
            listed = json.loads(run_cli(capsys, "tableaux", *common, "--list")[1])
            assert code == 0 and json.loads(counted)["count"] == listed["count"], (lam, alpha)
            assert counted == run_cli(capsys, "kostka", *common)[1], (lam, alpha)


def test_tableaux_long_weight_stays_below_the_recursion_limit(capsys):
    code, out, _ = run_cli(
        capsys, "tableaux", "--shape", "1", "--standard-degree", "2000", "--k", "2"
    )
    assert code == 0 and out == "count: 1\n"
    # a bare count walks no chain, so the listing is what walks the long weight
    code, out, _ = run_cli(
        capsys, "tableaux", "--shape", "1", "--standard-degree", "2000", "--k", "2", "--list"
    )
    assert code == 0 and out == "count: 1\n[1]\n{" + ",".join(map(str, range(1, 2001))) + "}\n"


def test_pieri_row_example(capsys):
    code, doc, _ = run_json(
        capsys, "pieri", "row", "--partition", "3,2,1", "--r", "2", "--k", "3"
    )
    assert code == 0
    jsonschema.validate(doc, EXPANSION_SCHEMA)
    terms = {tuple(t["partition"]): t["coeff"] for t in doc["terms"]}
    assert terms == {
        (3, 2, 2, 1): 1,
        (3, 3, 1, 1): 1,
        (3, 2, 1, 1): -1,
        (3, 2, 2): -2,
        (3, 2, 1): 1,
    }


def test_pieri_col_example_with_strips(capsys):
    code, doc, _ = run_json(
        capsys, "pieri", "col", "--partition", "3,2,1", "--r", "2", "--k", "3", "--strips"
    )
    assert code == 0
    terms = {tuple(t["partition"]): t["coeff"] for t in doc["terms"]}
    assert terms == {
        (3, 2, 1, 1, 1): 1,
        (3, 2, 2, 1): 1,
        (3, 2, 1, 1): -1,
        (3, 2, 2): -1,
        (3, 2, 1): 1,
    }
    assert len(doc["strips"]) == 5


def test_pieri_trivial(capsys):
    code, doc, _ = run_json(capsys, "pieri", "row", "--partition", "", "--r", "1", "--k", "2")
    assert code == 0
    assert doc["terms"] == [{"partition": [1], "coeff": 1}]


def test_pieri_rejects_large_r(capsys):
    code, _, err = run_cli(capsys, "pieri", "row", "--partition", "1", "--r", "3", "--k", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--family", "s", "--partition", "2,1", "--deg-max", "-3"],
        ["verify", "bijection", "--deg-max", "-1"],
        ["tableaux", "--shape", "1", "--k", "2", "--standard-degree", "-2"],
        ["scan", "kss-cancellation", "--k", "0"],
        ["kostka", "--k", "0", "--shape", "1", "--weight", "1"],
        ["pieri", "row", "--partition", "1", "--r", "-1", "--k", "2"],
    ],
)
def test_out_of_range_integers_exit_2(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "must be at least" in err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["expand", "--family", "gk", "--partition", "2,1"], "needs --k"),
        (
            ["expand", "--family", "dks", "--partition", "2,1", "--k", "2", "--basis", "h"],
            "lives in the quotient",
        ),
        (["expand", "--family", "s", "--partition", "2,x"], "cannot parse partition"),
        (["tableaux", "--shape", "2,1", "--weight", "1,1,1"], "needs --k"),
        (["tableaux", "--shape", "3", "--k", "2", "--weight", "1,1,1"], "is not 2-bounded"),
        (["tableaux", "--shape", "2,1", "--k", "2"], "exactly one of"),
        (
            ["tableaux", "--shape", "2,1", "--k", "2", "--weight", "1", "--standard-degree", "1"],
            "exactly one of",
        ),
        (["tableaux", "--shape", "2,1", "--k", "2", "--weight", "3"], "weight must be 2-bounded"),
        (["tableaux", "--shape", "1", "--k", "2", "--weight", "1,x"], "cannot parse composition"),
        (["tableaux", "--shape", "1", "--k", "2", "--weight", "1,-1"], "nonnegative"),
        (["pieri", "row", "--partition", "2,1", "--r", "1"], "needs --k"),
        (["pieri", "row", "--partition", "3", "--r", "1", "--k", "2"], "is not 2-bounded"),
        (["kostka", "--deg-max", "2"], "needs --k"),
        (["kostka", "--k", "2", "--shape", "3", "--weight", "1"], "is not 2-bounded"),
        (["kostka", "--k", "2", "--shape", "1", "--weight", "3"], "weight must be 2-bounded"),
        (["kostka", "--k", "2", "--shape", "2,1"], "both --shape and --weight"),
        (["kostka", "--k", "2", "--weight", "2,1"], "both --shape and --weight"),
    ],
)
def test_bad_input_exits_2(argv, fragment, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and fragment in err


@pytest.mark.parametrize(
    "extra, want",
    [
        (
            [],
            "FAIL duality k=2 deg-max=4 instances=81 failures=1\n"
            "  counterexample: <g[(2, 1)], G[(1,)]> = 1, expected 0\n",
        ),
        (
            ["--format", "json"],
            '{"check": "duality", "failures": ["<g[(2, 1)], G[(1,)]> = 1, expected 0"], '
            '"instances": 81, "params": {"deg_max": 4, "k": 2}, "pass": false}\n',
        ),
    ],
)
def test_verify_failure_prints_each_counterexample(extra, want, monkeypatch, capsys):
    import kgroth.families as families
    from kgroth.symfunc import h

    true = families.kkschur

    def planted(lam, k):
        g = true(lam, k)
        return g + h((1,)) if lam == (2, 1) else g

    monkeypatch.setattr(families, "kkschur", planted)
    code, out, _ = run_cli(capsys, "verify", "duality", "--k", "2", "--deg-max", "4", *extra)
    assert code == 1 and out == want


@pytest.mark.parametrize("verb", ["verify", "scan"])
def test_unknown_suite_name_exits_2(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "nosuch"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


@pytest.mark.parametrize("deg_max", ["0", "1"])
def test_verify_without_instances_fails(deg_max, capsys):
    code, out, _ = run_cli(capsys, "verify", "kostka-symmetry", "--k", "2", "--deg-max", deg_max)
    assert code == 1
    assert out.startswith("FAIL kostka-symmetry") and "instances=0" in out


def test_verify_newton(capsys):
    code, doc, _ = run_json(capsys, "verify", "newton", "--deg-max", "6")
    assert code == 0 and doc["pass"] is True and doc["failures"] == []


def test_verify_k_newton(capsys):
    code, doc, _ = run_json(capsys, "verify", "k-newton", "--deg-max", "6")
    assert code == 0 and doc["pass"] is True and doc["instances"] == 7


def test_verify_duality_small(capsys):
    code, doc, _ = run_json(capsys, "verify", "duality", "--k", "2", "--deg-max", "3")
    assert code == 0 and doc["pass"] is True


def test_scan_runs_and_validates(capsys):
    code, doc, _ = run_json(
        capsys, "scan", "kss-cancellation", "--k", "2", "--deg-max", "4"
    )
    assert code == 0
    jsonschema.validate(doc, SCAN_REPORT_SCHEMA)
    code, doc, _ = run_json(capsys, "scan", "s-in-Gk-positivity", "--k", "2", "--deg-max", "0")
    assert code == 0 and doc["entries"] == []


def test_kostka_verb(capsys):
    code, doc, _ = run_json(
        capsys, "kostka", "--k", "2", "--shape", "2,1,1", "--weight", "2,1,1,1"
    )
    assert code == 0 and doc["count"] == 4
    code, doc, _ = run_json(capsys, "kostka", "--k", "2", "--deg-max", "3")
    assert code == 0
    entries = {(tuple(e["shape"]), tuple(e["weight"])): e["count"] for e in doc["entries"]}
    assert entries[((1,), (1,))] == 1
    assert entries[((1,), (1, 1))] == 1


def test_kostka_cache_roundtrip(tmp_path, capsys, empty_kostka_cache):
    code1, doc1, _ = run_json(
        capsys, "kostka", "--k", "2", "--deg-max", "3", "--cache-dir", str(tmp_path)
    )
    files = list(tmp_path.iterdir())
    assert files and files[0].suffix == ".json"
    code2, doc2, _ = run_json(
        capsys, "kostka", "--k", "2", "--deg-max", "3", "--cache-dir", str(tmp_path)
    )
    assert doc1 == doc2


def test_expand_uses_the_cache_only_for_the_infinite_family(tmp_path, capsys, empty_kostka_cache):
    import kgroth.kostka as kostka

    for family in ("gk", "ks", "dks"):
        code, _, _ = run_json(capsys, "expand", "--family", family, "--partition", "2,1",
                              "--k", "2", "--deg-max", "5", "--cache-dir", str(tmp_path))
        assert code == 0
    assert list(tmp_path.iterdir()) == []
    code, _, _ = run_json(capsys, "expand", "--family", "Gk", "--partition", "2,1",
                          "--k", "2", "--deg-max", "5", "--cache-dir", str(tmp_path))
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(
        kostka._cache_path(2, 5, str(tmp_path)))]


@pytest.mark.parametrize("family", ["Gk", "dks"])
@pytest.mark.parametrize("basis", ["s", "h", "e"])
def test_a_quotient_family_is_rejected_before_it_is_built(family, basis, tmp_path, capsys,
                                                           monkeypatch):
    import kgroth.families as families
    import kgroth.kostka as kostka

    def built(*args, **kwargs):
        raise AssertionError("built before the basis was checked")

    for name in ("affine_grothendieck", "dual_k_schur"):
        monkeypatch.setattr(families, name, built)
    monkeypatch.setattr(kostka, "build_affine_kostka", built)
    code, out, err = run_cli(capsys, "expand", "--family", family, "--partition", "4,4,3,3,2,1",
                             "--k", "4", "--deg-max", "24", "--basis", basis,
                             "--cache-dir", str(tmp_path / "D"))
    assert (code, out) == (2, "")
    assert f"family {family} lives in the quotient; only the m basis applies" in err
    assert not (tmp_path / "D").exists()


@pytest.mark.parametrize("content", ["other-degree", "not-an-object", "not-ascii", "bad-rows"])
def test_kostka_cache_file_that_does_not_fit_is_rebuilt(content, tmp_path, capsys,
                                                        empty_kostka_cache):
    import kgroth.kostka as kostka

    _, want, _ = run_json(capsys, "kostka", "--k", "2", "--deg-max", "4")
    planted = kostka._cache_path(2, 4, str(tmp_path))
    if content == "other-degree":
        # a degree-2 matrix under the degree-4 name
        small = tmp_path / "small"
        kostka.build_affine_kostka(2, 2, str(small))
        os.replace(kostka._cache_path(2, 2, str(small)), planted)
    elif content == "not-an-object":
        with open(planted, "w", encoding="ascii") as fh:
            fh.write("[]")
    elif content == "not-ascii":
        with open(planted, "wb") as fh:
            fh.write(b'{"k": "\xff"}')
    else:
        with open(planted, "w", encoding="ascii") as fh:
            fh.write('{"format_version": 2, "k": 2, "deg_max": 4, "partitions": [[1]], '
                     '"columns": [[[1], 1]]}')
    _, got, _ = run_json(capsys, "kostka", "--k", "2", "--deg-max", "4",
                         "--cache-dir", str(tmp_path))
    assert got == want
    with open(planted, encoding="ascii") as fh:
        assert json.load(fh)["deg_max"] == 4


def _write_json(path, data) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(data, sort_keys=True))


@pytest.mark.parametrize("corruption", [
    "planted", "top-diagonal", "low-degree", "missing-weight", "v1-body", "v1-rows-as-v2",
    "negative-index", "index-past-end", "odd-length", "extra-column",
    "count-string", "count-float", "count-negative", "count-zero", "index-true", "part-float",
])
def test_kostka_cache_file_with_wrong_entries_is_rebuilt(corruption, tmp_path, capsys,
                                                         empty_kostka_cache):
    import kgroth.kostka as kostka

    if corruption == "planted":
        deg_max = 3
        argv = ["expand", "--family", "Gk", "--partition", "1", "--k", "2", "--deg-max", "3"]
    else:
        deg_max = 5
        argv = ["kostka", "--k", "2", "--deg-max", "5"]
    fresh = tmp_path / "fresh"
    _, want, _ = run_cli(capsys, *argv, "--cache-dir", str(fresh))
    fresh_path = kostka._cache_path(2, deg_max, str(fresh))
    planted = kostka._cache_path(2, deg_max, str(tmp_path))
    with open(fresh_path, encoding="ascii") as fh:
        data = json.load(fh)
    parts, columns = data["partitions"], data["columns"]
    # the first top-degree weight, and the position of its first off-diagonal shape
    top = next(j for j, mu in enumerate(parts) if sum(mu) == deg_max)
    off = next(p for p in range(0, len(columns[top]), 2) if columns[top][p] != top)
    if corruption == "planted":
        data = {"format_version": 2, "k": 2, "deg_max": 3, "partitions": [[1]],
                "columns": [[0, 5]]}
    elif corruption == "top-diagonal":
        flat = columns[top]
        flat[flat.index(top) + 1] = 2
    elif corruption == "low-degree":
        j = next(j for j, mu in enumerate(parts) if sum(mu) == 2)
        p = next(p for p in range(0, len(columns[j]), 2) if columns[j][p] != j)
        columns[j][p + 1] += 1
    elif corruption == "missing-weight":
        # (2, 2, 1) is gone both as a weight and as a shape
        matrix = kostka._load(2, deg_max, str(fresh))
        kostka._save(kostka.KostkaMatrix(2, deg_max, {
            mu: {lam: v for lam, v in col.items() if lam != (2, 2, 1)}
            for mu, col in matrix.columns.items() if mu != (2, 2, 1)
        }), str(tmp_path))
        data = None
    elif corruption in ("v1-body", "v1-rows-as-v2"):
        # the rows the version 1 writer wrote, with its header or the current one
        matrix = kostka._load(2, deg_max, str(fresh))
        data = {"format_version": 1 if corruption == "v1-body" else 2, "k": 2,
                "deg_max": deg_max, "entries": matrix.entries}
    elif corruption == "negative-index":
        # the same shape counted from the end of the list
        columns[top][off] -= len(parts)
    elif corruption == "index-past-end":
        columns[top][off] += len(parts)
    elif corruption == "odd-length":
        columns[top].append(1)
    elif corruption.startswith("count-"):
        # an off-diagonal count that is not an int, or not positive
        columns[top][off + 1] = {"string": "6", "float": 6.9, "negative": -3, "zero": 0}[
            corruption[6:]]
    elif corruption == "index-true":
        # the shape (1) of index 1, which true would stand for
        flat = columns[top]
        flat[flat[::2].index(1) * 2] = True
    elif corruption == "part-float":
        parts[top] = [float(v) for v in parts[top]]
    else:
        columns.append([0, 1])
    if data is not None:
        _write_json(planted, data)
    code, got, _ = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0 and got == want
    with open(planted, "rb") as fh, open(fresh_path, "rb") as good:
        assert fh.read() == good.read()


# SHA-256 of `kgroth kostka --k 3 --deg-max 6 --format json` stdout, recorded
# before the matrix was built by one walk over the prefix tree of the weights
KOSTKA_K3_D6_STDOUT_SHA256 = "b2b8b8f5716294e47df19fd4801ab3101a5b55531e5943d963b33d69c3e652da"


def test_kostka_matrix_stdout_is_pinned(capsys, empty_kostka_cache):
    code, out, _ = run_cli(capsys, "kostka", "--k", "3", "--deg-max", "6", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == KOSTKA_K3_D6_STDOUT_SHA256


# SHA-256 of `kgroth kostka --k 3 --deg-max 6` (text) stdout, recorded when
# both output formats were built on every call
KOSTKA_K3_D6_TEXT_STDOUT_SHA256 = "877efeb354bf86809f4c89c246a265848fe015de7170fc73971a6e6f4c812ab2"


def test_kostka_matrix_text_stdout_is_pinned(capsys, empty_kostka_cache):
    code, out, _ = run_cli(capsys, "kostka", "--k", "3", "--deg-max", "6")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == KOSTKA_K3_D6_TEXT_STDOUT_SHA256


def test_internal_value_error_exits_1(monkeypatch, capsys):
    from kgroth import families

    def broken(lam, k):
        raise ValueError("a fault inside the library")

    monkeypatch.setattr(families, "kkschur", broken)
    code, out, err = run_cli(capsys, "expand", "--family", "gk", "--partition", "2,1", "--k", "2")
    assert code == 1 and out == ""
    assert err.startswith("internal error") and "a fault inside the library" in err


def test_cache_dir_from_environment(tmp_path, capsys, monkeypatch, empty_kostka_cache):
    for argv in (["kostka", "--k", "2", "--deg-max", "2"],
                 ["expand", "--family", "Gk", "--partition", "1", "--k", "2", "--deg-max", "2"]):
        path = tmp_path / argv[0]
        monkeypatch.setenv("KGROTH_CACHE_DIR", str(path))
        code, _, _ = run_json(capsys, *argv)
        assert code == 0, argv
        assert any(p.suffix == ".json" for p in path.iterdir()), argv


def test_cache_dir_from_environment_is_read_only_where_a_matrix_is_cached(tmp_path, capsys,
                                                                         monkeypatch):
    path = tmp_path / "D"
    monkeypatch.setenv("KGROTH_CACHE_DIR", str(path))
    for argv in (["verify", "duality", "--k", "2", "--deg-max", "4"],
                 ["scan", "kss-cancellation", "--k", "2", "--deg-max", "4"],
                 ["pieri", "row", "--partition", "2,1", "--r", "1", "--k", "2"],
                 ["tableaux", "--shape", "2,1", "--weight", "2,1", "--k", "2"],
                 ["expand", "--family", "gk", "--partition", "2,1", "--k", "2"]):
        assert run_cli(capsys, *argv)[0] == 0, argv
        assert not path.exists(), argv


# a valid line of each verb that reads neither --deg-max nor --cache-dir
_LINES_WITHOUT_A_CACHE = {
    "tableaux": ["tableaux", "--shape", "2,1", "--weight", "2,1", "--k", "2"],
    "pieri": ["pieri", "row", "--partition", "2,1", "--r", "1", "--k", "2"],
    "verify": ["verify", "duality"],
    "scan": ["scan", "kss-cancellation"],
}


@pytest.mark.parametrize("verb, option", [
    ("tableaux", "--count"), ("tableaux", "--deg-max"), ("tableaux", "--cache-dir"),
    ("pieri", "--deg-max"), ("pieri", "--cache-dir"), ("verify", "--cache-dir"),
    ("scan", "--cache-dir"),
])
def test_an_option_the_verb_does_not_read_exits_2(verb, option, tmp_path, capsys):
    path = tmp_path / "D"
    value = {"--count": [], "--deg-max": ["3"], "--cache-dir": [str(path)]}[option]
    with pytest.raises(SystemExit) as exc:
        main([*_LINES_WITHOUT_A_CACHE[verb], option, *value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join([option, *value])}" in err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["--family", "G", "--partition", "1", "--k", "3", "--deg-max", "2", "--format", "json"],
    ["--family", "s", "--partition", "2,1", "--k", "1"],
    ["--family", "g", "--partition", "2", "--k", "1"],
], ids=["G", "s", "g"])
def test_expand_rejects_k_for_a_family_without_a_level(argv, capsys):
    code, out, err = run_cli(capsys, "expand", *argv)
    assert (code, out, err) == (2, "", f"error: family {argv[1]} takes no --k\n")


def test_expand_accepts_cache_dir_for_every_family(tmp_path, capsys):
    for family, extra in (("G", ["--deg-max", "2"]), ("g", []), ("s", []), ("gk", ["--k", "2"]),
                          ("ks", ["--k", "2"]), ("dks", ["--k", "2"]), ("Gk", ["--k", "2"])):
        argv = ["expand", "--family", family, "--partition", "1", *extra]
        want = run_cli(capsys, *argv)
        assert want[0] == 0, family
        assert run_cli(capsys, *argv, "--cache-dir", str(tmp_path / family)) == want, family


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("route", ["option", "environment"])
@pytest.mark.parametrize("argv", [
    ["kostka", "--k", "2", "--deg-max", "2"],
    ["expand", "--family", "Gk", "--partition", "1", "--k", "2", "--deg-max", "2"],
], ids=["kostka", "expand"])
def test_cache_dir_that_is_a_file_exits_2(argv, route, below, tmp_path, capsys, monkeypatch,
                                          empty_kostka_cache):
    blocker = tmp_path / "F"
    blocker.write_text("kept")
    path = blocker / "sub" if below else blocker
    if route == "option":
        argv = argv + ["--cache-dir", str(path)]
    else:
        monkeypatch.setenv("KGROTH_CACHE_DIR", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(path) in err
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("argv", [
    ["kostka", "--k", "3", "--deg-max", "6"],
    ["expand", "--family", "Gk", "--partition", "2,1", "--k", "3", "--deg-max", "6"],
], ids=["kostka", "expand"])
def test_a_directory_at_the_cache_file_path_exits_2(argv, tmp_path, capsys, monkeypatch,
                                                    empty_kostka_cache):
    import kgroth.kostka as kostka

    in_the_way = tmp_path / os.path.basename(kostka._cache_path(3, 6, str(tmp_path)))
    (in_the_way / "inner").mkdir(parents=True)
    (in_the_way / "inner" / "kept").write_text("kept")

    def built(*args):
        raise AssertionError("a matrix was built for a cache file that cannot be written")

    monkeypatch.setattr(kostka, "_sweep_numbered", built)
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(in_the_way) in err
    assert [p.name for p in tmp_path.iterdir()] == [in_the_way.name]
    assert [p.name for p in in_the_way.iterdir()] == ["inner"]
    assert (in_the_way / "inner" / "kept").read_text() == "kept"


# SHA-256 of `kgroth expand --family gk --partition 4,4,3,2,1 --k 4 --basis s
# --format json` stdout, recorded when each Schur coefficient was a separate
# semistandard count (about 6 s then)
GK_44321_S_STDOUT_SHA256 = "64387e5cbd78dbcc51efa40fc9c1c5c9de5b89af66ca615a5cce7530fa31354a"


def test_expand_gk_in_schur_basis_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "expand", "--family", "gk", "--partition", "4,4,3,2,1",
                           "--k", "4", "--basis", "s", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == GK_44321_S_STDOUT_SHA256


def _src_env(**extra) -> dict:
    """The environment of a child Python that imports kgroth from this checkout's src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {key: value for key, value in os.environ.items() if key != "COLUMNS"}
    return dict(env, PYTHONPATH=src, **extra)


def test_import_leaves_out_unused_stdlib(tmp_path):
    # every CLI call is a fresh process, so what importing kgroth.cli pulls in
    # is paid on each call; these modules cost a third of it and go unused.
    # Requests are checked too: a plain request never imports argparse (which
    # brings gettext); only help and error lines import argparse, and with it
    # shutil for the terminal width, which brings bz2 and lzma
    heavy = ("dataclasses", "inspect", "ast", "dis", "tempfile", "shutil", "random", "bz2",
             "lzma", "argparse", "gettext")
    requests = [
        ["pieri", "row", "--partition", "2,1", "--k", "2", "--r", "1", "--strips"],
        ["expand", "--family", "Gk", "--partition", "2,1", "--k", "2", "--deg-max", "4",
         "--cache-dir", str(tmp_path)],
    ]
    code = (
        "import sys, kgroth.cli\n"
        f"heavy = set({heavy!r})\n"
        "found = [sorted(heavy & set(sys.modules))]\n"
        f"for argv in {requests!r}:\n"
        "    assert kgroth.cli.main(argv) == 0\n"
        "    found.append(sorted(heavy & set(sys.modules)))\n"
        "print(found, file=sys.stderr)\n"
    )
    err = subprocess.run([sys.executable, "-S", "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True).stderr
    assert err.strip() == "[[], [], []]"
    assert [p.suffix for p in tmp_path.iterdir()] == [".json"]


def _valid_groups(rng, arguments) -> list[list[str]]:
    """One verb's arguments as token groups with valid values: every required
    one and the positional, about half of the others, in shuffled order."""
    groups = []
    for name, keywords in arguments:
        required = keywords.get("required") or not name.startswith("-")
        if not required and rng.random() < 0.5:
            continue
        if keywords.get("action") == "store_true":
            groups.append([name])
            continue
        if "choices" in keywords:
            value = rng.choice(sorted(keywords["choices"]))
        elif "type" in keywords:
            value = rng.choice(["0", "3", "12", "07", " 4"])
        else:
            value = rng.choice(["3,2,1", "2,1", "", "1,1,1"])
        groups.append([value] if not name.startswith("-") else [name, value])
    rng.shuffle(groups)
    return groups


def _mutations(rng, verb, arguments, groups) -> list[list[str]]:
    """Lines argparse reads otherwise than a plain line: repeats, abbreviations,
    = forms, missing required arguments, bad values, extra positionals, help."""
    options = [g for g in groups if g[0].startswith("-")]
    valued = [g for g in options if len(g) == 2]
    spec = dict(arguments)
    out = []

    def line(parts):
        return [verb, *(token for part in parts for token in part)]

    def replaced(old, new):
        return line([new if g is old else g for g in groups])

    for g in options:
        out.append(line(groups + [g]))
        out.append(replaced(g, [g[0][:rng.randrange(2, len(g[0]))], *g[1:]]))
        if spec[g[0]].get("required"):
            out.append(line([h for h in groups if h is not g]))
    for g in valued:
        keywords = spec[g[0]]
        out.append(replaced(g, [f"{g[0]}={g[1]}"]))
        out.append(replaced(g, [g[0], "-2"]))
        out.append(replaced(g, [g[0], "-x"]))
        out.append(line([h for h in groups if h is not g] + [[g[0]]]))
        if "choices" in keywords:
            out.append(replaced(g, [g[0], "bogus"]))
        if "type" in keywords:
            out.append(replaced(g, [g[0], rng.choice(["x", "1.5", "", "2,1"])]))
    positional = [g for g in groups if not g[0].startswith("-")]
    for g in positional:
        out.append(line([h for h in groups if h is not g]))
        out.append(replaced(g, ["bogus"]))
        out.append(replaced(g, [g[0][:-1]]))
    out.append(line(groups + [positional[0] if positional else ["extra"]]))
    at = rng.randrange(len(groups) + 1)
    for token in ("-h", "--help", "--", "--bogus", "-k"):
        out.append(line(groups[:at] + [[token]] + groups[at:]))
    out.append(line(groups + [["--bogus", "1"]]))
    out.append([verb[:-1], *line(groups)[1:]])
    out.append(["-h", *line(groups)])
    return out


def test_plain_parser_agrees_with_argparse():
    # a plain line reads exactly as argparse reads it; every other line, whether
    # argparse accepts it, rejects it or answers it with help, goes to argparse
    import random

    from kgroth import cli

    parser = cli.build_parser()
    rng = random.Random(0)
    corpus = [[], ["bogus"]]
    for _ in range(30):
        for verb, (_, arguments, _) in cli.VERBS.items():
            groups = _valid_groups(rng, arguments)
            argv = [verb, *(token for g in groups for token in g)]
            assert vars(cli._parse_plain(argv)) == vars(parser.parse_args(argv)), argv
            corpus.extend(_mutations(rng, verb, arguments, groups))
    for argv in corpus:
        assert cli._parse_plain(argv) is None, argv


def test_every_benchmark_request_is_a_plain_line(tmp_path):
    import importlib.util

    from kgroth import cli

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    extra = {"cli-oneshot": [], "kostka-cache": ["--cache-dir", str(tmp_path)]}
    requests = [argv + extra[w] for w, argv in workloads.catalog() if w in extra]
    assert {argv[0] for argv in requests} == set(cli.VERBS)
    parser = cli.build_parser()
    for argv in requests:
        fast = cli._parse_plain(argv)
        assert fast is not None and vars(fast) == vars(parser.parse_args(argv)), argv


def test_a_plain_line_calls_the_command_bound_at_call_time(monkeypatch):
    # the traced benchmark run rebinds cli.cmd_* and must see its own wrapper called
    from kgroth import cli

    seen = []
    monkeypatch.setattr(cli, "cmd_expand", lambda args: seen.append(args.partition) or 0)
    argv = ["expand", "--family", "gk", "--partition", "2,1", "--k", "2"]
    assert cli._parse_plain(argv).fn is cli.cmd_expand
    assert cli.main(argv) == 0 and seen == ["2,1"]


# SHA-256 of stdout (help) or stderr (usage error) with COLUMNS unset, 50, 0 or
# "x" and stdout not a terminal, recorded when argparse read the width through
# shutil; a COLUMNS that is not a positive integer reads as unset.  The pins
# hold on Python 3.10-3.12; 3.13.0's argparse prints `expand --help` at
# COLUMNS=50 differently (digest 7c3223d5...), so 3.13 needs its own recording
HELP_SHA256 = {
    ("--help", None): "ab63ca99e3d51bc1894e4c75c8ff5f37d922a10eacc4b6fba93458ad610f8799",
    ("--help", "0"): "ab63ca99e3d51bc1894e4c75c8ff5f37d922a10eacc4b6fba93458ad610f8799",
    ("--help", "x"): "ab63ca99e3d51bc1894e4c75c8ff5f37d922a10eacc4b6fba93458ad610f8799",
    ("--help", "50"): "7da0cd3e1ce5e1a8b984b9b9fff40f35ad514684a0fbc1c5753753f0041447af",
    ("expand --help", None): "ab4ef5ad236ce92e4ef2457e8482d5a36c802a9b47137617940de794f8a51da8",
    ("expand --help", "50"): "fb8df485d7fb2d749ddfe2d84982ea5cf50941cb333036a5d5d9c17a61468e58",
    ("expand --family x", None): "83e0416008ee4ac42b887c8d81bc54db669ac208685ccf765cbcc983e70cf722",
    ("tableaux --help", None): "1491e5c792c7d77eb641ad290c5c861415d410e19f15cde8118666650fb75997",
    ("pieri --help", None): "984f251c3cf6a75074bf227d5438c472413f53725cc02122afaf002d0e5109eb",
    ("verify --help", None): "aa88908734ada7eec9f5a3174b52c616dc1f65ff95681c6195eef9c939dbbd39",
    ("scan --help", None): "a362c0ada4bd735ab90edbe212012157d0207da713aa369aa92014a52f1e8102",
    ("kostka --help", None): "5225a0e363fd944d7265c8bc61ee9260c5e4993b8f4f14d9c26b83cbb32a9cfd",
}


@pytest.mark.parametrize("argv, columns", sorted(HELP_SHA256, key=str))
def test_help_and_usage_bytes_are_pinned(argv, columns):
    env = _src_env() if columns is None else _src_env(COLUMNS=columns)
    proc = subprocess.run([sys.executable, "-S", "-m", "kgroth.cli", *argv.split()], env=env,
                          capture_output=True)
    usage_error = not argv.endswith("--help")
    assert proc.returncode == (2 if usage_error else 0)
    out = proc.stderr if usage_error else proc.stdout
    assert hashlib.sha256(out).hexdigest() == HELP_SHA256[argv, columns]


# SHA-256 of `kgroth expand --family G --partition 3,2 --deg-max 12 --basis h
# --format json` stdout, recorded when m -> h was a solve against 0/1-matrix
# counts of e in m (about 0.7 s then)
G_32_D12_H_STDOUT_SHA256 = "417e5f5e6d8cc9bd6ceb612434898fa4331ddfffd79bebb152620b763794a502"


def test_expand_g_in_h_basis_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "expand", "--family", "G", "--partition", "3,2",
                           "--deg-max", "12", "--basis", "h", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == G_32_D12_H_STDOUT_SHA256


# SHA-256 of `kgroth expand --family gk --partition 4,4,3,2,1 --k 4 --basis m
# --format json` stdout, recorded when h -> m counted N-matrices (about 1 s then)
GK_44321_M_STDOUT_SHA256 = "986788462ecadd57e8f9b66903205ebefac0b304e3d900da345cf22902cf8dc5"


def test_expand_gk_in_m_basis_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "expand", "--family", "gk", "--partition", "4,4,3,2,1",
                           "--k", "4", "--basis", "m", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == GK_44321_M_STDOUT_SHA256


def test_output_determinism(capsys):
    args = ["pieri", "row", "--partition", "2,1", "--r", "2", "--k", "2", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_json_numbers_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        "expand", "--family", "Gk", "--partition", "2,1,1", "--k", "2",
        "--deg-max", "6", "--format", "json",
    )
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    from kgroth.families import affine_grothendieck

    expected = affine_grothendieck((2, 1, 1), 2, 6)
    got = {tuple(t["partition"]): t["coeff"] for t in doc["terms"]}
    assert got == expected.coeffs


@pytest.mark.parametrize("family", ["G", "g", "Gk", "gk", "ks", "dks", "s"])
def test_expand_families_all_validate(family, capsys):
    args = ["expand", "--family", family, "--partition", "2,1"]
    if family in ("Gk", "gk", "ks", "dks"):
        args += ["--k", "2"]
    code, doc, _ = run_json(capsys, *args)
    assert code == 0
    jsonschema.validate(doc, EXPANSION_SCHEMA)
    assert any(t["partition"] == [2, 1] for t in doc["terms"])


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kgroth.cli", "verify", "newton", "--deg-max", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_text_output_shape(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--family", "gk", "--partition", "2,1", "--k", "2"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("gk[2,1] (k=2)")


def test_closed_stdout_exits_1_silently():
    # about 150 KB of JSON, more than a pipe holds, so the writer meets the
    # closed pipe whatever the timing
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "KGROTH_CACHE_DIR"}
    env["PYTHONPATH"] = src
    proc = subprocess.Popen(
        [sys.executable, "-m", "kgroth.cli", "kostka", "--k", "4", "--deg-max", "10",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


@pytest.mark.parametrize("partition, basis, term", [
    ("60", "h", "h[60]"),
    (",".join(["1"] * 60), "e", "e[60]"),
], ids=["row-in-h", "column-in-e"])
def test_degree_60_schur_expansion_reads_one_column(partition, basis, term):
    # p(60) = 966,467: building every Schur column of degree 60 would not
    # finish, while s_(60) = h_(60) and s_(1^60) = e_(60) need one column each
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "kgroth.cli", "expand", "--family", "s", "--partition", partition,
         "--basis", basis],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()[1:]] == [["1", term]]


# SHA-256 of the exit code, stdout and stderr of `kgroth expand --family F
# --partition 2,1 --k 2` with each --basis (none, m, h, e, s), in text and JSON,
# recorded when each family's traits sat in four tables and an if chain.  The
# families without a level (G, g, s) reject --k, so their lines leave it out
EXPAND_FAMILY_SHA256 = {
    "G": "c3c1899a12c28b519c716789829cda536c868acdf19812d2b09e31201a5b3da3",
    "g": "0c996f8ca63c0524ba74a9e580e011327eb98c75da4ced867ecb5e61b6450a1c",
    "Gk": "26fc1efebfff285b928fed31b54b27cba4b6e3c0df5fd55825543ad2096f8e19",
    "gk": "fd679ef78b6ade503e564b5a10afa7ae0f77bee3ea99a7ff541bbb66b20f9503",
    "ks": "f374508f5c1608032308020349639d0d6c8b8fa2d64a5ac8b0f4a14f43dd84dd",
    "dks": "fdad5a8f1c5097efddc8f826d12eebae3cd19c84dde28944ffc276a5125ae3e8",
    "s": "e6e08c6647dfbde2a7e10403c209ee166779561adea113413c56b5aa198eb554",
}


@pytest.mark.parametrize("family", list(EXPAND_FAMILY_SHA256))
def test_expand_of_every_family_and_basis_is_pinned(family, capsys):
    level = ("--k", "2") if family in ("Gk", "gk", "ks", "dks") else ()
    record = []
    for basis in ((), ("--basis", "m"), ("--basis", "h"), ("--basis", "e"), ("--basis", "s")):
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, "expand", "--family", family, "--partition", "2,1",
                                     *level, *basis, "--format", fmt)
            record.append(f"{basis} {fmt} exit {code}\n{out}\0{err}\0")
    digest = hashlib.sha256("".join(record).encode("ascii")).hexdigest()
    assert digest == EXPAND_FAMILY_SHA256[family]


@pytest.mark.parametrize(
    "argv, err",
    [
        (["tableaux", "--shape", "2,x", "--weight", "1"], "cannot parse partition '2,x'"),
        (["tableaux", "--shape", "3", "--weight", "3"], "tableaux needs --k"),
        (["tableaux", "--shape", "3", "--k", "2"], "(3,) is not 2-bounded"),
        (["tableaux", "--shape", "3", "--k", "2", "--weight", "x"], "(3,) is not 2-bounded"),
        (["tableaux", "--shape", "1", "--k", "2", "--weight", "3", "--standard-degree", "1"],
         "give exactly one of --weight or --standard-degree"),
        (["expand", "--family", "gk", "--partition", "2,x"], "cannot parse partition '2,x'"),
        (["expand", "--family", "Gk", "--partition", "3", "--k", "2", "--deg-max", "1"],
         "(3,) is not 2-bounded"),
        (["expand", "--family", "dks", "--partition", "3", "--k", "2", "--basis", "h"],
         "(3,) is not 2-bounded"),
        (["expand", "--family", "Gk", "--partition", "2", "--k", "2", "--deg-max", "1",
          "--basis", "h"], "--deg-max 1 is below the degree of (2,)"),
        (["pieri", "row", "--partition", "3,x", "--r", "1"], "cannot parse partition '3,x'"),
        (["pieri", "row", "--partition", "3", "--r", "3", "--k", "2"], "(3,) is not 2-bounded"),
        (["kostka", "--k", "2", "--shape", "3", "--weight", "3"], "(3,) is not 2-bounded"),
        (["kostka", "--shape", "x", "--weight", "1"], "kostka needs --k"),
        (["kostka", "--k", "2", "--shape", "x"], "give both --shape and --weight, or neither"),
        (["kostka", "--k", "2", "--shape", "3", "--weight", "x"], "cannot parse composition 'x'"),
    ],
)
def test_an_input_with_two_faults_reports_the_first(argv, err, capsys):
    assert run_cli(capsys, *argv) == (2, "", f"error: {err}\n")
