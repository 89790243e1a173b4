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


def test_tableaux_listing(capsys):
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


def test_tableaux_long_weight_stays_below_the_recursion_limit(capsys):
    code, out, _ = run_cli(
        capsys, "tableaux", "--shape", "1", "--standard-degree", "2000", "--k", "2"
    )
    assert code == 0 and out == "count: 1\n"


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
    monkeypatch.setenv("KGROTH_CACHE_DIR", str(tmp_path))
    code, _, _ = run_json(capsys, "kostka", "--k", "2", "--deg-max", "2")
    assert code == 0
    assert any(p.suffix == ".json" for p in tmp_path.iterdir())


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
    # Requests are checked too: argparse imports shutil for the terminal width,
    # and shutil brings bz2 and lzma, unless the parser's formatter reads it
    heavy = ("dataclasses", "inspect", "ast", "dis", "tempfile", "shutil", "random", "bz2",
             "lzma")
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


# SHA-256 of stdout (help) or stderr (usage error) with COLUMNS unset or 50 and
# stdout not a terminal, recorded when argparse read the width through shutil
HELP_SHA256 = {
    ("--help", None): "ab63ca99e3d51bc1894e4c75c8ff5f37d922a10eacc4b6fba93458ad610f8799",
    ("--help", "50"): "7da0cd3e1ce5e1a8b984b9b9fff40f35ad514684a0fbc1c5753753f0041447af",
    ("expand --help", None): "ab4ef5ad236ce92e4ef2457e8482d5a36c802a9b47137617940de794f8a51da8",
    ("expand --help", "50"): "fb8df485d7fb2d749ddfe2d84982ea5cf50941cb333036a5d5d9c17a61468e58",
    ("expand --family x", None): "83e0416008ee4ac42b887c8d81bc54db669ac208685ccf765cbcc983e70cf722",
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
# recorded when each family's traits sat in four tables and an if chain
EXPAND_FAMILY_SHA256 = {
    "G": "f753bdef1009ea8fa2cf50b46b32449ec578097650b86b3ef72d941a5f7cafc8",
    "g": "3282c750a1da187e3d8684b4b057ff6f20e6f45331bf5340cd472bd0cab55e27",
    "Gk": "26fc1efebfff285b928fed31b54b27cba4b6e3c0df5fd55825543ad2096f8e19",
    "gk": "fd679ef78b6ade503e564b5a10afa7ae0f77bee3ea99a7ff541bbb66b20f9503",
    "ks": "f374508f5c1608032308020349639d0d6c8b8fa2d64a5ac8b0f4a14f43dd84dd",
    "dks": "fdad5a8f1c5097efddc8f826d12eebae3cd19c84dde28944ffc276a5125ae3e8",
    "s": "3ff7223f589906b89be410a4b167d62618618fa6f4e2ad8ef8e1b64a43446e3e",
}


@pytest.mark.parametrize("family", list(EXPAND_FAMILY_SHA256))
def test_expand_of_every_family_and_basis_is_pinned(family, capsys):
    record = []
    for basis in ((), ("--basis", "m"), ("--basis", "h"), ("--basis", "e"), ("--basis", "s")):
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, "expand", "--family", family, "--partition", "2,1",
                                     "--k", "2", *basis, "--format", fmt)
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
