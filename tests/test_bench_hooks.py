"""The names that the traced benchmark run hooks must exist in the package.

bench/tracer.py rebinds these names when it installs itself, so a refactor
that drops or renames one would otherwise only crash the traced run.  The
tables are read from the source without importing it.
"""

import ast
import importlib
from pathlib import Path

from kgroth.symfunc import SymFunc

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tables() -> dict:
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("SPANS", "COUNTED", "CACHED", "ARITH"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_traced_names_exist():
    tables = _tables()
    hooked = [(mod, fn) for kind in ("SPANS", "COUNTED") for mod, fns in tables[kind].items()
              for fn in fns]
    assert hooked
    for mod, fn in hooked + list(tables["CACHED"]):
        assert hasattr(importlib.import_module(f"kgroth.{mod}"), fn), f"kgroth.{mod}.{fn}"
    for mod, fn in tables["CACHED"]:
        assert hasattr(getattr(importlib.import_module(f"kgroth.{mod}"), fn), "cache_info")
    for method in tables["ARITH"] + ("__post_init__",):
        assert hasattr(SymFunc, method), method
    assert hasattr(importlib.import_module("kgroth.symfunc"), "convert")


def test_every_construction_runs_the_post_init_hook(monkeypatch):
    # the traced run counts SymFunc constructions by rebinding this hook on
    # the class, so every way of making a SymFunc must call it through the class
    from kgroth.symfunc import convert

    calls = []
    original = SymFunc.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(SymFunc, "__post_init__", counting)
    f = SymFunc("m", {(1,): 1, (2,): 0}, deg_max=3)
    assert calls == [f] and f.coeffs == {(1,): 1}
    for make in (lambda: f + f, lambda: f - f, lambda: 3 * f, lambda: convert(f, "s"),
                 lambda: convert(f, "h"), lambda: convert(f, "e")):
        before = len(calls)
        result = make()
        assert len(calls) > before and calls[-1] is result
