"""Every function, class and method of the package is reachable from what runs.

The roots are the `kgroth` command (cli.main), the verify suites and scans
(families.VERIFY_CHECKS and SCANS) and the names the traced benchmark run
hooks (the SPANS, COUNTED and CACHED tables of bench/tracer.py).  The source
is read, not imported: a reached definition reaches every package name its
body loads, directly, through an import or as an attribute of an imported
package module.  A method counts as reached when its class is and it is a
dunder or some reached code loads an attribute of its name.  A definition
that only tests use belongs in tests/oracles.py, not in the package.
"""

import ast
from pathlib import Path

from test_bench_hooks import _tables

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kgroth"

# public library API that nothing in the package calls, with the reason it stays
PUBLIC = {
    "symfunc.m": "the monomial-basis constructor, beside h, e and s",
    "symfunc.SymFunc.coeff": "reads one coefficient of an expansion by partition",
}


class _Module:
    """One package module: its top-level definitions and import aliases."""

    def __init__(self, tree: ast.Module):
        self.defs: dict[str, ast.AST] = {}
        self.aliases: dict[str, tuple] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, ast.Assign):
                self.defs.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign):
                self.defs[node.target.id] = node
            elif isinstance(node, ast.ImportFrom):
                self.aliases.update(_import_aliases(node))


def _import_aliases(node: ast.ImportFrom) -> dict[str, tuple]:
    """Local name -> ("module", m) or ("name", m, n) for a relative package import."""
    if node.level != 1:
        return {}
    if node.module is None:
        return {a.asname or a.name: ("module", a.name) for a in node.names}
    return {a.asname or a.name: ("name", node.module, a.name) for a in node.names}


def _methods(node) -> list[ast.FunctionDef]:
    if not isinstance(node, ast.ClassDef):
        return []
    return [n for n in node.body if isinstance(n, ast.FunctionDef)]


def _own_nodes(node: ast.AST) -> list[ast.AST]:
    """The AST nodes a definition's reach is read from; a class's methods are apart."""
    if isinstance(node, ast.ClassDef):
        parts = node.bases + node.decorator_list + [n for n in node.body if n not in _methods(node)]
        return [sub for part in parts for sub in ast.walk(part)]
    return list(ast.walk(node))


def unreachable() -> list[str]:
    modules = {
        path.stem: _Module(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }

    def resolve(mod: str, name: str, local: dict):
        """The ("module", m) or (module, name) definition a loaded name refers to, or None."""
        target = local.get(name) or modules[mod].aliases.get(name)
        if target is None:
            return (mod, name) if name in modules[mod].defs else None
        if target[0] == "module":
            return target if target[1] in modules else None
        _, other, imported = target
        return (other, imported) if imported in modules[other].defs else None

    def reaches(mod: str, nodes) -> tuple[set, set]:
        """The definitions and the attribute names that the nodes load."""
        local = {}
        for sub in nodes:
            if isinstance(sub, ast.ImportFrom):
                local.update(_import_aliases(sub))
        found, attrs = set(), set()
        for sub in nodes:
            if isinstance(sub, ast.Name):
                found.add(resolve(mod, sub.id, local))
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
                if isinstance(sub.value, ast.Name):
                    target = resolve(mod, sub.value.id, local)
                    if target and target[0] == "module" and sub.attr in modules[target[1]].defs:
                        found.add((target[1], sub.attr))
        return {key for key in found if key and key[0] != "module"}, attrs

    tables = _tables()
    roots = {("cli", "main"), ("families", "VERIFY_CHECKS"), ("families", "SCANS")}
    roots |= {(mod, fn) for kind in ("SPANS", "COUNTED") for mod, fns in tables[kind].items()
              for fn in fns}
    roots |= set(tables["CACHED"])

    reached: set = set()
    attrs: set = set()
    todo = sorted(roots)
    while todo:
        while todo:
            key = todo.pop()
            if key in reached:
                continue
            reached.add(key)
            mod, name = key
            cls, _, meth = name.partition(".")
            node = modules[mod].defs[cls]
            if meth:
                node = next(n for n in _methods(node) if n.name == meth)
            found, seen = reaches(mod, _own_nodes(node))
            attrs |= seen
            todo.extend(found - reached)
        # the attribute names loaded so far reach the methods of the classes reached
        todo = sorted(
            (mod, f"{name}.{meth.name}")
            for mod, name in reached
            for meth in _methods(modules[mod].defs.get(name))
            if meth.name in attrs or (meth.name.startswith("__") and meth.name.endswith("__"))
            if (mod, f"{name}.{meth.name}") not in reached
        )

    everything = {
        (mod, f"{name}.{meth.name}" if meth else name)
        for mod, m in modules.items()
        for name, node in m.defs.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for meth in [None] + _methods(node)
    }
    return sorted(f"{mod}.{name}" for mod, name in everything - reached)


def test_every_definition_is_reachable_from_what_runs():
    dead = unreachable()
    # a public name that gains a caller leaves the list
    assert set(PUBLIC) <= set(dead), sorted(set(PUBLIC) - set(dead))
    dead = [name for name in dead if name not in PUBLIC]
    assert not dead, "unreachable from the CLI, the suites and the traced names: " + ", ".join(dead)
