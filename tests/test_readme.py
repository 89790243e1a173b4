"""The README's library quick tour runs and shows what it computes."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_lines_print_what_their_comments_say():
    """Every comment that is a repr is the repr of its line's value.

    A prose comment does not parse as an expression and is skipped; an elided
    dict, with "..." for the entries it leaves out, is checked on the entries
    it shows.
    """
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(source, namespace)
        else:
            exec(source, namespace)
            if not isinstance(stmt, ast.Assign):
                continue
            value = namespace[stmt.targets[0].id]
        line = lines[stmt.end_lineno - 1]
        if "#" not in line:
            continue
        comment = line.split("#", 1)[1].strip()
        if "..." in comment:
            shown = ast.literal_eval(comment.replace("..., ", ""))
            assert {key: value.get(key) for key in shown} == shown, source
        else:
            try:
                ast.parse(comment, mode="eval")
            except SyntaxError:
                continue
            assert repr(value) == comment, source
        checked.append(source.split("(", 1)[0])
    assert checked == ["core = bounded_to_core", "core_to_bounded", "str", "count_kostka",
                       "row_pieri", "omega_big", "hall_inner"]
