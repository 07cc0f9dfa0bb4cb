"""Checks on the hdshapes source text itself.

Warning filters and `warnings`' own functions are process-wide, and
`warnings.catch_warnings` changes them for every thread at once. The
library holds its warnings in a context variable (`core._warn`,
`core._holding`) instead; only the CLI's run, which records what one build
warned, enters `catch_warnings`.
"""

import ast
from pathlib import Path

import pytest

import hdshapes

SOURCES = sorted(Path(hdshapes.__file__).resolve().parent.glob("*.py"))
ALLOWED_CATCH = {("cli.py", "_emit")}


def _warnings_state_changes(path: Path) -> list[str]:
    """Each assignment to an attribute of `warnings` in `path`, and each
    `catch_warnings` call outside the functions in ALLOWED_CATCH."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in child.targets if isinstance(child, ast.Assign) else [child.target]:
                    for part in ast.walk(target):
                        if isinstance(part, ast.Attribute) and isinstance(part.value, ast.Name) and part.value.id == "warnings":
                            found.append(f"{path.name}:{part.lineno} assigns warnings.{part.attr}")
            if isinstance(child, ast.Call):
                called = child.func.attr if isinstance(child.func, ast.Attribute) else getattr(child.func, "id", None)
                if called == "catch_warnings" and (path.name, function) not in ALLOWED_CATCH:
                    found.append(f"{path.name}:{child.lineno} calls catch_warnings in {function}")
            visit(child, inner)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_source_changes_process_wide_warning_state(path):
    assert _warnings_state_changes(path) == []

