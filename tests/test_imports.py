"""No module of the package, its scripts or its tests imports a name it never uses."""

from __future__ import annotations

import ast

from conftest import REPO_ROOT

SOURCES = sorted(path for folder in ("src/vfea", "scripts", "tests")
                 for path in (REPO_ROOT / folder).glob("*.py"))


def imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used(tree: ast.Module) -> set[str]:
    """The names the module reads: as a name, inside a string annotation, or in ``__all__``."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out |= used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out |= {elt.value for elt in node.value.elts}
    return out


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    names = used(tree)
    return sorted((line, name) for name, line in imported(tree).items() if name not in names)


def test_no_module_imports_a_name_it_never_uses():
    assert len(SOURCES) >= 40  # the three folders are read
    assert {path.relative_to(REPO_ROOT).as_posix(): unused
            for path in SOURCES if (unused := unused_imports(path.read_text(encoding="utf-8")))} \
        == {}


def test_a_name_counts_as_used_in_code_a_string_annotation_or_all():
    assert unused_imports("import os\nfrom a import b, c as d\nos.sep\n") == [(2, "b"), (2, "d")]
    assert unused_imports('from a import B, C\ndef f(x: "B | None") -> "list[C]": pass\n') == []
    assert unused_imports('from a import B\n__all__ = ["B"]\n') == []
    assert unused_imports("from __future__ import annotations\n") == []
