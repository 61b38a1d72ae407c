"""No module of the package, its scripts or its tests imports a name it never
uses, and the package's acceptance checks import nothing of the solver."""

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


def package_imports(source: str) -> set[str]:
    """The vfea modules a module imports, relatively or by name; ``vfea`` for the package."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["vfea" if node.level else None, node.module]))
            names = [f"vfea.{alias.name}" for alias in node.names] if module == "vfea" else [module]
        else:
            continue
        for first, _, rest in (name.partition(".") for name in names):
            if first == "vfea":
                out.add(rest.split(".")[0] or "vfea")
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


def test_the_acceptance_checks_import_nothing_of_vfea_but_ir():
    # a checker that shares code with the solver can share its bug
    source = (REPO_ROOT / "src/vfea/certify.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"ir"}


def test_package_imports_reads_every_form_of_import():
    assert package_imports("from .solver import solve_static\nfrom . import ir, sandbox\n") \
        == {"solver", "ir", "sandbox"}
    assert package_imports("import vfea.harness\nfrom vfea.memory import x\nimport numpy\n"
                           "from __future__ import annotations\n") == {"harness", "memory"}
    assert package_imports("import vfea\nfrom vfea import cli\n") == {"vfea", "cli"}
