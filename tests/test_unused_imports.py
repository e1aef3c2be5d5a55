"""Offline stand-in for ruff's F401 (CI's ``lint`` job runs the real one).

A module-level import is unused when its bound name is never read as a
name in the module, is not re-exported through ``__all__``, and its line
carries no ``# noqa``.  ``__init__.py`` files are skipped (their imports
are the package's face), as is the frozen ``benchmarks/e2e/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PATTERNS = ("src/repro/**/*.py", "tests/*.py", "tools/*.py", "benchmarks/*.py")


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else ()
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    return unused


def test_no_module_level_import_is_unused():
    files = sorted(
        path
        for pattern in PATTERNS
        for path in ROOT.glob(pattern)
        if path.name != "__init__.py"
    )
    assert len(files) > 100, "the walk found too few files to mean anything"
    assert [hit for path in files for hit in _unused_imports(path)] == []
