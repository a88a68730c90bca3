"""Every name a module imports is used in it.  A stdlib ``ast`` scan over
src/ and tests/ stands in for a linter; ``__init__.py`` files are skipped,
since their imports are the package's re-exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_scan_finds_an_unused_import():
    src = ("from __future__ import annotations\nimport os, sys\n"
           "import numpy.linalg\nfrom a import b as c, d\n"
           "__all__ = ['d']\nprint(sys.argv, numpy)\n")
    assert unused_imports(src) == [(2, "os"), (4, "c")]


def test_no_unused_imports_in_src_or_tests():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in ("src", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []
