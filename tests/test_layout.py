"""The package's layout: what the library keeps, and what the oracle may see.

Every module under src/planarrank/ is production code and defines only
what the library runs: each module-level function or class is exported in
planarrank.__all__ or referenced from src/, perfbench/ or demos/ outside
its own definition.  Code that only tests reach belongs in the tests or,
when it states the specification, in tests/_oracle.py.

tests/_oracle.py is the brute-force reference the tests compare against,
so it imports none of the ranking layers, and nothing under src/,
perfbench/ or demos/ imports it.
"""

import ast
from pathlib import Path

import planarrank

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planarrank"
RANKING_LAYERS = {"full", "biconnected", "cutvertex", "spqr", "nesting", "codecs"}


def _sources() -> dict[Path, ast.Module]:
    files = sorted(p for d in ("src", "perfbench", "demos") for p in (ROOT / d).rglob("*.py"))
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in files}


def _names(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Identifiers used under node, outside skip: names, attributes,
    imported names and string constants (perfbench/tracing.py names the
    bindings it wraps by string)."""
    out: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            out.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.add(cur.attr)
        elif isinstance(cur, ast.alias):
            out.add(cur.name)
        elif isinstance(cur, ast.Constant) and isinstance(cur.value, str):
            out.add(cur.value)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def _imported_modules(tree: ast.Module) -> set[str]:
    """Last component of every module the tree imports, relative or not."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(node.module.rsplit(".", 1)[-1])
            if node.module in (None, "planarrank"):
                out.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return out


def unreached_definitions() -> list[str]:
    """Module-level functions and classes of the production modules that
    nothing outside the tests reaches."""
    sources = _sources()
    exported = set(planarrank.__all__)
    unreached = []
    for path, tree in sources.items():
        if path.parent != PACKAGE:
            continue
        others = set().union(*(_names(t) for p, t in sources.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in exported or node.name in others:
                continue
            if node.name not in _names(tree, skip=node):
                unreached.append(f"{path.stem}.{node.name}")
    return sorted(unreached)


def test_production_modules_define_only_what_the_library_runs():
    assert unreached_definitions() == []


def test_oracle_imports_no_ranking_layer():
    tree = ast.parse((ROOT / "tests" / "_oracle.py").read_text())
    assert _imported_modules(tree) & RANKING_LAYERS == set()


def test_nothing_outside_the_tests_imports_the_oracle():
    importers = sorted(p.relative_to(ROOT).as_posix() for p, tree in _sources().items()
                       if "_oracle" in _imported_modules(tree))
    assert importers == []
