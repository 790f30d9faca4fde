"""Dead-code guard: src/ keeps only what the package runs.

Parses every module of ``hodge_domains`` and collects, by name, what is
reachable from the command line entry point ``cli.main``, from module-level
statements (tables such as ``cli._SUITES``, aliases such as ``Qi = ...``)
and from the few names in KEPT_API below.  A reached function reaches every
name it mentions; a reached class reaches its bases, decorators, class-level
statements and dunder methods.  Matching is by bare name, so a definition
counts as used when any reached code mentions its name, and an import alias
(``bracket as mat_bracket``) counts as its original name.  Every name in
``hodge_domains.__all__`` must be reached, so the public API hides no dead
code either.

A second guard reports every name a module other than ``__init__`` imports
and never mentions (``__init__`` imports to re-export).
"""

from __future__ import annotations

import ast
from pathlib import Path

import hodge_domains

PACKAGE_DIR = Path(hodge_domains.__file__).resolve().parent

# Public names the CLI never calls, each kept for a stated reason.
KEPT_API = (
    "HorizontalVector",  # the value type the pu2n_criterion oracles build planes from
    "TwoPlane",  # the plane the oracles test; perfbench/tracer.py hooks TwoPlane.__init__
    "is_isotropic",  # oracle of the pu2n_criterion suite's isotropy verdicts
    "is_regular",  # oracle of the pu2n_criterion suite's regularity verdicts
    "is_complex_line",  # oracle of the pu2n_criterion suite's complex-line verdicts
)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _mentioned(nodes, aliases: dict) -> set:
    """Every bare name and attribute name under the nodes, aliases resolved."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(aliases.get(sub.id, sub.id))
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _scan_package(package_dir: Path):
    """(definitions, roots, aliases): definitions maps a bare name to the
    (qualified name, nodes to scan once reached) pairs defining it."""
    definitions: dict[str, list] = {}
    roots: list = []
    aliases: dict[str, str] = {}
    for path in sorted(package_dir.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name.rsplit(".", 1)[-1]
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions.setdefault(stmt.name, []).append((f"{module}.{stmt.name}", [stmt]))
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                named = [s for s in methods if not _is_dunder(s.name)]
                body = [s for s in stmt.body if s not in named]
                nodes = [*stmt.decorator_list, *stmt.bases, *stmt.keywords, *body]
                definitions.setdefault(stmt.name, []).append((f"{module}.{stmt.name}", nodes))
                for meth in named:
                    qualname = f"{module}.{stmt.name}.{meth.name}"
                    definitions.setdefault(meth.name, []).append((qualname, [meth]))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots.append(stmt)
    return definitions, roots, aliases


def reached_names(package_dir: Path = PACKAGE_DIR) -> tuple[set, dict]:
    """(every name reached from main, module-level code and KEPT_API, the
    definitions of _scan_package)."""
    definitions, roots, aliases = _scan_package(package_dir)
    reached: set[str] = set()
    todo = ["main", *KEPT_API, *_mentioned(roots, aliases)]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, nodes in definitions.get(name, ()):
            todo.extend(_mentioned(nodes, aliases) - reached)
    return reached, definitions


def unreachable_definitions(package_dir: Path = PACKAGE_DIR) -> list[str]:
    reached, definitions = reached_names(package_dir)
    return sorted(
        qualname
        for name, defs in definitions.items()
        if name not in reached
        for qualname, _ in defs
    )


def test_every_definition_is_reachable():
    dead = unreachable_definitions()
    assert not dead, "defined in src/ but reachable from neither cli.main nor KEPT_API: " + ", ".join(dead)


def test_every_public_name_is_reachable():
    reached, _ = reached_names()
    hidden = [name for name in hodge_domains.__all__ if name not in reached]
    assert not hidden, "in __all__ but reachable from neither cli.main nor KEPT_API: " + ", ".join(hidden)


def test_guard_sees_a_dead_definition(tmp_path):
    # a module with one called and one uncalled helper
    (tmp_path / "extra.py").write_text("def used():\n    return 1\n\nX = used()\n\ndef unused_helper():\n    return 2\n")
    assert unreachable_definitions(tmp_path) == ["extra.unused_helper"]


def unused_imports(package_dir: Path = PACKAGE_DIR) -> list[str]:
    """module.name for each name a module (not __init__) binds by an import
    and never reads."""
    out = []
    for path in sorted(package_dir.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        out.append(f"{path.stem}.{bound}")
    return sorted(out)


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, "imported in src/ but never used: " + ", ".join(unused)


def test_guard_sees_an_unused_import(tmp_path):
    # one used and two unused imports; __init__ re-exports and is not scanned
    (tmp_path / "extra.py").write_text(
        "from __future__ import annotations\nimport os.path\nfrom math import gcd, lcm as least\n\nX = gcd(4, 6)\n")
    (tmp_path / "__init__.py").write_text("from .extra import X\n")
    assert unused_imports(tmp_path) == ["extra.least", "extra.os"]
