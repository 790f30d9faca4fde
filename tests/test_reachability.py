"""Dead-code guard: src/ keeps only what the package runs.

Parses every module of ``hodge_domains`` and collects what is reachable from
the command line entry point ``cli.main``, from module-level statements
(tables such as ``cli._SUITES``, aliases such as ``Qi = ...``) and from the
few names in KEPT_API below.  A reached function reaches every name it
mentions; a reached class reaches its bases, decorators, class-level
statements and dunder methods.  A module-level definition is reached by its
bare name or by an attribute access ``x.name``, a class member only by an
attribute access, and an import alias (``bracket as mat_bracket``) counts as
its original name.

A second guard reports every name a module imports and never mentions (the
package root re-exports nothing, so no module is exempt), a third every
parameter default that no call in the package overrides, a fourth every
default that every call overrides (it serves only callers outside the
package), a fifth every parameter that every call passes the same literal,
and a sixth every annotated class field that reached code never reads.  A
call matches a function by name, and by module where the call names one: a
bare name resolves to the module defining or importing it, and x.name to
module x.  A method call names no module, so a function whose name a called
method shares escapes these guards.  Fields are matched by bare name, so a
field whose name another class's reached field shares escapes them.  A
seventh reports every entry of the exemption lists below that names no
definition, parameter or field in the package, so no exemption goes stale.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hodge_domains

PACKAGE_DIR = Path(hodge_domains.__file__).resolve().parent

# Public names the CLI never calls, each kept for a stated reason.
KEPT_API = (
    # the value type of TwoPlane's spanning vectors, which tests build planes from
    "HorizontalVector",
    # perfbench/tracer.py names it in CLASSES and hooks TwoPlane.__init__ (its
    # install raises without it); tests run the (1,n,1) verdicts on its vectors
    "TwoPlane",
)
# Parameter defaults no call in the package overrides: main(argv=None) makes
# argparse read sys.argv, and the console script and `python -m` call main() bare.
# It is also the one parameter every call passes the same value, None.
KEPT_DEFAULTS = ("cli.main.argv",)
# Fields nothing in the package reads, each kept for a stated reason.
KEPT_FIELDS = (
    # the certificate's evidence: its repr is pinned, and the tests check the bracket trees
    "rootcalc.LevelCertificate.witnesses",
)


def _modules(package_dir: Path):
    """(module name, syntax tree) for every module of the package."""
    for path in sorted(package_dir.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _mentioned(nodes, aliases: dict) -> set:
    """Every bare name under the nodes, aliases resolved, and every attribute
    access x.name as ".name"."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(aliases.get(sub.id, sub.id))
            elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
                out.add("." + sub.attr)
            elif isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "getattr":
                out.update("." + a.value for a in sub.args[1:2] if isinstance(a, ast.Constant))
    return out


def _scan_package(package_dir: Path):
    """(definitions, roots, aliases): definitions maps each name that reaches
    a definition (a bare name or ".name") to the (qualified name, nodes to
    scan once reached) pairs it reaches."""
    definitions: dict[str, list] = {}
    roots: list = []
    aliases: dict[str, str] = {}
    for module, tree in _modules(package_dir):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name.rsplit(".", 1)[-1]
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for key in (stmt.name, "." + stmt.name):
                    definitions.setdefault(key, []).append((f"{module}.{stmt.name}", [stmt]))
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                named = [s for s in methods if not _is_dunder(s.name)]
                body = [s for s in stmt.body if s not in named]
                nodes = [*stmt.decorator_list, *stmt.bases, *stmt.keywords, *body]
                for key in (stmt.name, "." + stmt.name):
                    definitions.setdefault(key, []).append((f"{module}.{stmt.name}", nodes))
                for meth in named:
                    qualname = f"{module}.{stmt.name}.{meth.name}"
                    definitions.setdefault("." + meth.name, []).append((qualname, [meth]))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots.append(stmt)
    return definitions, roots, aliases


def reached_names(package_dir: Path = PACKAGE_DIR) -> tuple[set, dict]:
    """(every name and ".name" reached from main, module-level code and
    KEPT_API, the definitions of _scan_package)."""
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
    alive = {qualname for name in reached for qualname, _ in definitions.get(name, ())}
    return sorted({qualname for defs in definitions.values() for qualname, _ in defs} - alive)


def test_every_definition_is_reachable():
    dead = unreachable_definitions()
    assert not dead, "defined in src/ but reachable from neither cli.main nor KEPT_API: " + ", ".join(dead)


def test_guard_sees_a_dead_definition(tmp_path):
    # a module with one called and one uncalled helper
    (tmp_path / "extra.py").write_text("def used():\n    return 1\n\nX = used()\n\ndef unused_helper():\n    return 2\n")
    assert unreachable_definitions(tmp_path) == ["extra.unused_helper"]


def test_guard_reaches_a_member_only_by_attribute(tmp_path):
    # the bare name size() calls the function, not the method of the same name
    (tmp_path / "extra.py").write_text(
        "class A:\n    def used(self): pass\n    def size(self): pass\ndef size(): pass\nX = size(), A().used()\n")
    assert unreachable_definitions(tmp_path) == ["extra.A.size"]


def unused_imports(package_dir: Path = PACKAGE_DIR) -> list[str]:
    """module.name for each name a module binds by an import and never reads."""
    out = []
    for module, tree in _modules(package_dir):
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        out.append(f"{module}.{bound}")
    return sorted(out)


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, "imported in src/ but never used: " + ", ".join(unused)


def test_guard_sees_an_unused_import(tmp_path):
    # one used and two unused imports, and a re-export in __init__, which is scanned too
    (tmp_path / "extra.py").write_text(
        "from __future__ import annotations\nimport os.path\nfrom math import gcd, lcm as least\n\nX = gcd(4, 6)\n")
    (tmp_path / "__init__.py").write_text("from .extra import X\n")
    assert unused_imports(tmp_path) == ["__init__.X", "extra.least", "extra.os"]


def _call_targets(module: str, tree: ast.Module, package: set):
    """(call node, called name, module or None) for each call in the tree.  A bare
    name resolves to the module defining or importing it (an alias to its
    original name), and x.name to x's module when x names one; any other
    call, such as a method call, names no module (None)."""
    defined = {stmt.name for stmt in tree.body if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    imported, modules = {}, {}  # bare name -> (module, original name); alias -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rsplit(".", 1)[-1] if node.level else node.module
            for alias in node.names:
                if node.module is None and alias.name in package:  # from . import spheremesh as mod
                    modules[alias.asname or alias.name] = alias.name
                else:
                    imported[alias.asname or alias.name] = (source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name.split(".")[0]] = alias.name
    for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
        func = call.func
        if isinstance(func, ast.Name):
            source, name = imported.get(func.id, (module if func.id in defined else None, func.id))
        elif isinstance(func, ast.Attribute):
            source, name = modules.get(getattr(func.value, "id", None)), func.attr
        else:
            continue
        yield call, name, source


def _functions_and_calls(package_dir: Path):
    """(functions, calls): (qualname, module, called name, leading parameters
    a call does not pass, node) for each module-level function and method,
    and the (call node, module or None) pairs in the package by called name,
    as _call_targets resolves them.  A method's position counts after self,
    and a constructor is called by its class name."""
    functions, calls = [], {}
    trees = dict(_modules(package_dir))
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                functions.append((f"{module}.{stmt.name}", module, stmt.name, 0, stmt))
            for meth in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                if isinstance(meth, ast.FunctionDef):
                    called = stmt.name if meth.name == "__init__" else meth.name
                    functions.append((f"{module}.{stmt.name}.{meth.name}", module, called, 1, meth))
        for call, name, source in _call_targets(module, tree, set(trees)):
            calls.setdefault(name, []).append((call, source))
    return functions, calls


def _calls_of(module: str, called: str, calls: dict) -> list:
    """The call nodes that may call module's function `called`: those by its
    name that name its module, or no module."""
    return [call for call, source in calls.get(called, ()) if source in (None, module)]


def _defaults_passed(package_dir: Path):
    """(module.function.parameter, one bool per call: whether the call
    passes it, by keyword or by position) for each parameter default of a
    module-level function or a method."""
    functions, calls = _functions_and_calls(package_dir)
    for qualname, module, called, skip, node in functions:
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        defaulted = [(i - skip, p.arg) for i, p in enumerate(positional) if i >= first]
        defaulted += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        matching = _calls_of(module, called, calls)
        for index, param in defaulted:
            yield f"{qualname}.{param}", [
                param in {k.arg for k in call.keywords} or (index is not None and index < len(call.args))
                for call in matching]


def unused_defaults(package_dir: Path = PACKAGE_DIR) -> list[str]:
    """module.function.parameter for each parameter default that no call in
    the package passes."""
    return sorted(name for name, passed in _defaults_passed(package_dir)
                  if not any(passed) and name not in KEPT_DEFAULTS)


def overridden_defaults(package_dir: Path = PACKAGE_DIR) -> list[str]:
    """module.function.parameter for each parameter default that every call
    in the package passes (there being at least one call): a default that
    serves only callers outside the package."""
    return sorted(name for name, passed in _defaults_passed(package_dir) if passed and all(passed))


def test_every_default_is_passed():
    unused = unused_defaults()
    assert not unused, "parameter defaults no call in src/ overrides: " + ", ".join(unused)


def test_guard_sees_an_unused_default(tmp_path):
    # b is passed by position, e by keyword and y by position after self; c, d, x and z never
    (tmp_path / "extra.py").write_text(
        "def f(a, b=1, c=2): pass\ndef g(a, *, d=1, e=2): pass\n"
        "class C:\n    def __init__(self, x=0): pass\n    def m(self, y=0, z=0): pass\n"
        "X = f(0, 5), g(0, e=3), C().m(1)\n")
    assert unused_defaults(tmp_path) == ["extra.C.__init__.x", "extra.C.m.z", "extra.f.c", "extra.g.d"]


def test_no_default_is_passed_by_every_call():
    overridden = overridden_defaults()
    assert not overridden, "parameter defaults every call in src/ overrides: " + ", ".join(overridden)


def test_guard_sees_a_default_every_call_overrides(tmp_path):
    # audit(m, g=None) in two modules: every call of extra.audit, through the
    # module or bare, passes g; the one call of other.audit does not.  A method
    # call names no module, so f's default is passed by o.f(1) and by f(2)
    (tmp_path / "extra.py").write_text(
        "def audit(m, g=None): pass\ndef f(a=0): pass\nX = audit(1, 2), f(2)\n")
    (tmp_path / "other.py").write_text(
        "from . import extra as extra_mod\nfrom .extra import audit as check\n"
        "def audit(m, g=None): pass\n"
        "def run(o): return extra_mod.audit(1, g=2), check(3, 4), audit(5), o.f(1)\n")
    assert overridden_defaults(tmp_path) == ["extra.audit.g", "extra.f.a"]
    assert unused_defaults(tmp_path) == ["other.audit.g"]


def _literal(node):
    """ast.dump of node when it is a literal, else None (also for no node)."""
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):
        return None
    return ast.dump(node)


def one_valued_parameters(package_dir: Path = PACKAGE_DIR) -> list[str]:
    """module.function.parameter for each parameter to which every call in
    the package passes the same literal, by position, by keyword or through
    the default.  A call that unpacks arguments passes no literal."""
    functions, calls = _functions_and_calls(package_dir)
    out = []
    for qualname, module, called, skip, node in functions:
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        names = [p.arg for p in positional[skip:]]
        defaults = {p.arg: d for p, d in zip(reversed(positional), reversed(args.defaults))}
        defaults.update((p.arg, d) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
        passed = [{**defaults, **dict(zip(names, call.args)), **{k.arg: k.value for k in call.keywords}}
                  if all(k.arg for k in call.keywords) and not any(isinstance(a, ast.Starred) for a in call.args)
                  else {} for call in _calls_of(module, called, calls)]
        for param in names + [p.arg for p in args.kwonlyargs]:
            values = {_literal(bound.get(param)) for bound in passed}
            if len(values) == 1 and None not in values:
                out.append(f"{qualname}.{param}")
    return sorted(name for name in out if name not in KEPT_DEFAULTS)


def _annotated_fields(package_dir: Path) -> list[str]:
    """module.Class.field for each annotated field of a class in the package."""
    return [f"{module}.{stmt.name}.{field.target.id}" for module, tree in _modules(package_dir)
            for stmt in tree.body if isinstance(stmt, ast.ClassDef)
            for field in stmt.body if isinstance(field, ast.AnnAssign)]


def unread_fields(package_dir: Path = PACKAGE_DIR) -> list[str]:
    """module.Class.field for each annotated field of a class in the package
    that reached code never reads, by x.field or getattr(x, "field", ...)."""
    reached, _ = reached_names(package_dir)
    return sorted(name for name in _annotated_fields(package_dir)
                  if "." + name.rsplit(".", 1)[1] not in reached and name not in KEPT_FIELDS)


def test_no_parameter_is_one_valued():
    fixed = one_valued_parameters()
    assert not fixed, "parameters every call in src/ passes the same literal: " + ", ".join(fixed)


def test_guard_sees_a_one_valued_parameter(tmp_path):
    # a gets 1 by position and by keyword, b 2 and then its default 2, c two values,
    # d two equal non-literals; m's y gets "s" after self; g is never called, and
    # h's unpacking call may pass anything
    (tmp_path / "extra.py").write_text(
        "def f(a, b=2, *, c=0, d=None): pass\ndef g(z=1): pass\ndef h(w): pass\n"
        "class C:\n    def m(self, y): pass\n"
        "X = f(1, 2, c=1, d=X), f(a=1, c=2, d=X), C().m('s'), h(1), h(*X)\n")
    assert one_valued_parameters(tmp_path) == ["extra.C.m.y", "extra.f.a", "extra.f.b"]


def test_every_field_is_read():
    unread = unread_fields()
    assert not unread, "fields no reached code in src/ reads: " + ", ".join(unread)


def test_guard_sees_an_unread_field(tmp_path):
    # a is read, b only through getattr, c only written; D is never reached
    (tmp_path / "extra.py").write_text(
        "class R:\n    a: int\n    b: int\n    c: int\n"
        "class D:\n    e: int\n"
        "def use(r):\n    r.c = r.a\n    return getattr(r, 'b', 0)\n"
        "X = use(R())\n")
    assert unread_fields(tmp_path) == ["extra.D.e", "extra.R.c"]


def stale_exemptions(package_dir: Path = PACKAGE_DIR) -> list[str]:
    """Each entry of KEPT_API, KEPT_DEFAULTS and KEPT_FIELDS that names no
    module-level definition, parameter or annotated field in the package."""
    definitions, _, _ = _scan_package(package_dir)
    functions, _ = _functions_and_calls(package_dir)
    params = {f"{qualname}.{p.arg}" for qualname, _, _, _, node in functions
              for p in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]}
    fields = set(_annotated_fields(package_dir))
    return ([name for name in KEPT_API if name not in definitions]
            + [name for name in KEPT_DEFAULTS if name not in params]
            + [name for name in KEPT_FIELDS if name not in fields])


def test_every_exemption_names_code():
    stale = stale_exemptions()
    assert not stale, "exempted but not defined in src/: " + ", ".join(stale)


def test_guard_sees_a_stale_exemption(tmp_path):
    # a package that defines none of the exempted names; its main is in another module
    (tmp_path / "extra.py").write_text("def main(args=None): pass\n")
    assert stale_exemptions(tmp_path) == [*KEPT_API, *KEPT_DEFAULTS, *KEPT_FIELDS]
