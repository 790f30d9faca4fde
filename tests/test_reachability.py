"""Dead-code guards: every line of src/ runs, or says why not.

The line guard runs GRID, a fixed set of command lines, through ``cli.main``
in a fresh interpreter under ``sys.settrace``, installed before the package
is imported so that module-level lines count.  It compares the lines that ran
with the ``co_lines()`` of every compiled module and its nested code objects.
A line that never ran must be exempt by its syntax (a ``raise``, a block that
ends in one, the ``except`` line of a handler that re-raises, the body of
``if __name__ == "__main__"``) or be named, with a reason, by KEPT_LINES; an
entry that names no line, or a line that ran, is stale.  A definition that
``cli.main`` never reaches never runs, so this guard sees dead functions,
dead methods and dead dunders, and also dead branches; it cannot see a
method-less class that nothing builds, whose class body still runs at import,
nor a method alias such as ``__rmul__ = __mul__``, a class-body line that runs
when the class is created whether or not the alias is ever called.

The static guards parse the modules.  One reports every name a module
imports and never mentions (the package root re-exports nothing, so no module
is exempt), one every parameter default that no call in the package
overrides, one every default that every call overrides (it serves only
callers outside the package), one every parameter that every call passes the
same literal, one every annotated class field that nothing in the package
reads, and one every class that no call and no raise in the package names,
unless KEPT_CLASSES names it with a reason; these two catch the method-less
class above, with or without fields.  A call matches a function, or a class,
by name, and by module where the call names one: a bare name resolves to the
module defining or importing it, and x.name to module x.  A method call names
no module, so a function whose name a called method shares escapes the call
guards.  Fields are matched by bare name, so a field whose name any attribute
read in the package shares escapes the field guard.  One reports every
class-body assignment whose value names a method of that class, which catches
the alias above (written as a def, the line guard traces it).  The last
reports every entry of KEPT_DEFAULTS and KEPT_FIELDS that names no parameter
or field in the package; a KEPT_CLASSES entry that names a class the package
builds, or no class, is reported with the classes.  So no exemption goes
stale.
"""

from __future__ import annotations

import ast
import inspect
import json
import subprocess
import sys
import tempfile
import types
from pathlib import Path

from conftest import cli_env

import hodge_domains

PACKAGE_DIR = Path(hodge_domains.__file__).resolve().parent

# (exit code, argv) for each command the line guard runs: every suite of
# verify, both report formats, every output option, the mesh export in both
# formats, and invalid inputs.  (3,1,3) is there for class_closure_oracle's
# reverse shift, which no other tuple here needs.
GRID = (
    *((0, ["verify", "--ranks", ranks, "--samples", "20"])
      for ranks in ("1,1", "1,1,1", "1,2,1", "2,1,2", "2,2,2", "1,2,1,1", "3,1,3")),
    *((0, ["report", "--ranks", ranks, "--format", fmt]) for ranks in ("1,2,1", "2,1,2") for fmt in ("json", "text")),
    (0, ["report", "--ranks", "2,2,2", "--out", "report.json"]),
    (0, ["verify", "--ranks", "2,2", "--samples", "5", "--format", "text"]),
    (0, ["verify", "--ranks", "1,2,1", "--samples", "5", "--classify-out", "planes.jsonl", "--out", "verify.json"]),
    *((0, ["mesh", "--subdivisions", str(s), "--format", fmt, "--out", f"mesh{s}.off"])
      for s in range(3) for fmt in ("off", "json")),
    (2, ["report", "--ranks", "1,x"]),
    (2, ["report", "--ranks", "1"]),
    (2, ["report", "--ranks", "1,0"]),
    (3, ["report", "--ranks", "11,10"]),
    (2, ["report", "--ranks", "1,2,1", "--out", "missing/report.json"]),
    (2, ["verify", "--ranks", "1,2,1", "--samples", "0"]),
    (2, ["verify", "--ranks", "1,2,1", "--seed", "-1"]),
    (3, ["verify", "--ranks", "1,2,1", "--samples", "1000001"]),
    (2, ["verify", "--ranks", "2,2", "--classify-out", "planes.jsonl"]),
    (2, ["verify", "--ranks", "1,2,1", "--out", "same.json", "--classify-out", "same.json"]),
    (2, ["verify", "--ranks", "1,2,1", "--out", "missing/verify.json"]),
    (2, ["mesh", "--subdivisions", "-1"]),
    (3, ["mesh", "--subdivisions", "9"]),
    (2, ["mesh", "--out", "mesh.json"]),
    (2, ["mesh", "--out", "missing/mesh.off"]),
)

# Lines no GRID command runs, each kept for a stated reason.  A key
# "module.Qualname" names every line of that function's body, and of the
# functions nested in it or, for a class, of its methods; a key
# "module.Qualname: source line" names the lines of that body whose text,
# stripped, is the source line.
_FAILING = "a failing verdict, which the grid's passing runs never reach; tests reach it"
KEPT_LINES = {
    **dict.fromkeys((
        "cli.run_verify: except Exception as exc:  # a crashing suite is a failing suite",
        'cli.run_verify: passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}',
        "cli.export_mesh: return EXIT_SUITE_FAILURE, []",
        'cli.main: sys.stderr.write("mesh audit failed; nothing written\\n")',
        "horizontal.su22_embedding: return False",
        "meshaudit.levels_pass: return False",
    ), _FAILING),
    **dict.fromkeys((
        'exactla.hermitian_definiteness: return "positive"  # empty form, vacuously definite either way',
        'exactla.hermitian_definiteness: return "degenerate"',
        'exactla.hermitian_definiteness: return "indefinite"',
        "exactla.hermitian_definiteness: if all((re < 0) == (k % 2 == 0) for k, (re, _) in enumerate(pivots)):",
        'exactla.hermitian_definiteness: return "negative"',
    ), "the verdicts that fail the flags suite's check of a projection; tests compare each with leading minors, "
       "and perfbench/test_bench.py asserts calls to the function"),
    **dict.fromkeys((
        "domain.perturbed_flag: except ValueError:",
        "domain.perturbed_flag: scale = scale / 4",
        "domain.perturbed_flag: continue",
    ), "perturbed_flag draws a perturbation that leaves the flag degenerate or outside the domain again, "
       "smaller; the grid's seeds never need it, and a test forces it"),
    **dict.fromkeys((
        "exactla._combine: tr = [pa * u - pb * t - fa * v + fb * w for u, t, v, w in zip(xr[lo:], xi[lo:], yr, yi)]",
        "exactla._combine: ti = [pa * t + pb * u - fa * w - fb * v for u, t, v, w in zip(xr[lo:], xi[lo:], yr, yi)]",
        "exactla._combine: qn = qa * qa + qb * qb  # t / q = t * conj(q) / |q|^2",
        "exactla._combine: xr[lo:] = [(s * qa + t * qb) // qn for s, t in zip(tr, ti)]",
        "exactla._combine: xi[lo:] = [(t * qa - s * qb) // qn for s, t in zip(tr, ti)]",
    ), "the division by a pivot that is not real: the grid eliminates Hermitian matrices, whose pivots are "
       "leading minors until a row exchange, and real matrices; the kernel takes any matrix over Q(i), and "
       "tests eliminate random Gaussian matrices"),
    "exactla.GaussianRational.__hash__": "defining __eq__ drops the inherited hash; tests check that equal scalars "
                                          "hash alike",
    "exactla.GaussianRational.__reduce__": "copy and pickle go through it (the default restore would hit the "
                                           "raising __setattr__); tests round-trip scalars",
    "exactla.GaussianRational.re": "perfbench/tracer.py's _bits reads it, and __repr__ uses it",
    "exactla.GaussianRational.im": "perfbench/tracer.py's _bits reads it, and __repr__ uses it",
    "exactla.GaussianRational.__repr__": "error messages and failure reports print scalars; a test pins it",
    "exactla.nullspace: return []": "an empty matrix has no row to count the columns by; tests pin nullspace([])",
    "spheremesh._fault": "names the fault of a mesh the constructor rejects, which only bad meshes reach; its "
                         "fallback names faces that are no integer array and that meshaudit.Mesh accepts or "
                         "cannot read",
}
# Parameter defaults no call in the package overrides: main(argv=None) makes
# argparse read sys.argv, and the console script and `python -m` call main() bare.
# It is also the one parameter every call passes the same value, None.
KEPT_DEFAULTS = ("cli.main.argv",)
# Fields nothing in the package reads, each kept for a stated reason.
KEPT_FIELDS = ()
# Classes no call or raise in the package names, each kept for a stated reason.
KEPT_CLASSES = {
    "horizontal.TwoPlane": "perfbench/tracer.py names it in CLASSES and hooks TwoPlane.__init__ (its install "
                           "raises without it)",
}

# The child process of the line guard: argv[1] is the package directory and
# argv[2] the JSON list of command lines.  A code object stops being traced
# once each of its lines has run.  It prints the lines that ran, by file, and
# the exit codes.
_TRACER = r"""
import contextlib, importlib, io, json, os, sys
root, grid = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, os.path.dirname(root))
prefix = root + os.sep
ran, left = {}, {}  # file -> lines that ran; code object -> its lines that have not

def on_line(frame, event, arg):
    if event == "line":
        lines = left[frame.f_code]
        lines.discard(frame.f_lineno)
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        if not lines:
            return None
    return on_line

def on_call(frame, event, arg):
    code = frame.f_code
    lines = left.get(code)
    if lines is None:
        ours = code.co_filename.startswith(prefix)
        lines = left[code] = {line for _, _, line in code.co_lines() if line} if ours else set()
        if ours:
            ran.setdefault(code.co_filename, set())
    if not lines:
        return None
    lines.discard(frame.f_lineno)
    ran[code.co_filename].add(frame.f_lineno)
    return on_line

sys.settrace(on_call)
cli = importlib.import_module(os.path.basename(root) + ".cli")
codes = []
for argv in grid:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.settrace(None)
print(json.dumps({"ran": {path: sorted(lines) for path, lines in ran.items()}, "codes": codes}))
"""


def _modules(package_dir: Path):
    """(module name, syntax tree) for every module of the package."""
    for path in sorted(package_dir.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _run_grid(package_dir: Path, argvs: list) -> tuple[dict, list]:
    """(file -> set of lines that ran, exit codes) of package.cli.main run on
    each argv by _TRACER, in an empty working directory."""
    with tempfile.TemporaryDirectory() as cwd:
        res = subprocess.run([sys.executable, "-c", _TRACER, str(package_dir), json.dumps(argvs)],
                             capture_output=True, text=True, env=cli_env(), cwd=cwd, timeout=120)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    return {path: set(lines) for path, lines in out["ran"].items()}, out["codes"]


def _code_objects(code: types.CodeType, qualname: str = "<module>"):
    """(qualified name, code object) for code and each code object nested in
    it, outermost first."""
    yield qualname, code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            scope = "" if qualname == "<module>" else qualname + (
                ".<locals>." if code.co_flags & inspect.CO_OPTIMIZED else ".")
            yield from _code_objects(const, scope + const.co_name)


def _owners(path: Path) -> dict:
    """line -> (qualified name, whether a function) of the outermost code
    object of the module whose co_lines include the line: a def line belongs
    to the code that runs the def, a body line to the function."""
    owners = {}
    for qualname, code in _code_objects(compile(path.read_text(), str(path), "exec")):
        for _, _, line in code.co_lines():
            if line:
                owners.setdefault(line, (qualname, bool(code.co_flags & inspect.CO_OPTIMIZED)))
    return owners


def _exempt_lines(tree: ast.Module) -> set:
    """The lines that need not run: every line of a raise statement, of a
    block (not a function body) whose last statement is a raise, the except
    line of a handler that is such a block, and the body of
    `if __name__ == "__main__"`."""
    out = set()

    def cover(stmts):
        out.update(line for stmt in stmts for line in range(stmt.lineno, stmt.end_lineno + 1))

    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            cover([node])
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            cover(node.body)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for block in (getattr(node, name, None) for name in ("body", "orelse", "finalbody")):
            if isinstance(block, list) and block and isinstance(block[-1], ast.Raise):
                cover(block)
                if isinstance(node, ast.ExceptHandler):
                    out.add(node.lineno)
    return out


def _named_lines(key: str, module: str, owners: dict, source: list) -> set:
    """The lines of the module that the KEPT_LINES key names."""
    name, _, text = key.partition(": ")
    key_module, _, qualname = name.partition(".")
    if key_module != module:
        return set()
    if text:
        return {line for line, (owner, _) in owners.items() if owner == qualname and source[line - 1].strip() == text}
    return {line for line, (owner, function) in owners.items()
            if function and (owner + ".").startswith(qualname + ".")}


def unrun_lines(package_dir: Path = PACKAGE_DIR, grid=GRID, kept=KEPT_LINES) -> list[str]:
    """What the line guard finds, with the package's cli.main run on each
    command line of grid: each command whose exit code is not the one grid
    gives; each line that no command ran, that _exempt_lines does not exempt
    and no entry of kept names, as "module.Qualname: line (line number)";
    and each entry of kept that names no line, or a line that ran."""
    ran, codes = _run_grid(package_dir, [argv for _, argv in grid])
    found = [f"exit {code}, not {want}: {' '.join(argv)}" for (want, argv), code in zip(grid, codes) if code != want]
    named = {key: set() for key in kept}  # key -> {whether a line it names ran}
    for path in sorted(package_dir.glob("*.py")):
        text = path.read_text()
        source, owners, hit = text.splitlines(), _owners(path), ran.get(str(path), set())
        covered = _exempt_lines(ast.parse(text))
        for key in kept:
            lines = _named_lines(key, path.stem, owners, source)
            named[key] |= {line in hit for line in lines}
            covered |= lines
        found += [f"{path.stem}.{owners[line][0]}: {source[line - 1].strip()} (line {line})"
                  for line in sorted(owners.keys() - hit - covered)]
    found += [f"KEPT_LINES entry {key!r} names no line" for key, lines in named.items() if not lines]
    found += [f"KEPT_LINES entry {key!r} names a line that ran" for key, lines in named.items() if True in lines]
    return found


def test_every_line_runs_or_is_kept():
    found = unrun_lines()
    assert not found, "lines of src/ that GRID never runs, unexplained:\n" + "\n".join(found)


def _package(tmp_path: Path, cli: str) -> Path:
    """A package `planted` in tmp_path whose cli module has the given source."""
    package = tmp_path / "planted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(cli)
    return package


def test_guard_sees_a_line_that_never_runs(tmp_path):
    # main's `return 9` never runs, nor does its error branch, whose message
    # and raise are exempt; the command expecting exit 1 gets 0
    package = _package(tmp_path, (
        "def main(argv):\n"
        "    if argv == ['never']:\n"
        "        return 9\n"
        "    if not argv:\n"
        "        message = 'no arguments'\n"
        "        raise ValueError(message)\n"
        "    return 0\n"))
    assert unrun_lines(package, [(0, ["go"]), (1, ["go"])], {}) == [
        "exit 0, not 1: go", "cli.main: return 9 (line 3)"]


def test_guard_sees_a_dead_definition(tmp_path):
    # helper is never called and Box.__repr__ never runs; the static walker
    # this guard replaced took every dunder of a reached class for reached
    package = _package(tmp_path, (
        "class Box:\n"
        "    def __init__(self, x):\n"
        "        self.x = x\n"
        "    def __repr__(self):\n"
        "        return f'Box({self.x})'\n"
        "def helper():\n"
        "    return 2\n"
        "def main(argv):\n"
        "    return Box(0).x\n"))
    assert unrun_lines(package, [(0, [])], {}) == [
        "cli.Box.__repr__: return f'Box({self.x})' (line 5)", "cli.helper: return 2 (line 7)"]
    assert unrun_lines(package, [(0, [])], {"cli.Box.__repr__": "kept", "cli.helper: return 2": "kept"}) == []


def test_line_guard_sees_a_stale_exemption(tmp_path):
    # `return 0` ran, `return 1` is no line of main, and `gone` names nothing
    package = _package(tmp_path, "def main(argv):\n    return 0\n")
    kept = {"cli.main: return 0": "ran", "cli.main: return 1": "edited away", "cli.gone": "deleted"}
    assert unrun_lines(package, [(0, [])], kept) == [
        "KEPT_LINES entry 'cli.main: return 1' names no line", "KEPT_LINES entry 'cli.gone' names no line",
        "KEPT_LINES entry 'cli.main: return 0' names a line that ran"]


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
    whose name nothing in the package reads, by x.field or
    getattr(x, "field", ...)."""
    read = set()
    for _, tree in _modules(package_dir):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
                read.update(arg.value for arg in node.args[1:2] if isinstance(arg, ast.Constant))
    return sorted(name for name in _annotated_fields(package_dir)
                  if name.rsplit(".", 1)[1] not in read and name not in KEPT_FIELDS)


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
    assert not unread, "fields nothing in src/ reads: " + ", ".join(unread)


def test_guard_sees_an_unread_field(tmp_path):
    # a is read, b only through getattr, c only written; D is a method-less
    # dataclass that nothing builds, whose class body runs at import all the same
    (tmp_path / "extra.py").write_text(
        "from dataclasses import dataclass\n"
        "class R:\n    a: int\n    b: int\n    c: int\n"
        "@dataclass\nclass D:\n    e: int\n"
        "def use(r):\n    r.c = r.a\n    return getattr(r, 'b', 0)\n"
        "X = use(R())\n")
    assert unread_fields(tmp_path) == ["extra.D.e", "extra.R.c"]


def unbuilt_classes(package_dir: Path = PACKAGE_DIR, kept=KEPT_CLASSES) -> list[str]:
    """module.Class for each module-level class of the package that no call
    names (a call matches a class as _calls_of matches a constructor) and no
    raise names, unless kept names it; then each entry of kept that names a
    class the package builds, or no class."""
    _, calls = _functions_and_calls(package_dir)
    trees = dict(_modules(package_dir))
    raised = {getattr(node.exc, "id", getattr(node.exc, "attr", None)) for tree in trees.values()
              for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None}
    built = {f"{module}.{stmt.name}": bool(_calls_of(module, stmt.name, calls)) or stmt.name in raised
             for module, tree in trees.items() for stmt in tree.body if isinstance(stmt, ast.ClassDef)}
    return ([name for name, made in built.items() if not made and name not in kept]
            + [f"KEPT_CLASSES entry {name!r} names a class the package builds" for name in kept if built.get(name)]
            + [f"KEPT_CLASSES entry {name!r} names no class" for name in kept if name not in built])


def test_every_class_is_built():
    found = unbuilt_classes()
    assert not found, "classes no call or raise in src/ names, unexplained:\n" + "\n".join(found)


def test_guard_sees_an_unbuilt_class(tmp_path):
    # A is built by a call, E only by a bare raise and F through a module
    # attribute; B has no fields or methods, C only a field and D only a
    # method, and nothing builds any of them; a class inside a function is
    # not the module's
    (tmp_path / "extra.py").write_text(
        "class A: pass\nclass B:\n    'a name only'\nclass C:\n    x: int\nclass D:\n    def m(self): pass\n"
        "class E(Exception): pass\nclass F: pass\n"
        "def run(o):\n    class G: pass\n    if o:\n        raise E\n    return A(), o.m()\n")
    (tmp_path / "other.py").write_text("from . import extra\n\nX = extra.F()\n")
    assert unbuilt_classes(tmp_path, {}) == ["extra.B", "extra.C", "extra.D"]
    kept = {"extra.B": "kept", "extra.A": "built", "extra.Gone": "deleted"}
    assert unbuilt_classes(tmp_path, kept) == [
        "extra.C", "extra.D", "KEPT_CLASSES entry 'extra.A' names a class the package builds",
        "KEPT_CLASSES entry 'extra.Gone' names no class"]


def method_aliases(package_dir: Path = PACKAGE_DIR) -> list[str]:
    """module.Class.name for each class-body assignment `name = f` whose value
    f names a function defined in that class's body."""
    out = []
    for module, tree in _modules(package_dir):
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            methods = {stmt.name for stmt in cls.body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}
            for stmt in cls.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and getattr(stmt.value, "id", None) in methods:
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    out += [f"{module}.{cls.name}.{target.id}" for target in targets if isinstance(target, ast.Name)]
    return sorted(out)


def test_no_class_aliases_a_method():
    aliases = method_aliases()
    assert not aliases, "class-body aliases of methods, which run when the class is created: " + ", ".join(aliases)


def test_guard_sees_a_method_alias(tmp_path):
    # __rmul__ and m2 alias methods of C, the latter annotated and inside a
    # function; g names a module-level function, k a constant and D.n a method
    # of another class
    (tmp_path / "extra.py").write_text(
        "def f(): pass\n"
        "class C:\n    def __mul__(self, o): pass\n    __rmul__ = __mul__\n    g = f\n    k = 1\n"
        "def build():\n    class C:\n        def m(self): pass\n        m2: object = m\n    return C\n"
        "class D:\n    n = C.__mul__\n")
    assert method_aliases(tmp_path) == ["extra.C.__rmul__", "extra.C.m2"]


def stale_exemptions(package_dir: Path = PACKAGE_DIR) -> list[str]:
    """Each entry of KEPT_DEFAULTS and KEPT_FIELDS that names no parameter or
    annotated field in the package."""
    functions, _ = _functions_and_calls(package_dir)
    params = {f"{qualname}.{p.arg}" for qualname, _, _, _, node in functions
              for p in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]}
    fields = set(_annotated_fields(package_dir))
    return ([name for name in KEPT_DEFAULTS if name not in params]
            + [name for name in KEPT_FIELDS if name not in fields])


def test_every_exemption_names_code():
    stale = stale_exemptions()
    assert not stale, "exempted but not defined in src/: " + ", ".join(stale)


def test_guard_sees_a_stale_exemption(tmp_path):
    # a package that defines none of the exempted names; its main is in another module
    (tmp_path / "extra.py").write_text("def main(args=None): pass\n")
    assert stale_exemptions(tmp_path) == [*KEPT_DEFAULTS, *KEPT_FIELDS]
