"""Source-level invariants of the library."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import heegner
from heegner import classpoly, sssearch, ssverify

PACKAGE = Path(heegner.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parent.parent


def test_library_has_no_assert():
    # python -O strips assert statements; runtime invariants must raise
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_pure_python_package():
    # one implementation of everything: no compiled twin to build or keep in step
    assert not list(PACKAGE.rglob("*.pyx"))
    for name in ("pyproject.toml", "setup.py"):
        path = ROOT / name
        assert not path.exists() or "cython" not in path.read_text().lower(), name


def test_library_imports_only_the_standard_library():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not found, found


def test_library_runs_with_mpmath_blocked():
    # the tests' oracles use mpmath; the library must build and search without it
    script = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from fractions import Fraction\n"
        "from heegner import build_PD, search\n"
        "print(build_PD(-220, 11))\n"
        "print(*(q for cert in search(11, Fraction(21, 2), count=3) for q in cert.selected))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["X^2 - 77*X + 121", "2309 7 151"]


def test_readme_library_example():
    # the README's library example, as it prints: the class polynomial's
    # string and the (l, selected primes) of each certificate
    assert str(classpoly.build_PD(-220, 11)) == "X^2 - 77*X + 121"
    pairs = [(cert.ell, cert.selected) for cert in sssearch.search(11, Fraction(21, 2), count=3)]
    assert pairs == [(5, (2309,)), (37, (7, 151))]


def test_outputs_keep_no_instance_dict():
    # a benchmark keeps every output of every round; slotted outputs keep
    # that retention small, and a field added without slots would bring a
    # per-instance dict back
    from heegner.classpoly import ClassPolynomial
    from heegner.intmath import Factorization
    from heegner.sssearch import SearchCertificate

    outputs = [heegner.build_PD(-220, 11), *heegner.search(5, 1)]
    outputs.append(outputs[-1].factorization)
    assert {type(out) for out in outputs} == {ClassPolynomial, SearchCertificate, Factorization}
    assert not [type(out).__name__ for out in outputs if hasattr(out, "__dict__")]


def _is_level(node) -> bool:
    """``p``, ``x.p`` or ``p % k``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return _is_level(node.left)
    return (isinstance(node, ast.Name) and node.id == "p") or (
        isinstance(node, ast.Attribute) and node.attr == "p")


def _is_int(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def _int_literals(tree) -> set[str]:
    """Module-level names bound to an int literal or a collection of them."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if _is_literal(value, set()):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _is_literal(node, names) -> bool:
    """An int literal, a tuple/list/set of them, a dict keyed by them, a name
    bound to one of those, or a sum of such collections."""
    if _is_int(node):
        return True
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(_is_int(e) for e in node.elts)
    if isinstance(node, ast.Dict):
        return bool(node.keys) and all(k is not None and _is_int(k) for k in node.keys)
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_literal(node.left, names) and _is_literal(node.right, names)
    return False


def literal_level_comparisons(source: str, filename: str = "<source>",
                              names: frozenset[str] = frozenset()) -> list[str]:
    """Comparisons of p, x.p or p % k with a literal level or list of levels.

    ``names`` adds literal-bound names from other modules, which the source
    may import.
    """
    tree = ast.parse(source, filename=filename)
    names = _int_literals(tree) | names
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for a, b in zip(operands, operands[1:]):
            if (_is_level(a) and _is_literal(b, names)) or (
                    _is_level(b) and _is_literal(a, names)):
                found.append(f"{filename}:{node.lineno}")
                break
    return found


def test_no_literal_level_branches():
    # levels differ only through the table in levels.py: adding a level
    # means adding an entry there, not a branch elsewhere
    checked = [path for path in SOURCES if path.name != "levels.py"]
    names = frozenset().union(*(_int_literals(ast.parse(path.read_text())) for path in checked))
    found = []
    for path in checked:
        found += literal_level_comparisons(path.read_text(), path.name, names)
    assert not found, found


def test_literal_level_matcher():
    flagged = [
        "p == 11", "p % 4 == 3", "args.p in (5, 13)", "3 != self.p",
        "LIST = (3, 7)\nok = p not in LIST", "LIST = (3, 7)\nok = p in LIST + (23,)",
        "TABLE = {11: 'x'}\nok = p in TABLE",
    ]
    for source in flagged:
        assert literal_level_comparisons(source), source
    passed = ["0 <= k < p", "c % p == 0", "D % p != 0", "(p * ell) % 4 == 3", "q in (2, 3)",
              "p == other"]
    for source in passed:
        assert not literal_level_comparisons(source), source


def _perfbench_spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the standard library only
    return module


def test_traced_boundaries_exist():
    # perfbench --trace 1 patches these names in the calling modules; a
    # rename or deletion there breaks the traced benchmark, not the tests
    spans = _perfbench_spans()
    missing = []
    for module, name, *_ in spans.BOUNDARIES + spans.COUNTED:
        if not callable(getattr(importlib.import_module(f"heegner.{module}"), name, None)):
            missing.append(f"{module}.{name}")
    assert not missing, missing


def test_tracer_reads_what_the_library_passes():
    # the tracer's notes read arguments and results by position (jp_at_form's
    # precision, the verification adapters' q, extract_primes's skip flag);
    # a change there breaks only perfbench --trace 1, so its counts are
    # pinned here on four searches; search(3, -52) verifies q = 29, whose
    # two residues of j lie in F_q, so it reaches the F_q adapter
    spans = _perfbench_spans()
    modules = {"classpoly": classpoly, "sssearch": sssearch, "ssverify": ssverify}
    originals = {(mod, attr): getattr(modules[mod], attr)
                 for mod, attr, *_ in spans.BOUNDARIES + spans.COUNTED}
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        results = [heegner.search(3, -40), heegner.search(11, Fraction(21, 2), count=3),
                   heegner.search(5, 1), heegner.search(3, -52)]
    finally:
        tracer.remove()
    assert all(getattr(modules[mod], attr) is fn for (mod, attr), fn in originals.items())
    metrics = tracer.layer_metrics(1, results, lambda start, end: (end - start, 1.0))
    assert {name: metrics[name] for name in (
        "kernels.hasse_len", "ssverify.primes_verified", "ssverify.primes_unverified",
        "classpoly.builds", "classpoly.max_bits", "modpoly.checks",
        "intmath.factorize_calls", "sssearch.ells_sieved", "sssearch.skipped",
        "hauptmodul.jp_calls")} == {
        "kernels.hasse_len": 6175275, "ssverify.primes_verified": 2,
        "ssverify.primes_unverified": 4, "classpoly.builds": 8, "classpoly.max_bits": 63,
        "modpoly.checks": 11, "intmath.factorize_calls": 6, "sssearch.ells_sieved": 58,
        "sssearch.skipped": 0, "hauptmodul.jp_calls": 20}


def _lib_attributes(tree) -> set[str]:
    """Dotted names ``lib.x.y`` read in a module, and the operation names in
    its ``SPAN_OF`` table, which it looks up with ``getattr(lib, name)``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "lib":
                found.add(".".join(reversed(chain)))
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and any(isinstance(t, ast.Name) and t.id == "SPAN_OF" for t in node.targets)):
            found.update(key.value for key in node.value.keys)
    return found


def test_benchmark_library_names_exist():
    path = ROOT / "perfbench" / "run.py"
    names = _lib_attributes(ast.parse(path.read_text(), filename=str(path)))
    assert {"supersingular_jp_residues", "jp_arc_interval", "sssearch.INTERIOR_MARGIN",
            "build_PD", "search"} <= names
    missing = []
    for dotted in sorted(names):
        target = heegner
        for part in dotted.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(dotted)
    assert not missing, missing


def test_benchmark_output_checks_pass():
    # perfbench/checks.py checks outputs without calling the library (sympy
    # primality, shapes over GF(l), point counts at p = 3), and its self-test
    # requires each corrupted output to be rejected; one short traced round
    # of every workload must come out correct with no operation failed
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    assert sorted(results) == ["levels", "points", "sweep"]
    bad = {name: (result["correct"], result["failed"]) for name, result in results.items()
           if result["correct"] is not True or result["failed"] != 0}
    assert not bad, bad


def test_cli_catches_only_in_main():
    # main maps every failure to its exit code through FAILURE_EXIT; a try
    # in a handler would be a second mapping
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    catching = sorted({func.name for func in ast.walk(tree)
                       if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and any(isinstance(node, ast.Try) for node in ast.walk(func))})
    assert catching == ["main"]


def _overrides(path, cls_name: str, method: str) -> bool:
    """Whether a method of a class of the module at ``path`` overrides a
    method of a base class, whose callers reach it without naming it."""
    cls = getattr(importlib.import_module(f"heegner.{path.stem}"), cls_name)
    return any(hasattr(base, method) for base in cls.__mro__[1:])


def unreferenced_definitions(sources, readers) -> list[str]:
    """Module-level functions and classes of ``sources``, and the methods of
    those classes, that no file of ``sources`` or ``readers`` names.  A name
    counts where code reads it, as a name or an attribute; an import, such as
    a re-export in ``__init__.py``, or a string in ``__all__`` does not.
    Dunder methods, which Python calls, and methods that override a base
    class's method are exempt.  ``sources`` are modules of the package."""
    defined = {}
    for path in sources:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))
                            and not _overrides(path, node.name, item.name)):
                        defined[f"{node.name}.{item.name}"] = path.name
    read = set()
    for path in [*sources, *readers]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}:{name}" for name, module in defined.items()
                  if name.rpartition(".")[2] not in read)


NAME_FIELD = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


ONE_READER = [
    # factoring is budgeted, and only the search holds the budget: a call
    # elsewhere, as verification once made, would spend the default budget
    # whatever --factor-budget says.  No alias: __init__.py re-exports it
    pytest.param("factorize", (ast.Name, ast.Attribute), {"sssearch.py"}, id="factorize"),
    # a build has one precision and one guard, added by jp_at_form: a module
    # that reads GUARD_BITS pads the precision again
    pytest.param("GUARD_BITS", (ast.Name, ast.Attribute, ast.alias), {"hauptmodul.py"},
                 id="GUARD_BITS"),
    # a Discriminant is validated once, where an integer D enters: build_PD,
    # which the CLI hands its --D.  Below it, the pairing trusts the D it is
    # given
    pytest.param("from_D", (ast.Attribute,), {"classpoly.py"}, id="from_D"),
    # a level's search polynomial is formed in one place,
    # sssearch.search_polynomial; a second reader of Level.shapes would be a
    # second statement of which polynomial a level searches with
    pytest.param("shapes", (ast.Attribute,), {"sssearch.py"}, id="shapes"),
    # the precision sizing and the rounding proof each add the 20-bit margin
    # once, both in classpoly; a second reader would prove the rounding
    # against another margin
    pytest.param("ROUNDING_BITS", (ast.Name, ast.Attribute, ast.alias), {"classpoly.py"},
                 id="ROUNDING_BITS"),
    # trial division stops at the caller's stop rule, so a cofactor's primes
    # no longer all exceed the bound: no other module may reason from it
    pytest.param("TRIAL_BOUND", (ast.Name, ast.Attribute, ast.alias), {"intmath.py"},
                 id="TRIAL_BOUND"),
]


@pytest.mark.parametrize("name,kinds,modules", ONE_READER)
def test_only_one_module_reads(name, kinds, modules):
    readers = {path.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, kinds) and getattr(node, NAME_FIELD[type(node)]) == name}
    assert readers == modules


def test_every_definition_has_a_caller():
    # the library is the pipeline: what only the tests call belongs in tests/
    readers = sorted((ROOT / "perfbench").glob("*.py"))
    assert not unreferenced_definitions(SOURCES, readers)


def unread_imports(source: str, filename: str = "<source>") -> list[str]:
    """Names a module imports but never reads, as a name or as the base of
    an attribute; ``from __future__`` imports are exempt."""
    tree = ast.parse(source, filename=filename)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{filename}:{line}:{name}" for name, line in imported.items()
                  if name not in read)


def test_every_import_is_read():
    # an import kept after its last use, or kept only so that the
    # benchmark's tracer can patch it, is dead code; __init__.py imports
    # to re-export
    found = []
    for path in SOURCES:
        if path.name != "__init__.py":
            found += unread_imports(path.read_text(), path.name)
    assert not found, found


def test_unread_import_matcher():
    assert unread_imports("from .quadforms import QuadForm, fundamental_unit\nQuadForm(1, 0, 1)"
                          ) == ["<source>:1:fundamental_unit"]
    assert unread_imports("import os.path as osp\nimport math\nmath.pi") == ["<source>:1:osp"]
    assert not unread_imports("from __future__ import annotations\nimport os.path\nos.path.sep")
    assert not unread_imports("from typing import Callable\nx: Callable = print")
