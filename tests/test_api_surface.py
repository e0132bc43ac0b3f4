"""Every name that `modgem` defines is used, and none serves tests alone.

An AST scan of `src/modgem` and `tests`: a definition counts as referenced
when its name appears anywhere outside the lines of its own definition, as a
name, an attribute or an imported name for a function or class, and as an
attribute alone for a method or property, so that a local variable of the
same name does not count. The scan goes by name, so two definitions of the
same kind that share a name share their references.
"""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

from modgem.cli import CHECKS
from modgem.exactalg import MPoly

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "modgem").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# names of the package that only tests read. The oracles the tests compare
# against live beside the tests that use them; `MPoly.restrict_to_line` and
# `exactalg.rref_int` are kept for the benchmark's layer trace alone, which
# names them in BENCHMARK.json (`test_benchmark_layer_metrics_name_existing_code`)
TEST_ONLY = {"restrict_to_line", "rref_int"}


def _definitions():
    """(name, path, first line, last line, is a method) of each module-level
    function and class and each non-dunder method or property in the package.

    A function named `_` is registered by its decorator and has no name to
    reference, so it is left out."""
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name == "_":
                continue
            yield node.name, path, node.lineno, node.end_lineno, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield item.name, path, item.lineno, item.end_lineno, True


def _references():
    """name -> list of (path, line, is an attribute) where the name is used."""
    refs: dict[str, list[tuple[Path, int, bool]]] = {}
    for path in SRC + TESTS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append(
                    (path, node.lineno, isinstance(node, ast.Attribute)))
    return refs


def _outside_uses():
    """Definition name -> the files that use it outside its own definition."""
    refs = _references()
    uses: dict[str, set[Path]] = {}
    for name, path, first, last, method in _definitions():
        found = uses.setdefault(name, set())
        for ref_path, line, attribute in refs.get(name, ()):
            if (attribute or not method) and (ref_path != path or not first <= line <= last):
                found.add(ref_path)
    return uses


def test_every_definition_is_referenced():
    unused = sorted(name for name, files in _outside_uses().items() if not files)
    assert unused == []


def test_test_only_names_are_the_kept_oracles():
    test_only = {name for name, files in _outside_uses().items()
                 if files and all(f in TESTS for f in files)}
    assert test_only == TEST_ONLY


def _fields():
    """(class name, field name) of each annotated field of a class in the package."""
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield node.name, item.target.id


def test_every_field_is_read():
    """A record field that nothing reads certifies nothing.

    A field counts as read when its name is loaded as an attribute anywhere
    in `src/modgem` or `tests`. The scan goes by name, so a dead field that
    shares its name with a live one, such as a `seed` that only echoes an
    argument back, is not caught.
    """
    reads = {node.attr for path in SRC + TESTS
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{cls}.{name}" for cls, name in _fields() if name not in reads)
    assert unread == []


# the layer trace's names: each traced module, and the span names of the
# `MPoly` methods it wraps
TRACED_LAYERS = ("cli", "exactalg", "rootarr", "lines27", "gems", "theta", "nodalcy")
MPOLY_SPANS = {"mul": "__mul__", "subs": "subs", "eval": "eval",
               "restrict_to_line": "restrict_to_line"}


def _public_functions(mod) -> set[str]:
    """Public functions defined in `mod` itself, plain or lru-cached."""
    return {name for name, obj in vars(mod).items()
            if not name.startswith("_")
            and inspect.isfunction(getattr(obj, "__wrapped__", obj))
            and obj.__module__ == mod.__name__}


def test_benchmark_layer_metrics_name_existing_code():
    """Every `<layer>.<name>_s` or `_calls` metric of BENCHMARK.json names code.

    The benchmark's trace wraps public functions by name and drops a metric
    whose span it cannot find, so renaming or removing a traced function
    silently empties that metric. `check.<suite>.<name>` is a check of
    `cli.CHECKS`, `cache` counts a module's lru-cached builders, the four
    `MPoly` spans are methods, and every other name is a public function.
    """
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    checks = {c.name for c in CHECKS}
    missing = []
    for metric in (m["name"] for m in per_layer):
        layer, _, rest = metric.partition(".")
        match = re.fullmatch(r"(.+)_(s|calls)", rest)
        if layer not in TRACED_LAYERS or not match or match[1] == "self":
            continue
        name = match[1]
        mod = importlib.import_module(f"modgem.{layer}")
        if layer == "cli" and name.startswith("check."):
            found = name[len("check."):].replace(".", "/", 1) in checks
        elif name == "cache":
            found = any(hasattr(getattr(mod, f), "cache_info") for f in _public_functions(mod))
        elif layer == "exactalg" and name in MPOLY_SPANS:
            found = MPOLY_SPANS[name] in vars(MPoly)
        else:
            found = name in _public_functions(mod)
        if not found:
            missing.append(metric)
    assert missing == []


# the packed-key layout of `MPoly`: its names and the dict of packed keys
PACKED_NAMES = {"EXP_BITS", "_packed_monomials", "_from_packed"}
PACKED_ATTRS = PACKED_NAMES | {"terms"}


def _named_outside_exactalg(names, attrs=None, imports=None):
    """(module, name) for each use outside `exactalg` of one of `names` as a
    name, of `attrs` (default `names`) as an attribute, or of `imports`
    (default `names`) as an imported name."""
    attrs = names if attrs is None else attrs
    imports = names if imports is None else imports
    found = set()
    for path in SRC:
        if path.stem == "exactalg":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            used = ({node.id} & names if isinstance(node, ast.Name)
                    else {node.attr} & attrs if isinstance(node, ast.Attribute)
                    else {a.name for a in node.names} & imports
                    if isinstance(node, ast.ImportFrom) else set())
            found |= {(path.stem, name) for name in used}
    return sorted(found)


def test_only_exactalg_reads_packed_keys():
    """Every other module reads a polynomial through exponent tuples
    (`iter_terms`, `coefficient_vector`), so the key layout can change in
    `exactalg` alone."""
    assert _named_outside_exactalg(PACKED_NAMES, attrs=PACKED_ATTRS) == []


# the array kernels behind `exactalg`'s evaluator and its products mod p
ARRAY_KERNELS = {"_evaluated", "_residue_products", "_limb_product", "_level_step"}


def test_only_exactalg_names_its_array_kernels():
    """Other modules evaluate forms at point sets through `_values_at`, so
    the power tables and the limb products stay private to `exactalg`."""
    assert _named_outside_exactalg(ARRAY_KERNELS) == []


# the eliminations mod p and the prime lists behind them
PRIME_NAMES = {"_PRIMES", "rank_mod", "rref_int", "_pivot_rows"}


def test_only_exactalg_binds_the_shadow_primes():
    """`exactalg.SHADOW_PRIMES` is the one binding of the primes: another
    module reads it as that attribute at call time, never imports it by
    name, and takes its yes/no rank facts from `exactalg._independent`, so
    patching that one attribute moves every prime of every check."""
    assert _named_outside_exactalg(PRIME_NAMES, imports=PRIME_NAMES | {"SHADOW_PRIMES"}) == []


def test_every_module_level_import_is_used():
    """A module-level import of the package is read somewhere in its module
    (the `__future__` switch aside)."""
    unused = []
    for path in SRC:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported if name not in read]
    assert sorted(unused) == []


def test_int_echelon_names_spans_outside_exactalg():
    """Outside `exactalg` an `_IntEchelon` is built only for its span key,
    `_IntEchelon(...).key()`: membership of points in flats goes through
    `_incidence`, one product against the forms that cut the flats out."""
    stray = []
    for path in SRC:
        if path.stem == "exactalg":
            continue
        tree = ast.parse(path.read_text())
        keyed = {id(node.func.value.func) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "key" and isinstance(node.func.value, ast.Call)}
        stray += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "_IntEchelon"
                  and id(node) not in keyed]
    assert stray == []
