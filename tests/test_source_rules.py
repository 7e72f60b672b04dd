"""Rules the package source must keep."""

import ast
import importlib
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import wildprim
from wildprim.enumerator import ExtensionRecord
from wildprim.serialize import CSV_COLUMNS

PACKAGE = Path(wildprim.__file__).parent


def _is_assertion_error(exc) -> bool:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_guards_an_invariant():
    # `python -O` strips assert statements, and an AssertionError escapes the
    # CLI's exit codes; invariants raise InvariantViolation instead
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Raise) and _is_assertion_error(node.exc)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _probe_targets():
    """(module, attr) of every Probe(...) in the benchmark's tracer."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Probe"):
            yield node.args[1].value, node.args[2].value


def test_every_benchmark_probe_target_resolves():
    # the tracer wraps each target where its module or class defines it
    targets = list(_probe_targets())
    assert targets
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_no_unused_imports():
    # every name a module imports is used in it; the package __init__
    # imports to re-export, and __future__ imports are directives
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}:{name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def _mentions(tree, name) -> int:
    """How often `name` occurs as a bare name or an attribute in tree."""
    return sum(1 for node in ast.walk(tree)
               if (isinstance(node, ast.Name) and node.id == name)
               or (isinstance(node, ast.Attribute) and node.attr == name))


def test_no_orphaned_private_helpers():
    # every private function or method is named somewhere in the package
    # outside its own definition; a helper whose last caller went is dead
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    orphans = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                outside = (sum(_mentions(t, node.name) for t in trees.values())
                           - _mentions(node, node.name))
                if not outside:
                    orphans.append(f"{name}:{node.lineno}:{node.name}")
    assert orphans == []


def _scopes_where(tree, hit):
    """Qualified names of the scopes holding a node for which hit is true."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if hit(child):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def _scopes_using(tree, name):
    """Qualified names of the scopes that mention `name` as an attribute or
    a bare name."""
    return _scopes_where(tree, lambda node: (
        (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Name) and node.id == name)))


def test_one_ring_product_path():
    # np.convolve is the kernel of the ring product; a call anywhere else
    # would be a second product path
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sites += [f"{path.name}:{scope}" for scope in _scopes_using(tree, "convolve")]
    assert sites == ["localring.py:RingElt.__mul__"]


# the Z/p^m products of the valuation ring: their entries can exceed the
# float64 bound, so they stay on int64 and outside modrep.mm
RING_PRODUCT_SCOPES = {"localring.py:RingDesc.reduce_wide", "localring.py:RingDesc._frob_pows",
                       "localring.py:RingDesc.frobenius_image",
                       "tower.py:TameTower.__init__", "tower.py:TameTower.apply"}


def _is_matrix_product(node) -> bool:
    return ((isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
            or (isinstance(node, ast.Attribute)
                and node.attr in {"matmul", "dot", "tensordot", "einsum", "inner", "vdot"}))


def test_one_fp_product_path():
    # every F_p product goes through modrep.mm, which picks int64 or exact
    # float64 by width; only the ring's Z/p^m products multiply elsewhere
    sites = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sites |= {f"{path.name}:{scope}" for scope in _scopes_where(tree, _is_matrix_product)}
    assert sites - RING_PRODUCT_SCOPES == {"modrep.py:mm"}


def test_condensation_stays_out_of_hom_space():
    # a polynomial in a matrix is evaluated only in the MeatAxe splitter: an
    # isotypic part is one combination of a table of powers, and hom_space
    # solves on the module its caller condensed
    sites = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sites |= {f"{path.name}:{scope}" for scope in _scopes_where(tree, lambda node: (
            isinstance(node, ast.Call) and _mentions(node.func, "poly_eval_matrix")))}
    assert sites == {"modrep.py:_split_once"}


def test_one_hom_solver():
    # Hom is solved from a spinning basis of S; no Kronecker system, whose
    # unknowns number dim V * dim S, is built anywhere in the package
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sites += [f"{path.name}:{scope}" for scope in _scopes_using(tree, "kron")]
    assert sites == []


def test_readme_record_table_is_the_record_schema():
    # the README's frozen field table lists ExtensionRecord's fields in
    # order, and CSV flattens `base` into the leading columns p, f, char
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Record fields (frozen)", 1)[1].split("\n\n")[1]
    rows = [line.split("|")[1] for line in table.splitlines()[2:]]
    documented = [name for row in rows for name in re.findall(r"`([^`]+)`", row)]
    schema = [f.name for f in fields(ExtensionRecord)]
    assert documented == schema
    assert CSV_COLUMNS == ["p", "f", "char"] + [n for n in schema if n != "base"]


# the benchmark's setup path, in a fresh interpreter: numpy is imported
# first, so what loads after it is what wildprim's import and one small
# catalog cost; it prints the modules that were loaded after numpy
SETUP_PATH = """
import sys
import numpy
before = set(sys.modules)
import wildprim
from wildprim import serialize
serialize.to_json_bytes(wildprim.enumerate_primitive(wildprim.BaseField(2, 1, 0), 1,
                                                     use_cache=False))
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_setup_path_loads_only_the_standard_library_and_wildprim():
    # a lazily imported numpy submodule (np.unique's numpy.ma, say) or a
    # third-party import would be paid in every fresh process that builds
    # a catalog
    proc = subprocess.run([sys.executable, "-c", SETUP_PATH], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True, timeout=120)
    loaded = proc.stdout.split()
    assert "wildprim.serialize" in loaded
    assert [name for name in loaded if name.split(".")[0] != "wildprim"
            and name.split(".")[0] not in sys.stdlib_module_names] == []
