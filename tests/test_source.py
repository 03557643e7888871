"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "igtop"


def imported_names(tree):
    """Local names bound by the module's imports, with their lines."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # the package __init__ imports to re-export, so it is not checked
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def referenced_names(nodes):
    """Names that code among ``nodes`` refers to, with how often: every
    ast.Name, the attribute of every ast.Attribute and every imported
    name. Docstrings and comments refer to nothing."""
    found = Counter()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                found[sub.attr] += 1
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                found.update(alias.name for alias in sub.names)
    return found


def test_every_definition_is_named_elsewhere():
    # a module-level function or class that no other code of the package
    # refers to has no caller; an import in __init__.py counts as a use
    trees = {p.name: ast.parse(p.read_text(), filename=p.name)
             for p in sorted(SRC.glob("*.py"))}
    unnamed = []
    for module, tree in trees.items():
        elsewhere = set().union(*(referenced_names(t.body)
                                  for m, t in trees.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            rest = referenced_names(n for n in tree.body if n is not node)
            if node.name not in rest and node.name not in elsewhere:
                unnamed.append(f"{module}: {node.name}")
    assert not unnamed, f"definitions nothing else names: {unnamed}"


def test_every_method_has_a_user():
    # a method or property of a package class has a user when code names
    # it: the package outside the method's own definition, the benchmark
    # or the tools (read here, never edited); dunder methods are called by
    # the language
    trees = [ast.parse(p.read_text(), filename=p.name)
             for p in sorted(SRC.glob("*.py"))]
    package = referenced_names(trees)
    outside = referenced_names(
        ast.parse(p.read_text(), filename=str(p))
        for folder in ("benchmarks", "tools")
        for p in sorted((ROOT / folder).glob("*.py")))
    unused = []
    for tree in trees:
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) \
                        or node.name.startswith("__"):
                    continue
                own = referenced_names([node])[node.name]
                if package[node.name] == own and node.name not in outside:
                    unused.append(f"{cls.name}.{node.name}")
    assert not unused, f"methods and properties nothing names: {unused}"


def is_dataclass(cls):
    """Whether a class statement carries the ``dataclass`` decorator, bare
    or called."""
    return any(ast.unparse(d.func if isinstance(d, ast.Call) else d)
               in ("dataclass", "dataclasses.dataclass")
               for d in cls.decorator_list)


def test_every_cut_band_field_is_read():
    # every package dataclass, the cut-band records among them: a field is
    # read when code loads it as an attribute, in the package, the
    # benchmark or the tools (read here, never edited); the driver's result
    # records hand values to callers and are not checked
    results = {"HistoryRecord", "IterationState", "RunResult",
               "GradientCheckRow"}
    package = [ast.parse(p.read_text(), filename=p.name)
               for p in sorted(SRC.glob("*.py"))]
    outside = [ast.parse(p.read_text(), filename=str(p))
               for folder in ("benchmarks", "tools")
               for p in sorted((ROOT / folder).glob("*.py"))]
    loaded = {node.attr for tree in package + outside
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    records = [cls for tree in package for cls in tree.body
               if isinstance(cls, ast.ClassDef) and is_dataclass(cls)]
    assert results <= {cls.name for cls in records}
    fields = {cls.name: [stmt.target.id for stmt in cls.body
                         if isinstance(stmt, ast.AnnAssign)]
              for cls in records if cls.name not in results}
    assert {"EnrichedModel", "IntegrationElement", "MaterialPair",
            "PlaneStressElastic"} <= set(fields)
    unread = [f"{cls}.{name}" for cls, names in fields.items()
              for name in names if name not in loaded]
    assert not unread, f"record fields nothing reads: {unread}"


def imports_from(package):
    """Every import in the package source of ``package`` or its
    submodules, as "file:line name"."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith(package)]
    return found


def test_no_module_imports_sparse_linalg():
    # the banded Cholesky of fem.solve_system is the one sparse factorization
    found = imports_from("scipy.sparse.linalg")
    assert not found, f"imports from scipy.sparse.linalg: {found}"


def test_no_module_imports_scipy_optimize():
    # the MMA dual is solved in numpy: importing scipy.optimize alone adds
    # about 10 MB to a run's peak resident memory
    found = imports_from("scipy.optimize")
    assert not found, f"imports from scipy.optimize: {found}"


def test_no_module_imports_scipy_spatial():
    # the kernel matrix's pair search is a numpy cell list: importing
    # scipy.spatial, which loads scipy.special too, adds about 7.5 MB to a
    # run's peak resident memory (59.9 -> 67.5 MB after numpy and the three
    # scipy modules the package uses) and 110 ms of import
    found = imports_from("scipy.spatial")
    assert not found, f"imports from scipy.spatial: {found}"


def test_import_loads_no_scipy_spatial_or_special():
    # catches an import through another module, which the static check
    # above cannot see
    code = ("import sys, igtop, igtop.cli; "
            "print(sorted({'scipy.spatial', 'scipy.special'} "
            "& set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", f"import igtop loads {out.strip()}"


def test_only_fem_orders_the_dofs():
    # the dof layout and the band order of the enriched system live in fem:
    # no other module builds a graph to order by, and the driver, which
    # only hands the assembler's fixed dofs and band key to the solve,
    # imports nothing from scipy
    found = [hit for hit in imports_from("scipy.sparse.csgraph")
             if not hit.startswith("fem.py:")]
    found += [hit for hit in imports_from("scipy")
              if hit.startswith("driver.py:")]
    assert not found, f"imports outside fem's dof layout: {found}"



def test_no_parameter_takes_integration_elements():
    # the cut-band operators act on model.tiles: no function or method of
    # the package takes integration elements of its own
    found = [f"{path.name}:{arg.lineno} {arg.arg}"
             for path in sorted(SRC.glob("*.py"))
             for arg in ast.walk(ast.parse(path.read_text(),
                                           filename=str(path)))
             if isinstance(arg, ast.arg) and arg.annotation is not None
             and "IntegrationElement" in ast.unparse(arg.annotation)]
    assert not found, f"parameters annotated IntegrationElement: {found}"
