"""Checks on the package source: static ones, and a profile of short runs
that must enter every function of the package."""

import ast
import importlib
import os
import subprocess
import sys
import types
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from igtop import cli, driver

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


def package_functions():
    """{code object: "module.qualified name"} of every function, method and
    property of the package's source; the methods a dataclass generates are
    not in it."""
    found = {}

    def add(name, function):
        if Path(function.__code__.co_filename).parent == SRC:
            found[function.__code__] = name

    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "igtop" if path.stem == "__init__" else f"igtop.{path.stem}")
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            if isinstance(obj, types.FunctionType):
                add(f"{path.stem}.{attr}", obj)
            if not isinstance(obj, type):
                continue
            for name, member in vars(obj).items():
                name = f"{path.stem}.{obj.__name__}.{name}"
                if isinstance(member, (staticmethod, classmethod)):
                    add(name, member.__func__)
                elif isinstance(member, property):
                    for accessor in (member.fget, member.fset, member.fdel):
                        if accessor is not None:
                            add(name, accessor)
                elif isinstance(member, cached_property):
                    add(name, member.func)
                elif isinstance(member, types.FunctionType):
                    add(name, member)
    return found


def test_every_function_is_entered(tmp_path, capsys):
    # unlike the name checks above, a profile resolves the receiver: a
    # method counts only when a call enters its own code object. The
    # traffic is a tiny run of each built-in problem (MBB's in two
    # stages), a compliance and a volume gradient check, and every verb
    # of the command line, one of them refused. Only the benchmark reads
    # EnrichedModel.integration.
    sizes = {"cantilever": (9, 5, 9, 5, 2), "heat_sink": (9, 9, 9, 9, 2),
             "mbb": (31, 11, 16, 6, 6)}
    cfg = tmp_path / "case.cfg"
    cfg.write_text("[problem]\nname = cantilever\nnx = 9\nny = 5\n"
                   "rbf_nx = 9\nrbf_ny = 5\nbudget = 2\n[output]\n"
                   f"directory = {tmp_path / 'out'}\nsnapshot_every = 1\n")
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name in driver.BUILTIN_PROBLEMS:
            nx, ny, rbf_nx, rbf_ny, budget = sizes[name]
            driver.run(driver.get_problem(name, nx=nx, ny=ny, rbf_nx=rbf_nx,
                                          rbf_ny=rbf_ny), budget=budget)
        small = driver.cantilever(nx=9, ny=5, rbf_nx=9, rbf_ny=5)
        for quantity in ("compliance", "volume"):
            driver.check_gradients(small, n_sample=4, quantity=quantity)
        codes = [cli.main(argv) for argv in (
            ["list-problems"], ["run", str(cfg)],
            ["check-gradients", str(cfg), "--samples", "4", "--design",
             str(tmp_path / "out" / "design_final.txt")],
            ["export", str(cfg), "--design",
             str(tmp_path / "out" / "design_0001.txt"),
             "--vtk", str(tmp_path / "d.vtk"),
             "--contour", str(tmp_path / "c.txt")],
            ["export", str(cfg)])]
    finally:
        sys.setprofile(previous)
    assert codes == [0, 0, 0, 0, 2]
    missed = sorted(name for code, name in package_functions().items()
                    if code not in entered)
    assert missed == ["enrich.EnrichedModel.integration"], \
        f"functions no traffic enters: {missed}"


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


def test_import_sets_unset_blas_threads_to_one():
    # igtop gives the three thread variables the tests' default before
    # numpy loads; a value already in the environment is kept
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    code = f"import os, igtop; print([os.environ.get(v) for v in {names}])"
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    for preset, expected in ({}, ["1", "1", "1"]), (
            {"OPENBLAS_NUM_THREADS": "2"}, ["1", "2", "1"]):
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(env, **preset), check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == str(expected), (preset, out)


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
