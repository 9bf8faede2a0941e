"""Every function, class, method and constant defined in src/galbrun is used.

A top-level function, class or constant (a name a module-level statement
assigns), or a method of a top-level class, must be referenced by its name
somewhere in src/, tests/ or bench/: read as a name or an attribute,
imported, or written in a string other than a docstring (bench/child.py
names the methods it wraps as "Class.method" strings). Assigning a name does
not use it. Dunder names are used by the language and are exempt. The match
is by name only, so it finds definitions nothing mentions, not every dead
one.

Test-only code belongs in tests/: a definition must also be referenced
from src/ or bench/, unless its name is exported in galbrun.__all__.
"""
from __future__ import annotations

import ast
import glob
import inspect
import os
import re

import pytest

import galbrun
from galbrun import dynamics

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC_MODULES = sorted(
    os.path.relpath(p, ROOT)
    for p in glob.glob(os.path.join(ROOT, "src", "galbrun", "*.py"))
)
ALL_MODULES = sorted(
    os.path.relpath(p, ROOT)
    for pattern in ("src/**/*.py", "tests/**/*.py", "bench/**/*.py")
    for p in glob.glob(os.path.join(ROOT, pattern), recursive=True)
)
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse(path: str) -> ast.Module:
    with open(os.path.join(ROOT, path)) as f:
        return ast.parse(f.read())


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants, and "Class.method" for
    methods."""
    out = []
    for node in tree.body:
        if isinstance(node, (*FUNCTION, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{m.name}"
                for m in node.body
                if isinstance(m, FUNCTION) and not is_dunder(m.name)
            ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [
                n.id
                for t in targets
                for n in ast.walk(t)
                if isinstance(n, ast.Name) and not is_dunder(n.id)
            ]
    return out


def references(tree: ast.Module) -> set[str]:
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, *FUNCTION))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def unreferenced(tree: ast.Module, refs: set[str]) -> list[str]:
    return [d for d in definitions(tree) if d.rsplit(".", 1)[-1] not in refs]


def serving_only_tests(
    tree: ast.Module, real_refs: set[str], exported: set[str]
) -> list[str]:
    """Definitions that nothing outside the tests references, less exports."""
    return [d for d in unreferenced(tree, real_refs) if d not in exported]


REFERENCES = set().union(*(references(parse(p)) for p in ALL_MODULES))
REAL_REFERENCES = set().union(
    *(references(parse(p)) for p in ALL_MODULES if not p.startswith("tests"))
)
EXPORTED = set(galbrun.__all__)


@pytest.mark.parametrize("path", SRC_MODULES)
def test_every_definition_is_referenced(path):
    assert unreferenced(parse(path), REFERENCES) == []


@pytest.mark.parametrize("path", SRC_MODULES)
def test_no_definition_serves_only_the_tests(path):
    assert serving_only_tests(parse(path), REAL_REFERENCES, EXPORTED) == []


def test_unreferenced_definition_is_caught():
    tree = ast.parse(
        'class A:\n    """Uses f, g and m."""\n'
        "    def __init__(self): pass\n"
        "    def m(self): pass\n"
        "    def n(self): pass\n"
        "def f(): pass\n"
        "def g(): pass\n"
        "LIMIT = 2\n"
        "UNUSED = 3\n"
        'TABLE = ("A.n", LIMIT)\n'
        "print(TABLE)\n"
    )
    assert unreferenced(tree, references(tree)) == ["A.m", "f", "g", "UNUSED"]


def test_definition_used_only_by_tests_is_caught():
    src = ast.parse(
        "def used(): pass\n"
        "def tested(): pass\n"
        "def exported(): pass\n"
        "class C:\n"
        "    def probe(self): pass\n"
        "LIMIT = 1\n"
        "used(); C()\n"
    )
    tests = ast.parse("tested(); exported(); C().probe(); print(LIMIT)\n")
    real = references(src)
    assert unreferenced(src, real | references(tests)) == []
    assert serving_only_tests(src, real, {"exported"}) == ["tested", "C.probe", "LIMIT"]


def call_sites(name: str) -> list[str]:
    """path:line of every call of name in src/galbrun, as f() or m.f()."""
    return [
        f"{path}:{node.lineno}"
        for path in SRC_MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name)
            and node.func.id == name
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == name
        )
    ]


@pytest.mark.parametrize("name", ["leapfrog_step", "taylor_first_step"])
def test_one_time_loop(name):
    # Every command steps through dynamics.march: one starter call and one
    # step call in the package.
    assert len(call_sites(name)) == 1, call_sites(name)


def test_the_time_loop_steps_an_algebraic_system():
    # The system carries its dofs of Gamma-/+ (SystemMatrices.gamma), so
    # march reads no mesh and no dof map, and StepOperator takes no gamma.
    [march] = [
        node
        for node in parse("src/galbrun/dynamics.py").body
        if isinstance(node, FUNCTION) and node.name == "march"
    ]
    names = {n.id for n in ast.walk(march) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(march) if isinstance(n, ast.Attribute)}
    assert [n for n in names if "mesh" in n or "dof" in n] == []
    def params(f) -> list[str]:
        return list(inspect.signature(f).parameters)

    assert params(dynamics.StepOperator) == ["mats", "dt", "load", "start"]
    assert params(dynamics.StepOperator.observe) == ["self", "prev", "curr"]
    assert params(dynamics.taylor_first_step) == ["op"]
    assert params(dynamics.Problem) == [
        "mats", "dt", "n_steps", "rhs", "xi0", "xi1", "zeta0"
    ]


def test_one_sparse_scatter():
    # The operators and the vorticity load map are all summed by
    # _Pattern.scatter: np.add.at has one call site in the package, there.
    sites = call_sites("at")
    assert len(sites) == 1, sites
    path, line = sites[0].split(":")
    [scatter] = [
        method
        for node in parse(path).body
        if isinstance(node, ast.ClassDef) and node.name == "_Pattern"
        for method in node.body
        if isinstance(method, FUNCTION) and method.name == "scatter"
    ]
    assert scatter.lineno <= int(line) <= scatter.end_lineno


def test_one_writer_per_output_file():
    # run_simulation writes every file of a run, probes.csv included; the
    # CLI writes every study report through _write_report.
    sites = call_sites("write_probe_log")
    assert [s.split(":")[0] for s in sites] == ["src/galbrun/dynamics.py"], sites
    studies = parse("src/galbrun/studies.py")
    assert not [
        n for n in ast.walk(studies)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "open"
    ]
    assert len([s for s in call_sites("_write_report") if "cli.py" in s]) == 3


def test_abc_variants_are_named_once():
    # AbcVariant lives in assembly, whose build_system branches on its
    # members and spells no variant as a string.
    defined = [
        path
        for path in SRC_MODULES
        if any(
            isinstance(n, ast.ClassDef) and n.name == "AbcVariant" for n in parse(path).body
        )
    ]
    assert defined == ["src/galbrun/assembly.py"]
    [build] = [
        node
        for node in parse("src/galbrun/assembly.py").body
        if isinstance(node, FUNCTION) and node.name == "build_system"
    ]
    literals = {n.value for n in ast.walk(build) if isinstance(n, ast.Constant)}
    assert literals.isdisjoint({"stable", "naive", "none"})
