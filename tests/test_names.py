"""Every name the package exports, and every function the benchmark's
tracer wraps, exists: a missing traced target would only be reported as
untraced, with its per-layer metrics reading 0.  The lazy package namespace
binds each export to its defining module's object and loads only the
modules a caller reaches.  The README's CLI block lists exactly the
commands the parser has, and the CLI reports a refusal in one place
only."""

import argparse
import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import bincoupling
from bincoupling import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(bincoupling.__path__))
PACKAGE = pathlib.Path(bincoupling.__file__).parent


def tracer_targets() -> dict[str, tuple[str, ...]]:
    """TARGETS of the tracer, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_traced_targets_are_callables():
    targets = tracer_targets()
    assert targets
    for module, names in targets.items():
        mod = importlib.import_module(f"bincoupling.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


@pytest.mark.parametrize("module", [None, *MODULES])
def test_all_names_exist(module):
    mod = (bincoupling if module is None
           else importlib.import_module(f"bincoupling.{module}"))
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_coupling_alone_skips_the_sweep_harness():
    # a fresh process: this one has imported everything already
    code = ("import sys, bincoupling\n"
            "t = bincoupling.build_table(64)\n"
            "bincoupling.couple(t, 32.0)\n"
            "print(' '.join(sorted(sys.modules)))\n")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout.split()
    assert "bincoupling.cutpoints" in out
    loaded = {"bincoupling.approx", "bincoupling.verify", "json"} & set(out)
    assert not loaded


def test_exports_are_the_defining_modules_objects():
    for name in bincoupling.__all__:
        if name == "__version__":
            continue
        home = f"bincoupling.{bincoupling._HOME[name]}"
        obj = getattr(bincoupling, name)
        assert obj is getattr(importlib.import_module(home), name), name
        assert getattr(obj, "__module__", home) == home, name


def test_dir_covers_all():
    assert set(bincoupling.__all__) <= set(dir(bincoupling))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bincoupling.no_such_name  # noqa: B018
    assert not hasattr(bincoupling, "no_such_name")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from bincoupling import *", namespace)
    assert set(bincoupling.__all__) <= namespace.keys()
    for name in bincoupling.__all__:
        assert namespace[name] is getattr(bincoupling, name), name


def imported_roots(tree: ast.AST) -> set[str]:
    """Top-level package of every import statement anywhere in the tree,
    function bodies included; relative imports give ''."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("" if node.level else node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_test_only_dependency_is_imported(path):
    # scipy and mpmath serve the tests only; a lazy import inside a
    # function would escape a check that only runs some code paths
    roots = imported_roots(ast.parse(path.read_text()))
    assert roots.isdisjoint({"scipy", "mpmath"}), (path.name, sorted(roots))


def readme_commands() -> set[str]:
    """The word after each `bincoupling` in the sh block under ## CLI of
    README.md."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.M | re.S)
    assert block, "no sh block under ## CLI in README.md"
    return set(re.findall(r"^bincoupling\s+(\S+)", block.group(1), re.M))


def test_readme_cli_block_lists_the_parser_commands():
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    assert readme_commands() == set(sub.choices) == {
        "tails", "cutpoints", "coupling", "lemma1", "sweep"}


def test_only_main_returns_the_bad_config_exit():
    # every other command raises, and main prints the refusal
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    allowed = set()
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef) and node.name == "main"
                or isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "EXIT_BAD_CONFIG"
                    for t in node.targets)):
            allowed.update(map(id, ast.walk(node)))
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "EXIT_BAD_CONFIG"]
    assert len(uses) >= 2
    assert [node.lineno for node in uses if id(node) not in allowed] == []
