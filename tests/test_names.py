"""Every name the package exports, and every function the benchmark's
tracer wraps, exists: a missing traced target would only be reported as
untraced, with its per-layer metrics reading 0.  The README's CLI block
lists exactly the commands the parser has, and the CLI reports a refusal in
one place only."""

import argparse
import ast
import importlib
import pathlib
import pkgutil
import re

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
