"""Every name the package exports exists, and so does every function the
benchmark's tracer wraps, save the named few that left the package: a
missing traced target is only reported as untraced, with its per-layer
metrics reading 0.  The package exports what a caller of the CLI, the sweep
or the coupling map uses, and defines no public function that only the
tests reach, nor one that tests/reference.py defines too.  The lazy package
namespace binds each export to its defining module's object and loads only
the modules a caller reaches, and no command loads a module only the tests
use.  The README's CLI block lists exactly the commands the parser has, and
the CLI reports a refusal in one place only."""

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
REFERENCE = ROOT / "tests" / "reference.py"
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


# Traced targets that left the package: scalar forms no command, sweep or
# coupling call runs.  perfbench/run.py --workload all --seed 3 --seconds 3
# --trace 1 read 0 calls for each of them on all three workloads before
# they left; the tracer now reports each as not traced, with the same 0.
UNTRACED = (
    "approx.theorem1_breakdown", "approx.lower_bound_11",
    "approx.theorem2_theta", "approx.delta_sandwich",
    "approx.tusnady_bounds", "binom_exact.lambda_n",
    "normal_tail.r_remainder",
)


def test_traced_targets_are_callables():
    targets = tracer_targets()
    assert targets
    traced = {f"{module}.{name}"
              for module, names in targets.items() for name in names}
    assert set(UNTRACED) <= traced
    for target in sorted(traced):
        module, name = target.split(".")
        mod = importlib.import_module(f"bincoupling.{module}")
        # a removed target that comes back is traced again: take it off
        # the list
        assert callable(getattr(mod, name, None)) == (
            target not in UNTRACED), target


# the names a caller of the CLI, the sweep or the coupling map uses; the
# scalar reference formulas the tests use live in tests/reference.py
EXPORTS = (
    "CutpointTable", "build_table", "couple",
    "DEFAULT_N_VALUES", "CheckRows", "ConstantsReport", "SweepConfig",
    "coupling_check", "emit_report", "load_config", "run_sweep",
    "DomainError", "RangeError",
    "log_tail_exact_all", "tail_numerator",
    "__version__",
)


def test_exports_are_the_callers_names():
    assert sorted(bincoupling.__all__) == sorted(EXPORTS)
    assert len(EXPORTS) == 16


def package_defs() -> tuple[dict[str, set[str]], list[str]]:
    """The names each top-level def or class of the package refers to (by
    name, merged across modules), and the package's public top-level
    functions as module.name."""
    refs: dict[str, set[str]] = {}
    public = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            refs.setdefault(node.name, set()).update(
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute)))
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                public.append(f"{path.stem}.{node.name}")
    return refs, public


def test_every_public_function_is_reached():
    # reached from a cli function, an export or a traced target, through
    # the names each reached body refers to
    refs, public = package_defs()
    cli_defs = [node.name for node in ast.parse(
        pathlib.Path(cli.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef)]
    todo = [*cli_defs, *bincoupling.__all__,
            *(name for names in tracer_targets().values() for name in names)]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(refs.get(name, ()))
    assert [f for f in public if f.split(".")[1] not in reached] == []


def top_level_names(path: pathlib.Path) -> set[str]:
    """Public names a file binds at top level: defs, classes and
    assignments."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            # verify.CHECKS is an annotated assignment
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_no_reference_formula_is_defined_in_the_package():
    # a scalar copy beside its array form belongs in tests/reference.py,
    # and there only
    package = set().union(*map(top_level_names, PACKAGE.glob("*.py")))
    assert top_level_names(REFERENCE) & package == set()


@pytest.mark.parametrize("module", [None, *MODULES])
def test_all_names_exist(module):
    mod = (bincoupling if module is None
           else importlib.import_module(f"bincoupling.{module}"))
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{mod.__name__}.{name}"


def modules_loaded_by(code: str = "", argv: list[str] | None = None
                      ) -> set[str]:
    """The modules a fresh Python process has loaded after running code
    and then, given argv, the command ``bincoupling.cli.main(argv)`` with
    its output dropped: this process has imported everything already."""
    if argv is not None:
        code += ("\nimport os, sys\nfrom bincoupling.cli import main\n"
                 "sys.stdout = open(os.devnull, 'w')\n"
                 f"assert main({argv!r}) == 0\n"
                 "sys.stdout = sys.__stdout__\n")
    code += "\nimport sys\nprint(' '.join(sys.modules))\n"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    return set(subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}
                              ).stdout.split())


# modules only the tests may load: numpy, scipy and mpmath, and
# dataclasses, which loads inspect
TEST_ONLY = {"numpy", "scipy", "mpmath", "dataclasses", "inspect"}


def test_coupling_alone_skips_the_sweep_harness():
    # the coupling core (normal_tail, binom_exact, cutpoints, errors) loads
    # neither the sweep's modules nor json
    out = modules_loaded_by("import bincoupling\n"
                            "for n in (64, 1024, 4096):\n"
                            "    t = bincoupling.build_table(n)\n"
                            "assert bincoupling.couple(t, 2048.3) == 2048")
    assert "bincoupling.cutpoints" in out
    assert not (TEST_ONLY | {"bincoupling.approx", "bincoupling.verify",
                             "json"}) & out


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", str(ROOT / "tests" / "fixtures" / "cli"
                              / "sweep_28_29.cfg")],
    ["lemma1", "--grid=-1:1:0.1"],
    ["tails", "100", "60"],
    ["cutpoints", "64"],
    ["coupling", "64"],
], ids=lambda argv: argv[0])
def test_no_command_loads_a_test_only_module(argv):
    out = modules_loaded_by(argv=argv)
    assert "bincoupling.cli" in out
    assert not TEST_ONLY & out


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
    # numpy, scipy and mpmath serve the tests only; a lazy import inside a
    # function would escape a check that only runs some code paths
    roots = imported_roots(ast.parse(path.read_text()))
    assert roots.isdisjoint({"numpy", "scipy", "mpmath"}), (
        path.name, sorted(roots))


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
    # every other command raises, and main alone prints the error and
    # returns the exit for a bad configuration or an I/O error
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    for exit_name in ("EXIT_BAD_CONFIG", "EXIT_IO_ERROR"):
        allowed = set()
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and node.name == "main"
                    or isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == exit_name
                        for t in node.targets)):
                allowed.update(map(id, ast.walk(node)))
        uses = [node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == exit_name]
        assert len(uses) >= 2, exit_name
        assert [node.lineno for node in uses
                if id(node) not in allowed] == [], exit_name
