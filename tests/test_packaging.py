"""What the package declares: its test dependencies and its public names."""
import ast
import dataclasses
import inspect
import re
import sys
from pathlib import Path
from typing import Iterator

import pytest

import concat_equidist
from concat_equidist import DigitString, ExactEndpoint, asymptotics, cli, counting, equidist, exactnum, seqgen

ROOT = Path(__file__).resolve().parents[1]
IN_REPO_MODULES = {"concat_equidist", "tracer", "conftest", "every_index", "per_term", "test_asymptotics"}


def _imported_modules(path: Path) -> set[str]:
    """The top-level names of every absolute import in one source file."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
    return modules


def _requirement_name(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")


class TestTestDependencies:
    def test_every_test_import_is_declared(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        # each of these distributions installs a module of its own name
        declared = {
            _requirement_name(r)
            for r in [*project["dependencies"], *project["optional-dependencies"]["test"]]
        }
        imported = set().union(*map(_imported_modules, sorted((ROOT / "tests").glob("*.py"))))
        third_party = imported - set(sys.stdlib_module_names) - IN_REPO_MODULES
        assert third_party, "no third-party imports found"
        assert sorted(third_party - declared) == []


class TestPackageSurface:
    def test_every_exported_name_resolves(self):
        # the NumPy-backed names load lazily, on this first access
        missing = [name for name in concat_equidist.__all__ if not hasattr(concat_equidist, name)]
        assert missing == []

    def test_star_import(self):
        namespace = {}
        exec("from concat_equidist import *", namespace)
        assert set(concat_equidist.__all__) <= namespace.keys()

    # leading_digit and log10_fracpart are the per-term Benford reference, a test helper (per_term.py)
    @pytest.mark.parametrize("name", ["log10_int", "poly_log_ratio", "leading_digit", "log10_fracpart"])
    def test_removed_log_helpers_stay_removed(self, name):
        assert name not in concat_equidist.__all__
        assert not hasattr(concat_equidist, name)
        assert not hasattr(equidist, name)

    @pytest.mark.parametrize(
        "value,name",
        [(ExactEndpoint.parse("0.25"), "is_one"), (ExactEndpoint.parse("0.25"), "digits"), (DigitString(10, "25"), "digits")],
    )
    def test_removed_digit_tuples_stay_removed(self, value, name):
        assert not hasattr(value, name)
        assert not hasattr(type(value), name)

    def test_an_endpoint_is_the_integer_pair(self):
        # c = scaled / base^length; scaled is the field, no longer the method scaled(L)
        assert [f.name for f in dataclasses.fields(ExactEndpoint)] == ["base", "length", "scaled"]
        assert ExactEndpoint.parse("0.25").scaled == 25

    @pytest.mark.parametrize("name", ["subsequence_points_linear", "subsequence_points_poly"])
    def test_removed_scan_helpers_stay_removed(self, name):
        # each family gives its own scan points (MultipleTail.scan_points, PolyTail.scan_points)
        assert name not in concat_equidist.__all__
        assert not hasattr(concat_equidist, name)
        assert not hasattr(asymptotics, name)

    # a term's mantissa is one division by a power from exactnum._power, the one memo of powers
    @pytest.mark.parametrize("name", ["decimal_head", "_pow10", "_last_pow10", "_POW10_STEP"])
    def test_removed_head_helpers_stay_removed(self, name):
        assert name not in concat_equidist.__all__
        assert not hasattr(exactnum, name)
        assert not hasattr(equidist, name)

    def test_census_and_term_take_no_base_or_offset(self):
        assert list(inspect.signature(equidist.census).parameters) == ["terms"]
        assert list(inspect.signature(seqgen.term).parameters) == ["spec", "n"]
        for family in (seqgen.MultipleTail, seqgen.PolyTail):
            assert list(inspect.signature(family.term).parameters) == ["self", "n"]

    def test_every_index_oracle_stays_in_the_tests(self):
        # the every-index oracle is a test helper (every_index.py), not library API
        assert "in_interval" not in concat_equidist.__all__
        assert not hasattr(concat_equidist, "in_interval")
        assert not hasattr(counting, "in_interval")
        assert list(inspect.signature(counting.count_A).parameters) == ["spec", "interval", "N"]


def _ast(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


class TestFamilyProtocol:
    """Scans read a family only through its protocol, and the CLI names each kind once."""

    def test_asymptotics_does_not_branch_on_the_family_type(self):
        tree = _ast(asymptotics)
        calls = [n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
        assert "isinstance" not in calls
        imported = {a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
        assert imported.isdisjoint({"MultipleTail", "PolyTail"})

    def test_every_kind_choice_has_a_row_in_the_family_table(self):
        choices = [
            action.choices
            for sub in cli.build_parser()._subparsers._group_actions[0].choices.values()
            for action in sub._actions
            if action.dest in ("kind", "gen")
        ]
        assert len(choices) == 5  # tail, count, scan and discrepancy --kind, benford --gen
        for offered in choices:
            assert set(offered) <= cli._FAMILIES.keys()
        assert set().union(*choices) == cli._FAMILIES.keys()

    def test_cli_names_each_kind_once(self):
        names = [n.value for n in ast.walk(_ast(cli)) if isinstance(n, ast.Constant) and n.value in cli._FAMILIES]
        assert sorted(names) == sorted(cli._FAMILIES)


def _private_definitions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """Each module-level private function, class or constant of a module, with the node that defines it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def _names_used(node: ast.AST, skip: ast.AST | None = None) -> Iterator[str]:
    """Every name that ``node`` reads, loads as an attribute or imports, outside the subtree ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from _names_used(child, skip)


class TestNoDeadHelpers:
    def test_every_private_definition_is_named_elsewhere_in_src(self):
        trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "src").rglob("*.py"))}
        unused = [
            f"{path.relative_to(ROOT)}:{node.lineno} {name}"
            for path, tree in trees.items()
            for name, node in _private_definitions(tree)
            if not any(name in set(_names_used(other, skip=node)) for other in trees.values())
        ]
        assert unused == []


class TestNoModuleState:
    def test_no_global_statement_in_src(self):
        # state kept between calls lives in a bounded functools memo, not in a rebound module global
        found = [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for path in sorted((ROOT / "src").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Global)
        ]
        assert found == []
