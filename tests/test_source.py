"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "autbounds"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so a check that guards a result
    # must be an explicit raise.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_next_on_bits(path):
    # bits(mask) is a tuple for mask < 256, which next() rejects, and a
    # generator above: a caller iterates it and never calls next() on it.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "next"
             and node.args and isinstance(node.args[0], ast.Call)
             and ast.unparse(node.args[0].func) == "bits"]
    assert lines == [], f"{path.name}: next(bits(...)) at lines {lines}"


def test_naive_oracle_is_independent_of_the_search():
    # aut_order_naive cross-checks aut_order and, through count_embeddings,
    # count_labeled_embeddings; sharing the search would make both circular.
    tree = ast.parse((SRC / "automorphisms.py").read_text(encoding="utf-8"))
    naive = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "aut_order_naive")
    names = {node.id for node in ast.walk(naive) if isinstance(node, ast.Name)}
    assert {"bits", "extend"} <= names  # the walk reaches into the closure
    assert names.isdisjoint(
        {"_refine", "_search", "_first_path", "_individualized", "_target_cell", "aut_order"})


def test_greedy_checker_is_independent_of_the_builder():
    # greedy_sweep trusts verify_greedy_tree to check the builder, so it must
    # not reach the builder's code.
    tree = ast.parse((SRC / "trees.py").read_text(encoding="utf-8"))
    check = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "verify_greedy_tree")
    names = {node.id for node in ast.walk(check) if isinstance(node, ast.Name)}
    assert "bits" in names  # the walk sees the names the body uses
    builder = {"_grow", "greedy_spanning_tree", "best_greedy_tree"}
    # a builder name that no longer exists would check nothing
    assert builder <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert names.isdisjoint(builder)


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_scripts_do_not_reach_into_tests(path):
    # The scripts build from the package; the test helpers are not an API.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "helpers" not in imported
    path_edits = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and ast.unparse(node.func.value) == "sys.path"]
    for call in path_edits:
        strings = {n.value for n in ast.walk(call) if isinstance(n, ast.Constant)}
        assert "tests" not in strings, f"{path.name}:{call.lineno} puts tests/ on sys.path"
