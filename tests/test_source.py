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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cached_property(path):
    # functools.cached_property before Python 3.12 holds one lock per class
    # attribute, shared by every instance, while it computes: one report's
    # prerequisite would stall every other thread's.  graphs._lazy takes none.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "cached_property"
             or isinstance(node, ast.Attribute) and node.attr == "cached_property"
             or isinstance(node, ast.alias) and node.name == "cached_property"]
    assert lines == [], f"{path.name}: cached_property at lines {lines}"


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


def reach(path, start, members_of=None):
    """(functions reached, names and attributes used) from the module
    function ``start`` in ``path``, following every call to a module
    function, and to a member of the class ``members_of`` if one is named."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == members_of:
            functions |= {node.name: node for node in cls.body
                          if isinstance(node, ast.FunctionDef)}
    reached, todo, names = set(), [start], set()
    while todo:
        name = todo.pop()
        reached.add(name)
        found = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
        found |= {node.attr for node in ast.walk(functions[name])
                  if isinstance(node, ast.Attribute)}
        names |= found
        todo += [f for f in found if f in functions and f not in reached]
    return reached, names


def test_copy_census_is_independent_of_the_certificates():
    # theorem1_suite groups trees by tree_certificate and checks the groups
    # against the copy census, so the census must classify trees by its own
    # isomorphism test, never by the certificate code, and list the host's
    # trees without the interned trees that carry their certificates.
    certificate = {"tree_certificate", "certificate_aut", "_centroid_code"}
    reached, names = reach(SRC / "embeddings.py", "count_subgraph_copies")
    assert {"_tree_classes", "_isomorphism_test"} <= reached
    assert "spanning_tree_rows" in names
    module = ast.parse((SRC / "embeddings.py").read_text(encoding="utf-8"))
    attrs = {node.attr for node in ast.walk(module) if isinstance(node, ast.Attribute)}
    assert (names | attrs).isdisjoint(certificate)
    # the shared listing, followed into trees.py
    listed, listing_names = reach(SRC / "trees.py", "spanning_tree_rows")
    assert {"_complete_trees", "_tree_rows", "_edge_mask"} <= listed
    assert listing_names.isdisjoint(certificate | {"SpanningTree", "_interned_tree"})


def test_naive_tree_aut_runs_the_naive_oracle():
    # theorem1 checks count_embeddings' aut_f, SpanningTree.naive_aut, against
    # tree_aut_exact of the same tree, so naive_aut must run the naive oracle
    # and never reach the centroid code: else it compares that count with
    # itself.
    _, names = reach(SRC / "trees.py", "naive_aut", members_of="SpanningTree")
    assert "aut_order_naive" in names
    assert names.isdisjoint({"certificate_aut", "_centroid_code", "tree_aut_exact"})


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


NUMERIC_NAMES = {"mpmath", "WORKING_PRECISION_BITS"}
NUMERIC_CORE = {"_log2", "_power_value"}


def test_mpmath_stays_in_the_numeric_core():
    # A stdlib log2 (decimal in place of mpmath) must stay a swap of two
    # functions: bounds alone imports mpmath, as a plain module, and in bounds
    # the library and its precision appear only in the constant and those two.
    imports = {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and "mpmath" in ast.unparse(node)]
        if found:
            imports[path.name] = found
    assert imports == {"bounds.py": ["import mpmath"]}

    tree = ast.parse((SRC / "bounds.py").read_text(encoding="utf-8"))
    core = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert NUMERIC_CORE <= core  # a renamed core function would check nothing
    stray = []
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef) and node.name in NUMERIC_CORE
                or isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["WORKING_PRECISION_BITS"]):
            continue
        stray += [n.lineno for n in ast.walk(node)
                  if isinstance(n, ast.Name) and n.id in NUMERIC_NAMES]
    assert stray == [], f"bounds.py: mpmath or its precision used at lines {sorted(stray)}"
