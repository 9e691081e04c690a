import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edgerigid
from edgerigid import families as fam
from edgerigid import graphs
import oracles
from conftest import adjacency
from oracles import (
    BudgetExceededError,
    count_walks,
    enumerate_spanning_trees,
    random_simplex,
    weighted_enum,
)


def test_spanning_trees_k4_cayley():
    # Cayley: tau(K_n) = n^(n-2)
    assert enumerate_spanning_trees(fam.complete_graph(4)) == 16


def test_spanning_trees_cycle_and_tree():
    assert enumerate_spanning_trees(fam.cycle_graph(4)) == 4
    assert enumerate_spanning_trees(fam.path_graph(4)) == 1
    assert enumerate_spanning_trees(fam.random_tree(8, seed=0)) == 1


def test_spanning_trees_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_spanning_trees(fam.complete_graph(8))


def test_weighted_enum_unit_matches_count(corpus_case):
    _, g, _ = corpus_case
    if g.m > 20:
        pytest.skip("budget")
    from edgerigid.graphs import WeightVector

    total = weighted_enum(g, WeightVector.unit(g.m))
    assert total == enumerate_spanning_trees(g)


def test_count_walks_base_cases():
    g = fam.petersen_graph()
    assert count_walks(g, 0, 0, 0) == 1
    assert count_walks(g, 0, 1, 0) == 0
    A = adjacency(g)
    for a in range(g.n):
        for b in range(g.n):
            assert count_walks(g, a, b, 1) == A[a, b]


def test_count_walks_petersen_girth():
    # girth 5: no 2-walks between adjacent vertices
    g = fam.petersen_graph()
    for a, b in g.edges:
        assert count_walks(g, a, b, 2) == 0


def test_count_walks_budget():
    with pytest.raises(BudgetExceededError):
        count_walks(fam.complete_graph(3), 0, 1, 11)


def test_random_simplex_normalization():
    for w in random_simplex(7, seed=5, count=10):
        vals = w.as_array()
        assert abs(vals.sum() - 7) <= 1e-12 * 7
        assert (vals > 0).all()


def test_random_simplex_reproducible():
    a = random_simplex(5, seed=9, count=3)
    b = random_simplex(5, seed=9, count=3)
    assert [x.values for x in a] == [y.values for y in b]
    c = random_simplex(5, seed=10, count=3)
    assert [x.values for x in a] != [z.values for z in c]


def test_random_simplex_count_validated():
    with pytest.raises(ValueError):
        random_simplex(5, seed=0, count=0)


def imported_modules(tree: ast.Module) -> set[str]:
    """Every dotted name an import statement in tree can bind or load."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names |= {f"{base}.{alias.name}" for alias in node.names}
    return names


PRODUCTION = sorted(Path(edgerigid.__file__).parent.glob("*.py"))


# the independent references that the tests check the production paths against
REFERENCES = {
    "exactmat": ("IntPolynomial", "adjugate_quadratic_form", "char_poly", "mat_pow_stream"),
    "graphs": ("adjoint_apply", "signed_line_graph"),
    "rigidity": ("signed_line_graph_walk_regular",),
}


def test_oracle_errors_live_with_the_oracles():
    # only the oracles raise these, so the package neither defines nor exports them
    for name in ("BudgetExceededError", "LengthMismatchError"):
        assert not hasattr(edgerigid.errors, name) and name not in edgerigid.__all__
        assert issubclass(getattr(oracles, name), edgerigid.errors.EdgeRigidError)


@pytest.mark.parametrize(
    "module, name", [(mod, name) for mod, names in REFERENCES.items() for name in names]
)
def test_references_are_not_top_level_exports(module, name):
    # the top level is the production API; each reference stays in its module
    assert name not in edgerigid.__all__ and not hasattr(edgerigid, name)
    assert hasattr(importlib.import_module(f"edgerigid.{module}"), name)


@pytest.mark.parametrize("path", PRODUCTION, ids=[p.name for p in PRODUCTION])
def test_production_code_never_imports_oracles(path):
    # the oracles check the fast paths, so the fast paths must not use them
    names = imported_modules(ast.parse(path.read_text()))
    assert not [name for name in names if "oracles" in name.split(".")], path.name


def test_package_holds_only_what_runs():
    # the CLI loads every module but the graph families of the README's example;
    # the oracles and the orientation option live in the tests, not the package
    src = str(Path(edgerigid.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, edgerigid.cli; print(*sorted(m for m in sys.modules if m.startswith('edgerigid.')))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()
    assert loaded == [f"edgerigid.{p.stem}" for p in PRODUCTION if p.stem not in ("__init__", "families")]
    assert importlib.util.find_spec("edgerigid.oracles") is None
    assert not hasattr(graphs, "Orientation")
