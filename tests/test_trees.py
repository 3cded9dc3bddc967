import hashlib
import time

import pytest
from hypothesis import given, settings

from oracles import is_ternary, tree_path_reference, valence
from strategies import trees
from ts_groups.errors import MalformedInputError
from ts_groups.trees import PlaneTernaryTree, enumerate_simple_paths


def test_single_vertex():
    t = PlaneTernaryTree()
    assert t.n_vertices == 1
    assert is_ternary(t)
    assert list(enumerate_simple_paths(t)) == []


def test_two_vertex_tree_one_path():
    t = PlaneTernaryTree()
    t.add_child(0)
    assert is_ternary(t)  # two end vertices, no internal ones
    assert len(list(enumerate_simple_paths(t))) == 1


def test_path_graph_four_vertices_six_paths():
    t = PlaneTernaryTree.ray_tree(3)
    assert not is_ternary(t)  # valence-2 interior vertices
    assert len(list(enumerate_simple_paths(t))) == 6


def test_complete_tree_counts():
    for depth in (1, 2, 3):
        t = PlaneTernaryTree.complete(depth)
        assert is_ternary(t)
        n = t.n_vertices
        assert n == 1 + 3 * (2**depth - 1)
        paths = list(enumerate_simple_paths(t))
        assert len(paths) == n * (n - 1) // 2
        ends = sum(1 for v in t.vertices() if valence(t, v) == 1)
        internal = sum(1 for v in t.vertices() if valence(t, v) == 3)
        assert ends == internal + 2


def test_random_trees_are_ternary():
    for seed in range(10):
        t = PlaneTernaryTree.random(80, seed)
        assert is_ternary(t)
        if t.n_vertices > 1:
            ends = sum(1 for v in t.vertices() if valence(t, v) == 1)
            internal = sum(1 for v in t.vertices() if valence(t, v) == 3)
            assert ends == internal + 2
        assert t.n_vertices <= 80


def test_planar_order_sorted_by_level():
    t = PlaneTernaryTree.random(40, 3)
    order = t.planar_order()
    level = t.levels()
    levels = [level[v] for v in order]
    assert levels == sorted(levels)
    assert len(order) == t.n_vertices


def test_path_between_endpoints():
    t = PlaneTernaryTree.complete(3)
    leaves = t.leaves()
    path = t.path_between(leaves[0], leaves[-1])
    assert path[0] == leaves[0] and path[-1] == leaves[-1]
    for u, v in zip(path, path[1:]):
        assert t.parent[u] == v or t.parent[v] == u
    assert len(set(path)) == len(path)


@pytest.mark.parametrize("u, v", [(0, 99), (99, 0), (99, 99), (-1, 3)])
def test_path_between_rejects_unknown_vertices(u, v):
    with pytest.raises(MalformedInputError, match="no vertex"):
        PlaneTernaryTree.complete(2).path_between(u, v)


def test_serialize_parse_round_trip():
    t = PlaneTernaryTree.random(60, 7)
    text = t.serialize()
    back = PlaneTernaryTree.parse(text)
    assert back.parent == t.parent
    assert {v: list(c) for v, c in back.children.items()} == t.children
    assert back.serialize() == text


def test_parse_rejects_bad_level():
    with pytest.raises(MalformedInputError):
        PlaneTernaryTree.parse("0 - 0\n1 0 2\n")


def test_random_trees_pinned():
    # a seed names one tree: `tree label --seed` output and the
    # benchmark's tree-paths digests depend on it
    digest = hashlib.sha256()
    for seed in range(30):
        for n in (1, 4, 40, 200, 1000):
            digest.update(PlaneTernaryTree.random(n, seed).serialize().encode())
    assert digest.hexdigest()[:16] == "ad6f42f6ea826493"


@settings(deadline=None)
@given(trees())
def test_paths_match_the_search_reference(tree):
    vs = sorted(tree.vertices())
    expected = [tuple(tree_path_reference(tree, u, v))
                for i, u in enumerate(vs) for v in vs[i + 1 :]]
    assert list(enumerate_simple_paths(tree)) == expected
    for u in vs:
        for v in vs:
            assert tree.path_between(u, v) == tree_path_reference(tree, u, v)


def test_ray_and_random_trees_take_linear_time():
    # one breadth-first pass per call; a walk to the origin per vertex
    # (or a leaf rescan per growth step) makes these quadratic
    start = time.perf_counter()
    ray = PlaneTernaryTree.ray_tree(19_999)
    assert PlaneTernaryTree.parse(ray.serialize()).n_vertices == 20_000
    assert PlaneTernaryTree.random(20_000, 1).n_vertices == 20_000
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("parent, children", [
    ({0: None, 1: 2, 2: 1}, {0: [], 1: [2], 2: [1]}),
    ({0: None, 1: 0, 2: 0}, {0: [1, 2], 1: [2], 2: []}),
    ({0: None, 1: 0}, {0: [1, 1], 1: []}),
    ({0: None, 1: 0}, {0: [1]}),
    ({0: None, 1: 0}, {0: [1], 1: [0]}),
], ids=["parent-cycle", "child-of-two", "child-twice", "no-children-list", "origin-as-child"])
def test_constructor_rejects_all_but_one_tree(parent, children):
    with pytest.raises(MalformedInputError):
        PlaneTernaryTree(parent, children)


def test_add_child_skips_ids_in_use():
    t = PlaneTernaryTree.parse("0 - 0\n2 0 1\n")
    assert t.add_child(0) == 3
    assert t.children[0] == [2, 3]
    assert t.planar_order() == [0, 2, 3]
