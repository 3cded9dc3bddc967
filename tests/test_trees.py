import math

import pytest

from ts_groups.errors import MalformedInputError
from ts_groups.trees import PlaneTernaryTree, enumerate_simple_paths


def test_single_vertex():
    t = PlaneTernaryTree.single()
    assert t.n_vertices == 1
    assert t.is_ternary()
    assert list(enumerate_simple_paths(t)) == []


def test_two_vertex_tree_one_path():
    t = PlaneTernaryTree.single()
    t.add_child(0)
    assert t.is_ternary()  # two end vertices, no internal ones
    assert len(list(enumerate_simple_paths(t))) == 1


def test_path_graph_four_vertices_six_paths():
    t = PlaneTernaryTree.ray_tree(3)
    assert not t.is_ternary()  # valence-2 interior vertices
    assert len(list(enumerate_simple_paths(t))) == 6


def test_complete_tree_counts():
    for depth in (1, 2, 3):
        t = PlaneTernaryTree.complete(depth)
        assert t.is_ternary()
        n = t.n_vertices
        assert n == 1 + 3 * (2**depth - 1)
        paths = list(enumerate_simple_paths(t))
        assert len(paths) == n * (n - 1) // 2
        ends = sum(1 for v in t.vertices() if t.valence(v) == 1)
        internal = sum(1 for v in t.vertices() if t.valence(v) == 3)
        assert ends == internal + 2


def test_random_trees_are_ternary():
    for seed in range(10):
        t = PlaneTernaryTree.random(80, seed)
        assert t.is_ternary()
        if t.n_vertices > 1:
            ends = sum(1 for v in t.vertices() if t.valence(v) == 1)
            internal = sum(1 for v in t.vertices() if t.valence(v) == 3)
            assert ends == internal + 2
        assert t.n_vertices <= 80


def test_planar_order_sorted_by_level():
    t = PlaneTernaryTree.random(40, 3)
    order = t.planar_order()
    levels = [t.level(v) for v in order]
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
