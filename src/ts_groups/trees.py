"""Ordered rooted trees embedded in the plane.

Vertices are integers; 0 is always the origin.  Children lists are
ordered left to right, which induces the per-level planar order.  The
class stores general rooted trees (rays and path graphs are useful in
tests); ternary validity is an explicit check because only the
labeling algorithms require it.

Text format: one vertex per line, ``id parent level``, origin parent
``-``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import MalformedInputError

__all__ = ["PlaneTernaryTree", "enumerate_simple_paths"]


@dataclass
class PlaneTernaryTree:
    parent: Dict[int, Optional[int]] = field(default_factory=lambda: {0: None})
    children: Dict[int, List[int]] = field(default_factory=lambda: {0: []})

    ORIGIN = 0

    def __post_init__(self):
        """Accept only one tree, so every walk and pass below ends."""
        if self.parent.get(0, "missing") is not None:
            raise MalformedInputError("vertex 0 must be the origin (parent None)")
        listed = [(c, p) for p, kids in self.children.items() for c in kids]
        below = {v: p for v, p in self.parent.items() if p is not None}
        if (self.children.keys() != self.parent.keys() or len(listed) != len(below)
                or dict(listed) != below):
            raise MalformedInputError("each vertex must be listed once, by its parent")
        unreached = self.parent.keys() - set(self.planar_order())
        if unreached:
            raise MalformedInputError(f"vertex {min(unreached)} is not connected to the origin")

    # -- construction ----------------------------------------------------

    @staticmethod
    def complete(depth: int) -> "PlaneTernaryTree":
        """Complete ternary tree: origin has 3 children, every internal
        vertex below has 2, all leaves at the given depth."""
        t = PlaneTernaryTree()
        if depth == 0:
            return t
        frontier = [t.add_child(0) for _ in range(3)]
        for _ in range(depth - 1):
            nxt = []
            for v in frontier:
                nxt.append(t.add_child(v))
                nxt.append(t.add_child(v))
            frontier = nxt
        return t

    @staticmethod
    def random(max_vertices: int, seed: int) -> "PlaneTernaryTree":
        """Random valid ternary tree with at most max_vertices vertices
        (sizes land in {1, 4, 6, 8, ...})."""
        rng = random.Random(seed)
        t = PlaneTernaryTree()
        if max_vertices < 4:
            return t
        # new ids are the largest yet, so the leaves stay in id order
        leaves = [t.add_child(0) for _ in range(3)]
        while t.n_vertices + 2 <= max_vertices:
            leaf = leaves.pop(rng.randrange(len(leaves)))
            leaves += (t.add_child(leaf), t.add_child(leaf))
        return t

    @staticmethod
    def ray_tree(length: int) -> "PlaneTernaryTree":
        """Path graph on length+1 vertices (degenerate, non-ternary)."""
        t = PlaneTernaryTree()
        v = 0
        for _ in range(length):
            v = t.add_child(v)
        return t

    def add_child(self, v: int) -> int:
        if v not in self.parent:
            raise MalformedInputError(f"no vertex {v}")
        c = self.n_vertices
        if c in self.parent:  # a parsed tree may use any ids
            c = max(self.parent) + 1
        self.parent[c] = v
        self.children[c] = []
        self.children[v].append(c)
        return c

    # -- structure -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    def vertices(self) -> List[int]:
        return list(self.parent)

    def leaves(self) -> List[int]:
        return [v for v in self.vertices() if not self.children[v]]

    def planar_order(self) -> List[int]:
        """All vertices sorted by (level, left-to-right)."""
        order = []
        frontier = [self.ORIGIN]
        while frontier:
            order.extend(frontier)
            frontier = [c for v in frontier for c in self.children[v]]
        return order

    def levels(self) -> Dict[int, int]:
        """{vertex: level}, from one pass in planar order."""
        level = {}
        for v in self.planar_order():
            p = self.parent[v]
            level[v] = 0 if p is None else level[p] + 1
        return level

    def path_between(self, u: int, v: int) -> List[int]:
        """The unique simple path from u to v (inclusive): up from u to
        the deepest vertex its root path shares with v's, then down."""
        for w in (u, v):
            if w not in self.parent:
                raise MalformedInputError(f"no vertex {w}")
        up, vp = [u], [v]
        for path in (up, vp):
            while self.parent[path[-1]] is not None:
                path.append(self.parent[path[-1]])
        a, b = up[::-1], vp[::-1]
        # both root paths start at the origin
        d = 1
        while d < len(a) and d < len(b) and a[d] == b[d]:
            d += 1
        return a[d - 1 :][::-1] + b[d:]

    # -- text format -------------------------------------------------------

    def serialize(self) -> str:
        level = self.levels()
        lines = [f"{v} {'-' if p is None else p} {level[v]}"
                 for v, p in sorted(self.parent.items())]
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "PlaneTernaryTree":
        parent: Dict[int, Optional[int]] = {}
        children: Dict[int, List[int]] = {}
        rows = []
        for line in text.strip().splitlines():
            try:
                v, p, lvl = line.split()
                rows.append((int(v), None if p == "-" else int(p), int(lvl)))
            except ValueError:
                raise MalformedInputError(f"bad tree line {line!r}") from None
        for v, p, _lvl in rows:
            if v in parent:
                raise MalformedInputError(f"duplicate vertex {v}")
            parent[v] = p
            children[v] = []
        for v, p, _lvl in rows:
            if p is not None:
                if p not in parent:
                    raise MalformedInputError(f"vertex {v} has unknown parent {p}")
                children[p].append(v)
        tree = PlaneTernaryTree(parent, children)
        level = tree.levels()
        for v, _p, lvl in rows:
            if level[v] != lvl:
                raise MalformedInputError(f"level mismatch for vertex {v}")
        return tree


def enumerate_simple_paths(tree: PlaneTernaryTree) -> Iterator[Tuple[int, ...]]:
    """Every simple path with at least one edge, once per endpoint pair
    u < v in sorted order: up from u to the deepest vertex shared with
    v, then down to v.  Root paths come from one pass, the upward
    halves from each u once, and the shared depth from comparing the
    two root paths in place."""
    paths = {}
    for v in tree.planar_order():
        p = tree.parent[v]
        paths[v] = (v,) if p is None else paths[p] + (v,)
    roots = [paths[v] for v in sorted(paths)]
    for i, ru in enumerate(roots):
        n = len(ru)
        ups = [ru[d:][::-1] for d in range(n)]
        for rv in roots[i + 1 :]:
            # both root paths start at the origin; d ends one past the
            # deepest vertex they share
            d = 1
            while d < n and d < len(rv) and ru[d] == rv[d]:
                d += 1
            yield ups[d - 1] + rv[d:]
