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
        if self.parent.get(0, "missing") is not None:
            raise MalformedInputError("vertex 0 must be the origin (parent None)")
        for v, p in self.parent.items():
            if p is not None and v not in self.children.get(p, []):
                raise MalformedInputError(f"vertex {v} missing from children of {p}")

    # -- construction ----------------------------------------------------

    @staticmethod
    def single() -> "PlaneTernaryTree":
        return PlaneTernaryTree()

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
        for _ in range(3):
            t.add_child(0)
        while t.n_vertices + 2 <= max_vertices:
            leaf = rng.choice([v for v in t.vertices() if not t.children[v] and v != 0])
            t.add_child(leaf)
            t.add_child(leaf)
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

    def level(self, v: int) -> int:
        d = 0
        while self.parent[v] is not None:
            v = self.parent[v]
            d += 1
        return d

    def height(self) -> int:
        return max(self.level(v) for v in self.vertices())

    def valence(self, v: int) -> int:
        return len(self.children[v]) + (0 if v == self.ORIGIN else 1)

    def leaves(self) -> List[int]:
        return [v for v in self.vertices() if not self.children[v]]

    def is_ternary(self) -> bool:
        if self.n_vertices == 1:
            return True
        return all(self.valence(v) in (1, 3) for v in self.vertices())

    def planar_order(self) -> List[int]:
        """All vertices sorted by (level, left-to-right)."""
        order = []
        frontier = [self.ORIGIN]
        while frontier:
            order.extend(frontier)
            frontier = [c for v in frontier for c in self.children[v]]
        return order

    def path_to_origin(self, v: int) -> List[int]:
        out = [v]
        while self.parent[out[-1]] is not None:
            out.append(self.parent[out[-1]])
        return out

    def path_between(self, u: int, v: int) -> List[int]:
        """The unique simple path from u to v (inclusive)."""
        up = self.path_to_origin(u)
        vp = self.path_to_origin(v)
        in_up = {w: i for i, w in enumerate(up)}
        for j, w in enumerate(vp):
            if w in in_up:
                return up[: in_up[w] + 1] + vp[:j][::-1]
        raise MalformedInputError("vertices lie in different trees")

    # -- text format -------------------------------------------------------

    def serialize(self) -> str:
        lines = []
        for v in sorted(self.parent):
            p = self.parent[v]
            lines.append(f"{v} {'-' if p is None else p} {self.level(v)}")
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
        # the origin reaches every vertex exactly when no parent chain
        # loops, so level() below terminates
        unreached = set(parent) - set(tree.planar_order())
        if unreached:
            raise MalformedInputError(
                f"vertex {min(unreached)} is not connected to the origin"
            )
        for v, p, lvl in rows:
            if tree.level(v) != lvl:
                raise MalformedInputError(f"level mismatch for vertex {v}")
        return tree


def enumerate_simple_paths(tree: PlaneTernaryTree) -> Iterator[Tuple[int, ...]]:
    """Every simple path with at least one edge, once per endpoint pair."""
    vs = sorted(tree.vertices())
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            yield tuple(tree.path_between(vs[i], vs[j]))
