"""Partitioning a revised related set, ordered along a tour, into
pieces, short segments, and ternary cluster trees, with certified
tour-length lower bounds.

Two construction modes exist.  Mode P cuts the tour at gaps above r/2,
chops pieces into 3-element short segments, and grows trees whose
vertices are whole segments joined by pair links; under the alternating
product bound at scale r this certifies L(S) > (r/12)|S|.  Mode P10
cuts at r/4 and builds vertices dynamically around pair-link entries,
completing each vertex with the nearest admissible piece neighbors as
constrained by the online inadmissible-element engine; this certifies
L(S) > (r/96)|S|.  Both bounds are recorded as claims tied to their
scale assumption and are cross-checked against exact tours by
verify_forest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import MalformedInputError, PreconditionError
from .groups import FreeOracle, GroupOracle
from .sequences import InadmissibleEngine
from .tours import EXACT_SOLVER_CAP, RelatedSet, Tour, tsp_exact

__all__ = [
    "PieceDecomposition",
    "decompose_pieces",
    "ClusterVertex",
    "ClusterTree",
    "TreeForest",
    "build_forest_p",
    "build_forest_p10",
    "verify_forest",
    "VerificationReport",
]


@dataclass
class PieceDecomposition:
    """Tour order split into contiguous pieces at large gaps.

    cut condition: position j (0-based, between order[j] and the
    cyclically next element) is a cut exactly when the gap exceeds the
    threshold.  The final position is always a piece boundary; whether
    it is a genuine cut is recorded separately.
    """

    order: Tuple[object, ...]
    cuts: Tuple[int, ...]
    pieces: Tuple[Tuple[object, ...], ...]
    dedup_log: Tuple[object, ...]
    wrap_is_cut: bool

    def piece_index(self):
        out = {}
        for pi, piece in enumerate(self.pieces):
            for pos, x in enumerate(piece):
                out[x] = (pi, pos)
        return out


def decompose_pieces(rset: RelatedSet, tour: Tour, threshold) -> PieceDecomposition:
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise MalformedInputError("threshold must be positive")
    if set(tour.order) != set(rset.elements):
        raise PreconditionError("tour does not visit exactly the set")
    o = rset.oracle
    seen = set()
    order = []
    dropped = []
    for x in tour.order:
        if x in seen:
            dropped.append(x)
        else:
            seen.add(x)
            order.append(x)
    m = len(order)
    cut_set = {
        j
        for j in range(m)
        if Fraction(o.distance(order[j], order[(j + 1) % m])) > threshold
    }
    cuts = sorted(cut_set)
    pieces = []
    start = 0
    for j in range(m):
        if j in cut_set or j == m - 1:
            pieces.append(tuple(order[start : j + 1]))
            start = j + 1
    return PieceDecomposition(
        order=tuple(order),
        cuts=tuple(cuts),
        pieces=tuple(pieces),
        dedup_log=tuple(dropped),
        wrap_is_cut=(m - 1) in cut_set,
    )


@dataclass
class ClusterVertex:
    elements: Tuple[object, ...]
    entry: Optional[object]
    parent: Optional[int]
    level: int
    children: List[int] = field(default_factory=list)
    witness: Optional[Tuple[object, object]] = None  # (x in parent, entry = N(x))
    shared: bool = False


@dataclass
class ClusterTree:
    """Vertices in breadth-first order, the root first.  The builders
    grow a tree by iterating over ``vertices`` while appending children
    to it, so the list is its own queue."""

    vertices: List[ClusterVertex] = field(default_factory=list)

    def add(self, vertex: ClusterVertex):
        self.vertices.append(vertex)
        if vertex.parent is not None:
            self.vertices[vertex.parent].children.append(len(self.vertices) - 1)

    def leaves(self) -> List[int]:
        return [i for i, v in enumerate(self.vertices) if not v.children]


@dataclass
class TreeForest:
    mode: str  # "P" | "P10"
    r: int
    trees: List[ClusterTree]
    set_size: int
    certified_bound: Fraction
    tour_kind: str
    advisory_reasons: List[str]
    end_element_count: int
    v_near: List[object] = field(default_factory=list)  # end elements near piece ends
    v_far: List[object] = field(default_factory=list)  # end elements >= 4 from both ends

    @property
    def advisory(self) -> bool:
        return bool(self.advisory_reasons)

    def to_dict(self, oracle: GroupOracle) -> dict:
        return {
            "schema": 1,
            "mode": self.mode,
            "r": self.r,
            "set_size": self.set_size,
            "certified_bound": str(self.certified_bound),
            "tour_kind": self.tour_kind,
            "advisory": self.advisory,
            "advisory_reasons": self.advisory_reasons,
            "census": {
                "end_elements": self.end_element_count,
                "v_near": len(self.v_near),
                "v_far": len(self.v_far),
            },
            "trees": [
                {
                    "vertices": [
                        {
                            "elements": [oracle.format_element(x) for x in v.elements],
                            "entry": None
                            if v.entry is None
                            else oracle.format_element(v.entry),
                            "parent": v.parent,
                            "level": v.level,
                            "shared": v.shared,
                        }
                        for v in t.vertices
                    ]
                }
                for t in self.trees
            ],
        }


def _require_revised(rset: RelatedSet):
    if not rset.is_revised():
        raise PreconditionError("forest construction needs a revised set")


def _engine_pads(rset: RelatedSet, key) -> tuple:
    """The P10 engine's pads: the two least differences x^-1 y (x != y)
    under the length-first order ``key``.  As |x^-1 y| = d(x, y), they
    come from the least-distance pairs, each giving two distinct ones,
    x^-1 y and y^-1 x, since every supported group is torsion-free."""
    oracle, pts, D = rset.oracle, rset.elements, rset.distances
    least = min(min(row[i + 1:]) for i, row in enumerate(D[:-1]))
    ground = set()
    for x, row in zip(pts, D):
        if least in row:
            x_inv = oracle.inverse(x)
            ground.update(oracle.multiply(x_inv, y) for y, d in zip(pts, row) if d == least)
    return tuple(sorted(ground, key=key)[:2])


def build_forest_p(rset: RelatedSet, r: int, tour: Tour) -> TreeForest:
    """Mode P: segment-based trees over pieces cut at r/2."""
    _require_revised(rset)
    if r < 1:
        raise MalformedInputError("r must be a positive integer")
    decomp = decompose_pieces(rset, tour, Fraction(r, 2))
    neighbor = rset.neighbor_map()

    segments: List[Tuple[object, ...]] = []
    seg_of: Dict[object, int] = {}
    for piece in decomp.pieces:
        for i in range(0, len(piece), 3):
            seg = tuple(piece[i : i + 3])
            for x in seg:
                seg_of[x] = len(segments)
            segments.append(seg)

    trees: List[ClusterTree] = []
    seg_tree: Dict[int, List[int]] = {}  # segment -> tree indices using it
    advisory_reasons: List[str] = []

    for z in decomp.order:
        origin_seg = seg_of[z]
        if seg_tree.get(origin_seg):
            continue  # a tree already covers z
        ti = len(trees)
        tree = ClusterTree([
            ClusterVertex(elements=segments[origin_seg], entry=None, parent=None, level=0)
        ])
        seg_tree[origin_seg] = [ti]
        for v, vert in enumerate(tree.vertices):
            if len(vert.elements) < 3 or vert.shared:
                continue  # incomplete segments and shared ends stay leaves
            for w in vert.elements:
                if w == vert.entry:
                    continue
                y = neighbor[w]
                c = seg_of[y]
                owners = seg_tree.setdefault(c, [])
                if ti in owners:
                    continue
                # a segment another tree owns is adopted only as a shared
                # incomplete end, and by at most two trees
                shared = bool(owners)
                if shared and (len(segments[c]) == 3 or len(owners) >= 2):
                    continue
                tree.add(
                    ClusterVertex(
                        elements=segments[c],
                        entry=y,
                        parent=v,
                        level=vert.level + 1,
                        witness=(w, y),
                        shared=shared,
                    )
                )
                owners.append(ti)
        trees.append(tree)

    end_elements = []
    for tree in trees:
        for li in tree.leaves():
            leaf = tree.vertices[li]
            end_elements.extend(leaf.elements)
            if len(leaf.elements) == 3:
                advisory_reasons.append(
                    "normal segment ended as a leaf (pair links collided)"
                )
    # shared leaves are counted once per owning tree on purpose: the
    # census mirrors the per-tree end counts
    return TreeForest(
        mode="P",
        r=r,
        trees=trees,
        set_size=rset.size,
        certified_bound=Fraction(r, 12) * rset.size,
        tour_kind=tour.kind,
        advisory_reasons=sorted(set(advisory_reasons)),
        end_element_count=len(set(end_elements)),
    )


def build_forest_p10(rset: RelatedSet, r: int, tour: Tour) -> TreeForest:
    """Mode P10: disjoint trees with vertices completed by nearest
    admissible piece neighbors under the inadmissible-element engine."""
    _require_revised(rset)
    if r < 1:
        raise MalformedInputError("r must be a positive integer")
    decomp = decompose_pieces(rset, tour, Fraction(r, 4))
    neighbor = rset.neighbor_map()
    oracle = rset.oracle
    piece_pos = decomp.piece_index()

    # the P10 token order: length first on every oracle, F2xZ too
    key = lambda t: (oracle.length(t), oracle.sort_key(t))
    root_engine = InadmissibleEngine(_engine_pads(rset, key))
    used = set()
    trees: List[ClusterTree] = []
    advisory_reasons: List[str] = []
    v_near: List[object] = []
    v_far: List[object] = []

    def piece_neighbors(x):
        pi, pos = piece_pos[x]
        piece = decomp.pieces[pi]
        lefts = [piece[i] for i in range(pos - 1, max(-1, pos - 5), -1)]
        rights = [piece[i] for i in range(pos + 1, min(len(piece), pos + 5))]
        return lefts, rights

    def open_vertex(entry, engine):
        """Complete a vertex around an entry element per the
        nearest-admissible rule; returns its elements."""
        lefts, rights = piece_neighbors(entry)
        fv = {}
        for t in rights + lefts:
            fv[oracle.multiply(oracle.inverse(entry), t)] = t
        banned = {fv[engine.designate(sorted(fv, key=key))]} if len(fv) >= 2 else set()
        chosen = []
        for t in rights + lefts:
            if len(chosen) == 2:
                break
            if t in used or t in banned or t == entry:
                continue
            chosen.append(t)
        if chosen and len(fv) < 4:
            # a labeling choice was made with fewer than 4 candidates, so
            # the aperiodicity guarantee of the engine lapses here
            advisory_reasons.append(
                "candidate set below 4 at a completed vertex; the labeling "
                "guarantee lapses"
            )
        return [entry] + chosen

    for z in decomp.order:
        if z in used:
            continue
        # origin: the entry plus its nearest unused piece neighbors,
        # preferring the two immediate left ones
        lefts, rights = piece_neighbors(z)
        lefts = [t for t in lefts if t not in used]
        rights = [t for t in rights if t not in used]
        members = [z] + (lefts + rights)[:2]
        members.sort(key=lambda x: piece_pos[x][1])
        tree = ClusterTree([
            ClusterVertex(elements=tuple(members), entry=None, parent=None, level=0)
        ])
        used.update(members)
        engines = [root_engine]  # engines[v]: the engine state at vertex v
        for v, vert in enumerate(tree.vertices):
            if len(vert.elements) < 3:
                continue  # incomplete vertices stay leaves
            for w in vert.elements:
                if w == vert.entry:
                    continue
                y = neighbor[w]
                if y in used:
                    continue
                used.add(y)
                engine = engines[v]
                if vert.entry is not None:
                    engine = engine.observe(oracle.multiply(oracle.inverse(vert.entry), w))
                elems = open_vertex(y, engine)
                used.update(elems)
                tree.add(
                    ClusterVertex(
                        elements=tuple(elems),
                        entry=y,
                        parent=v,
                        level=vert.level + 1,
                        witness=(w, y),
                    )
                )
                engines.append(engine)
        trees.append(tree)

    end_elements = set()
    for tree in trees:
        for li in tree.leaves():
            leaf = tree.vertices[li]
            if len(leaf.elements) == 3:
                advisory_reasons.append(
                    "triple vertex ended as a leaf (all pair links consumed)"
                )
            for x in leaf.elements:
                end_elements.add(x)
                pi, pos = piece_pos[x]
                q = len(decomp.pieces[pi])
                if min(pos, q - 1 - pos) >= 4:
                    v_far.append(x)
                else:
                    v_near.append(x)

    return TreeForest(
        mode="P10",
        r=r,
        trees=trees,
        set_size=rset.size,
        certified_bound=Fraction(r, 96) * rset.size,
        tour_kind=tour.kind,
        advisory_reasons=sorted(set(advisory_reasons)),
        end_element_count=len(end_elements),
        v_near=v_near,
        v_far=v_far,
    )


@dataclass
class VerificationReport:
    checks: Dict[str, dict]

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks.values())

    def to_dict(self):
        return {"ok": self.ok, "checks": self.checks}


def verify_forest(forest: TreeForest, rset: RelatedSet, r: int) -> VerificationReport:
    """Independent re-check of every forest invariant."""
    checks: Dict[str, dict] = {}

    def record(name, ok, detail=""):
        checks[name] = {"pass": bool(ok), "detail": detail}

    oracle = rset.oracle
    members = set(rset.elements)
    all_vertex_elements = [
        x for t in forest.trees for v in t.vertices for x in v.elements
    ]
    record(
        "coverage",
        set(all_vertex_elements) == members,
        f"{len(set(all_vertex_elements))} of {len(members)} covered",
    )

    sizes_ok = True
    strict_sizes = True
    for t in forest.trees:
        for v in t.vertices:
            if v.children and len(v.elements) != 3:
                sizes_ok = False
            if not v.children and len(v.elements) not in (1, 2, 3):
                sizes_ok = False
            if not v.children and len(v.elements) == 3:
                strict_sizes = False
    record(
        "vertex_sizes",
        sizes_ok and (strict_sizes or forest.advisory),
        "internal vertices are triples; leaves of size 3 only on advisory forests",
    )

    disjoint_ok = True
    for t in forest.trees:
        seen = set()
        for v in t.vertices:
            for x in v.elements:
                if x in seen:
                    disjoint_ok = False
                seen.add(x)
    record("within_tree_disjoint", disjoint_ok)

    owners = Counter(all_vertex_elements)  # element -> vertices holding it
    if forest.mode == "P10":
        record(
            "trees_disjoint",
            all(c == 1 for c in owners.values()),
            "P10 trees partition the set",
        )
    else:
        shared = {x for x, c in owners.items() if c > 1}
        ok_share = not any(
            (v.children or len(v.elements) == 3) and not shared.isdisjoint(v.elements)
            for t in forest.trees
            for v in t.vertices
        )
        record(
            "shared_only_ends",
            ok_share and all(c <= 2 for c in owners.values()),
            f"{len(shared)} shared end elements",
        )

    neighbor = rset.neighbor_map() if rset.pairs is not None else {}
    wit_ok = True
    for t in forest.trees:
        for v in t.vertices:
            if v.parent is None:
                continue
            if v.witness is None:
                wit_ok = False
                continue
            x, y = v.witness
            if x not in t.vertices[v.parent].elements or y not in v.elements:
                wit_ok = False
            if neighbor.get(x) != y:
                wit_ok = False
    record("pair_witnesses", wit_ok)

    def built_breadth_first(t):
        """The root alone is at level 0, each child is one level below
        its parent, and levels never decrease along the vertex list."""
        last = 0
        for i, v in enumerate(t.vertices):
            want = 0 if v.parent is None else t.vertices[v.parent].level + 1
            if (v.parent is None) != (i == 0) or v.level != want or v.level < last:
                return False
            last = v.level
        return True

    record("breadth_first_build", all(built_breadth_first(t) for t in forest.trees))

    if forest.mode == "P" and isinstance(oracle, FreeOracle):
        dist_ok = True
        worst = None
        for t in forest.trees:
            for i, v in enumerate(t.vertices):
                for j, u in enumerate(t.vertices):
                    if i >= j:
                        continue
                    for x in v.elements:
                        for y in u.elements:
                            d = oracle.distance(x, y)
                            if worst is None or d < worst:
                                worst = d
                            if d < r:
                                dist_ok = False
        record(
            "cross_vertex_distance",
            dist_ok,
            f"min cross-vertex distance {worst} vs r={r}",
        )

    n = forest.set_size
    if forest.mode == "P":
        record(
            "census_end_count",
            Fraction(forest.end_element_count) >= Fraction(n, 6),
            f"end elements {forest.end_element_count} vs |S|/6 = {Fraction(n,6)}",
        )
    else:
        record(
            "census_v_far",
            Fraction(len(forest.v_far)) <= Fraction(n, 8),
            f"|V''| = {len(forest.v_far)} vs |S|/8 = {Fraction(n,8)}",
        )
        record(
            "census_v_near",
            Fraction(len(forest.v_near)) > Fraction(n, 24),
            f"|V'| = {len(forest.v_near)} vs |S|/24 = {Fraction(n,24)}",
        )

    # free groups have a closed-form exact tour of any size
    if rset.size <= EXACT_SOLVER_CAP or isinstance(oracle, FreeOracle):
        exact = tsp_exact(rset).length
        record(
            "bound_sound",
            forest.certified_bound <= exact,
            f"bound {forest.certified_bound} vs exact {exact}",
        )
    return VerificationReport(checks)
