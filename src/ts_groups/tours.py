"""Related sets, revisions, exact and heuristic traveling-salesman
functionals, the credited walk functional, and the Folner traversal
demonstration for abelian groups.

L(S) is the length of a shortest closed path through every element of
S under the oracle metric.  The credited variant L'(S) subtracts, from
the path length, the number of path indices that land in S (the base
point counts twice, once as index 0 and once as index n), so it can be
negative; for a single point the degenerate length-0 path gives -1.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateXiError,
    InternalInvariantError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
)
from .groups import AbelianOracle, FreeOracle, GroupOracle, ProductOracle
from .words import Word, _common_prefix, random_word

__all__ = [
    "RelatedSet",
    "ClosedPath",
    "Tour",
    "is_xi_related",
    "revise",
    "tsp_exact",
    "tsp_heuristic",
    "mst_bounds",
    "l_prime",
    "LPrimeResult",
    "SamplerConfig",
    "sample_related_set",
    "ts_lambda_experiment",
    "ExperimentReport",
    "xi_boundary",
    "k_boundary",
    "folner_traversal_demo",
    "FolnerReport",
    "random_element",
]

EXACT_SOLVER_CAP = 15


@dataclass
class RelatedSet:
    """A finite set of group elements, optionally linked by an element
    xi (every member must then have a neighbor differing by xi on the
    right), optionally carrying a revision into disjoint {x, x*xi}
    pairs."""

    oracle: GroupOracle
    xi: Optional[object]
    elements: Tuple[object, ...]
    pairs: Optional[Tuple[Tuple[object, object], ...]] = None

    def __post_init__(self):
        self.elements = tuple(sorted(set(self.elements), key=self.oracle.sort_key))
        if not self.elements:
            raise MalformedInputError("related set must be nonempty")
        if self.pairs is not None:
            if self.xi is None:
                raise MalformedInputError("revision pairs need a link element")
            covered = [x for p in self.pairs for x in p]
            if len(covered) != len(set(covered)):
                raise MalformedInputError("revision pairs must be disjoint")
            members = set(self.elements)
            for x, y in self.pairs:
                if x not in members or y not in members:
                    raise MalformedInputError("revision pair outside the set")
                if y != self.oracle.multiply(x, self.xi):
                    raise MalformedInputError("revision pair is not {x, x*xi}")

    @property
    def size(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def free_hull(self):
        """``_free_hull`` of the elements, built once per set: exact
        tours, L' and the distances of a free set all read it."""
        return _free_hull(self.elements)

    @functools.cached_property
    def distances(self) -> Tuple[Tuple[int, ...], ...]:
        """Oracle distances between the elements, computed once per set
        and over unordered pairs: every oracle's generating set is
        symmetric, so d(g, h) = |g^-1 h| = d(h, g).  Free sets read them
        off the sorted hull: the common prefix of two sorted words is
        the least lcp between them, and d = |g| + |h| - 2 * its length.
        Every other oracle makes one ``distance`` call per pair."""
        pts = self.elements
        D = [[0] * len(pts) for _ in pts]
        if isinstance(self.oracle, FreeOracle):
            if len({p.rank for p in pts}) > 1:
                raise MalformedInputError("cannot measure between words of different ranks")
            order, lcp, _meet, _edges = self.free_hull
            where = {p: i for i, p in enumerate(pts)}
            at = [where[p] for p in order]
            size = list(map(len, order))
            for a, i in enumerate(at):
                common = size[a]
                for b in range(a + 1, len(at)):
                    if lcp[b] < common:
                        common = lcp[b]
                    D[i][at[b]] = D[at[b]][i] = size[a] + size[b] - 2 * common
        else:
            distance = self.oracle.distance
            for i, j in itertools.combinations(range(len(pts)), 2):
                D[i][j] = D[j][i] = distance(pts[i], pts[j])
        return tuple(map(tuple, D))

    def neighbor_map(self) -> Dict[object, object]:
        """Pair partner of each paired element."""
        if self.pairs is None:
            raise PreconditionError("set carries no revision")
        out = {}
        for x, y in self.pairs:
            out[x] = y
            out[y] = x
        return out

    def is_revised(self) -> bool:
        return self.pairs is not None and 2 * len(self.pairs) == self.size


def is_xi_related(elements, xi, oracle: GroupOracle):
    """Check the neighbor condition; returns (flag, orphans), the orphans
    being the set's xi-boundary."""
    if xi == oracle.identity():
        raise DegenerateXiError("xi must be nontrivial")
    orphans = xi_boundary(elements, xi, oracle)
    return not orphans, orphans


def revise(rset: RelatedSet) -> RelatedSet:
    """Select disjoint pairs {x, x*xi} covering at least 2/3 of the set.

    The xi-orbit graph restricted to the set has maximum degree 2 and,
    in a torsion-free group, no cycles, so greedy pairing along each
    orbit path covers 2*floor(m/2) of every m-vertex path, hence at
    least 2/3 overall.  Every supported group is torsion-free; an
    element no orbit path reaches breaks that invariant.
    """
    if rset.xi is None:
        raise PreconditionError("cannot revise a set without xi")
    oracle, xi = rset.oracle, rset.xi
    if xi == oracle.identity():
        raise DegenerateXiError("xi must be nontrivial")
    members = set(rset.elements)
    succ = {}
    pred = {}
    for x in rset.elements:
        y = oracle.multiply(x, xi)
        if y in members:
            succ[x] = y
            pred[y] = x
    # an orphan has neither xi-neighbor in the set: the set's xi-boundary
    orphans = [x for x in rset.elements if x not in succ and x not in pred]
    if orphans:
        raise PreconditionError(f"set is not related: {len(orphans)} orphans")
    pairs = []
    used = set()
    for start in (x for x in rset.elements if x not in pred):
        chain = [start]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        for i in range(0, len(chain) - 1, 2):
            pairs.append((chain[i], chain[i + 1]))
        used.update(chain)
    if len(used) != rset.size:
        raise InternalInvariantError(
            f"xi-orbit chains reached {len(used)} of {rset.size} elements; "
            "the rest lie on xi-cycles, so xi has finite order"
        )
    selected = tuple(x for p in pairs for x in p)
    if 3 * len(selected) < 2 * rset.size:
        raise InternalInvariantError(
            f"revision covered {len(selected)} of {rset.size}, below 2/3"
        )
    return RelatedSet(oracle, xi, selected, tuple(pairs))


@dataclass
class ClosedPath:
    """Unit-step closed path in the Cayley graph."""

    oracle: GroupOracle
    points: Tuple[object, ...]

    def __post_init__(self):
        self.points = tuple(self.points)
        if not self.points:
            raise MalformedInputError("closed path needs at least one point")
        if self.points[0] != self.points[-1]:
            raise MalformedInputError("path is not closed")

    @property
    def length(self) -> int:
        return len(self.points) - 1

    def validate(self):
        for u, v in zip(self.points, self.points[1:]):
            if self.oracle.distance(u, v) != 1:
                raise MalformedInputError(
                    f"consecutive points at distance {self.oracle.distance(u, v)}"
                )

    def visit_count(self, members) -> int:
        """Number of indices (0..n inclusive) landing in the given set."""
        members = set(members)
        return sum(1 for p in self.points if p in members)


@dataclass
class Tour:
    """Closed visiting order of a point set under the oracle metric."""

    order: Tuple[object, ...]
    length: int
    kind: str  # exact | heuristic-upper

    def __post_init__(self):
        if self.kind not in ("exact", "heuristic-upper"):
            raise MalformedInputError(f"unknown tour kind {self.kind!r}")


def tour_of_order(rset: RelatedSet, order, kind) -> Tour:
    o = rset.oracle
    total = sum(
        o.distance(order[i], order[(i + 1) % len(order)]) for i in range(len(order))
    )
    return Tour(tuple(order), total, kind)


# Candidates per Held-Karp chunk: the 8-byte gather temporaries of a
# chunk (at most 120 KiB) stay below glibc's 128 KiB mmap threshold, so
# tsp_exact reuses heap pages instead of mapping and faulting in fresh
# ones for every layer.  Every layer of up to 12 points (at most 13,860
# candidates) is one chunk.  On 13-15 points (2-vCPU VM) this width
# solved at least as fast as any from 4,096 to 65,536, and up to 20 %
# faster than whole layers.
_HK_CHUNK = 15_360


@functools.lru_cache(maxsize=EXACT_SOLVER_CAP)
def _held_karp_layers(n: int):
    """Gather tables of the Held-Karp table for n points, one triple per
    chunk of a popcount layer, the layers in ascending order.  The table
    keeps only the masks that hold point 0, row mask >> 1, flattened to
    row * n + last point.  Each (target row, new last point j) state of
    a layer scores the previous points of its source mask (the target
    without j): those but point 0, in ascending order, or point 0 alone
    from the empty mask.  A chunk is (tgt, from_src, from_j): the flat
    index of each state, and, one row per previous point and one column
    per state, the flat index prev + source row * n of the previous
    state and prev + j * n of the step in an n x n matrix.  A chunk
    holds whole states and at most ``_HK_CHUNK`` candidates (states
    times previous points)."""
    bits = (np.arange(1 << (n - 1), dtype=np.intp)[:, None] >> np.arange(n - 1)) & 1
    popcount = bits.sum(1)
    chunks = []
    for k in range(1, n):
        rows = np.flatnonzero(popcount == k)
        at, bit = np.nonzero(bits[rows])
        tgt, j = rows[at], bit + 1
        src = tgt ^ (1 << bit)
        if k == 1:
            prevs = np.zeros((1, len(src)), dtype=np.intp)
        else:
            prevs = np.nonzero(bits[src])[1].reshape(len(src), k - 1).T + 1
        # finished intp indices (1.6 MiB in all for 2-12 points, 12.3 MiB
        # for 15) spare each layer two additions and the conversions to
        # intp that take and the fancy store would make on every call.
        # prevs comes out of the transpose in Fortran order; in C order
        # each previous point's row is contiguous, and the min is faster
        tgt, from_src, from_j = tgt * n + j, prevs + src * n, prevs + j * n
        width = _HK_CHUNK // len(prevs)  # states per chunk
        for lo in range(0, len(tgt), width):
            part = slice(lo, lo + width)
            chunks.append(tuple(np.ascontiguousarray(a[..., part], dtype=np.intp)
                                for a in (tgt, from_src, from_j)))
    return tuple(chunks)


def tsp_exact(rset: RelatedSet, cap: int = EXACT_SOLVER_CAP) -> Tour:
    """Optimal closed tour.  On a free group the Cayley graph is a tree
    and the points in sorted order of their letter tuples are an optimal
    tour, of any size (see ``_free_hull``); every other oracle runs
    Held-Karp on at most ``cap`` points."""
    if isinstance(rset.oracle, FreeOracle):
        order, _lcp, _meet, edges = rset.free_hull
        return Tour(tuple(order), 2 * edges, "exact")
    if rset.size > cap:
        raise ResourceLimitError(
            f"{rset.size} elements exceed the exact solver cap {cap}; use tsp_heuristic"
        )
    return _held_karp(rset.elements, rset.distances)


def _held_karp(pts, D) -> Tour:
    """Optimal closed tour of pts under the symmetric cost matrix D, by
    dynamic programming over subsets (Held-Karp), one popcount layer at
    a time; each state scores only the points of its source mask.  Ties
    go to the smallest previous point.  Costs are packed into 55 bits,
    so a set whose n times its largest cost reaches 2**55 raises
    ResourceLimitError."""
    n = len(pts)
    if n == 1:
        return Tour((pts[0],), 0, "exact")
    # every path the table scores has at most n steps
    if n * max(map(max, D)) >= 1 << 55:
        raise ResourceLimitError(
            "distances too large for the exact solver's 55-bit costs; use tsp_heuristic"
        )
    D = np.array(D, dtype=np.int64)
    # a state's key is its cost << 8 | its previous point, so the least
    # candidate key is the cheapest with the smallest previous point; D is
    # symmetric, so row j holds the step from each previous point to j
    step = (D << 8 | np.arange(n)).ravel()
    # a layer reads only the states the layer before it wrote, and its
    # chunks write distinct states, so chunk order does not matter
    key = np.empty((1 << (n - 1)) * n, dtype=np.int64)
    key[0] = 0
    for tgt, from_src, from_j in _held_karp_layers(n):
        cand = key.take(from_src)
        cand &= -256  # the source states' own previous points
        cand += step.take(from_j)
        key[tgt] = cand.min(0)
    full = (1 << (n - 1)) - 1
    closing = (key[full * n + 1:full * n + n] >> 8) + D[1:, 0]
    last = int(closing.argmin()) + 1
    best = int(closing[last - 1])
    order = []
    row = full
    while last:
        order.append(pts[last])
        row, last = row ^ (1 << (last - 1)), int(key[row * n + last]) & 255
    order.append(pts[0])
    order.reverse()
    return Tour(tuple(order), best, "exact")


def tsp_heuristic(rset: RelatedSet, seed: int = 0) -> Tour:
    """Nearest-neighbor start plus 2-opt improvement; a valid upper
    bound on L(S)."""
    pts = list(rset.elements)
    n = len(pts)
    if n == 1:
        return Tour((pts[0],), 0, "heuristic-upper")
    D = rset.distances
    rng = random.Random(seed)
    start = rng.randrange(n)
    order = [start]
    left = set(range(n)) - {start}
    while left:
        cur = order[-1]
        nxt = min(left, key=lambda j: (D[cur][j], j))
        order.append(nxt)
        left.remove(nxt)
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                a, b = order[i], order[i + 1]
                c, d = order[j], order[(j + 1) % n]
                if D[a][c] + D[b][d] < D[a][b] + D[c][d]:
                    order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
                    improved = True
    length = sum(D[a][b] for a, b in zip(order, order[1:] + order[:1]))
    return Tour(tuple(pts[i] for i in order), length, "heuristic-upper")


def _mst_edges(rset: RelatedSet):
    """Prim's algorithm on the complete oracle-metric graph, rooted at
    point 0: each point outside the tree keeps its (weight, parent) edge
    to the tree, and the least (weight, point) joins next."""
    D = rset.distances
    outside = {v: (D[0][v], 0) for v in range(1, len(D))}
    edges = []
    while outside:
        u = min(outside, key=lambda v: (outside[v][0], v))
        w, p = outside.pop(u)
        edges.append((p, u, w))
        for v, (best, _) in outside.items():
            if D[u][v] < best:
                outside[v] = (D[u][v], u)
    return edges


def _euler_tour(root, children):
    """Vertices of the closed walk that goes down and back up every edge
    of a rooted tree, depth first, root first and last; ``children(v)``
    lists v's children in visiting order."""
    walk = [root]
    stack = [(root, iter(children(root)))]
    while stack:
        for c in stack[-1][1]:
            walk.append(c)
            stack.append((c, iter(children(c))))
            break
        else:
            stack.pop()
            if stack:
                walk.append(stack[-1][0])
    return walk


def mst_bounds(rset: RelatedSet):
    """(lower, upper, witness): MST weight W with W <= L(S) <= 2W; the
    witness is the doubled-tree closed path of length exactly 2W."""
    pts = rset.elements
    o = rset.oracle
    if len(pts) == 1:
        return 0, 0, ClosedPath(o, (pts[0],))
    edges = _mst_edges(rset)
    weight = sum(w for _, _, w in edges)
    # Prim's tree is rooted at point 0: each edge runs parent -> child
    children: Dict[int, List[int]] = {i: [] for i in range(len(pts))}
    for u, v, _ in edges:
        children[u].append(v)
    walk = _euler_tour(0, lambda u: sorted(children[u]))
    points = [pts[0]]
    for u, v in zip(walk, walk[1:]):
        points.extend(o.geodesic_points(pts[u], pts[v])[1:])
    witness = ClosedPath(o, tuple(points))
    if witness.length != 2 * weight:
        raise InternalInvariantError("doubled-tree walk length mismatch")
    return weight, 2 * weight, witness


# ---------------------------------------------------------------------------
# The credited walk functional L'.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPrimeResult:
    value: int
    certified: bool  # always True: every group's L' is exact


def _free_hull(pts):
    """(order, lcp, meet, edges) of free-group words: the words in sorted
    order of their letter tuples, the length lcp[i] of the prefix word i
    shares with word i - 1 (0 for the first), the length `meet` of the
    prefix all of them share, and the edge count |H| - 1 of their hull.

    The hull H, the least subtree of the Cayley tree spanning the words,
    holds every prefix of a word at least `meet` long.  Sorted words
    sharing a prefix are consecutive, so word i adds to H its prefixes
    longer than max(meet, lcp[i]), and |H| - 1 = sum(|w_i| - max(meet,
    lcp[i])).  The sorted order walks H depth first: each hull edge
    splits the words into two nonempty sides, so every closed tour
    crosses it at least twice, and this one crosses it exactly twice,
    for a length of 2(|H| - 1)."""
    order = sorted(pts, key=lambda p: p.letters)
    lcp = [0] + [_common_prefix(a.letters, b.letters) for a, b in zip(order, order[1:])]
    meet = min(lcp[1:], default=len(order[0]))
    edges = sum(len(p) - max(meet, c) for p, c in zip(order, lcp))
    return order, lcp, meet, edges


def _l_prime_free(hull) -> int:
    """L' in the Cayley tree of a free group, counted from the sorted
    words of its hull (see ``_free_hull``).  The best walk doubles each
    hull edge and earns one credit per point at either end of an edge:
    each point longer than `meet` earns one for its parent edge, and
    each point one per child it has in the hull."""
    order, lcp, meet, edges = hull
    credits = sum(len(p) > meet for p in order)
    # lengths of the points that prefix the current word; a word whose
    # lcp is a prefixing point's length starts a new child of that point
    stack = []
    for p, c in zip(order, lcp):
        while stack and stack[-1] > c:
            stack.pop()
        if stack and stack[-1] == c:
            credits += 1
        stack.append(len(p))
    return 2 * edges - credits - 1


def l_prime(rset: RelatedSet) -> LPrimeResult:
    """Exact credited walk cost.

    Free groups: closed form on the spanning subtree (any size).  Every
    other group takes at most EXACT_SOLVER_CAP points and a tour under
    W, the shortest-path closure of D - 1 with a zero diagonal.  A
    closed walk's cost, steps minus arrivals in S, is the number of its
    landings outside S minus 1.  Between two consecutive landings in S,
    at a and b, it lands outside S at least d(a, b) - 1 times, and a
    geodesic does no worse; so L' + 1 is the shortest closed tour of S
    under W, which may pass through a point more than once.
    """
    if isinstance(rset.oracle, FreeOracle):
        return LPrimeResult(_l_prime_free(rset.free_hull), True)
    n = rset.size
    if n > EXACT_SOLVER_CAP:
        raise ResourceLimitError(f"{n} elements exceed cap {EXACT_SOLVER_CAP}")
    # Python ints, so distances past int64 reach Held-Karp's 55-bit check
    W = np.array(rset.distances, dtype=object) - 1
    np.fill_diagonal(W, 0)
    for k in range(n):
        np.minimum(W, W[:, k, None] + W[k], out=W)
    return LPrimeResult(_held_karp(rset.elements, W).length - 1, True)


# ---------------------------------------------------------------------------
# Sampling and the lambda experiment.
# ---------------------------------------------------------------------------


def random_element(oracle: GroupOracle, rng: random.Random, size: int):
    """Random element with components bounded by size."""
    if isinstance(oracle, FreeOracle):
        return random_word(rng, oracle.rank, rng.randint(0, size))
    if isinstance(oracle, AbelianOracle):
        return tuple(rng.randint(-size, size) for _ in range(oracle.dim))
    if isinstance(oracle, ProductOracle):
        return (
            random_element(oracle.left, rng, size),
            random_element(oracle.right, rng, size),
        )
    # F2xZ, whose generators mix the factors: a random generator walk.
    # Its free part is reduced on one letter stack and its z exponent
    # summed, so a walk costs the letters it pushes, not a copy of the
    # word per step; the draws are those of a multiply() walk
    gens = oracle.generators()
    stack, z = [], 0
    for _ in range(rng.randint(0, size)):
        word, t = rng.choice(gens)
        for a in word.letters:
            if stack and stack[-1] == -a:
                stack.pop()
            else:
                stack.append(a)
        z += t
    return Word._trusted(tuple(stack), oracle.rank), z


_SAMPLE_BASE_SIZE = 6  # random-walk length of each sampled pair or chain base


@dataclass
class SamplerConfig:
    samples: int = 100
    seed: int = 0
    max_size: int = 14
    style: str = "pairs"  # pairs | chains | mixed | box-pairs
    compute_lprime: bool = False

    def __post_init__(self):
        if self.max_size < 2:
            raise MalformedInputError(f"max_size must be >= 2, got {self.max_size}")


def _draw_box_pair(oracle: AbelianOracle, xi, rng: random.Random, max_size: int):
    """A box and its xi-translate, or None when their union exceeds
    max_size.  The union is related even when the two overlap, but only
    disjoint translates carry the pair structure."""
    dims = oracle.dim
    sides = [rng.randint(2, max(2, int(max_size ** (1 / dims)))) for _ in range(dims)]
    corner = tuple(rng.randint(-3, 3) for _ in range(dims))
    box = [tuple(c + d for c, d in zip(corner, delta))
           for delta in itertools.product(*map(range, sides))]
    translate = [oracle.multiply(x, xi) for x in box]
    union = set(box + translate)
    if len(union) > max_size:
        return None
    pairs = tuple(zip(box, translate)) if len(union) == 2 * len(box) else None
    return RelatedSet(oracle, xi, tuple(union), pairs)


def _draw_pairs(oracle: GroupOracle, xi, rng: random.Random, max_size: int, chains: bool):
    """Pairs {x, x xi}, or chains of consecutive pairs stepping xi once
    per element, until a drawn budget of elements is spent; None when
    two elements coincide."""
    elements: List[object] = []
    budget = rng.randint(2, max_size)
    while budget >= 2:
        chain = [random_element(oracle, rng, _SAMPLE_BASE_SIZE)]
        n_pairs = rng.randint(1, budget // 2) if chains else 1
        for _ in range(2 * n_pairs - 1):
            chain.append(oracle.multiply(chain[-1], xi))
        elements.extend(chain)
        budget -= 2 * n_pairs
    if len(set(elements)) < len(elements):
        return None
    pairs = tuple(zip(elements[::2], elements[1::2]))
    return RelatedSet(oracle, xi, tuple(elements), pairs)


def sample_related_set(oracle: GroupOracle, xi, config: SamplerConfig, index: int) -> RelatedSet:
    """Seeded revised related set; the sampler is the desk-scale
    substitute for quantifying over all finite sets.  Box-pairs sets
    whose translate overlaps the box are related but carry no pairs."""
    if xi == oracle.identity():
        raise DegenerateXiError("xi must be nontrivial")
    rng = random.Random(config.seed * 1_000_003 + index)
    style = config.style
    if style == "mixed":
        style = ("pairs", "chains")[rng.randrange(2)]
    if style == "box-pairs":
        if not isinstance(oracle, AbelianOracle):
            raise MalformedInputError("box-pairs sampling needs an abelian oracle")
        smallest = set(itertools.product((0, 1), repeat=oracle.dim))
        floor = len(smallest | {oracle.multiply(x, xi) for x in smallest})
        if floor > config.max_size:
            raise MalformedInputError(
                f"box-pairs needs max_size >= {floor}: the smallest box and its "
                f"xi-translate hold {floor} points"
            )
        draw = _draw_box_pair
    else:
        draw = functools.partial(_draw_pairs, chains=style == "chains")
    for _attempt in range(200):
        rset = draw(oracle, xi, rng, config.max_size)
        if rset is not None:
            return rset
    raise InternalInvariantError("sampler failed to build a valid revised set")


@dataclass
class ExperimentReport:
    oracle: str
    xi: str
    lam: str
    per_sample: List[dict]
    min_ratio: Optional[str]
    violations: List[dict]
    config: dict

    def to_dict(self):
        return {
            "group": self.oracle,
            "xi": self.xi,
            "lambda": self.lam,
            "per_sample": self.per_sample,
            "min_ratio": self.min_ratio,
            "violations": self.violations,
            "sampler": self.config,
        }


def _experiment_sample(oracle: GroupOracle, xi, config: SamplerConfig, index: int):
    """One sample of the lambda experiment: its per-sample row and the
    elements of its related set.  A pure function of its arguments, so
    samples may run in any order or process."""
    rset = sample_related_set(oracle, xi, config, index)
    tour = tsp_exact(rset)
    row = {"size": rset.size, "L": tour.length, "ratio": str(Fraction(tour.length, rset.size))}
    if config.compute_lprime:
        row["Lprime"] = l_prime(rset).value
    return row, rset.elements


def ts_lambda_experiment(oracle: GroupOracle, xi, lam, config: SamplerConfig,
                         map=map) -> ExperimentReport:
    """Sample related sets, solve them exactly, and report the minimum
    of L(S)/|S| against the target lambda, with every violating set.

    ``map`` runs the samples; pass an executor's ``map`` to spread them
    over workers.  It must return results in sample order, as the
    builtin does.
    """
    if xi == oracle.identity():
        # x and x xi coincide, so the sampler could never build a pair
        raise MalformedInputError("xi must be a nontrivial element")
    lam = Fraction(str(lam))
    samples = map(_experiment_sample, itertools.repeat(oracle), itertools.repeat(xi),
                  itertools.repeat(config), range(config.samples))
    per_sample = []
    violations = []
    for row, elements in samples:
        per_sample.append(row)
        if Fraction(row["L"]) < lam * row["size"]:
            violations.append(
                {
                    "size": row["size"],
                    "L": row["L"],
                    "elements": [oracle.format_element(g) for g in elements],
                }
            )
    min_ratio = min((Fraction(row["ratio"]) for row in per_sample), default=None)
    return ExperimentReport(
        oracle=oracle.descriptor,
        xi=oracle.format_element(xi),
        lam=str(lam),
        per_sample=per_sample,
        min_ratio=str(min_ratio) if min_ratio is not None else None,
        violations=violations,
        config={
            "samples": config.samples,
            "seed": config.seed,
            "max_size": config.max_size,
            "style": config.style,
        },
    )


# ---------------------------------------------------------------------------
# Folner traversal demonstration (abelian groups are not TS).
# ---------------------------------------------------------------------------


def xi_boundary(points, xi, oracle: GroupOracle):
    """Members whose xi-translates both leave the set (the boundary
    notion the spanning-tree traversal argument uses)."""
    members = set(points)
    inv = oracle.inverse(xi)
    return sorted(
        (
            x
            for x in members
            if oracle.multiply(x, xi) not in members
            and oracle.multiply(x, inv) not in members
        ),
        key=oracle.sort_key,
    )


def k_boundary(points, k_set, oracle: GroupOracle):
    """Members x such that x*K^-1*K is not contained in the set (the
    Folner-interior complement)."""
    members = set(points)
    diffs = {
        oracle.multiply(oracle.inverse(k1), k2) for k1 in k_set for k2 in k_set
    }
    out = []
    for x in members:
        if any(oracle.multiply(x, d) not in members for d in diffs):
            out.append(x)
    return sorted(out, key=oracle.sort_key)


@dataclass
class FolnerReport:
    box: List[Tuple[int, int]]
    xi: str
    size: int
    boundary_size: int
    interior_size: int
    traversal_length: int
    two_f: int
    chain_ok: bool
    degenerate: bool
    interior_related: bool
    traversal: ClosedPath

    def to_dict(self):
        return {
            "box": [list(b) for b in self.box],
            "xi": self.xi,
            "F": self.size,
            "boundary": self.boundary_size,
            "interior": self.interior_size,
            "traversal_length": self.traversal_length,
            "2F": self.two_f,
            "chain_ok": self.chain_ok,
            "degenerate": self.degenerate,
            "interior_related": self.interior_related,
        }


def folner_traversal_demo(oracle: AbelianOracle, box, xi) -> FolnerReport:
    """Spanning-tree traversal of a box F: a closed path of length
    2(|F|-1) <= 2|F| visiting all of F (hence all of F minus its
    xi-boundary), the concrete witness that lattice boxes travel at
    ratio at most 2.5."""
    if not isinstance(oracle, AbelianOracle):
        raise MalformedInputError("the traversal demo runs on abelian oracles")
    box = [tuple(b) for b in box]
    if len(box) != oracle.dim:
        raise MalformedInputError("box spec must give one (lo, hi) per dimension")
    points = [
        tuple(v) for v in itertools.product(*[range(lo, hi + 1) for lo, hi in box])
    ]
    members = set(points)
    if not members:
        raise PreconditionError("empty box")
    # spanning tree by DFS over grid edges
    root = points[0]
    seen = {root}
    stack = [(root, None)]
    tree_children: Dict[tuple, list] = {p: [] for p in points}
    while stack:
        v, par = stack.pop()
        if par is not None:
            tree_children[par].append(v)
        for s in oracle.generators():
            w = oracle.multiply(v, s)
            if w in members and w not in seen:
                seen.add(w)
                stack.append((w, v))
    if len(seen) != len(members):
        raise PreconditionError("box subgraph is disconnected")
    walk = _euler_tour(root, tree_children.__getitem__)
    traversal = ClosedPath(oracle, tuple(walk))
    boundary = xi_boundary(points, xi, oracle)
    interior = [p for p in points if p not in set(boundary)]
    related = False
    if interior:
        related, _ = is_xi_related(interior, xi, oracle)
    degenerate = not interior
    chain_ok = (
        not degenerate
        and traversal.length <= 2 * len(points)
        and 4 * len(points) <= 5 * len(interior)
    )
    return FolnerReport(
        box=box,
        xi=oracle.format_element(xi),
        size=len(points),
        boundary_size=len(boundary),
        interior_size=len(interior),
        traversal_length=traversal.length,
        two_f=2 * len(points),
        chain_ok=chain_ok,
        degenerate=degenerate,
        interior_related=related,
        traversal=traversal,
    )
