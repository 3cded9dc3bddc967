"""Square-free sequence generation and online edge labelings of rays
and plane ternary trees.

The adversarial labelers implement an online protocol: at each vertex
the library first commits an inadmissible element z_v taken from the
vertex's candidate set F_v, then an adversary picks the actual labels
from F_v minus the inadmissible one.  The designation never looks at
future adversary choices; all the interesting state lives in the
threat-tracking engine below, which keeps the label sequence along any
ray 4-aperiodic and hence along any simple tree path 10-aperiodic (an
eleventh power crossing a path's apex would put five whole copies into
one ray leg).  The engine is an immutable value: observing a label
returns the next engine, so the tree labeler gives each child its own
engine without copying or undoing anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .errors import MalformedInputError
from .trees import PlaneTernaryTree

__all__ = [
    "squarefree_ternary",
    "LabeledTree",
    "label_tree_three_letters",
    "InadmissibleEngine",
    "label_ray_adversarial",
    "label_tree_adversarial",
    "random_ray_adversary",
    "greedy_ray_adversary",
    "random_tree_adversary",
    "greedy_tree_adversary",
]


# ---------------------------------------------------------------------------
# Square-free ternary sequence: fixed point of A -> ABC, B -> AC, C -> B,
# a standard square-free morphism.  Deterministic so golden files stay
# stable.  The buffer grows geometrically and is cached between calls.
# ---------------------------------------------------------------------------

_MORPHISM = {"A": "ABC", "B": "AC", "C": "B"}
_sf_buffer = "A"


def squarefree_ternary(n: int) -> str:
    """First n letters of the fixed square-free sequence over {A, B, C}."""
    global _sf_buffer
    if n < 1:
        raise MalformedInputError(f"need n >= 1, got {n}")
    while len(_sf_buffer) < n:
        _sf_buffer = "".join(_MORPHISM[c] for c in _sf_buffer)
    return _sf_buffer[:n]


def _pair_stream_letter(idx: int, p, q):
    """Letter idx of the square-free-over-pairs sequence flattened to
    two symbols: A -> (p,q), B -> (q,p), C -> (p,p)."""
    block = squarefree_ternary(idx // 2 + 1)[idx // 2]
    if block == "A":
        return (p, q)[idx % 2]
    if block == "B":
        return (q, p)[idx % 2]
    return p


# ---------------------------------------------------------------------------
# Labeled trees.
# ---------------------------------------------------------------------------


@dataclass
class LabeledTree:
    """Edge labeling of a plane tree.  edge_labels is keyed by the child
    vertex of each edge; the inadmissible label of each vertex is
    present only for adversarial labelings."""

    tree: PlaneTernaryTree
    edge_labels: Dict[int, object]
    inadmissibles: Optional[Dict[int, object]] = None

    def path_labels(self, path: Sequence[int]) -> List[object]:
        """Labels along a simple path, read edge by edge.  The path
        climbs from its start by parent steps, may turn once into a
        child other than the vertex it just left, and from then on only
        descends; anything else is not a simple path.  The walk is two
        loops: the climb stops at the first step that is not a parent
        step, the turn is checked once, and the descent checks only
        child steps.  `path` must support indexing and slicing (a list,
        tuple or range).  Memory is linear in the path's length."""
        parent, labels = self.tree.parent, self.edge_labels
        out = []
        try:
            a = path[0]
            steps = iter(path[1:])
            for b in steps:
                if parent[a] != b:  # an unknown start raises KeyError
                    break
                out.append(labels[a])
                a = b
            else:
                parent[a]  # so does a path of one unknown vertex
                return out
            # the turn: b is a child of a, and not the one just left
            if parent[b] != a or (out and b == path[len(out) - 1]):
                raise MalformedInputError("not a path in the tree")
            out.append(labels[b])
            a = b
            for b in steps:
                if parent[b] != a:
                    raise MalformedInputError("not a path in the tree")
                out.append(labels[b])
                a = b
        except (IndexError, KeyError, TypeError):
            raise MalformedInputError("not a path in the tree") from None
        return out


def label_tree_three_letters(tree: PlaneTernaryTree) -> LabeledTree:
    """Depth-uniform labeling over {A, B, C}: every edge from level n to
    level n+1 carries letter n of the square-free sequence, so every
    ray from the origin reads the same square-free word and every
    simple path is 3-aperiodic."""
    level = tree.levels()
    seq = squarefree_ternary(max(level.values()) + 1)
    return LabeledTree(tree, {v: seq[level[v] - 1] for v in tree.vertices() if v != tree.ORIGIN})


# ---------------------------------------------------------------------------
# The inadmissible-element engine.
#
# The designation is reactive: for every period p, designate reads
# the longest p-periodic suffix off the history of labels.  A pattern
# that has reached 4 full copies is a live threat; banning its unique
# continuation letter while it stays live kills the fifth copy at its
# first letter.  Threats are ranked by how few letters remain until a
# fifth power would complete, closest first, so the only way a fifth
# power could ever land is a chain of mutually outranking threats with
# pairwise different continuation letters, which the adversary cannot
# sustain (two-state excursion schemes driven by a fixed master
# sequence, by contrast, can be steered into long powers).  On
# threat-free steps the designation pads along the flattened square-free
# pair stream, which keeps the two-letter case deterministic.
#
# When the vertex's candidate set cannot play a threat's continuation
# anyway, that threat is skipped and the next one is banned.
# ---------------------------------------------------------------------------


def _ordered(tokens) -> tuple:
    """The tokens in their natural order, which the labelers use."""
    try:
        return tuple(sorted(tokens))
    except TypeError:
        raise MalformedInputError("candidate tokens have no common order") from None


class InadmissibleEngine:
    """Online designator of inadmissible elements, as an immutable value.

    ``designate`` is a pure function of the engine; ``observe`` returns
    the engine that has also seen the adversary's actual label and
    leaves this one as it was.  So a tree labeler hands each child the
    engine its parent observed into, and every root-to-vertex label
    path is one honest run of the engine: the ray guarantee becomes the
    tree guarantee.

    The engine holds only its two pad tokens, in the caller's token
    order, and its history.  A designation reads each period's run up
    to n // 4 off the n labels, in O(n/4 + the runs it walks), so
    labeling a ray is quadratic in its depth.
    """

    def __init__(self, pads):
        # a set has no order to take the pads in
        if isinstance(pads, (set, frozenset)) or len(pads) != 2 or pads[0] == pads[1]:
            raise MalformedInputError("the pads must be two distinct tokens, in order")
        self.pads, self.history = tuple(pads), ()

    def designate(self, candidates) -> object:
        """The inadmissible element for the current step, drawn from the
        candidates, a non-empty sequence in the caller's token order."""
        if isinstance(candidates, (set, frozenset)) or not candidates:
            raise MalformedInputError("the candidates must be a non-empty sequence, in order")
        h, n = self.history, len(self.history)
        # live threats as (letters left to a fifth power, p, continuation
        # letter), where the p-periodic suffix has length p + run; p
        # differs between threats, so letters are never compared
        threats = []
        for p in range(1, n // 4 + 1):
            i = n - 1
            while i >= p and h[i] == h[i - p]:
                i -= 1
            run = n - 1 - i
            if run >= 3 * p and h[n - p] in candidates:
                threats.append((4 * p - run, p, h[n - p]))
        if threats:
            return min(threats)[2]
        pad = _pair_stream_letter(n, *self.pads)
        if pad in candidates:
            return pad
        return candidates[0]

    def observe(self, x) -> "InadmissibleEngine":
        """The engine after the label x; this one is unchanged."""
        nxt = object.__new__(type(self))
        nxt.pads = self.pads
        nxt.history = self.history + (x,)
        return nxt


def _normalize_candidates(candidates, count, minimum):
    if isinstance(candidates, (list, tuple)) and candidates and all(
        isinstance(c, (set, frozenset)) for c in candidates
    ):
        sets = [frozenset(c) for c in candidates]
        if len(sets) < count:
            raise MalformedInputError(
                f"need {count} candidate sets, got {len(sets)}"
            )
        sets = sets[:count]
    else:
        sets = [frozenset(candidates)] * count
    for fv in sets:
        if len(fv) < minimum:
            raise MalformedInputError(
                f"candidate set {sorted(map(str, fv))} smaller than {minimum}"
            )
    return sets


def label_ray_adversarial(length: int, candidates, adversary: Callable):
    """Label a ray online against an adversary.

    candidates: one token collection reused everywhere (tuple tokens
    such as abelian elements included), or a list or tuple of per-vertex
    sets or frozensets, each of size >= 2.  adversary(i, F_v, z_v)
    returns the label for step i and must avoid z_v.  Returns
    (labels, inadmissibles).  The tokens take their natural order, so
    they must compare with each other.
    """
    if length < 1:
        raise MalformedInputError("ray length must be >= 1")
    sets = _normalize_candidates(candidates, length, 2)
    engine = InadmissibleEngine(_ordered(set().union(*sets))[:2])
    zs = []
    for i in range(length):
        z = engine.designate(_ordered(sets[i]))
        x = adversary(i, sets[i], z)
        if x not in sets[i] or x == z:
            raise MalformedInputError(
                f"adversary chose {x!r} at step {i}, not an admissible element"
            )
        engine = engine.observe(x)
        zs.append(z)
    return list(engine.history), zs


def label_tree_adversarial(tree: PlaneTernaryTree, candidates, adversary: Callable) -> LabeledTree:
    """Label all lower edges of a plane ternary tree online.

    candidates: one collection F_v, shared by every vertex, of size >= 4.
    adversary(v, F_v, z_v, k) returns k distinct admissible labels for
    the k lower edges of v, mapped to children left to right.  The
    tokens take their natural order, as in ``label_ray_adversarial``.
    """
    fv = frozenset(candidates)
    if len(fv) < 4:
        raise MalformedInputError("candidate set smaller than 4")
    for v in tree.vertices():
        if len(tree.children[v]) >= len(fv):
            raise MalformedInputError(
                f"vertex {v} has {len(tree.children[v])} children but only "
                f"{len(fv) - 1} admissible labels"
            )
    order = _ordered(fv)
    states = {tree.ORIGIN: InadmissibleEngine(order[:2])}
    labels: Dict[int, object] = {}
    inadmissibles: Dict[int, object] = {}
    for v in tree.planar_order():
        engine = states.pop(v)
        kids = tree.children[v]
        z = engine.designate(order)
        inadmissibles[v] = z
        if not kids:
            continue
        picks = tuple(adversary(v, fv, z, len(kids)))
        if len(picks) != len(kids) or len(set(picks)) != len(picks):
            raise MalformedInputError(
                f"adversary must return {len(kids)} distinct labels at vertex {v}"
            )
        for x in picks:
            if x not in fv or x == z:
                raise MalformedInputError(
                    f"adversary chose inadmissible label {x!r} at vertex {v}"
                )
        for child, x in zip(kids, picks):
            labels[child] = x
            states[child] = engine.observe(x)
    return LabeledTree(tree, labels, inadmissibles=inadmissibles)


# ---------------------------------------------------------------------------
# Stock adversaries.
# ---------------------------------------------------------------------------


def random_ray_adversary(seed: int) -> Callable:
    rng = random.Random(seed)

    def pick(i, fv, z):
        return rng.choice(sorted(t for t in fv if t != z))

    return pick


def greedy_ray_adversary() -> Callable:
    def pick(i, fv, z):
        return min(t for t in fv if t != z)

    return pick


def random_tree_adversary(seed: int) -> Callable:
    rng = random.Random(seed)

    def pick(v, fv, z, k):
        pool = sorted(t for t in fv if t != z)
        return tuple(rng.sample(pool, k))

    return pick


def greedy_tree_adversary() -> Callable:
    def pick(v, fv, z, k):
        pool = sorted(t for t in fv if t != z)
        return tuple(pool[:k])

    return pick
