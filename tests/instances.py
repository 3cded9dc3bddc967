"""Instance generators shared by the forest tests and the acceptance
suite."""

import random

from ts_groups.groups import make_oracle
from ts_groups.tours import RelatedSet, Tour, tour_of_order
from ts_groups.words import Word, first_aperiodic_word, parse_word

_FREE2 = make_oracle("free:2")


def _rand_word(rng, lo, hi):
    letters = []
    for _ in range(rng.randint(lo, hi)):
        opts = [a for a in (1, -1, 2, -2) if not letters or a != -letters[-1]]
        letters.append(rng.choice(opts))
    return Word(tuple(letters), 2)


def cluster_instance(seed, r, deep=True, deep_size=4):
    """A revised related set in free:2 shaped for nontrivial forests: a
    root cluster of 3 mutually close elements pair-linked outward, one
    partner optionally carrying its own cluster of piece neighbors.

    Returns (rset, xi, cluster_tour): the tour visits clusters
    contiguously, which no exact tour does here (tree geodesics dive
    into each partner branch), so it is emitted as a heuristic tour.
    """
    rng = random.Random(seed)
    xi = first_aperiodic_word(2, 4 * r + 1)
    for _ in range(200):
        h = _rand_word(rng, 1, 3)
        s1, s2 = _rand_word(rng, 1, 2), _rand_word(rng, 1, 2)
        root = [h, h * s1, h * s2]
        ys = [_FREE2.multiply(x, xi) for x in root]
        pairs = list(zip(root, ys))
        deep_cluster = []
        fs = []
        if deep:
            y = ys[0]
            offs = set()
            while len(fs) < deep_size:
                t = _rand_word(rng, 1, 2)
                if len(t) and t not in offs:
                    offs.add(t)
                    fs.append(y * t)
            deep_cluster = [y] + fs
            for f in fs:
                pairs.append((f, _FREE2.multiply(f, xi)))
        elements = [x for p in pairs for x in p]
        if len(set(elements)) != len(elements):
            continue
        try:
            rset = RelatedSet(_FREE2, xi, tuple(elements), tuple(pairs))
        except Exception:
            continue
        order = list(root)
        if deep:
            order += deep_cluster + ys[1:]
            order += [_FREE2.multiply(f, xi) for f in fs]
        else:
            order += ys
        tour = tour_of_order(rset, order, "heuristic-upper")
        return rset, xi, tour
    raise RuntimeError(f"no cluster instance for seed {seed}")


def nested_cluster_instance(r, depth=3):
    """A revised related set in free:2 whose clusters nest ``depth``
    levels deep: a root cluster {h, h b, h B}; around the partner of h,
    a cluster of three piece neighbors; and around the partner of every
    member of a cluster but the last level's, a cluster of its own.  A
    forest grows one level per cluster, and every vertex opened at a
    cluster's center has three piece candidates.

    Returns (rset, xi, tour): the tour visits each cluster contiguously
    and then the last level's partners, as a heuristic tour.
    """
    xi = first_aperiodic_word(2, 4 * r + 1)
    h = parse_word("a", 2)
    offsets = [parse_word(t, 2) for t in ("a", "b", "B")]
    pieces = [[h, h * offsets[1], h * offsets[2]]]
    firsts = list(pieces[0])
    centers = [h * xi]
    for _ in range(depth - 1):
        members = [[c * t for t in offsets] for c in centers]
        pieces += [[c] + ms for c, ms in zip(centers, members)]
        firsts += [m for ms in members for m in ms]
        centers = [m * xi for ms in members for m in ms]
    pairs = tuple((x, x * xi) for x in firsts)
    rset = RelatedSet(_FREE2, xi, tuple(x for p in pairs for x in p), pairs)
    placed = {x for p in pieces for x in p}
    order = [x for p in pieces for x in p] + [y for _, y in pairs if y not in placed]
    return rset, xi, tour_of_order(rset, order, "heuristic-upper")


def pair_instance(seed, r, n_pairs=4):
    """Plain disjoint-pair instance (singleton pieces, trivial forests)."""
    rng = random.Random(seed)
    xi = first_aperiodic_word(2, 4 * r + 1)
    for _ in range(200):
        pairs = []
        for _ in range(n_pairs):
            g = _rand_word(rng, 1, 4)
            pairs.append((g, _FREE2.multiply(g, xi)))
        elements = [x for p in pairs for x in p]
        if len(set(elements)) != len(elements):
            continue
        try:
            return RelatedSet(_FREE2, xi, tuple(elements), tuple(pairs)), xi
        except Exception:
            continue
    raise RuntimeError(f"no pair instance for seed {seed}")
