"""Naive reference implementations used as independent test oracles.

These stay deliberately simple (triple loops, permutation sweeps) so
they cannot share a bug with the production code paths they check.
"""

import bisect
import heapq
import itertools
from collections import deque
from types import SimpleNamespace
from typing import List

from ts_groups.cancellation import Piece
from ts_groups.errors import InternalInvariantError, MalformedInputError, ResourceLimitError
from ts_groups.sequences import _pair_stream_letter, _token_sort_key
from ts_groups.words import Word


def naive_max_power_order(tokens):
    """Scan all (start, period) pairs directly."""
    tokens = list(tokens)
    n = len(tokens)
    best = 1
    for start in range(n):
        for period in range(1, n - start + 1):
            count = 1
            while True:
                lo = start + count * period
                hi = lo + period
                if hi > n or tokens[lo:hi] != tokens[start : start + period]:
                    break
                count += 1
            best = max(best, count)
    return best


def _scan_period(tokens, p):
    """(best run length, start) of seq[i] == seq[i+p] runs."""
    best_len = 0
    best_start = 0
    run = 0
    for i in range(len(tokens) - p):
        if tokens[i] == tokens[i + p]:
            run += 1
            if run > best_len:
                best_len = run
                best_start = i - run + 1
        else:
            run = 0
    return best_len, best_start


def period_scan_reference(tokens, max_period=None, stop_at_order=None):
    """The per-period power scan kept literal: at each period, the first
    longest run of matches tokens[i] == tokens[i+p].  Same contract as
    `words._power_scan`: (order, start, period)."""
    n = len(tokens)
    if n == 0:
        return 1, 0, 0
    limit = n // 2 if max_period is None else min(max_period, n // 2)
    best_order, best_start, best_period = 1, 0, 0
    for p in range(1, limit + 1):
        if n // p <= best_order and stop_at_order is None:
            break
        run, start = _scan_period(tokens, p)
        order = (run + p) // p
        if order > best_order:
            best_order, best_start, best_period = order, start, p
            if stop_at_order is not None and best_order >= stop_at_order:
                break
    return best_order, best_start, best_period


def first_power_reference(tokens, order, first=1):
    """The anchored run probe alone, at every period; same contract as
    `words._first_power`."""
    n = len(tokens)
    for p in range(first, n // order + 1):
        need = p * (order - 1)
        m = n - p
        run, start = 0, 0
        i = need - 1
        while i < m:
            if tokens[i] != tokens[i + p]:
                i += need
                continue
            lo, hi = i, i + 1
            while lo > 0 and tokens[lo - 1] == tokens[lo - 1 + p]:
                lo -= 1
            while hi < m and tokens[hi] == tokens[hi + p]:
                hi += 1
            if hi - lo > run and hi - lo >= need:
                run, start = hi - lo, lo
            i = hi + need
        if run:
            return (run + p) // p, start, p
    return None


def naive_pieces(words):
    """All maximal common prefixes of distinct words in an explicit
    inverse-closed list; returns the set of prefixes as tuples."""
    out = set()
    for u, v in itertools.combinations(words, 2):
        k = 0
        while k < min(len(u), len(v)) and u[k] == v[k]:
            k += 1
        if k:
            out.add(tuple(u[:k]))
    return out


# The two-engine piece analysis that `satisfies_small_cancellation`
# replaced, kept literal apart from summing the letters and reading
# `sset.base` inline: pairwise enumeration of cyclic occurrences or
# elements up to _ENUMERATION_CAP letters, and above it a binary search
# over the length of a repeated window (cyclic sets only).

_ENUMERATION_CAP = 2000  # total letters; beyond this use the window scan


def _cyclic_lcp(w1, r1, w2, r2):
    """Length of the common prefix of two cyclic occurrences, capped at
    min(len) - 1."""
    n1, n2 = len(w1), len(w2)
    cap = min(n1, n2) - 1
    k = 0
    while k < cap and w1.letters[(r1 + k) % n1] == w2.letters[(r2 + k) % n2]:
        k += 1
    return k


def _linear_lcp(w1, w2):
    k = 0
    m = min(len(w1), len(w2))
    while k < m and w1.letters[k] == w2.letters[k]:
        k += 1
    return k


def pieces(sset, cap=_ENUMERATION_CAP):
    """All maximal common prefixes between distinct elements (or distinct
    cyclic occurrences), longest first."""
    if sum(len(w) for w in sset.base) > cap:
        raise ResourceLimitError(
            f"piece enumeration capped at total length {cap}; "
            "use satisfies_small_cancellation for large relators"
        )
    found = {}
    if sset.cyclic:
        occs = [
            (wi, r) for wi, w in enumerate(sset.base) for r in range(len(w))
        ]
        for a in range(len(occs)):
            wi, ri = occs[a]
            for b in range(a + 1, len(occs)):
                wj, rj = occs[b]
                k = _cyclic_lcp(sset.base[wi], ri, sset.base[wj], rj)
                if k == 0:
                    continue
                w = sset.base[wi]
                piece = Word(
                    tuple(w.letters[(ri + t) % len(w)] for t in range(k)), w.rank
                )
                found.setdefault(piece, []).append(((wi, ri), (wj, rj)))
    else:
        elems = sset.base
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                k = _linear_lcp(elems[i], elems[j])
                if k == 0:
                    continue
                piece = elems[i].subword(0, k)
                found.setdefault(piece, []).append((i, j))
    return [Piece(w, tuple(locs)) for w, locs in sorted(found.items(), key=lambda kv: (-len(kv[0]), kv[0].letters))]


def _doubled_windows(w):
    # letters fit a byte for rank <= 63; wider alphabets fall back to
    # tuple slices (slower, same semantics)
    if w.rank <= 63:
        return bytes(128 + a for a in w.letters) * 2
    return w.letters * 2


def _has_repeated_window(sset, length):
    """A window of the given length occurring at two distinct cyclic
    positions, or None.  Only meaningful for cyclic sets."""
    if length < 1:
        return None
    seen = {}
    for wi, w in enumerate(sset.base):
        n = len(w)
        if length > n - 1:
            continue
        doubled = _doubled_windows(w)
        for i in range(n):
            key = doubled[i : i + length]
            other = seen.get(key)
            if other is not None and other != (wi, i):
                return other, (wi, i)
            seen.setdefault(key, (wi, i))
    return None


# The cyclic C'(lambda) scan on another encoding (_doubled_windows):
# a cross-check of the fixed-width byte windows.


def repeated_window_reference(base, num, den):
    """Two distinct cyclic occurrences sharing a window of length
    ceil(num/den * n), n the shorter host's length, or None."""
    doubled = [_doubled_windows(w) for w in base]
    for n in sorted({len(w) for w in base}):
        t = -(-num * n // den)  # ceil
        if t > n - 1:
            continue
        # windows of the length-n relators go in, longer ones look up
        hosts = sorted(
            (wi for wi, w in enumerate(base) if len(w) >= n),
            key=lambda wi: len(base[wi]) > n,
        )
        seen = {}
        for wi in hosts:
            windows, insert = doubled[wi], len(base[wi]) == n
            for i in range(len(base[wi])):
                key = windows[i : i + t]
                other = seen.get(key)
                if other is not None:
                    return other, (wi, i)
                if insert:
                    seen[key] = (wi, i)
    return None


def max_piece_length(sset):
    """Length of the longest piece (0 when there is none)."""
    if sum(len(w) for w in sset.base) <= _ENUMERATION_CAP:
        ps = pieces(sset)
        return len(ps[0].word) if ps else 0
    if not sset.cyclic:
        raise ResourceLimitError(
            "max_piece_length on large non-cyclic sets is not supported"
        )
    lo, hi = 0, max(len(w) for w in sset.base) - 1
    # repeated windows are monotone in length, so binary search
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _has_repeated_window(sset, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def brute_tour_length(oracle, pts):
    """Optimal closed tour by permutation sweep over the matrix of
    ``oracle.distance`` between the points, read once."""
    pts = list(pts)
    if len(pts) == 1:
        return 0
    D = [[oracle.distance(a, b) for b in pts] for a in pts]
    best = None
    for perm in itertools.permutations(range(1, len(pts))):
        order = (0, *perm, 0)
        total = sum(D[u][v] for u, v in zip(order, order[1:]))
        best = total if best is None else min(best, total)
    return best


def free_sphere_count(rank, r):
    """Closed-form size of the sphere of radius r in the free group of
    the given rank, used to cross-check ball enumeration."""
    if r == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (r - 1)


def bfs_lengths(oracle, depth):
    """Every element within the given Cayley distance, with its exact
    length, by plain breadth-first search."""
    dist = {oracle.identity(): 0}
    frontier = deque([oracle.identity()])
    while frontier:
        g = frontier.popleft()
        if dist[g] == depth:
            continue
        for s in oracle.generators():
            h = oracle.multiply(g, s)
            if h not in dist:
                dist[h] = dist[g] + 1
                frontier.append(h)
    return dist


def f2xz_dp_reference(oracle, g):
    """The balance DP that computed F2xZ lengths before the convex
    greedy, kept literal apart from its memo: (length, picks)."""
    ks, signs = oracle._syllables(g[0].letters)
    t = g[1]
    n = oracle.n
    # Per-syllable block counts: the cost |d| + |k - n d| is convex
    # with full slope beyond [min(0, k//n) - 1, max(0, k//n + 1)],
    # and beyond-zone deviations of an optimal solution all point one
    # way and can be spread evenly, so widening each zone by |t|
    # keeps an optimal assignment inside the ranges.
    slack = abs(t) + 1
    ranges = []
    for k in ks:
        base = k // n
        ranges.append((min(base, 0) - slack, max(base + 1, 0) + slack))
    # capacity[j]: largest |balance| the syllables from j on can add
    capacity = [0] * (len(ks) + 1)
    for j in range(len(ks) - 1, -1, -1):
        lo, hi = ranges[j]
        capacity[j] = capacity[j + 1] + max(abs(lo), abs(hi))
    states = {0: (0, ())}  # balance so far -> (cost, choices)
    for j, k in enumerate(ks):
        lo, hi = ranges[j]
        nxt = {}
        for bal, (cost, picks) in states.items():
            for d in range(lo, hi + 1):
                c = cost + abs(d) + abs(k - n * d)
                b2 = bal + d
                cur = nxt.get(b2)
                if cur is None or c < cur[0]:
                    nxt[b2] = (c, picks + (d,))
        # drop balances that cannot reach t with the capacity left
        states = {
            b: v for b, v in nxt.items() if abs(t - b) <= capacity[j + 1]
        }
    if t not in states:
        raise InternalInvariantError("balance search missed the target")
    cost, picks = states[t]
    return (len(signs) + cost, picks)


def held_karp_reference(D):
    """Optimal closed tour over the distance matrix D by the plain
    dynamic program over subsets: (length, visiting order as indices
    from 0).  Ties go to the smallest previous point."""
    n = len(D)
    if n == 1:
        return 0, [0]
    INF = float("inf")
    size = 1 << n
    dp = [[INF] * n for _ in range(size)]
    par = [[-1] * n for _ in range(size)]
    dp[1][0] = 0
    for mask in range(1, size):
        if not mask & 1:
            continue
        row = dp[mask]
        for last in range(n):
            c = row[last]
            if c == INF or not (mask >> last) & 1:
                continue
            Dl = D[last]
            for j in range(1, n):
                if (mask >> j) & 1:
                    continue
                m2 = mask | (1 << j)
                c2 = c + Dl[j]
                if c2 < dp[m2][j]:
                    dp[m2][j] = c2
                    par[m2][j] = last
    full = size - 1
    best, best_last = INF, -1
    for last in range(1, n):
        c = dp[full][last] + D[last][0]
        if c < best:
            best, best_last = c, last
    order = []
    mask, last = full, best_last
    while last != -1:
        order.append(last)
        mask, last = mask ^ (1 << last), par[mask][last]
    order.reverse()
    return int(best), order


def flip_conditions_reference(n, b_positions, flips, params):
    """The marker word's four flip-set conditions scanned window start
    by window start; same contract as `markers._verify_flip_conditions`."""
    flips = sorted(flips)
    bset = sorted(b_positions)
    out = {}
    gaps = [b - a for a, b in zip(flips, flips[1:])]
    out["distinct_gaps"] = {
        "pass": len(gaps) == len(set(gaps)),
        "detail": f"{len(gaps)} gaps, {len(set(gaps))} distinct",
    }
    w = params.end_window
    ok = True
    zones = list(range(0, params.end_zone_a - 1)) + list(
        range(n - params.end_zone_b_lo, n - params.end_zone_b_hi - 1)
    )
    for u in zones:
        if not any(u <= d <= u + w for d in flips):
            ok = False
            break
    out["end_density"] = {"pass": ok, "detail": f"window {w} over both end zones"}
    ok = True
    for u in range(0, n - params.global_window):
        lo_idx = bisect.bisect_left(flips, u)
        if lo_idx >= len(flips) or flips[lo_idx] > u + params.global_window:
            ok = False
            break
    out["global_density"] = {
        "pass": ok,
        "detail": f"window {params.global_window} everywhere",
    }
    ok = True
    dw = params.density_window
    for u in range(0, n - dw):
        nb = bisect.bisect_right(bset, u + dw) - bisect.bisect_left(bset, u)
        nd = bisect.bisect_right(flips, u + dw) - bisect.bisect_left(flips, u)
        if not 3 * nd < nb:
            ok = False
            break
    out["local_sparsity"] = {
        "pass": ok,
        "detail": f"flips below 1/3 of b-letters in every {dw}-window",
    }
    return out


def select_flips_reference(n, b_positions, params, rng):
    """The marker word's greedy flip selection with each pick a scan
    over every b-position of its gap window; same contract as
    `markers._select_flips`, kept literal."""
    dense_hi = params.end_zone_a + params.end_window + 20
    dense_lo = n - params.end_zone_b_lo - params.end_window - 20
    small = (max(8, params.end_window // 3), params.end_window - 3)
    coarse_hi = params.global_window - params.end_window - 10

    used_gaps = set()
    flips: List[int] = []

    def pick_next(cur, lo_gap, hi_gap):
        target = rng.randint(lo_gap, hi_gap)
        idx = bisect.bisect_left(b_positions, cur + max(lo_gap, 2))
        best = None
        for j in range(idx, len(b_positions)):
            pos = b_positions[j]
            gap = pos - cur
            if gap > hi_gap + 6:
                break
            if gap in used_gaps or pos >= n - 1:
                continue
            if best is None or abs(gap - target) < abs(best[1] - target):
                best = (pos, gap)
        return best

    first_idx = bisect.bisect_left(b_positions, max(2, small[0]))
    cur = b_positions[min(first_idx, len(b_positions) - 1)]
    if cur > params.end_window - 2:
        return None
    flips.append(cur)
    while True:
        in_dense = cur < dense_hi or cur >= dense_lo
        lo_gap, hi_gap = small if in_dense else (
            params.end_window + 5,
            coarse_hi,
        )
        if not in_dense and cur + coarse_hi >= dense_lo:
            # bridge into the far dense zone without overshooting it
            hi_gap = max(lo_gap + 4, dense_lo + params.end_window // 2 - cur)
            hi_gap = min(hi_gap, coarse_hi)
        nxt = pick_next(cur, lo_gap, hi_gap)
        if nxt is None:
            return None
        pos, gap = nxt
        flips.append(pos)
        used_gaps.add(gap)
        cur = pos
        if cur >= n - params.end_window - 2:
            break
    # keep the cyclic wrap gap distinct as well
    wrap = (n - flips[-1]) + flips[0]
    if wrap in used_gaps:
        return None
    return flips


def tagged_product_reference(xi, xs, eps):
    """The alternating product reduced letter by letter with a provenance
    tag per letter, then the xi runs read off the tags, one per block;
    kept literal.  Same contract as `products._ReducedProduct`: an
    object with the product's `length`, its per-block `xi_runs` and its
    `letters`, here a tuple built at once where `_ReducedProduct` packs
    an ``array`` the first time `letters` is read."""
    stack = []
    xi_letters = xi.letters
    xi_inv = (~xi).letters
    for i, (x, e) in enumerate(zip(xs, eps)):
        for tag_letters, tag in (
            (xi_letters if e > 0 else xi_inv, ("xi", i)),
            (x.letters, ("u", i)),
        ):
            for a in tag_letters:
                if stack and stack[-1][0] == -a:
                    stack.pop()
                else:
                    stack.append((a, tag))
    letters = tuple(a for a, _ in stack)
    tags = tuple(t for _, t in stack)
    xi_runs = []
    start = None
    for i, t in enumerate(tags + (None,)):
        if start is not None and t != tags[start]:
            xi_runs.append((start, i))
            start = None
        if start is None and t is not None and t[0] == "xi":
            start = i
    return SimpleNamespace(length=len(letters), xi_runs=xi_runs, letters=letters)


def hull_reference(o, pts, radius):
    """Every element within radius of pts, by its own layer loop, kept
    literal from the ball hull `tours.l_prime` once searched; the cap of
    200,000 elements is checked after each whole layer."""
    region = set()
    frontier = set(pts)
    region.update(frontier)
    for _ in range(radius):
        nxt = set()
        for g in frontier:
            for s in o.generators():
                h = o.multiply(g, s)
                if h not in region:
                    nxt.add(h)
        region.update(nxt)
        frontier = nxt
        if len(region) > 200_000:
            raise ResourceLimitError("ball hull too large for credited-walk search")
    return region


def box_reference(pts):
    """Every integer point of the bounding box of the vectors pts; an
    L1-shortest walk between two of them never leaves it."""
    sides = [range(min(c), max(c) + 1) for c in zip(*pts)]
    return set(itertools.product(*sides))


def l_prime_walk_reference(oracle, pts, region):
    """L' as `tours.l_prime` searched for it on groups that are not free
    before it became a tour: the least (steps - arrivals in pts) over
    closed walks from pts[0] through all of pts, each step to a
    neighbour inside region, by Dijkstra over (element, visited-mask)
    states.  None when region holds no such walk."""
    index = {p: i for i, p in enumerate(pts)}
    gens = oracle.generators()
    start = pts[0]
    full = (1 << len(pts)) - 1
    dist = {(start, 1): 0}
    heap = [(0, 0, (start, 1))]
    counter = 0
    while heap:
        d, _, (g, mask) = heapq.heappop(heap)
        if dist[g, mask] != d:
            continue
        if g == start and mask == full:
            return d - 1
        for s in gens:
            h = oracle.multiply(g, s)
            if h not in region:
                continue
            key = (h, mask | 1 << index[h]) if h in index else (h, mask)
            nd = d + (h not in index)
            if nd < dist.get(key, float("inf")):
                dist[key] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, key))
    return None


def free_hull_reference(pts):
    """Vertex set (letter tuples) of the least subtree of the free
    group's Cayley tree spanning the words pts, as `tours` built it:
    every prefix of a point at least as long as the prefix all the
    points share (the common prefix of the lexicographic extremes)."""
    words = [p.letters for p in pts]
    lo, hi = min(words), max(words)
    meet = next((i for i, (a, b) in enumerate(zip(lo, hi)) if a != b), len(lo))
    return {w[:i] for w in words for i in range(meet, len(w) + 1)}


def l_prime_free_reference(pts):
    """Free-group L' over the materialised hull, edge by edge: the walk
    doubles every hull edge, and each edge earns a credit for each of
    its two ends that is a point."""
    hull = free_hull_reference(pts)
    members = {p.letters for p in pts}
    top = min(map(len, hull))
    # every hull vertex but the shallowest has one edge, to its parent
    edges = [(v, v[:-1]) for v in hull if len(v) > top]
    return 2 * len(edges) - sum((v in members) + (u in members) for v, u in edges) - 1


def mst_witness_reference(rset):
    """Points of the doubled-tree witness as `tours.mst_bounds` walked
    them with a recursive closure over sorted MST neighbours, kept
    literal."""
    from ts_groups.tours import _mst_edges

    pts = rset.elements
    o = rset.oracle
    if len(pts) == 1:
        return (pts[0],)
    edges = _mst_edges(rset)
    adj = {i: [] for i in range(len(pts))}
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    points = [pts[0]]

    def dfs(u, par):
        for v in sorted(adj[u]):
            if v == par:
                continue
            points.extend(o.geodesic_points(pts[u], pts[v])[1:])
            dfs(v, u)
            points.extend(o.geodesic_points(pts[v], pts[u])[1:])

    dfs(0, -1)
    return tuple(points)


def folner_walk_reference(oracle, box):
    """Points of the box traversal as `tours.folner_traversal_demo`
    built them: a DFS spanning tree over grid edges, then a recursive
    tour with a raised recursion limit, kept literal."""
    import sys

    points = [
        tuple(v) for v in itertools.product(*[range(lo, hi + 1) for lo, hi in box])
    ]
    members = set(points)
    root = points[0]
    seen = {root}
    order = []
    stack = [(root, None)]
    tree_children = {p: [] for p in points}
    while stack:
        v, par = stack.pop()
        if par is not None:
            tree_children[par].append(v)
        order.append(v)
        for s in oracle.generators():
            w = oracle.multiply(v, s)
            if w in members and w not in seen:
                seen.add(w)
                stack.append((w, v))
    walk = [root]

    def tour(v):
        for c in tree_children[v]:
            walk.append(c)
            tour(c)
            walk.append(v)

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, len(points) + 100))
    try:
        tour(root)
    finally:
        sys.setrecursionlimit(old)
    return tuple(walk)


def f2xz_unit_greedy_reference(oracle, g):
    """The convex greedy that moved the balance one block per heap step
    before it learned to hand a syllable on its linear tail every step
    left at once, kept literal: (length, picks)."""
    ks, signs = oracle._syllables(g[0].letters)
    t, n = g[1], oracle.n

    def cost(k, d):
        return abs(d) + abs(k - n * d)

    picks = [min(k // n, k // n + 1, key=lambda d: cost(k, d)) for k in ks]
    gap = t - sum(picks)
    step = 1 if gap > 0 else -1
    heap = [(cost(k, d + step) - cost(k, d), j) for j, (k, d) in enumerate(zip(ks, picks))]
    heapq.heapify(heap)
    for _ in range(abs(gap)):
        _, j = heapq.heappop(heap)
        picks[j] += step
        k, d = ks[j], picks[j]
        heapq.heappush(heap, (cost(k, d + step) - cost(k, d), j))
    return len(signs) + sum(map(cost, ks, picks)), picks


def valence(tree, v):
    """Degree of vertex v: its children, plus its parent edge off the
    origin."""
    return len(tree.children[v]) + (0 if v == tree.ORIGIN else 1)


def is_ternary(tree):
    """True iff every vertex has valence 1 or 3 (or the tree is one
    vertex)."""
    if tree.n_vertices == 1:
        return True
    return all(valence(tree, v) in (1, 3) for v in tree.vertices())


def tree_path_reference(tree, u, v):
    """The u–v path of a tree by breadth-first search over its undirected
    edges from u, traced back from v along the search's predecessors."""
    neighbours = {w: list(kids) for w, kids in tree.children.items()}
    for w, p in tree.parent.items():
        if p is not None:
            neighbours[w].append(p)
    came_from = {u: None}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        for x in neighbours[w]:
            if x not in came_from:
                came_from[x] = w
                queue.append(x)
    path = [v]
    while path[-1] != u:
        path.append(came_from[path[-1]])
    return path[::-1]


def path_labels_reference(labeled, path):
    """Labels along a path, read edge by edge: each step must go to the
    parent or to a child."""
    out = []
    for x, y in zip(path, path[1:]):
        if labeled.tree.parent[y] == x:
            out.append(labeled.edge_labels[y])
        elif labeled.tree.parent[x] == y:
            out.append(labeled.edge_labels[x])
        else:
            raise ValueError("not a path in the tree")
    return out


class InadmissibleEngineReference:
    """The mutable inadmissible-element engine that the immutable
    `sequences.InadmissibleEngine` replaced, kept literal: `observe`
    changes the engine in place, so a caller forks it with `clone`
    first, and threats are sorted before the candidate scan."""

    def __init__(self, ground, _history=None, _runs=None):
        tokens = sorted(set(ground), key=_token_sort_key)
        if len(tokens) < 2:
            raise MalformedInputError("ground set needs at least 2 elements")
        self.ground = tuple(tokens)
        self.history = _history if _history is not None else []
        # runs[p-1]: consecutive positions i ending the history with
        # history[i] == history[i-p]; the p-periodic suffix has length
        # runs[p-1] + p
        self.runs = _runs if _runs is not None else []

    def _threats(self):
        n = len(self.history)
        out = []
        for p in range(1, n // 4 + 1):
            suffix_len = self.runs[p - 1] + p
            if suffix_len >= 4 * p:
                remaining = 5 * p - suffix_len
                out.append((remaining, p, self.history[n - p]))
        out.sort(key=lambda t: (t[0], t[1]))
        return out

    def designate(self, candidates) -> object:
        """The inadmissible element for the current step, drawn from the
        candidate set."""
        for _remaining, _p, letter in self._threats():
            if letter in candidates:
                return letter
        pad = _pair_stream_letter(len(self.history), self.ground[0], self.ground[1])
        if pad in candidates:
            return pad
        return min(candidates, key=_token_sort_key)

    def observe(self, x):
        n = len(self.history)
        new_runs = []
        for p in range(1, n + 1):
            prev = self.runs[p - 1] if p <= len(self.runs) else 0
            new_runs.append(prev + 1 if self.history[n - p] == x else 0)
        self.history.append(x)
        self.runs = new_runs

    def clone(self) -> "InadmissibleEngineReference":
        return InadmissibleEngineReference(
            self.ground, _history=list(self.history), _runs=list(self.runs)
        )
