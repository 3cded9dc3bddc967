import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from ts_groups import tours
from ts_groups.errors import MalformedInputError, PreconditionError
from ts_groups.forests import (
    ClusterTree,
    build_forest_p,
    build_forest_p10,
    decompose_pieces,
    verify_forest,
)
from ts_groups.groups import make_oracle
from ts_groups.sequences import InadmissibleEngine
from ts_groups.tours import (
    RelatedSet,
    SamplerConfig,
    sample_related_set,
    tour_of_order,
    tsp_exact,
    tsp_heuristic,
)
from ts_groups.words import first_aperiodic_word, parse_word

from instances import cluster_instance, nested_cluster_instance, pair_instance

FREE2 = make_oracle("free:2")


# -- piece decomposition -------------------------------------------------------


def test_two_elements_below_threshold_split():
    xi = first_aperiodic_word(2, 9)
    g = parse_word("b", 2)
    rset = RelatedSet(FREE2, xi, (g, g * xi), ((g, g * xi),))
    tour = tsp_exact(rset)
    decomp = decompose_pieces(rset, tour, Fraction(5))
    assert [len(p) for p in decomp.pieces] == [1, 1]
    assert decomp.wrap_is_cut


def test_chain_single_piece_with_huge_threshold():
    xi = parse_word("a", 2)
    chain = tuple(xi**i for i in range(6))
    rset = RelatedSet(FREE2, xi, chain)
    tour = tsp_exact(rset)
    decomp = decompose_pieces(rset, tour, Fraction(1000))
    assert [len(p) for p in decomp.pieces] == [6]
    assert not decomp.wrap_is_cut


def test_cut_positions_match_rescan():
    rng = random.Random(2)
    xi = first_aperiodic_word(2, 9)
    pts = set()
    while len(pts) < 12:
        g = FREE2.identity()
        from ts_groups.tours import random_element

        g = random_element(FREE2, rng, 5)
        pts.update((g, FREE2.multiply(g, xi)))
    rset = RelatedSet(FREE2, xi, tuple(pts))
    tour = tsp_exact(rset)
    threshold = Fraction(9, 2)
    decomp = decompose_pieces(rset, tour, threshold)
    order = decomp.order
    for j in range(len(order)):
        gap = FREE2.distance(order[j], order[(j + 1) % len(order)])
        assert (j in set(decomp.cuts)) == (gap > threshold)
    assert sum(len(p) for p in decomp.pieces) == rset.size


def test_dedup_log():
    xi = parse_word("a", 2)
    g = FREE2.identity()
    rset = RelatedSet(FREE2, xi, (g, xi))
    tour = tour_of_order(rset, (g, xi, g, xi), "heuristic-upper")
    # a tour repeating elements is deduped exactly once per repeat
    decomp = decompose_pieces(rset, tour, Fraction(3))
    assert len(decomp.order) == 2
    assert len(decomp.dedup_log) == 2


def test_tour_must_cover():
    xi = parse_word("a", 2)
    rset = RelatedSet(FREE2, xi, (FREE2.identity(), xi))
    bad_tour = tour_of_order(RelatedSet(FREE2, xi, (xi,)), (xi,), "exact")
    with pytest.raises(PreconditionError):
        decompose_pieces(rset, bad_tour, Fraction(2))


# -- mode P ---------------------------------------------------------------------


def test_mode_p_single_pair():
    rset, xi = pair_instance(0, 12, n_pairs=1)
    tour = tsp_exact(rset)
    forest = build_forest_p(rset, 12, tour)
    assert len(forest.trees) == 2  # two singleton segments, two trees
    rep = verify_forest(forest, rset, 12)
    assert rep.ok, rep.to_dict()


def test_mode_p_cluster_instances():
    for seed in range(6):
        rset, xi, tour = cluster_instance(seed, 24, deep=(seed % 2 == 0))
        forest = build_forest_p(rset, 24, tour)
        rep = verify_forest(forest, rset, 24)
        assert rep.ok, (seed, rep.to_dict())
        assert not forest.advisory
        assert forest.certified_bound == Fraction(24, 12) * rset.size
        assert Fraction(forest.end_element_count) >= Fraction(rset.size, 6)


def test_mode_p_deep_tree_structure():
    rset, xi, tour = cluster_instance(0, 24, deep=True)
    forest = build_forest_p(rset, 24, tour)
    main = max(forest.trees, key=lambda t: len(t.vertices))
    # root segment expands to the deep segment which expands to two
    # singleton partners
    levels = [v.level for v in main.vertices]
    assert max(levels) >= 2
    for v in main.vertices:
        if v.children:
            assert len(v.elements) == 3


def test_mode_p_requires_revision():
    xi = parse_word("a", 2)
    rset = RelatedSet(FREE2, xi, (FREE2.identity(), xi))
    tour = tsp_exact(rset)
    with pytest.raises(PreconditionError):
        build_forest_p(rset, 4, tour)


def test_mode_p_determinism():
    rset, xi, tour = cluster_instance(3, 24, deep=True)
    f1 = build_forest_p(rset, 24, tour)
    f2 = build_forest_p(rset, 24, tour)
    assert f1.to_dict(FREE2) == f2.to_dict(FREE2)


# -- mode P10 -------------------------------------------------------------------


def test_mode_p10_single_pair():
    rset, xi = pair_instance(1, 12, n_pairs=1)
    tour = tsp_exact(rset)
    forest = build_forest_p10(rset, 12, tour)
    rep = verify_forest(forest, rset, 12)
    assert rep.ok, rep.to_dict()
    counts = {}
    for t in forest.trees:
        for v in t.vertices:
            for x in v.elements:
                counts[x] = counts.get(x, 0) + 1
    assert all(c == 1 for c in counts.values())


def test_mode_p10_cluster_instances():
    for seed in range(6):
        rset, xi, tour = cluster_instance(seed, 24, deep=True, deep_size=4)
        forest = build_forest_p10(rset, 24, tour)
        rep = verify_forest(forest, rset, 24)
        assert rep.ok, (seed, rep.to_dict())
        assert not forest.advisory, forest.advisory_reasons
        n = rset.size
        assert Fraction(len(forest.v_far)) <= Fraction(n, 8)
        assert Fraction(len(forest.v_near)) > Fraction(n, 24)


def test_mode_p10_engine_vertex_is_constrained():
    rset, xi, tour = cluster_instance(2, 24, deep=True, deep_size=4)
    forest = build_forest_p10(rset, 24, tour)
    main = max(forest.trees, key=lambda t: len(t.vertices))
    internal = [v for v in main.vertices if v.children]
    assert internal and all(len(v.elements) == 3 for v in internal)


def test_mode_p10_walks_the_engine_down_each_root_path(monkeypatch):
    """Each P10 designation reads an engine that has observed the
    differences entry^-1 w along its vertex's root path, from the
    level-1 vertex down, and is offered the differences to the entry's
    piece neighbors.  Nested clusters put designations at levels 2 and
    3, so an engine that is not walked down the path fails here."""
    calls = []
    designate = InadmissibleEngine.designate

    def recording(engine, candidates):
        calls.append((engine.history, candidates))
        return designate(engine, candidates)

    monkeypatch.setattr(InadmissibleEngine, "designate", recording)
    r = 24
    rset, xi, tour = nested_cluster_instance(r, depth=4)
    forest = build_forest_p10(rset, r, tour)
    pieces = decompose_pieces(rset, tour, Fraction(r, 4))
    at = pieces.piece_index()

    def diff(g, h):
        return FREE2.multiply(FREE2.inverse(g), h)

    expected = []
    for tree in forest.trees:
        for vertex in tree.vertices[1:]:
            pi, pos = at[vertex.entry]
            piece = pieces.pieces[pi]
            near = piece[max(0, pos - 4):pos] + piece[pos + 1:pos + 5]
            if len(near) < 2:
                continue  # one candidate or none: nothing to designate
            history = []
            v = vertex
            while tree.vertices[v.parent].entry is not None:
                parent = tree.vertices[v.parent]
                history.append(diff(parent.entry, v.witness[0]))
                v = parent
            expected.append((tuple(reversed(history)), frozenset(diff(vertex.entry, t) for t in near)))
    assert calls == expected
    assert max(len(h) for h, _ in calls) == 2


def test_mode_p10_determinism():
    rset, xi, tour = cluster_instance(5, 24, deep=True)
    f1 = build_forest_p10(rset, 24, tour)
    f2 = build_forest_p10(rset, 24, tour)
    assert f1.to_dict(FREE2) == f2.to_dict(FREE2)


# -- verification ----------------------------------------------------------------


def test_bound_soundness_cluster():
    for seed in range(4):
        rset, xi, tour = cluster_instance(seed, 24, deep=True)
        exact = tsp_exact(rset).length
        for build in (build_forest_p, build_forest_p10):
            forest = build(rset, 24, tour)
            assert forest.certified_bound <= exact


def test_bound_soundness_past_the_held_karp_cap():
    # free sets have a closed-form exact tour, so the check runs at any size
    config = SamplerConfig(seed=0, max_size=40, style="chains")
    rset = sample_related_set(FREE2, first_aperiodic_word(2, 9), config, 0)
    assert rset.size == 26
    tour = tsp_exact(rset)
    for build in (build_forest_p, build_forest_p10):
        rep = verify_forest(build(rset, 8, tour), rset, 8)
        assert rep.ok, rep.to_dict()
        assert rep.checks["bound_sound"]["detail"].endswith(f"vs exact {tour.length}")


def test_verify_detects_duplicated_element():
    rset, xi, tour = cluster_instance(1, 24, deep=False)
    forest = build_forest_p(rset, 24, tour)
    # corrupt: duplicate an element into another vertex of the same tree
    main = max(forest.trees, key=lambda t: len(t.vertices))
    donor = main.vertices[0].elements[0]
    victim = main.vertices[-1]
    victim.elements = victim.elements + (donor,)
    rep = verify_forest(forest, rset, 24)
    assert not rep.checks["within_tree_disjoint"]["pass"]


def test_verify_cross_vertex_distance():
    rset, xi, tour = cluster_instance(4, 24, deep=True)
    forest = build_forest_p(rset, 24, tour)
    rep = verify_forest(forest, rset, 24)
    assert rep.checks["cross_vertex_distance"]["pass"]


def test_forest_json_round_trip_shape():
    rset, xi, tour = cluster_instance(0, 24, deep=True)
    forest = build_forest_p10(rset, 24, tour)
    d = forest.to_dict(FREE2)
    assert d["schema"] == 1
    assert d["mode"] == "P10"
    assert d["census"]["end_elements"] == forest.end_element_count
    total = sum(len(v["elements"]) for t in d["trees"] for v in t["vertices"])
    assert total == rset.size


def _shared_end_instance(segment_first=False):
    """Two normal clusters whose pair links land in one shared incomplete
    segment: in mode P the second tree adopts it as a shared end vertex.
    With segment_first the tour starts at the segment, so it roots a tree
    of its own, the first cluster shares it and the second may not.
    Returns (rset, tour, u, v) with u, v the shared segment."""
    xi = first_aperiodic_word(2, 4 * 24 + 1)
    h = parse_word("b", 2)
    a_cluster = [h, h * parse_word("a", 2), h * parse_word("a b", 2)]
    u = FREE2.multiply(h, xi)
    v = u * parse_word("b", 2)
    g = FREE2.multiply(v, FREE2.inverse(xi))
    b_cluster = [g, g * parse_word("a", 2), g * parse_word("a b", 2)]
    pairs = [(x, FREE2.multiply(x, xi)) for x in a_cluster + b_cluster]
    elements = [x for p in pairs for x in p]
    assert len(set(elements)) == len(elements)
    rset = RelatedSet(FREE2, xi, tuple(elements), tuple(pairs))
    order = (
        ([u, v] + a_cluster if segment_first else a_cluster + [u, v])
        + b_cluster
        + [FREE2.multiply(x, xi) for x in a_cluster[1:] + b_cluster[1:]]
    )
    return rset, tour_of_order(rset, order, "heuristic-upper"), u, v


def test_mode_p_shared_end_between_two_trees():
    rset, tour, u, v = _shared_end_instance()
    forest = build_forest_p(rset, 24, tour)
    owners = {}
    for ti, t in enumerate(forest.trees):
        for vert in t.vertices:
            for x in vert.elements:
                owners.setdefault(x, []).append(ti)
    assert owners[u] != owners[v] or len(owners[u]) == 2
    shared = [x for x, ts in owners.items() if len(ts) == 2]
    assert set(shared) == {u, v}
    rep = verify_forest(forest, rset, 24)
    assert rep.ok, rep.to_dict()
    assert rep.checks["shared_only_ends"]["pass"]


def test_threshold_must_be_positive():
    xi = parse_word("a", 2)
    rset = RelatedSet(FREE2, xi, (FREE2.identity(), xi))
    tour = tsp_exact(rset)
    with pytest.raises(MalformedInputError):
        decompose_pieces(rset, tour, 0)


# -- pinned forests ----------------------------------------------------------------


def _forest_sets():
    """(name, rset, r, tour) over cluster seeds x scales, pair instances,
    sampled pairs/chains sets with a heuristic tour (some of them build
    advisory or shared-end forests) and the shared-end instance."""
    for seed in range(4):
        for r in (12, 24, 48):
            rset, _xi, tour = cluster_instance(seed, r, deep=(seed % 2 == 0))
            yield f"cluster-{seed}-r{r}", rset, r, tour
    for seed in range(2):
        rset, _xi = pair_instance(seed, 12)
        # Held-Karp's order: the closed-form free tour is another optimal one
        yield f"pairs-{seed}", rset, 12, tours._held_karp(rset.elements, rset.distances)
    for style, xi_len, r, seed in (("pairs", 9, 16, 0), ("pairs", 9, 16, 1),
                                   ("chains", 5, 16, 1), ("chains", 5, 16, 2),
                                   ("pairs", 9, 4, 2), ("chains", 9, 8, 0)):
        config = SamplerConfig(seed=seed, max_size=12, style=style)
        rset = sample_related_set(FREE2, first_aperiodic_word(2, xi_len), config, 0)
        yield f"{style}-{xi_len}-r{r}-{seed}", rset, r, tsp_heuristic(rset, seed)
    for segment_first in (False, True):
        rset, tour, _u, _v = _shared_end_instance(segment_first)
        yield f"shared-end{'-rooted' if segment_first else ''}", rset, 24, tour


def _forest_digest(forest, rset, r):
    """Digest of the stored forest, the verifier's report, and the
    vertex children and pair witnesses, which to_dict leaves out."""
    fmt = FREE2.format_element
    links = [
        [(v.children, None if v.witness is None else [fmt(x) for x in v.witness])
         for v in t.vertices]
        for t in forest.trees
    ]
    body = [forest.to_dict(FREE2), verify_forest(forest, rset, r).to_dict(), links]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


# recorded from the earlier level-queue builders, which kept a separate
# build log; the builders must keep reproducing them byte for byte
PINNED_FOREST_DIGESTS = {
    "cluster-0-r12-P": "530a87a402e43dbc",
    "cluster-0-r12-P10": "85335b99b0372dda",
    "cluster-0-r24-P": "ba013c3d1defb2d1",
    "cluster-0-r24-P10": "c28103ac07f33035",
    "cluster-0-r48-P": "1d554e3de52f2268",
    "cluster-0-r48-P10": "4144625ef8411d52",
    "cluster-1-r12-P": "2618015e6f73fe66",
    "cluster-1-r12-P10": "5f7080960315949e",
    "cluster-1-r24-P": "4aea9c358c23ddd4",
    "cluster-1-r24-P10": "8dabbcdc88c8d5eb",
    "cluster-1-r48-P": "d1184a5a673407ce",
    "cluster-1-r48-P10": "fde09afa6e0a2d7f",
    "cluster-2-r12-P": "dc9d895f5766b37b",
    "cluster-2-r12-P10": "e82e7a2094ff2061",
    "cluster-2-r24-P": "7e68df04921a0048",
    "cluster-2-r24-P10": "b62c2f7153b45319",
    "cluster-2-r48-P": "edaaa5be63a553bd",
    "cluster-2-r48-P10": "329214cb67aa7a51",
    "cluster-3-r12-P": "a98b81a24c40e529",
    "cluster-3-r12-P10": "26d2370b5297fcbf",
    "cluster-3-r24-P": "9c8732159ed8b469",
    "cluster-3-r24-P10": "a843a080d674f98f",
    "cluster-3-r48-P": "b9ab5dc9ab22cd21",
    "cluster-3-r48-P10": "a727121a101b9df0",
    "pairs-0-P": "246237e808a65ccc",
    "pairs-0-P10": "92b3b51642fd1b96",
    "pairs-1-P": "a5eb6db9e626d4bd",
    "pairs-1-P10": "61573e3be56dbe4b",
    "pairs-9-r16-0-P": "af4661e28bd61f47",
    "pairs-9-r16-0-P10": "eef2f090a7893b6a",
    "pairs-9-r16-1-P": "58a7c83e92e646f0",
    "pairs-9-r16-1-P10": "82e7e0fe25e51b37",
    "chains-5-r16-1-P": "6db43405bfe9c80a",
    "chains-5-r16-1-P10": "bef1de7d5bec5b04",
    "chains-5-r16-2-P": "0be069b7a7c7dfaa",
    "chains-5-r16-2-P10": "87bf45edd50feb50",
    "pairs-9-r4-2-P": "4f88f4fb4eebdd8c",
    "pairs-9-r4-2-P10": "43a4de5c10434b84",
    "chains-9-r8-0-P": "a23d855694cc0cfe",
    "chains-9-r8-0-P10": "474b391589dcf1a2",
    "shared-end-P": "ac18d58d8d6b80c8",
    "shared-end-P10": "5bd1061d9dab2fd1",
    "shared-end-rooted-P": "cb9d17633177fca5",
    "shared-end-rooted-P10": "14a234bbd8cfc985",
}


def test_forests_pinned():
    got = {}
    for name, rset, r, tour in _forest_sets():
        for build in (build_forest_p, build_forest_p10):
            forest = build(rset, r, tour)
            got[f"{name}-{forest.mode}"] = _forest_digest(forest, rset, r)
    assert got == PINNED_FOREST_DIGESTS


def _reordered(tree, order):
    """The same tree with its vertices stored in the given index order."""
    where = {old: new for new, old in enumerate(order)}
    out = ClusterTree()
    for old in order:
        v = tree.vertices[old]
        out.vertices.append(dataclasses.replace(
            v,
            parent=None if v.parent is None else where[v.parent],
            children=[where[c] for c in v.children],
        ))
    return out


def test_breadth_first_check_reads_levels_off_the_trees():
    rset, _xi, tour = cluster_instance(0, 24, deep=True)
    forest = build_forest_p(rset, 24, tour)
    assert verify_forest(forest, rset, 24).checks["breadth_first_build"]["pass"]
    ti, main = max(enumerate(forest.trees), key=lambda it: len(it[1].vertices))
    levels = [v.level for v in main.vertices]
    assert levels == sorted(levels) and levels.count(1) >= 2 and max(levels) >= 2
    # a deepest vertex stored before the last level-1 vertex: every child
    # is still one level below its parent, but levels decrease along the list
    last_one = max(i for i, lvl in enumerate(levels) if lvl == 1)
    deep = levels.index(max(levels))
    order = [i for i in range(len(levels)) if i != deep]
    order.insert(order.index(last_one), deep)
    forest.trees[ti] = _reordered(main, order)
    rep = verify_forest(forest, rset, 24)
    assert not rep.checks["breadth_first_build"]["pass"]
    assert rep.checks["pair_witnesses"]["pass"]


def test_breadth_first_check_rejects_a_wrong_level():
    rset, _xi, tour = cluster_instance(0, 24, deep=True)
    forest = build_forest_p10(rset, 24, tour)
    main = max(forest.trees, key=lambda t: len(t.vertices))
    main.vertices[-1].level += 1
    assert not verify_forest(forest, rset, 24).checks["breadth_first_build"]["pass"]
    main.vertices[-1].level -= 1
    main.vertices[0].level = 1
    assert not verify_forest(forest, rset, 24).checks["breadth_first_build"]["pass"]
    main.vertices[0].level = 0
    assert verify_forest(forest, rset, 24).checks["breadth_first_build"]["pass"]
    # a second root stored after the first, at level 0 with no parent
    leaf = dataclasses.replace(main.vertices[-1], parent=None, level=0)
    forest.trees.append(ClusterTree([main.vertices[0], leaf]))
    assert not verify_forest(forest, rset, 24).checks["breadth_first_build"]["pass"]
