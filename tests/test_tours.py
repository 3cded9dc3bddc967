import hashlib
import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ts_groups import tours
from ts_groups.errors import (
    DegenerateXiError,
    InternalInvariantError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
)
from ts_groups.groups import GroupOracle, make_oracle
from ts_groups.tours import (
    ClosedPath,
    RelatedSet,
    SamplerConfig,
    folner_traversal_demo,
    is_xi_related,
    k_boundary,
    l_prime,
    mst_bounds,
    random_element,
    revise,
    sample_related_set,
    ts_lambda_experiment,
    tsp_exact,
    tsp_heuristic,
    xi_boundary,
)
from ts_groups.words import first_aperiodic_word, parse_word, reduce

from oracles import (
    box_reference,
    brute_tour_length,
    folner_walk_reference,
    free_hull_reference,
    held_karp_reference,
    hull_reference,
    l_prime_free_reference,
    l_prime_walk_reference,
    mst_witness_reference,
)

FREE2 = make_oracle("free:2")
AB2 = make_oracle("abelian:2")


def box(w, h, x0=0, y0=0):
    return tuple((x0 + i, y0 + j) for i in range(w) for j in range(h))


# -- relatedness and revision --------------------------------------------------


def test_pair_is_related():
    xi = parse_word("a b", 2)
    g = parse_word("b", 2)
    ok, orphans = is_xi_related((g, g * xi), xi, FREE2)
    assert ok and not orphans


def test_singleton_is_orphaned():
    xi = parse_word("a b", 2)
    g = parse_word("b", 2)
    ok, orphans = is_xi_related((g,), xi, FREE2)
    assert not ok and orphans == [g]


def test_off_chain_element_is_orphaned():
    xi = parse_word("a", 2)
    g = FREE2.identity()
    chain = (g, xi, xi * xi)
    h = parse_word("b b b b b", 2)
    ok, orphans = is_xi_related(chain + (h,), xi, FREE2)
    assert not ok and orphans == [h]


def test_degenerate_xi_rejected():
    with pytest.raises(DegenerateXiError):
        is_xi_related((FREE2.identity(),), FREE2.identity(), FREE2)


def test_revise_pair_is_itself():
    xi = parse_word("a b a", 2)
    g = parse_word("b", 2)
    rset = RelatedSet(FREE2, xi, (g, g * xi))
    rev = revise(rset)
    assert set(rev.elements) == {g, g * xi}
    assert rev.is_revised()


def test_revise_chain_of_three():
    xi = parse_word("a", 2)
    chain = (FREE2.identity(), xi, xi * xi)
    rev = revise(RelatedSet(FREE2, xi, chain))
    assert rev.size == 2
    assert len(rev.pairs) == 1
    x, y = rev.pairs[0]
    assert y == FREE2.multiply(x, xi)


class CyclicOracle(GroupOracle):
    """Z/m with generator 1: a group with torsion, which no supported
    descriptor builds."""

    def __init__(self, m):
        self.m = m
        self.descriptor = f"cyclic:{m}"

    def identity(self):
        return 0

    def multiply(self, g, h):
        return (g + h) % self.m

    def inverse(self, g):
        return -g % self.m

    def sort_key(self, g):
        return g


def test_revise_rejects_torsion_cycles():
    z4 = CyclicOracle(4)
    rset = RelatedSet(z4, 1, (0, 1, 2, 3))
    assert is_xi_related(rset.elements, 1, z4) == (True, [])
    with pytest.raises(InternalInvariantError):
        revise(rset)


def test_revise_requires_related():
    xi = parse_word("a", 2)
    with pytest.raises(PreconditionError):
        revise(RelatedSet(FREE2, xi, (parse_word("b b b", 2),)))


def test_revise_bulk_properties():
    # 500 random related sets; the revision is a disjoint pair cover of
    # at least two thirds
    rng = random.Random(77)
    for trial in range(500):
        oracle = FREE2 if trial % 2 else AB2
        xi = (
            first_aperiodic_word(2, rng.randint(1, 4))
            if oracle is FREE2
            else (rng.randint(1, 3), rng.randint(0, 2))
        )
        pts = set()
        for _ in range(rng.randint(1, 4)):
            g = random_element(oracle, rng, 3)
            for i in range(rng.randint(1, 4)):
                pts.add(g)
                g = oracle.multiply(g, xi)
        # repair orphans by adding translates
        for _ in range(20):
            ok, orphans = is_xi_related(tuple(pts), xi, oracle)
            if ok:
                break
            for x in orphans:
                pts.add(oracle.multiply(x, xi))
        rset = RelatedSet(oracle, xi, tuple(pts))
        rev = revise(rset)
        covered = [x for p in rev.pairs for x in p]
        assert len(covered) == len(set(covered))
        for x, y in rev.pairs:
            assert y == oracle.multiply(x, xi)
        assert 3 * len(covered) >= 2 * rset.size


# -- exact and heuristic tours --------------------------------------------------


def test_three_points_in_free_group():
    rset = RelatedSet(FREE2, None, (FREE2.identity(), parse_word("a", 2), parse_word("b", 2)))
    assert tsp_exact(rset).length == 4


def test_unit_square():
    assert tsp_exact(RelatedSet(AB2, None, box(2, 2))).length == 4


def test_pair_out_and_back():
    xi = first_aperiodic_word(2, 9)
    g = parse_word("b a", 2)
    rset = RelatedSet(FREE2, xi, (g, g * xi))
    assert tsp_exact(rset).length == 2 * len(xi)


def test_exact_cap():
    pts = box(4, 4)
    with pytest.raises(ResourceLimitError):
        tsp_exact(RelatedSet(AB2, None, pts))


def test_exact_matches_brute_force():
    rng = random.Random(5)
    # free groups of every rank take the closed form, abelian:2 Held-Karp
    oracles = (AB2, FREE2, make_oracle("free:1"), make_oracle("free:3"))
    for trial in range(120):
        oracle = oracles[trial % 4]
        pts = set()
        while len(pts) < rng.randint(2, 7):
            pts.add(random_element(oracle, rng, 4))
        rset = RelatedSet(oracle, None, tuple(pts))
        tour = tsp_exact(rset)
        assert tour.length == brute_tour_length(oracle, rset.elements)
        assert set(tour.order) == set(rset.elements)
        heur = tsp_heuristic(rset, trial)
        assert heur.length >= tour.length


def test_exact_deterministic():
    rng = random.Random(11)
    pts = tuple({random_element(AB2, rng, 5) for _ in range(9)})
    rset = RelatedSet(AB2, None, pts)
    assert tsp_exact(rset).order == tsp_exact(rset).order


def _oracle_matrix(oracle, pts):
    return tuple(tuple(oracle.distance(a, b) for b in pts) for a in pts)


def _assert_matches_reference(rset):
    # Held-Karp's own entry point: tsp_exact takes free sets to the closed form
    length, order = held_karp_reference(_oracle_matrix(rset.oracle, rset.elements))
    tour = tours._held_karp(rset.elements, rset.distances)
    assert tour.length == length
    assert tour.order == tuple(rset.elements[i] for i in order)


# small coordinates and short words make many distances tie
_FREE_WORDS = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=4).map(
    lambda letters: reduce(letters, 2))
_ELEMENTS = {
    "free:2": _FREE_WORDS,
    "abelian:2": st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    "f2xz:n=2": st.tuples(_FREE_WORDS, st.integers(-1, 1)),
}


@pytest.mark.parametrize("descriptor", sorted(_ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_matches_held_karp_reference(descriptor, data):
    pts = data.draw(st.lists(_ELEMENTS[descriptor], min_size=2, max_size=10, unique=True))
    _assert_matches_reference(RelatedSet(make_oracle(descriptor), None, tuple(pts)))


def test_exact_matches_held_karp_reference_on_ties():
    # grids and free balls: every tour has many optimal orders
    _assert_matches_reference(RelatedSet(AB2, None, box(3, 3)))
    _assert_matches_reference(RelatedSet(AB2, None, box(2, 5, -1, -2)))
    _assert_matches_reference(RelatedSet(FREE2, None, FREE2.ball(1)))
    _assert_matches_reference(RelatedSet(FREE2, None, FREE2.ball(2)[:10]))


def _distinct_points(oracle, count, seed):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < count:
        pts.add(random_element(oracle, rng, 4))
    return tuple(pts)


@pytest.mark.parametrize("n", range(11, 16))
def test_exact_matches_held_karp_reference_past_ten_points(n):
    # the hypothesis test above stops at 10 points; previous points above
    # 10 and flat indices above 2**15 (from 13 points) only occur past it
    for oracle in (FREE2, make_oracle("f2xz:n=2")):
        _assert_matches_reference(RelatedSet(oracle, None, _distinct_points(oracle, n, n)))
    _assert_matches_reference(RelatedSet(AB2, None, box(4, 4)[:n]))


def test_exact_matches_held_karp_reference_at_sixteen_points():
    _assert_matches_reference(RelatedSet(AB2, None, box(4, 4, -1, -2)))


@pytest.mark.parametrize("n", [13, 14, 15])
def test_exact_matches_held_karp_reference_on_seeded_grids(n):
    # the layers of 13 points and more run in several chunks
    for seed in range(2):
        pts = random.Random(seed * 100 + n).sample(box(5, 4, -2, -1), n)
        _assert_matches_reference(RelatedSet(AB2, None, pts))


@pytest.mark.parametrize("n", range(2, 17))
def test_held_karp_chunks_cover_each_layer_once(n):
    chunks = tours._held_karp_layers(n)
    layers = []
    for tgt, from_src, from_j in chunks:
        for a in (tgt, from_src, from_j):
            assert a.dtype == np.intp and a.flags.c_contiguous
        assert from_src.size <= tours._HK_CHUNK
        assert from_src.shape == from_j.shape and from_src.shape[1] == len(tgt)
        rows, last = tgt // n, tgt % n
        sizes = {bin(row).count("1") for row in rows}
        assert len(sizes) == 1  # a chunk lies in one layer
        layers.append((sizes.pop(), tgt))
        # each state gathers from its source row and from row j of the
        # step matrix, at the same previous points
        prev = from_src % n
        assert (from_src // n == rows ^ (1 << (last - 1))).all()
        assert (from_j // n == last).all() and (from_j % n == prev).all()
    # layers run in ascending order, each read only by the next
    assert [k for k, _ in layers] == sorted(k for k, _ in layers)
    for k in range(1, n):
        states = sorted(t for size, tgt in layers if size == k for t in tgt.tolist())
        rows = [r for r in range(1 << (n - 1)) if bin(r).count("1") == k]
        assert states == sorted(r * n + j for r in rows for j in range(1, n) if r >> (j - 1) & 1)
    # up to 12 points every layer is one chunk; from 13 some layer splits
    assert (len(chunks) > n - 1) == (n >= 13)


def test_held_karp_tables_stay_small_up_to_twelve_points():
    # oracle-mix solves 2-12 points; its resident memory holds all of these
    total = sum(a.nbytes for n in range(2, 13) for chunk in tours._held_karp_layers(n)
                for a in chunk)
    assert total <= 2 << 20


@settings(max_examples=200, deadline=None)
@given(pts=st.lists(_FREE_WORDS, min_size=1, max_size=10, unique=True))
def test_free_exact_is_the_closed_form(pts):
    rset = RelatedSet(FREE2, None, tuple(pts))
    tour = tsp_exact(rset)
    assert tour.length == held_karp_reference(_oracle_matrix(FREE2, rset.elements))[0]
    assert sorted(tour.order, key=FREE2.sort_key) == list(rset.elements)
    assert tours.tour_of_order(rset, tour.order, "exact").length == tour.length


def test_free_exact_has_no_size_cap():
    rng = random.Random(3)
    pts = set()
    while len(pts) < 2_000:
        pts.add(random_element(FREE2, rng, 12))
    rset = RelatedSet(FREE2, None, tuple(pts))
    tour = tsp_exact(rset)
    assert tour.length == 2 * (len(free_hull_reference(rset.elements)) - 1)
    assert tours.tour_of_order(rset, tour.order, "exact").length == tour.length


def test_exact_refuses_costs_past_55_bits():
    far = RelatedSet(AB2, None, ((0, 0), (2**56, 0), (0, 1)))
    with pytest.raises(ResourceLimitError):
        tsp_exact(far)
    with pytest.raises(ResourceLimitError):
        tsp_exact(RelatedSet(AB2, None, ((0, 0), (2**64, 0), (0, 1))))
    assert tsp_heuristic(far).length == 2**57 + 2
    # 3 points at distance up to 2**52 + 1 stay below the bound
    near = RelatedSet(AB2, None, ((0, 0), (2**52, 0), (0, 1)))
    assert tsp_exact(near).length == 2**53 + 2
    # the bound is n times the largest distance reaching 2**55
    assert tsp_exact(RelatedSet(AB2, None, ((0, 0), (2**54 - 1, 0)))).length == 2**55 - 2
    with pytest.raises(ResourceLimitError):
        tsp_exact(RelatedSet(AB2, None, ((0, 0), (2**54, 0))))
    # L' runs the same Held-Karp, on costs that do not wrap past int64
    for big in (2**56, 2**64):
        with pytest.raises(ResourceLimitError):
            l_prime(RelatedSet(AB2, None, ((0, 0), (big, 0), (0, 1))))
    assert l_prime(near).value == 2**53 - 3


def _mix_oracles():
    """The oracle list of the benchmark's oracle-mix workload."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MIX_ORACLES


@pytest.mark.parametrize("descriptor", _mix_oracles())
def test_set_distances_match_oracle(descriptor):
    oracle = make_oracle(descriptor)
    rng = random.Random(descriptor)
    for _ in range(5):
        pts = {random_element(oracle, rng, 4) for _ in range(rng.randint(1, 9))}
        rset = RelatedSet(oracle, None, tuple(pts))
        assert rset.distances == _oracle_matrix(oracle, rset.elements)


@st.composite
def _free_stem_sets(draw):
    """Distinct reduced words of rank 1-3, 1-40 of them, each a prefix
    of one of a few shared stems plus a short tail, so that the sorted
    words share long prefixes and some are prefixes of others."""
    rank = draw(st.integers(1, 3))
    letters = st.sampled_from([s * a for a in range(1, rank + 1) for s in (1, -1)])
    stems = draw(st.lists(st.lists(letters, max_size=20), min_size=1, max_size=3))
    point = st.builds(lambda stem, cut, tail: reduce(stem[:cut] + tail, rank),
                      st.sampled_from(stems), st.integers(0, 20), st.lists(letters, max_size=4))
    return rank, tuple(set(draw(st.lists(point, min_size=1, max_size=40))))


@settings(max_examples=200, deadline=None)
@given(drawn=_free_stem_sets())
def test_free_set_distances_match_oracle(drawn):
    rank, pts = drawn
    oracle = make_oracle(f"free:{rank}")
    rset = RelatedSet(oracle, None, pts)
    assert rset.distances == _oracle_matrix(oracle, rset.elements)


def test_free_set_distances_refuse_mixed_ranks():
    pts = (parse_word("a b", 2), parse_word("a", 2), parse_word("a", 3))
    with pytest.raises(MalformedInputError):
        RelatedSet(FREE2, None, pts).distances


def test_free_set_builds_its_hull_once():
    rng = random.Random(5)
    pts = {random_element(FREE2, rng, 6) for _ in range(12)}
    rset = RelatedSet(FREE2, None, tuple(pts))
    with mock.patch.object(tours, "_free_hull", wraps=tours._free_hull) as hull:
        tsp_exact(rset)
        l_prime(rset)
        rset.distances
    assert hull.call_count == 1


# -- MST sandwich ---------------------------------------------------------------


def test_two_element_mst():
    xi = parse_word("a b a", 2)
    g = parse_word("b", 2)
    rset = RelatedSet(FREE2, xi, (g, g * xi))
    lo, hi, wit = mst_bounds(rset)
    assert lo == FREE2.distance(g, g * xi)
    assert hi == 2 * lo
    wit.validate()
    assert wit.length == hi


def test_grid_mst_and_exact():
    rset = RelatedSet(AB2, None, box(3, 3))
    lo, hi, wit = mst_bounds(rset)
    assert lo == 8 and hi == 16
    assert tsp_exact(rset).length == 10
    wit.validate()
    assert wit.visit_count(rset.elements) >= rset.size


def test_mst_sandwich_bulk():
    rng = random.Random(9)
    oracles = [FREE2, AB2, make_oracle("prod(free:2,abelian:1)"), make_oracle("f2xz:n=2")]
    for trial in range(120):
        oracle = oracles[trial % len(oracles)]
        pts = set()
        while len(pts) < rng.randint(2, 9):
            pts.add(random_element(oracle, rng, 4))
        rset = RelatedSet(oracle, None, tuple(pts))
        lo, hi, wit = mst_bounds(rset)
        exact = tsp_exact(rset).length
        assert lo <= exact <= hi == 2 * lo
        assert wit.length == hi


# -- closed paths -----------------------------------------------------------------


def test_closed_path_validation():
    p = ClosedPath(AB2, ((0, 0), (0, 1), (1, 1), (1, 0), (0, 0)))
    p.validate()
    assert p.length == 4
    bad = ClosedPath(AB2, ((0, 0), (2, 0), (0, 0)))
    with pytest.raises(MalformedInputError):
        bad.validate()
    with pytest.raises(MalformedInputError):
        ClosedPath(AB2, ((0, 0), (0, 1)))


def test_degenerate_closed_path():
    p = ClosedPath(AB2, ((0, 0),))
    p.validate()
    assert p.length == 0
    assert p.visit_count({(0, 0)}) == 1


# -- the credited functional ------------------------------------------------------


def test_l_prime_singleton():
    rset = RelatedSet(FREE2, None, (parse_word("a", 2),))
    res = l_prime(rset)
    assert res.value == -1 and res.certified


def test_l_prime_pair_formula():
    for n in (2, 3, 4, 9):
        xi = first_aperiodic_word(2, n)
        g = parse_word("b a", 2)
        rset = RelatedSet(FREE2, xi, (g, g * xi))
        assert l_prime(rset).value == 2 * n - 3


def test_l_prime_below_l():
    rng = random.Random(13)
    xi = first_aperiodic_word(2, 9)
    cfg = SamplerConfig(samples=25, seed=2, max_size=10, style="mixed")
    for i in range(cfg.samples):
        rset = sample_related_set(FREE2, xi, cfg, i)
        lp = l_prime(rset).value
        assert lp < tsp_exact(rset).length


def test_l_prime_free_matches_walk_search():
    from ts_groups.tours import _free_hull, _l_prime_free
    from ts_groups.words import Word

    rng = random.Random(31)
    for _ in range(30):
        pts = set()
        while len(pts) < rng.randint(2, 5):
            pts.add(random_element(FREE2, rng, 4))
        pts = tuple(sorted(pts, key=FREE2.sort_key))
        region = {Word(h, 2) for h in free_hull_reference(pts)}
        walk = l_prime_walk_reference(FREE2, pts, region)
        assert _l_prime_free(_free_hull(pts)) == l_prime_free_reference(pts) == walk


@st.composite
def _free_point_sets(draw):
    """Distinct reduced words of rank 1-3 and up to 60 letters, most of
    them a prefix of one stem plus a short tail, so that points are
    often prefixes of one another; sometimes the identity is one."""
    rank = draw(st.integers(1, 3))
    letters = st.sampled_from([s * a for a in range(1, rank + 1) for s in (1, -1)])
    stem = draw(st.lists(letters, max_size=60))
    point = st.builds(lambda cut, tail: reduce((stem[:cut] + tail)[:60], rank),
                      st.integers(0, len(stem)), st.lists(letters, max_size=6))
    return tuple(set(draw(st.lists(point, min_size=1, max_size=15))))


@settings(max_examples=300, deadline=None)
@given(pts=_free_point_sets())
def test_l_prime_free_matches_hull_reference(pts):
    from ts_groups.tours import _free_hull, _l_prime_free

    assert _l_prime_free(_free_hull(pts)) == l_prime_free_reference(pts)


def test_l_prime_abelian_box_walk():
    rset = RelatedSet(AB2, None, box(2, 2))
    res = l_prime(rset)
    # the unit square walk has length 4 and revisits its base: 4 - 5
    assert res.value == -1 and res.certified


def test_l_prime_remark_two_bound_desk():
    for lam in (Fraction(3, 2), Fraction(2)):
        xi = first_aperiodic_word(2, 4 * 2 + 1)
        cfg = SamplerConfig(samples=20, seed=5, max_size=12, style="mixed")
        for i in range(cfg.samples):
            rset = sample_related_set(FREE2, xi, cfg, i)
            assert Fraction(l_prime(rset).value) > lam * rset.size


# -- the sampler ------------------------------------------------------------------

# one link element per group; the abelian ones give box-pairs both
# overlapping and disjoint translates
SAMPLER_PIN_XI = {
    "free:2": "a b a",
    "free:3": "a c B",
    "abelian:2": "2,1",
    "abelian:3": "1,0,1",
    "f2xz:n=2": "a b a|1",
    "prod(free:2,abelian:1)": "a b|1",
}
# the smallest box and its translate need up to 14 points
SAMPLER_PIN_SIZES = {"box-pairs": (14, 20)}
SAMPLER_PIN_DIGEST = "7ba33db5f2f0d4c70b920c43909e0d47470946bc34e5c329bf6164cae6609443"


def test_sampler_output_is_pinned():
    """Sampled sets, and the revisions of their unpaired copies, hash to
    the recorded digest, so the sampler keeps its draws and their order.
    The sampler checks none of this at run time: every set is
    xi-related, and every pairs or chains set is revised."""
    digest = hashlib.sha256()
    for descriptor, xi_text in SAMPLER_PIN_XI.items():
        oracle = make_oracle(descriptor)
        xi = oracle.parse_element(xi_text)
        fmt = oracle.format_element
        styles = ["pairs", "chains", "mixed"] + ["box-pairs"] * descriptor.startswith("abelian")
        for style in styles:
            for seed, max_size, index in itertools.product(
                    range(3), SAMPLER_PIN_SIZES.get(style, (2, 6, 14)), range(4)):
                config = SamplerConfig(seed=seed, max_size=max_size, style=style)
                rset = sample_related_set(oracle, xi, config, index)
                assert rset.size <= max_size
                assert is_xi_related(rset.elements, xi, oracle)[0]
                if style != "box-pairs":
                    assert rset.is_revised()
                rev = revise(RelatedSet(oracle, xi, rset.elements))
                for s in (rset, rev):
                    pairs = [(fmt(x), fmt(y)) for x, y in s.pairs or ()]
                    digest.update(repr(([fmt(g) for g in s.elements], pairs)).encode())
    assert digest.hexdigest() == SAMPLER_PIN_DIGEST


def test_identity_xi_is_degenerate():
    # x and x xi coincide, so no pair could be drawn or revised
    for style in ("pairs", "chains", "box-pairs"):
        with pytest.raises(DegenerateXiError):
            sample_related_set(AB2, (0, 0), SamplerConfig(style=style), 0)
    with pytest.raises(DegenerateXiError):
        revise(RelatedSet(AB2, (0, 0), box(2, 1)))


# -- experiments ------------------------------------------------------------------


def test_experiment_free_group_no_violations():
    xi = first_aperiodic_word(2, 9)
    rep = ts_lambda_experiment(
        FREE2, xi, 2, SamplerConfig(samples=25, seed=3, max_size=10, style="mixed")
    )
    assert rep.violations == []
    assert Fraction(rep.min_ratio) >= 2


def test_experiment_lattice_finds_violations():
    for xi in [(1, 0), (2, 3), (5, 0)]:
        rep = ts_lambda_experiment(
            AB2, xi, 2, SamplerConfig(samples=8, seed=3, max_size=14, style="box-pairs")
        )
        assert rep.violations
        for v in rep.violations:
            pts = tuple(AB2.parse_element(t) for t in v["elements"])
            assert is_xi_related(pts, xi, AB2)[0]
            assert v["L"] <= 2 * v["size"]


def test_experiment_report_shape():
    xi = first_aperiodic_word(2, 5)
    rep = ts_lambda_experiment(
        FREE2, xi, "1.5", SamplerConfig(samples=5, seed=0, max_size=8, compute_lprime=True)
    )
    d = rep.to_dict()
    assert {"group", "xi", "lambda", "per_sample", "min_ratio", "violations", "sampler"} <= set(d)
    for row in d["per_sample"]:
        assert {"size", "L", "ratio", "Lprime"} <= set(row)


# -- boundaries and the traversal demo ---------------------------------------------


def test_xi_boundary_segment():
    pts = [(i,) for i in range(10)]
    ab1 = make_oracle("abelian:1")
    bd = xi_boundary(pts, (1,), ab1)
    assert bd == []  # every point has a neighbor inside
    bd = xi_boundary(pts, (12,), ab1)
    assert bd == sorted(pts)


def test_k_boundary_definition():
    pts = box(4, 4)
    k_set = [(0, 0), (1, 0), (0, 1)]
    bd = k_boundary(pts, k_set, AB2)
    # interior = points whose difference translates stay inside
    inner = [p for p in pts if p not in set(bd)]
    diffs = {AB2.multiply(AB2.inverse(k1), k2) for k1 in k_set for k2 in k_set}
    for p in inner:
        assert all(AB2.multiply(p, d) in set(pts) for d in diffs)
    assert bd


def test_folner_demo_10x10():
    rep = folner_traversal_demo(AB2, [(0, 9), (0, 9)], (3, 0))
    assert rep.size == 100
    assert rep.traversal_length == 198 <= 2 * rep.size
    assert rep.chain_ok and not rep.degenerate
    assert rep.interior_related
    rep.traversal.validate()
    assert rep.traversal.visit_count(set(box(10, 10))) >= 100


def test_folner_demo_segment():
    ab1 = make_oracle("abelian:1")
    rep = folner_traversal_demo(ab1, [(0, 7)], (1,))
    assert rep.boundary_size == 0
    assert rep.traversal_length == 2 * (8 - 1)


def test_folner_demo_degenerate():
    rep = folner_traversal_demo(AB2, [(0, 1), (0, 1)], (5, 0))
    assert rep.degenerate and rep.boundary_size == 4
    assert not rep.chain_ok


def test_experiment_mixed_generator_exploratory():
    # the mixed-generator product group: link word embedded as (word, 0);
    # exploratory run, the report is produced without a ground-truth claim
    oracle = make_oracle("f2xz:n=5")
    xi = (first_aperiodic_word(2, 9), 0)
    rep = ts_lambda_experiment(
        oracle, xi, 2, SamplerConfig(samples=6, seed=4, max_size=8, style="pairs")
    )
    assert len(rep.per_sample) == 6
    assert rep.min_ratio is not None


def test_l_prime_remark_two_lambda_three():
    lam = Fraction(3)
    xi = first_aperiodic_word(2, 13)
    cfg = SamplerConfig(samples=12, seed=8, max_size=10, style="mixed")
    for i in range(cfg.samples):
        rset = sample_related_set(FREE2, xi, cfg, i)
        assert Fraction(l_prime(rset).value) > lam * rset.size


def test_l_prime_cap():
    pts = box(4, 4)
    with pytest.raises(ResourceLimitError):
        l_prime(RelatedSet(AB2, None, pts))


def test_exact_matches_brute_ten_points():
    rng = random.Random(44)
    pts = set()
    while len(pts) < 10:
        pts.add(random_element(AB2, rng, 4))
    rset = RelatedSet(AB2, None, tuple(pts))
    assert tsp_exact(rset).length == brute_tour_length(AB2, rset.elements)


# l_prime values recorded while groups that are not free ran a walk
# search over a ball hull: (group, elements, hull radius, value), the
# radius None for the search's default, the largest distance from the
# first point plus 2.  The walk search, now `l_prime_walk_reference`,
# must still give each value over its hull.
PINNED_L_PRIME = [
    ("f2xz:n=2", ["|0", "a b a|0"], 4, 3),
    ("f2xz:n=2", ["|0", "a b a|0"], 5, 3),
    ("f2xz:n=2", ["|0", "a b a|0"], None, 3),
    ("f2xz:n=2", ["|0", "a a|1"], None, -1),
    ("f2xz:n=2", ["a|0", "b|1", "a b|0"], 4, 7),
    ("f2xz:n=3", ["a a a|1", "b|0", "B|-1"], 3, 10),
    ("prod(free:2,abelian:1)", ["|0", "a b a|0"], None, 3),
    ("prod(free:2,abelian:1)", ["a|1", "b|-1", "a B|0"], None, 6),
    ("prod(free:2,abelian:1)", ["a|0", "a|2", "A|1", "b|1"], 3, 5),
    ("prod(abelian:1,f2xz:n=2)", ["1|a|0", "0|b|1", "-1||0"], 3, 10),
]


@pytest.mark.parametrize("descriptor, texts, radius, value", PINNED_L_PRIME)
def test_l_prime_hull_walk_pinned(descriptor, texts, radius, value):
    oracle = make_oracle(descriptor)
    rset = RelatedSet(oracle, None, tuple(oracle.parse_element(t) for t in texts))
    pts = rset.elements
    if radius is None:
        radius = max(rset.distances[0]) + 2
    assert l_prime(rset).value == value
    assert l_prime_walk_reference(oracle, pts, hull_reference(oracle, pts, radius)) == value


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32), st.integers(1, 7))
def test_l_prime_abelian_matches_box_walk(dim, seed, count):
    oracle = make_oracle(f"abelian:{dim}")
    rng = random.Random(seed)
    rset = RelatedSet(oracle, None, tuple(random_element(oracle, rng, 2) for _ in range(count)))
    pts = rset.elements
    assert l_prime(rset).value == l_prime_walk_reference(oracle, pts, box_reference(pts))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["f2xz:n=2", "prod(free:2,abelian:1)"]), st.integers(0, 2**32),
       st.integers(2, 3), st.integers(1, 4))
def test_l_prime_at_most_hull_walk(descriptor, seed, count, radius):
    # a walk in the hull is a walk, so it costs at least L'; the geodesics
    # between the points stay within half their distance of the points,
    # so from that radius on the hull holds an optimal walk
    oracle = make_oracle(descriptor)
    rng = random.Random(seed)
    rset = RelatedSet(oracle, None, tuple(random_element(oracle, rng, 2) for _ in range(count)))
    pts = rset.elements
    walk = l_prime_walk_reference(oracle, pts, hull_reference(oracle, pts, radius))
    value = l_prime(rset).value
    if 2 * radius >= max(map(max, rset.distances)) - 1:
        assert value == walk
    else:
        assert walk is None or value <= walk


@settings(max_examples=40, deadline=None)
@given(pts=_free_point_sets())
def test_l_prime_of_free_set_times_zero_matches_closed_form(pts):
    # S x {0} in F_k x Z: a walk leaving the Z = 0 layer comes back, so
    # the tour over the closure of D - 1 must give the tree's value
    from ts_groups.tours import _free_hull, _l_prime_free

    oracle = make_oracle(f"prod(free:{pts[0].rank},abelian:1)")
    rset = RelatedSet(oracle, None, tuple((p, (0,)) for p in pts))
    assert l_prime(rset).value == _l_prime_free(_free_hull(pts))


def test_l_prime_counts_points_between_others():
    # the walk 0, 1, 2, 1, 0 lands outside S never: 4 steps - 5 arrivals;
    # a tour under D - 1 itself, without its closure, would give 0
    oracle = make_oracle("abelian:1")
    assert l_prime(RelatedSet(oracle, None, ((0,), (1,), (2,)))).value == -1


def _multiply_walk(oracle, rng, size):
    """An F2xZ random element as a walk of `multiply` steps, one copy of
    the word per step."""
    gens = oracle.generators()
    g = oracle.identity()
    for _ in range(rng.randint(0, size)):
        g = oracle.multiply(g, rng.choice(gens))
    return g


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32), st.integers(0, 40))
def test_f2xz_random_element_matches_the_multiply_walk(n, seed, size):
    # the same draws give the same elements, and the generator stays in
    # step with the reference's
    oracle = make_oracle(f"f2xz:n={n}")
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(5):
        assert random_element(oracle, rng, size) == _multiply_walk(oracle, ref, size)
    assert rng.random() == ref.random()


WALK_GROUPS = ["free:2", "abelian:2", "abelian:3", "prod(free:2,abelian:1)", "f2xz:n=2"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WALK_GROUPS), st.integers(0, 2**32), st.integers(1, 9))
def test_mst_witness_matches_recursive_walk(descriptor, seed, count):
    oracle = make_oracle(descriptor)
    rng = random.Random(seed)
    rset = RelatedSet(oracle, None, tuple(random_element(oracle, rng, 4) for _ in range(count)))
    assert mst_bounds(rset)[2].points == mst_witness_reference(rset)


# sha256 of the witness points of 12 seeded sets (sizes 1..12) per
# group, recorded while every geodesic point was built by `multiply`.
# The six pins off free groups were recorded again, from
# `mst_witness_reference` on `GroupOracle.geodesic_points`, when the
# walk began to retrace each edge's geodesic on the way back up; on a
# free group the reversed geodesic is the geodesic back, so the two
# free pins did not move.
WITNESS_DIGESTS = {
    "free:2": "371aa40645f27d1d5bd957f95ca4031e2aae31002c23fc90c93b12530ea26064",
    "free:3": "aa2e59d55bb3a6eae7b52f0b616066b7cad09c22b43fdff2044275a436f1d6d8",
    "abelian:2": "0e4d73acae0adf49802c0425df2e1b9fd1ba348bafb45771801049d468acaca5",
    "abelian:3": "323b8dc99f490d3177cc1f367d56ce12d816a4a2ae809b7c53b72e22a7d843db",
    "prod(free:2,abelian:1)": "3bbf4fd52b0d9fe91d6121a4fb97ce92953a00a293fb39064c5e2ce48ceccfa2",
    "f2xz:n=2": "8671be1cfef88cc4ff6301a97a36a599e5807eba59a019961f8182d1dce0c719",
    "f2xz:n=3": "08ea718ed54861769fa28ac4c4d30a6cbd6ed3a27ce703d92271e7c93317ec5d",
    "prod(prod(free:2,abelian:1),f2xz:n=2)":
        "356e5ab159ee79e30a3a1a7a295fbdac955f7109496c93a9e14f208ea5a65d3c",
}


@pytest.mark.parametrize("descriptor", WITNESS_DIGESTS)
def test_mst_witness_walks_each_edge_once(descriptor):
    # one geodesic per tree edge, counted on the set's own oracle, so a
    # product's calls into its factors are not counted
    oracle = make_oracle(descriptor)
    rng = random.Random(7)
    for count in range(1, 13):
        rset = RelatedSet(oracle, None, tuple(random_element(oracle, rng, 4) for _ in range(count)))
        with mock.patch.object(oracle, "geodesic_points", wraps=oracle.geodesic_points) as spy:
            mst_bounds(rset)
        assert spy.call_count == len(rset.elements) - 1  # repeated draws are one point


@pytest.mark.parametrize("descriptor", WITNESS_DIGESTS)
def test_mst_witness_points_pinned(descriptor):
    oracle = make_oracle(descriptor)
    rng = random.Random(7)
    lines = []
    for count in range(1, 13):
        rset = RelatedSet(oracle, None, tuple(random_element(oracle, rng, 4) for _ in range(count)))
        lines.append(" / ".join(map(oracle.format_element, mst_bounds(rset)[2].points)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WITNESS_DIGESTS[descriptor]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 6)), min_size=1, max_size=3))
def test_folner_traversal_matches_recursive_walk(sides):
    oracle = make_oracle(f"abelian:{len(sides)}")
    box = [(lo, lo + w) for lo, w in sides]
    xi = (1,) + (0,) * (len(sides) - 1)
    rep = folner_traversal_demo(oracle, box, xi)
    assert rep.traversal.points == folner_walk_reference(oracle, box)


def test_folner_traversal_of_a_long_segment():
    # deeper than the default recursion limit: the walk is iterative
    oracle = make_oracle("abelian:1")
    rep = folner_traversal_demo(oracle, [(0, 4999)], (1,))
    assert rep.traversal.points == folner_walk_reference(oracle, [(0, 4999)])


def test_experiment_zero_samples_empty_report():
    xi = first_aperiodic_word(2, 5)
    rep = ts_lambda_experiment(FREE2, xi, 2, SamplerConfig(samples=0, seed=0))
    assert rep.per_sample == [] and rep.min_ratio is None and rep.violations == []
