import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ts_groups.errors import ConfigurationError, MalformedInputError, ResourceLimitError
from ts_groups.groups import GroupOracle, make_oracle
from ts_groups.tours import random_element
from ts_groups.words import Word, parse_word, reduce

from oracles import (bfs_lengths, f2xz_dp_reference, f2xz_unit_greedy_reference, free_sphere_count,
                     hull_reference)


FREE2 = make_oracle("free:2")
AB2 = make_oracle("abelian:2")
PROD = make_oracle("prod(free:2,abelian:1)")


def test_descriptor_parsing():
    assert FREE2.descriptor == "free:2"
    assert make_oracle("f2xz:n=4").descriptor == "f2xz:n=4"
    assert PROD.descriptor == "prod(free:2,abelian:1)"
    with pytest.raises(ConfigurationError):
        make_oracle("dihedral:7")
    with pytest.raises(ConfigurationError):
        make_oracle("f2xz:4")
    with pytest.raises(ConfigurationError):
        make_oracle("f2xz:n=0")
    for bad in ("free:x", "abelian:x", "f2xz:n=x", "abelian:"):
        with pytest.raises(MalformedInputError):
            make_oracle(bad)


def test_f2xz_element_bad_integer_is_malformed():
    with pytest.raises(MalformedInputError):
        make_oracle("f2xz:n=2").parse_element("a|q")


_FREE3_WORDS = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12).map(
    lambda letters: reduce(letters, 3))


@given(u=_FREE3_WORDS, v=_FREE3_WORDS)
@example(u=Word((), 3), v=Word((), 3))
@example(u=Word((), 3), v=Word((1, 2, -3), 3))
@example(u=Word((2, 1), 3), v=Word((2, 1), 3))
def test_free_distance_closed_form(u, v):
    oracle = make_oracle("free:3")
    assert oracle.distance(u, v) == len(~u * v)
    assert oracle.distance(u, u) == 0


@st.composite
def _free_pairs(draw):
    # u and v extend one drawn prefix, or are equal
    rank = draw(st.integers(1, 3))
    letters = st.lists(st.sampled_from([s * a for a in range(1, rank + 1) for s in (1, -1)]),
                       max_size=8)
    prefix = draw(letters)
    u = reduce(prefix + draw(letters), rank)
    v = u if draw(st.booleans()) else reduce(prefix + draw(letters), rank)
    return make_oracle(f"free:{rank}"), u, v


@given(_free_pairs())
@example((FREE2, parse_word("a b", 2), parse_word("a b A b", 2)))
@example((FREE2, parse_word("a b a", 2), parse_word("a b b", 2)))
@example((make_oracle("free:1"), Word((1, 1), 1), Word((1, 1), 1)))
@example((make_oracle("free:3"), Word((), 3), Word((), 3)))
def test_free_geodesic_back_is_the_geodesic_reversed(pair):
    # the tree geodesic is unique, so `tours.mst_bounds` may retrace an
    # edge's way down to come back up
    oracle, u, v = pair
    assert oracle.geodesic_points(v, u) == oracle.geodesic_points(u, v)[::-1]


def test_basic_lengths():
    assert FREE2.length(FREE2.parse_element("a b a")) == 3
    assert AB2.length((3, -4)) == 7
    assert PROD.length((parse_word("a b", 2), (5,))) == 7


def test_ball_sizes():
    assert len(FREE2.ball(1)) == 5
    assert len(FREE2.ball(2)) == 17
    assert len(AB2.ball(2)) == 13


def test_free_ball_matches_closed_form():
    for rank in (2, 3):
        oracle = make_oracle(f"free:{rank}")
        for r in range(4):
            expected = sum(free_sphere_count(rank, i) for i in range(r + 1))
            assert len(oracle.ball(r)) == expected


def test_ball_membership_is_exact():
    b = AB2.ball(3)
    for g in b:
        assert AB2.length(g) <= 3
    assert (4, 0) not in b


def test_ball_budget():
    with pytest.raises(ResourceLimitError):
        FREE2.ball(10, 100)


def l1_ball_size(dim, r):
    return sum(2**k * math.comb(dim, k) * math.comb(r, k) for k in range(dim + 1))


@pytest.mark.parametrize("dim, radii", [(3, range(9)), (4, range(7))])
def test_abelian_ball_matches_closed_form(dim, radii):
    oracle = make_oracle(f"abelian:{dim}")
    for r in radii:
        ball = oracle.ball(r)
        assert len(ball) == l1_ball_size(dim, r)
        assert all(oracle.length(g) <= r for g in ball)


@pytest.mark.parametrize("r", [22, 23])
def test_abelian_ball_fits_its_limit(r):
    # 15,225 and 17,343 elements: a ball that fits the limit is built
    ball = make_oracle("abelian:3").ball(r, 20_000)
    assert len(ball) == l1_ball_size(3, r)
    with pytest.raises(ResourceLimitError):
        make_oracle("abelian:3").ball(r, l1_ball_size(3, r) - 1)


def test_element_parse_format_round_trip():
    rng = random.Random(0)
    for oracle in (FREE2, AB2, PROD, make_oracle("f2xz:n=3")):
        for _ in range(50):
            g = random_element(oracle, rng, 5)
            assert oracle.parse_element(oracle.format_element(g)) == g


ROUND_TRIP_GROUPS = ["free:2", "abelian:2", "f2xz:n=2", "prod(f2xz:n=2,abelian:1)",
                     "prod(prod(free:2,abelian:1),abelian:1)", "prod(abelian:1,f2xz:n=2)",
                     "prod(free:2,prod(f2xz:n=2,abelian:2))",
                     "prod(prod(f2xz:n=2,abelian:1),prod(f2xz:n=3,free:2))"]


@given(st.sampled_from(ROUND_TRIP_GROUPS), st.integers(0, 2**32), st.integers(0, 6))
def test_nested_product_round_trip(descriptor, seed, size):
    # a left factor whose own text holds '|' (f2xz, a product) must not
    # end the left part at its first '|'
    oracle = make_oracle(descriptor)
    g = random_element(oracle, random.Random(seed), size)
    assert oracle.parse_element(oracle.format_element(g)) == g


@pytest.mark.parametrize("descriptor, text", [("prod(f2xz:n=2,abelian:1)", "a a|1"),
                                              ("prod(prod(free:2,abelian:1),abelian:1)", "a|1")])
def test_nested_product_needs_every_factor(descriptor, text):
    with pytest.raises(MalformedInputError):
        make_oracle(descriptor).parse_element(text)


HULL_GROUPS = ["free:2", "abelian:2", "prod(free:2,abelian:1)", "f2xz:n=2"]


@given(st.sampled_from(HULL_GROUPS), st.integers(0, 4))
def test_neighbourhood_matches_layer_hull(descriptor, r):
    oracle = make_oracle(descriptor)
    ball = oracle.ball(r, 200_000)
    assert len(ball) == len(set(ball))
    assert set(ball) == hull_reference(oracle, [oracle.identity()], r)


def test_abelian_parse_validation():
    with pytest.raises(MalformedInputError):
        AB2.parse_element("1,2,3")
    with pytest.raises(MalformedInputError):
        AB2.parse_element("1,x")


@pytest.mark.parametrize("descriptor", ["free:2", "abelian:2", "prod(free:2,abelian:1)", "f2xz:n=3"])
def test_metric_invariants(descriptor):
    oracle = make_oracle(descriptor)
    rng = random.Random(17)
    for _ in range(400):
        g = random_element(oracle, rng, 5)
        h = random_element(oracle, rng, 5)
        x = random_element(oracle, rng, 5)
        assert oracle.length(oracle.inverse(g)) == oracle.length(g)
        assert (oracle.length(g) == 0) == (g == oracle.identity())
        assert oracle.distance(g, h) == oracle.distance(
            oracle.multiply(x, g), oracle.multiply(x, h)
        )
        assert oracle.distance(g, h) <= oracle.distance(g, x) + oracle.distance(x, h)


# Oracles whose classes override GroupOracle.geodesic_points or
# GroupOracle.distance; tests/test_hygiene.py checks that every
# overriding class is listed here.
BASE_METHOD_GROUPS = ["free:2", "free:3", "abelian:1", "abelian:3", "f2xz:n=1", "f2xz:n=2",
                      "f2xz:n=3", "prod(free:2,abelian:1)", "prod(f2xz:n=2,abelian:2)",
                      "prod(prod(free:2,abelian:1),free:3)"]


def _assert_overrides_match(oracle, start, end):
    for s, e in ((start, end), (end, start), (start, start)):
        assert oracle.geodesic_points(s, e) == GroupOracle.geodesic_points(oracle, s, e)
        assert oracle.distance(s, e) == GroupOracle.distance(oracle, s, e)


@given(st.sampled_from(BASE_METHOD_GROUPS), st.integers(0, 2**32), st.integers(0, 6),
       st.booleans())
@example(descriptor="free:2", seed=0, size=0, shared=False)
def test_overrides_match_base_methods(descriptor, seed, size, shared):
    oracle = make_oracle(descriptor)
    rng = random.Random(seed)
    start, end = random_element(oracle, rng, size), random_element(oracle, rng, size)
    if shared:  # end extends start, so the free parts share a prefix
        end = oracle.multiply(start, end)
    _assert_overrides_match(oracle, start, end)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", [40, -40])
@pytest.mark.parametrize("word", ["", "b b", "a a a b A", "B a a a a"],
                         ids=lambda w: w.replace(" ", "") or "empty")
def test_f2xz_overrides_match_base_methods_on_long_z_powers(n, t, word):
    # a z exponent far past what the syllables take at cost below n + 1,
    # so _solve hands every step left to one syllable at once; random
    # generator walks never get there
    oracle = make_oracle(f"f2xz:n={n}")
    _assert_overrides_match(oracle, (parse_word("a b", 2), 3), (parse_word(word, 2), 3 + t))


def test_mixed_rank_geodesic_endpoints_are_malformed():
    a2, a3 = Word((1,), 2), Word((1,), 3)
    for oracle, s, e in [(FREE2, a2, a3), (FREE2, a3, a2),
                         (PROD, (a2, (0,)), (a3, (1,))), (PROD, (a3, (0,)), (a2, (0,)))]:
        with pytest.raises(MalformedInputError):
            oracle.geodesic_points(s, e)


def test_mixed_rank_distance_is_malformed():
    a2, a3 = Word((1,), 2), Word((1,), 3)
    for oracle, s, e in [(FREE2, a2, a3), (FREE2, a3, a2),
                         (PROD, (a2, (0,)), (a3, (1,))), (PROD, (a3, (0,)), (a2, (0,)))]:
        for distance in (type(oracle).distance, GroupOracle.distance):
            with pytest.raises(MalformedInputError):
                distance(oracle, s, e)


def test_geodesics_realize_lengths():
    rng = random.Random(3)
    for descriptor in ("free:2", "abelian:3", "prod(free:2,abelian:1)", "f2xz:n=2"):
        oracle = make_oracle(descriptor)
        gens = oracle.generators()
        for s in gens:
            assert oracle.length(s) == 1
        for _ in range(150):
            g = random_element(oracle, rng, 6)
            steps = oracle.geodesic_steps(g)
            assert len(steps) == oracle.length(g)
            acc = oracle.identity()
            for s in steps:
                assert s in gens
                acc = oracle.multiply(acc, s)
            assert acc == g


# -- the mixed-generator product oracle ---------------------------------------


def test_f2xz_lengths_match_bfs():
    # exhaustive cross-validation against plain BFS on whole balls
    for n in (1, 2, 3):
        oracle = make_oracle(f"f2xz:n={n}")
        reference = bfs_lengths(oracle, 6)
        for g, d in reference.items():
            assert oracle.length(g) == d


def test_f2xz_z_powers_lower_bound():
    for n in range(1, 7):
        oracle = make_oracle(f"f2xz:n={n}")
        for i in (1, 2, 3):
            g = (Word((), 2), i)
            assert oracle.length(g) >= n
            assert oracle.length(g) == i * (n + 1)


def test_f2xz_z_example():
    oracle = make_oracle("f2xz:n=3")
    assert oracle.length((Word((), 2), 1)) == 4


def test_f2xz_subadditive_on_ball():
    oracle = make_oracle("f2xz:n=2")
    b = oracle.ball(4)
    els = list(b)[:40]
    for g in els:
        for h in els:
            assert oracle.length(oracle.multiply(g, h)) <= oracle.length(g) + oracle.length(h)


def test_f2xz_free_projection_bound():
    # each generator moves the free part by at most n letters
    oracle = make_oracle("f2xz:n=3")
    rng = random.Random(4)
    for _ in range(200):
        g = random_element(oracle, rng, 6)
        assert len(g[0]) <= oracle.length(g) * oracle.n


def test_length_is_repeatable():
    oracle = make_oracle("f2xz:n=4")
    g = (parse_word("a b a b", 2), 3)
    first = oracle.length(g)
    for _ in range(5):
        assert oracle.length(g) == first


_SYLLABLES = st.lists(st.tuples(st.integers(-30, 30), st.sampled_from([2, -2])), max_size=8)


@given(n=st.integers(1, 5), head=st.integers(-30, 30), syllables=_SYLLABLES,
       t=st.integers(-15, 15))
@example(n=2, head=20, syllables=[(-20, 2)], t=0)
@example(n=1, head=0, syllables=[], t=-15)
def test_f2xz_greedy_matches_dp(n, head, syllables, t):
    # a^head (b^+-1 a^k)... with up to 8 b-letters, against the balance DP
    letters = [1 if head > 0 else -1] * abs(head)
    for k, b in syllables:
        letters += [b] + [1 if k > 0 else -1] * abs(k)
    oracle = make_oracle(f"f2xz:n={n}")
    g = (reduce(letters, 2), t)
    ks, signs = oracle._syllables(g[0].letters)
    length, picks = oracle._solve(ks, t)
    assert length == f2xz_dp_reference(oracle, g)[0]
    assert sum(picks) == t
    assert len(signs) + sum(abs(d) + abs(k - n * d) for k, d in zip(ks, picks)) == length
    steps = oracle.geodesic_steps(g)
    acc = oracle.identity()
    for s in steps:
        acc = oracle.multiply(acc, s)
    assert acc == g and len(steps) == length


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("t", [1000, -1000])
def test_f2xz_long_z_power_closed_form(n, t):
    # |(b^m, t)| = m + (n+1)|t|: every syllable is empty, so each z costs
    # one a^n z and n letters a^-+1.  The balance DP's cost grew as
    # L * t^2, too slow for a test at this t
    oracle = make_oracle(f"f2xz:n={n}")
    assert oracle.length((Word((2,) * 16, 2), t)) == 16 + (n + 1) * abs(t)


@given(n=st.integers(1, 6), head=st.integers(-30, 30), syllables=_SYLLABLES,
       t=st.integers(-2000, 2000))
@example(n=2, head=0, syllables=[(0, 2)] * 8, t=2000)
@example(n=3, head=-7, syllables=[(5, 2), (-9, -2)], t=-1)
def test_f2xz_tail_jump_matches_unit_greedy(n, head, syllables, t):
    # handing a syllable on its linear tail every step left at once gives
    # the picks that the one-block-per-step greedy reaches
    letters = [1 if head > 0 else -1] * abs(head)
    for k, b in syllables:
        letters += [b] + [1 if k > 0 else -1] * abs(k)
    oracle = make_oracle(f"f2xz:n={n}")
    g = (reduce(letters, 2), t)
    length, picks = oracle._solve(oracle._syllables(g[0].letters)[0], t)
    assert (length, picks) == f2xz_unit_greedy_reference(oracle, g)


def test_f2xz_huge_z_power_closed_form():
    # one-block-per-step greedy would take a billion heap steps here
    oracle = make_oracle("f2xz:n=2")
    assert oracle.length((Word((2,) * 16, 2), 10**9)) == 16 + 3 * 10**9
    assert oracle.length((Word((2,) * 16, 2), -(10**9))) == 16 + 3 * 10**9


def test_f2xz_oracle_holds_no_state():
    oracle = make_oracle("f2xz:n=3")
    rng = random.Random(5)
    for _ in range(200):
        g = random_element(oracle, rng, 6)
        oracle.length(g)
        oracle.geodesic_steps(g)
    assert set(vars(oracle)) == {"n", "rank", "descriptor"}


def test_f2xz_opposed_syllables_regression():
    # |a^20 b a^-20, 0| = 21 via (a^2 z)^10 b (z^-1 a^-2)^10: the block
    # assignments of the two big syllables cancel through a balance of
    # +-10, which an over-aggressive DP prune once lost
    oracle = make_oracle("f2xz:n=2")
    g = (Word(tuple([1] * 20 + [2] + [-1] * 20), 2), 0)
    assert oracle.length(g) == 21
    steps = oracle.geodesic_steps(g)
    acc = oracle.identity()
    for s in steps:
        acc = oracle.multiply(acc, s)
    assert acc == g and len(steps) == 21


def test_f2xz_big_syllable_stress():
    rng = random.Random(0)
    for n in (2, 3, 5):
        oracle = make_oracle(f"f2xz:n={n}")
        for _ in range(150):
            m = rng.randint(0, 25)
            t = rng.randint(-4, 4)
            w = Word(tuple([1] * m + [2] + [-1] * m), 2)
            g = (w, t)
            length = oracle.length(g)
            split = oracle.length((w, 0)) + oracle.length((Word((), 2), t))
            assert length <= split
            steps = oracle.geodesic_steps(g)
            acc = oracle.identity()
            for s in steps:
                acc = oracle.multiply(acc, s)
            assert acc == g and len(steps) == length
