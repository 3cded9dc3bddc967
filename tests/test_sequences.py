import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ts_groups.errors import MalformedInputError
from ts_groups.sequences import (
    InadmissibleEngine,
    greedy_ray_adversary,
    greedy_tree_adversary,
    label_ray_adversarial,
    label_tree_adversarial,
    label_tree_three_letters,
    random_ray_adversary,
    random_tree_adversary,
    squarefree_ternary,
    _token_sort_key,
)
from ts_groups.trees import PlaneTernaryTree, enumerate_simple_paths
from ts_groups.words import is_k_aperiodic, max_power_order, parse_word

from oracles import InadmissibleEngineReference, path_labels_reference, tree_path_reference
from strategies import trees


# -- square-free generator ---------------------------------------------------


def test_squarefree_first_letter():
    assert squarefree_ternary(1) == "A"


def test_squarefree_prefix_golden():
    assert squarefree_ternary(12) == "ABCACBABCBAC"


def test_squarefree_50():
    assert max_power_order(squarefree_ternary(50))[0] == 1


def test_squarefree_long():
    ok, _ = is_k_aperiodic(squarefree_ternary(100_000), 1)
    assert ok


def test_squarefree_1000_order_one():
    assert max_power_order(squarefree_ternary(1000))[0] == 1
    # the naive all-pairs scanner confirms a prefix directly
    from oracles import naive_max_power_order

    assert naive_max_power_order(squarefree_ternary(150)) == 1


def test_squarefree_prefix_stability():
    long = squarefree_ternary(400)
    assert long.startswith(squarefree_ternary(100))


# -- three-letter tree labeling ---------------------------------------------


def test_label_three_letters_single_vertex():
    lt = label_tree_three_letters(PlaneTernaryTree())
    assert lt.edge_labels == {}


def test_label_three_letters_complete_depth6():
    tree = PlaneTernaryTree.complete(6)
    lt = label_tree_three_letters(tree)
    for path in enumerate_simple_paths(tree):
        ok, _ = is_k_aperiodic(lt.path_labels(path), 3)
        assert ok


def test_label_three_letters_random_trees():
    for seed in range(5):
        tree = PlaneTernaryTree.random(200, seed)
        lt = label_tree_three_letters(tree)
        for path in enumerate_simple_paths(tree):
            ok, _ = is_k_aperiodic(lt.path_labels(path), 3)
            assert ok


def test_rays_read_the_squarefree_word():
    tree = PlaneTernaryTree.complete(5)
    lt = label_tree_three_letters(tree)
    seq = squarefree_ternary(5)
    for leaf in tree.leaves():
        path = tree.path_between(0, leaf)
        assert "".join(lt.path_labels(path)) == seq


# -- adversarial ray labeling -------------------------------------------------


def test_ray_forced_two_letters():
    xs, zs = label_ray_adversarial(100, {"a", "b"}, greedy_ray_adversary())
    assert is_k_aperiodic(xs, 4)[0]
    assert all(x != z for x, z in zip(xs, zs))


def test_ray_greedy_three_letters():
    xs, _ = label_ray_adversarial(200, {"a", "b", "c"}, greedy_ray_adversary())
    assert is_k_aperiodic(xs, 4)[0]


@pytest.mark.parametrize("size", [2, 3, 4])
def test_ray_random_adversaries(size):
    ground = set("abcde"[:size])
    for seed in range(25):
        xs, zs = label_ray_adversarial(300, ground, random_ray_adversary(seed))
        ok, wit = is_k_aperiodic(xs, 4)
        assert ok, (seed, size, wit)


def test_ray_steering_adversary():
    # repeatedly pushes a short pattern, restarting when blocked
    def steering(seed):
        rng = random.Random(seed)
        state = {"t": None, "i": 0}

        def pick(i, fv, z):
            fv_l = sorted(fv)
            t = state["t"]
            if t is None or t[state["i"] % len(t)] == z:
                state["t"] = [rng.choice(fv_l) for _ in range(rng.randint(1, 5))]
                state["i"] = 0
                t = state["t"]
            want = t[state["i"] % len(t)]
            if want != z:
                state["i"] += 1
                return want
            return [c for c in fv_l if c != z][0]

        return pick

    for seed in range(40):
        xs, _ = label_ray_adversarial(400, set("abc"), steering(seed))
        assert is_k_aperiodic(xs, 4)[0]


@pytest.mark.parametrize("max_period, steps, seed, digest", [
    (50, 1500, 3, "8086091184a235b596514e3a91807537a5d036aaffba60ad71f68948d44d3a17"),
    (400, 3000, 4, "4ad0900ced645b9e07f3b8c1b61a95202cadcb3956d797404538dcdf67825a2e"),
])
def test_long_period_threats_match_reference(max_period, steps, seed, digest):
    # The adversary repeats a pattern until a threat blocks it twice: a
    # Thue-Morse factor of up to max_period letters over {c, d}, so it
    # holds no short power of its own, then v^4 for a short v, so the
    # end of a fourth copy makes two threats of different periods live.
    # The pad letters are a and b; a few vertices lack c or d.
    rng = random.Random(seed)
    cands = [frozenset(rng.choices(["abcd", "acd", "bcd", "abc", "abd"],
                                   [0.945, 0.025, 0.025, 0.0025, 0.0025])[0])
             for _ in range(steps)]
    reference = InadmissibleEngineReference("abcd")
    state = {"t": None, "i": 0, "blocks": 0}
    live_periods, co_live = set(), 0

    def pick(i, fv, z):
        nonlocal co_live
        periods = {p for _, p, _ in reference._threats()}
        live_periods.update(periods)
        co_live += len(periods) >= 2
        assert z == reference.designate(fv)
        t = state["t"]
        if t is None or state["blocks"] >= 2:
            start = rng.randrange(1 << 16)
            t = ["cd"[bin(start + j).count("1") % 2]
                 for j in range(int(max_period ** rng.random()))]
            v = [rng.choice("cd") for _ in range(rng.randint(1, 3))]
            t = ["dc"[v[0] == "d"]] + t + v * 4
            state.update(t=t, i=0, blocks=0)
        want = t[state["i"] % len(t)]
        state["i"] += 1
        if want == z or want not in fv:
            state["blocks"] += want == z
            want = rng.choice(sorted(fv - {z}))
        reference.observe(want)
        return want

    xs, zs = label_ray_adversarial(steps, cands, pick)
    assert is_k_aperiodic(xs, 4)[0]
    assert co_live > 0 and max(live_periods) > max_period // 4
    text = "".join(xs) + "|" + "".join(zs)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_ray_per_vertex_candidates():
    rng = random.Random(1)
    cands = []
    for _ in range(150):
        size = rng.randint(2, 4)
        cands.append(set(rng.sample("abcde", size)))
    xs, zs = label_ray_adversarial(150, cands, random_ray_adversary(0))
    assert is_k_aperiodic(xs, 4)[0]
    for x, z, fv in zip(xs, zs, cands):
        assert x in fv and z in fv and x != z


def test_ray_tuple_tokens_are_one_collection():
    # abelian elements are tuples; a list of them is one token
    # collection, not per-vertex candidate sets
    tokens = [(1, 0), (0, 1), (-1, 0)]
    xs, zs = label_ray_adversarial(60, tokens, random_ray_adversary(0))
    assert (xs, zs) == label_ray_adversarial(60, set(tokens), random_ray_adversary(0))
    assert set(xs) | set(zs) <= set(tokens)
    assert all(x != z for x, z in zip(xs, zs))
    assert is_k_aperiodic(xs, 4)[0]


def test_ray_candidate_size_validation():
    with pytest.raises(MalformedInputError):
        label_ray_adversarial(10, {"a"}, greedy_ray_adversary())


def test_ray_rejects_cheating_adversary():
    def cheat(i, fv, z):
        return z

    with pytest.raises(MalformedInputError):
        label_ray_adversarial(5, {"a", "b"}, cheat)


def test_designation_emitted_before_choice():
    # the designation is a pure function of past observations only: the
    # same engine designates identically no matter what the adversary
    # is about to play
    engine = InadmissibleEngine({"a", "b", "c"})
    z1 = engine.designate({"a", "b", "c"})
    after_a = engine.observe("a")
    after_b = engine.observe("b")
    assert engine.designate({"a", "b", "c"}) == z1
    # histories now differ; both still designate deterministically
    assert after_a.designate({"a", "b", "c"}) in {"a", "b", "c"}
    assert after_b.designate({"a", "b", "c"}) in {"a", "b", "c"}


_TOKEN_POOLS = {
    "str": list("abcdefg"),
    "int": [-2, 0, 1, 2, 3, 5, 8],
    "word": [parse_word(t, 2) for t in ("a", "A", "b", "a b", "b a", "a B", "a b A")],
}


def _steering_adversary(rng, history, fv, z):
    """Mostly repeats the letter one random short period back, which
    builds the powers the engine has to break; otherwise plays at
    random."""
    if history and rng.random() < 0.8:
        want = history[-rng.randint(1, min(len(history), 6))]
        if want in fv and want != z:
            return want
    return rng.choice(sorted((t for t in fv if t != z), key=_token_sort_key))


@settings(deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(sorted(_TOKEN_POOLS)),
    size=st.integers(2, 5),
    steps=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_value_matches_mutable_reference(kind, size, steps, seed):
    rng = random.Random(seed)
    ground = rng.sample(_TOKEN_POOLS[kind], size)
    engine = InadmissibleEngine(ground)
    reference = InadmissibleEngineReference(ground)
    for _ in range(steps):
        fv = frozenset(rng.sample(ground, rng.randint(2, size)))
        z = engine.designate(fv)
        assert z == reference.designate(fv)
        x = _steering_adversary(rng, engine.history, fv, z)
        history = engine.history
        nxt = engine.observe(x)
        # observing leaves the receiver as it was
        assert engine.history == history
        assert engine.designate(fv) == z
        reference.observe(x)
        assert nxt.history == tuple(reference.history)
        engine = nxt
    assert is_k_aperiodic(engine.history, 4)[0]


def test_closest_threat_outranks_shorter_period():
    # two live threats: period 2 with 2 letters left (continuation a)
    # and period 9 with 1 letter left (continuation c); the one closer
    # to a fifth power is banned, not the one with the shorter period
    history = "ababababc" * 4 + "abababab"
    engine = InadmissibleEngine("abc")
    reference = InadmissibleEngineReference("abc")
    for x in history:
        engine = engine.observe(x)
        reference.observe(x)
    assert reference._threats() == [(1, 9, "c"), (2, 2, "a")]
    assert engine.designate(frozenset("abc")) == "c"
    assert reference.designate(frozenset("abc")) == "c"


def test_adversarial_tree_labelings_pinned():
    # sha256 of edge labels and inadmissibles, recorded with the mutable
    # engine that clone()d before every observe
    cases = [(PlaneTernaryTree.random(size, seed), random_tree_adversary(seed))
             for seed in range(30) for size in (4, 40, 200)]
    cases += [(PlaneTernaryTree.ray_tree(300), random_tree_adversary(0)),
              (PlaneTernaryTree.ray_tree(300), greedy_tree_adversary())]
    lines = []
    for tree, adversary in cases:
        lt = label_tree_adversarial(tree, set("wxyz"), adversary)
        lines.append(" ".join(f"{v}:{lt.edge_labels[v]}" for v in sorted(lt.edge_labels)))
        lines.append(" ".join(f"{v}:{lt.inadmissibles[v]}" for v in sorted(lt.inadmissibles)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "b705349f8a8d6bb03518ea4ef965a2ce6a16d244658b6b6c33a597299ab01ba8"
    )


# -- path labels -------------------------------------------------------------


@settings(deadline=None)
@given(trees(), st.integers(0, 2**16))
def test_path_labels_match_the_edge_reference(tree, seed):
    # every simple path both ways and every single vertex, under both
    # labelings
    fixed = label_tree_three_letters(tree)
    advers = label_tree_adversarial(tree, set("wxyz"), random_tree_adversary(seed))
    paths = [(v,) for v in tree.vertices()]
    for path in enumerate_simple_paths(tree):
        paths += [path, path[::-1], list(path)]
    for labeled in (fixed, advers):
        for path in paths:
            assert labeled.path_labels(path) == path_labels_reference(labeled, path)


@pytest.mark.parametrize("path", [(1, 2), (1, 99), (), (1, 0, 2, 0, 3), (1, 0, 1), (4, 0), (0, 4, 1),
                                  (4, 1, 6), (0, 1, 0), (1, [0])],
                         ids=["siblings", "unknown", "empty", "detour", "back-and-forth",
                              "skips-a-vertex", "wrong-order", "wrong-apex", "down-and-back",
                              "unhashable"])
def test_path_labels_reject_all_but_simple_paths(path):
    labeled = label_tree_three_letters(PlaneTernaryTree.complete(2))
    with pytest.raises(MalformedInputError):
        labeled.path_labels(path)


@pytest.mark.parametrize("make", [set, dict.fromkeys, iter, lambda p: (v for v in p)],
                         ids=["set", "dict", "iterator", "generator"])
@pytest.mark.parametrize("path", [(0, 1), (4, 1, 0, 2, 6)])
def test_path_labels_need_an_indexable_path(make, path):
    # only a sequence that indexes and slices names a path: a walk over
    # iter(path) would read {0, 1} as the edge 0-1
    labeled = label_tree_three_letters(PlaneTernaryTree.complete(2))
    assert labeled.path_labels(path)
    with pytest.raises(MalformedInputError):
        labeled.path_labels(make(path))


def test_path_labels_read_lists_tuples_and_ranges_alike():
    ray = label_tree_three_letters(PlaneTernaryTree.ray_tree(12))
    for path in (range(13), range(12, -1, -1), range(3, 9), range(5, 6)):
        labels = ray.path_labels(path)
        assert labels == ray.path_labels(list(path)) == ray.path_labels(tuple(path))
        assert labels == path_labels_reference(ray, list(path))
    tree = label_tree_three_letters(PlaneTernaryTree.complete(2))
    assert tree.path_labels([4, 1, 0, 2, 6]) == tree.path_labels((4, 1, 0, 2, 6)) == list("BAAB")


@settings(deadline=None)
@given(trees(), st.data())
def test_path_labels_accept_exactly_the_simple_paths(tree, data):
    # a random walk over the undirected tree, backtracking allowed, or
    # any list of ids, unknown ones included
    labeled = label_tree_three_letters(tree)
    if data.draw(st.booleans(), label="walk"):
        seq = [data.draw(st.sampled_from(sorted(tree.vertices())))]
        for _ in range(data.draw(st.integers(0, 12))):
            v = seq[-1]
            steps = tree.children[v] + ([] if tree.parent[v] is None else [tree.parent[v]])
            if not steps:
                break
            seq.append(data.draw(st.sampled_from(steps)))
    else:
        seq = data.draw(st.lists(st.integers(-2, max(tree.vertices()) + 3), max_size=8))
    simple = (bool(seq) and seq[0] in tree.parent and seq[-1] in tree.parent
              and seq == tree_path_reference(tree, seq[0], seq[-1]))
    if simple:
        assert labeled.path_labels(seq) == path_labels_reference(labeled, seq)
    else:
        with pytest.raises(MalformedInputError):
            labeled.path_labels(seq)


def test_path_labels_memory_is_linear():
    # one table per vertex of a 4,000-edge ray would hold about 8
    # million entries; the labels themselves take about 32 kB
    labeled = label_tree_three_letters(PlaneTernaryTree.ray_tree(4000))
    tracemalloc.start()
    try:
        labels = labeled.path_labels(list(range(4000, -1, -1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "".join(labels) == squarefree_ternary(4000)[::-1]


@pytest.mark.parametrize("size, seed, census, digest", [
    (40, 0, (780, 0, 0), "16485c2e8d189c178b1de7782fb05330d6d20f91dd0bddd5361e042adb575eca"),
    (100, 1, (4950, 0, 0), "cacebe950b9903f01f934e80d0454fffb34d56d1ebea7c4f699909766db32068"),
    (200, 2, (19900, 0, 0), "1f6487e00c25e60994313c558ef12f1c86a420e149457378294d09ddb2c386b5"),
])
def test_tree_path_check_pinned(size, seed, census, digest):
    # (paths, 3-violations, 10-violations) and a sha256 over every path
    # and its two label lists in enumeration order, recorded before the
    # per-path scan, the root table and the half-paths were rewritten
    tree = PlaneTernaryTree.random(size, seed)
    fixed = label_tree_three_letters(tree)
    advers = label_tree_adversarial(tree, set("wxyz"), random_tree_adversary(seed))
    h = hashlib.sha256()
    paths = bad3 = bad10 = 0
    for path in enumerate_simple_paths(tree):
        labels3, labels10 = fixed.path_labels(path), advers.path_labels(path)
        paths += 1
        bad3 += not is_k_aperiodic(labels3, 3)[0]
        bad10 += not is_k_aperiodic(labels10, 10)[0]
        h.update(repr((path, labels3, labels10)).encode())
    assert (paths, bad3, bad10) == census
    assert h.hexdigest() == digest


# -- adversarial tree labeling -------------------------------------------------


def test_tree_adversarial_paths_10_aperiodic():
    for seed in range(8):
        tree = PlaneTernaryTree.random(120, seed)
        lt = label_tree_adversarial(tree, set("wxyz"), random_tree_adversary(seed))
        for path in enumerate_simple_paths(tree):
            ok, wit = is_k_aperiodic(lt.path_labels(path), 10)
            assert ok, (seed, path, wit)


def test_tree_root_to_leaf_is_ray_guarantee():
    tree = PlaneTernaryTree.random(150, 3)
    lt = label_tree_adversarial(tree, set("wxyz"), random_tree_adversary(11))
    for leaf in tree.leaves():
        labels = lt.path_labels(tree.path_between(0, leaf))
        ok, _ = is_k_aperiodic(labels, 4)
        assert ok
        ok, _ = is_k_aperiodic(labels, 5)
        assert ok


def test_tree_one_inadmissible_per_vertex():
    tree = PlaneTernaryTree.random(60, 5)
    lt = label_tree_adversarial(tree, set("wxyz"), greedy_tree_adversary())
    assert set(lt.inadmissibles) == set(tree.vertices())
    for v in tree.vertices():
        kids = tree.children[v]
        labels = [lt.edge_labels[c] for c in kids]
        assert len(set(labels)) == len(labels)
        assert lt.inadmissibles[v] not in labels


def test_tree_candidate_size_validation():
    tree = PlaneTernaryTree.complete(1)
    with pytest.raises(MalformedInputError):
        label_tree_adversarial(tree, {"a", "b", "c"}, greedy_tree_adversary())


def test_tree_rejects_duplicate_labels():
    tree = PlaneTernaryTree.complete(1)

    def bad(v, fv, z, k):
        pool = sorted(t for t in fv if t != z)
        return tuple(pool[:1] * k)

    with pytest.raises(MalformedInputError):
        label_tree_adversarial(tree, set("wxyz"), bad)


def test_engine_integer_tokens():
    engine = InadmissibleEngine({1, 2, 3})
    seen = []
    for _ in range(100):
        z = engine.designate({1, 2, 3})
        x = min(t for t in (1, 2, 3) if t != z)
        engine = engine.observe(x)
        seen.append(x)
    assert is_k_aperiodic(seen, 4)[0]


def test_engine_is_its_ground_and_history():
    engine = InadmissibleEngine("cab").observe("a").observe("b")
    assert vars(engine) == {"ground": ("a", "b", "c"), "history": ("a", "b")}
