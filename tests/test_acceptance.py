"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its stated tolerance exactly.

Run with `pytest tests/test_acceptance.py -v -s` to see the per
criterion lines.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from ts_groups.forests import build_forest_p, build_forest_p10, verify_forest
from ts_groups.groups import make_oracle
from ts_groups.sequences import (
    label_ray_adversarial,
    label_tree_adversarial,
    label_tree_three_letters,
    random_ray_adversary,
    random_tree_adversary,
)
from ts_groups.testers import (
    _random_sequence,
    construct_xi,
    variety_counterexample,
    verify_product_aperiodicity,
)
from ts_groups.tours import (
    RelatedSet,
    _held_karp,
    SamplerConfig,
    folner_traversal_demo,
    is_xi_related,
    l_prime,
    mst_bounds,
    random_element,
    sample_related_set,
    ts_lambda_experiment,
    tsp_exact,
)
from ts_groups.trees import PlaneTernaryTree, enumerate_simple_paths
from ts_groups.words import Word, first_aperiodic_word, is_k_aperiodic

from instances import cluster_instance, pair_instance

FREE2 = make_oracle("free:2")
AB2 = make_oracle("abelian:2")


def report(criterion, ok, detail):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_credited_bound_reproduction():
    """L'(S) > lambda |S| for sampled revised related sets in free:2."""
    t0 = time.time()
    violations = 0
    checked = 0
    import math

    for lam_text in ("1.5", "2"):
        lam = Fraction(lam_text)
        xi = first_aperiodic_word(2, 4 * math.ceil(lam) + 1)
        assert is_k_aperiodic(xi, 1)[0]
        cfg = SamplerConfig(samples=200, seed=11, max_size=14, style="mixed")
        for i in range(cfg.samples):
            rset = sample_related_set(FREE2, xi, cfg, i)
            assert rset.is_revised() and rset.size <= 14
            exact = tsp_exact(rset).length
            lp = l_prime(rset)
            assert lp.certified
            assert lp.value < exact
            checked += 1
            if not Fraction(lp.value) > lam * rset.size:
                violations += 1
    elapsed = time.time() - t0
    report(
        1,
        violations == 0 and elapsed <= 300,
        f"{checked} revised sets, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_2_lattice_non_ts_witnesses():
    """Boxes travel at ratio <= 2 in Z^2; explicit related violating
    sets per xi."""
    t0 = time.time()
    ok = True
    details = []
    for w, h in itertools.product((2, 3, 4), repeat=2):
        pts = tuple(itertools.product(range(w), range(h)))
        # the 4x4 box is one point past the exact solver cap, so it
        # runs Held-Karp directly
        rset = RelatedSet(AB2, None, pts)
        exact = _held_karp(rset.elements, rset.distances).length
        if exact > 2 * len(pts):
            ok = False
        details.append(f"{w}x{h}:L={exact}")
    witnesses = 0
    for xi in [(1, 0), (2, 3), (5, 0)]:
        rep = ts_lambda_experiment(
            AB2, xi, 2, SamplerConfig(samples=8, seed=3, max_size=14, style="box-pairs")
        )
        found = False
        for v in rep.violations:
            pts = tuple(AB2.parse_element(t) for t in v["elements"])
            related, _ = is_xi_related(pts, xi, AB2)
            if related and v["L"] <= 2 * v["size"]:
                found = True
        witnesses += 1 if found else 0
        ok = ok and found
    report(
        2,
        ok,
        f"boxes [{' '.join(details)}], related violating sets for {witnesses}/3 xi, "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_3_mst_sandwich():
    """MST(S) <= L(S) <= 2 MST(S) with an exact doubled-tree witness."""
    t0 = time.time()
    oracles = [
        FREE2,
        make_oracle("free:3"),
        AB2,
        make_oracle("abelian:3"),
        make_oracle("prod(free:2,abelian:1)"),
        make_oracle("f2xz:n=2"),
        make_oracle("f2xz:n=3"),
    ]
    rng = random.Random(2024)
    violations = 0
    for trial in range(500):
        oracle = oracles[trial % len(oracles)]
        pts = set()
        target = rng.randint(2, 12)
        while len(pts) < target:
            pts.add(random_element(oracle, rng, 4))
        rset = RelatedSet(oracle, None, tuple(pts))
        lo, hi, witness = mst_bounds(rset)
        exact = tsp_exact(rset).length
        witness.validate()
        if not (lo <= exact <= hi and witness.length == 2 * lo):
            violations += 1
        if witness.visit_count(rset.elements) < rset.size:
            violations += 1
    report(3, violations == 0, f"500 instances, {violations} violations, {time.time() - t0:.1f}s")


def test_criterion_4_labelings():
    """Fixed and adversarial labelings stay 3-/4-/10-aperiodic."""
    t0 = time.time()
    v3 = v10 = v4 = 0
    for seed in range(100):
        tree = PlaneTernaryTree.random(200, seed)
        fixed = label_tree_three_letters(tree)
        advers = label_tree_adversarial(tree, set("wxyz"), random_tree_adversary(seed))
        for path in enumerate_simple_paths(tree):
            if not is_k_aperiodic(fixed.path_labels(path), 3)[0]:
                v3 += 1
            if not is_k_aperiodic(advers.path_labels(path), 10)[0]:
                v10 += 1
    for seed in range(100):
        ground = [set("ab"), set("abc"), set("abcd"), set("abcde")][seed % 4]
        xs, _ = label_ray_adversarial(300, ground, random_ray_adversary(seed))
        if not is_k_aperiodic(xs, 4)[0]:
            v4 += 1
    report(
        4,
        v3 == 0 and v10 == 0 and v4 == 0,
        f"100 trees + 100 ray seeds: {v3} three-letter, {v10} adversarial-tree, "
        f"{v4} ray violations, {time.time() - t0:.1f}s",
    )


def test_criterion_5_marker_word_full_scale():
    """Marker word construction succeeds and verifies for >= 9/10 seeds
    at <= 60 s per seed."""
    successes = 0
    worst = 0.0
    for seed in range(10):
        t0 = time.time()
        try:
            rep = construct_xi(seed)
        except Exception:
            continue
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        if elapsed > 60:
            continue
        if not (10000 < rep.n < 10006):
            continue
        if not rep.ok:
            continue
        assert rep.conditions["aperiodic_3"]["pass"]
        assert rep.conditions["small_cancellation_1_5"]["pass"]
        assert rep.conditions["ends_small_cancellation_1_3"]["pass"]
        successes += 1
    report(5, successes >= 9, f"{successes}/10 seeds verified, worst seed {worst:.1f}s")


def test_criterion_6_products_full_scale():
    """50 seeded sequences: every alternating product is 500-aperiodic."""
    t0 = time.time()
    xi = construct_xi(1).word
    rng = random.Random(991)
    violations = 0
    for _ in range(50):
        xs, eps = _random_sequence(rng, k_max=20, max_len=192)
        ok, analysis = verify_product_aperiodicity(xi, xs, eps, check_xi=False)
        if not ok:
            violations += 1
    elapsed = time.time() - t0
    report(6, violations == 0 and elapsed <= 600, f"50 products, {violations} violations, {elapsed:.1f}s")


def test_criterion_7_forest_soundness():
    """Certified bounds never exceed exact tours; census inequalities
    hold on non-advisory instances."""
    t0 = time.time()
    bound_bad = census_bad = 0
    advisory = 0
    checked = 0
    for seed in range(50):
        for mode, build in (("P", build_forest_p), ("P10", build_forest_p10)):
            if seed % 5 == 4:
                rset, xi = pair_instance(seed, 24, n_pairs=3 + seed % 3)
                tour = tsp_exact(rset)
            else:
                rset, xi, tour = cluster_instance(seed, 24, deep=True, deep_size=3 + seed % 2)
            forest = build(rset, 24, tour)
            exact = tsp_exact(rset).length
            checked += 1
            if forest.certified_bound > exact:
                bound_bad += 1
            if forest.advisory:
                advisory += 1
                continue
            n = rset.size
            if mode == "P":
                if not Fraction(forest.end_element_count) >= Fraction(n, 6):
                    census_bad += 1
            else:
                if not (
                    Fraction(len(forest.v_far)) <= Fraction(n, 8)
                    and Fraction(len(forest.v_near)) > Fraction(n, 24)
                ):
                    census_bad += 1
            rep = verify_forest(forest, rset, 24)
            if not rep.ok:
                census_bad += 1
    report(
        7,
        bound_bad == 0 and census_bad == 0,
        f"{checked} forests ({advisory} advisory excluded): {bound_bad} unsound bounds, "
        f"{census_bad} census failures, {time.time() - t0:.1f}s",
    )


def test_criterion_8_variety_certificates():
    """Rewriting identities reduce to exact free-word equality."""
    ok = True
    details = []
    for n, p, k, m in [(2, 2, 2, 1), (3, 2, 4, 1), (2, 3, 4, 10)]:
        cert = variety_counterexample(n, p, m, k, seed=5)
        good = (
            cert is not None
            and cert.identity_ok
            and is_k_aperiodic(tuple(cert.tokens), m)[0]
            and all(
                c[0] == c[1]
                for table in cert.balance.values()
                for c in table.values()
            )
        )
        ok = ok and good
        details.append(f"(n={n},p={p},k={k},m={m}):{'ok' if good else 'FAIL'}")
    report(8, ok, "; ".join(details))


def test_criterion_9_mixed_generator_lengths():
    """|z^i|_n >= n for i in 1..3, n <= 6, exactly; confirmed by BFS
    ball exclusion."""
    t0 = time.time()
    from oracles import bfs_lengths

    ok = True
    for n in range(1, 7):
        oracle = make_oracle(f"f2xz:n={n}")
        inside = bfs_lengths(oracle, n - 1) if n > 1 else {oracle.identity(): 0}
        for i in (1, 2, 3):
            g = (Word((), 2), i)
            if oracle.length(g) < n:
                ok = False
            if g in inside:  # BFS says |g| <= n-1: contradiction
                ok = False
    elapsed = time.time() - t0
    report(9, ok and elapsed <= 120, f"n=1..6, i=1..3 all >= n, {elapsed:.1f}s")


def test_criterion_10_folner_traversal():
    """Spanning-tree traversal chain for 10x10 and 20x20 boxes."""
    ok = True
    details = []
    for side in (10, 20):
        rep = folner_traversal_demo(AB2, [(0, side - 1), (0, side - 1)], (3, 0))
        rep.traversal.validate()
        interior = set(
            itertools.product(range(side), range(side))
        ) - set()
        covered = rep.traversal.visit_count(interior) >= rep.interior_size
        good = (
            rep.traversal_length <= 2 * rep.size
            and 4 * rep.size <= 5 * rep.interior_size
            and rep.chain_ok
            and covered
        )
        ok = ok and good
        details.append(
            f"{side}x{side}: len={rep.traversal_length} <= {2 * rep.size}, "
            f"2|F|={2 * rep.size} <= 2.5|F\\bd|={Fraction(5 * rep.interior_size, 2)}"
        )
    report(10, ok, "; ".join(details))
