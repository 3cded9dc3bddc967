"""The benchmark's four workloads.

Each workload is a fixed list of items built from a seed.  An item's
``run`` is the timed unit of user-visible work; ``check`` (untimed)
returns the problems found in its output, including cross-checks
against the naive references in ``tests/oracles.py``; ``view`` is the
deterministic part of the output that goes into the run's digest.

Size mixes are fixed per workload and only the contents come from the
seed: the cost of an exact tour grows as n^2 2^n and that of a product
scan with its length, so a seed-drawn size mix would make the figures
depend on how many large inputs a seed happened to draw.

The library is always called through its module attributes
(``tours.tsp_exact(...)``) so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from ts_groups import forests, groups, sequences, testers, tours, trees, words

import instances
import oracles

# Per-scale sizes.  "full" is the benchmark; "tiny" serves the self-test.
SIZES = {
    "full": {
        # Counts per size are set so that the median and the tail rank
        # (see run.tail_percentile) fall inside a block of like items.
        # tsp-large: sampled sets per sampler style and size (chains cost
        # more than pairs of the same size), cluster instances
        "tour_quota": {
            "pairs": {2: 2, 4: 2, 6: 2, 8: 3, 10: 10, 12: 4, 14: 1},
            "chains": {2: 2, 4: 2, 6: 2, 8: 3, 10: 20, 12: 10, 14: 2},
        },
        "clusters": 3,
        # oracle-mix: copies of every (oracle, size) pair
        "mix_copies": 3,
        "mix_sizes": range(2, 13),
        # burnside-long: marker seeds, product block counts
        "markers": 3,
        "product_ks": (2,) * 4 + (3,) * 4 + (4,) * 5 + (5,) * 9 + (8,) * 7 + (10,) * 2 + (20,) * 2,
        # tree-paths: tree sizes, rays and their length
        "tree_sizes": (40,) + (70,) * 9 + (100,) * 8 + (130,) * 3 + (160,) * 2 + (200,),
        "rays": 11,
        "ray_length": 300,
    },
    "tiny": {
        "tour_quota": {"pairs": {2: 1, 4: 1}, "chains": {6: 1, 8: 1}},
        "clusters": 1,
        "mix_copies": 1,
        "mix_sizes": range(2, 5),
        "markers": 1,
        "product_ks": (2, 3),
        "tree_sizes": (10, 16),
        "rays": 2,
        "ray_length": 60,
    },
}

MIX_ORACLES = ("free:2", "free:3", "abelian:2", "abelian:3",
               "prod(free:2,abelian:1)", "f2xz:n=2", "f2xz:n=3")
LAMBDA = Fraction(2)
FOREST_R = 24
BRUTE_MAX_POINTS = 8  # permutation sweep limit for the tour cross-check
NAIVE_MAX_LETTERS = 40  # limit for the naive power-order cross-check
PATH_SAMPLE_EVERY = 97  # every 97th path keeps its labels for the cross-check
CROSS_EVERY = 4  # every 4th small tour item is cross-checked


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _tour_problems(rset, tour):
    problems = []
    if sorted(map(repr, tour.order)) != sorted(map(repr, rset.elements)):
        problems.append(f"{tour.kind} tour does not visit every element once")
    elif tours.tour_of_order(rset, tour.order, tour.kind).length != tour.length:
        problems.append(f"{tour.kind} tour length disagrees with its order")
    return problems


def _brute_problems(rset, exact):
    brute = oracles.brute_tour_length(rset.oracle, rset.elements)
    if brute != exact:
        return [f"exact tour {exact} != permutation sweep {brute}"]
    return []


# ---------------------------------------------------------------------------
# tsp-large
# ---------------------------------------------------------------------------


class SampledTour:
    """Sample a revised ts-lambda set, then its exact tour, L' and the
    NN + 2-opt bound."""

    def __init__(self, oracle, xi, config, index, cross):
        self.oracle, self.xi, self.config, self.index = oracle, xi, config, index
        self.cross = cross

    def run(self):
        rset = tours.sample_related_set(self.oracle, self.xi, self.config, self.index)
        return rset, tours.tsp_exact(rset), tours.l_prime(rset), tours.tsp_heuristic(rset)

    def check(self, out):
        rset, exact, lp, heur = out
        problems = _tour_problems(rset, exact) + _tour_problems(rset, heur)
        if not rset.is_revised() or rset.size > self.config.max_size:
            problems.append(f"sampled set (size {rset.size}) is not a revised set")
        if not lp.certified:
            problems.append("L' is not certified")
        if not lp.value < exact.length:
            problems.append(f"L' {lp.value} >= L {exact.length}")
        if not Fraction(lp.value) > LAMBDA * rset.size:
            problems.append(f"L' {lp.value} <= {LAMBDA} * {rset.size}")
        if heur.length < exact.length:
            problems.append(f"heuristic {heur.length} below exact {exact.length}")
        if self.cross:
            problems += _brute_problems(rset, exact.length)
        return problems

    def view(self, out):
        rset, exact, lp, heur = out
        return ("tour", self.index, rset.size, exact.length, lp.value, heur.length)


class ClusterForests:
    """Build the P and P10 forests of a cluster-shaped instance and
    verify both."""

    def __init__(self, rset, tour):
        self.rset, self.tour = rset, tour

    def run(self):
        fp = forests.build_forest_p(self.rset, FOREST_R, self.tour)
        fp10 = forests.build_forest_p10(self.rset, FOREST_R, self.tour)
        return ((fp, forests.verify_forest(fp, self.rset, FOREST_R)),
                (fp10, forests.verify_forest(fp10, self.rset, FOREST_R)))

    def check(self, out):
        exact = tours.tsp_exact(self.rset).length
        problems = []
        for forest, report in out:
            if forest.certified_bound > exact:
                problems.append(f"{forest.mode} bound {forest.certified_bound} > exact {exact}")
            if not forest.advisory and not report.ok:
                failed = sorted(k for k, c in report.checks.items() if not c["pass"])
                problems.append(f"{forest.mode} verification failed: {failed}")
        return problems

    def view(self, out):
        return ("forests", self.rset.size, [
            (f.mode, str(f.certified_bound), f.advisory, f.end_element_count,
             len(f.v_near), len(f.v_far), report.ok)
            for f, report in out
        ])


def _tsp_large(seed, sizes):
    """The ``mixed`` sampler draws a pairs or a chains set at random; a
    seed-drawn share of the two would move the median item between their
    cost levels, so each style gets a fixed count per size instead."""
    oracle = groups.make_oracle("free:2")
    xi = words.first_aperiodic_word(2, 9)
    picked = []
    for style, counts in sizes["tour_quota"].items():
        config = tours.SamplerConfig(samples=0, seed=seed, max_size=14, style=style)
        quota = dict(counts)
        index = 0
        while any(quota.values()):
            if index > 20_000:
                raise RuntimeError(f"{style} sampler did not fill the size quota {quota}")
            size = tours.sample_related_set(oracle, xi, config, index).size
            if quota.get(size):
                quota[size] -= 1
                picked.append((index, style, config, size))
            index += 1
    picked.sort(key=lambda p: p[:2])  # the two styles interleaved
    small = 0
    items = []
    for index, _, config, size in picked:
        cross = False
        if size <= BRUTE_MAX_POINTS:
            cross = small % CROSS_EVERY == 0
            small += 1
        items.append(SampledTour(oracle, xi, config, index, cross))
    clusters = []
    instance_seed = seed * 1000
    while len(clusters) < sizes["clusters"]:
        deep = 3 + len(clusters) % 2
        try:
            rset, _, tour = instances.cluster_instance(instance_seed, FOREST_R, deep_size=deep)
        except RuntimeError:
            rset = None
        instance_seed += 1
        if rset is not None:
            clusters.append(ClusterForests(rset, tour))
    # spread the forest items evenly through the sampled ones
    step = len(items) // len(clusters) + 1
    for j, item in enumerate(clusters):
        items.insert(j * step + step // 2, item)
    return items


# ---------------------------------------------------------------------------
# oracle-mix
# ---------------------------------------------------------------------------


class Sandwich:
    """MST sandwich with its doubled-tree witness, then the exact tour,
    on a fresh oracle (so no memo outlives the item)."""

    def __init__(self, descriptor, points, cross):
        self.descriptor, self.points, self.cross = descriptor, points, cross

    def run(self):
        rset = tours.RelatedSet(groups.make_oracle(self.descriptor), None, self.points)
        lo, hi, witness = tours.mst_bounds(rset)
        return rset, lo, hi, witness, tours.tsp_exact(rset)

    def check(self, out):
        rset, lo, hi, witness, exact = out
        problems = _tour_problems(rset, exact)
        if not (lo <= exact.length <= hi and hi == 2 * lo):
            problems.append(f"sandwich {lo} <= {exact.length} <= {hi} fails")
        if witness.length != 2 * lo:
            problems.append(f"witness length {witness.length} != 2W = {2 * lo}")
        try:
            witness.validate()
        except Exception as exc:  # a malformed witness is a failed item
            problems.append(f"witness does not validate: {exc}")
        if witness.visit_count(rset.elements) < rset.size:
            problems.append("witness misses an element")
        if self.cross:
            problems += _brute_problems(rset, exact.length)
        return problems

    def view(self, out):
        rset, lo, hi, witness, exact = out
        return ("sandwich", self.descriptor, rset.size, lo, exact.length)


def _oracle_mix(seed, sizes):
    rng = random.Random(seed)
    items = []
    for _ in range(sizes["mix_copies"]):
        for size in sizes["mix_sizes"]:
            for descriptor in MIX_ORACLES:
                oracle = groups.make_oracle(descriptor)
                points = set()
                while len(points) < size:
                    points.add(tours.random_element(oracle, rng, 4))
                cross = size <= BRUTE_MAX_POINTS and len(items) % CROSS_EVERY == 0
                items.append(Sandwich(descriptor, tuple(sorted(points, key=oracle.sort_key)), cross))
    return items


# ---------------------------------------------------------------------------
# burnside-long
# ---------------------------------------------------------------------------


class MarkerWord:
    """Construct and machine-verify a full-scale marker word."""

    def __init__(self, seed):
        self.seed = seed

    def run(self):
        return testers.construct_xi(self.seed)

    def check(self, report):
        problems = []
        if not report.ok:
            problems.append(f"marker word report not ok: {report.conditions}")
        if not report.params.total_low < report.n < report.params.total_high:
            problems.append(f"marker word length {report.n} outside its target")
        return problems

    def view(self, report):
        return ("marker", self.seed, report.n, report.attempts, len(report.flips),
                _digest(report.word.letters),
                sorted((k, c["pass"]) for k, c in report.conditions.items()))


class Product:
    """500-aperiodicity of one alternating product xi^(+-1) x_1 ... xi^(+-1) x_k."""

    def __init__(self, xi, xs, eps):
        self.xi, self.xs, self.eps = xi, xs, eps

    def run(self):
        return testers.verify_product_aperiodicity(self.xi, self.xs, self.eps, check_xi=False)

    def check(self, out):
        ok, analysis = out
        return [] if ok else [f"product is not 500-aperiodic: {analysis}"]

    def view(self, out):
        ok, analysis = out
        return ("product", len(self.xs), ok, sorted(analysis.items()))


def _random_reduced(rng, length):
    letters = []
    for _ in range(length):
        letters.append(rng.choice([a for a in (1, -1, 2, -2) if not letters or a != -letters[-1]]))
    return words.Word(tuple(letters), 2)


def _burnside_long(seed, sizes):
    xi = testers.construct_xi(seed).word
    rng = random.Random(seed)
    products = []
    for k in sizes["product_ks"]:
        xs = [_random_reduced(rng, rng.randint(1, 192)) for _ in range(k)]
        eps = [rng.choice((1, -1)) for _ in range(k)]
        products.append(Product(xi, xs, eps))
    markers = [MarkerWord(seed * 100 + 1 + j) for j in range(sizes["markers"])]
    step = len(products) // len(markers) + 1
    for j, item in enumerate(markers):
        products.insert(j * step, item)
    return products


# ---------------------------------------------------------------------------
# tree-paths
# ---------------------------------------------------------------------------


class TreePaths:
    """Fixed and adversarial labelings of one tree; every simple path
    checked for 3- and 10-aperiodicity."""

    def __init__(self, tree, seed):
        self.tree, self.seed = tree, seed

    def run(self):
        fixed = sequences.label_tree_three_letters(self.tree)
        advers = sequences.label_tree_adversarial(
            self.tree, set("wxyz"), sequences.random_tree_adversary(self.seed))
        paths = bad3 = bad10 = 0
        samples = []
        for path in trees.enumerate_simple_paths(self.tree):
            labels3 = fixed.path_labels(path)
            ok3 = words.is_k_aperiodic(labels3, 3)[0]
            labels10 = advers.path_labels(path)
            ok10 = words.is_k_aperiodic(labels10, 10)[0]
            bad3 += not ok3
            bad10 += not ok10
            if paths % PATH_SAMPLE_EVERY == 0 and len(labels3) <= NAIVE_MAX_LETTERS:
                samples.append((labels3, ok3, labels10, ok10))
            paths += 1
        return paths, bad3, bad10, samples, advers

    def check(self, out):
        paths, bad3, bad10, samples, _ = out
        n = self.tree.n_vertices
        problems = []
        if paths != n * (n - 1) // 2:
            problems.append(f"{paths} paths enumerated on {n} vertices")
        if bad3 or bad10:
            problems.append(f"{bad3} fixed-labeling and {bad10} adversarial path violations")
        for labels3, ok3, labels10, ok10 in samples:
            if ok3 != (oracles.naive_max_power_order(labels3) <= 3):
                problems.append(f"3-aperiodicity verdict {ok3} disagrees on {labels3}")
            if ok10 != (oracles.naive_max_power_order(labels10) <= 10):
                problems.append(f"10-aperiodicity verdict {ok10} disagrees on {labels10}")
        return problems

    def view(self, out):
        paths, bad3, bad10, _, advers = out
        return ("tree", self.tree.n_vertices, paths, bad3, bad10,
                _digest(sorted(advers.edge_labels.items())))


class RayLabels:
    """Online adversarial labeling of a ray, checked for 4-aperiodicity."""

    def __init__(self, length, ground, seed):
        self.length, self.ground, self.seed = length, ground, seed

    def run(self):
        labels, _ = sequences.label_ray_adversarial(
            self.length, self.ground, sequences.random_ray_adversary(self.seed))
        return labels, words.is_k_aperiodic(labels, 4)[0]

    def check(self, out):
        labels, ok = out
        problems = [] if ok else ["ray labeling is not 4-aperiodic"]
        if len(labels) != self.length:
            problems.append(f"ray has {len(labels)} labels, not {self.length}")
        return problems

    def view(self, out):
        labels, ok = out
        return ("ray", len(self.ground), ok, "".join(labels))


def _tree_paths(seed, sizes):
    items = []
    for j, n in enumerate(sizes["tree_sizes"]):
        items.append(TreePaths(trees.PlaneTernaryTree.random(n, seed * 1000 + j), seed * 1000 + j))
    rays = [RayLabels(sizes["ray_length"], set("abcde"[: 2 + j % 4]), seed * 1000 + 500 + j)
            for j in range(sizes["rays"])]
    # alternate: a tree, then the rays that fall to it
    per_tree = len(rays) // len(items) + 1
    out = []
    for item in items:
        out.append(item)
        out += rays[:per_tree]
        rays = rays[per_tree:]
    return out + rays


BUILDERS = {
    "tsp-large": _tsp_large,
    "oracle-mix": _oracle_mix,
    "burnside-long": _burnside_long,
    "tree-paths": _tree_paths,
}


def build(name, seed, scale="full"):
    """The workload's item list for a seed; all inputs derive from it."""
    return BUILDERS[name](seed, SIZES[scale])
