"""Hypothesis strategies shared by more than one test module."""

import random

from hypothesis import strategies as st

from ts_groups.trees import PlaneTernaryTree


def relabelled(tree, seed):
    """The tree through its text format, with the non-origin ids moved to
    shuffled, non-contiguous values and the rows (so the sibling order)
    shuffled."""
    rng = random.Random(seed)
    others = [v for v in tree.vertices() if v != 0]
    new = dict(zip(others, rng.sample(range(1, 5 * len(others) + 2), len(others))))
    new[0] = 0
    level = tree.levels()
    rows = [f"{new[v]} {'-' if p is None else new[p]} {level[v]}" for v, p in tree.parent.items()]
    rng.shuffle(rows)
    return PlaneTernaryTree.parse("\n".join(rows) + "\n")


def trees():
    """Random, ray, complete and re-numbered parsed trees."""
    return st.one_of(
        st.builds(PlaneTernaryTree.random, st.integers(1, 40), st.integers(0, 2**16)),
        st.builds(PlaneTernaryTree.ray_tree, st.integers(0, 12)),
        st.builds(PlaneTernaryTree.complete, st.integers(0, 3)),
        st.builds(relabelled, st.builds(PlaneTernaryTree.random, st.integers(1, 30),
                                        st.integers(0, 2**16)), st.integers(0, 2**16)),
    )
