import bisect
import dataclasses
import functools
import hashlib
import importlib.util
import json
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ts_groups.cancellation import SymmetrizedSet, satisfies_small_cancellation
from ts_groups import markers, products, testers
from ts_groups.errors import (
    InternalInvariantError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
)
from ts_groups.groups import FREE_RANK_CAP, FreeOracle, make_oracle
from ts_groups.testers import (
    PropertySpec,
    SearchBudget,
    XiParams,
    _random_sequence,
    burnside_pipeline,
    construct_xi,
    test_property as run_property_search,
    variety_counterexample,
    verify_product_aperiodicity,
)
from ts_groups.products import _ReducedProduct
from ts_groups.sequences import squarefree_ternary
from ts_groups.words import (
    Word,
    _first_power,
    format_word,
    inverse_letters,
    is_k_aperiodic,
    max_power_order,
    parse_word,
    random_word,
    reduce,
)

from oracles import flip_conditions_reference, select_flips_reference, tagged_product_reference

FREE2 = make_oracle("free:2")
AB2 = make_oracle("abelian:2")


# -- property testers ----------------------------------------------------------


def test_abelian_always_fails_plain_family():
    spec = PropertySpec("P", r=2, oracle=AB2, xi=(1, 1))
    verdict = run_property_search(spec, SearchBudget(k_max=2))
    assert verdict.outcome == "counterexample-found"


def test_abelian_primed_family_two_term_witness():
    # the canonical cancellation (e1, -e1) with signs (+, -) collapses
    spec = PropertySpec("Pn'", r=2, oracle=AB2, xi=(1, 1), n=1)
    xs = ((1, 0), (-1, 0))
    assert is_k_aperiodic(xs, 1)[0]
    g = AB2.identity()
    for x, e in zip(xs, (1, -1)):
        g = AB2.multiply(g, (1, 1) if e > 0 else (-1, -1))
        g = AB2.multiply(g, x)
    assert AB2.length(g) == 0 <= 2
    verdict = run_property_search(spec, SearchBudget(k_max=2))
    assert verdict.outcome == "counterexample-found"


def test_forced_cancellation_counterexample():
    xi = parse_word("a b a B a b A b a", 2)
    spec = PropertySpec("P", r=len(xi), oracle=FREE2, xi=xi)
    verdict = run_property_search(spec, SearchBudget(k_max=1, exhaustive_limit=10))
    assert verdict.outcome == "counterexample-found"
    assert verdict.regime == "sampled"
    # the inverse of xi itself is always a pooled candidate
    spec2 = PropertySpec("P", r=len(xi), oracle=FREE2, xi=xi)
    g = FREE2.multiply(xi, FREE2.inverse(xi))
    assert FREE2.length(g) == 0


def test_free_marker_word_no_counterexample_small():
    xi = construct_xi(0, XiParams.desk()).word
    spec = PropertySpec("Pn'", r=6, oracle=FREE2, xi=xi, n=10)
    verdict = run_property_search(spec, SearchBudget(k_max=2, exhaustive_limit=500, samples=400))
    assert verdict.outcome == "no-counterexample-within-budget"


def test_verdict_shape():
    spec = PropertySpec("P", r=2, oracle=AB2, xi=(1, 0))
    verdict = run_property_search(spec, SearchBudget(k_max=1))
    d = verdict.to_dict()
    assert {"outcome", "witness", "regime", "tried"} <= set(d)


def test_property_spec_validation():
    with pytest.raises(Exception):
        PropertySpec("Q", r=2, oracle=AB2, xi=(1, 0))
    with pytest.raises(Exception):
        PropertySpec("Pn'", r=2, oracle=AB2, xi=(1, 0), n=0)


class CountingFree(FreeOracle):
    """Free oracle that records its products and, when the ball search
    ends, how many it had made by then."""

    def __init__(self, rank):
        super().__init__(rank)
        self.products = []
        self.ball_products = None

    def multiply(self, g, h):
        self.products.append(g * h)
        return self.products[-1]

    def ball(self, r, limit=10**6):
        try:
            return super().ball(r, limit)
        finally:
            self.ball_products = list(self.products)


def test_ball_limit_stops_the_enumeration():
    # the 5-ball of free:3 has 4,687 elements; a limit of 40 must stop
    # the breadth-first search at its 41st element
    limit = 40
    oracle = CountingFree(3)
    spec = PropertySpec("P", r=5, oracle=oracle, xi=parse_word("a b c", 3))
    verdict = run_property_search(spec, SearchBudget(k_max=1, samples=20, ball_limit=limit))
    assert verdict.regime == "sampled"
    assert len(oracle.ball_products) <= (limit + 1) * len(oracle.generators())
    assert len(set(oracle.ball_products) | {oracle.identity()}) == limit + 1


@pytest.mark.parametrize("limit", [1, 2, 3])
def test_tiny_ball_limit_samples_a_nonempty_pool(limit):
    # limit // 4 is 0 here; the sampled pool still holds one element
    spec = PropertySpec("P", r=2, oracle=FREE2, xi=parse_word("a b a B a b", 2))
    verdict = run_property_search(spec, SearchBudget(k_max=2, samples=50, ball_limit=limit))
    assert isinstance(verdict, testers.Verdict)
    assert verdict.regime == "sampled"


def test_replay_failure_is_an_internal_invariant(monkeypatch):
    monkeypatch.setattr(testers, "_replay_witness", lambda spec, witness: False)
    spec = PropertySpec("P", r=2, oracle=AB2, xi=(1, 1))
    with pytest.raises(InternalInvariantError):
        run_property_search(spec, SearchBudget(k_max=2))


# Verdicts recorded before the ball limit was passed to the enumeration
# and the exhaustive and sampled searches were merged into one loop; both
# changes must leave every verdict as it was.  Rows are (group, family, n,
# r, budget index, outcome, regime, tried, witness), the witness as
# (k, eps, xs, length).
PIN_XI = {"free:2": "a b a B a b A b a", "abelian:2": "1,1",
          "prod(free:2,abelian:1)": "a B|1", "f2xz:n=2": "a b|1"}
PIN_BUDGETS = (SearchBudget(k_max=2, exhaustive_limit=2000, samples=200, seed=1),
               SearchBudget(k_max=3, exhaustive_limit=10, samples=300, seed=2),
               SearchBudget(k_max=2, samples=200, seed=3, ball_limit=40))
PIN_OUTCOMES = {"co": "counterexample-found", "no": "no-counterexample-within-budget"}
PIN_REGIMES = {"ex": "exhaustive", "sa": "sampled"}
PINNED_VERDICTS = [
    ("free:2", "P", 1, 2, 0, "no", "ex", 1056, None),
    ("free:2", "P", 1, 2, 1, "no", "sa", 300, None),
    ("free:2", "P", 1, 2, 2, "no", "ex", 1056, None),
    ("free:2", "P", 1, 3, 0, "no", "sa", 200, None),
    ("free:2", "P", 1, 3, 1, "no", "sa", 300, None),
    ("free:2", "P", 1, 3, 2, "no", "sa", 200, None),
    ("free:2", "Pn'", 1, 2, 0, "no", "ex", 992, None),
    ("free:2", "Pn'", 1, 2, 1, "no", "sa", 283, None),
    ("free:2", "Pn'", 1, 2, 2, "no", "ex", 992, None),
    ("free:2", "Pn'", 1, 3, 0, "no", "sa", 199, None),
    ("free:2", "Pn'", 1, 3, 1, "no", "sa", 294, None),
    ("free:2", "Pn'", 1, 3, 2, "no", "sa", 191, None),
    ("free:2", "Pn'", 3, 2, 0, "no", "ex", 1056, None),
    ("free:2", "Pn'", 3, 2, 1, "no", "sa", 300, None),
    ("free:2", "Pn'", 3, 2, 2, "no", "ex", 1056, None),
    ("free:2", "Pn'", 3, 3, 0, "no", "sa", 200, None),
    ("free:2", "Pn'", 3, 3, 1, "no", "sa", 300, None),
    ("free:2", "Pn'", 3, 3, 2, "no", "sa", 200, None),
    ("abelian:2", "P", 1, 2, 0, "co", "ex", 1, (1, (1,), ("-1,0",), 1)),
    ("abelian:2", "P", 1, 2, 1, "co", "sa", 1, (1, (1,), ("0,-1",), 1)),
    ("abelian:2", "P", 1, 2, 2, "co", "ex", 1, (1, (1,), ("-1,0",), 1)),
    ("abelian:2", "P", 1, 3, 0, "co", "sa", 3, (2, (-1, 1), ("-1,1", "1,0"), 1)),
    ("abelian:2", "P", 1, 3, 1, "co", "sa", 1, (1, (1,), ("0,1",), 3)),
    ("abelian:2", "P", 1, 3, 2, "co", "ex", 1, (1, (1,), ("-1,0",), 1)),
    ("abelian:2", "Pn'", 1, 2, 0, "co", "ex", 1, (1, (1,), ("-1,0",), 1)),
    ("abelian:2", "Pn'", 1, 2, 1, "co", "sa", 1, (1, (1,), ("0,-1",), 1)),
    ("abelian:2", "Pn'", 1, 2, 2, "co", "ex", 1, (1, (1,), ("-1,0",), 1)),
    ("abelian:2", "Pn'", 1, 3, 0, "co", "sa", 3, (2, (-1, 1), ("-1,1", "1,0"), 1)),
    ("abelian:2", "Pn'", 1, 3, 1, "co", "sa", 1, (1, (1,), ("0,1",), 3)),
    ("abelian:2", "Pn'", 1, 3, 2, "co", "ex", 1, (1, (1,), ("-1,0",), 1)),
    ("abelian:2", "Pn'", 3, 2, 0, "co", "ex", 1, (1, (1,), ("-1,0",), 1)),
    ("abelian:2", "Pn'", 3, 2, 1, "co", "sa", 1, (1, (1,), ("0,-1",), 1)),
    ("abelian:2", "Pn'", 3, 2, 2, "co", "ex", 1, (1, (1,), ("-1,0",), 1)),
    ("abelian:2", "Pn'", 3, 3, 0, "co", "sa", 3, (2, (-1, 1), ("-1,1", "1,0"), 1)),
    ("abelian:2", "Pn'", 3, 3, 1, "co", "sa", 1, (1, (1,), ("0,1",), 3)),
    ("abelian:2", "Pn'", 3, 3, 2, "co", "ex", 1, (1, (1,), ("-1,0",), 1)),
    ("prod(free:2,abelian:1)", "P", 1, 2, 0, "co", "sa", 18, (1, (1,), ("b|-1",), 1)),
    ("prod(free:2,abelian:1)", "P", 1, 2, 1, "co", "sa", 29, (2, (-1, 1), ("|-1", "B|1"), 1)),
    ("prod(free:2,abelian:1)", "P", 1, 2, 2, "co", "ex", 1, (1, (1,), ("|-1",), 2)),
    ("prod(free:2,abelian:1)", "P", 1, 3, 0, "co", "sa", 8, (2, (1, -1), ("b a B|0", "A|0"), 0)),
    ("prod(free:2,abelian:1)", "P", 1, 3, 1, "co", "sa", 22, (1, (1,), ("b|-1",), 1)),
    ("prod(free:2,abelian:1)", "P", 1, 3, 2, "co", "sa", 5, (1, (1,), ("A|-1",), 3)),
    ("prod(free:2,abelian:1)", "Pn'", 1, 2, 0, "co", "sa", 18, (1, (1,), ("b|-1",), 1)),
    ("prod(free:2,abelian:1)", "Pn'", 1, 2, 1, "co", "sa", 14, (2, (1, -1), ("b a|0", "a B|0"), 2)),
    ("prod(free:2,abelian:1)", "Pn'", 1, 2, 2, "co", "ex", 1, (1, (1,), ("|-1",), 2)),
    ("prod(free:2,abelian:1)", "Pn'", 1, 3, 0, "co", "sa", 8, (2, (1, -1), ("b a B|0", "A|0"), 0)),
    ("prod(free:2,abelian:1)", "Pn'", 1, 3, 1, "co", "sa", 22, (1, (1,), ("b|-1",), 1)),
    ("prod(free:2,abelian:1)", "Pn'", 1, 3, 2, "co", "sa", 6, (1, (1,), ("b A|-1",), 0)),
    ("prod(free:2,abelian:1)", "Pn'", 3, 2, 0, "co", "sa", 18, (1, (1,), ("b|-1",), 1)),
    ("prod(free:2,abelian:1)", "Pn'", 3, 2, 1, "co", "sa", 29, (2, (-1, 1), ("|-1", "B|1"), 1)),
    ("prod(free:2,abelian:1)", "Pn'", 3, 2, 2, "co", "ex", 1, (1, (1,), ("|-1",), 2)),
    ("prod(free:2,abelian:1)", "Pn'", 3, 3, 0, "co", "sa", 8, (2, (1, -1), ("b a B|0", "A|0"), 0)),
    ("prod(free:2,abelian:1)", "Pn'", 3, 3, 1, "co", "sa", 22, (1, (1,), ("b|-1",), 1)),
    ("prod(free:2,abelian:1)", "Pn'", 3, 3, 2, "co", "sa", 5, (1, (1,), ("A|-1",), 3)),
    ("f2xz:n=2", "P", 1, 2, 0, "co", "sa", 30, (1, (-1,), ("a|1",), 1)),
    ("f2xz:n=2", "P", 1, 2, 1, "co", "sa", 27, (2, (-1, 1), ("a b|0", "B A|0"), 0)),
    ("f2xz:n=2", "P", 1, 2, 2, "co", "ex", 1, (1, (1,), ("B|0",), 2)),
    ("f2xz:n=2", "P", 1, 3, 0, "co", "sa", 1, (1, (-1,), ("a b|0",), 3)),
    ("f2xz:n=2", "P", 1, 3, 1, "co", "sa", 1, (1, (1,), ("B A|-1",), 0)),
    ("f2xz:n=2", "P", 1, 3, 2, "co", "sa", 23, (1, (-1,), ("a b|0",), 3)),
    ("f2xz:n=2", "Pn'", 1, 2, 0, "co", "sa", 20, (1, (1,), ("B|0",), 2)),
    ("f2xz:n=2", "Pn'", 1, 2, 1, "co", "sa", 27, (2, (-1, 1), ("a b|0", "B A|0"), 0)),
    ("f2xz:n=2", "Pn'", 1, 2, 2, "co", "ex", 1, (1, (1,), ("B|0",), 2)),
    ("f2xz:n=2", "Pn'", 1, 3, 0, "co", "sa", 1, (1, (-1,), ("a b|0",), 3)),
    ("f2xz:n=2", "Pn'", 1, 3, 1, "co", "sa", 1, (1, (1,), ("B A|-1",), 0)),
    ("f2xz:n=2", "Pn'", 1, 3, 2, "co", "sa", 6, (1, (1,), ("B A|-1",), 0)),
    ("f2xz:n=2", "Pn'", 3, 2, 0, "co", "sa", 30, (1, (-1,), ("a|1",), 1)),
    ("f2xz:n=2", "Pn'", 3, 2, 1, "co", "sa", 27, (2, (-1, 1), ("a b|0", "B A|0"), 0)),
    ("f2xz:n=2", "Pn'", 3, 2, 2, "co", "ex", 1, (1, (1,), ("B|0",), 2)),
    ("f2xz:n=2", "Pn'", 3, 3, 0, "co", "sa", 1, (1, (-1,), ("a b|0",), 3)),
    ("f2xz:n=2", "Pn'", 3, 3, 1, "co", "sa", 1, (1, (1,), ("B A|-1",), 0)),
    ("f2xz:n=2", "Pn'", 3, 3, 2, "co", "sa", 23, (1, (-1,), ("a b|0",), 3)),
]


@pytest.mark.parametrize("group, family, n, r, budget, outcome, regime, tried, witness",
                         PINNED_VERDICTS)
def test_pinned_verdicts(group, family, n, r, budget, outcome, regime, tried, witness):
    oracle = make_oracle(group)
    spec = PropertySpec(family, r=r, oracle=oracle, xi=oracle.parse_element(PIN_XI[group]), n=n)
    if witness is not None:
        k, eps, xs, length = witness
        witness = {"k": k, "eps": list(eps), "xs": list(xs), "length": length}
    assert run_property_search(spec, PIN_BUDGETS[budget]).to_dict() == {
        "outcome": PIN_OUTCOMES[outcome],
        "witness": witness,
        "regime": PIN_REGIMES[regime],
        "tried": tried,
    }


# -- variety counterexamples ------------------------------------------------------


@pytest.mark.parametrize("n,p,k,m", [(2, 2, 2, 1), (3, 2, 4, 1), (2, 3, 4, 10)])
def test_variety_certificates(n, p, k, m):
    cert = variety_counterexample(n, p, m, k, seed=3)
    assert cert is not None
    assert cert.identity_ok
    assert is_k_aperiodic(tuple(cert.tokens), m)[0]
    for side in ("odd", "even"):
        for g, (plus, minus) in cert.balance[side].items():
            assert plus == minus
    # the words are p-th powers of single generators
    for (g, s), word in zip(cert.tokens, cert.words):
        assert word == Word((g + 1,), n + 1) ** (s * p)


def test_variety_rewriting_identity_explicit():
    cert = variety_counterexample(2, 2, 1, 2, seed=0)
    rank = 3
    xi = Word((1,), rank)
    lhs = Word((), rank)
    for word, e in zip(cert.words, cert.eps):
        lhs = lhs * (xi if e > 0 else ~xi) * word
    rhs = Word((), rank)
    for j, ((g, s), word) in enumerate(zip(cert.tokens, cert.words)):
        if j % 2 == 0:
            rhs = rhs * (xi * Word((g + 1,), rank) ** s * ~xi) ** cert.p
        else:
            rhs = rhs * word
    assert lhs == rhs


def test_variety_odd_k_unsatisfiable():
    assert variety_counterexample(2, 2, 1, 3, seed=0) is None


# -- marker word construction ------------------------------------------------------


def test_construct_xi_desk_scale():
    rep = construct_xi(0, XiParams.desk())
    assert rep.ok
    assert 500 < rep.n < 506
    assert is_k_aperiodic(rep.word, 3)[0]


def test_construct_xi_desk_determinism():
    a = construct_xi(4, XiParams.desk())
    b = construct_xi(4, XiParams.desk())
    assert a.word == b.word and a.flips == b.flips


def test_construct_xi_full_scale_single_seed():
    rep = construct_xi(1)
    assert rep.ok
    assert 10000 < rep.n < 10006
    # golden determinism lock
    import hashlib

    digest = hashlib.sha256(format_word(rep.word).encode()).hexdigest()
    assert digest == "eeba18fb96d542dc462278f01fd3b2f75848e2a46aa5d9d75095e1c602f26a94"
    # prefix/suffix small cancellation re-checked here directly
    alpha = rep.word.subword(0, 400)
    beta = rep.word.subword(rep.n - 400, rep.n)
    ok, _ = satisfies_small_cancellation(SymmetrizedSet.of([alpha, beta]), 1, 3)
    assert ok
    # so are the two conditions the flip-gap lemmas decide
    assert is_k_aperiodic(rep.word, 3)[0]
    assert satisfies_small_cancellation(SymmetrizedSet.of([rep.word], cyclic=True), 1, 5)[0]


def test_marker_reports_pinned():
    # every full-scale report and word for seeds 0-9, recorded before
    # the C'(1/5) scan went through window keys
    digest = hashlib.sha256()
    for seed in range(10):
        rep = construct_xi(seed)
        digest.update(json.dumps(rep.to_dict(), sort_keys=True).encode())
        digest.update(format_word(rep.word).encode())
    assert digest.hexdigest()[:16] == "b99e7f8ed21a1cd0"


def test_flip_conditions_reported():
    rep = construct_xi(2, XiParams.desk())
    assert set(rep.conditions) >= {
        "distinct_gaps",
        "end_density",
        "global_density",
        "local_sparsity",
        "aperiodic_3",
        "length",
        "small_cancellation_1_5",
        "ends_small_cancellation_1_3",
    }
    gaps = [b - a for a, b in zip(rep.flips, rep.flips[1:])]
    assert len(gaps) == len(set(gaps))


@functools.lru_cache(maxsize=None)
def _marker_blocks(params):
    """(n, b-positions, the flip sets `_select_flips` picks for seeds
    0-39) of the block word under `params`' target length."""
    letters = markers._block_word(params)[0]
    n = len(letters)
    b = [i for i, c in enumerate(letters) if c == 2]
    picks = (markers._select_flips(n, b, params, random.Random(s)) for s in range(40))
    return n, b, [f for f in picks if f is not None]


_DESK = XiParams.desk()
# desk word, n = 502: end zones that start below 0 or end past n, and
# windows of n letters or more, where a zone with no start passes
_EDGE_FLIP_PARAMS = [
    dataclasses.replace(_DESK, end_zone_b_lo=600, end_zone_b_hi=-40),
    dataclasses.replace(_DESK, end_zone_a=700, end_window=5),
    dataclasses.replace(_DESK, global_window=502, density_window=502),
    dataclasses.replace(_DESK, global_window=900, density_window=501, end_window=600),
]


def _xi_params(lo, hi):
    """Desk parameters with every window and zone bound drawn from
    [lo, hi]; windows are never negative."""
    bound, window = st.integers(lo, hi), st.integers(max(lo, 0), hi)
    return st.builds(functools.partial(dataclasses.replace, _DESK), end_window=window,
                     end_zone_a=bound, end_zone_b_lo=bound, end_zone_b_hi=bound,
                     global_window=window, density_window=window)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_flip_conditions_match_reference(data):
    # the flips are real b-positions of the full or desk block word, or of
    # a prefix of the desk word short enough that drawn windows and zone
    # bounds often land on the start where a verdict turns
    scale = data.draw(st.sampled_from(["full", "desk", "prefix"]), label="scale")
    n, b, picks = _marker_blocks(XiParams() if scale == "full" else _DESK)
    if scale == "full":
        params = XiParams()
    elif scale == "desk":
        params = data.draw(st.one_of(st.sampled_from([_DESK] + _EDGE_FLIP_PARAMS),
                                     _xi_params(-60, 600)), label="params")
    else:
        n = data.draw(st.integers(1, 60), label="n")
        b = [p for p in b if p < n]
        picks = [[d for d in f if d < n] for f in picks]
        params = data.draw(_xi_params(-3, n + 3), label="params")
    # a random subset, every k-th b-letter of a stretch (near k = 3 the
    # window counts sit on their bound), or a selection with flips
    # dropped and added
    kind = data.draw(st.sampled_from(["subset", "stride", "selection"]), label="kind")
    if kind == "subset":
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        flips = rng.sample(b, data.draw(st.integers(0, len(b)), label="size"))
    elif kind == "stride":
        start, stop = sorted(data.draw(st.lists(st.integers(0, len(b)), min_size=2, max_size=2)))
        flips = b[start:stop:data.draw(st.integers(1, 400), label="stride")]
    else:
        flips = data.draw(st.sampled_from(picks), label="selection")
        dropped = data.draw(st.sets(st.integers(0, len(flips)), max_size=4), label="dropped")
        added = data.draw(st.lists(st.sampled_from(b), max_size=4), label="added")
        flips = [d for i, d in enumerate(flips) if i not in dropped] + added
    assert (markers._verify_flip_conditions(n, b, flips, params)
            == flip_conditions_reference(n, b, flips, params))


def test_flip_conditions_match_reference_at_every_bound():
    # a 40-letter prefix of the desk word, small windows and zones, and
    # each bound swept one at a time through every value that moves a
    # zone edge or a window across the word
    n, b, _ = _marker_blocks(_DESK)
    n = 40
    b = [p for p in b if p < n]
    base = dataclasses.replace(_DESK, end_window=5, end_zone_a=15, end_zone_b_lo=20,
                               end_zone_b_hi=5, global_window=8, density_window=6)
    holes = [[p for p in b if not 20 <= p < 30], [p for p in b[::2] if not 6 <= p < 14]]
    for flips in [b[::2], b[::3], b[1::3], b[::4], b[2::7]] + holes:
        for field in ["end_window", "end_zone_a", "end_zone_b_lo", "end_zone_b_hi",
                      "global_window", "density_window"]:
            for value in range(0 if field.endswith("window") else -3, n + 4):
                params = dataclasses.replace(base, **{field: value})
                assert (markers._verify_flip_conditions(n, b, flips, params)
                        == flip_conditions_reference(n, b, flips, params)), (flips, params)


def _flips_or_error(select, n, b, params, seed):
    """The flips `select` picks with the seed, None, or the name of the
    error it raises: drawn windows can leave a gap range empty."""
    try:
        return select(n, b, params, random.Random(seed))
    except (ValueError, IndexError) as e:
        return type(e).__name__


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_select_flips_matches_reference(data):
    # the full and desk words under their own parameters, the desk word
    # under drawn and edge variants, and drawn b-positions of a drawn
    # density, sparse enough that picks skip used gaps and reach the
    # far end of their window or the last letters of the word
    kind = data.draw(st.sampled_from(["full", "desk", "variant", "drawn"]), label="kind")
    params = XiParams() if kind == "full" else _DESK
    n, b, _ = _marker_blocks(params)
    if kind == "variant":
        params = data.draw(st.one_of(st.sampled_from(_EDGE_FLIP_PARAMS),
                                     _xi_params(-60, 600)), label="params")
    elif kind == "drawn":
        n = data.draw(st.integers(1, 700), label="n")
        density = data.draw(st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.7, 1.0]), label="density")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="positions"))
        b = [i for i in range(n) if rng.random() < density]
        params = data.draw(st.one_of(st.just(_DESK), _xi_params(-60, 600)), label="params")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    assert (_flips_or_error(markers._select_flips, n, tuple(b), params, seed)
            == _flips_or_error(select_flips_reference, n, b, params, seed))


# desk parameters, first flip at 10, next gap in [10, 27 + 6]: the
# last letter but one can be flipped and the last cannot, and gap 33 is
# the last in reach
@pytest.mark.parametrize("n, b, flips", [(40, [10, 38, 39], [10, 38]), (40, [10, 39], None),
                                         (60, [10, 43], [10, 43]), (60, [10, 44], None)])
def test_select_flips_window_edges(n, b, flips):
    for seed in range(3):
        assert markers._select_flips(n, tuple(b), _DESK, random.Random(seed)) == flips
        assert select_flips_reference(n, b, _DESK, random.Random(seed)) == flips


def test_block_word_tables_are_shared_and_read_only():
    letters, b = markers._block_word(_DESK)[:2]
    assert markers._block_word(XiParams.desk())[0] is letters
    assert b == tuple(i for i, c in enumerate(letters) if c == 2)
    with pytest.raises(TypeError):
        letters[0] = -2
    with pytest.raises(TypeError):
        b[0] = 0


def test_construct_xi_ignores_which_equal_params_it_gets():
    # the block word is cached per parameter set; an equal but distinct
    # instance reads the same entry and gives the same report
    markers._block_word.cache_clear()
    first = construct_xi(5, XiParams.desk())
    other = dataclasses.replace(XiParams.desk())
    assert other == XiParams.desk() and other is not first.params
    second = construct_xi(5, other)
    assert markers._block_word.cache_info().hits >= 1
    assert (second.to_dict(), second.word, second.flips) == (
        first.to_dict(), first.word, first.flips)


def _break_flip_condition(condition, flips, n, b, params):
    """A flip set, made from a passing one, that breaks `condition`."""
    if condition == "distinct_gaps":
        # split the widest gap so that one part repeats the narrowest
        gaps = [y - x for x, y in zip(flips, flips[1:])]
        return sorted(flips + [flips[gaps.index(max(gaps))] + min(gaps)])
    if condition == "end_density":
        # the first end-zone window [0, end_window] loses its flips
        return [d for d in flips if d > params.end_window]
    mid = n // 2 - params.global_window // 2
    if condition == "global_density":
        # the window [mid, mid + global_window] loses its flips
        return [d for d in flips if not mid <= d <= mid + params.global_window]
    # every b-letter of the window [mid, mid + density_window] is flipped
    return sorted(set(flips) | {p for p in b if mid <= p <= mid + params.density_window})


@pytest.mark.parametrize("params", [XiParams(), _DESK], ids=["full", "desk"])
@pytest.mark.parametrize("condition",
                         ["distinct_gaps", "end_density", "global_density", "local_sparsity"])
def test_each_flip_condition_can_fail(condition, params):
    rep = construct_xi(0, params)
    n, b, _ = _marker_blocks(params)
    flips = _break_flip_condition(condition, list(rep.flips), n, b, params)
    conditions = markers._verify_flip_conditions(n, b, flips, params)
    assert not conditions[condition]["pass"]
    assert conditions == flip_conditions_reference(n, b, flips, params)
    broken = dataclasses.replace(rep, flips=tuple(flips),
                                 conditions={**rep.conditions, **conditions})
    assert rep.ok and not broken.ok


@pytest.mark.parametrize("params, seeds", [(_DESK, range(30)), (XiParams(), range(10))],
                         ids=["desk", "full"])
def test_construct_xi_words_are_reduced(params, seeds):
    # the marker word is built unchecked, so check it here, and the
    # block-word facts that make it safe: letters in {1, 2}, 2s isolated
    letters = markers._block_word(params)[0]
    assert set(letters) <= {1, 2} and (2, 2) not in zip(letters, letters[1:])
    for seed in seeds:
        rep = construct_xi(seed, params)
        assert Word(rep.word.letters, 2) == rep.word
        assert rep.word.is_cyclically_reduced()


def test_block_facts_are_built_once_per_equal_params():
    # an equal but distinct parameter set reads the same facts, and no
    # attempt scans the marker word for fourth powers
    markers._block_word.cache_clear()
    with mock.patch.object(markers, "_block_word_facts",
                           wraps=markers._block_word_facts) as facts, \
            mock.patch.object(markers, "is_k_aperiodic", wraps=is_k_aperiodic) as scan:
        first = construct_xi(5, XiParams.desk())
        second = construct_xi(5, dataclasses.replace(XiParams.desk()))
    assert facts.call_count == 1 and scan.call_count == 1
    assert markers._block_word.cache_info().hits >= 1
    assert markers._block_word(_DESK)[2:] == (True, 2)
    assert (second.to_dict(), second.word, second.flips) == (
        first.to_dict(), first.word, first.flips)


def _marker_word(letters, flips):
    """The block word with its letters at the flips turned into -2."""
    flipped = list(letters)
    for i in flips:
        flipped[i] = -2
    return Word(tuple(flipped), 2)


def _scanned_conditions(word):
    """aperiodic_3 and small_cancellation_1_5 as the full scans give them."""
    ok3, wit = is_k_aperiodic(word, 3)
    ok5, viol = satisfies_small_cancellation(SymmetrizedSet.of([word], cyclic=True), 1, 5)
    return ({"pass": ok3, "detail": "no fourth power" if ok3 else f"power at {wit.start}"},
            {"pass": ok5,
             "detail": "cyclic pieces below n/5" if ok5 else f"piece of length {len(viol.word)}"})


def _lemma_conditions(word, flips, facts):
    block_aperiodic, one_gap = facts
    return (markers._aperiodic_3(word, flips, block_aperiodic),
            markers._small_cancellation_1_5(word, flips, one_gap))


# (a b)^4 a ahead of the desk block word: a block word with a fourth
# power, whose b-positions are the desk word's moved 9 letters on
_PLANTED_PREFIX = (1, 2) * 4 + (1,)


@functools.lru_cache(maxsize=None)
def _lemma_block(kind):
    """(letters, b-positions, facts) of the full, desk or planted block word."""
    letters = markers._block_word(XiParams() if kind == "full" else _DESK)[0]
    if kind == "planted":
        letters = _PLANTED_PREFIX + letters
    return letters, [i for i, c in enumerate(letters) if c == 2], markers._block_word_facts(letters)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_flip_gap_lemmas_match_the_full_scans(data):
    # arbitrary sorted flip sets over b-positions: a random subset, a
    # walk whose gaps are drawn from [1, hi] and kept distinct (its wrap
    # gap and consecutive sums land on either side of the premises), or
    # a selection with flips dropped and added
    kind = data.draw(st.sampled_from(["full", "desk", "planted"]), label="block")
    letters, b, facts = _lemma_block(kind)
    n = len(letters)
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    how = data.draw(st.sampled_from(["subset", "walk", "selection"]), label="how")
    if how == "subset":
        flips = rng.sample(b, data.draw(st.integers(0, min(len(b), 60)), label="size"))
    elif how == "walk":
        hi = data.draw(st.integers(2, n // 4), label="hi")
        pos, used, flips = rng.choice(b), set(), []
        while pos is not None:
            flips.append(pos)
            target = bisect.bisect_left(b, pos + rng.randint(1, hi))
            pos = next((p for p in b[target:] if p - pos not in used), None)
            used.add(None if pos is None else pos - flips[-1])
    else:
        picks = _marker_blocks(XiParams() if kind == "full" else _DESK)[2]
        shift = len(_PLANTED_PREFIX) if kind == "planted" else 0
        flips = [d + shift for d in data.draw(st.sampled_from(picks), label="selection")]
        dropped = data.draw(st.sets(st.integers(0, len(flips)), max_size=4), label="dropped")
        added = data.draw(st.lists(st.sampled_from(b), max_size=4), label="added")
        flips = [d for i, d in enumerate(flips) if i not in dropped] + added
    flips = sorted(set(flips))
    word = _marker_word(letters, flips)
    assert _lemma_conditions(word, flips, facts) == _scanned_conditions(word)


def test_lemma_a_needs_an_aperiodic_block_word():
    letters, _, (block_aperiodic, _) = _lemma_block("planted")
    assert not block_aperiodic
    flips = [d + len(_PLANTED_PREFIX) for d in construct_xi(0, _DESK).flips]
    word = _marker_word(letters, flips)
    assert markers._aperiodic_3(word, flips, False) == {"pass": False, "detail": "power at 0"}


def _gap_premises_failing(n, flips):
    """Which of Lemma B's gap premises the sorted flips fail: "linear"
    (a repeated linear gap), "wrap" (linear gaps distinct, the wrap gap
    repeats one) and "sum" (two consecutive cyclic gaps sum to t or more)."""
    t = -(-n // 5)
    gaps = [y - x for x, y in zip(flips, flips[1:])] + [n - flips[-1] + flips[0]]
    linear = gaps[:-1]
    failing = set()
    if len(set(linear)) < len(linear):
        failing.add("linear")
    elif gaps[-1] in linear:
        failing.add("wrap")
    if any(x + y >= t for x, y in zip(gaps, gaps[1:] + gaps[:1])):
        failing.add("sum")
    return failing


def _plant_premise_failure(premise, n, b, flips):
    """A flip set of b-positions, made from a passing one, that fails
    `premise` of Lemma B's gap premises and no other: one b-position
    added, the first or last flip moved, or one or two flips dropped."""
    def candidates():
        for p in b:
            if p not in flips:
                yield sorted(flips + [p])
        for p in b:
            if p < flips[1]:
                yield [p] + flips[1:]
            if p > flips[-2]:
                yield flips[:-1] + [p]
        for i in range(len(flips)):
            for j in (i + 1, i + 2):
                yield flips[:i] + flips[j:]
    return next(f for f in candidates() if _gap_premises_failing(n, f) == {premise})


@pytest.mark.parametrize("params", [XiParams(), _DESK], ids=["full", "desk"])
@pytest.mark.parametrize("premise", ["linear", "wrap", "sum"])
def test_planted_premise_failure_takes_the_full_scans(premise, params):
    letters, b = markers._block_word(params)[:2]
    n = len(letters)
    flips = _plant_premise_failure(premise, n, b, list(construct_xi(0, params).flips))
    word = _marker_word(letters, flips)
    facts = markers._block_word(params)[2:]
    with mock.patch.object(markers, "is_k_aperiodic", wraps=is_k_aperiodic) as scan, \
            mock.patch.object(markers, "satisfies_small_cancellation",
                              wraps=satisfies_small_cancellation) as windows:
        conditions = _lemma_conditions(word, flips, facts)
    # Lemma A reads the linear gaps only
    assert scan.call_count == (premise == "linear")
    assert windows.call_count == 1
    assert conditions == _scanned_conditions(word)



def _cyclic_scan_seeds(params):
    """Seed -> number of cyclic C'(lambda) scans construct_xi makes, over
    seeds 0-119, for the seeds that make any."""
    calls = {}

    def spy(sset, num, den):
        if sset.cyclic:
            calls[seed] = calls.get(seed, 0) + 1
        return satisfies_small_cancellation(sset, num, den)

    with mock.patch.object(markers, "satisfies_small_cancellation", spy):
        for seed in range(120):
            construct_xi(seed, params)
    return calls


def test_cyclic_scan_traffic():
    # Lemma B decides C'(1/5) for every full-scale seed 0-119, so the
    # cyclic window scan's speed matters only where this changes
    assert _cyclic_scan_seeds(XiParams()) == {}
    assert _cyclic_scan_seeds(_DESK) == {17: 1, 18: 1, 61: 1, 70: 1}


@pytest.mark.parametrize("seed,digest", [(17, "66c6e0b9d96b999b"), (18, "8a4969027eeb818f"),
                                         (61, "978a672e79506735"), (70, "8faa0a46d15cc61f")])
def test_scanned_desk_reports_pinned(seed, digest):
    # the desk seeds whose C'(1/5) condition the cyclic window scan
    # decides, recorded before the scan dropped its window keys
    rep = construct_xi(seed, _DESK)
    got = hashlib.sha256(json.dumps(rep.to_dict(), sort_keys=True).encode())
    got.update(format_word(rep.word).encode())
    assert got.hexdigest()[:16] == digest


def test_lemma_b_premises_at_their_bounds():
    # the desk word of seed 0 meets every premise; each is then moved to
    # its bound, and one step past it
    n = len(markers._block_word(_DESK)[0])
    t = -(-n // 5)
    one_gap = markers._block_word(_DESK)[3]
    flips = list(construct_xi(0, _DESK).flips)
    assert markers._distinct_cyclic_windows(n, flips, one_gap)
    assert markers._distinct_cyclic_windows(n, flips, t)
    assert not markers._distinct_cyclic_windows(n, flips, t + 1)
    assert not any(markers._distinct_cyclic_windows(n, few, one_gap) for few in ([], flips[:1]))

    def moved(i, s):
        # f_(i+1) moved to f_(i-1) + s, so that g_(i-1) + g_i = s
        return flips[:i + 1] + [flips[i - 1] + s] + flips[i + 2:]

    bounds = [i for i in range(1, len(flips) - 2)
              if flips[i] < flips[i - 1] + t - 1 and flips[i - 1] + t < flips[i + 2]
              and _gap_premises_failing(n, moved(i, t - 1)) == set()
              and _gap_premises_failing(n, moved(i, t)) == {"sum"}]
    assert bounds
    for i in bounds:
        assert markers._distinct_cyclic_windows(n, moved(i, t - 1), one_gap)
        assert not markers._distinct_cyclic_windows(n, moved(i, t), one_gap)


# -- product verification ------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_xi():
    return construct_xi(0, XiParams.desk()).word


def test_single_block_product(desk_xi):
    ok, analysis = verify_product_aperiodicity(
        desk_xi, [parse_word("a b a", 2)], [1], bound=50, max_x_len=24, check_xi=False
    )
    assert ok
    assert analysis["min_xi_run"] > len(desk_xi) - 60


def test_product_battery_desk(desk_xi):
    rng = random.Random(0)
    for _ in range(20):
        xs, eps = _random_sequence(rng, k_max=12, max_len=24)
        ok, _ = verify_product_aperiodicity(
            desk_xi, xs, eps, bound=50, max_x_len=24, check_xi=False
        )
        assert ok


def test_non_aperiodic_sequence_rejected(desk_xi):
    x = parse_word("a b", 2)
    xs = [x] * 11
    with pytest.raises(PreconditionError):
        verify_product_aperiodicity(desk_xi, xs, [1] * 11, check_xi=False)


def test_trivial_element_rejected(desk_xi):
    with pytest.raises(PreconditionError):
        verify_product_aperiodicity(desk_xi, [Word((), 2)], [1], check_xi=False)


def test_too_long_element_rejected(desk_xi):
    long = Word(tuple([1, 2] * 100), 2)
    with pytest.raises(PreconditionError):
        verify_product_aperiodicity(desk_xi, [long], [1], max_x_len=192, check_xi=False)


def test_corrupted_xi_violation_classified():
    # a periodic fake marker word concentrates violations in one block
    fake = Word(tuple([1, 2] * 300), 2)
    xs = [parse_word("b a", 2)]
    ok, analysis = verify_product_aperiodicity(
        fake, xs, [1], bound=50, max_x_len=24, check_xi=False
    )
    assert not ok
    assert analysis["case"] == "short-period-inside-block"


@pytest.mark.parametrize("xi, x, case", [("b a a a a", "a", "short-period-inside-block"),
                                         ("b c b a a a", "a a", "long-period")])
def test_short_period_case_needs_an_xi_run_of_four_periods(xi, x, case):
    # the fifth power of a runs over the end of xi into x: 4 letters of
    # it lie in the xi run of b a a a a, and 3 in that of b c b a a a
    ok, analysis = verify_product_aperiodicity(parse_word(xi, 3), [parse_word(x, 3)], [1],
                                               bound=5, check_xi=False)
    assert not ok and analysis["witness"]["period"] == 1
    assert analysis["case"] == case


def test_xi_contract_enforced_when_checked():
    fake = Word(tuple([1, 2] * 300), 2)
    with pytest.raises(PreconditionError, match="not 3-aperiodic"):
        verify_product_aperiodicity(fake, [parse_word("a", 2)], [1], check_xi=True)


def test_xi_contract_length_is_the_full_scale_floor():
    xi, low = construct_xi(0).word, XiParams().total_low
    ok, _ = verify_product_aperiodicity(xi, [parse_word("a", 2)], [1], check_xi=True)
    assert ok
    with pytest.raises(PreconditionError, match=f"not more than {low}"):
        verify_product_aperiodicity(xi.subword(0, low), [parse_word("a", 2)], [1], check_xi=True)


# -- pipeline -------------------------------------------------------------------------


def test_pipeline_desk():
    rep = burnside_pipeline(samples=4, seed=2, desk_scale=True)
    assert rep.ok
    d = rep.to_dict()
    assert [s["name"] for s in d["stages"]] == ["construct-xi", "verify-products"]
    assert d["external_assumptions"]
    assert "NOT verified" in d["external_assumptions"][0]


def test_pipeline_constants():
    # full-scale constants: 192 / 96 = 2, the travel threshold
    from ts_groups.testers import _constants

    c = _constants(192)
    assert c["engine_bound_scale"].endswith("= 2")
    assert c["travel_threshold"] == "2"


def test_construct_xi_infeasible_params_fail_loudly():
    from ts_groups.errors import ResourceLimitError
    bad = XiParams(
        total_low=500, total_high=506, end_window=3, end_zone_a=80,
        end_zone_b_lo=100, end_zone_b_hi=30, global_window=90,
        density_window=80, prefix_len=60,
    )
    with pytest.raises(ResourceLimitError):
        construct_xi(0, bad)


def test_eps_shape_validation(desk_xi):
    with pytest.raises(MalformedInputError):
        verify_product_aperiodicity(desk_xi, [parse_word("a", 2)], [1, -1], check_xi=False)
    with pytest.raises(MalformedInputError):
        verify_product_aperiodicity(desk_xi, [parse_word("a", 2)], [2], check_xi=False)


def test_pipeline_full_scale_smoke():
    rep = burnside_pipeline(samples=3, seed=7)
    assert rep.ok
    stage = rep.stages[0]["detail"]
    assert 10000 < stage["length"] < 10006
    assert rep.constants["travel_threshold"] == "2"


def test_reduced_product_matches_plain_reduction(desk_xi):
    rng = random.Random(5)
    for _ in range(30):
        xs, eps = _random_sequence(rng, k_max=6, max_len=20)
        product = _ReducedProduct(desk_xi, xs, eps)
        letters = []
        for x, e in zip(xs, eps):
            letters += (desk_xi if e > 0 else ~desk_xi).letters + x.letters
        assert tuple(product.letters) == reduce(letters, 2).letters
        assert product.length == len(product.letters)
        assert sum(b - a for a, b in product.xi_runs) <= product.length


@st.composite
def _adversarial_products(draw, rank=2):
    """A short xi, random or a power of a short block (a fake marker
    word), with x_i drawn from its prefixes, from inverses of its
    suffixes and at random, so products cancel across several blocks
    and may vanish.  The letters are the first and the last generator
    of the rank and their inverses."""
    _letters = st.lists(st.sampled_from([1, -1, rank, -rank]), min_size=1, max_size=8)
    base = reduce(draw(_letters), rank)
    if base.is_identity or not draw(st.booleans()):
        xi = reduce(draw(_letters) + draw(_letters) + draw(_letters), rank)
    else:
        xi = base ** draw(st.integers(1, 6))
    xs = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["prefix", "suffix-inverse", "random"]))
        m = draw(st.integers(1, max(len(xi), 1)))
        if kind == "prefix" and len(xi):
            x = xi.subword(0, m)
        elif kind == "suffix-inverse" and len(xi):
            x = ~xi.subword(len(xi) - m, len(xi))
        else:
            x = reduce(draw(_letters), rank)
        xs.append(x if len(x) else Word((1,), rank))
    eps = draw(st.lists(st.sampled_from([1, -1]), min_size=len(xs), max_size=len(xs)))
    return xi, xs, eps


_FULLY_CANCELLED = (parse_word("a b a", 2), [parse_word("A B A", 2)], [1])


@settings(max_examples=300, deadline=None)
@given(_adversarial_products())
@example(_FULLY_CANCELLED)
@example((parse_word("a b a b", 2), [parse_word("B A", 2), parse_word("b a", 2)], [1, -1]))
def test_reduced_product_matches_reference(case):
    _assert_product_matches_reference(*case)


def _assert_product_matches_reference(xi, xs, eps):
    """Length, xi runs, letters and verdict equal the reference's;
    returns the packed letters."""
    product = _ReducedProduct(xi, xs, eps)
    ref = tagged_product_reference(xi, xs, eps)
    assert (product.length, product.xi_runs) == (ref.length, ref.xi_runs)
    assert tuple(product.letters) == ref.letters
    args = dict(bound=3, max_x_len=64, check_xi=False)
    verdict = verify_product_aperiodicity(xi, xs, eps, **args)
    with mock.patch("ts_groups.products._ReducedProduct", wraps=tagged_product_reference) as double:
        assert verify_product_aperiodicity(xi, xs, eps, **args) == verdict
    assert double.call_count == 1
    return product.letters


# (rank, item size of the packed letters): both sides of each typecode's
# limit, and the free-oracle rank cap
_PACKED_RANKS = [(2, 1), (127, 1), (128, 2), (FREE_RANK_CAP, 2), (2**15 - 1, 2), (2**15, 4),
                 (2**31 - 1, 4), (2**31, 8), (2**63 - 1, 8)]


@pytest.mark.parametrize("rank,itemsize", _PACKED_RANKS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_product_holds_every_rank(rank, itemsize, data):
    letters = _assert_product_matches_reference(*data.draw(_adversarial_products(rank)))
    assert letters.itemsize == itemsize


def test_rank_past_every_typecode_is_a_resource_limit():
    rank = 2**63
    xi = Word((1, rank, 1), rank)
    with pytest.raises(ResourceLimitError, match="too wide to pack"):
        verify_product_aperiodicity(xi, [Word((-rank,), rank)], [1], check_xi=False)


def test_product_check_peaks_below_four_bytes_a_letter():
    # at bound 50 the segments are scanned, so the product is packed; at
    # bound 500 nothing is scanned, and the check holds only the runs.
    # The first check builds xi's table, so the second measures none.
    xi = construct_xi(0).word
    rng = random.Random(3)
    xs = [random_word(rng, 2, 192) for _ in range(20)]
    eps = [rng.choice((1, -1)) for _ in xs]
    for bound, bytes_a_letter in ((50, 4), (500, 0.1)):
        tracemalloc.start()
        try:
            ok, analysis = verify_product_aperiodicity(xi, xs, eps, bound=bound, check_xi=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert analysis["product_length"] >= 200_000
        assert peak < bytes_a_letter * analysis["product_length"]


def _burnside_long_products(seed):
    """The alternating products of the benchmark's burnside-long workload."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [item for item in module.build("burnside-long", seed) if isinstance(item, module.Product)]


# sha256 over the (ok, analysis) pairs of the burnside-long products,
# recorded while products were still reduced into tuples: as given
# (bound 500), with the bound lowered to 4, over a periodic fake xi at
# bound 50, and as (xi x1 xi^-1 x2)^5 at bound 5.  Together they reach
# both cases, witness start, period and exponent, and blocks_crossed.
PINNED_PRODUCT_DIGESTS = {
    1: {"as-given": "f2fa5425b38bb1bc0b61da31d33413bd163e30e9957688599cb165ed7d247724",
        "bound-4": "fb6e9808af2bfe19f3dbf1878cbdf7b05215b516d5ccd712e0def564f840e10b",
        "fake-xi": "504219a33b2f8852939d09492d6a293ad5c4fcd1fb92e526f8c5720e5edacaee",
        "alternating": "5e2b8352fc6962f0f975034dc677102a6d7c8498b818ac04d259b4b4d1de93e6"},
    2: {"as-given": "01c5cd8a65653c09fbfc9d8c779facfda35917a2dfd84c3f6dd7f82879969d9e",
        "bound-4": "843f5e39b79ff73a92d21a6383cca81ddf24e4aad74d186656a7ac5a7eef5f9b",
        "fake-xi": "100e59f2af9be9e8aed39c86b734e5ffeba3ad8f2f9e987561752a6973465bed",
        "alternating": "3b6b438afe9e98f91b6e3b07b4d372c6be12ee809e227c24b2e9f2087f6e945a"},
}


@pytest.mark.parametrize("seed", sorted(PINNED_PRODUCT_DIGESTS))
def test_burnside_long_products_match_pins(seed):
    results = {name: [] for name in PINNED_PRODUCT_DIGESTS[seed]}
    for p in _burnside_long_products(seed):
        fake = Word((1, 2) * (len(p.xi) // 2), 2)
        for name, args, bound in (("as-given", (p.xi, p.xs, p.eps), 500),
                                  ("bound-4", (p.xi, p.xs, p.eps), 4),
                                  ("fake-xi", (fake, p.xs, p.eps), 50),
                                  ("alternating", (p.xi, p.xs[:2] * 5, [1, -1] * 5), 5)):
            results[name].append(verify_product_aperiodicity(*args, bound=bound, check_xi=False))
    analyses = [a for rows in results.values() for _, a in rows]
    assert {a.get("case") for a in analyses} == {None, "short-period-inside-block", "long-period"}
    assert any("blocks_crossed" in a for a in analyses)
    assert {name: hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
            for name, rows in results.items()} == PINNED_PRODUCT_DIGESTS[seed]


@settings(max_examples=300, deadline=None)
@given(_adversarial_products())
@example(_FULLY_CANCELLED)
def test_free_product_length_matches_oracle(case):
    xi, xs, eps = case
    xi_inv = FREE2.inverse(xi)
    assert products._free_product_length(xi.letters, xi_inv.letters, xs, eps) == FREE2.length(
        testers._product(FREE2, xi, xi_inv, xs, eps))


def test_free_search_multiplies_only_to_replay():
    xi = parse_word("a b a B a b A b a", 2)
    budget = SearchBudget(k_max=2, exhaustive_limit=2000)
    with mock.patch("ts_groups.testers._product", wraps=testers._product) as product:
        verdict = run_property_search(PropertySpec("P", r=2, oracle=FREE2, xi=xi), budget)
        assert (verdict.outcome, product.call_count) == ("no-counterexample-within-budget", 0)
        verdict = run_property_search(PropertySpec("P", r=len(xi), oracle=FREE2, xi=xi), budget)
        assert (verdict.outcome, product.call_count) == ("counterexample-found", 1)


def test_free_search_rejects_xi_of_another_rank():
    spec = PropertySpec("P", r=2, oracle=FREE2, xi=parse_word("a c", 3))
    with pytest.raises(MalformedInputError, match="different ranks"):
        run_property_search(spec, SearchBudget(k_max=1))


def test_fully_cancelled_product():
    xi, xs, eps = _FULLY_CANCELLED
    ok, analysis = verify_product_aperiodicity(xi, xs, eps, check_xi=False)
    assert ok
    assert analysis == {"product_length": 0, "blocks": 1, "min_xi_run": 0, "max_u_gap": 0}


@pytest.mark.parametrize("x", ["a b", "c"])
def test_product_rejects_rank_mismatch(desk_xi, x):
    with pytest.raises(MalformedInputError):
        verify_product_aperiodicity(desk_xi, [parse_word(x, 3)], [1], check_xi=False)


def test_long_period_violation_classified(desk_xi):
    # an alternating pattern (xi x xi^-1 y)^10 is a legal 10-aperiodic
    # input whose product hosts a tenth power of long period; with the
    # bound lowered below ten the verifier must classify it as a
    # long-period block-structure violation
    x = parse_word("a b", 2)
    y = parse_word("b a", 2)
    xs = [x, y] * 10
    eps = [1, -1] * 10
    ok, analysis = verify_product_aperiodicity(
        desk_xi, xs, eps, bound=9, max_x_len=24, check_xi=False
    )
    assert not ok
    assert analysis["case"] == "long-period"
    assert analysis["witness"]["period"] > len(desk_xi) // 5
    assert analysis["blocks_crossed"]


# -- junction scan ------------------------------------------------------------------


def _whole_scan(product, bound, order):
    """The whole-product scan: every letter, whatever the xi runs."""
    ok, witness = is_k_aperiodic(tuple(product.letters), bound - 1)
    return None if ok else (witness.exponent, witness.start, witness.period)


def _assert_junction_scan_matches_whole_scan(xi, xs, eps, bound):
    """The verdict equals that of the whole scan over the reference
    product; returns it."""
    args = dict(bound=bound, max_x_len=10**6, check_xi=False)
    verdict = verify_product_aperiodicity(xi, xs, eps, **args)
    with mock.patch.object(products, "_ReducedProduct", wraps=tagged_product_reference) as ref, \
            mock.patch.object(products, "_first_product_power", wraps=_whole_scan) as scan:
        assert verify_product_aperiodicity(xi, xs, eps, **args) == verdict
    assert (ref.call_count, scan.call_count) == (1, 1)
    return verdict


_SCAN_BOUNDS = [3, 4, 5, 6, 7, 8, 50, 500]


@st.composite
def _planted_products(draw):
    """(xi, xs, eps, bound): xi holds a planted power of a short base,
    of small order or of order bound - 2 to bound + 1 (so the whole scan
    runs too), at the end of xi or deep inside it.  The x_i are random,
    powers of the base (which extend planted powers across junctions),
    prefixes of xi, inverses of its suffixes, repeats of the x before,
    or xi^(-e_i) x_(i-1)^-1, which cancels x_(i-1) xi^(e_i) and leaves
    two xi runs adjacent."""
    bound = draw(st.sampled_from(_SCAN_BOUNDS), label="bound")
    letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8)
    base = reduce(draw(letters)[:3] or [1], 2)
    if base.is_identity or not base.is_cyclically_reduced():
        base = Word((1,), 2)
    order = draw(st.one_of(st.integers(1, 4), st.integers(bound - 2, bound + 1)), label="order")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    ends = st.integers(0, (order + 2) * len(base) + 4)
    xi = reduce(random_word(rng, 2, draw(ends)).letters + (base ** order).letters
                + random_word(rng, 2, draw(ends)).letters, 2)
    if xi.is_identity:
        xi = Word((1, 2), 2)
    k = draw(st.integers(1, 8), label="k")
    eps = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k), label="eps")
    xs = []
    for i in range(k):
        kind = draw(st.sampled_from(["random", "power", "prefix", "suffix-inverse", "repeat",
                                     "cancel"]))
        m = draw(st.integers(1, len(xi)))
        if kind == "power":
            x = base ** draw(st.integers(1, bound + 1))
        elif kind == "prefix":
            x = xi.subword(0, m)
        elif kind == "suffix-inverse":
            x = ~xi.subword(len(xi) - m, len(xi))
        elif kind == "repeat" and xs:
            x = xs[-1]
        elif kind == "cancel" and xs:
            x = (xi if eps[i] < 0 else ~xi) * ~xs[-1]
        else:
            x = reduce(draw(letters), 2)
        xs.append(x if len(x) else Word((2,), 2))
    return xi, xs, eps, bound


def _squarefree(n):
    """n letters of the square-free word over 1, 2, 3."""
    return tuple(" ABC".index(c) for c in squarefree_ternary(n))


def _periodic_tail_case(p, side):
    """A power of order 6 at period p that holds exactly c = 4p - 1
    letters of one xi run, where xi's maximal power order is 3.  xi is a
    3, a square-free word, a 3, and then those c letters of a p-periodic
    word over 1, 2.  "right": xi x, the power running from xi's tail
    into x.  "left": xi^-1 x xi^-1 x, the power running from x into the
    head of the second xi^-1."""
    base = {1: (1,), 3: (1, 1, 2), 7: (1, 2, 1, 1, 2, 2, 2)}[p]
    c = 4 * p - 1
    tail = tuple(base[i % p] for i in range(c))
    xi = Word((3,) + _squarefree(2 * c + 5) + (3,) + tail, 3)
    more = 6 * p - c
    if side == "right":
        x = Word(tuple(base[(c + i) % p] for i in range(more)), 3)
        return xi, [x], [1]
    head = inverse_letters(tail)
    x = Word(tuple(head[i % p] for i in range(-more, 0)), 3)
    return xi, [x, x], [-1, -1]


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("p", [1, 3, 7])
def test_power_holding_exactly_c_letters_of_an_xi_run_is_found(p, side):
    # p = 3 and 7 are the largest periods of their rounds, [2, 4) and
    # [4, 8); one letter fewer from the xi run and the power is too short
    xi, xs, eps = _periodic_tail_case(p, side)
    assert max_power_order(xi)[0] == 3
    ok, analysis = _assert_junction_scan_matches_whole_scan(xi, xs, eps, bound=6)
    assert not ok
    assert (analysis["witness"]["period"], analysis["witness"]["exponent"]) == (p, 6)


def test_power_across_two_adjacent_xi_runs_is_found():
    # x2 = xi x1^-1 cancels x1 xi^-1 x2, so xi meets xi, and a^3 | a^3
    # is a sixth power across the junction of two per-block xi runs
    xi = Word((1, 1, 1, 3) + _squarefree(20) + (3, 1, 1, 1), 3)
    assert max_power_order(xi)[0] == 3
    x1 = Word((2,), 3)
    xs, eps = [x1, xi * ~x1, x1], [1, -1, 1]
    assert _ReducedProduct(xi, xs, eps).xi_runs == [(0, len(xi)), (len(xi), 2 * len(xi))]
    ok, analysis = _assert_junction_scan_matches_whole_scan(xi, xs, eps, bound=6)
    assert not ok
    assert analysis["witness"] == {"start": len(xi) - 3, "period": 1, "exponent": 6}


# a sixth power deep inside xi, which the bound-5 scan finds only by scanning it whole
_DEEP_POWER = (Word(_squarefree(30) + (2,) * 5 + _squarefree(30), 3), [Word((1,), 3)], [1], 5)


@settings(max_examples=400, deadline=None)
@given(_planted_products())
@example((*_periodic_tail_case(3, "right"), 5))
@example((*_periodic_tail_case(7, "left"), 8))
@example(_DEEP_POWER)
def test_junction_scan_matches_whole_scan(case):
    _assert_junction_scan_matches_whole_scan(*case)


def test_burnside_long_products_scan_under_one_percent_of_their_letters():
    # the seed-1 products at bound 500: xi's power order is computed once
    # for all of them, and the free segments hold under 1 % of the letters
    tokens = []

    def first_power(letters, *args):
        tokens.append(len(letters))
        return _first_power(letters, *args)

    letters = 0
    with mock.patch.object(products, "_XI_TABLES", []), \
            mock.patch.object(products, "_first_power", first_power), \
            mock.patch.object(products, "max_power_order", wraps=max_power_order) as order:
        for p in _burnside_long_products(1):
            ok, analysis = verify_product_aperiodicity(p.xi, p.xs, p.eps, check_xi=False)
            assert ok
            letters += analysis["product_length"]
    assert order.call_count == 1
    assert letters > 10**6
    assert sum(tokens) < letters // 100


# how many of the 33 seed-1 checks pack their product, per bound: at
# bound 50 the first product has no segment long enough to scan, and at
# bound 500 none has
_PACKED_CHECKS = {6: 33, 10: 33, 50: 32, 500: 0}


@pytest.mark.parametrize("bound", sorted(_PACKED_CHECKS))
def test_junction_scan_hands_over_a_whole_product_at_most_once(bound):
    # the seed-1 products at lowered bounds, where the cuts run out: once
    # a round's one segment is the whole product the scan ends there,
    # and the verdict is the whole scan's.  A check packs its product
    # only to scan it, at most once: one array serves every scan
    sliced, packs = [], []

    def first_power(letters, *args):
        sliced.append(len(letters))
        return _first_power(letters, *args)

    for p in _burnside_long_products(1):
        args = dict(bound=bound, check_xi=False)
        with mock.patch.object(products, "_first_power", first_power), \
                mock.patch.object(products, "_packed_product",
                                  wraps=products._packed_product) as pack:
            verdict = verify_product_aperiodicity(p.xi, p.xs, p.eps, **args)
        packs.append(pack.call_count)
        with mock.patch.object(products, "_first_product_power", wraps=_whole_scan) as scan:
            assert verify_product_aperiodicity(p.xi, p.xs, p.eps, **args) == verdict
        assert scan.call_count == 1
        assert sliced.count(verdict[1]["product_length"]) <= 1
        sliced.clear()
    assert max(packs) <= 1
    assert sum(packs) == _PACKED_CHECKS[bound]


def test_check_xi_reads_the_power_order_of_the_table():
    xi = construct_xi(0).word
    with mock.patch.object(products, "_XI_TABLES", []), \
            mock.patch.object(products, "is_k_aperiodic", wraps=is_k_aperiodic) as scan, \
            mock.patch.object(products, "max_power_order", wraps=max_power_order) as order:
        for _ in range(2):
            assert verify_product_aperiodicity(xi, [parse_word("a", 2)], [1], check_xi=True)[0]
    assert order.call_count == 1
    assert all(not isinstance(call.args[0], Word) for call in scan.call_args_list)


def test_xi_table_is_found_by_identity_and_holds_the_word():
    xi = construct_xi(0, XiParams.desk()).word
    with mock.patch.object(products, "_XI_TABLES", []):
        table = products._xi_table(xi)
        assert table.xi is xi and table.order == max_power_order(xi)[0]
        assert tuple(table.letters) == xi.letters
        assert tuple(table.inverse) == (~xi).letters
        with mock.patch.object(Word, "__eq__", side_effect=AssertionError("scanned xi")):
            assert products._xi_table(xi) is table
        assert products._xi_table(Word(xi.letters, 2)) is table
        for n in range(1, products._XI_TABLE_SLOTS + 1):
            products._xi_table(Word((1,) * n, 2))
        assert all(t.xi is not xi for t in products._XI_TABLES)


@pytest.mark.parametrize("change", [dict(global_window=60), dict(end_window=10)])
def test_construct_xi_empty_gap_range_is_a_resource_limit(change):
    # the coarse gaps [35, 20], then the small gaps [8, 7]
    with pytest.raises(ResourceLimitError, match="gap range .* is empty"):
        construct_xi(0, dataclasses.replace(XiParams.desk(), **change))
