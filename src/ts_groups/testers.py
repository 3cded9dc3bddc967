"""Falsification and corroboration engines for the alternating-product
length properties, the variety certificates, and the end-to-end
Burnside-side pipeline.

The alternating-product property at scale r asks that every product
xi^(e1) x1 xi^(e2) x2 ... xi^(ek) xk with nontrivial x_i of length at
most r (and, for the primed families, an n-aperiodic x-sequence) has
length above r.  Abelian groups fail it instantly; the marker word xi
of `markers` is the free-group witness the Burnside application rests
on, and `products` checks its long products.  Both are re-exported here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import (
    ConfigurationError,
    InternalInvariantError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
)
from .groups import FreeOracle, GroupOracle
from .markers import XiParams, XiReport, construct_xi
from .products import _free_product_length, verify_product_aperiodicity
from .tours import random_element
from .words import Word, format_word, is_k_aperiodic, random_word

__all__ = [
    "PropertySpec",
    "SearchBudget",
    "Verdict",
    "test_property",
    "VarietyCertificate",
    "variety_counterexample",
    "XiParams",
    "XiReport",
    "construct_xi",
    "verify_product_aperiodicity",
    "burnside_pipeline",
    "PipelineReport",
]


# ---------------------------------------------------------------------------
# Property testers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertySpec:
    """family "P": no constraint on the x-sequence beyond nontriviality;
    family "Pn'": the x-sequence must be n-aperiodic."""

    family: str
    r: int
    oracle: GroupOracle
    xi: object
    n: int = 1

    def __post_init__(self):
        if self.family not in ("P", "Pn'"):
            raise ConfigurationError(f"unknown property family {self.family!r}")
        if self.family == "Pn'" and self.n < 1:
            raise MalformedInputError("aperiodicity parameter must be >= 1")
        if self.r < 1:
            raise MalformedInputError("r must be >= 1")


@dataclass(frozen=True)
class SearchBudget:
    k_max: int = 3
    exhaustive_limit: int = 200_000
    samples: int = 5_000
    seed: int = 0
    ball_limit: int = 20_000


@dataclass
class Verdict:
    outcome: str  # "counterexample-found" | "no-counterexample-within-budget"
    witness: Optional[dict]
    regime: str  # "exhaustive" | "sampled"
    tried: int

    def to_dict(self):
        return {
            "outcome": self.outcome,
            "witness": self.witness,
            "regime": self.regime,
            "tried": self.tried,
        }


def _product(oracle, xi, xi_inv, xs, eps):
    g = oracle.identity()
    for x, e in zip(xs, eps):
        g = oracle.multiply(g, xi if e > 0 else xi_inv)
        g = oracle.multiply(g, x)
    return g


def _replay_witness(spec: PropertySpec, witness) -> bool:
    oracle = spec.oracle
    xs = [oracle.parse_element(t) for t in witness["xs"]]
    eps = witness["eps"]
    if any(x == oracle.identity() for x in xs):
        return False
    if any(oracle.length(x) > spec.r for x in xs):
        return False
    if spec.family == "Pn'" and not is_k_aperiodic(tuple(xs), spec.n)[0]:
        return False
    g = _product(oracle, spec.xi, oracle.inverse(spec.xi), xs, eps)
    return oracle.length(g) == witness["length"] and witness["length"] <= spec.r


def _candidates(spec: PropertySpec, budget: SearchBudget, pool, exhaustive: bool):
    """The (xs, eps) pairs to check, in order: every admissible sequence
    over the pool by length when exhaustive, else seeded random draws."""

    def admissible(xs):
        return spec.family != "Pn'" or is_k_aperiodic(xs, spec.n)[0]

    if exhaustive:
        for k in range(1, budget.k_max + 1):
            for xs in itertools.product(pool, repeat=k):
                if admissible(xs):
                    for eps in itertools.product((1, -1), repeat=k):
                        yield xs, eps
        return
    rng = random.Random(budget.seed)
    for _ in range(budget.samples):
        k = rng.randint(1, budget.k_max)
        xs = tuple(rng.choice(pool) for _ in range(k))
        if admissible(xs):
            yield xs, tuple(rng.choice((1, -1)) for _ in range(k))


def test_property(spec: PropertySpec, budget: SearchBudget = SearchBudget()) -> Verdict:
    """Search for sequences violating the alternating-product length
    property; exhaustive when the r-ball fits ``budget.ball_limit`` and
    the search space ``budget.exhaustive_limit``, seeded-random
    otherwise.  Any witness found is replayed through the oracle before
    being reported."""
    oracle = spec.oracle
    if spec.xi == oracle.identity():
        raise PreconditionError("xi must be nontrivial")

    try:
        pool = [g for g in oracle.ball(spec.r, budget.ball_limit) if g != oracle.identity()]
        fits = True
    except ResourceLimitError:
        fits = False
        rng = random.Random(budget.seed)
        seen = set()
        while len(seen) < max(1, budget.ball_limit // 4):
            g = random_element(oracle, rng, spec.r)
            if g != oracle.identity() and oracle.length(g) <= spec.r:
                seen.add(g)
        pool = sorted(seen, key=oracle.sort_key)
    # forced-cancellation candidates so k=1 counterexamples are never
    # missed by sampling
    xi_inv = oracle.inverse(spec.xi)
    for cand in (xi_inv, spec.xi):
        if oracle.length(cand) <= spec.r and cand not in pool:
            pool.append(cand)

    total = sum((len(pool) * 2) ** k for k in range(1, budget.k_max + 1))
    exhaustive = fits and total <= budget.exhaustive_limit
    regime = "exhaustive" if exhaustive else "sampled"
    if isinstance(oracle, FreeOracle):
        if spec.xi.rank != oracle.rank:
            raise MalformedInputError("cannot multiply words of different ranks")

        def product_length(xs, eps):
            return _free_product_length(spec.xi.letters, xi_inv.letters, xs, eps)
    else:
        def product_length(xs, eps):
            return oracle.length(_product(oracle, spec.xi, xi_inv, xs, eps))
    tried = 0
    for xs, eps in _candidates(spec, budget, pool, exhaustive):
        tried += 1
        length = product_length(xs, eps)
        if length <= spec.r:
            witness = {
                "k": len(xs),
                "eps": list(eps),
                "xs": [oracle.format_element(x) for x in xs],
                "length": length,
            }
            if not _replay_witness(spec, witness):
                raise InternalInvariantError("witness failed replay")
            return Verdict("counterexample-found", witness, regime, tried)
    return Verdict("no-counterexample-within-budget", None, regime, tried)


# ---------------------------------------------------------------------------
# Relatively free groups of the variety [X^p, Y^p] = 1: balanced
# aperiodic sequences that collapse every alternating product.
# ---------------------------------------------------------------------------


@dataclass
class VarietyCertificate:
    n: int
    p: int
    k: int
    tokens: List[Tuple[int, int]]  # (generator index 1..n, sign)
    words: List[Word]  # x_j = u^(sign*p), over rank n+1 with xi = gen 1
    eps: List[int]
    aperiodicity: int
    identity_ok: bool
    balance: Dict[str, Dict[int, List[int]]]
    log: List[str]

    def to_dict(self):
        return {
            "n": self.n,
            "p": self.p,
            "k": self.k,
            "tokens": [list(t) for t in self.tokens],
            "xs": [format_word(w) for w in self.words],
            "eps": self.eps,
            "aperiodicity": self.aperiodicity,
            "identity_ok": self.identity_ok,
            "balance": {
                side: {g: list(c) for g, c in table.items()}
                for side, table in self.balance.items()
            },
            "log": self.log,
        }


_VARIETY_ATTEMPTS = 2000  # shuffled slot sequences variety_counterexample tries


def variety_counterexample(n: int, p: int, m: int, k: int, seed: int = 0):
    """Balanced m-aperiodic sequence x_1..x_2k of p-th powers of
    generators whose alternating product with any xi rewrites to a
    product of commutator-of-p-th-power instances (hence collapses in
    the variety).  Returns a certificate, or None when no balanced
    m-aperiodic sequence exists within the budget."""
    if n < 2 or p < 1 or k < 1 or m < 1:
        raise MalformedInputError("need n >= 2, p >= 1, k >= 1, m >= 1")
    if k % 2 == 1:
        return None  # parity classes cannot balance an odd number of slots
    rng = random.Random(seed)
    gens = list(range(1, n + 1))

    def balanced_side():
        # k slots: pick generator multiplicities summing k/2, then +/- pairs
        slots = []
        remaining = k // 2
        while remaining:
            g = rng.choice(gens)
            slots.extend([(g, 1), (g, -1)])
            remaining -= 1
        rng.shuffle(slots)
        return slots

    for _ in range(_VARIETY_ATTEMPTS):
        odd = balanced_side()
        even = balanced_side()
        tokens = []
        for j in range(k):
            tokens.append(odd[j])
            tokens.append(even[j])
        if not is_k_aperiodic(tuple(tokens), m)[0]:
            continue
        rank = n + 1  # generator 1 plays xi, generators 2..n+1 the u_i
        xi = Word((1,), rank)
        words = []
        for g, s in tokens:
            u = Word((g + 1,), rank)
            words.append(u ** (s * p))
        eps = [1 if j % 2 == 0 else -1 for j in range(2 * k)]
        lhs = Word((), rank)
        for w, e in zip(words, eps):
            lhs = lhs * (xi if e > 0 else ~xi) * w
        rhs = Word((), rank)
        log = []
        for j, ((g, s), w) in enumerate(zip(tokens, words)):
            u = Word((g + 1,), rank) ** s
            if j % 2 == 0:
                conj = xi * u * ~xi
                rhs = rhs * conj**p
                log.append(
                    f"slot {j}: xi u^{s * p} xi^-1 = (xi u^{s} xi^-1)^{p}"
                )
            else:
                rhs = rhs * w
                log.append(f"slot {j}: u^{s * p} kept as a p-th power")
        # the final xi^-1 of the alternating pattern is absorbed: the
        # last even slot carries eps = -1 already
        identity_ok = lhs == rhs
        balance = {"odd": {}, "even": {}}
        for j, (g, s) in enumerate(tokens):
            side = "odd" if j % 2 == 0 else "even"
            balance[side].setdefault(g, [0, 0])
            balance[side][g][0 if s > 0 else 1] += 1
        # each side is k/2 pairs (g, +1), (g, -1), so it always balances
        return VarietyCertificate(
            n=n,
            p=p,
            k=k,
            tokens=tokens,
            words=words,
            eps=eps,
            aperiodicity=m,
            identity_ok=identity_ok,
            balance=balance,
            log=log,
        )
    return None


# ---------------------------------------------------------------------------
# End-to-end pipeline.
# ---------------------------------------------------------------------------


@dataclass
class PipelineReport:
    stages: List[dict]
    samples: int
    external_assumptions: List[str]
    constants: dict

    @property
    def ok(self) -> bool:
        return all(s["ok"] for s in self.stages)

    def to_dict(self):
        return {
            "ok": self.ok,
            "stages": self.stages,
            "samples": self.samples,
            "external_assumptions": self.external_assumptions,
            "constants": self.constants,
        }


def _random_sequence(rng: random.Random, k_max: int, max_len: int):
    k = rng.randint(1, k_max)
    xs = [random_word(rng, 2, rng.randint(1, max_len)) for _ in range(k)]
    eps = [rng.choice((1, -1)) for _ in range(k)]
    return xs, eps


def _product_check_scale(desk_scale: bool) -> Tuple[int, int]:
    """(aperiodicity bound, longest x) of the long-product check."""
    return (50, 24) if desk_scale else (500, 192)


def burnside_pipeline(samples: int = 50, seed: int = 0, desk_scale: bool = False) -> PipelineReport:
    """Desk-scale demonstration of the word-combinatorics side of the
    Burnside application: build the marker word, sample admissible
    10-aperiodic sequences over length-192 representatives, verify that
    every alternating product stays 500-aperiodic, and record the
    constant bookkeeping down to the non-amenability threshold.  The
    step from distinctness of 500-aperiodic words in the Burnside group
    itself is an external assumption and is flagged, never verified.
    """
    stages: List[dict] = []
    params = XiParams.desk() if desk_scale else XiParams()
    bound, max_x = _product_check_scale(desk_scale)
    try:
        xi_rep = construct_xi(seed, params)
        stages.append({"name": "construct-xi", "ok": True, "detail": xi_rep.to_dict()})
    except Exception as exc:  # noqa: BLE001 - the report pinpoints the stage
        stages.append({"name": "construct-xi", "ok": False, "detail": str(exc)})
        return PipelineReport(stages, 0, _EXTERNAL, _constants(max_x))
    rng = random.Random(seed + 1)
    failures = []
    for i in range(samples):
        xs, eps = _random_sequence(rng, k_max=20, max_len=max_x)
        ok, analysis = verify_product_aperiodicity(
            xi_rep.word, xs, eps, bound=bound, max_x_len=max_x, check_xi=False
        )
        if not ok:
            failures.append({"sample": i, "analysis": analysis})
    stages.append(
        {
            "name": "verify-products",
            "ok": not failures,
            "detail": {"samples": samples, "failures": failures},
        }
    )
    return PipelineReport(stages, samples, _EXTERNAL, _constants(max_x))


_EXTERNAL = [
    "distinctness of 500-aperiodic words in free Burnside groups of "
    "sufficiently large odd exponent is assumed from the literature and "
    "is NOT verified here"
]


def _constants(r: int) -> dict:
    return {
        "r": r,
        "segment_bound_scale": f"{r}/12 = {Fraction(r, 12)}",
        "engine_bound_scale": f"{r}/96 = {Fraction(r, 96)}",
        "travel_threshold": str(Fraction(r, 96)),
        "chain": [
            f"10-aperiodic alternating products over the {r}-ball stay long",
            f"every related set then travels at ratio above {Fraction(r, 96)}",
            "a traveling ratio above 2 rules out Folner sets, hence amenability",
        ],
    }
