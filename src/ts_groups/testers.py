"""Falsification and corroboration engines for the alternating-product
length properties, the marker-word constructor, the long-product
aperiodicity verifier, and the end-to-end Burnside-side pipeline.

The alternating-product property at scale r asks that every product
xi^(e1) x1 xi^(e2) x2 ... xi^(ek) xk with nontrivial x_i of length at
most r (and, for the primed families, an n-aperiodic x-sequence) has
length above r.  Abelian groups fail it instantly; the marker word xi
built here is the free-group witness the Burnside application rests
on.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
import struct
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cancellation import SymmetrizedSet, satisfies_small_cancellation
from .errors import (
    ConfigurationError,
    InternalInvariantError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
)
from .groups import FreeOracle, GroupOracle
from .sequences import squarefree_ternary
from .tours import random_element
from .words import (
    Word,
    _first_power,
    format_word,
    is_k_aperiodic,
    max_power_order,
    random_word,
)

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
        bal_ok = all(
            c[0] == c[1] for table in balance.values() for c in table.values()
        )
        if not bal_ok:
            continue
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
# The marker word xi: a long 3-aperiodic word with strong small
# cancellation, built from the square-free block word over
# b / aba / aabaa by flipping a sparse set of b letters.  The flip
# positions have pairwise distinct consecutive gaps, so any long
# repeated factor would repeat a gap; density conditions keep the flips
# frequent enough near the ends (short prefix/suffix pieces) and
# globally (short cyclic pieces).
#
# construct_xi reads 3-aperiodicity and C'(1/5) off the flip gaps when
# the premises of two lemmas hold (see its docstring), and runs the full
# scans only when one fails.  Both lemmas read a flip as the only source
# of a letter b^-1 (-2): the blocks hold only the letters a and b.  The
# block word's 3-aperiodicity and longest gap between letters a are
# tabled once per parameter set.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XiParams:
    total_low: int = 10000  # exclusive
    total_high: int = 10006  # exclusive
    end_window: int = 60
    end_zone_a: int = 340
    end_zone_b_lo: int = 400
    end_zone_b_hi: int = 60
    global_window: int = 1000
    density_window: int = 100
    prefix_len: int = 400

    @staticmethod
    def desk():
        """Scaled-down parameters for fast runs; the verification
        ratios (1/5, 1/3) stay the same."""
        return XiParams(
            total_low=500,
            total_high=506,
            end_window=30,
            end_zone_a=80,
            end_zone_b_lo=100,
            end_zone_b_hi=30,
            global_window=90,
            density_window=80,
            prefix_len=60,
        )


_PIECE_VARIANT = (
    "cyclic pieces are maximal common prefixes of two distinct cyclic "
    "occurrences, capped one letter below the relator length"
)


@dataclass
class XiReport:
    word: Word
    n: int
    flips: Tuple[int, ...]
    conditions: Dict[str, dict]
    attempts: int
    params: XiParams

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.conditions.values())

    def to_dict(self):
        return {
            "length": self.n,
            "flips": len(self.flips),
            "attempts": self.attempts,
            "conditions": self.conditions,
            "piece_variant": _PIECE_VARIANT,
        }


@functools.lru_cache(maxsize=4)
def _block_word(params: XiParams):
    """(letters, b-positions): square-free blocks b / aba / aabaa until
    the letter count lands in the target interval, and the positions of
    its b letters.  Both are tuples, built once per parameter set."""
    blocks = {"A": (2,), "B": (1, 2, 1), "C": (1, 1, 2, 1, 1)}
    letters: List[int] = []
    # every block has a letter, so total_low + 1 symbols are enough
    for sym in squarefree_ternary(params.total_low + 1):
        if len(letters) > params.total_low:
            break
        letters.extend(blocks[sym])
    n = len(letters)
    if not (params.total_low < n < params.total_high):
        raise ResourceLimitError(f"block word landed at {n}, outside the target")
    return tuple(letters), tuple(i for i, c in enumerate(letters) if c == 2)


def _block_word_facts(letters: Sequence[int]):
    """(3-aperiodic, longest cyclic gap between consecutive letters 1)
    of a block word: what the marker-word lemmas read of it beyond its
    letters lying in {1, 2}.  The gap is one more than the word's length
    when it has no letter 1."""
    n = len(letters)
    ones = [i for i, c in enumerate(letters) if c == 1]
    gaps = [b - a for a, b in zip(ones, ones[1:])] + [n - ones[-1] + ones[0]] if ones else []
    return is_k_aperiodic(letters, 3)[0], max(gaps, default=n + 1)


@functools.lru_cache(maxsize=4)
def _block_facts(params: XiParams):
    """`_block_word_facts` of the block word under `params`, built once."""
    return _block_word_facts(_block_word(params)[0])


def _aperiodic_3(word: Word, flips, block_aperiodic: bool) -> dict:
    """The aperiodic_3 condition of a marker word whose sorted flips
    (b-positions of the block word) carry its letters -2.  Lemma A
    decides it from the flips when it applies, else `is_k_aperiodic`."""
    gaps = [b - a for a, b in zip(flips, flips[1:])]
    if block_aperiodic and len(set(gaps)) == len(gaps):
        return {"pass": True, "detail": "no fourth power"}
    ok, wit = is_k_aperiodic(word, 3)
    return {"pass": ok, "detail": "no fourth power" if ok else f"power at {wit.start}"}


def _distinct_cyclic_windows(n: int, flips, one_gap: int) -> bool:
    """Whether Lemma B's premises hold, so that the length-ceil(n/5)
    cyclic windows of the marker word and its inverse are pairwise
    distinct."""
    t = -(-n // 5)
    if len(flips) < 2 or one_gap > t:
        return False
    gaps = [b - a for a, b in zip(flips, flips[1:])] + [n - flips[-1] + flips[0]]
    return (len(set(gaps)) == len(gaps)
            and all(a + b < t for a, b in zip(gaps, gaps[1:] + gaps[:1])))


def _small_cancellation_1_5(word: Word, flips, one_gap: int) -> dict:
    """The small_cancellation_1_5 condition of a marker word whose
    sorted flips (b-positions of the block word) carry its letters -2.
    Lemma B decides it from the flips when it applies, else the window
    scan of `satisfies_small_cancellation`."""
    ok = _distinct_cyclic_windows(len(word), flips, one_gap)
    if not ok:
        whole = SymmetrizedSet.of([word], cyclic=True)
        ok, viol = satisfies_small_cancellation(whole, 1, 5)
    return {"pass": ok,
            "detail": "cyclic pieces below n/5" if ok else f"piece of length {len(viol.word)}"}


def _windows_hit(flips, lo, hi, w):
    """Whether every window [u, u + w] with lo <= u < hi holds one of
    the sorted flips.  A flip d covers every start from d - w up to d,
    so one walk over the flips moves the first uncovered start to d + 1
    or finds it uncovered."""
    need = lo
    for d in flips:
        if need >= hi or d > need + w:
            break
        need = max(need, d + 1)
    return need >= hi


def _prefix_counts(positions, n):
    """counts[i] = how many of the letter positions lie below i, for
    0 <= i <= n."""
    p = np.fromiter(positions, np.int64, len(positions))
    return np.bincount(p + 1, minlength=n + 1).cumsum()


def _verify_flip_conditions(n, b_positions, flips, params: XiParams):
    """Check the four flip-set conditions from the flips alone, without
    the state of the selection that chose them.  The two density
    conditions ask that every window of a zone hold a flip; one walk over
    the sorted flips answers each (`_windows_hit`).  Local sparsity
    compares 3 * flips < b-letters in every window at once, from prefix
    counts; window widths are at least 0.  `flip_conditions_reference` in the tests is the
    window-by-window scan this replaces, and a randomized test keeps the
    two equal."""
    flips = sorted(flips)
    out = {}
    gaps = [b - a for a, b in zip(flips, flips[1:])]
    out["distinct_gaps"] = {
        "pass": len(gaps) == len(set(gaps)),
        "detail": f"{len(gaps)} gaps, {len(set(gaps))} distinct",
    }
    w = params.end_window
    ok = _windows_hit(flips, 0, params.end_zone_a - 1, w) and _windows_hit(
        flips, n - params.end_zone_b_lo, n - params.end_zone_b_hi - 1, w
    )
    out["end_density"] = {"pass": ok, "detail": f"window {w} over both end zones"}
    out["global_density"] = {
        "pass": _windows_hit(flips, 0, n - params.global_window, params.global_window),
        "detail": f"window {params.global_window} everywhere",
    }
    # window [u, u + dw] holds surplus[u + dw + 1] - surplus[u] b-letters
    # beyond three per flip
    dw = params.density_window
    starts = max(n - dw, 0)
    surplus = _prefix_counts(b_positions, n) - 3 * _prefix_counts(flips, n)
    ok = bool(np.all(surplus[dw + 1:dw + 1 + starts] > surplus[:starts]))
    out["local_sparsity"] = {
        "pass": ok,
        "detail": f"flips below 1/3 of b-letters in every {dw}-window",
    }
    return out


def _gap_ranges(params: XiParams):
    """The [lo, hi] ranges of the target gaps `_select_flips` draws:
    small ones inside both end zones, coarse ones through the middle."""
    return ((max(8, params.end_window // 3), params.end_window - 3),
            (params.end_window + 5, params.global_window - params.end_window - 10))


def _select_flips(n, b_positions, params: XiParams, rng: random.Random):
    """Greedy selection with pairwise distinct gaps: small gaps inside
    both end zones, coarse gaps through the middle.  Each pick draws a
    target gap and takes the b-position, below n - 1 and with an unused
    gap in [max(lo_gap, 2), hi_gap + 6], whose gap is nearest the
    target; the lower position wins a tie.  It bisects to cur + target
    and walks outward on each side past used gaps.
    `select_flips_reference` in the tests is the scan over the whole
    window that this replaces, and a randomized test keeps the two
    equal."""
    dense_hi = params.end_zone_a + params.end_window + 20
    dense_lo = n - params.end_zone_b_lo - params.end_window - 20
    small, coarse = _gap_ranges(params)
    coarse_hi = coarse[1]

    used_gaps = set()
    flips: List[int] = []

    def pick_next(cur, lo_gap, hi_gap):
        target = cur + rng.randint(lo_gap, hi_gap)
        lo = bisect.bisect_left(b_positions, cur + max(lo_gap, 2))
        hi = bisect.bisect_right(b_positions, min(cur + hi_gap + 6, n - 2), lo)
        right = bisect.bisect_left(b_positions, target, lo, hi)
        left = right - 1
        while left >= lo and b_positions[left] - cur in used_gaps:
            left -= 1
        while right < hi and b_positions[right] - cur in used_gaps:
            right += 1
        best = b_positions[left] if left >= lo else None
        if right < hi and (best is None or b_positions[right] - target < target - best):
            best = b_positions[right]
        return None if best is None else (best, best - cur)

    first_idx = bisect.bisect_left(b_positions, max(2, small[0]))
    cur = b_positions[min(first_idx, len(b_positions) - 1)]
    if cur > params.end_window - 2:
        return None
    flips.append(cur)
    while True:
        in_dense = cur < dense_hi or cur >= dense_lo
        lo_gap, hi_gap = small if in_dense else coarse
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


_XI_ATTEMPTS = 40  # seeded flip selections construct_xi tries


def construct_xi(seed: int = 0, params: XiParams = XiParams()) -> XiReport:
    """Build the marker word and machine-verify all of its contracted
    properties: 3-aperiodicity, target length, small cancellation at
    1/5 over the cyclic closure, and small cancellation at 1/3 for the
    prefix/suffix pair.

    xi is the block word with its b letters (2) at the sorted flips
    f_0 < ... < f_(m-1) turned into b^-1 (-2).  The block word's letters
    lie in {1, 2}, so -2 occurs only at flips, and a factor of xi that
    holds no flip is one of the block word.  Two lemmas read the two
    costly conditions off the flip gaps:

    - Lemma A: if the linear gaps f_(i+1) - f_i are pairwise distinct
      and the block word is 3-aperiodic, xi is 3-aperiodic.  A fourth
      power AAAA of xi holds a flip, else it is one of the block word,
      so A holds one: with one flip in A the copies give two
      consecutive gaps of the period, and with more a gap inside A
      repeats in the next copy.
    - Lemma B, with t = ceil(n/5): xi is C'(1/5) if the cyclic gaps (the
      wrap gap n - f_(m-1) + f_0 included) are pairwise distinct, every
      two consecutive cyclic gaps sum to at most t - 1, and the block
      word has no t letters in a row without a letter 1.  The check
      asks that the 2n length-t cyclic windows of xi and xi^-1 be
      pairwise distinct.  With f_i the last flip before a window's start
      u, f_(i+2) <= f_i + t - 1 < u + t, so the window holds the
      consecutive flips f_(i+1), f_(i+2).  An equal window holds two
      consecutive flips at the same offsets, and their gap occurs once
      only, so equal windows of xi start at the same position.  xi^-1
      marks its flips by +2 and has the same gaps, reversed, so the
      same holds for it.  A window of xi holds a letter 1 and xi^-1 has
      none, so no window of one equals one of the other.

    When a premise fails, the condition comes from the full scan
    (`is_k_aperiodic`, or `satisfies_small_cancellation` on the cyclic
    closure), failure detail included.  The block word's facts are
    built once per parameter set (`_block_facts`).  Its square-free
    block sequence never puts two blocks b side by side, so each 2 has
    letters 1 beside it, and no flip falls on its first or last letter:
    every xi is freely and cyclically reduced and is built unchecked."""
    empty = [r for r in _gap_ranges(params) if r[0] > r[1]]
    if empty:
        raise ResourceLimitError(f"flip gap range [{empty[0][0]}, {empty[0][1]}] is empty")
    letters, b_positions = _block_word(params)
    block_aperiodic, one_gap = _block_facts(params)
    n = len(letters)
    last_error = None
    for attempt in range(_XI_ATTEMPTS):
        rng = random.Random(seed * 7_919 + attempt)
        flips = _select_flips(n, b_positions, params, rng)
        if flips is None:
            last_error = "flip selection infeasible"
            continue
        flipped = list(letters)
        for i in flips:
            flipped[i] = -2
        word = Word._trusted(tuple(flipped), 2)
        conditions = _verify_flip_conditions(n, b_positions, flips, params)
        conditions["aperiodic_3"] = _aperiodic_3(word, flips, block_aperiodic)
        conditions["length"] = {
            "pass": params.total_low < n < params.total_high,
            "detail": f"length {n}",
        }
        conditions["small_cancellation_1_5"] = _small_cancellation_1_5(word, flips, one_gap)
        pl = params.prefix_len
        ends = SymmetrizedSet.of(
            [word.subword(0, pl), word.subword(n - pl, n)], cyclic=False
        )
        ok3c, viol3c = satisfies_small_cancellation(ends, 1, 3)
        conditions["ends_small_cancellation_1_3"] = {
            "pass": ok3c,
            "detail": "prefix/suffix pieces below len/3"
            if ok3c
            else f"piece of length {len(viol3c.word)}",
        }
        report = XiReport(
            word=word,
            n=n,
            flips=tuple(flips),
            conditions=conditions,
            attempts=attempt + 1,
            params=params,
        )
        if report.ok:
            return report
        last_error = "; ".join(
            f"{k} failed" for k, v in conditions.items() if not v["pass"]
        )
    raise ResourceLimitError(
        f"marker word construction failed after {_XI_ATTEMPTS} attempts: {last_error}"
    )


# ---------------------------------------------------------------------------
# Long-product aperiodicity (the Burnside-side word combinatorics).
# ---------------------------------------------------------------------------


def _reduced_runs(blocks):
    """Free reduction of a product of freely reduced blocks.

    ``blocks`` yields ``(letters, tag)`` pairs.  Since every block is
    reduced, letters cancel only where a block meets the reduced product
    of the blocks before it, so the product is kept as a stack of runs
    ``[letters, lo, hi, tag]`` (the surviving window of one block) and
    each junction cancels inward from both ends; a run left empty is
    popped, so one block can cancel across several earlier ones.
    Returns the runs in product order.
    """
    runs = []
    for block, tag in blocks:
        lo, hi = 0, len(block)
        while runs and lo < hi:
            top = runs[-1]
            if top[0][top[2] - 1] != -block[lo]:
                break
            top[2] -= 1
            lo += 1
            if top[1] == top[2]:
                runs.pop()
        if lo < hi:
            runs.append([block, lo, hi, tag])
    return runs


def _alternating_blocks(xi, xi_inv, xs, eps):
    """The blocks of xi^(e1) x1 ... xi^(ek) xk as `_reduced_runs` reads
    them, from letter sequences: xi blocks tagged True, x blocks False."""
    for x, e in zip(xs, eps):
        yield (xi if e > 0 else xi_inv), True
        yield x, False


def _free_product_length(xi, xi_inv, xs: Sequence[Word], eps) -> int:
    """Length of the reduced alternating product of free words, given
    the letters of xi and xi^-1: the letters `_reduced_runs` keeps."""
    runs = _reduced_runs(_alternating_blocks(xi, xi_inv, [x.letters for x in xs], eps))
    return sum(hi - lo for _, lo, hi, _ in runs)


def _letter_typecode(rank: int) -> str:
    """The narrowest signed ``array`` typecode that holds every letter
    of the given rank."""
    for code in "bhiq":
        if rank < 1 << (8 * array(code).itemsize - 1):
            return code
    raise ResourceLimitError(f"rank {rank} has letters too wide to pack")


def _packed(letters: Sequence[int], code: str) -> array:
    """Letters as an ``array`` of the given typecode.  One ``struct``
    pack converts a long tuple about twice as fast as ``array`` does
    item by item."""
    return array(code, struct.Struct(f"{len(letters)}{code}").pack(*letters))


@dataclass(frozen=True)
class _XiTable:
    """What every product check over one xi reads: xi and xi^-1 packed
    as ``array`` letters, and xi's maximal power order."""

    xi: Word
    letters: array
    inverse: array
    order: int


_XI_TABLES: List[_XiTable] = []  # the last few xi checked, newest first
_XI_TABLE_SLOTS = 4


def _xi_table(xi: Word) -> _XiTable:
    """The table of xi, built once.  The cache is searched by identity
    first, so a hit on the same word neither hashes nor scans its
    letters; the cache holds the word, so its id is not reused while
    the table is cached."""
    for table in _XI_TABLES:
        if table.xi is xi:
            return table
    for table in _XI_TABLES:
        if table.xi == xi:
            return table
    code = _letter_typecode(xi.rank)
    letters = _packed(xi.letters, code)
    # xi^-1 is xi reversed, then negated
    inverse = array(code, np.negative(np.frombuffer(letters, code)[::-1]).tobytes())
    table = _XiTable(xi, letters, inverse, max_power_order(xi)[0])
    _XI_TABLES.insert(0, table)
    del _XI_TABLES[_XI_TABLE_SLOTS:]
    return table


def _reduced_product(xi: Word, xs: Sequence[Word], eps: Sequence[int]):
    """Reduced alternating product as one packed ``array`` of letters,
    and the [start, end) span of each xi block's surviving letters, in
    product order.  Two spans meet where a whole x_i cancels."""
    table = _xi_table(xi)
    code = table.letters.typecode
    runs = _reduced_runs(_alternating_blocks(
        table.letters, table.inverse, [_packed(x.letters, code) for x in xs], eps))
    letters = array(code)
    xi_runs = []
    for block, lo, hi, is_xi in runs:
        if is_xi:
            xi_runs.append((len(letters), len(letters) + hi - lo))
        letters += block[lo:hi]
    return letters, xi_runs


def _merged(spans):
    """Sorted disjoint [start, end) spans with the ones that meet joined."""
    out = []
    for a, b in spans:
        if out and out[-1][1] == a:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def _first_product_power(letters, xi_runs, bound, order):
    """(order, start, period) of the power that
    `words._first_power(letters, bound)` finds in a reduced product, or
    None.  `xi_runs` are the product's per-block xi spans and `order`
    is xi's maximal power order K.  Past bound K + 1 only the free
    segments are scanned, in period rounds [2^j, 2^(j+1)); see
    `verify_product_aperiodicity` for why that is exact."""
    if bound <= order + 1:
        ok, witness = is_k_aperiodic(letters, bound - 1)
        return None if ok else (witness.exponent, witness.start, witness.period)
    n = len(letters)
    first = 1
    while first * bound <= n:
        c = (order + 1) * (2 * first - 1) - 1
        cuts = [(s + c, e - c) for s, e in xi_runs if e - s > 2 * c]
        if not cuts:
            # the one segment is the whole product, and cuts only shrink
            # as c grows, so no later round would scan less
            return _first_power(letters, bound, first)
        lo = 0
        for cut_lo, cut_hi in cuts + [(n, n)]:
            if (cut_lo - lo >= first * bound
                    and _first_power(letters[lo:cut_lo], bound, first) is not None):
                return _first_power(letters, bound, first)
            lo = cut_hi
        first *= 2
    return None


def verify_product_aperiodicity(xi: Word, xs: Sequence[Word], eps: Sequence[int],
                                bound: int = 500, max_x_len: int = 192,
                                check_xi: bool = True, xi_floor: Optional[int] = None):
    """Reduce xi^(e1) x1 ... xi^(ek) xk and check the result has no
    power of the given order.

    Returns (flag, analysis).  On violation the analysis classifies the
    witness.  A short period p (at most |xi|/5) is the case
    "short-period-inside-block" when some surviving xi run overlaps the
    witness window by at least 4p letters, so that one xi block holds a
    fourth power, and "long-period" otherwise.  A longer period is a
    "long-period" block-structure violation, localized against the
    surviving blocks.  With check_xi, xi must meet the marker-word
    contract first: 3-aperiodic and longer than xi_floor letters, by
    default the full-scale XiParams().total_low.

    The scan looks only near the junctions of the blocks.  Let K be
    xi's maximal power order, and let bound > K + 1.  A power at period
    p is a p-periodic factor F of at least bound * p letters.  The part
    of F inside one xi run is p-periodic and lies in xi or xi^-1, which
    hold no (K + 1)-th power, so it has at most c = (K + 1) * p - 1
    letters, fewer than F.  So F avoids the deep interior [s + c, e - c)
    of every xi run [s, e), and lies in one free segment between those
    interiors.  The runs are taken per block, unmerged, since a merged
    span would hide the junction of two xi blocks.  Periods are scanned
    in rounds [2^j, 2^(j+1)).  Each round scans the free segments at its
    largest period, which hold those of every smaller one, and only
    those of at least bound * 2^j letters.  No earlier round found a
    power, so on a segment's first hit the whole product is rescanned
    from the round's first period, for the witness a whole-product scan
    gives.  A round that cuts no xi run scans the whole product from its
    first period on, and ends the scan: cuts only shrink as the rounds
    go on.  Up to bound K + 1 the whole product is scanned.  xi's table
    (packed letters and K) is built once per word and cached.
    """
    if len(xs) != len(eps) or not xs:
        raise MalformedInputError("xs and eps must be nonempty and equal length")
    if any(e not in (1, -1) for e in eps):
        raise MalformedInputError("eps entries must be +1 or -1")
    if any(x.rank != xi.rank for x in xs):
        raise MalformedInputError("sequence elements must have the rank of xi")
    for x in xs:
        if x.is_identity:
            raise PreconditionError("sequence elements must be nontrivial")
        if len(x) > max_x_len:
            raise PreconditionError(
                f"sequence element of length {len(x)} exceeds {max_x_len}"
            )
    ok_seq, wit = is_k_aperiodic(tuple(xs), 10)
    if not ok_seq:
        raise PreconditionError(
            f"x-sequence is not 10-aperiodic: period {wit.period} at {wit.start}"
        )
    xi_order = _xi_table(xi).order
    if check_xi:
        low = XiParams().total_low if xi_floor is None else xi_floor
        if xi_order > 3:
            raise PreconditionError("xi is not 3-aperiodic")
        if len(xi) <= low:
            raise PreconditionError(f"xi has {len(xi)} letters, not more than {low}")
    letters, block_runs = _reduced_product(xi, xs, eps)
    xi_runs = _merged(block_runs)
    analysis = {
        "product_length": len(letters),
        "blocks": len(xs),
        "min_xi_run": min((b - a for a, b in xi_runs), default=0),
        "max_u_gap": 0,
    }
    if xi_runs:
        gaps = []
        prev_end = 0
        for a, b in xi_runs:
            gaps.append(a - prev_end)
            prev_end = b
        gaps.append(len(letters) - prev_end)
        analysis["max_u_gap"] = max(gaps)
    found = _first_product_power(letters, block_runs, bound, xi_order)
    if found is None:
        return True, analysis
    exponent, start, p = found
    end = start + p * exponent
    analysis["witness"] = {
        "start": start,
        "period": p,
        "exponent": exponent,
    }
    if 5 * p <= len(xi):
        # the witness window is p-periodic, so an xi run overlapping it
        # by 4p letters holds a fourth power inside one xi block
        inside = any(min(b, end) - max(a, start) >= 4 * p for a, b in xi_runs)
        analysis["case"] = "short-period-inside-block" if inside else "long-period"
    else:
        analysis["case"] = "long-period"
        analysis["blocks_crossed"] = [
            i for i, (a, b) in enumerate(xi_runs) if a < end and b > start
        ]
    return False, analysis


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
