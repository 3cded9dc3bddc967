"""The marker word xi: a long 3-aperiodic word with strong small
cancellation, built from the square-free block word over
b / aba / aabaa by flipping a sparse set of b letters.  The flip
positions have pairwise distinct consecutive gaps, so any long
repeated factor would repeat a gap; density conditions keep the flips
frequent enough near the ends (short prefix/suffix pieces) and
globally (short cyclic pieces).

construct_xi reads 3-aperiodicity and C'(1/5) off the flip gaps when
the premises of two lemmas hold (see its docstring), and runs the full
scans only when one fails.  Both lemmas read a flip as the only source
of a letter b^-1 (-2): the blocks hold only the letters a and b.  The
block word's 3-aperiodicity and longest gap between letters a are
tabled once per parameter set.
"""

from __future__ import annotations

import bisect
import functools
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .cancellation import SymmetrizedSet, satisfies_small_cancellation
from .errors import ResourceLimitError
from .sequences import squarefree_ternary
from .words import Word, is_k_aperiodic

__all__ = ["XiParams", "XiReport", "construct_xi"]


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
    """(letters, b-positions, *`_block_word_facts`) of the block word,
    built once per parameter set: square-free blocks b / aba / aabaa
    until the letter count lands in the target interval.  The letters
    and the positions of its b letters are tuples."""
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
    b_positions = tuple(i for i, c in enumerate(letters) if c == 2)
    return (tuple(letters), b_positions, *_block_word_facts(letters))


def _block_word_facts(letters: Sequence[int]):
    """(3-aperiodic, longest cyclic gap between consecutive letters 1)
    of a block word: what the marker-word lemmas read of it beyond its
    letters lying in {1, 2}.  The gap is one more than the word's length
    when it has no letter 1."""
    n = len(letters)
    ones = [i for i, c in enumerate(letters) if c == 1]
    gaps = [b - a for a, b in zip(ones, ones[1:])] + [n - ones[-1] + ones[0]] if ones else []
    return is_k_aperiodic(letters, 3)[0], max(gaps, default=n + 1)


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
    closure), failure detail included.  The block word and its facts
    are built once per parameter set (`_block_word`).  Its square-free
    block sequence never puts two blocks b side by side, so each 2 has
    letters 1 beside it, and no flip falls on its first or last letter:
    every xi is freely and cyclically reduced and is built unchecked."""
    empty = [r for r in _gap_ranges(params) if r[0] > r[1]]
    if empty:
        raise ResourceLimitError(f"flip gap range [{empty[0][0]}, {empty[0][1]}] is empty")
    letters, b_positions, block_aperiodic, one_gap = _block_word(params)
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
