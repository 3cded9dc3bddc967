"""C'(lambda) checks for symmetrized sets of relators.

Two notions of "piece" are supported, switched by the set's cyclic flag:

* cyclic off: a piece is a common prefix of two distinct elements of
  the inverse-closed set (prefix/suffix checks on word pairs use this).
* cyclic on: elements are read as cyclic words; a piece is a common
  prefix of two distinct cyclic occurrences (word, rotation), capped at
  one letter less than the shorter word so that a periodic relator
  overlapping itself yields a proper piece.  Single relators are
  checked in this mode.

C'(lambda) asks that every piece be shorter than lambda times the
shorter of its two hosts.  Each kind of set has one exact rule:

* cyclic: for each relator length n, ascending, with t = ceil(lambda*n)
  at most n - 1, the length-t windows at the cyclic positions of the
  length-n relators go into one dict, and the windows of the longer
  relators are looked up in it.  The first repeat is a violation.
  A key filter runs first: every position gets a Karp-Rabin key of its
  window (prefix sums of letter * base**i modulo two primes below
  2**31), and only positions whose key repeats enter the dict
  scan, in the same order.  Equal windows have equal keys, so the scan
  returns the same hit; a collision only costs a slice comparison.
  The primes are not replaced by arithmetic mod 2**64, under which
  Thue-Morse words collide for every base.
* prefix: sorted by letters, an element's longest common prefix with
  any other element is with a sorted neighbour, so only adjacent pairs
  are compared.

A violation carries a violating piece, not necessarily the longest.
All length comparisons against lambda are exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import MalformedInputError
from .words import Word, _common_prefix

__all__ = [
    "SymmetrizedSet",
    "Piece",
    "satisfies_small_cancellation",
]


@dataclass(frozen=True)
class SymmetrizedSet:
    """Finite set of reduced words closed under inversion, optionally
    treated as cyclic words."""

    base: Tuple[Word, ...]
    cyclic: bool = False

    def __post_init__(self):
        if not self.base:
            raise MalformedInputError("symmetrized set must be nonempty")
        rank = self.base[0].rank
        for w in self.base:
            if w.rank != rank:
                raise MalformedInputError("mixed ranks in symmetrized set")
            if w.is_identity:
                raise MalformedInputError("identity word not allowed in a relator set")
            if self.cyclic and not w.is_cyclically_reduced():
                raise MalformedInputError(
                    "cyclic closure requires cyclically reduced words"
                )

    @staticmethod
    def of(words, cyclic: bool = False) -> "SymmetrizedSet":
        """Close the given words under inversion and deduplicate."""
        seen = []
        for w in words:
            for v in (w, ~w):
                if v not in seen:
                    seen.append(v)
        return SymmetrizedSet(tuple(seen), cyclic=cyclic)


@dataclass(frozen=True)
class Piece:
    word: Word
    locations: Tuple[tuple, ...]


def _cyclic_lcp(w1: Word, r1: int, w2: Word, r2: int) -> int:
    """Length of the common prefix of two cyclic occurrences, capped at
    min(len) - 1."""
    n1, n2 = len(w1), len(w2)
    cap = min(n1, n2) - 1
    k = 0
    while k < cap and w1.letters[(r1 + k) % n1] == w2.letters[(r2 + k) % n2]:
        k += 1
    return k


# two primes below 2**31: every product of two residues (letter codes
# a + rank + 1 among them) fits int64, and the pair of residues packs
# into one int64 key
_PRIMES = (2_147_483_647, 2_147_483_629)
_BASES = (1_000_003, 972_663_749)


def _powers(base: int, prime: int, count: int) -> np.ndarray:
    """base**k mod prime for k < count, by doubling."""
    out = np.ones(count, dtype=np.int64)
    filled, step = 1, base  # step == base**filled while filled doubles
    while filled < count:
        take = min(filled, count - filled)
        out[filled : filled + take] = out[:take] * step % prime
        filled += take
        step = step * step % prime
    return out


class _WindowKeys:
    """Karp-Rabin keys of the cyclic windows of a tuple of words: prefix
    sums of letter * base**position over each doubled word, modulo two
    primes."""

    def __init__(self, base: Tuple[Word, ...]):
        self.span = max(len(w) for w in base)
        self.powers = [_powers(b, p, 2 * self.span + 1) for b, p in zip(_BASES, _PRIMES)]
        self.sums = []
        for w in base:
            codes = np.tile(np.array(w.letters, dtype=np.int64) + (w.rank + 1), 2)
            per_prime = []
            for pw, p in zip(self.powers, _PRIMES):
                s = np.zeros(len(codes) + 1, dtype=np.int64)
                np.cumsum(codes * pw[: len(codes)] % p, out=s[1:])
                per_prime.append(s % p)
            self.sums.append(per_prime)

    def keys(self, wi: int, t: int) -> np.ndarray:
        """One key per cyclic position of word wi for its length-t
        window; equal windows get equal keys in every word."""
        n = len(self.sums[wi][0]) // 2
        h = [
            # window i sums to base**i * h_i; shift every h_i to base**span
            (s[t : t + n] - s[:n]) % p * pw[self.span - n + 1 : self.span + 1][::-1] % p
            for s, pw, p in zip(self.sums[wi], self.powers, _PRIMES)
        ]
        return (h[0] << 31) | h[1]


def _repeated_window(base: Tuple[Word, ...], num: int, den: int) -> Optional[tuple]:
    """Two distinct cyclic occurrences sharing a window of length
    ceil(num/den * n), n the shorter host's length, or None."""
    doubled = [w.letters * 2 for w in base]
    window_keys = _WindowKeys(base)
    for n in sorted({len(w) for w in base}):
        t = -(-num * n // den)  # ceil
        if t > n - 1:
            continue
        # windows of the length-n relators go in, longer ones look up
        hosts = sorted(
            (wi for wi, w in enumerate(base) if len(w) >= n),
            key=lambda wi: len(base[wi]) > n,
        )
        # a position whose key is unique shares its window with no
        # other position, so only repeated keys go through the dict
        keys = np.concatenate([window_keys.keys(wi, t) for wi in hosts])
        ordered = np.sort(keys)
        repeated = np.isin(keys, ordered[1:][ordered[1:] == ordered[:-1]])
        ends = np.cumsum([len(base[wi]) for wi in hosts])
        seen = {}
        for wi, mask in zip(hosts, np.split(repeated, ends[:-1])):
            windows, insert = doubled[wi], len(base[wi]) == n
            for i in np.flatnonzero(mask).tolist():
                key = windows[i : i + t]
                other = seen.get(key)
                if other is not None:
                    return other, (wi, i)
                if insert:
                    seen[key] = (wi, i)
    return None


def satisfies_small_cancellation(sset: SymmetrizedSet, lambda_num: int, lambda_den: int):
    """C'(lambda) check: every piece p shared by elements (or cyclic
    occurrences) u and v has len(p) < (lambda_num/lambda_den) *
    min(len(u), len(v)), compared exactly.

    Returns (flag, violation) where the violation is a violating piece
    with its pair of locations: ((word, rotation), (word, rotation)) for
    cyclic sets, (index, index) into ``base`` otherwise.
    """
    if lambda_num <= 0 or lambda_den <= 0 or lambda_num >= lambda_den:
        raise MalformedInputError(
            f"lambda must lie in (0, 1), got {lambda_num}/{lambda_den}"
        )
    base = sset.base
    if sset.cyclic:
        hit = _repeated_window(base, lambda_num, lambda_den)
        if hit is None:
            return True, None
        (wi, ri), (wj, rj) = hit
        k = _cyclic_lcp(base[wi], ri, base[wj], rj)
        return False, Piece(base[wi].rotated(ri).subword(0, k), (hit,))
    order = sorted(range(len(base)), key=lambda i: base[i].letters)
    for i, j in zip(order, order[1:]):
        k = _common_prefix(base[i].letters, base[j].letters)
        if k * lambda_den >= lambda_num * min(len(base[i]), len(base[j])):
            return False, Piece(base[i].subword(0, k), ((min(i, j), max(i, j)),))
    return True, None
