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
  A window is a slice of a memoryview of the doubled word's bytes,
  each letter encoded once at one fixed signed width that holds every
  letter of the rank.  Views, not bytes slices, keep the dict at O(n)
  memory: copied windows cost about lambda*n**2 bytes.
* prefix: sorted by letters, an element's longest common prefix with
  any other element is with a sorted neighbour, so only adjacent pairs
  are compared.

A violation carries a violating piece, not necessarily the longest.
All length comparisons against lambda are exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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


def _repeated_window(base: Tuple[Word, ...], num: int, den: int) -> Optional[tuple]:
    """Two distinct cyclic occurrences sharing a window of length
    ceil(num/den * n), n the shorter host's length, or None."""
    # each word read twice, every letter as width signed bytes; windows
    # are views, so the dict holds no copy of their letters
    width = (base[0].rank.bit_length() + 8) // 8
    doubled = [memoryview(b"".join(a.to_bytes(width, "little", signed=True) for a in w.letters) * 2)
               for w in base]
    for n in sorted({len(w) for w in base}):
        t = -(-num * n // den)  # ceil
        if t > n - 1:
            continue
        # windows of the length-n relators go in, longer ones look up
        hosts = sorted(
            (wi for wi, w in enumerate(base) if len(w) >= n),
            key=lambda wi: len(base[wi]) > n,
        )
        seen = {}
        for wi in hosts:
            windows, insert = doubled[wi], len(base[wi]) == n
            for i in range(len(base[wi])):
                key = windows[width * i : width * (i + t)]
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
