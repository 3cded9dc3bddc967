"""Exact free-group word arithmetic and power/periodicity scanning.

Letters are nonzero integers: ``+i`` is the i-th generator, ``-i`` its
inverse.  Words are kept freely reduced at all times; reduction is the
only way cancellation ever happens, so every operation downstream can
trust ``len(word)`` to be the Cayley length.

Text form (used by golden files and the CLI): whitespace-separated
tokens, ``a``..``z`` for generators 1..26, ``A``..``Z`` for their
inverses, ``gN``/``GN`` for arbitrary generator indices.  The empty
string is the identity.  Compact strings without whitespace
(``"abBA"``) are accepted on input for convenience.
"""

from __future__ import annotations

import operator
import random
import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from .errors import MalformedInputError

__all__ = [
    "Word",
    "Occurrence",
    "PowerWitness",
    "reduce",
    "inverse_letters",
    "parse_word",
    "format_word",
    "is_k_aperiodic",
    "max_power_order",
    "shift_right",
    "first_aperiodic_word",
    "random_word",
]


def _check_letters(letters: Sequence[int], rank: int):
    """The one letter rule: a nonzero int of absolute value <= rank."""
    for a in letters:
        if not isinstance(a, int) or a == 0 or abs(a) > rank:
            raise MalformedInputError(f"letter {a!r} out of range for rank {rank}")


def _signed_letters(rank: int):
    """All 2*rank signed letters, in the order a, a^-1, b, b^-1, ..."""
    return [s * i for i in range(1, rank + 1) for s in (1, -1)]


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  ``len(w)`` is its Cayley length.

    Instances are immutable and hashable; ``u * v`` is the reduced
    product, ``~u`` the inverse.
    """

    letters: Tuple[int, ...]
    rank: int

    def __post_init__(self):
        _check_letters(self.letters, self.rank)
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise MalformedInputError(
                    "letters are not freely reduced; build words via reduce()"
                )

    @classmethod
    def _trusted(cls, letters: Tuple[int, ...], rank: int) -> "Word":
        """Internal constructor that skips validation.  Only for letters
        that are in range for ``rank`` and freely reduced by
        construction, such as products and windows of valid words."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        object.__setattr__(word, "rank", rank)
        return word

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise MalformedInputError("cannot multiply words of different ranks")
        # both words are reduced, so letters cancel only at the junction
        g, h = self.letters, other.letters
        n, c = len(g), 0
        top = min(n, len(h))
        while c < top and g[n - 1 - c] == -h[c]:
            c += 1
        return Word._trusted(g[: n - c] + h[c:], self.rank)

    def __invert__(self) -> "Word":
        return Word._trusted(inverse_letters(self.letters), self.rank)

    def __pow__(self, n: int) -> "Word":
        result = Word((), self.rank)
        base = self if n >= 0 else ~self
        for _ in range(abs(n)):
            result = result * base
        return result

    def __str__(self):
        return format_word(self)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def subword(self, start: int, stop: int) -> "Word":
        """Contiguous window; windows of reduced words are reduced."""
        if not (0 <= start <= stop <= len(self.letters)):
            raise MalformedInputError(f"window [{start}:{stop}] out of range")
        return Word._trusted(self.letters[start:stop], self.rank)

    def is_cyclically_reduced(self) -> bool:
        return len(self.letters) < 2 or self.letters[0] != -self.letters[-1]

    def rotated(self, i: int) -> "Word":
        """Cyclic shift by i positions (requires cyclic reducedness)."""
        if not self.is_cyclically_reduced():
            raise MalformedInputError("cannot rotate a non-cyclically-reduced word")
        i %= max(len(self.letters), 1)
        return Word._trusted(self.letters[i:] + self.letters[:i], self.rank)


@dataclass(frozen=True)
class Occurrence:
    """A factorization window: ``word[start : start + length]``."""

    word: Word
    start: int
    length: int

    def __post_init__(self):
        if self.start < 0 or self.length < 0 or self.start + self.length > len(self.word):
            raise MalformedInputError(
                f"occurrence [{self.start}, +{self.length}] exceeds word of "
                f"length {len(self.word)}"
            )

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class PowerWitness:
    """Evidence that ``base^exponent`` occurs contiguously in a sequence.

    ``start``/``period`` index into the scanned token sequence; ``base``
    is the repeating block.
    """

    start: int
    period: int
    exponent: int
    base: tuple


def inverse_letters(letters: Sequence[int]) -> Tuple[int, ...]:
    return tuple(map(operator.neg, reversed(letters)))


# Common prefixes of words of at least _GALLOP_MIN letters are found by
# comparing slices in C, of _GALLOP_FIRST letters and then of doubling
# length, until one differs, and bisecting inside that one.  Shorter
# words take the letter loop, which is cheaper on the short words most
# callers compare.  The sorted chain words of a free hull share
# prefixes thousands of letters long: the hull of an 8,454-point chain
# of 86.6 M letters took 3.5 s with the loop alone and takes 1.4 s
# (2-vCPU VM).
_GALLOP_MIN = 256
_GALLOP_FIRST = 32


def _common_prefix(s, e) -> int:
    """Length of the longest common prefix of two letter tuples."""
    if len(s) < _GALLOP_MIN or len(e) < _GALLOP_MIN:
        common = 0
        for a, b in zip(s, e):
            if a != b:
                break
            common += 1
        return common
    top = min(len(s), len(e))
    lo, step = 0, _GALLOP_FIRST  # s[:lo] == e[:lo]
    while lo < top:
        hi = min(lo + step, top)
        if s[lo:hi] != e[lo:hi]:
            while hi - lo > 1:  # and s[lo:hi] != e[lo:hi]
                mid = (lo + hi) // 2
                if s[lo:mid] == e[lo:mid]:
                    lo = mid
                else:
                    hi = mid
            return lo
        lo, step = hi, 2 * step
    return top


def reduce(letters: Iterable[int], rank: int) -> Word:
    """Freely reduce a letter sequence.  Idempotent on reduced input."""
    letters = tuple(letters)
    _check_letters(letters, rank)
    stack = []
    for a in letters:
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return Word._trusted(tuple(stack), rank)


_TOKEN_RE = re.compile(r"^([a-z]|[A-Z]|g[0-9]+|G[0-9]+)$")


def _token_to_letter(tok: str) -> int:
    if not _TOKEN_RE.match(tok):
        raise MalformedInputError(f"bad word token {tok!r}")
    if tok[0] in "gG" and len(tok) > 1:
        idx = int(tok[1:])
        if idx < 1:
            raise MalformedInputError(f"bad generator index in token {tok!r}")
        return idx if tok[0] == "g" else -idx
    if tok.islower():
        return ord(tok) - ord("a") + 1
    return -(ord(tok) - ord("A") + 1)


def _letter_to_token(a: int, rank: int) -> str:
    i = abs(a)
    if rank <= 26:
        c = chr(ord("a") + i - 1)
        return c if a > 0 else c.upper()
    return ("g" if a > 0 else "G") + str(i)


def parse_word(text: str, rank: int) -> Word:
    """Parse the text form.  Whitespace-separated tokens, or one compact
    run of single-letter tokens."""
    text = text.strip()
    if not text:
        return Word((), rank)
    if any(c.isspace() for c in text):
        tokens = text.split()
    elif _TOKEN_RE.match(text):
        tokens = [text]
    else:
        tokens = list(text)
    letters = [_token_to_letter(t) for t in tokens]
    return reduce(letters, rank)


def format_word(word: Word) -> str:
    return " ".join(_letter_to_token(a, word.rank) for a in word.letters)


# ---------------------------------------------------------------------------
# Power scanning.
#
# A block A^k (k copies of a period-p block A) starting at s corresponds to
# a run of k*p - p positions i in [s, s + (k-1)p) with seq[i] == seq[i+p],
# so at period p a power of the order sought needs a match run of length
# at least `need`.  Probe invariant: every such run contains a probed
# index.  Probes start at need - 1 and step by need; a probe that hits a
# match is extended left and right to the ends of its run, and probing
# resumes at the mismatch ending that run plus need, since any later run
# starts after that mismatch.  Only periods p <= n // order can host a
# given order, which makes bounded queries (is there a (k+1)-th power?)
# nearly linear for large k.  The worst case stays quadratic, on input
# that is almost periodic at many periods.
# ---------------------------------------------------------------------------


def _first_power(tokens, order, first=1):
    """(order, start, period) of a power of at least the given order
    (>= 2) at the first period from `first` on that hosts one, taking
    the first longest run there; None if there is no such power."""
    n = len(tokens)
    for p in range(first, n // order + 1):
        need = p * (order - 1)
        m = n - p
        run, start = 0, 0
        i = need - 1
        while i < m:
            if tokens[i] != tokens[i + p]:
                i += need
                continue
            lo, hi = i, i + 1
            while lo > 0 and tokens[lo - 1] == tokens[lo - 1 + p]:
                lo -= 1
            # a run of need matches from lo holds lo + need - 1; past a
            # short run the next one starts beyond i and holds a probe
            far = lo + need - 1
            if far >= m or tokens[far] != tokens[far + p]:
                i += need
                continue
            while hi < m and tokens[hi] == tokens[hi + p]:
                hi += 1
            if hi - lo > run and hi - lo >= need:
                run, start = hi - lo, lo
            i = hi + need
        if run:
            return (run + p) // p, start, p
    return None


def _max_power(tokens):
    """(order, start, period) of the highest power, at its smallest
    period and the first longest run there; order 1 with no meaningful
    window when the sequence is square-free.  Each search asks for one
    order more than the last hit, from the period after it (no period up
    to it hosts that order), so the last hit is at the first period of
    the highest order."""
    best = 1, 0, 0
    while (found := _first_power(tokens, best[0] + 1, best[2] + 1)) is not None:
        best = found
    return best


def _witness(tokens, order, start, period) -> PowerWitness:
    return PowerWitness(
        start=start,
        period=period,
        exponent=order,
        base=tuple(tokens[start : start + period]),
    )


def max_power_order(seq):
    """Maximum k such that some block A^k occurs contiguously.

    Returns (order, witness); order 1 and no witness for square-free
    input.  Agrees with brute-force scanning of all (start, period)
    pairs.
    """
    tokens = seq.letters if isinstance(seq, Word) else seq
    order, start, period = _max_power(tokens)
    return order, _witness(tokens, order, start, period) if order > 1 else None


def is_k_aperiodic(seq, k: int):
    """True iff no k+1 consecutive identical blocks occur.

    Returns (flag, witness); on failure the witness pins down an
    offending (k+1)-th power.  A sequence of at most k tokens (the
    empty one included) holds no (k+1)-th power and returns before any
    scan; most tree paths checked at k = 10 are that short.
    """
    if k < 1:
        raise MalformedInputError(f"aperiodicity order must be >= 1, got {k}")
    tokens = seq.letters if isinstance(seq, Word) else seq
    if len(tokens) <= k:
        return True, None
    found = _first_power(tokens, k + 1)
    if found is None:
        return True, None
    return False, _witness(tokens, *found)


def shift_right(host: Word, occ: Occurrence, m: int) -> Word:
    """Slide an occurrence window m letters to the right.

    With the window at c_1..c_n and f_1..f_q the letters after it, the
    result is c_{1+m}..c_n f_1..f_m; m may be at most q, so the window
    length is preserved.
    """
    if occ.word is not host and occ.word != host:
        raise MalformedInputError("occurrence does not belong to the host word")
    q = len(host) - occ.end
    if m < 1 or m > q:
        raise MalformedInputError(
            f"shift {m} out of range: only {q} letters available to the right"
        )
    return host.subword(occ.start + m, occ.end + m)


def first_aperiodic_word(rank: int, length: int, k: int = 1) -> Word:
    """Deterministic shortlex-first reduced word of the given length with
    no (k+1)-th power.  Used wherever a fixed aperiodic word is needed."""
    if rank < 1 or length < 0 or k < 1:
        raise MalformedInputError("rank and k must be >= 1 and length >= 0")
    order = _signed_letters(rank)
    # depth-first search in shortlex order; tried[i] counts the letters
    # already tried at position i, so len(tried) == len(prefix) + 1
    prefix = []
    tried = [0]
    while len(prefix) < length:
        if tried[-1] == len(order):
            tried.pop()
            if not prefix:
                raise MalformedInputError(
                    f"no {k}-aperiodic word of length {length} over rank {rank}"
                )
            prefix.pop()
            continue
        a = order[tried[-1]]
        tried[-1] += 1
        if prefix and prefix[-1] == -a:
            continue
        prefix.append(a)
        # the prefix before the new letter is k-aperiodic, so any
        # (k+1)-th power ends at the new letter
        if _power_ends_last(prefix, k):
            prefix.pop()
        else:
            tried.append(0)
    return Word._trusted(tuple(prefix), rank)


def random_word(rng: random.Random, rank: int, length: int) -> Word:
    """Random reduced word of the given length: each letter is drawn
    uniformly from the letters that do not cancel the one before."""
    letters = _signed_letters(rank)
    out = []
    for _ in range(length):
        out.append(rng.choice([a for a in letters if not out or a != -out[-1]]))
    return Word._trusted(tuple(out), rank)


def _power_ends_last(tokens, k: int) -> bool:
    """True iff a (k+1)-th power ends at the last token: at some period
    p, the k*p positions i before the last p have tokens[i] ==
    tokens[i + p]."""
    last = len(tokens) - 1
    for p in range(1, len(tokens) // (k + 1) + 1):
        i = last - p
        stop = i - k * p
        while i > stop and tokens[i] == tokens[i + p]:
            i -= 1
        if i == stop:
            return True
    return False
