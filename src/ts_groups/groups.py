"""Length and distance oracles for the groups the toolkit computes in.

Supported descriptors: ``free:k``, ``abelian:n``, ``prod(A,B)`` and
``f2xz:n=N`` (the rank-2 free group times the integers, generated by
a, b and a^n z, whose Cayley metric mixes the factors).

All metrics are left invariant: d(g, h) = |g^-1 h|.  Elements are
canonical normal forms (reduced words, integer vectors, pairs), so
equality of elements is equality of forms.  Oracles are immutable.
"""

from __future__ import annotations

import heapq
import re
from typing import List

from .errors import ConfigurationError, MalformedInputError, ResourceLimitError
from .words import Word, _common_prefix, _signed_letters, format_word, inverse_letters, parse_word

__all__ = ["GroupOracle", "FreeOracle", "AbelianOracle",
           "ProductOracle", "F2xZOracle", "make_oracle"]

# Largest free rank an oracle accepts.  Generators and random words list
# all 2 * rank letters, so `property test --r 2 --xi a --k-max 1
# --samples 1` takes 2.0 / 5.0 / 12.8 s at ranks 1,000 / 3,000 /
# 10,000 (2-vCPU VM), and rank 10^11 runs out of memory.
FREE_RANK_CAP = 1_000
# Largest n an f2xz oracle accepts.  The generator a^n z is an n-letter
# word, so `property test --r 12 --xi "a|1" --samples 200` takes 3.3 /
# 6.7 / 14 s at n = 100 / 300 / 1,000 and runs out of 2 GB at 10,000.
F2XZ_N_CAP = 1_000


class GroupOracle:
    """Base class; subclasses provide the normal-form arithmetic."""

    descriptor: str

    def identity(self):
        raise NotImplementedError

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def length(self, g) -> int:
        raise NotImplementedError

    def distance(self, g, h) -> int:
        return self.length(self.multiply(self.inverse(g), h))

    def generators(self) -> List[object]:
        """Symmetrized generating set (with inverses)."""
        raise NotImplementedError

    def geodesic_steps(self, g) -> List[object]:
        """Generators whose product is g, exactly length(g) of them."""
        raise NotImplementedError

    def geodesic_points(self, start, end) -> List[object]:
        """Unit-step path from start to end, inclusive."""
        pts = [start]
        for s in self.geodesic_steps(self.multiply(self.inverse(start), end)):
            pts.append(self.multiply(pts[-1], s))
        return pts

    def sort_key(self, g):
        """A total order key on elements; length-first on every oracle
        but F2xZ, whose key leads with the letter count plus |z|."""
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    def format_element(self, g) -> str:
        raise NotImplementedError

    def ball(self, r: int, limit: int = 10**6) -> tuple:
        """Exact ball of radius r around the identity, sorted by
        ``sort_key``, by breadth-first search over the Cayley graph.
        The search raises ResourceLimitError at its first element past
        ``limit``, so an oversized ball costs no more than the limit."""
        if r < 0:
            raise MalformedInputError("radius must be >= 0")
        gens = self.generators()
        seen = {self.identity()}
        frontier = list(seen)
        for _ in range(r):
            nxt = []
            for g in frontier:
                for s in gens:
                    h = self.multiply(g, s)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
                        if len(seen) > limit:
                            raise ResourceLimitError(
                                f"ball of radius {r} exceeds {limit} elements"
                            )
            frontier = nxt
        return tuple(sorted(seen, key=self.sort_key))

    def __repr__(self):
        return f"<oracle {self.descriptor}>"


class FreeOracle(GroupOracle):
    def __init__(self, rank: int):
        if rank < 1:
            raise ConfigurationError(f"free rank must be >= 1, got {rank}")
        if rank > FREE_RANK_CAP:
            raise ResourceLimitError(f"free rank {rank} exceeds cap {FREE_RANK_CAP}")
        self.rank = rank
        self.descriptor = f"free:{rank}"

    def identity(self):
        return Word((), self.rank)

    def multiply(self, g: Word, h: Word) -> Word:
        return g * h

    def inverse(self, g: Word) -> Word:
        return ~g

    def length(self, g: Word) -> int:
        return len(g)

    def distance(self, g: Word, h: Word) -> int:
        if g.rank != h.rank:
            raise MalformedInputError("cannot measure between words of different ranks")
        # g^-1 h cancels exactly the longest common prefix of g and h
        return len(g) + len(h) - 2 * _common_prefix(g.letters, h.letters)

    def generators(self):
        return [Word((a,), self.rank) for a in _signed_letters(self.rank)]

    def geodesic_steps(self, g: Word):
        return [Word((a,), self.rank) for a in g.letters]

    def geodesic_points(self, start: Word, end: Word):
        # the tree geodesic climbs from start to the longest common
        # prefix and descends to end, so its points are prefixes
        if start.rank != self.rank or end.rank != self.rank:
            raise MalformedInputError(f"geodesic endpoints must be words of rank {self.rank}")
        s, e = start.letters, end.letters
        common = _common_prefix(s, e)
        return ([Word._trusted(s[:i], self.rank) for i in range(len(s), common - 1, -1)]
                + [Word._trusted(e[:i], self.rank) for i in range(common + 1, len(e) + 1)])

    def sort_key(self, g: Word):
        return (len(g), g.letters)

    def parse_element(self, text: str) -> Word:
        return parse_word(text, self.rank)

    def format_element(self, g: Word) -> str:
        return format_word(g)


class AbelianOracle(GroupOracle):
    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigurationError(f"abelian dimension must be >= 1, got {dim}")
        self.dim = dim
        self.descriptor = f"abelian:{dim}"

    def identity(self):
        return (0,) * self.dim

    def multiply(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def inverse(self, g):
        return tuple(-a for a in g)

    def length(self, g):
        return sum(abs(a) for a in g)

    def distance(self, g, h):
        return sum(abs(b - a) for a, b in zip(g, h))

    def generators(self):
        out = []
        for i in range(self.dim):
            e = [0] * self.dim
            e[i] = 1
            out.append(tuple(e))
            e[i] = -1
            out.append(tuple(e))
        return out

    def geodesic_steps(self, g):
        steps = []
        for i, a in enumerate(g):
            e = [0] * self.dim
            e[i] = 1 if a > 0 else -1
            steps.extend([tuple(e)] * abs(a))
        return steps

    def geodesic_points(self, start, end):
        # the order of geodesic_steps: each coordinate in turn walks from
        # start's value to end's, the ones before it already at end's
        pts = [start]
        for i, (a, b) in enumerate(zip(start, end)):
            head, tail = end[:i], start[i + 1:]
            unit = 1 if b > a else -1
            pts.extend(head + (v,) + tail for v in range(a + unit, b + unit, unit))
        return pts

    def sort_key(self, g):
        return (self.length(g), g)

    def parse_element(self, text: str):
        try:
            v = tuple(int(p) for p in text.replace("(", "").replace(")", "").split(","))
        except ValueError as exc:
            raise MalformedInputError(f"bad abelian element {text!r}") from exc
        if len(v) != self.dim:
            raise MalformedInputError(
                f"expected {self.dim} coordinates, got {len(v)}"
            )
        return v

    def format_element(self, g) -> str:
        return ",".join(str(a) for a in g)


class ProductOracle(GroupOracle):
    """Direct product with the union of the embedded factor generating
    sets; lengths add."""

    def __init__(self, left: GroupOracle, right: GroupOracle):
        self.left = left
        self.right = right
        self.descriptor = f"prod({left.descriptor},{right.descriptor})"

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def multiply(self, g, h):
        return (self.left.multiply(g[0], h[0]), self.right.multiply(g[1], h[1]))

    def inverse(self, g):
        return (self.left.inverse(g[0]), self.right.inverse(g[1]))

    def length(self, g):
        return self.left.length(g[0]) + self.right.length(g[1])

    def distance(self, g, h):
        return self.left.distance(g[0], h[0]) + self.right.distance(g[1], h[1])

    def generators(self):
        il, ir = self.left.identity(), self.right.identity()
        return [(s, ir) for s in self.left.generators()] + [
            (il, s) for s in self.right.generators()
        ]

    def geodesic_steps(self, g):
        il, ir = self.left.identity(), self.right.identity()
        return [(s, ir) for s in self.left.geodesic_steps(g[0])] + [
            (il, s) for s in self.right.geodesic_steps(g[1])
        ]

    def geodesic_points(self, start, end):
        # the order of geodesic_steps: the left factor moves first
        left = self.left.geodesic_points(start[0], end[0])
        right = self.right.geodesic_points(start[1], end[1])
        return [(p, start[1]) for p in left] + [(end[0], q) for q in right[1:]]

    def sort_key(self, g):
        return (self.length(g), self.left.sort_key(g[0]), self.right.sort_key(g[1]))

    def parse_element(self, text: str):
        # the left factor's own text may hold '|' (f2xz, products); it
        # holds as many as its identity's text does
        cut = self.left.format_element(self.left.identity()).count("|") + 1
        parts = text.split("|")
        if len(parts) <= cut:
            raise MalformedInputError("product element must look like '<left>|<right>'")
        l, r = "|".join(parts[:cut]), "|".join(parts[cut:])
        return (self.left.parse_element(l.strip()), self.right.parse_element(r.strip()))

    def format_element(self, g) -> str:
        return f"{self.left.format_element(g[0])}|{self.right.format_element(g[1])}"


class F2xZOracle(GroupOracle):
    """F2 x Z under the mixed generating set {a, b, a^n z}.

    Elements are pairs (free part as a rank-2 reduced word, integer z
    exponent); related-set experiments embed a free-group link word w
    as the pair (w, 0).  The length is computed exactly from the
    syllable decomposition of the free part: writing the free part as
    a^{k_0} b^{d_1} a^{k_1} ... b^{d_L} a^{k_L}, each mixed generator
    used contributes one a^{+-n} block to exactly one a-syllable, so

        |(w, t)| = L + min over integer d_0..d_L with sum d_j = t of
                   sum_j ( |d_j| + |k_j - n * d_j| ).

    Each term is convex in d_j, so the minimum is the greedy for a
    separable convex cost under one sum constraint (Gross 1956;
    Ibaraki & Katoh 1988): start every d_j at its own minimiser, one of
    k_j // n and k_j // n + 1, then move the sum to t one block at a
    time through the syllable whose cost rises least.  Convexity makes
    each syllable's step costs non-decreasing, so taking the cheapest
    next step |t - sum d_j| times picks the cheapest set of steps, and
    the result is exact.  A step costs at most n + 1, exactly when it is
    on the linear tail of its syllable's cost, where every later step of
    that syllable costs n + 1 too; once the cheapest step costs n + 1,
    all the steps left go to that syllable at once, so a huge z exponent
    costs no more than a small one.  ``distance`` and ``geodesic_points``
    solve once for g^-1 h, whose free part is g's letters past the common
    prefix of the free parts, inverted, then h's.  The test suite
    cross-checks the solve against BFS on whole balls, against a balance
    DP over the syllables and against the one-step-at-a-time greedy.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ConfigurationError(f"f2xz needs n >= 1, got {n}")
        if n > F2XZ_N_CAP:
            raise ResourceLimitError(f"f2xz n {n} exceeds cap {F2XZ_N_CAP}")
        self.n = n
        self.rank = 2
        self.descriptor = f"f2xz:n={n}"

    def identity(self):
        return (Word((), 2), 0)

    def multiply(self, g, h):
        return (g[0] * h[0], g[1] + h[1])

    def inverse(self, g):
        return (~g[0], -g[1])

    def generators(self):
        a = Word((1,), 2)
        b = Word((2,), 2)
        an = Word((1,) * self.n, 2)
        return [
            (a, 0), (~a, 0), (b, 0), (~b, 0), (an, 1), (~an, -1),
        ]

    def _syllables(self, letters):
        """a-exponents k_0..k_L and the b-letter signs between them."""
        ks = [0]
        signs = []
        for letter in letters:
            if abs(letter) == 1:
                ks[-1] += letter
            else:
                signs.append(letter // 2)
                ks.append(0)
        return ks, signs

    def _quotient_syllables(self, g, h):
        """Syllables of the free part of g^-1 h, read from the letters
        past the common prefix of the two free parts."""
        s, e = g[0].letters, h[0].letters
        c = _common_prefix(s, e)
        return self._syllables(inverse_letters(s[c:]) + e[c:])

    def _solve(self, ks, t):
        """(length of the element with a-exponents ks and z exponent t,
        the block counts d_0..d_L of one geodesic)."""
        n = self.n
        # each syllable's minimiser of |d| + |k - n d|, one of k // n and
        # k // n + 1 (r = k - n d is in [0, n)); on a tie the lower one
        picks = []
        total = len(ks) - 1  # the b-letters
        for k in ks:
            d, r = divmod(k, n)
            low, high = abs(d) + r, abs(d + 1) + n - r
            picks.append(d + (high < low))
            total += min(low, high)
        gap = t - sum(picks)
        if gap:
            step = 1 if gap > 0 else -1
            heap = [(abs(d + step) - abs(d) + abs(k - n * (d + step)) - abs(k - n * d), j)
                    for j, (k, d) in enumerate(zip(ks, picks))]
            heapq.heapify(heap)
            for left in range(abs(gap), 0, -1):
                rise, j = heapq.heappop(heap)
                if rise == n + 1:
                    # no step costs more than n + 1, so every next step
                    # costs n + 1 from here on, and j, the lowest index
                    # among them, would win every tie: it takes all the
                    # steps left
                    picks[j] += step * left
                    total += rise * left
                    break
                total += rise
                k, d = ks[j], picks[j] + step
                picks[j] = d
                heapq.heappush(heap, (abs(d + step) - abs(d) + abs(k - n * (d + step))
                                      - abs(k - n * d), j))
        return total, picks

    def length(self, g):
        return self._solve(self._syllables(g[0].letters)[0], g[1])[0]

    def distance(self, g, h):
        return self._solve(self._quotient_syllables(g, h)[0], h[1] - g[1])[0]

    def _moves(self, ks, signs, picks):
        """The generators of one geodesic as (free letters, z step)
        pairs: per syllable its blocks a^+-n z^+-1, then its single
        a-letters, then the b-letter after it."""
        n = self.n
        moves = []
        for j, (k, d) in enumerate(zip(ks, picks)):
            jump = 1 if d >= 0 else -1
            moves += [((jump,) * n, jump)] * abs(d)
            err = k - n * d
            moves += [((1 if err >= 0 else -1,), 0)] * abs(err)
            if j < len(signs):
                moves.append(((2 * signs[j],), 0))
        return moves

    def geodesic_steps(self, g):
        ks, signs = self._syllables(g[0].letters)
        _, picks = self._solve(ks, g[1])
        return [(Word._trusted(letters, 2), dz) for letters, dz in self._moves(ks, signs, picks)]

    def geodesic_points(self, start, end):
        # the moves of geodesic_steps(start^-1 end), applied to a letter
        # stack that holds the free part, reduced as each letter lands
        ks, signs = self._quotient_syllables(start, end)
        _, picks = self._solve(ks, end[1] - start[1])
        stack, z = list(start[0].letters), start[1]
        pts = [start]
        for letters, dz in self._moves(ks, signs, picks):
            for x in letters:
                if stack and stack[-1] == -x:
                    stack.pop()
                else:
                    stack.append(x)
            z += dz
            pts.append((Word._trusted(tuple(stack), 2), z))
        return pts

    def sort_key(self, g):
        return (len(g[0]) + abs(g[1]), g[0].letters, g[1])

    def parse_element(self, text: str):
        if "|" not in text:
            raise MalformedInputError("f2xz element must look like '<word>|<int>'")
        w, t = text.rsplit("|", 1)
        return (parse_word(w.strip(), 2), _parse_int(t, text))

    def format_element(self, g) -> str:
        return f"{format_word(g[0])}|{g[1]}"


_PROD_RE = re.compile(r"^prod\((.*)\)$")


def _split_prod_args(body: str):
    depth = 0
    for i, c in enumerate(body):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            return body[:i], body[i + 1 :]
    raise ConfigurationError(f"cannot split product descriptor {body!r}")


def _parse_int(text: str, context: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedInputError(f"bad integer {text!r} in {context!r}") from None


def make_oracle(descriptor: str) -> GroupOracle:
    """Build an oracle from a descriptor string such as ``free:2``,
    ``abelian:3``, ``f2xz:n=4`` or ``prod(free:2,abelian:1)``."""
    d = descriptor.strip()
    m = _PROD_RE.match(d)
    if m:
        l, r = _split_prod_args(m.group(1))
        return ProductOracle(make_oracle(l), make_oracle(r))
    if d.startswith("free:"):
        return FreeOracle(_parse_int(d.split(":", 1)[1], d))
    if d.startswith("abelian:"):
        return AbelianOracle(_parse_int(d.split(":", 1)[1], d))
    if d.startswith("f2xz:"):
        arg = d.split(":", 1)[1]
        if not arg.startswith("n="):
            raise ConfigurationError(f"f2xz descriptor must be f2xz:n=N, got {d!r}")
        return F2xZOracle(_parse_int(arg[2:], d))
    raise ConfigurationError(f"unknown group descriptor {descriptor!r}")
