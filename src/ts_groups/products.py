"""Long-product aperiodicity, the word combinatorics of the Burnside
side: the reduced alternating product xi^(e1) x1 ... xi^(ek) xk of a
marker word and a short x-sequence, scanned for powers near its block
junctions.  Its letters are packed into an ``array`` only for a scan."""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import MalformedInputError, PreconditionError, ResourceLimitError
from .markers import XiParams
from .words import Word, _first_power, is_k_aperiodic, max_power_order

__all__ = ["verify_product_aperiodicity"]


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


def _packed(letters: Sequence[int], code: str) -> bytes:
    """Letters as the bytes of an ``array`` of the given typecode.  One
    ``struct`` pack converts a long tuple about twice as fast as
    ``array`` does item by item."""
    return struct.Struct(f"{len(letters)}{code}").pack(*letters)


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
    letters = array(code, _packed(xi.letters, code))
    # xi^-1 is xi reversed, then negated
    inverse = array(code, np.negative(np.frombuffer(letters, code)[::-1]).tobytes())
    table = _XiTable(xi, letters, inverse, max_power_order(xi)[0])
    _XI_TABLES.insert(0, table)
    del _XI_TABLES[_XI_TABLE_SLOTS:]
    return table


def _packed_product(runs, code: str) -> array:
    """The letters of reduced runs as one ``array``: each xi piece
    copied from xi's table, each x piece packed once."""
    letters = array(code)
    for block, lo, hi, is_xi in runs:
        if is_xi:
            letters += block[lo:hi]
        else:
            letters.frombytes(_packed(block[lo:hi], code))
    return letters


class _ReducedProduct:
    """The reduced alternating product as the runs of `_reduced_runs`,
    which only compares letters: xi and xi^-1 come from xi's table and
    each x_i is its letter tuple.  It holds the product's length and the
    [start, end) span of each xi block's surviving letters, in product
    order (two spans meet where a whole x_i cancels).  `letters` packs
    the product on its first read, for every scan of the check."""

    def __init__(self, xi: Word, xs: Sequence[Word], eps: Sequence[int]):
        table = _xi_table(xi)
        self.code, self._letters = table.letters.typecode, None
        self.runs = runs = _reduced_runs(_alternating_blocks(
            table.letters, table.inverse, [x.letters for x in xs], eps))
        n, xi_runs = 0, []
        for _, lo, hi, is_xi in runs:
            if is_xi:
                xi_runs.append((n, n + hi - lo))
            n += hi - lo
        self.length, self.xi_runs = n, xi_runs

    @property
    def letters(self) -> array:
        if self._letters is None:
            self._letters = _packed_product(self.runs, self.code)
        return self._letters


def _merged(spans):
    """Sorted disjoint [start, end) spans with the ones that meet joined."""
    out = []
    for a, b in spans:
        if out and out[-1][1] == a:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def _first_product_power(product: _ReducedProduct, bound, order):
    """(order, start, period) of the power that
    `words._first_power(product.letters, bound)` finds, or None.
    `order` is xi's maximal power order K.  Past bound K + 1 only the
    free segments between the per-block xi spans are scanned, in period
    rounds [2^j, 2^(j+1)); see `verify_product_aperiodicity` for why
    that is exact.  Only a scan reads, and so packs, the letters."""
    if bound <= order + 1:
        ok, witness = is_k_aperiodic(product.letters, bound - 1)
        return None if ok else (witness.exponent, witness.start, witness.period)
    n = product.length
    first = 1
    while first * bound <= n:
        c = (order + 1) * (2 * first - 1) - 1
        cuts = [(s + c, e - c) for s, e in product.xi_runs if e - s > 2 * c]
        if not cuts:
            # the one segment is the whole product, and cuts only shrink
            # as c grows, so no later round would scan less
            return _first_power(product.letters, bound, first)
        lo = 0
        for cut_lo, cut_hi in cuts + [(n, n)]:
            if (cut_lo - lo >= first * bound
                    and _first_power(product.letters[lo:cut_lo], bound, first) is not None):
                return _first_power(product.letters, bound, first)
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
    (packed letters and K) is built once per word and cached.  The
    product's letters are packed only when a scan reads them.
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
    product = _ReducedProduct(xi, xs, eps)
    xi_runs = _merged(product.xi_runs)
    analysis = {
        "product_length": product.length,
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
        gaps.append(product.length - prev_end)
        analysis["max_u_gap"] = max(gaps)
    found = _first_product_power(product, bound, xi_order)
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
