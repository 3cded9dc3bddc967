import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ts_groups.cancellation import (
    SymmetrizedSet,
    _repeated_window,
    satisfies_small_cancellation,
)
from ts_groups.errors import MalformedInputError
from ts_groups.groups import FREE_RANK_CAP
from ts_groups.words import Word, format_word, parse_word, reduce

from oracles import (
    _has_repeated_window,
    max_piece_length,
    naive_pieces,
    pieces,
    repeated_window_reference,
)

LAMBDAS = [(1, 6), (1, 5), (1, 3), (1, 2), (2, 3), (5, 6)]


def w(text, rank=2):
    return parse_word(text, rank)


def _hosts(s, loc):
    """Lengths of the two hosts of a piece location."""
    if s.cyclic:
        return [len(s.base[wi]) for wi, _ in loc]
    return [len(s.base[i]) for i in loc]


def assert_real_violation(s, viol, num, den):
    """The returned piece is a common prefix at its two locations and
    long enough for the shorter host."""
    (loc,) = viol.locations
    k = len(viol.word)
    if s.cyclic:
        (wi, ri), (wj, rj) = loc
        assert (wi, ri) != (wj, rj)
        for wx, rx in loc:
            assert s.base[wx].rotated(rx).subword(0, k) == viol.word
        assert k <= min(_hosts(s, loc)) - 1
    else:
        i, j = loc
        assert i != j
        for x in loc:
            assert s.base[x].subword(0, k) == viol.word
    assert k * den >= num * min(_hosts(s, loc))


def assert_matches_reference(s, num, den):
    """Not C'(num/den) exactly when some reference piece is at least
    num/den of its shorter host."""
    ok, viol = satisfies_small_cancellation(s, num, den)
    violating = any(
        len(p.word) * den >= num * min(_hosts(s, loc))
        for p in pieces(s)
        for loc in p.locations
    )
    assert ok == (not violating)
    if ok:
        assert viol is None
    else:
        assert_real_violation(s, viol, num, den)


def assert_threshold(s, mp):
    """Single-length cyclic set whose longest piece has length mp: the
    check fails at lambda = mp/n and passes at (mp + 1)/n."""
    n = len(s.base[0])
    ok, viol = satisfies_small_cancellation(s, mp, n)
    assert not ok and len(viol.word) == mp
    assert_real_violation(s, viol, mp, n)
    if mp + 1 < n:
        assert satisfies_small_cancellation(s, mp + 1, n) == (True, None)


def test_symmetrization_closes_under_inverse():
    s = SymmetrizedSet.of([w("a b")])
    assert w("B A") in s.base


def test_identity_rejected():
    with pytest.raises(MalformedInputError):
        SymmetrizedSet.of([w("")])


def test_cyclic_requires_cyclically_reduced():
    with pytest.raises(MalformedInputError):
        SymmetrizedSet.of([w("a b A")], cyclic=True)


def test_no_piece_for_aba_bab():
    s = SymmetrizedSet.of([w("a b a"), w("b a b")])
    assert pieces(s) == []
    ok, viol = satisfies_small_cancellation(s, 1, 5)
    assert ok and viol is None


def test_shared_first_letter_piece():
    s = SymmetrizedSet.of([parse_word("a b", 3), parse_word("a c", 3)])
    ps = pieces(s)
    assert any(p.word == parse_word("a", 3) for p in ps)
    ok, viol = satisfies_small_cancellation(s, 1, 2)
    assert not ok and viol.word == parse_word("a", 3)


def test_cyclic_self_overlap_single_letter():
    s = SymmetrizedSet.of([w("a a")], cyclic=True)
    ps = pieces(s)
    assert ps and max(len(p.word) for p in ps) == 1
    assert {p.word for p in ps} == {w("a"), w("A")}
    assert_threshold(s, 1)


def test_cyclic_power_relator_fails_small_cancellation():
    s = SymmetrizedSet.of([w("a a a a")], cyclic=True)
    assert max_piece_length(s) == 3
    ok, viol = satisfies_small_cancellation(s, 1, 5)
    assert not ok
    assert len(viol.word) >= 4 * 1 / 5


def test_lambda_validation():
    s = SymmetrizedSet.of([w("a b")])
    with pytest.raises(MalformedInputError):
        satisfies_small_cancellation(s, 1, 1)
    with pytest.raises(MalformedInputError):
        satisfies_small_cancellation(s, 0, 5)


def test_pieces_against_naive_enumerator():
    # random small inverse-closed sets, total length <= 200: the
    # reference enumeration keeps every pairwise maximal common prefix,
    # as the naive enumerator does
    rng = random.Random(21)
    for _ in range(150):
        base = []
        for _ in range(rng.randint(1, 4)):
            letters = []
            for _ in range(rng.randint(1, 8)):
                opts = [a for a in (1, -1, 2, -2) if not letters or a != -letters[-1]]
                letters.append(rng.choice(opts))
            base.append(Word(tuple(letters), 2))
        s = SymmetrizedSet.of(base)
        got = {p.word.letters for p in pieces(s)}
        expected = naive_pieces([e.letters for e in s.base])
        assert got == expected
        for num, den in LAMBDAS:
            assert_matches_reference(s, num, den)


def test_window_scan_agrees_with_enumeration():
    # a 300-letter positive relator, below the reference's enumeration
    # cap: the check agrees with the enumerated longest piece
    rng = random.Random(3)
    letters = []
    for _ in range(300):
        opts = [a for a in (1, 2) if not letters or a != -letters[-1]]
        letters.append(rng.choice(opts))
    word = Word(tuple(letters), 2)
    s = SymmetrizedSet.of([word], cyclic=True)
    mp = max_piece_length(s)
    for num, den in [(1, 5), (1, 3), (1, 2)]:
        ok, _ = satisfies_small_cancellation(s, num, den)
        assert ok == (mp * den < num * len(word))
    assert_threshold(s, mp)


def test_max_piece_length_binary_search_path():
    # a relator above the reference's enumeration cap, where the
    # reference binary-searches the repeated-window length; piece
    # length 1 at least (letters repeat in a 2-letter alphabet), and
    # below the relator length
    rng = random.Random(9)
    letters = []
    for _ in range(2500):
        opts = [a for a in (1, 2, -1, -2) if (not letters or a != -letters[-1])]
        letters.append(rng.choice(opts))
    word = Word(tuple(letters), 2)
    if not word.is_cyclically_reduced():
        word = Word(word.letters[1:], 2)
    s = SymmetrizedSet.of([word], cyclic=True)
    mp = max_piece_length(s)
    assert 1 <= mp < len(word)
    ok, viol = satisfies_small_cancellation(s, 1, 5)
    assert ok == (mp * 5 < len(word))
    assert_threshold(s, mp)


def test_window_scan_vs_enumeration_on_marker_word():
    # the desk-scale marker word is small enough for the reference's
    # full enumeration; its binary search agrees, and the check flips
    # exactly at the longest piece
    from ts_groups.testers import XiParams, construct_xi

    word = construct_xi(0, XiParams.desk()).word
    s = SymmetrizedSet.of([word], cyclic=True)
    enumerated = max(len(p.word) for p in pieces(s, cap=5000))
    lo, hi = 0, len(word) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _has_repeated_window(s, mid):
            lo = mid
        else:
            hi = mid - 1
    assert lo == enumerated
    assert_threshold(s, enumerated)


def test_high_rank_window_fallback():
    # a wide (rank-80) alphabet
    letters = tuple((i % 70) + 1 for i in range(40)) * 2
    word = Word(letters, 80)
    s = SymmetrizedSet.of([word], cyclic=True)
    # the word is two copies of a 40-letter block: max proper cyclic
    # piece is one letter short of the full length
    assert max_piece_length(s) == len(word) - 1
    assert_threshold(s, len(word) - 1)
    distinct = SymmetrizedSet.of([Word(tuple(range(1, 81)), 80)], cyclic=True)
    assert satisfies_small_cancellation(distinct, 1, 80) == (True, None)


# -- cross-check against the reference enumeration ---------------------------


def _reduced(letters, rank):
    return reduce(letters, rank)


def _cyclically_reduced(letters, rank):
    letters = list(_reduced(letters, rank).letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return Word(tuple(letters), rank)


def letter_lists(rank, max_size=14):
    letters = [a for b in range(1, rank + 1) for a in (b, -b)]
    return st.lists(st.sampled_from(letters), min_size=1, max_size=max_size)


@st.composite
def cyclic_sets(draw):
    """1-3 cyclically reduced relators of mixed lengths over 2 or 3
    generators: random words, proper powers u^k, and rotations of a
    word already drawn."""
    rank = draw(st.sampled_from([2, 3]))
    words = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "power", "rotation"]))
        if kind == "rotation" and words:
            src = draw(st.sampled_from(words))
            words.append(src.rotated(draw(st.integers(0, len(src) - 1))))
            continue
        if kind == "power":
            u = _cyclically_reduced(draw(letter_lists(rank, 4)), rank)
            if not u.is_identity:
                words.append(u ** draw(st.integers(2, 4)))
                continue
        word = _cyclically_reduced(draw(letter_lists(rank)), rank)
        if not word.is_identity:
            words.append(word)
    if not words:
        words.append(Word((1, 2), rank))
    return SymmetrizedSet.of(words, cyclic=True)


@st.composite
def prefix_sets(draw):
    """1-3 reduced words over 2 or 3 generators, some joined by one of
    their own prefixes."""
    rank = draw(st.sampled_from([2, 3]))
    words = []
    for _ in range(draw(st.integers(1, 3))):
        word = _reduced(draw(letter_lists(rank)), rank)
        if word.is_identity:
            continue
        words.append(word)
        if draw(st.booleans()):
            words.append(word.subword(0, draw(st.integers(1, len(word)))))
    if not words:
        words.append(Word((1, 2), rank))
    return SymmetrizedSet.of(words)


@settings(max_examples=300, deadline=None)
@given(st.one_of(cyclic_sets(), prefix_sets()), st.sampled_from(LAMBDAS))
@example(SymmetrizedSet.of([w("a b a b a b"), w("a b")], cyclic=True), (1, 3))
@example(SymmetrizedSet.of([w("a a b"), w("a b a")], cyclic=True), (1, 2))
@example(SymmetrizedSet.of([w("a b b"), w("a b")]), (5, 6))
# a piece between a short and a longer relator is the only violation
@example(SymmetrizedSet.of([w("c a", 3), w("B a c B C a c", 3), w("c a B a a a", 3)], cyclic=True), (1, 2))
# two longer relators share a window long enough only for the shortest
@example(SymmetrizedSet.of([w("B C B c", 3), w("c c a c A B a", 3), w("C B B A A C", 3)], cyclic=True), (2, 3))
def test_small_cancellation_matches_reference(s, lam):
    assert_matches_reference(s, *lam)


@pytest.fixture(scope="module")
def full_scale_marker():
    from ts_groups.testers import construct_xi

    s = SymmetrizedSet.of([construct_xi(1).word], cyclic=True)
    return s, max_piece_length(s)


@pytest.mark.parametrize("side", ["below", "at", "above"])
def test_full_scale_marker_threshold(full_scale_marker, side):
    # lambda just below, at and just above mp/n
    s, mp = full_scale_marker
    n = len(s.base[0])
    num, den = {"below": (2 * mp - 1, 2 * n), "at": (mp, n), "above": (2 * mp + 1, 2 * n)}[side]
    ok, viol = satisfies_small_cancellation(s, num, den)
    assert ok == (side == "above")
    if not ok:
        assert len(viol.word) == mp
        assert_real_violation(s, viol, num, den)


# -- the byte-window scan against the reference encoding -------------------


@st.composite
def wide_sets(draw, rank, alphabet):
    """1-3 cyclically reduced relators over many generators, drawn from
    a few letters so that windows repeat."""
    words = []
    for _ in range(draw(st.integers(1, 3))):
        letters = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=24))
        word = _cyclically_reduced(letters, rank)
        if not word.is_identity:
            words.append(word)
    if not words:
        words.append(Word((1, rank), rank))
    return SymmetrizedSet.of(words, cyclic=True)


# ranks 127 and 128 straddle the one- and two-byte widths; letters +-1
# and +-rank reach both ends of each width's range
_WIDE_SETS = [wide_sets(80, [1, -1, 2, 79, -80])] + [
    wide_sets(rank, [1, -1, rank, -rank]) for rank in (127, 128, FREE_RANK_CAP)
]


@settings(max_examples=400, deadline=None)
@given(st.one_of(cyclic_sets(), *_WIDE_SETS))
@example(SymmetrizedSet.of([w("a b a b a b"), w("a b")], cyclic=True))
@example(SymmetrizedSet.of([w("B C B c", 3), w("c c a c A B a", 3), w("C B B A A C", 3)], cyclic=True))
def test_window_scan_matches_reference_encoding(s):
    for num, den in LAMBDAS:
        assert _repeated_window(s.base, num, den) == repeated_window_reference(s.base, num, den)


def _thue_morse(n):
    return Word(tuple(1 + bin(i).count("1") % 2 for i in range(n)), 2)


@pytest.mark.parametrize("lam", [(1, 5), (1, 2), (9, 10)])
def test_thue_morse_window_scan(lam):
    # an 8192-letter Thue-Morse relator: a repeat at 1/5, none at 1/2 or
    # 9/10, so the scan reads every window there
    base = SymmetrizedSet.of([_thue_morse(8192)], cyclic=True).base
    assert _repeated_window(base, *lam) == repeated_window_reference(base, *lam)


def test_full_scale_violating_piece_pinned():
    # the full-scale marker word with its letters 5000..7099 appended:
    # the repeated factor, one letter longer, is the piece at 1/6
    from ts_groups.testers import construct_xi

    xi = construct_xi(1).word
    s = SymmetrizedSet.of([Word(xi.letters + xi.letters[5000:7100], 2)], cyclic=True)
    assert satisfies_small_cancellation(s, 1, 5) == (True, None)
    ok, viol = satisfies_small_cancellation(s, 1, 6)
    assert not ok
    assert viol.locations == (((0, 4999), (0, 10004)),)
    assert len(viol.word) == 2101
    assert hashlib.sha256(format_word(viol.word).encode()).hexdigest()[:16] == "cfd3254c5512049e"
    assert_real_violation(s, viol, 1, 6)

