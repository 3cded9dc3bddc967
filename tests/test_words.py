import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ts_groups.errors import MalformedInputError
from ts_groups.sequences import squarefree_ternary
from ts_groups.words import (
    _GALLOP_FIRST,
    _GALLOP_MIN,
    _common_prefix,
    _first_power,
    _power_ends_last,
    Occurrence,
    PowerWitness,
    Word,
    first_aperiodic_word,
    format_word,
    inverse_letters,
    is_k_aperiodic,
    max_power_order,
    parse_word,
    reduce,
    shift_right,
)

from oracles import first_power_reference, naive_max_power_order, period_scan_reference


def w(text, rank=2):
    return parse_word(text, rank)


# -- reduction ---------------------------------------------------------------


def test_reduce_full_cancellation():
    assert w("a b B A").is_identity


def test_reduce_single_cancellation():
    assert w("a b B a") == w("a a")


def test_reduce_identity_on_reduced():
    assert w("a b A") == Word((1, 2, -1), 2)


def test_reduce_bad_letter():
    with pytest.raises(MalformedInputError):
        reduce([1, 3], 2)
    with pytest.raises(MalformedInputError):
        reduce([0], 2)


letters_strategy = st.lists(
    st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=40
)


@settings(max_examples=150, deadline=None)
@given(letters_strategy)
def test_reduce_idempotent(letters):
    once = reduce(letters, 2)
    again = reduce(once.letters, 2)
    assert once == again


@settings(max_examples=150, deadline=None)
@given(letters_strategy, letters_strategy)
def test_length_subadditive(u, v):
    wu, wv = reduce(u, 2), reduce(v, 2)
    assert len(wu * wv) <= len(wu) + len(wv)


@settings(max_examples=150, deadline=None)
@given(letters_strategy, letters_strategy)
def test_inverse_antihomomorphism(u, v):
    wu, wv = reduce(u, 2), reduce(v, 2)
    assert ~(wu * wv) == (~wv) * (~wu)


def test_word_constructor_rejects_unreduced():
    with pytest.raises(MalformedInputError):
        Word((1, -1), 2)


def test_public_constructors_still_validate():
    for bad in [(3,), (0,), (1, -1), (2, 1, -1)]:
        with pytest.raises(MalformedInputError):
            Word(bad, 2)
    with pytest.raises(MalformedInputError):
        reduce([1, -3], 2)
    a2, a3 = Word((1,), 2), Word((1,), 3)
    with pytest.raises(MalformedInputError):
        a2 * a3


@settings(max_examples=200, deadline=None)
@given(st.lists(letters_strategy, min_size=1, max_size=6), st.data())
def test_concat_matches_letter_reduction(parts, data):
    words = [reduce(p, 2) for p in parts]
    # splice in inverses so that blocks cancel across several neighbours
    for i in data.draw(st.lists(st.integers(0, len(words) - 1), max_size=3)):
        words.insert(i + 1, ~words[i])
    flat = [a for wd in words for a in wd.letters]
    product = words[0]
    for wd in words[1:]:
        product = product * wd
    assert product == reduce(flat, 2)


def _random_letters(rng, n):
    letters = []
    for _ in range(n):
        letters.append(rng.choice([a for a in (1, -1, 2, -2) if not letters or a != -letters[-1]]))
    return letters


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 1500), st.integers(0, 1500), st.integers(0, 40))
@example(seed=0, n=1200, cut=1200, m=0)
@example(seed=1, n=1100, cut=700, m=900)
@example(seed=2, n=0, cut=0, m=5)
def test_product_matches_letter_reduction(seed, n, cut, m):
    # h opens with the inverse of g's last `cut` letters, less any that
    # its tail cancels, so the junction cancels up to min(cut, n) letters
    rng = random.Random(seed)
    g = Word(tuple(_random_letters(rng, n)), 2)
    h = reduce(list(inverse_letters(g.letters)[:cut]) + _random_letters(rng, m), 2)
    assert g * h == reduce(g.letters + h.letters, 2)
    assert (g * ~g).is_identity and (~g * g).is_identity


# -- aperiodicity scanning ---------------------------------------------------


def test_aperiodic_example_sequences():
    # 1213123213 is square-free; 1213132131 has a square but no cube
    ok, _ = is_k_aperiodic("1213123213", 1)
    assert ok
    ok, _ = is_k_aperiodic("1213132131", 2)
    assert ok
    ok, _ = is_k_aperiodic("1213132131", 1)
    assert not ok


def test_square_witness():
    ok, wit = is_k_aperiodic("aa", 1)
    assert not ok
    assert wit.base == ("a",) and wit.exponent == 2 and wit.start == 0


def test_max_power_order_examples():
    order, wit = max_power_order("abab")
    assert order == 2 and wit.base == ("a", "b")
    order, wit = max_power_order("aaa")
    assert order == 3 and wit.base == ("a",)
    order, wit = max_power_order("")
    assert order == 1 and wit is None


def test_scanners_cross_validate_bulk():
    # the fast scanner against the all-pairs oracle on 10^4 random
    # sequences
    rng = random.Random(1234)
    for _ in range(10_000):
        n = rng.randint(0, 12)
        seq = [rng.randint(0, 2) for _ in range(n)]
        fast, _ = max_power_order(seq)
        assert fast == naive_max_power_order(seq)
        for k in (1, 2, 3):
            flag, wit = is_k_aperiodic(seq, k)
            assert flag == (naive_max_power_order(seq) < k + 1)
            if not flag:
                span = wit.base * wit.exponent
                assert tuple(seq[wit.start : wit.start + len(span)]) == span


def test_power_witness_replays():
    rng = random.Random(7)
    for _ in range(200):
        seq = [rng.randint(0, 1) for _ in range(rng.randint(4, 60))]
        order, wit = max_power_order(seq)
        if wit is not None:
            span = wit.base * wit.exponent
            assert tuple(seq[wit.start : wit.start + len(span)]) == span
            assert order == wit.exponent


def test_empty_sequence_is_aperiodic():
    for k in (1, 5, 100):
        assert is_k_aperiodic([], k) == (True, None)


@pytest.mark.parametrize("make", [lambda m: "x" * m, lambda m: [7] * m, lambda m: Word((2,) * m, 2)],
                         ids=["str", "int", "Word"])
def test_k_tokens_are_k_aperiodic_before_any_scan(monkeypatch, make):
    # k tokens, even all equal, hold no (k+1)-th power, so the answer
    # comes without a scan; one equal token more is the period-1 power
    # at start 0
    from ts_groups import words

    scan = words._first_power
    for k in range(1, 13):
        monkeypatch.setattr(words, "_first_power", None)
        assert is_k_aperiodic(make(k), k) == (True, None)
        monkeypatch.setattr(words, "_first_power", scan)
        seq = make(k + 1)
        tokens = seq.letters if isinstance(seq, Word) else seq
        assert naive_max_power_order(tokens) == k + 1
        assert is_k_aperiodic(seq, k) == (False, PowerWitness(0, 1, k + 1, (tokens[0],)))


# -- common prefixes -----------------------------------------------------------


def _common_prefix_by_letters(s, e):
    common = 0
    for a, b in zip(s, e):
        if a != b:
            break
        common += 1
    return common


_NEAR_THRESHOLDS = [n + d for n in (_GALLOP_FIRST, _GALLOP_MIN, 2 * _GALLOP_MIN, 3 * _GALLOP_FIRST)
                    for d in (-1, 0, 1)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.one_of(st.sampled_from(_NEAR_THRESHOLDS), st.integers(0, 1500)),
       st.integers(0, 2 * _GALLOP_MIN), st.integers(0, 2 * _GALLOP_MIN))
@example(seed=0, planted=_GALLOP_MIN, tail_s=0, tail_e=0)
@example(seed=0, planted=_GALLOP_MIN - 1, tail_s=0, tail_e=1)
@example(seed=0, planted=0, tail_s=_GALLOP_MIN, tail_e=_GALLOP_MIN)
def test_common_prefix_matches_the_letter_loop(seed, planted, tail_s, tail_e):
    # a planted shared prefix on either side of the gallop threshold,
    # then two-letter tails that may agree for a while longer; one word
    # may be a prefix of the other
    rng = random.Random(seed)
    prefix = tuple(rng.choice((1, -1, 2, -2)) for _ in range(planted))
    s = prefix + tuple(rng.choice((1, 2)) for _ in range(tail_s))
    e = prefix + tuple(rng.choice((1, 2)) for _ in range(tail_e))
    expected = _common_prefix_by_letters(s, e)
    assert expected >= planted
    assert _common_prefix(s, e) == _common_prefix(e, s) == expected


# -- shifts ------------------------------------------------------------------


def test_shift_right_definition():
    host = parse_word("c d a b e f", 6)
    occ = Occurrence(host, 2, 2)
    assert shift_right(host, occ, 1) == parse_word("b e", 6)
    assert shift_right(host, occ, 2) == parse_word("e f", 6)


def test_shift_right_window_slide():
    host = parse_word("a b a b a b c", 3)
    occ = Occurrence(host, 0, 4)
    assert shift_right(host, occ, 1) == parse_word("b a b a", 3)


def test_shift_right_out_of_range():
    host = parse_word("a b a b a b c", 3)
    occ = Occurrence(host, 0, 4)
    with pytest.raises(MalformedInputError):
        shift_right(host, occ, 4)
    with pytest.raises(MalformedInputError):
        shift_right(host, occ, 0)


@settings(max_examples=100, deadline=None)
@given(letters_strategy, st.data())
def test_shift_preserves_window_length(letters, data):
    host = reduce(letters, 2)
    if len(host) < 2:
        return
    start = data.draw(st.integers(0, len(host) - 1))
    length = data.draw(st.integers(1, len(host) - start))
    occ = Occurrence(host, start, length)
    q = len(host) - occ.end
    if q < 1:
        return
    m = data.draw(st.integers(1, q))
    assert len(shift_right(host, occ, m)) == length


# -- text format -------------------------------------------------------------


def test_parse_format_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        word = reduce([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 30))], 2)
        assert parse_word(format_word(word), 2) == word


def test_parse_compact_and_high_rank():
    assert parse_word("abBA", 2).is_identity
    assert parse_word("g27 G27", 30).is_identity
    assert parse_word("", 2).is_identity
    with pytest.raises(MalformedInputError):
        parse_word("a1b", 2)


def test_high_rank_format():
    word = Word((27, -30), 30)
    assert format_word(word) == "g27 G30"
    assert parse_word(format_word(word), 30) == word


# -- fixed aperiodic words ---------------------------------------------------


def test_first_aperiodic_word_fixed():
    assert format_word(first_aperiodic_word(2, 9)) == "a b a B a b A b a"


@pytest.mark.parametrize("length", [9, 25, 49])
def test_first_aperiodic_word_is_square_free(length):
    word = first_aperiodic_word(2, length)
    assert len(word) == length
    assert max_power_order(word)[0] == 1


def test_first_aperiodic_word_pinned():
    # computed by the suffix-only power check this search used before
    assert format_word(first_aperiodic_word(2, 49, 1)) == (
        "a b a B a b A b a b A B a b a B a b A b a B a b a B "
        "A b a b A b a B a b a B A B a b a B a b A b a"
    )
    assert format_word(first_aperiodic_word(3, 60, 2)) == (
        "a a b a a b a a B a a b a a b a a B a a b a a b a a c "
        "a a b a a b a a B a a b a a b a a B a a b a a b a a c a a b a a b"
    )


def test_first_aperiodic_word_digests_pinned():
    # sha256 of format_word, recorded with the recursive search this
    # iterative one replaced (the 1,050-letter word with its recursion
    # limit raised: it overflowed the default one)
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest("\n".join(format_word(first_aperiodic_word(2, n)) for n in range(60))) == (
        "4ffad656a11e82fe00c6cc9fff467f16ac4dd9062bc3867293757e491bdc172d"
    )
    pinned = {
        (2, 97): "f310d8ca4bed299dc1fb433a61478a68aa34d1fdc8245494e44e6c8f40d1b1e1",
        (2, 300): "40023cf5fa6057c81d8cd42b329a1fa4c229e3f8590c2a7c7528f63473b97a2f",
        (2, 49, 2): "372935079a52323b0895f437d56d11c1506505d80337e5e179df43c116085f24",
        (3, 40, 1): "e476d0fe06280e94eeb1628a405446c2bfba485fbb662204591cc9267369a351",
        (3, 60, 2): "c4b0cdae22d81293a376ae9477f358ef19093192b6e5c16e00ebd1e8d1aae184",
        (2, 1050): "985278e7c3e32749a4cea378783dc1e53d576527ea681b778b31f00c48fec182",
    }
    for args, expected in pinned.items():
        word = first_aperiodic_word(*args)
        assert len(word) == args[1]
        assert digest(format_word(word)) == expected, args


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=60), st.integers(1, 3))
def test_power_ends_last_matches_scan(tokens, k):
    # on a k-aperiodic prefix, a power ending at the new token is the
    # only way the whole sequence can fail
    while not is_k_aperiodic(tokens[:-1], k)[0]:
        tokens = tokens[:-1]
    assert _power_ends_last(tokens, k) == (not is_k_aperiodic(tokens, k)[0])


@pytest.mark.parametrize("rank, length, k", [(1, 2, 1), (1, 3, 2), (1, 5, 3)])
def test_first_aperiodic_word_rejects_infeasible(rank, length, k):
    # a rank-1 reduced word is a power of one letter
    with pytest.raises(MalformedInputError):
        first_aperiodic_word(rank, length, k)


def test_first_aperiodic_word_rejects_order_zero():
    for length in (0, 5):
        with pytest.raises(MalformedInputError):
            first_aperiodic_word(2, length, 0)


# -- the power scan against the literal per-period reference ------------------


def reference_witness(tokens, order, start, period):
    if order < 2:
        return None
    return PowerWitness(start, period, order, tuple(tokens[start : start + period]))


def assert_max_order_matches_reference(tokens):
    order, start, period = period_scan_reference(tokens)
    assert max_power_order(tokens) == (
        order, reference_witness(tokens, order, start, period)
    )


def assert_aperiodicity_matches_reference(tokens, ks):
    n = len(tokens)
    for k in ks:
        if n < k + 1:
            assert is_k_aperiodic(tokens, k) == (True, None)
            continue
        order, start, period = period_scan_reference(
            tokens, max_period=n // (k + 1), stop_at_order=k + 1
        )
        flag = order < k + 1
        expected = None if flag else reference_witness(tokens, order, start, period)
        assert is_k_aperiodic(tokens, k) == (flag, expected)


@st.composite
def planted_sequences(draw):
    """Up to 600 tokens over 1-4 symbols with up to three planted powers
    of period 1-60 and exponent 2-30 (cut off at the length bound)."""
    token = st.integers(0, draw(st.integers(0, 3)))
    seq = draw(st.lists(token, max_size=600))
    for _ in range(draw(st.integers(0, 3))):
        base = draw(st.lists(token, min_size=1, max_size=60))
        at = draw(st.integers(0, len(seq)))
        seq[at:at] = base * draw(st.integers(2, 30))
    return seq[:600]


@settings(max_examples=300, deadline=None)
@given(planted_sequences())
def test_power_scan_matches_reference(tokens):
    assert_max_order_matches_reference(tokens)
    assert_aperiodicity_matches_reference(tokens, (1, 2, 3, 4, 10))


@pytest.fixture(scope="module")
def desk_product():
    """A desk-scale alternating product xi^(+-1) x_1 ... xi^(+-1) x_40."""
    from ts_groups.testers import XiParams, construct_xi

    xi = construct_xi(0, XiParams.desk()).word
    rng = random.Random(11)
    parts = []
    for _ in range(40):
        parts.append(xi if rng.random() < 0.5 else ~xi)
        parts.append(reduce([rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 24))], 2))
    product = parts[0]
    for part in parts[1:]:
        product = product * part
    return product.letters


def test_power_scan_matches_reference_on_long_product(desk_product):
    # the full-scale and the desk-scale bounds of the product check
    assert is_k_aperiodic(desk_product, 499)[0] and is_k_aperiodic(desk_product, 49)[0]
    assert_aperiodicity_matches_reference(desk_product, (49, 499))


def test_power_scan_matches_reference_on_planted_500th_power(desk_product):
    half = len(desk_product) // 2
    tokens = desk_product[:half] + (1, 2, -1) * 500 + desk_product[half:]
    flag, wit = is_k_aperiodic(tokens, 499)
    assert not flag and wit.exponent >= 500
    span = wit.base * wit.exponent
    assert tokens[wit.start : wit.start + len(span)] == span
    assert_aperiodicity_matches_reference(tokens, (499,))


def test_power_scans_match_reference_on_every_short_sequence():
    # tree paths are at most 25 letters, so short input is where the
    # scans run hottest: every sequence over 3 symbols of length 0-8
    for n in range(9):
        for tokens in itertools.product((0, 1, 2), repeat=n):
            assert_max_order_matches_reference(tokens)
            assert_aperiodicity_matches_reference(tokens, (1, 2, 3))


@given(
    st.lists(st.sampled_from((1, -1, 2, -2)), max_size=12),
    st.lists(st.sampled_from((1, -1, 2, -2)), min_size=1, max_size=6),
    st.integers(0, 8),
    st.integers(1, 4),
)
def test_power_scans_read_a_word_as_its_letters(prefix, base, copies, k):
    word = reduce(prefix + base * copies, 2)
    assert is_k_aperiodic(word, k) == is_k_aperiodic(word.letters, k)
    assert max_power_order(word) == max_power_order(word.letters)


def test_power_scan_matches_reference_on_square_free_input():
    assert_aperiodicity_matches_reference(squarefree_ternary(5000), (1,))


def test_brute_force_power_scan_mid_size():
    rng = random.Random(123)
    seq = [rng.randint(0, 1) for _ in range(300)]
    fast, wit = max_power_order(seq)
    assert fast == naive_max_power_order(seq)


# -- long input, with powers planted around a period reach ---------------------

# A bit-parallel pre-filter once ruled out periods up to a reach of
# min(NEED_CAP, n // MIN_PROBES) // (order - 1) before the probe loop; the
# long-input tests still plant powers on both sides of that reach.
NEED_CAP = 256
MIN_PROBES = 32


def bit_reach(n, order):
    """The last period of that reach at this length and order."""
    return min(NEED_CAP, n // MIN_PROBES) // (order - 1)


def max_power_reference(tokens):
    """`words._max_power`'s search over the probe loop alone."""
    best = 1, 0, 0
    while (found := first_power_reference(tokens, best[0] + 1, best[2] + 1)) is not None:
        best = found
    return best


def assert_first_power_matches_reference(tokens, order, first):
    expected = first_power_reference(tokens, order, first)
    assert _first_power(tokens, order, first) == expected


TOKEN_KINDS = {
    "int": lambda x: x,
    "negative": lambda x: -x - 1,
    "str": lambda x: f"t{x}",
    "tuple": lambda x: (x, "t"),
    "word": lambda x: Word((1,) * (x + 1), 1),
    "unhashable": lambda x: [x],
}


@st.composite
def long_planted_sequences(draw):
    """256-4,000 tokens, square-free or random over 2-6 symbols, with up
    to three powers of order 2-6 whose period lies around `bit_reach`,
    read as one token kind; "many" appends 250-258 fresh tokens,
    for 252-264 distinct ones."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(256, 4000))
    if draw(st.booleans()):
        seq = [ord(c) - ord("A") for c in squarefree_ternary(n)]
    else:
        symbols = draw(st.integers(2, 6))
        seq = [rng.randrange(symbols) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        order = draw(st.integers(2, 6))
        period = max(1, bit_reach(n, order) + draw(st.integers(-2, 2)))
        base = [rng.randrange(3) for _ in range(period)]
        at = draw(st.integers(0, len(seq)))
        seq[at:at] = base * (order - draw(st.integers(0, 1))) + base[: rng.randrange(period)]
    kind = draw(st.sampled_from(sorted(TOKEN_KINDS) + ["many"]))
    if kind == "many":
        return seq[:n] + list(range(-1, -1 - draw(st.integers(250, 258)), -1)), kind
    return [TOKEN_KINDS[kind](x) for x in seq[:n]], kind


@settings(max_examples=120, deadline=None)
@given(long_planted_sequences())
def test_long_power_scans_match_reference(case):
    tokens, _ = case
    for order in range(2, 7):
        for first in (1, 2, 3):
            assert_first_power_matches_reference(tokens, order, first)
    for k in range(1, 6):
        found = first_power_reference(tokens, k + 1)
        expected = (True, None) if found is None else (False, reference_witness(tokens, *found))
        assert is_k_aperiodic(tokens, k) == expected
    order, start, period = max_power_reference(tokens)
    assert max_power_order(tokens) == (order, reference_witness(tokens, order, start, period))


@pytest.mark.parametrize("order, period", [(2, 255), (2, 256), (2, 257), (3, 128), (3, 129)])
def test_power_scan_at_the_need_cap(order, period):
    # past 8,192 tokens the need cap, not the probe count, ends the
    # reach.  The plant's letters are apart from the background's, and
    # one marker a period keeps its shorter periods square-free.
    tokens = [ord(c) for c in squarefree_ternary(9000)]
    base = [ord(c) + 32 for c in squarefree_ternary(period - 1)] + [0]
    tokens[4000:4000] = base * order
    assert bit_reach(len(tokens), order) == NEED_CAP // (order - 1)
    for first in (1, 2, 3):
        assert_first_power_matches_reference(tokens, order, first)
    assert first_power_reference(tokens, order)[2] == period


@pytest.mark.parametrize("n", [60, 3000])
@pytest.mark.parametrize("order, period", [(2, 1), (2, 5), (3, 4), (4, 7)])
def test_power_scan_on_runs_of_need_and_one_short(n, order, period):
    # a run of need - 1 matches hosts no power of the order and a run of
    # need does; the run slides over the probes, and to both ends.  The
    # plant's letters are apart from the square-free background's, and
    # one marker a period keeps its shorter periods square-free.
    need = period * (order - 1)
    back = [ord(c) for c in squarefree_ternary(n)]
    base = [ord(c) + 32 for c in squarefree_ternary(period)][: period - 1] + [0]
    for run, expected in ((need - 1, None), (need, period)):
        plant = (base * order)[: run + period]
        for at in sorted({*range(need + 2), n // 2, n - need, n}):
            tokens = back[:at] + plant + back[at:]
            found = first_power_reference(tokens, order)
            assert (found and found[2]) == expected
            for first in (1, period):
                assert _first_power(tokens, order, first) == first_power_reference(
                    tokens, order, first)


@pytest.fixture(scope="module")
def marker_words():
    from ts_groups.testers import construct_xi

    return [construct_xi(seed).word.letters for seed in (101, 102, 103)]


def test_marker_words_stay_3_aperiodic(marker_words):
    for letters in marker_words:
        assert first_power_reference(letters, 4) is None
        assert is_k_aperiodic(letters, 3) == (True, None)


def test_marker_word_with_a_planted_fourth_power(marker_words):
    letters = marker_words[0]
    at = len(letters) // 2
    tokens = letters[:at] + letters[at : at + 40] * 4 + letters[at + 40 :]
    found = first_power_reference(tokens, 4)
    assert found[0] >= 4 and found[2] <= 40
    assert is_k_aperiodic(tokens, 3) == (False, reference_witness(tokens, *found))
    assert_first_power_matches_reference(tokens, 4, 1)
