"""Interned tree construction and the three structural transforms."""

import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import as_tuple, games_st, oracle_key, scores_st
from scoreplay import (FinalScores, Operator, eval_sum, final_scores,
                       format_game, is_leaf, left_options, make_game,
                       max_score_magnitude, negate, number, parse_game,
                       reverse, right_options, score, shift, store_size,
                       structural_sort_key, sum_games)
from scoreplay.game import _index, _nodes, _split


def test_number_is_leaf():
    g = number(3)
    assert is_leaf(g)
    assert score(g) == 3
    assert left_options(g) == () and right_options(g) == ()
    assert format_game(g) == "3"


def test_rational_scores_stay_exact():
    g = number(Fraction(1, 2))
    assert score(g) == Fraction(1, 2)
    h = parse_game("1/3")
    for _ in range(3):
        h = shift(h, Fraction(1, 3))
    assert score(h) == Fraction(4, 3)
    assert score(shift(h, Fraction(2, 3))) == 2


def test_interning_same_structure_same_id():
    a = make_game([number(1), number(2)], 0, [number(3)])
    b = make_game([number(2), number(1)], 0, [number(3)])
    assert a == b


def test_interning_dedupes_options():
    a = make_game([number(0), number(0)], 1, [])
    b = make_game([number(0)], 1, [])
    assert a == b


def test_make_game_rejects_unknown_ids():
    with pytest.raises(ValueError):
        make_game([10 ** 12], 0, [])


@pytest.mark.parametrize("bad", [-1, 10 ** 12, True, "0"])
def test_unknown_ids_rejected_at_the_public_api(bad):
    with pytest.raises(ValueError, match="unknown game id"):
        make_game([number(0)], 0, [number(1), bad])
    with pytest.raises(ValueError, match="unknown game id"):
        shift(bad, 1)
    with pytest.raises(ValueError, match="unknown game id"):
        shift(bad, 0)
    with pytest.raises(ValueError, match="unknown game id"):
        final_scores(bad)


def test_make_game_rejects_floats():
    # floats and bools, through each public function that takes a score
    for bad in (0.5, 2.0, True, False, None):
        with pytest.raises(TypeError):
            make_game([], bad, [])
        with pytest.raises(TypeError):
            number(bad)
        with pytest.raises(TypeError):
            shift(number(1), bad)


def test_store_size_grows_only_for_new_nodes():
    before = store_size()
    g = make_game([number(0)], Fraction(71, 13), [])
    mid = store_size()
    assert mid > before
    h = make_game([number(0)], Fraction(71, 13), [])
    assert h == g
    assert store_size() == mid


def test_negate_pinned():
    assert negate(number(3)) == number(-3)
    assert negate(parse_game("{4|3|2}")) == parse_game("{-2|-3|-4}")
    i = parse_game("{{0|0|0}|0|{0|0|0}}")
    assert negate(i) == i


def test_reverse_pinned():
    assert reverse(number(5)) == number(-5)
    assert reverse(parse_game("{4|3|2}")) == parse_game("{-4|-3|-2}")
    i = parse_game("{{0|0|0}|0|{0|0|0}}")
    assert reverse(i) == i


def test_shift_pinned():
    assert shift(number(1), 2) == number(3)
    assert shift(parse_game("{4|3|2}"), -3) == parse_game("{1|0|-1}")


def test_max_score_magnitude():
    assert max_score_magnitude(number(-5)) == 5
    assert max_score_magnitude(parse_game("{4|3|2}")) == 4
    assert max_score_magnitude(parse_game("{1|0|{0|2|-7}}")) == 7


@given(games_st())
def test_negate_is_involution(g):
    assert negate(negate(g)) == g


@given(games_st())
def test_reverse_is_involution(g):
    assert reverse(reverse(g)) == g


@given(games_st(max_leaves=6), scores_st, scores_st)
def test_shift_composes_additively(g, a, b):
    assert shift(shift(g, a), b) == shift(g, a + b)
    assert shift(g, 0) == g


@given(games_st(max_leaves=6), scores_st)
def test_negate_shift_commutation(g, c):
    assert negate(shift(g, c)) == shift(negate(g), -c)


@given(games_st(max_leaves=6), scores_st)
def test_shift_moves_final_scores(g, c):
    fs = final_scores(g)
    shifted = final_scores(shift(g, c))
    assert shifted.sl == fs.sl + c and shifted.sr == fs.sr + c


@given(st.lists(games_st(max_leaves=4), min_size=1, max_size=4), scores_st)
def test_option_order_is_immaterial(options, s):
    forward = make_game(options, s, [])
    backward = make_game(list(reversed(options)), s, [])
    assert forward == backward


@given(st.lists(games_st(max_leaves=4), min_size=2, max_size=5))
def test_structural_sort_key_total_order(games):
    keys = [structural_sort_key(g) for g in games]
    ranked = sorted(zip(keys, games))
    for (ka, ga), (kb, gb) in zip(ranked, ranked[1:]):
        if ka == kb:
            assert ga == gb


def _assert_options_in_oracle_order(t):
    left, _, right = t
    for side in (left, right):
        keys = [oracle_key(x) for x in side]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for x in side:
            _assert_options_in_oracle_order(x)


@given(games_st())
def test_stored_options_follow_structural_order(g):
    _assert_options_in_oracle_order(as_tuple(g))


def test_stored_order_is_structural_not_interning_order():
    hi = number(Fraction(9001, 13))
    lo = number(Fraction(9000, 13))
    assert hi < lo
    g = make_game([hi, lo], 0, [])
    assert left_options(g) == (lo, hi)
    assert format_game(g) == "{9000/13,9001/13|0|.}"


# -- canonical stored form of scores ------------------------------------------

def _raw_score(g):
    return _split(g)[1]


def _stored_values(g):
    """The stored score of `g` and every delta stored in the shapes below it."""
    yield _raw_score(g)
    seen, stack = set(), [_split(g)[0]]
    while stack:
        left, right = _nodes[stack.pop()]
        for i, v in enumerate(left + right):
            if i % 2 == 0:
                yield v
            elif v not in seen:
                seen.add(v)
                stack.append(v)


def _assert_canonical(g):
    """Every stored score and delta below `g` is an int iff it is integral."""
    for v in _stored_values(g):
        assert type(v) is (int if v.denominator == 1 else Fraction)


def test_integral_scores_are_stored_as_ints_and_intern_once():
    twos = [number(2), number(Fraction(2)), number("4/2"), parse_game("2"),
            parse_game("4/2"), shift(number("1/2"), "3/2")]
    ones = [shift(number("1/2"), "1/2"), number(1)] + [
        sum_games(op, [number("1/2"), number("1/2")])
        for op in (Operator.DISJUNCTIVE, Operator.CONJUNCTIVE, Operator.SELECTIVE)]
    inner = [make_game([number(0)], s, []) for s in (3, Fraction(6, 2), "9/3")]
    for same in (twos, ones, inner):
        assert len(set(same)) == 1
        assert type(_raw_score(same[0])) is int
        _assert_canonical(same[0])
    size = store_size()
    assert number(Fraction(2)) == twos[0] and number("2/2") == ones[0]
    assert make_game([number(0)], Fraction(3), []) == inner[0]
    assert store_size() == size


def test_fractional_scores_stay_fractions_in_the_store():
    g = number("1/2")
    assert type(_raw_score(g)) is Fraction
    assert type(_raw_score(shift(g, 1))) is Fraction
    assert type(_raw_score(shift(g, "1/2"))) is int
    # deltas: 3/2 - 1/2 is stored as the int 1, 3/2 - 2/3 as a Fraction
    h = make_game([number("1/2"), number("2/3")], "3/2", [parse_game("{5/2|3|.}")])
    assert sorted(_stored_values(h)) == [
        -1, Fraction(-5, 6), Fraction(-1, 2), Fraction(3, 2), Fraction(3, 2)]
    for x in (g, h, negate(h), reverse(h), shift(h, "1/2")) + tuple(
            sum_games(op, [h, h, g]) for op in Operator):
        _assert_canonical(x)


@given(games_st())
def test_stored_scores_and_deltas_are_canonical(g):
    for x in (g, negate(g), reverse(g), shift(g, "1/3"), shift(g, "2/3")):
        _assert_canonical(x)


def test_public_api_returns_fractions():
    g = parse_game("{{.|-2|3}|1|{4|1/2|.}}")
    assert type(score(g)) is Fraction and type(score(number(3))) is Fraction
    assert type(max_score_magnitude(g)) is Fraction
    assert all(type(v) is Fraction for v in final_scores(g))
    for op in Operator:
        assert all(type(v) is Fraction for v in eval_sum(op, [g, number(1)]))
        assert all(type(v) is Fraction for v in final_scores(sum_games(op, [g, g])))
    assert final_scores(number(3)) == FinalScores(Fraction(3), Fraction(3))


def _line(depth, leaf):
    """A one-option line of `depth` Left moves ending at the leaf `leaf`."""
    g = number(leaf)
    for _ in range(depth):
        g = make_game([g], 0, [])
    return g


def test_compare_has_no_depth_limit():
    a, b = _line(10 ** 4, 1), _line(10 ** 4, 2)
    assert structural_sort_key(a) < structural_sort_key(b)
    assert left_options(make_game([b, a], 0, [])) == (a, b)


def test_concurrent_interning_gives_each_tree_one_id():
    # each round, 4 threads behind a barrier build the same fresh trees and
    # their shifts: every thread must get the same ids, and the store must
    # hold one entry per key, so no tree was stored twice
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(5):
            base = Fraction(10 ** 6 + round_, 7919)
            start = threading.Barrier(4)
            seen: list = [None] * 4

            def build(t):
                start.wait()
                got = []
                for k in range(100):
                    g = make_game([number(base + k)], base, [number(base - k), number(k)])
                    got += [g, shift(g, Fraction(1, 3)), negate(g)]
                seen[t] = got

            threads = [threading.Thread(target=build, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
            assert all(got == seen[0] for got in seen)
            assert len(_index) == len(_nodes)
    finally:
        sys.setswitchinterval(old_interval)
