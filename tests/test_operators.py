"""The four sum operators: materialized trees and the direct evaluator."""

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import (as_tuple, games_st, naive_strict_conjunctive_scores,
                      naive_successors, naive_sum_scores, scores_st,
                      small_games_st)
from scoreplay import (FinalScores, Operator, eval_sum, final_scores,
                       identity_game, left_options, make_game, number, octal, outcome,
                       parse_game, parse_octal, right_options, score, shift, sum_games)
from scoreplay.game import _split
from scoreplay.operators import _TREE_MOVES, _successors
from test_game_core import _assert_canonical

OPS = tuple(Operator)
COMMUTATIVE = (Operator.DISJUNCTIVE, Operator.CONJUNCTIVE, Operator.SELECTIVE)


def paired_towers():
    """Two fixed trees whose composition scores are forced lines."""
    g = parse_game("{{.|-2|{.|3|{1|0|-4}}}|5|.}")
    h = parse_game("{.|2|{{{6|4|.}|-1|.}|7|.}}")
    return g, h


def test_operator_parse():
    assert Operator.parse("disjunctive") is Operator.DISJUNCTIVE
    assert Operator.parse("disj") is Operator.DISJUNCTIVE
    assert Operator.parse("CONJ") is Operator.CONJUNCTIVE
    assert Operator.parse("sel") is Operator.SELECTIVE
    assert Operator.parse("seq") is Operator.SEQUENTIAL
    for bad in ("se", "x", "", "sequentially-ish"):
        with pytest.raises(ValueError):
            Operator.parse(bad)


def test_empty_sum_rejected():
    for op in OPS:
        with pytest.raises(ValueError):
            sum_games(op, [])
        with pytest.raises(ValueError):
            eval_sum(op, [])


@pytest.mark.parametrize("bad", [-1, 10 ** 12, True, "0"])
def test_unknown_game_id_rejected(bad):
    g = number(1)
    for op in OPS:
        for comps in ([bad], [g, bad]):
            with pytest.raises(ValueError, match="unknown game id"):
                sum_games(op, comps)
            with pytest.raises(ValueError, match="unknown game id"):
                eval_sum(op, comps)


@given(st.sampled_from(OPS), small_games_st)
@settings(max_examples=100, deadline=None)
def test_sum_of_one_game_is_that_game(op, g):
    assert sum_games(op, [g]) == g
    assert eval_sum(op, [g]) == final_scores(g)


@given(st.sampled_from(OPS), small_games_st, scores_st)
@settings(max_examples=100, deadline=None)
def test_leaves_shift_the_sum(op, g, c):
    # the second sum holds the same game beside other leaves, so a memo
    # that ignored the leaves would answer it from the first
    fs = final_scores(g)
    for leaves in ([c], [c, c]):
        total = sum(leaves, Fraction(0))
        comps = [g] + [number(x) for x in leaves]
        assert sum_games(op, comps) == shift(g, total)
        assert eval_sum(op, comps) == FinalScores(fs.sl + total, fs.sr + total)


def test_disjunctive_leaves():
    assert eval_sum(Operator.DISJUNCTIVE, [number(2), number(-2)]) == (0, 0)


def test_conjunctive_paired_towers():
    g, h = paired_towers()
    fs = eval_sum(Operator.CONJUNCTIVE, [g, h])
    assert fs.sl == 5 and fs.sr == 7
    assert final_scores(sum_games(Operator.CONJUNCTIVE, [g, h])) == fs


def test_conjunctive_literal_reading_differs():
    # the strict all-components reading lives only in the test oracle
    g, h = paired_towers()
    strict = naive_strict_conjunctive_scores([as_tuple(g), as_tuple(h)])
    assert strict != (5, 7)
    assert eval_sum(Operator.CONJUNCTIVE, [g, h]) == (5, 7)


def test_selective_chain_pair():
    g = parse_game("{{2|-3|.}|1|.}")
    h = parse_game("{.|0|{.|-5|{.|4|-6}}}")
    fs = eval_sum(Operator.SELECTIVE, [g, h])
    assert fs.sl == 2 + 4 and fs.sr == 2 + (-6)
    assert final_scores(sum_games(Operator.SELECTIVE, [g, h])) == fs


def test_sequential_of_leaves_is_shift():
    assert sum_games(Operator.SEQUENTIAL, [number(1), number(1)]) == number(2)


def test_sequential_head_then_tail():
    g = parse_game("{{2|-3|.}|1|.}")
    h = parse_game("{6|0|-7}")
    fs = eval_sum(Operator.SEQUENTIAL, [g, h])
    assert fs.sl == -3 + 0 and fs.sr == 1 + 0


def test_sequential_one_sided_head_locks_tail():
    # Right has no move in the head, so Right is stuck immediately even
    # though the tail would let them play
    g = parse_game("{0|1|.}")
    h = parse_game("{5|0|-5}")
    fs = eval_sum(Operator.SEQUENTIAL, [g, h])
    assert fs.sr == 1 + 0


def test_root_score_is_additive():
    comps = [parse_game("{1|2|3}"), number(Fraction(1, 2)), parse_game("{0|-1|0}")]
    for op in OPS:
        assert score(sum_games(op, comps)) == Fraction(3, 2)


@given(st.sampled_from(OPS),
       st.lists(small_games_st, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_materialized_tree_matches_brute_force_oracle(op, comps):
    fs = final_scores(sum_games(op, comps))
    assert (fs.sl, fs.sr) == naive_sum_scores(op, [as_tuple(g) for g in comps])


@given(st.sampled_from(OPS),
       st.lists(small_games_st, min_size=1, max_size=2))
@settings(max_examples=60, deadline=None)
def test_matches_brute_force_oracle(op, comps):
    expected = naive_sum_scores(op, [as_tuple(g) for g in comps])
    fs = eval_sum(op, comps)
    assert (fs.sl, fs.sr) == expected


@given(st.sampled_from(OPS), small_games_st, small_games_st,
       st.sampled_from(("gg", "ggh", "ghg")))
@settings(max_examples=100, deadline=None)
def test_repeated_components_match_brute_force_oracle(op, g, h, shape):
    # equal components take the grouped path of the move generator
    comps = [{"g": g, "h": h}[c] for c in shape]
    expected = naive_sum_scores(op, [as_tuple(x) for x in comps])
    fs = eval_sum(op, comps)
    assert (fs.sl, fs.sr) == expected
    assert final_scores(sum_games(op, comps)) == fs


def _offset_games_st(offset: Fraction):
    """Small trees whose every score is an integer plus `offset`."""
    return games_st(max_leaves=5, max_options=2,
                    scores=st.integers(-4, 4).map(lambda k: k + offset))


@st.composite
def _integral_sum_pairs(draw):
    """Two trees in halves or thirds whose node scores add up to integers."""
    d = draw(st.sampled_from((2, 3)))
    r = draw(st.integers(1, d - 1))
    return draw(_offset_games_st(Fraction(r, d))), draw(_offset_games_st(Fraction(d - r, d)))


def _scores_below(g):
    """The absolute score of every node of `g`, read through the public API."""
    seen, stack = {g}, [g]
    while stack:
        x = stack.pop()
        yield score(x)
        for o in left_options(x) + right_options(x):
            if o not in seen:
                seen.add(o)
                stack.append(o)


@given(_integral_sum_pairs())
@settings(max_examples=60, deadline=None)
def test_fractional_components_with_integral_sums_match_oracle(pair):
    g, h = pair
    assert all(s.denominator != 1 for s in _scores_below(g))
    for op in OPS:
        expected = naive_sum_scores(op, [as_tuple(g), as_tuple(h)])
        fs = eval_sum(op, [g, h])
        assert (fs.sl, fs.sr) == expected
        assert type(fs.sl) is Fraction and type(fs.sr) is Fraction
        composite = sum_games(op, [g, h])
        assert final_scores(composite) == fs
        # every composite node adds one node of g to one of h: an integer
        assert all(s.denominator == 1 for s in _scores_below(composite))
        _assert_canonical(composite)


@given(st.sampled_from(COMMUTATIVE),
       st.lists(small_games_st, min_size=2, max_size=3))
@settings(max_examples=60, deadline=None)
def test_commutative_ops_ignore_order(op, comps):
    baseline = sum_games(op, comps)
    for perm in permutations(comps):
        assert sum_games(op, list(perm)) == baseline


@given(st.sampled_from(COMMUTATIVE), small_games_st, small_games_st,
       small_games_st)
@settings(max_examples=60, deadline=None)
def test_pairwise_fold_consistent_with_multiset(op, g, h, k):
    folded = sum_games(op, [sum_games(op, [g, h]), k])
    assert final_scores(folded) == eval_sum(op, [g, h, k])


@given(small_games_st)
@settings(max_examples=100, deadline=None)
def test_sequential_identity_game(g):
    i = identity_game()
    fs = final_scores(g)
    assert eval_sum(Operator.SEQUENTIAL, [g, i]) == fs
    assert eval_sum(Operator.SEQUENTIAL, [i, g]) == fs


def test_sequential_is_ordered_not_commutative():
    g = parse_game("{0|1|.}")
    h = parse_game("{.|-2|0}")
    one = eval_sum(Operator.SEQUENTIAL, [g, h])
    two = eval_sum(Operator.SEQUENTIAL, [h, g])
    assert one == (0, -1)
    assert two == (-1, 0)


# -- the successor generator against a naive enumeration ----------------------

def assert_successors_match_naive(op, state, moves):
    pairs = _successors(op, state, moves, {})
    folded = {}
    for succ, pts in pairs:
        assert succ != state
        if succ not in folded or pts > folded[succ]:
            folded[succ] = pts
    assert folded == naive_successors(op, state, moves)


R007, R33_RATIONAL = parse_octal("0.007:0,0,1"), parse_octal("0.33:1/3,1/2")
#: dead heaps of both rulesets: beside them, every position is valued in
#: the one (R007, R33_RATIONAL) table
BOTH = ((R007, 0), (R33_RATIONAL, 0))
HEAPS = [(R007, n) for n in (3, 4, 6, 7)] + [(R33_RATIONAL, n) for n in (1, 2, 4)]


def heap_states(op):
    """Canonical states of 1-3 heaps of `0.007:0,0,1` and `0.33:1/3,1/2`,
    runs of 2-3 equal heaps included; sequential states in every order."""
    if op is Operator.SEQUENTIAL:
        # R007 splits, so it has no sequential position to prepare: order
        # each heap's own component instead
        comps = [octal._prepare(Operator.DISJUNCTIVE, (heap,) + BOTH)[0] for heap in HEAPS]
        states = {sum(combo, ()) for k in (1, 2, 3) for combo in product(comps, repeat=k)}
    else:
        states = {octal._prepare(op, combo + BOTH)[0]
                  for k in (1, 2, 3) for combo in product(HEAPS, repeat=k)}
    return sorted(states)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.value)
def test_successors_match_naive_on_heap_states(op):
    _, (moves, scale, _) = octal._prepare(Operator.DISJUNCTIVE, BOTH)
    assert (R007, R33_RATIONAL) in octal._gs_tables and scale == 6
    states = heap_states(op)
    assert any(len(set(s)) < len(s) for s in states)
    for state in states:
        assert_successors_match_naive(op, state, moves)


TREE_STATES = [
    # the first component has no left option: it sits out Left's turn
    ("{.|2|{1|0|.}}", "{3|1|-1}"),
    ("{.|2|{1|0|.}}", "{3|1|-1}", "{3|1|-1}"),
    ("{{2|-3|.}|1|.}", "{{2|-3|.}|1|.}", "{{2|-3|.}|1|.}", "{.|0|{.|-5|{.|4|-6}}}"),
]


@pytest.mark.parametrize("texts", TREE_STATES)
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.value)
def test_successors_match_naive_on_fixed_tree_states(op, texts):
    # a tree state holds the components' shapes
    comps = [_split(parse_game(t))[0] for t in texts]
    state = tuple(comps) if op is Operator.SEQUENTIAL else tuple(sorted(comps))
    for side in "LR":
        assert_successors_match_naive(op, state, _TREE_MOVES[side])


@given(st.sampled_from(OPS), st.lists(small_games_st, min_size=1, max_size=3),
       st.lists(st.integers(0, 2), max_size=3))
@settings(max_examples=150, deadline=None)
def test_successors_match_naive_on_tree_states(op, comps, copies):
    # repeat some components so that runs of 2-3 equal ones occur
    comps = [_split(g)[0] for g in comps + [comps[i % len(comps)] for i in copies]]
    state = tuple(comps) if op is Operator.SEQUENTIAL else tuple(sorted(comps))
    for side in "LR":
        assert_successors_match_naive(op, state, _TREE_MOVES[side])
