"""Impartial-game tooling: generators, inverses, identity and witness search."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import games_st, scores_st
from scoreplay import (ImpartialParams, Operator, conjunctive_inverse,
                       distinguishing_context, eval_sum, final_scores,
                       identity_game, identity_test, inverse_search,
                       is_impartial, make_game, negate, nonzero_witness, number, outcome,
                       outcome_of_scores, parse_game, random_game,
                       random_impartial, reverse, score, shift, sum_games, Outcome)


def test_is_impartial_pinned():
    assert is_impartial(parse_game("{4|3|2}"))
    assert is_impartial(identity_game())
    assert not is_impartial(parse_game("{1|0|1}"))
    assert is_impartial(number(7))


def test_identity_game_shape():
    assert identity_game() == parse_game("{{0|0|0}|0|{0|0|0}}")


@pytest.mark.parametrize("seed", range(40))
def test_random_impartial_is_impartial(seed):
    g = random_impartial(ImpartialParams(seed=seed))
    assert is_impartial(g)
    fs = final_scores(g)
    assert fs.sl + fs.sr == 2 * score(g)


@given(games_st(), scores_st)
def test_mirror_is_one_shift_of_the_negation(g, s):
    # the option the impartial streams pair with g under a node scoring s,
    # against the three-pass form as the oracle
    mirror = shift(negate(g), 2 * s)
    assert mirror == shift(negate(shift(g, -s)), s)
    assert shift(negate(mirror), 2 * s) == g
    # a node with g and its mirror on its two sides is impartial iff g is
    assert is_impartial(make_game([g], s, [mirror])) == is_impartial(g)


@pytest.mark.parametrize("field", ["max_depth", "max_branch"])
@pytest.mark.parametrize("value", [2.5, True, False, "3", Fraction(3)])
def test_params_depth_and_branch_take_ints_only(field, value):
    with pytest.raises(TypeError):
        ImpartialParams(**{field: value})


def test_random_impartial_leaf_probability_one():
    g = random_impartial(ImpartialParams(leaf_probability=1.0, seed=3))
    assert is_impartial(g)
    assert final_scores(g).sl == score(g)


def test_random_impartial_single_branch_shape():
    params = ImpartialParams(max_depth=1, max_branch=1, palette=(1,), seed=5)
    g = random_impartial(params)
    # with palette {1} every option sits one point from the root score
    s = score(g)
    fs = final_scores(g)
    assert is_impartial(g)
    if not fs.sl == s:  # non-leaf draw
        assert fs.sl == s + 1 and fs.sr == s - 1


def test_conjunctive_inverse_leaf():
    assert conjunctive_inverse(number(3)) == number(-3)


def test_conjunctive_inverse_chain():
    g = parse_game("{4|3|2}")
    inv = conjunctive_inverse(g)
    assert inv == parse_game("{-4|-3|-2}")
    pair = sum_games(Operator.CONJUNCTIVE, [g, inv])
    assert eval_sum(Operator.CONJUNCTIVE, [g, inv]) == (0, 0)
    assert outcome(pair) is Outcome.TIE
    # plain negation is not an inverse here
    wrong = eval_sum(Operator.CONJUNCTIVE, [g, parse_game("{-2|-3|-4}")])
    assert wrong.sl == 2


def test_conjunctive_inverse_deeper_chain():
    g = parse_game("{{2|1|0}|0|{0|-1|-2}}")
    inv = conjunctive_inverse(g)
    assert inv == reverse(g)
    assert outcome(sum_games(Operator.CONJUNCTIVE, [g, inv])) is Outcome.TIE


def test_conjunctive_inverse_rejects_partizan():
    with pytest.raises(ValueError):
        conjunctive_inverse(parse_game("{1|0|1}"))


def test_conjunctive_inverse_rejects_branching():
    # impartial, but with two options per side: score reversal hands the
    # reversed player the worst option instead of the best, so it is not
    # an inverse and the function refuses
    g = parse_game("{1,{2|1|0}|0|{0|-1|-2},-1}")
    assert is_impartial(g)
    with pytest.raises(ValueError):
        conjunctive_inverse(g)


@pytest.mark.parametrize("seed", range(25))
def test_reversal_ties_on_forced_lines(seed):
    params = ImpartialParams(max_depth=4, max_branch=1, seed=seed)
    g = random_impartial(params)
    pair = eval_sum(Operator.CONJUNCTIVE, [g, conjunctive_inverse(g)])
    assert outcome_of_scores(pair) is Outcome.TIE


def test_identity_test_identity_candidate():
    i = identity_game()
    for op in (Operator.SELECTIVE, Operator.CONJUNCTIVE):
        report = identity_test(i, op, samples=200)
        assert report.all_passed, report.first_counterexample
    report = identity_test(i, Operator.SEQUENTIAL, samples=200)
    assert report.all_passed


@pytest.mark.parametrize("samples", [0, -1])
def test_identity_test_needs_a_sample(samples):
    # no sample would pass vacuously
    with pytest.raises(ValueError):
        identity_test(identity_game(), Operator.CONJUNCTIVE, samples=samples)


def test_identity_test_rejects_nonidentity():
    report = identity_test(number(1), Operator.CONJUNCTIVE, samples=200)
    assert not report.all_passed
    assert report.first_counterexample is not None
    probe = report.first_counterexample
    composed = eval_sum(Operator.CONJUNCTIVE, [number(1), probe])
    assert outcome_of_scores(composed) != outcome(probe)


def test_nonzero_witness_leaf():
    w = nonzero_witness(number(2), Operator.CONJUNCTIVE)
    assert w.context == number(0)
    assert w.outcome_composed is Outcome.L
    assert w.outcome_baseline is Outcome.TIE


def test_nonzero_witness_trap_values():
    g = parse_game("{0|0|.}")
    for op in (Operator.CONJUNCTIVE, Operator.SELECTIVE):
        w = nonzero_witness(g, op)
        assert w.context == parse_game("{.|1|-2}")
        assert w.outcome_baseline is Outcome.N
        assert w.outcome_composed is Outcome.R


def test_nonzero_witness_mirrored_trap():
    g = parse_game("{.|0|0}")
    w = nonzero_witness(g, Operator.CONJUNCTIVE)
    assert w.context == parse_game("{2|-1|.}")


def test_nonzero_witness_rejects_zero():
    with pytest.raises(ValueError):
        nonzero_witness(number(0), Operator.CONJUNCTIVE)
    with pytest.raises(ValueError):
        nonzero_witness(number(1), Operator.DISJUNCTIVE)


@pytest.mark.parametrize("seed", range(30))
def test_nonzero_witness_random_games(seed):
    rng = random.Random(seed)
    g = random_game(ImpartialParams(seed=seed), rng)
    if g == number(0):
        return
    for op in (Operator.CONJUNCTIVE, Operator.SELECTIVE):
        w = nonzero_witness(g, op)
        assert w.outcome_composed != w.outcome_baseline


def test_distinguishing_context_equal_games():
    g = parse_game("{4|3|2}")
    assert distinguishing_context(g, g, Operator.CONJUNCTIVE) is None


def test_distinguishing_context_scores_differ():
    w = distinguishing_context(number(1), number(0), Operator.SELECTIVE)
    assert w is not None
    assert w.context == number(0)
    assert w.outcome_composed is Outcome.L
    assert w.outcome_baseline is Outcome.TIE


def test_distinguishing_context_identity_vs_zero_inconclusive():
    # at sweep scale the identity candidate never separates from 0
    # against impartial contexts; the budget runs out before the
    # one-sided gadgets are reached
    i = identity_game()
    assert distinguishing_context(i, number(0), Operator.SELECTIVE,
                                  depth=3) is None


def test_distinguishing_context_finds_structural_gap():
    # impartial contexts cannot see this game (all its scores are zero
    # and live impartial components always offer both players a move),
    # but at depth 1 the stream is short enough to reach the one-sided
    # trap gadget, which separates it from 0
    g = parse_game("{0|0|.}")
    assert distinguishing_context(g, number(0), Operator.CONJUNCTIVE,
                                  depth=3) is None
    w = distinguishing_context(g, number(0), Operator.CONJUNCTIVE, depth=1)
    assert w is not None
    assert w.context == parse_game("{.|1|-2}")
    composed = outcome_of_scores(eval_sum(Operator.CONJUNCTIVE,
                                          [g, w.context]))
    baseline = outcome_of_scores(eval_sum(Operator.CONJUNCTIVE,
                                          [number(0), w.context]))
    assert composed == w.outcome_composed
    assert baseline == w.outcome_baseline
    assert composed != baseline


def test_inverse_search_leaf():
    assert inverse_search(number(3), Operator.CONJUNCTIVE) == number(-3)


def test_inverse_search_chain():
    found = inverse_search(parse_game("{4|3|2}"), Operator.CONJUNCTIVE)
    assert found == parse_game("{-4|-3|-2}")


def test_inverse_search_sequential_non_invertible():
    g = parse_game("{1,{0|0|0}|0|{0|0|0},-1}")
    assert inverse_search(g, Operator.SEQUENTIAL, depth=2,
                          budget=2000) is None
