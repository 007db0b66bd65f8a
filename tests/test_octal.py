"""Octal heap rulesets: move generation, values, tables, period hunting."""

import random
import sys
import threading
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import naive_heap_value
from scoreplay import octal, verify
from scoreplay import (OctalRuleset, Operator, compare_periods, default_points,
                       distinguishing_context, eval_sum, final_scores, find_period,
                       grundy_value, heap_game, heap_moves, heap_value, inverse_search,
                       is_impartial, nonzero_witness, number, parse_game, parse_octal,
                       reference_period, sum_games, value_table)

R33 = parse_octal("0.33:1,2")
R007 = parse_octal("0.007:0,0,1")
R33_RATIONAL = parse_octal("0.33:1/3,1/2")


F = Fraction


def test_ruleset_validation():
    with pytest.raises(ValueError):
        OctalRuleset((8,), (F(1),))
    with pytest.raises(ValueError):
        OctalRuleset((3, 3), (F(1),))
    with pytest.raises(ValueError):
        OctalRuleset((0, 0), (F(0), F(0)))


@pytest.mark.parametrize("digit", [3.7, True, "3"], ids=["float", "bool", "str"])
def test_ruleset_digits_must_be_ints(digit):
    # these used to be read as the digit 3, 1 and 3
    with pytest.raises(TypeError):
        OctalRuleset((digit,))


def test_can_split():
    assert not R33.can_split
    assert R007.can_split
    assert parse_octal("0.337").can_split


def test_default_points():
    assert default_points((3, 3, 7)) == (F(1), F(2), F(0))
    assert default_points((1, 3)) == (F(1), F(2))
    assert default_points((0, 0, 7)) == (F(0), F(0), F(0))


def test_heap_moves_take_pattern():
    assert heap_moves(R33, 2) == ((F(1), (1,)), (F(2), ()))
    assert heap_moves(R33, 1) == ((F(1), ()),)
    assert heap_moves(R33, 5) == ((F(1), (4,)), (F(2), (3,)))


def test_heap_moves_split_pattern():
    assert heap_moves(R007, 5) == ((F(1), (2,)), (F(1), (1, 1)))
    assert heap_moves(R007, 1) == ()
    assert heap_moves(R007, 3) == ((F(1), ()),)
    assert heap_moves(R007, 7) == ((F(1), (4,)), (F(1), (1, 3)), (F(1), (2, 2)))


def test_heap_moves_bounds():
    assert heap_moves(R33, 0) == ()
    with pytest.raises(ValueError):
        heap_moves(R33, -1)


@pytest.mark.parametrize("call", [
    lambda: heap_value(R33, 2.7),
    lambda: heap_value(R33, F(5, 2)),
    lambda: heap_value(R33, "5"),
    lambda: heap_value(R33, True),
    lambda: grundy_value(Operator.DISJUNCTIVE, [(R33, 4.9)]),
    lambda: grundy_value(Operator.SELECTIVE, [(R33, 3), (R33, 2.0)]),
    lambda: heap_moves(R33, 2.5),
    lambda: heap_game(R33, 2.5),
    # a bool or a float equal to a built size must not find its tree
    lambda: (heap_game(R33, 1), heap_game(R33, True)),
    lambda: (heap_game(R33, 3), heap_game(R33, 3.0)),
    lambda: value_table(Operator.DISJUNCTIVE, R33, 4.5),
    lambda: value_table(Operator.DISJUNCTIVE, R33, 4, tail=((R33, 1.5),)),
], ids=["value-float", "value-fraction", "value-str", "value-bool", "grundy-float",
        "grundy-float-equal-to-int", "moves-float", "game-float", "game-bool-built",
        "game-float-built", "table-n-max",
        "table-tail"])
def test_heap_sizes_must_be_ints(call):
    # these used to be truncated into some other heap, or gave nonsense
    with pytest.raises(TypeError):
        call()


def test_negative_heap_sizes_raise_value_error():
    for call in (lambda: heap_value(R33, -1), lambda: heap_game(R33, -1),
                 lambda: grundy_value(Operator.DISJUNCTIVE, [(R33, -3)])):
        with pytest.raises(ValueError):
            call()


def test_single_heap_values_anchor():
    assert [heap_value(R33, n) for n in range(9)] == [0, 1, 2, 1, 0, 1, 2, 1, 0]


def test_single_heap_values_split_ruleset():
    assert [heap_value(R007, n) for n in range(4)] == [0, 0, 0, 1]


def test_heap_value_zero_heap():
    for op in Operator:
        assert heap_value(R33, 0, op) == 0


def test_conjunctive_pair_value():
    assert grundy_value(Operator.CONJUNCTIVE, [(R33, 2), (R33, 3)]) == 3


def test_sequential_pair_value():
    assert grundy_value(Operator.SEQUENTIAL, [(R33, 2), (R33, 3)]) == 1


def _small_positions(max_heaps=3, max_beans=7):
    """Every ordered list of 1..max_heaps heaps with at most max_beans beans."""
    for k in range(1, max_heaps + 1):
        for sizes in product(range(1, max_beans + 1), repeat=k):
            if sum(sizes) <= max_beans:
                yield sizes


@pytest.mark.parametrize("rules,op", [
    (rules, op) for rules in (R007, R33) for op in Operator
    # splitting rulesets have no sequential reading
    if not (op is Operator.SEQUENTIAL and rules.can_split)], ids=str)
def test_grundy_value_matches_naive_heap_oracle(rules, op):
    for sizes in _small_positions():
        want = naive_heap_value(op, [(rules.digits, rules.points, n) for n in sizes])
        assert grundy_value(op, [(rules, n) for n in sizes]) == want, sizes


@pytest.mark.parametrize("op", list(Operator), ids=str)
def test_mixed_rulesets_match_naive_heap_oracle(op):
    # scale 6: integer points beside thirds and halves; the sequential
    # operator only sees the ruleset that cannot split
    rulesets = (R33_RATIONAL,) if op is Operator.SEQUENTIAL else (R007, R33_RATIONAL)
    for sizes in _small_positions():
        for rules in product(rulesets, repeat=len(sizes)):
            pos = list(zip(rules, sizes))
            want = naive_heap_value(op, [(r.digits, r.points, n) for r, n in pos])
            assert grundy_value(op, pos) == want, pos


def _seeded_points(seed, count):
    rng = random.Random(seed)
    return tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(count))


#: all 63 two-digit rulesets, each with signed fractional points of its own,
#: so no other test has filled their tables
TWO_DIGIT = [OctalRuleset((a, b), _seeded_points(8 * a + b, 2))
             for a in range(8) for b in range(8) if a or b]


@pytest.fixture
def no_negamax(monkeypatch):
    """Make the general recursion raise: only a reduction may answer."""
    def reached(*args):
        raise AssertionError("_negamax was reached")
    monkeypatch.setattr(octal, "_negamax", reached)


def _naive(op, pos):
    return naive_heap_value(op, [(r.digits, r.points, n) for r, n in pos])


@pytest.mark.parametrize("rules", TWO_DIGIT, ids=str)
def test_lockstep_sum_matches_naive_heap_oracle(rules, no_negamax):
    # conjunctive positions of 1-3 heaps and at most 8 beans; and, when the
    # ruleset cannot split, single heaps under every operator
    for sizes in _small_positions(max_beans=8):
        pos = [(rules, n) for n in sizes]
        assert grundy_value(Operator.CONJUNCTIVE, pos) == _naive(Operator.CONJUNCTIVE, pos), sizes
    if not rules.can_split:
        for op in Operator:
            for n in range(15):
                assert heap_value(rules, n, op) == _naive(op, [(rules, n)]), (op, n)


def test_lockstep_sum_of_mixed_rulesets_matches_naive_heap_oracle(no_negamax):
    # a seeded sample of ruleset pairs, fresh points again, each heap of
    # every position from either ruleset
    rng = random.Random(7)
    pairs = rng.sample(list(combinations(range(len(TWO_DIGIT)), 2)), 12)
    for seed, (a, b) in enumerate(pairs, start=100):
        both = [OctalRuleset(TWO_DIGIT[j].digits, _seeded_points(2 * seed + t, 2))
                for t, j in enumerate((a, b))]
        for sizes in _small_positions(max_beans=8):
            for rules in product(both, repeat=len(sizes)):
                pos = list(zip(rules, sizes))
                assert grundy_value(Operator.CONJUNCTIVE, pos) == _naive(Operator.CONJUNCTIVE, pos), pos


@pytest.mark.parametrize("op", [Operator.DISJUNCTIVE, Operator.SELECTIVE], ids=str)
def test_single_heaps_after_the_general_recursion_match_naive_heap_oracle(op):
    # 0.03 only takes 2 beans, so the general recursion over a pair of odd
    # heaps leaves values of odd single heaps alone in the memo; the loop up
    # the sizes must still find every heap below the one it fills
    rules = OctalRuleset((0, 3), _seeded_points(98, 2))
    grundy_value(op, [(rules, 9), (rules, 11)])
    for n in reversed(range(14)):
        assert heap_value(rules, n, op) == _naive(op, [(rules, n)]), n


def test_conjunctive_additivity_check_catches_a_broken_sum(monkeypatch):
    # the check values its pairs by the general recursion: were they summed
    # too, an error in every heap's value would cancel out
    lockstep = octal._lockstep
    monkeypatch.setattr(octal, "_lockstep",
                        lambda state, *rest: lockstep(state, *rest) + len(state))
    assert not verify.check_conjunctive_additivity().passed


def test_general_value_never_reads_a_summed_value():
    rules = OctalRuleset((7, 3), _seeded_points(99, 2))
    for n in range(8):
        grundy_value(Operator.CONJUNCTIVE, [(rules, n)])
    memo = octal._gs_tables[(rules,)][2][Operator.CONJUNCTIVE][0]
    for key in memo:        # spoil every value the sum made
        memo[key] += 1000
    for sizes in _small_positions(max_beans=8):
        pos = [(rules, n) for n in sizes]
        assert octal._general_value(Operator.CONJUNCTIVE, pos) == _naive(Operator.CONJUNCTIVE, pos)


COMMUTATIVE = [op for op in Operator if op is not Operator.SEQUENTIAL]


@given(st.sampled_from(COMMUTATIVE), st.data())
@settings(max_examples=80, deadline=None)
def test_commutative_values_ignore_heap_order(op, data):
    heaps = st.tuples(st.sampled_from([R007, R33, R33_RATIONAL]),
                      st.integers(min_value=1, max_value=10))
    pos = data.draw(st.lists(heaps, min_size=1, max_size=3))
    shuffled = data.draw(st.permutations(pos))
    assert grundy_value(op, shuffled) == grundy_value(op, pos)


def test_concurrent_values_share_one_table():
    # each round, 4 threads behind a barrier value the same positions over a
    # fresh ruleset, each thread holding its own equal but distinct ruleset
    # object: every thread must get the oracle's values, from one new table
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(10):
            copies = [OctalRuleset((3, 7), (F(round_ + 1, 7907), F(1))) for _ in range(4)]
            assert all(r == copies[0] and r is not copies[0] for r in copies[1:])
            sizes = list(_small_positions(max_beans=6))
            ops = [Operator.DISJUNCTIVE, Operator.SELECTIVE, Operator.CONJUNCTIVE]
            want = [naive_heap_value(op, [(copies[0].digits, copies[0].points, n) for n in s])
                    for op in ops for s in sizes]
            tables = len(octal._gs_tables)
            start = threading.Barrier(4)
            seen: list = [None] * 4

            def evaluate(t):
                start.wait()
                seen[t] = [grundy_value(op, [(copies[t], n) for n in s])
                           for op in ops for s in sizes]

            threads = [threading.Thread(target=evaluate, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
            assert all(got == want for got in seen)
            assert len(octal._gs_tables) == tables + 1
    finally:
        sys.setswitchinterval(old_interval)


def test_grundy_value_input_checks():
    for op in Operator:
        assert grundy_value(op, [(R33, 0), (R33, 2)]) == grundy_value(op, [(R33, 2)])
    with pytest.raises(ValueError):
        grundy_value(Operator.DISJUNCTIVE, [(R33, -1)])
    with pytest.raises(TypeError):
        grundy_value(Operator.DISJUNCTIVE, [("0.33", 2)])
    with pytest.raises(ValueError):
        grundy_value(Operator.SEQUENTIAL, [(R007, 4)])


#: every public entry point that takes an operator or a ruleset, handed a
#: bad one: an operator's name is not an operator, a ruleset's text not a ruleset
BAD_INPUTS = {
    "grundy_value/op": lambda: grundy_value("disjunctive", [(R007, 5), (R007, 7)]),
    "grundy_value/sequential": lambda: grundy_value("sequential", [(R007, 5)]),
    "grundy_value/empty": lambda: grundy_value("disjunctive", []),
    "grundy_value/rules": lambda: grundy_value(Operator.DISJUNCTIVE, [("0.33", 2)]),
    "heap_value/op": lambda: heap_value(R33, 3, "disjunctive"),
    "heap_value/rules": lambda: heap_value("0.33", 3),
    "value_table/op": lambda: value_table("disjunctive", R33, 3),
    "value_table/rules": lambda: value_table(Operator.DISJUNCTIVE, "0.33", 3),
    "heap_game/op": lambda: heap_game(R33, 3, "disjunctive"),
    "heap_game/rules": lambda: heap_game("0.33", 3),
    # over the cap: the operator or ruleset is read first
    "heap_game/op-over-cap": lambda: heap_game(R33, 13, "disjunctive"),
    "heap_game/rules-over-cap": lambda: heap_game("0.33", 13),
    "heap_game/unhashable-rules": lambda: heap_game(["0.33"], 3),
    "heap_moves/rules": lambda: heap_moves("0.33", 3),
    "compare_periods/rules": lambda: compare_periods("0.33", n_max=3),
    "compare_periods/tail": lambda: compare_periods(R33, [("0.33", 1)], n_max=3),
    "sum_games/op": lambda: sum_games("disjunctive", [number(1), number(2)]),
    "eval_sum/op": lambda: eval_sum("sequential", [number(1), number(2)]),
    "nonzero_witness/op": lambda: nonzero_witness(number(1), "conjunctive"),
    # no candidate to test: the operator is still read
    "distinguishing_context/op-equal-games":
        lambda: distinguishing_context(number(1), number(1), "conjunctive"),
    "inverse_search/op-no-budget": lambda: inverse_search(number(1), "conjunctive", budget=0),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_entry_points_reject_a_bad_operator_or_ruleset(name):
    def tabled():
        # each table's memo, groups and trees by operator, counted
        return {key: {op: tuple(map(len, entry)) for op, entry in memos.items()}
                for key, (_, _, memos) in octal._gs_tables.items()}
    before = tabled()
    with pytest.raises(TypeError):
        BAD_INPUTS[name]()
    # nothing was tabled on the way
    assert tabled() == before


def test_rational_points_stay_exact():
    r = parse_octal("0.33:1/3,1/2")
    vals = [heap_value(r, n) for n in range(6)]
    assert vals == [0, F(1, 3), F(1, 2), F(1, 6), F(1, 6), F(1, 3)]
    assert all(isinstance(v, Fraction) for v in vals)


def test_heap_game_unfolds_moves():
    assert heap_game(R33, 0) == number(0)
    assert heap_game(R33, 1) == parse_game("{1|0|-1}")
    g = heap_game(R33, 3)
    assert is_impartial(g)
    assert final_scores(g).sl == heap_value(R33, 3) == 1


def test_heap_game_cap():
    with pytest.raises(ValueError):
        heap_game(R33, 13)
    assert heap_game(R33, 13, cap=13) is not None
    with pytest.raises(ValueError):     # built, but still over the cap
        heap_game(R33, 13)


def test_heap_game_sequential_split_rejected():
    with pytest.raises(ValueError):
        heap_game(R007, 4, Operator.SEQUENTIAL)


def test_sequential_split_rejected_at_every_size():
    for call in (lambda: heap_value(R007, 0, Operator.SEQUENTIAL),
                 lambda: value_table(Operator.SEQUENTIAL, R007, 0),
                 lambda: heap_game(R007, 0, Operator.SEQUENTIAL)):
        with pytest.raises(ValueError, match="no sequential reading"):
            call()


def test_equal_rulesets_share_one_table():
    # default points spelled out or left implicit: one ruleset, one hash, one table
    implicit, explicit = OctalRuleset((3, 3)), OctalRuleset((3, 3), (1, 2))
    assert implicit == explicit
    assert hash(implicit) == hash(explicit)
    op = Operator.DISJUNCTIVE
    state, table, _ = octal._prepare(op, [(implicit, 5)])
    same_state, same_table, _ = octal._prepare(op, [(explicit, 5)])
    assert same_state == state and same_table is table
    assert octal._prepare(op, [(OctalRuleset((3, 3), (2, 1)), 5)])[1] is not table


def test_liveness_is_whether_a_heap_has_moves():
    # liveness is not monotone in n: 0.1 is live at 1 and dead at 2
    assert octal._live(OctalRuleset((1,)), 1) and not octal._live(OctalRuleset((1,)), 2)
    for k in (1, 2, 3):
        for digits in product(range(8), repeat=k):
            if any(digits):
                rules = OctalRuleset(digits)
                for n in range(13):
                    assert octal._live(rules, n) == bool(heap_moves(rules, n)), (digits, n)


@pytest.mark.parametrize("op", list(Operator))
def test_heap_game_matches_flat_recursion(op):
    rules = R007 if op is not Operator.SEQUENTIAL else R33
    for beans in ((3,), (4,), (2, 3), (3, 3), (1, 2, 3)):
        pos = [(rules, n) for n in beans]
        trees = [heap_game(rules, n, op) for n in beans]
        v = grundy_value(op, pos)
        assert final_scores(sum_games(op, trees)).sl == v
        # both callers of the shared evaluator agree on the same positions
        assert eval_sum(op, trees) == (v, -v)


def test_value_table_disjunctive_anchor():
    table = value_table(Operator.DISJUNCTIVE, R33, 12)
    assert table == [0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1, 0]


def test_value_table_selective_single_equals_disjunctive():
    assert (value_table(Operator.SELECTIVE, R33, 15)
            == value_table(Operator.DISJUNCTIVE, R33, 15))


def test_value_table_conjunctive_tail_shifts_by_tail_value():
    base = value_table(Operator.DISJUNCTIVE, R33, 12)
    shifted = value_table(Operator.CONJUNCTIVE, R33, 12, tail=((R33, 2),))
    assert shifted == [v + 2 for v in base]


def test_value_table_rejects_negative_bound():
    with pytest.raises(ValueError):
        value_table(Operator.DISJUNCTIVE, R33, -1)


def test_find_period_anchor_table():
    table = value_table(Operator.DISJUNCTIVE, R33, 40)
    report = find_period(table, min_confirm=8)
    assert report is not None
    assert (report.preperiod, report.period) == (0, 4)


def test_find_period_all_zero():
    report = find_period([0] * 50)
    assert (report.preperiod, report.period) == (0, 1)
    assert report.confirmations == 49


def test_find_period_strictly_increasing():
    assert find_period(list(range(30))) is None


def test_find_period_with_preperiod():
    values = [7, 9, 4] + [1, 2] * 15
    report = find_period(values)
    assert (report.preperiod, report.period) == (3, 2)


def test_find_period_needs_enough_confirmations():
    values = [0, 1] * 6
    assert find_period(values, min_confirm=20) is None
    with pytest.raises(ValueError):
        find_period(values, min_confirm=0)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=12,
                max_size=40))
@settings(max_examples=120, deadline=None)
def test_find_period_reports_are_valid_and_minimal(values):
    report = find_period(values, min_confirm=5)
    if report is None:
        return
    n, p = report.preperiod, report.period
    assert all(values[i + p] == values[i] for i in range(n, len(values) - p))
    assert len(values) - p - n == report.confirmations >= 5
    # nothing smaller works, scanning (period, preperiod) lexicographically
    for q in range(1, p + 1):
        starts = range(n) if q == p else range(len(values))
        for m in starts:
            ok = all(values[i + q] == values[i]
                     for i in range(m, len(values) - q))
            assert not (ok and len(values) - q - m >= 5)


def test_reference_period():
    assert reference_period(R33) == 4
    assert reference_period(parse_octal("0.337")) == 6
    assert reference_period(parse_octal("0.1:1")) is None
    assert reference_period(parse_octal("0.011:0,1,1")) is None


def test_compare_periods_non_splitting():
    cmp = compare_periods(R33, n_max=60, min_confirm=10)
    assert cmp.reference_period == 4
    assert cmp.all_periods_equal
    assert len(cmp.results) == 4
    for r in cmp.results:
        assert r.skipped is None
        assert r.period.period == 4


def test_compare_periods_splitting_skips_sequential():
    cmp = compare_periods(R007, n_max=25, min_confirm=8)
    by_op = {r.operator: r for r in cmp.results}
    assert by_op[Operator.SEQUENTIAL].skipped is not None
    assert by_op[Operator.SEQUENTIAL].table is None
    assert by_op[Operator.DISJUNCTIVE].table is not None


def test_compare_periods_to_dict_shape():
    d = compare_periods(R33, n_max=40).to_dict()
    assert d["ruleset"] == "0.33:1,2"
    assert d["reference_period"] == 4
    assert set(d["operators"]) == {op.value for op in Operator}
    assert d["all_periods_equal"] is True
    disj = d["operators"]["disjunctive"]
    assert disj["table"][:5] == [0, 1, 2, 1, 0]
    assert disj["period"] == {"preperiod": 0, "period": 4,
                              "confirmations": 37}
