"""Random sequences of store operations, each result checked against the
naive oracle of `conftest`.

A run keeps a pool of (game id, plain-tuple game) pairs and applies
`make_game`, `shift`, `negate`, `reverse`, `sum_games` under every
operator, and option reads to it.  The expected tuple of each transform
is computed on plain tuples, and every result must have that structure
(`as_tuple`, options in structural order) and the oracle's final scores.
A sum's structure has no oracle, so its final scores are checked against
the brute-force game search instead, and its tuple joins the pool as the
engine built it.  Long sequential chains are checked the same way, and
against the associativity of the sequential sum: a chain is the same tree
however it is split in two.  `is_impartial` is checked against a
definition that reflects options on plain tuples, on random impartial
games, on those games with one leaf score moved, and on random games.
"""

from fractions import Fraction
from math import prod
import random

from hypothesis import given, settings
import hypothesis.strategies as st

import pytest

from conftest import (as_tuple, games_st, naive_is_impartial, naive_scores, naive_sum_scores,
                      oracle_key, scores_st)
from scoreplay import (ImpartialParams, Operator, final_scores, is_impartial, left_options,
                       make_game, negate, random_impartial, reverse, right_options, score,
                       shift, sum_games)

STEPS = ("make", "shift", "negate", "reverse", "sum", "options")
AMOUNTS = st.sampled_from(
    (Fraction(-2), Fraction(-1, 2), Fraction(1, 3), Fraction(1), Fraction(5, 2)))


def _canonical(left, s, right):
    """A tuple game with each side deduplicated and in structural order."""
    def side(options):
        return tuple(sorted(set(options), key=oracle_key))
    return side(left), s, side(right)


def _map(t, f, swap: bool):
    """Every score x of the tuple game `t` becomes f(x); sides swap if `swap`."""
    left, s, right = t
    left, right = [_map(x, f, swap) for x in left], [_map(x, f, swap) for x in right]
    return _canonical(right, f(s), left) if swap else _canonical(left, f(s), right)


def _size(t) -> int:
    left, _, right = t
    return 1 + sum(_size(x) for x in left + right)


def _check(g, want):
    assert as_tuple(g) == want
    assert tuple(final_scores(g)) == naive_scores(want)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_random_store_operations_match_the_oracle(data):
    pool = []
    for s in data.draw(st.lists(scores_st, min_size=1, max_size=3)):
        g = make_game([], s, [])
        _check(g, ((), s, ()))
        pool.append((g, ((), s, ())))
    for step in data.draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=12)):
        pick = st.integers(0, len(pool) - 1)
        g, t = pool[data.draw(pick)]
        if step == "make":
            lefts = [pool[i] for i in data.draw(st.lists(pick, max_size=2))]
            rights = [pool[i] for i in data.draw(st.lists(pick, max_size=2))]
            s = data.draw(scores_st)
            got = make_game([x for x, _ in lefts], s, [x for x, _ in rights])
            want = _canonical([u for _, u in lefts], s, [u for _, u in rights])
        elif step == "shift":
            c = data.draw(AMOUNTS)
            got, want = shift(g, c), _map(t, lambda x: x + c, swap=False)
        elif step == "negate":
            got, want = negate(g), _map(t, lambda x: -x, swap=True)
        elif step == "reverse":
            got, want = reverse(g), _map(t, lambda x: -x, swap=False)
        elif step == "sum":
            op = data.draw(st.sampled_from(list(Operator)))
            others = [pool[i] for i in data.draw(st.lists(pick, min_size=1, max_size=2))]
            comps = [(g, t)] + others
            if sum(_size(u) for _, u in comps) > 12:
                continue        # the oracle searches every line of play
            got = sum_games(op, [x for x, _ in comps])
            assert tuple(final_scores(got)) == naive_sum_scores(op, [u for _, u in comps])
            want = as_tuple(got)
        else:
            side = data.draw(st.sampled_from((0, 2)))
            options = left_options(g) if side == 0 else right_options(g)
            assert len(options) == len(t[side])
            for x, u in zip(options, t[side]):
                _check(x, u)
                pool.append((x, u))
            continue
        _check(got, want)
        pool.append((got, want))


def _build(t):
    """The interned game of the tuple game `t`."""
    left, s, right = t
    return make_game([_build(x) for x in left], s, [_build(x) for x in right])


_LEAVES = st.builds(lambda s: ((), s, ()), scores_st)
_TREES = st.recursive(_LEAVES, lambda kids: st.builds(
    lambda left, s, right: (tuple(left), s, tuple(right)),
    st.lists(kids, max_size=2), scores_st, st.lists(kids, max_size=2)), max_leaves=3)
#: a head with options for one player only locks the rest of the chain
#: on the other player's turn
_ONE_SIDED = st.builds(
    lambda options, s, left: (options, s, ()) if left else ((), s, options),
    st.lists(_TREES, min_size=1, max_size=2).map(tuple), scores_st, st.booleans())
_CHAINS = st.lists(st.one_of(_LEAVES, _ONE_SIDED, _TREES), min_size=4, max_size=6)


@given(_CHAINS)
@settings(max_examples=150, deadline=None)
def test_long_sequential_chains(chain):
    seq = Operator.SEQUENTIAL
    games = [_build(t) for t in chain]
    got = sum_games(seq, games)
    # a line of play takes one path down each component, so the oracle
    # follows at most the product of the component sizes
    if prod(_size(t) for t in chain) <= 2000:
        assert tuple(final_scores(got)) == naive_sum_scores(seq, chain)
    for i in range(1, len(games)):
        assert got == sum_games(seq, [sum_games(seq, games[:i]), sum_games(seq, games[i:])])


def _leaf_paths(t, path=()):
    """The path to each leaf of the tuple game `t`, as (side, index) steps."""
    left, _, right = t
    if not left and not right:
        yield path
    for side, options in ((0, left), (2, right)):
        for i, x in enumerate(options):
            yield from _leaf_paths(x, path + ((side, i),))


def _moved(t, path, amount):
    """`t` with `amount` added to the score of the node at `path`."""
    left, s, right = t
    if not path:
        return left, s + amount, right
    (side, i), rest = path[0], path[1:]
    options = list(t[side])
    options[i] = _moved(options[i], rest, amount)
    return (tuple(options), s, right) if side == 0 else (left, s, tuple(options))


def _everywhere(t, old, new):
    """`t` with each subtree that is `old` shifted by some c replaced by
    `new` shifted by c; `old` and `new` sit at root score 0."""
    left, s, right = t
    if oracle_key(_map(t, lambda x: x - s, False)) == oracle_key(old):
        return _map(new, lambda x: x + s, False)
    return (tuple(_everywhere(x, old, new) for x in left), s,
            tuple(_everywhere(x, old, new) for x in right))


def _check_impartial(g):
    """`is_impartial` agrees with the tuple oracle, and an impartial game is
    its own negative up to a shift."""
    got = is_impartial(g)
    assert got == naive_is_impartial(as_tuple(g))
    if got:
        assert negate(g) == shift(g, -2 * score(g))
    return got


_PARAMS = (ImpartialParams(seed=0),
           ImpartialParams(max_depth=4, max_branch=3, seed=0,
                           palette=(Fraction(-3, 2), Fraction(0), Fraction(1, 3), Fraction(2))))


@pytest.mark.parametrize("params", _PARAMS)
@pytest.mark.parametrize("seed", range(25))
def test_is_impartial_matches_the_oracle_on_impartial_games(params, seed):
    rng = random.Random(seed)
    for _ in range(4):
        t = as_tuple(random_impartial(params, rng))
        assert _check_impartial(_build(t))
        # one leaf score moved breaks the mirror, unless that leaf is the root
        path = rng.choice(list(_leaf_paths(t)))
        amount = rng.choice((Fraction(1), Fraction(-1, 2)))
        assert _check_impartial(_build(_moved(t, path, amount))) == (path == ())
        if not path:
            continue
        # so does moving it in its parent's shape wherever that shape sits,
        # though every node above is still mirrored
        parent = t
        for side, i in path[:-1]:
            parent = parent[side][i]
        old = _map(parent, lambda x: x - parent[1], False)
        new = _moved(old, path[-1:], amount)
        assert not _check_impartial(_build(_everywhere(t, old, new)))


@given(games_st(max_leaves=8), scores_st)
@settings(max_examples=200, deadline=None)
def test_is_impartial_matches_the_oracle_on_random_games(g, s):
    _check_impartial(g)
    # a node with g on one side and g's shape reflected, not negated, on
    # the other is mirrored at its root, and impartial iff g is
    twin = shift(g, 2 * (s - score(g)))
    assert _check_impartial(make_game([g], s, [twin])) == is_impartial(g)
