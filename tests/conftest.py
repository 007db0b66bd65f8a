"""Shared test helpers: from-scratch oracle evaluators and hypothesis strategies.

The tree oracle works on plain nested tuples and the heap oracle on plain
lists of (digits, points, size) heaps, never touching the interned store,
the move generator of `scoreplay.operators` or any memo table, so they
catch bugs in interning, move generation and caching rather than
inheriting them.  `naive_successors` checks that move generator one turn
at a time: it takes the engine's states and per-component moves, but
enumerates the moving component subsets straight off the four rules.
Keep oracle inputs small; they are deliberately exponential.
"""

from fractions import Fraction
from itertools import combinations, product

import hypothesis.strategies as st

from scoreplay import (GameId, Operator, left_options, make_game, number,
                       right_options, score)

# -- plain-tuple mirror of the interned trees -------------------------------

def as_tuple(g: GameId):
    """(left options, score, right options) with options as tuples too."""
    return (tuple(as_tuple(x) for x in left_options(g)),
            score(g),
            tuple(as_tuple(x) for x in right_options(g)))


def oracle_key(t):
    """Structural sort key of a tuple game: score, then each side's keys sorted.

    Built from plain tuples, so it checks the engine's stored option order
    without calling the engine's comparator.
    """
    left, s, right = t
    return (s, tuple(sorted(oracle_key(x) for x in left)),
            tuple(sorted(oracle_key(x) for x in right)))


def _reflect(t, about):
    """The tuple game `t` negated about the score `about`: every score x
    becomes 2*about - x and the two sides swap."""
    left, s, right = t
    return (tuple(_reflect(x, about) for x in right), 2 * about - s,
            tuple(_reflect(x, about) for x in left))


def naive_is_impartial(t) -> bool:
    """Whether every node of the tuple game `t` has Right options that are
    its Left options reflected about the node score, and vice versa,
    straight off the definition: it never calls the engine's `negate`."""
    left, s, right = t
    return (all(naive_is_impartial(x) for x in left + right)
            and {oracle_key(x) for x in left} == {oracle_key(_reflect(x, s)) for x in right})


def naive_scores(t):
    """(SL, SR) of a tuple game, straight off the definition."""
    left, s, right = t
    sl = max(naive_scores(x)[1] for x in left) if left else s
    sr = min(naive_scores(x)[0] for x in right) if right else s
    return (sl, sr)


def _moves(op: Operator, comps, idx: int):
    """Successor component tuples for the side owning option slot `idx`."""
    if op is Operator.DISJUNCTIVE:
        for i, c in enumerate(comps):
            for o in c[idx]:
                yield comps[:i] + (o,) + comps[i + 1:]
    elif op is Operator.CONJUNCTIVE:
        avail = [i for i, c in enumerate(comps) if c[idx]]
        if not avail:
            return
        for choice in product(*(comps[i][idx] for i in avail)):
            out = list(comps)
            for i, o in zip(avail, choice):
                out[i] = o
            yield tuple(out)
    elif op is Operator.SELECTIVE:
        avail = [i for i, c in enumerate(comps) if c[idx]]
        for r in range(1, len(avail) + 1):
            for picked in combinations(avail, r):
                for choice in product(*(comps[i][idx] for i in picked)):
                    out = list(comps)
                    for i, o in zip(picked, choice):
                        out[i] = o
                    yield tuple(out)
    else:
        i = 0
        while i < len(comps) and not comps[i][0] and not comps[i][2]:
            i += 1
        if i < len(comps):
            for o in comps[i][idx]:
                yield comps[:i] + (o,) + comps[i + 1:]


def _strict_conjunctive_moves(comps, idx: int):
    """Conjunctive moves under the all-components reading: every component
    moves, and the composite ends once the mover lacks an option in any."""
    if all(c[idx] for c in comps):
        yield from product(*(c[idx] for c in comps))


def _naive_best(moves, comps, idx: int):
    succs = list(moves(comps, idx))
    if not succs:
        return sum(c[1] for c in comps)
    nxt = 2 if idx == 0 else 0
    vals = [_naive_best(moves, s, nxt) for s in succs]
    return max(vals) if idx == 0 else min(vals)


def naive_sum_scores(op: Operator, comps):
    """(SL, SR) of a sum of tuple games, by brute-force game search."""
    comps = tuple(comps)
    moves = lambda cs, idx: _moves(op, cs, idx)
    return (_naive_best(moves, comps, 0), _naive_best(moves, comps, 2))


def naive_strict_conjunctive_scores(comps):
    """(SL, SR) of a conjunctive sum under the strict all-components reading.

    The engine lets option-less components sit out of a turn; this reading
    does not, and it gives different scores on some pairs.
    """
    comps = tuple(comps)
    return (_naive_best(_strict_conjunctive_moves, comps, 0),
            _naive_best(_strict_conjunctive_moves, comps, 2))


# -- naive octal heap positions ----------------------------------------------

def _naive_heap_options(digits, points, n: int):
    """(points, remaining heaps) for one heap of n, read off the digit bits."""
    for k, (d, p) in enumerate(zip(digits, points), start=1):
        rest = n - k
        if rest < 0:
            break
        if d & 1 and rest == 0:
            yield p, ()
        if d & 2 and rest >= 1:
            yield p, (rest,)
        if d & 4 and rest >= 2:
            for a in range(1, rest):
                yield p, (a, rest - a)


def _naive_turns(op: Operator, comps, opts, movable):
    """(points, successor tuple) for each combined move of one turn of `op`.

    `opts[i]` lists component i's options as (points, parts); `movable`
    holds the indices of the components the mover may play, in order.
    Parts replace their component in place, so the order is kept.
    """
    if op is Operator.DISJUNCTIVE:
        subsets = [(i,) for i in movable]
    elif op is Operator.CONJUNCTIVE:
        subsets = [tuple(movable)] if movable else []
    elif op is Operator.SELECTIVE:
        subsets = [s for r in range(1, len(movable) + 1)
                   for s in combinations(movable, r)]
    else:
        subsets = [(i,) for i in movable[:1]]
    for subset in subsets:
        for choice in product(*(opts[i] for i in subset)):
            picked = dict(zip(subset, choice))
            out = []
            for i, comp in enumerate(comps):
                out.extend(picked[i][1] if i in picked else (comp,))
            yield sum(p for p, _ in choice), tuple(out)


def naive_successors(op: Operator, state, moves) -> dict:
    """{successor state: best points} for one turn of `op` from `state`.

    `state` and `moves` are as `scoreplay.operators._successors` takes
    them; this enumerates component index subsets straight off the move
    rules, with no runs, caches or product order, and sorts each successor
    unless `op` is sequential, where only the head component may move.
    """
    opts = [tuple(moves(c)) for c in state]
    movable = [i for i, o in enumerate(opts) if o]
    if op is Operator.SEQUENTIAL:
        movable = [i for i in movable if i == 0]
    best: dict = {}
    for pts, succ in _naive_turns(op, state, opts, movable):
        if op is not Operator.SEQUENTIAL:
            succ = tuple(sorted(succ))
        if succ not in best or pts > best[succ]:
            best[succ] = pts
    return best


def _naive_heap_moves(op: Operator, heaps):
    """(points, successor heap list) for one turn on an ordered heap list."""
    opts = [[(p, tuple((digits, points, m) for m in rest))
             for p, rest in _naive_heap_options(digits, points, n)]
            for digits, points, n in heaps]
    movable = [i for i, o in enumerate(opts) if o]
    yield from _naive_turns(op, heaps, opts, movable)


def naive_heap_value(op: Operator, heaps) -> Fraction:
    """Mover-relative value of an ordered list of (digits, points, size)
    heaps, each with its own ruleset, by memo-free search.

    Independent of `scoreplay.octal`: moves come straight from the digit
    bits, every heap stays in place (dead ones included) and no state is
    ever canonicalized or cached.
    """
    best = None
    for p, succ in _naive_heap_moves(op, heaps):
        v = p - naive_heap_value(op, succ)
        if best is None or v > best:
            best = v
    return Fraction(0) if best is None else best


# -- hypothesis strategies ---------------------------------------------------

scores_st = st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                         max_denominator=3)


def games_st(max_leaves: int = 10, max_options: int = 3, scores=scores_st):
    """Interned game ids with bounded size, every score drawn from `scores`."""
    return st.recursive(
        st.builds(number, scores),
        lambda kids: st.builds(
            lambda left, s, right: make_game(left, s, right),
            st.lists(kids, max_size=max_options),
            scores,
            st.lists(kids, max_size=max_options)),
        max_leaves=max_leaves)


small_games_st = games_st(max_leaves=6, max_options=2)
