"""Sum operators over scoring games.

Four ways to play several games at once, differing in how many components
the player to move must touch:

* DISJUNCTIVE  - move in exactly one component.
* CONJUNCTIVE  - move in every component where you have an option;
  components that offer you nothing sit out of the turn.
* SELECTIVE    - move in any nonempty subset of the components that offer
  you an option.
* SEQUENTIAL   - components are ordered; only the head component may be
  played.  Once the head has no options at all, its score folds into the
  rest as a constant and play continues on the next component.  If the
  head has options for one player only, the other player is stuck (and
  the game ends on their turn) even if later components could help them.

Composite scores are the sum of component scores at every node, so play
ending at any point pays out the sum of wherever each component stopped,
and a composite is that of the components' shapes (see `game`), shifted
by the sum of their scores: composites are built and memoized on shapes.

`sum_games` materializes the composite as an ordinary interned tree,
and `eval_sum` reads its final scores, so a tree sum has one code path.
`_successors` is the one place that knows the four move rules: every
tree composite expands by it, and so do heap positions in
`octal.grundy_value`.

Every composite is a fold of `game._postorder` over states by
`_composite`, a state's children being its successor states, so a sum of
any depth builds.  A leaf has no move, so like a dead heap it drops out,
and successors come back leafless, so a successor edge costs one memo
lookup.  A commutative state is its components' sorted shapes.  A
sequential sum folds its components right to left, so a sequential state
is a pair: the head's shape, and the rest as one shape, the composite of
the components after the head.  A state of one shape is that shape under
every operator; `_composite` returns it unexpanded.  That is for speed,
not depth: a lone game is never played out move by move.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Sequence

from .evaluate import FinalScores, _scores
from .game import GameId, Raw, _LEAF, _node, _nodes, _pairs, _postorder, _scored, _shape


class Operator(Enum):
    DISJUNCTIVE = "disjunctive"
    CONJUNCTIVE = "conjunctive"
    SELECTIVE = "selective"
    SEQUENTIAL = "sequential"

    @classmethod
    def parse(cls, text: str) -> "Operator":
        """Accept a full name or any unambiguous prefix of length >= 3."""
        key = text.strip().lower()
        if len(key) >= 3:
            hits = [op for op in cls if op.value.startswith(key)]
            if len(hits) == 1:
                return hits[0]
        raise ValueError(f"unknown operator: {text!r}")


#: a component's moves as (points, parts) pairs (see `_successors`)
Moves = Callable[[object], Sequence[tuple[Raw, tuple]]]


def _successors(op: Operator, state: tuple, moves: Moves, groups: dict) -> list[tuple[tuple, Raw]]:
    """One turn of `op` from `state`, as (successor state, points) pairs.

    There is one pair per combined move, so a successor reachable in
    several ways may repeat, with the same or different points; callers
    fold the pairs (a max or a set) and never need them distinct.
    `state` is a canonical tuple of components: sorted for the commutative
    operators, in play order for the sequential one, and successors come
    back in the same form.  Components are ints for trees and heaps alike,
    interned shapes or heaps as `octal._prepare` numbers them, so a state
    hashes, compares and sorts as a flat tuple of ints.  `moves(c)` lists
    the mover's options in component c as (points, parts) pairs: `parts`
    replace c, dead ones left out, and `points` is what the move scores: a
    heap mover's gain as a scaled int, or a tree option's delta.  `groups`
    caches the choices of each run of equal components by (component,
    count); share it only between calls with the same `op` and `moves`.
    """
    if op is Operator.SEQUENTIAL:
        rest = state[1:]
        return [(parts + rest, pts) for pts, parts in moves(state[0])]

    if op is Operator.DISJUNCTIVE:
        succs = []
        for i, c in enumerate(state):
            if i and c == state[i - 1]:
                continue
            rest = state[:i] + state[i + 1:]
            succs += [(tuple(sorted(rest + parts)), pts) for pts, parts in moves(c)]
        return succs

    # conjunctive and selective: each run of equal components chooses how
    # many of its copies move (all for conjunctive, any for selective) and
    # which options they take; runs without an option for the mover sit out
    everyone = op is Operator.CONJUNCTIVE
    counts: dict = {}
    for c in state:
        counts[c] = counts.get(c, 0) + 1
    idle: tuple = ()
    per_group = []
    for c, count in counts.items():
        key = (c, count)
        choices = groups.get(key)
        if choices is None:
            # distinct (parts, points), in first-found order: trees need each
            # one, since equal parts at other points are other options
            found: dict[tuple, None] = {}
            opts = moves(c)
            if opts:
                for j in range(count if everyone else 0, count + 1):
                    stay = (c,) * (count - j)
                    for picked in combinations_with_replacement(opts, j):
                        pts = 0
                        parts = stay
                        for q, chunk in picked:
                            pts += q
                            parts += chunk
                        found[tuple(sorted(parts)), pts] = None
            choices = groups[key] = tuple((pts, parts) for parts, pts in found)
        if choices:
            per_group.append(choices)
        else:
            idle += (c,) * count
    if not per_group:
        return []
    # the product over runs, one run at a time, the last run varying fastest
    acc = [(0, idle)]
    for choices in per_group[:-1]:
        acc = [(p + q, parts + chunk) for p, parts in acc for q, chunk in choices]
    succs = [(tuple(sorted(parts + chunk)), p + q)
             for p, parts in acc for q, chunk in per_group[-1]]
    if not everyone:
        # staying put is the first choice of every run, and no move leaves
        # a component as it was, so the first combination is the only one
        # in which nobody moved
        del succs[0]
    return succs


def _check_op(op) -> None:
    """Reject anything but an `Operator`: a name such as "disjunctive"
    would fall through to another operator's move rule."""
    if not isinstance(op, Operator):
        raise TypeError(f"expected an Operator, got {type(op).__name__} {op!r}")


#: Shapes as `_composite` builds on them: a move replaces the component by
#: the option's shape, the leaf shape left out, and adds the option's delta.
_TREE_MOVES = {
    "L": lambda y: tuple((d, (x,) if x != _LEAF else ()) for d, x in _pairs(_nodes[y][0])),
    "R": lambda y: tuple((d, (x,) if x != _LEAF else ()) for d, x in _pairs(_nodes[y][1])),
}


_build_memo: dict[Operator, dict[tuple[GameId, ...], GameId]] = {op: {} for op in Operator}


def _composite(op: Operator, state: tuple[GameId, ...], memo: dict) -> GameId:
    """Composite shape of the leafless shapes `state` under `op`: sorted
    for a commutative `op`, (head, rest) for the sequential one.  `memo` is
    `_build_memo[op]`."""
    got = memo.get(state)
    if got is not None:
        return got

    def expand(state):
        if len(state) < 2:
            return (state, (), ()), iter(())
        lefts = _successors(op, state, _TREE_MOVES["L"], {})
        rights = _successors(op, state, _TREE_MOVES["R"], {})
        return (state, lefts, rights), (ms for ms, _ in lefts + rights)

    def combine(state, lefts, rights, memo):
        if len(state) < 2:
            return state[0] if state else _LEAF
        return _shape([(pts, memo[ms]) for ms, pts in lefts],
                      [(pts, memo[ms]) for ms, pts in rights])

    return _postorder(state, combine, memo, expand)


def _sum(op: Operator, games: Iterable[GameId]) -> tuple[GameId, Raw]:
    """The composite of the checked `games` as its shape and root score."""
    _check_op(op)
    comps = [_node(g) for g in games]
    if not comps:
        raise ValueError("a sum needs at least one component")
    shapes = [y for y, _ in comps if y != _LEAF]
    memo = _build_memo[op]
    if op is not Operator.SEQUENTIAL:
        y = _composite(op, tuple(sorted(shapes)), memo)
    else:
        # right to left, so each state's rest is one canonical shape:
        # [a, b, c] is (a, (b, c)), and a suffix is built once for all heads
        y = shapes.pop() if shapes else _LEAF
        for x in reversed(shapes):
            y = _composite(op, (x, y), memo)
    return y, sum(s for _, s in comps)


def sum_games(op: Operator, games: Iterable[GameId]) -> GameId:
    """Combine games under `op` into a single interned tree."""
    return _scored(*_sum(op, games))


def eval_sum(op: Operator, games: Iterable[GameId]) -> FinalScores:
    """Final scores of the composite: final_scores(sum_games(op, games)),
    without interning the composite's root at its score."""
    return _scores(*_sum(op, games))
