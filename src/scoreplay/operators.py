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
ending at any point pays out the sum of wherever each component stopped.

`sum_games` materializes the composite as an ordinary interned tree,
and `eval_sum` reads its final scores, so a tree sum has one code path.
`_successors` is the one place that knows the four move rules: the
commutative composites expand by it, and so do heap positions in
`octal.grundy_value`.  The sequential composite is a chain of binary
joins, each a fold over the head's tree, so a component of any depth sums.

A commutative composite is a fold of `game._postorder` over states, a
state's children being its successor states, so a sum of any depth
builds.  Components are sorted once, at the public call, and successors
come back sorted, so the composite memo keys on the raw state, leaves
included: a successor edge costs one lookup.  Leaves are folded only on
a miss.  A sum of one game is that game, shifted by the leaves beside
it, under every operator; `_composite` returns it unexpanded.  That is
for speed, not depth: a lone game is never played out move by move.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Sequence

from .evaluate import FinalScores, _scores
from .game import GameId, Raw, _make, _node, _nodes, _postorder, _public, _shift


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


#: a component's moves as (points, parts) pairs, points being mover-relative
Moves = Callable[[object], Sequence[tuple[Raw, tuple]]]


def _successors(op: Operator, state: tuple, moves: Moves, groups: dict) -> list[tuple[tuple, Raw]]:
    """One turn of `op` from `state`, as (successor state, points) pairs.

    There is one pair per combined move, so a successor reachable in
    several ways may repeat, with the same or different points; callers
    fold the pairs (a max or a set) and never need them distinct.
    `state` is a canonical tuple of components: sorted for the commutative
    operators, in play order for the sequential one, and successors come
    back in the same form.  Components are ints for trees and heaps alike,
    interned game ids or heaps as `octal._prepare` numbers them, so a state
    hashes, compares and sorts as a flat tuple of ints.  `moves(c)` lists
    the mover's options in component c as (points, parts) pairs: `parts`
    replace c, and `points`, the mover's gain, are scaled ints for heaps
    and 0 for trees, whose nodes carry their scores.  `groups` caches the choices of
    each run of equal components by (component, count); share it only
    between calls with the same `op` and `moves`.
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
            best: dict[tuple, int] = {}
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
                        parts = tuple(sorted(parts))
                        prev = best.get(parts)
                        if prev is None or pts > prev:
                            best[parts] = pts
            choices = groups[key] = tuple((pts, parts) for parts, pts in best.items())
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


def _state(op: Operator, games: Iterable[GameId]) -> tuple[GameId, ...]:
    """The checked components as a canonical state (see `_successors`)."""
    _check_op(op)
    comps = tuple(games)
    if not comps:
        raise ValueError("a sum needs at least one component")
    for g in comps:
        _node(g)
    return comps if op is Operator.SEQUENTIAL else tuple(sorted(comps))


#: Tree components as `_composite` builds on them: a move replaces the
#: component by one of the mover's options and scores nothing by itself.
_TREE_MOVES = {
    "L": lambda g: tuple((0, (o,)) for o in _nodes[g][0]),
    "R": lambda g: tuple((0, (o,)) for o in _nodes[g][2]),
}


_build_memo: dict[Operator, dict[tuple[GameId, ...], GameId]] = {
    op: {} for op in Operator if op is not Operator.SEQUENTIAL}


def _composite(op: Operator, state: tuple[GameId, ...], memo: dict) -> GameId:
    """Composite tree of the sorted `state` under a commutative `op`.

    `memo` is `_build_memo[op]`, keyed on the state as it comes, leaves
    and all: successor states are sorted already, so a hit costs one
    lookup.  Leaves fold into a shift of the composite of the rest.
    """
    got = memo.get(state)
    if got is not None:
        return got

    def expand(state):
        folded = 0      # leaves only add their score
        core = []
        for g in state:
            left, s, right = _nodes[g]
            if left or right:
                core.append(g)
            else:
                folded += s
        core = tuple(core)
        if len(core) < 2:
            return (folded, core, (), ()), iter(())
        if folded:
            return (folded, core, (), ()), iter((core,))
        lefts = [ms for ms, _ in _successors(op, core, _TREE_MOVES["L"], {})]
        rights = [ms for ms, _ in _successors(op, core, _TREE_MOVES["R"], {})]
        return (0, core, lefts, rights), iter(lefts + rights)

    def combine(folded, core, lefts, rights, memo):
        if len(core) < 2:
            # a sum of one game is that game
            return _shift(core[0], folded) if core else _make((), folded, ())
        if folded:
            return _shift(memo[core], folded)
        return _make(tuple(sorted({memo[ms] for ms in lefts})), sum(_nodes[g][1] for g in core),
                     tuple(sorted({memo[ms] for ms in rights})))

    return _postorder(state, combine, memo, expand)


_seq_join_memo: dict[GameId, dict[GameId, GameId]] = {}


def _seq_join(g: GameId, h: GameId) -> GameId:
    """Binary sequential join: play g out, then h, scores accumulating."""
    memo = _seq_join_memo.setdefault(h, {})     # nested by h, keyed on g
    got = memo.get(g)
    if got is None:
        def join(left, s, right, memo):
            if not left and not right:
                return _shift(h, s)
            return _make(tuple(sorted({memo[x] for x in left})), s + _nodes[h][1],
                         tuple(sorted({memo[x] for x in right})))
        got = _postorder(g, join, memo)
    return got


def sum_games(op: Operator, games: Iterable[GameId]) -> GameId:
    """Combine games under `op` into a single interned tree."""
    state = _state(op, games)
    if op is Operator.SEQUENTIAL:
        # binary join, not _composite: that ran sequential heap_game sums 2.6x slower (GC)
        # right-associated: [a, b, c] becomes a |> (b |> c)
        return reduce(lambda acc, g: _seq_join(g, acc), reversed(state[:-1]), state[-1])
    return _composite(op, state, _build_memo[op])


def eval_sum(op: Operator, games: Iterable[GameId]) -> FinalScores:
    """Final scores of the composite: final_scores(sum_games(op, games))."""
    sl, sr = _scores(sum_games(op, games))
    return FinalScores(_public(sl), _public(sr))
