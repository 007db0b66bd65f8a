"""Immutable, interned scoring-play game trees.

A game is a node carrying a set of Left options, an exact rational score,
and a set of Right options; options are games themselves.  Nodes are
hash-consed in a process-global append-only store, so structurally equal
trees always receive the same integer id, and every other module
memoizes on plain ints.

The store keeps each tree once up to translation.  A node keeps each
option as a (delta, shape) pair: the option's score minus the node's, and
the option's tree at root score 0.  A shape is itself a game: `_nodes[y]`
of a shape is its (left, right) sides, each one flat tuple (delta, shape,
delta, shape, ...), and `_nodes[g]` of any other game is (shape, score).
Each entry is its own lookup key, but a shape is keyed by its sides
sorted as plain numbers, so a lookup never compares trees.  `shift` is
one intern.  Every engine operation commutes with a uniform shift, so the
engine folds over shapes and memoizes on them.  Only the public surface
sees absolute scores: `make_game`, `shift`, `score`, the option readers
(which intern each option as it is read) and the text form.  A new shape
stores its sides in the structural order of `_compare`, which is the
order of the absolute option games, so printed output is stable.

Ids are checked once, at the public API (`_node` raises ValueError).  The
engine's builders hold known ids: they `_split` a game, read a shape's
sides from `_nodes` and intern through `_shape` and `_scored`, which check
nothing.  Builders that assemble a tree bottom up (the parser, the random
generators) pass (shape, score) pairs between levels and intern only the
root with its score.  Whole-tree walks and the builds over states share
one post-order fold on an explicit stack, `_postorder`, and recursive
generators run on another, `_unwind`: any depth works.

Scores and deltas are stored in canonical form: an `int` when integral, a
`fractions.Fraction` only otherwise, so integral scores add, hash and
compare as ints.  An int and a Fraction of equal value hash and compare
equal, so a lookup finds the same node whichever form a caller passes.
The public API returns `Fraction`, through `_public`.  Floats and bools
are rejected: this library is exact or it is nothing.

Thread safety: insertions take a lock; everything else is pure reads of
append-only structures, so races at worst recompute a memo entry.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain
from typing import Callable, Generator, Iterable, Iterator, Union

GameId = int
Score = Fraction
ScoreLike = Union[int, str, Fraction]
#: a score in the store's canonical form: int when integral, else Fraction
Raw = Union[int, Fraction]
#: options as (delta, shape) pairs, in any order, possibly repeated
Pairs = Iterable[tuple[Raw, GameId]]

#: a shape's (left, right) sides, or a game's (shape, score)
_Node = Union[tuple[tuple, tuple], tuple[GameId, Raw]]

_lock = threading.Lock()
_nodes: list[_Node] = []
_index: dict[tuple, GameId] = {}


def as_score(value: ScoreLike) -> Fraction:
    """Coerce an int, Fraction, or string like '-3/4' to an exact score."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a score: {value!r}")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"scores must be exact rationals, got {type(value).__name__}")


def _exact(value: ScoreLike) -> Raw:
    """`as_score`, except that a plain int goes through as it is."""
    return value if type(value) is int else as_score(value)


def _canonical(value: Raw) -> Raw:
    """An exact value in the store's form: an int when it is integral."""
    return value.numerator if value.denominator == 1 else value


def _public(value: Raw) -> Fraction:
    """A stored score as the public API returns it: always a Fraction."""
    return Fraction(value) if type(value) is int else value


def _split(g: GameId) -> tuple[GameId, Raw]:
    """A known game as (its shape, its root score)."""
    node = _nodes[g]
    return node if type(node[0]) is int else (g, 0)


def _node(g: GameId) -> tuple[GameId, Raw]:
    """`_split` for an id from outside, checked."""
    if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < len(_nodes):
        raise ValueError(f"unknown game id: {g!r}")
    return _split(g)


def _pairs(side: tuple) -> Iterator[tuple[Raw, GameId]]:
    """A side's flat (delta, shape, delta, shape, ...) tuple as pairs."""
    it = iter(side)
    return zip(it, it)


def _compare(a: GameId, b: GameId) -> int:
    """Structural total order on interned games: root score first, then the
    shapes, Left side then Right side, each lexicographically as (delta,
    shape) pairs.

    Only canonical (interned) nodes are ever compared, so two distinct ids
    always differ somewhere and the result is never 0 for a != b.  Equal
    children share an id, so only the first differing option pair is
    followed, by a loop rather than a recursion: any depth compares.
    """
    (a, sa), (b, sb) = _split(a), _split(b)
    if sa != sb:
        return -1 if sa < sb else 1
    while a != b:
        (la, ra), (lb, rb) = _nodes[a], _nodes[b]
        pair = None
        for xs, ys in ((la, lb), (ra, rb)):
            for i, (x, y) in enumerate(zip(xs, ys)):
                if x != y:
                    if i % 2 == 0:      # deltas sit at even places
                        return -1 if x < y else 1
                    pair = x, y         # equal deltas, different shapes
                    break
            if pair is not None:
                break
            if len(xs) != len(ys):
                return -1 if len(xs) < len(ys) else 1
        if pair is None:
            return 0
        a, b = pair
    return 0


structural_sort_key = cmp_to_key(_compare)
_option_key = cmp_to_key(lambda p, q: (p[0] > q[0]) - (p[0] < q[0]) or _compare(p[1], q[1]))


def _flat(pairs: Pairs) -> tuple:
    """Option pairs as one flat tuple, unique and sorted as plain numbers;
    one pair or none needs no hashing or sorting."""
    pairs = list(pairs)
    return tuple(chain.from_iterable(sorted(set(pairs)) if len(pairs) > 1 else pairs))


def _ordered(side: tuple) -> tuple:
    """A flat side sorted by `_option_key`; one option is in order already."""
    if len(side) <= 2:
        return side
    return tuple(chain.from_iterable(sorted(_pairs(side), key=_option_key)))


def _shape(left: Pairs, right: Pairs) -> GameId:
    """Intern the shape with these options, checking nothing: deltas are
    stored in canonical form and sides in structural order."""
    key = (_flat(left), _flat(right))
    got = _index.get(key)
    if got is None:
        key = tuple(tuple(map(_canonical, side)) for side in key)
        node = tuple(map(_ordered, key))
        got = _intern(key, key if node == key else node)
    return got


def _scored(y: GameId, s: Raw) -> GameId:
    """The game of shape `y` at root score `s`: one intern, checking nothing."""
    s = _canonical(s)
    if not s:
        return y
    key = (y, s)
    got = _index.get(key)
    return _intern(key, key) if got is None else got


def _intern(key: tuple, node: _Node) -> GameId:
    """The id of `key`, storing `node` for it if it is new: the one insertion."""
    with _lock:
        got = _index.setdefault(key, len(_nodes))    # one hash of the key
        if got == len(_nodes):
            _nodes.append(node)
        return got


_LEAF = _shape((), ())


def make_game(left: Iterable[GameId], score: ScoreLike, right: Iterable[GameId]) -> GameId:
    """Intern the game with the given options and score, returning its id.

    Options are deduplicated and sorted; the same tree always comes back
    with the same id no matter how it was assembled.
    """
    s = _canonical(_exact(score))
    left, right = ([(t - s, y) for y, t in map(_node, ids)] for ids in (left, right))
    return _scored(_shape(left, right), s)


def number(score: ScoreLike) -> GameId:
    """The option-less game that just sits on `score`."""
    return make_game((), score, ())


def left_options(g: GameId) -> tuple[GameId, ...]:
    y, s = _node(g)
    return tuple(_scored(x, s + d) for d, x in _pairs(_nodes[y][0]))


def right_options(g: GameId) -> tuple[GameId, ...]:
    y, s = _node(g)
    return tuple(_scored(x, s + d) for d, x in _pairs(_nodes[y][1]))


def score(g: GameId) -> Fraction:
    return _public(_node(g)[1])


def is_leaf(g: GameId) -> bool:
    return _node(g)[0] == _LEAF


def store_size() -> int:
    """Number of interned nodes, shapes and scored games alike (diagnostic)."""
    return len(_nodes)


_negate_memo: dict[GameId, GameId] = {}


def _options(y: GameId) -> tuple[tuple, Iterator[GameId]]:
    left, right = node = _nodes[y]
    return node, iter(left[1::2] + right[1::2])


def _postorder(key, combine: Callable[..., object], memo: dict, expand=_options):
    """Fold the DAG below `key` bottom up, on an explicit stack.

    `expand(key)` gives (args, an iterator over its children), by default a
    shape's two sides and its option shapes.  A key missing from `memo`
    gets `memo[key] = combine(*args, memo)` once its children have entries;
    no value may be None.
    """
    got = memo.get(key)
    if got is not None:
        return got
    stack = [(key, *expand(key))]
    while stack:
        key, args, todo = stack[-1]
        for x in todo:
            if x not in memo:
                stack.append((x, *expand(x)))
                break
        else:
            stack.pop()
            memo[key] = combine(*args, memo)
    return memo[key]


def _unwind(build: Generator):
    """Run a recursive generator `build` on an explicit stack.

    `build` yields the generator of each subtree it needs, depth first, and
    is sent back that subtree's value; it returns its own value.  So a
    builder reads like the recursion and runs in the same order, and any
    depth works.
    """
    stack = [build]
    got = None
    while True:
        try:
            child = stack[-1].send(got)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            got = done.value
        else:
            stack.append(child)
            got = None


def _flipped(side: tuple, memo: dict[GameId, GameId]) -> list[tuple[Raw, GameId]]:
    """A side's pairs with each delta negated and each shape mapped by `memo`."""
    return [(-d, memo[y]) for d, y in _pairs(side)]


def negate(g: GameId) -> GameId:
    """Swap the players and negate every score.  An involution, which maps
    shapes to shapes."""
    y, s = _node(g)
    return _scored(_postorder(y, lambda left, right, memo: _shape(
        _flipped(right, memo), _flipped(left, memo)), _negate_memo), -s)


def reverse(g: GameId) -> GameId:
    """Negate every score but leave each player's options in place.

    Unlike `negate` this does not swap sides: reverse({4|3|2}) = {-4|-3|-2}
    while negate({4|3|2}) = {-2|-3|-4}.  Also an involution.
    """
    y, s = _node(g)
    return _scored(_postorder(y, lambda left, right, memo: _shape(
        _flipped(left, memo), _flipped(right, memo)), {}), -s)


def shift(g: GameId, amount: ScoreLike) -> GameId:
    """Add `amount` to the score of every node in the tree."""
    c = _exact(amount)
    y, s = _node(g)
    return _scored(y, s + c)


def max_score_magnitude(g: GameId) -> Fraction:
    """Largest |score| over all nodes of the tree."""
    y, s = _node(g)
    # each shape folds to the (lowest, highest) score below it, relative to its root
    lo, hi = _postorder(y, lambda left, right, memo: (
        min([0] + [d + memo[x][0] for d, x in _pairs(left + right)]),
        max([0] + [d + memo[x][1] for d, x in _pairs(left + right)])), {})
    return _public(max(abs(s + lo), abs(s + hi)))
