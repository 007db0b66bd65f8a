"""Immutable, interned scoring-play game trees.

A game is a node carrying a set of Left options, an exact rational score,
and a set of Right options; options are games themselves.  Nodes are
hash-consed in a process-global append-only store, so structurally equal
trees always receive the same integer id.  Id equality *is* structural
equality, which lets every other module memoize on plain ints.

Lookups key a node by its option ids, deduplicated and sorted as plain
ints, so finding a node that already exists never compares trees.  Each
new node also stores its options in a structural total order (score
first, then Left options lexicographically, then Right options), computed
once when it is interned; that stored order does not depend on
construction order, and printed output is stable across runs.

Ids are checked once, at the public API: `make_game`, `shift` and the
accessors raise ValueError for an unknown id.  The engine's own builders
hold ids that are known already; they read `_nodes[g]` directly and
intern through `_make`, which takes option ids that are unique and
sorted as ints and checks nothing.

Whole-tree walks (final scores, negate, reverse, shift, magnitudes, the
sequential join, impartiality) and the builds over states (commutative
sums, heap trees) share one post-order fold on an explicit stack,
`_postorder`: any depth works, and each key is computed once, into a memo.
Negate and shift keep their memos across calls, which later calls reuse;
reverse and magnitudes fold into a dict of their own per call.  The
shift memo is nested by amount, `_shift_memo[amount][g]`.  This module's
other explicit stack, `_unwind`, runs builders that read input or draw in
order (the parser, the random generators), written as recursive generators.

Scores are exact rationals.  The store keeps each one in a canonical
form: an `int` when the value is integral, a `fractions.Fraction` only
otherwise, so the engine adds, hashes and compares integral scores as
ints.  An int and a Fraction of equal value hash and compare equal, so a
lookup finds the same node whichever form a caller passes.  The public
API returns `Fraction` (`score`, `max_score_magnitude`, and `final_scores`
and `eval_sum` elsewhere), through `_public`.  Floats and bools are
rejected: this library is exact or it is nothing.

Thread safety: insertions take a lock; everything else is pure reads of
append-only structures, so races at worst recompute a memo entry.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Generator, Iterable, Iterator, Union

GameId = int
Score = Fraction
ScoreLike = Union[int, str, Fraction]
#: a score in the store's canonical form: int when integral, else Fraction
Raw = Union[int, Fraction]

_Node = tuple[tuple[GameId, ...], Raw, tuple[GameId, ...]]

_lock = threading.Lock()
_nodes: list[_Node] = []
_index: dict[_Node, GameId] = {}


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


def _public(value: Raw) -> Fraction:
    """A stored score as the public API returns it: always a Fraction."""
    return Fraction(value) if type(value) is int else value


def _node(g: GameId) -> _Node:
    if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < len(_nodes):
        raise ValueError(f"unknown game id: {g!r}")
    return _nodes[g]


def _compare(a: GameId, b: GameId) -> int:
    """Structural total order on interned games.

    Only canonical (interned) nodes are ever compared, so two distinct ids
    always differ somewhere and the result is never 0 for a != b.  Equal
    children share an id, so only the first differing pair is followed,
    by a loop rather than a recursion: any depth compares.
    """
    while a != b:
        la, sa, ra = _nodes[a]
        lb, sb, rb = _nodes[b]
        if sa != sb:
            return -1 if sa < sb else 1
        pair = None
        for xs, ys in ((la, lb), (ra, rb)):
            for x, y in zip(xs, ys):
                if x != y:
                    pair = x, y
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


def _option_ids(ids: Iterable[GameId]) -> tuple[GameId, ...]:
    unique = set()
    for g in ids:
        _node(g)
        unique.add(g)
    return tuple(sorted(unique))


def make_game(left: Iterable[GameId], score: ScoreLike, right: Iterable[GameId]) -> GameId:
    """Intern the game with the given options and score, returning its id.

    Options are deduplicated and sorted; the same tree always comes back
    with the same id no matter how it was assembled.
    """
    return _make(_option_ids(left), _exact(score), _option_ids(right))


def _make(left: tuple[GameId, ...], s: Raw, right: tuple[GameId, ...]) -> GameId:
    """`make_game` for option ids that are known, unique and sorted as ints.

    The one interning path: it stores `s` in canonical form.
    """
    if s.denominator == 1:
        s = s.numerator
    key = (left, s, right)
    got = _index.get(key)
    if got is not None:
        return got
    with _lock:
        got = _index.get(key)
        if got is None:
            node = (tuple(sorted(left, key=structural_sort_key)), s,
                    tuple(sorted(right, key=structural_sort_key)))
            got = len(_nodes)
            # share the key's tuples when the id and structural orders agree
            _nodes.append(key if node == key else node)
            _index[key] = got
        return got


def number(score: ScoreLike) -> GameId:
    """The option-less game that just sits on `score`."""
    return make_game((), score, ())


def left_options(g: GameId) -> tuple[GameId, ...]:
    return _node(g)[0]


def right_options(g: GameId) -> tuple[GameId, ...]:
    return _node(g)[2]


def score(g: GameId) -> Fraction:
    return _public(_node(g)[1])


def is_leaf(g: GameId) -> bool:
    left, _, right = _node(g)
    return not left and not right


def store_size() -> int:
    """Number of interned nodes (diagnostic)."""
    return len(_nodes)


_negate_memo: dict[GameId, GameId] = {}
_shift_memo: dict[Raw, dict[GameId, GameId]] = {}


def _options(g: GameId) -> tuple[_Node, Iterator[GameId]]:
    node = _nodes[g]
    return node, iter(node[0] + node[2])


def _postorder(key, combine: Callable[..., object], memo: dict, expand=_options):
    """Fold the DAG below `key` bottom up, on an explicit stack.

    `expand(key)` gives (args, an iterator over its children), by default a
    node's fields and options.  A key missing from `memo` gets `memo[key] =
    combine(*args, memo)` once its children have entries; no value may be None.
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


def _mapped(options: tuple[GameId, ...], memo: dict[GameId, GameId]) -> tuple[GameId, ...]:
    """The options' images under an injective map, unique and sorted as ints."""
    return tuple(sorted([memo[x] for x in options]))


def negate(g: GameId) -> GameId:
    """Swap the players and negate every score.  An involution."""
    _node(g)
    return _postorder(g, lambda left, s, right, memo: _make(
        _mapped(right, memo), -s, _mapped(left, memo)), _negate_memo)


def reverse(g: GameId) -> GameId:
    """Negate every score but leave each player's options in place.

    Unlike `negate` this does not swap sides: reverse({4|3|2}) = {-4|-3|-2}
    while negate({4|3|2}) = {-2|-3|-4}.  Also an involution.
    """
    _node(g)
    return _postorder(g, lambda left, s, right, memo: _make(
        _mapped(left, memo), -s, _mapped(right, memo)), {})


def shift(g: GameId, amount: ScoreLike) -> GameId:
    """Add `amount` to the score of every node in the tree."""
    c = _exact(amount)
    _node(g)
    return _shift(g, c)


def _shift(g: GameId, c: Raw) -> GameId:
    """`shift` for a known id and an exact amount, taken in canonical form."""
    if not c:
        return g
    if c.denominator == 1:
        c = c.numerator
    memo = _shift_memo.get(c)
    if memo is None:
        memo = _shift_memo.setdefault(c, {})
    got = memo.get(g)
    if got is None:
        got = _postorder(g, lambda left, s, right, memo: _make(
            _mapped(left, memo), s + c, _mapped(right, memo)), memo)
    return got


def max_score_magnitude(g: GameId) -> Fraction:
    """Largest |score| over all nodes of the tree."""
    _node(g)
    return _public(_postorder(g, lambda left, s, right, memo: max(
        [abs(s)] + [memo[x] for x in left + right]), {}))
