"""Structural probes: impartial games, inverses, witnesses, and searches.

An impartial game here is one where, at every node, the two players'
options mirror each other relative to the node score: for each Left
option there is a Right option that is its exact negation after shifting
the node score away, and vice versa: on shapes (see `game`), each Left
option (d, y) has the Right option (-d, negate(y)).  Impartial games
with zero scores everywhere relative to the root are their own
negatives, which is what makes `reverse` (flip scores, keep sides) act
as an inverse for the conjunctive operator while plain `negate` does not.

The searches in this module are deliberately bounded and deterministic:
they enumerate candidates in a fixed canonical order under explicit depth
and budget caps, so a None answer means "nothing within these bounds",
never "gave up at random".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Generator, Iterator, Optional, Sequence

from .evaluate import Outcome, outcome, outcome_of_scores
from .game import (GameId, _LEAF, _canonical, _node, _pairs, _postorder, _scored, _shape, _unwind,
                   as_score, is_leaf, left_options, make_game, max_score_magnitude,
                   negate, number, reverse, score, shift)
from .notation import format_game
from .operators import Operator, eval_sum, sum_games


def is_impartial(g: GameId) -> bool:
    """Whether both players have mirrored options at every node."""
    return _postorder(_node(g)[0], lambda left, right, memo: all(
        memo[x] for x in left[1::2] + right[1::2])
        and set(_pairs(left)) == {(-d, negate(y)) for d, y in _pairs(right)}, {})


@dataclass(frozen=True)
class ImpartialParams:
    """Shape controls for the random generators; same seed, same games."""
    max_depth: int = 3
    max_branch: int = 2
    palette: tuple = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2))
    leaf_probability: float = 0.25
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "palette", tuple(as_score(p) for p in self.palette))
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if self.max_branch < 1:
            raise ValueError("max_branch must be at least 1")
        if not self.palette:
            raise ValueError("palette must not be empty")
        if not 0 <= self.leaf_probability <= 1:
            raise ValueError("leaf_probability must be within [0, 1]")


def random_impartial(params: ImpartialParams, rng: Optional[random.Random] = None) -> GameId:
    """A random impartial game: scores from the palette shape the drift.

    Each Left option is built recursively at score s + p for a palette
    increment p, and its mirror image becomes the matching Right option.
    Pass an rng to draw a stream; otherwise params.seed fixes the game.
    """
    rng = rng or random.Random(params.seed)
    palette = [_canonical(p) for p in params.palette]   # the same draws, as ints if integral

    def build(depth: int) -> Generator:
        """The drawn shape: the increments do not depend on the score."""
        if depth <= 0 or rng.random() < params.leaf_probability:
            return _LEAF
        lefts = []
        for _ in range(rng.randint(1, params.max_branch)):
            p = rng.choice(palette)
            lefts.append((p, (yield build(depth - 1))))
        return _shape(lefts, [(-p, negate(y)) for p, y in lefts])

    s = rng.choice(palette)     # the root score is the stream's first draw
    return _scored(_unwind(build(params.max_depth)), s)


def random_game(params: ImpartialParams, rng: Optional[random.Random] = None) -> GameId:
    """A random unconstrained game; node scores drawn from the palette."""
    rng = rng or random.Random(params.seed)
    palette = [_canonical(p) for p in params.palette]

    def build(depth: int) -> Generator:
        """The drawn (shape, score) pair."""
        s = rng.choice(palette)
        if depth <= 0 or rng.random() < params.leaf_probability:
            return _LEAF, s
        lefts, rights = [], []
        for side in (lefts, rights):
            for _ in range(rng.randint(0, params.max_branch)):
                y, t = yield build(depth - 1)
                side.append((t - s, y))
        return _shape(lefts, rights), s

    return _scored(*_unwind(build(params.max_depth)))


def identity_game() -> GameId:
    """Two tempo moves for each player, all scores zero: {{0|0|0}|0|{0|0|0}}."""
    z = number(0)
    half = make_game([z], 0, [z])
    return make_game([half], 0, [half])


def _single_line(g: GameId) -> bool:
    """At most one option per side everywhere: play is one forced line."""
    # a side is a flat (delta, shape) tuple: one option is two entries
    return _postorder(_node(g)[0], lambda left, right, memo: len(left) <= 2 and len(right) <= 2
                      and all(memo[x] for x in left[1::2] + right[1::2]), {})


def conjunctive_inverse(g: GameId) -> GameId:
    """The score-reversed copy that cancels `g` under the conjunctive sum.

    Defined for impartial games whose play is a single forced line (at
    most one option per side at every node).  There the result is
    impartial, its final scores are the negatives of g's, and g combined
    with it conjunctively is a tie.  With branching options score
    reversal stops being an inverse: reversing turns the mover's pick of
    the best option into a pick of the worst, and concrete impartial
    games exist where the reversed pair is not a tie.  Note negate(g) is
    never an inverse either: it mirrors the wrong way.
    """
    if not is_impartial(g):
        raise ValueError("conjunctive inverses are defined for impartial games")
    if not _single_line(g):
        raise ValueError("score reversal only inverts single-line impartial "
                         "games (one option per side at every node)")
    return reverse(g)


@dataclass(frozen=True)
class IdentityTestReport:
    candidate: GameId
    operator: Operator
    samples: int
    passes: int
    first_counterexample: Optional[GameId]

    @property
    def all_passed(self) -> bool:
        return self.passes == self.samples


def identity_test(candidate: GameId, op: Operator, samples: int = 200,
                  params: Optional[ImpartialParams] = None) -> IdentityTestReport:
    """Does composing with `candidate` ever change an outcome?

    Draws sample games (impartial ones, except under the sequential
    operator where the identity claim ranges over all games) and compares
    outcome(candidate (+) sample) against outcome(sample).
    """
    params = params or ImpartialParams()
    rng = random.Random(params.seed)
    draw = random_game if op is Operator.SEQUENTIAL else random_impartial
    passes = 0
    first = None
    for _ in range(samples):
        probe = draw(params, rng)
        if outcome_of_scores(eval_sum(op, [candidate, probe])) == outcome(probe):
            passes += 1
        elif first is None:
            first = probe
    return IdentityTestReport(candidate, op, samples, passes, first)


@dataclass(frozen=True)
class ContextWitness:
    """A context X whose composition changed an outcome, with the receipts."""
    context: GameId
    operator: Operator
    outcome_composed: Outcome
    outcome_baseline: Outcome

    def __post_init__(self):
        if self.outcome_composed == self.outcome_baseline:
            raise ValueError("a witness must record two different outcomes")


def nonzero_witness(g: GameId, op: Operator) -> ContextWitness:
    """A context separating `g` from the zero game under op.

    Any game that is not literally the zero game admits one: a bare
    nonzero score is separated by the zero context, and a game with moves
    is separated by a one-sided trap whose payoff outweighs every score
    in `g` as well as the trap's own bonus point.  Works for the
    conjunctive and selective operators.
    """
    if op not in (Operator.CONJUNCTIVE, Operator.SELECTIVE):
        raise ValueError(f"no witness construction for {op.value} sums")
    if g == number(0):
        raise ValueError("the zero game has no separating context")
    if is_leaf(g):
        x = number(0)
    else:
        x = _trap(max(Fraction(1), max_score_magnitude(g)), bool(left_options(g)))
    composed = outcome_of_scores(eval_sum(op, [g, x]))
    baseline = outcome(x)
    if composed == baseline:
        raise RuntimeError(
            f"separating context failed for {format_game(g)} under {op.value}; "
            "this is a bug in the operator semantics")
    return ContextWitness(x, op, composed, baseline)


def _trap(magnitude: Fraction, right_moves: bool) -> GameId:
    """{.|1|-(1+m)} if Right moves, else {1+m|-1|.}: a one-sided trap
    whose lone move outweighs the magnitude m and its own point."""
    if right_moves:
        return make_game([], 1, [number(-(1 + magnitude))])
    return make_game([number(1 + magnitude)], -1, [])


def _context_stream(g: GameId, h: GameId, depth: int, branching: int,
                    palette: Sequence[Fraction]) -> Iterator[GameId]:
    """Deterministic context enumeration: leaves, then impartial trees,
    then one-sided trap gadgets.

    Small scores come first (0 before 1 before -1 ...), so the returned
    witness is the least context that separates the games.  The tree
    sweep stays impartial; the partizan traps come last so they are only
    consulted once the symmetric candidates are spent.
    """
    yield from _impartial_trees(palette, depth, branching, lambda pool, s: pool)
    magnitude = max(Fraction(1), max_score_magnitude(g), max_score_magnitude(h))
    yield _trap(magnitude, True)
    yield _trap(magnitude, False)


def distinguishing_context(g: GameId, h: GameId, op: Operator, depth: int = 3,
                           budget: int = 10000, branching: int = 2,
                           palette: Sequence = (-2, -1, 0, 1, 2)) -> Optional[ContextWitness]:
    """Search for a context under which g and h have different outcomes.

    Enumerates contexts in a fixed order: score leaves, impartial trees
    over the palette up to `depth` with at most `branching` options per
    side, and finally the one-sided trap gadgets sized to the games at
    hand.  At most `budget` contexts are tested, so None means
    indistinguishable within those bounds, nothing more.
    """
    if g == h:
        return None
    pal = sorted({as_score(s) for s in palette}, key=lambda s: (abs(s), s))
    seen: set[GameId] = set()
    tried = 0
    for x in _context_stream(g, h, depth, branching, pal):
        if x in seen:
            continue
        seen.add(x)
        tried += 1
        if tried > budget:
            break
        composed = outcome_of_scores(eval_sum(op, [g, x]))
        baseline = outcome_of_scores(eval_sum(op, [h, x]))
        if composed != baseline:
            return ContextWitness(x, op, composed, baseline)
    return None


def _impartial_trees(scores: Sequence[Fraction], depth: int, branching: int,
                     options) -> Iterator[GameId]:
    """Leaves at `scores`, then `depth` rounds of impartial trees: at each
    score s, every set of 1 to `branching` Left options out of
    `options(pool, s)`, the pool holding the earlier trees, each mirrored."""
    pool = [number(s) for s in scores]
    yield from pool
    for _ in range(depth):
        grown = []
        for s in scores:
            for k in range(1, branching + 1):
                for lefts in combinations(options(pool, s), k):
                    grown.append(make_game(lefts, s, [shift(negate(x), 2 * s) for x in lefts]))
                    yield grown[-1]
        pool = pool + grown


def _impartial_stream(g: GameId, depth: int, branching: int) -> Iterator[GameId]:
    """Impartial candidates in canonical order, sized to `g`'s scores: the
    options at score s are the earlier trees shifted to s + p for small p."""
    magnitude = math.ceil(max_score_magnitude(g)) + 1
    scores = sorted((Fraction(s) for s in range(-magnitude, magnitude + 1)),
                    key=lambda s: (abs(s), s))
    increments = (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2))
    return _impartial_trees(scores, depth, branching, lambda pool, s: list(dict.fromkeys(
        shift(base, s + p - score(base)) for base in pool for p in increments)))


@cache
def _probe_set() -> tuple[GameId, ...]:
    z = number(0)
    half = make_game([z], 0, [z])
    fixed = [z, number(1), number(-1),
             make_game([number(1)], 0, [number(-1)]),
             make_game([number(2)], 1, [number(0)]),
             identity_game(),
             make_game([number(1), half], 0, [half, number(-1)])]
    params = ImpartialParams(max_depth=3, max_branch=2,
                             palette=(Fraction(-2), Fraction(-1), Fraction(1), Fraction(2)),
                             leaf_probability=0.25, seed=1729)
    rng = random.Random(params.seed)
    for _ in range(12):
        fixed.append(random_impartial(params, rng))
    return tuple(dict.fromkeys(fixed))


def inverse_search(g: GameId, op: Operator, depth: int = 2,
                   budget: int = 5000) -> Optional[GameId]:
    """Look for an impartial Y that cancels `g` under op.

    A candidate is accepted when composing g with Y and then with each of
    a fixed probe set never changes the probe's outcome.  The search is a
    bounded heuristic: None means no inverse within bounds and probes.
    """
    probes = _probe_set()
    tried = 0
    for y in _impartial_stream(g, depth, branching=2):
        tried += 1
        if tried > budget:
            break
        combined = sum_games(op, [g, y])
        if all(outcome_of_scores(eval_sum(op, [combined, p])) == outcome(p)
               for p in probes):
            return y
    return None
