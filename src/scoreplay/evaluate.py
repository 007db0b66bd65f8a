"""Final scores and outcome classes under optimal alternating play.

Left maximizes and Right minimizes the net score (Left's total minus
Right's).  Play ends the moment the player to move has no option; the
score of the node reached is the final score.  `final_scores(g)` returns
the pair (Left moving first, Right moving first), folded up the tree from
its leaves by `game._postorder`, so a game of any depth evaluates.  It
folds over shapes, relative to their roots (see `game`).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .game import GameId, Raw, _node, _pairs, _postorder, _public, left_options, right_options


class FinalScores(NamedTuple):
    sl: Fraction  # final score with Left moving first
    sr: Fraction  # final score with Right moving first


class Outcome(Enum):
    L = "L"        # Left wins regardless of who starts
    R = "R"        # Right wins regardless of who starts
    N = "N"        # the first player wins
    P = "P"        # the second player wins
    TIE = "Tie"    # tied either way

    def __str__(self) -> str:
        return self.value


_scores_memo: dict[GameId, FinalScores] = {}


def final_scores(g: GameId) -> FinalScores:
    return _scores(*_node(g))


def _scores(y: GameId, s: Raw) -> FinalScores:
    """`final_scores` of the game of shape `y` at root score `s`."""
    sl, sr = _postorder(y, _best_replies, _scores_memo)
    return FinalScores(_public(sl + s), _public(sr + s))


def _best_replies(left, right, memo) -> FinalScores:
    """A shape's final scores relative to its root, from its options'."""
    return FinalScores(max(d + memo[x].sr for d, x in _pairs(left)) if left else 0,
                       min(d + memo[x].sl for d, x in _pairs(right)) if right else 0)


def outcome_of_scores(scores: FinalScores) -> Outcome:
    """Classify a (Left-first, Right-first) final-score pair.

    A positive final score is a Left win for that start, negative a Right
    win, zero a tie.  Combining the two starts gives five classes; the
    mixed zero cases side with whoever wins their half outright.
    """
    a = (scores.sl > 0) - (scores.sl < 0)
    b = (scores.sr > 0) - (scores.sr < 0)
    if a > 0 and b >= 0 or a == 0 and b > 0:
        return Outcome.L
    if a < 0 and b <= 0 or a == 0 and b < 0:
        return Outcome.R
    if a > 0 and b < 0:
        return Outcome.N
    if a < 0 and b > 0:
        return Outcome.P
    return Outcome.TIE


def outcome(g: GameId) -> Outcome:
    return outcome_of_scores(final_scores(g))


def best_line(g: GameId, first_player: str = "L") -> list[GameId]:
    """One optimal line of play, starting with `first_player` ('L' or 'R').

    Ties between equally good options break toward the first option in
    canonical stored order, so the line is reproducible.
    """
    if first_player not in ("L", "R"):
        raise ValueError(f"first_player must be 'L' or 'R', got {first_player!r}")
    line = [g]
    side = first_player
    while True:
        options = left_options(g) if side == "L" else right_options(g)
        if not options:
            return line
        # max and min keep the first of equal options
        g = (max(options, key=lambda x: final_scores(x).sr) if side == "L"
             else min(options, key=lambda x: final_scores(x).sl))
        line.append(g)
        side = "R" if side == "L" else "L"
