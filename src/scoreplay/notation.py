"""Text form of games and octal rulesets.

Game grammar (whitespace never matters):

    game     := rational | '{' options '|' rational '|' options '}'
    options  := '.' | game (',' game)*
    rational := ['+'|'-'] digits ['/' digits]

The parser's methods are these productions: `game` and `options` are
generators that yield each sub-game and run on `game._unwind`, so no
nesting depth is too deep.  Digits are the ASCII 0-9 only.

A bare rational is the game with that score and no moves, and is also how
such games print: parse("{.|5|.}") formats back as "5".  The dot is the
only way to write an empty option set; "{1|2}" is not a game.  Scores are
exact ("1/3", never "0.333").

Files hold one game per line; '#' starts a comment.

Octal rulesets are written "0.337:1,2,0" - digits after the "0." (which
may be omitted), then optional ':' and one point value per digit, each a
rational as above.  When
points are omitted, removing i beans scores i points if digit i is 1, 2
or 3, and nothing otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Generator, Iterable

from .game import GameId, _node, _nodes, _unwind, make_game
from .octal import OctalRuleset


_DIGITS = frozenset("0123456789")
_OCTAL_DIGITS = frozenset("01234567")


class NotationError(ValueError):
    """Bad game or ruleset text; `position` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise NotationError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str):
        self.skip_ws()
        if self.peek() != char:
            self.error(f"expected {char!r}")
        self.pos += 1

    def rational(self) -> int | Fraction:
        """An int for a literal without '/', the store's canonical form."""
        start = self.pos
        if self.peek() in ("+", "-"):
            self.pos += 1
        digits = self.pos
        while self.peek() in _DIGITS:
            self.pos += 1
        if self.pos == digits:
            self.error("expected a number")
        num = int(self.text[start:self.pos])
        if self.peek() == "/":
            self.pos += 1
            dstart = self.pos
            while self.peek() in _DIGITS:
                self.pos += 1
            if self.pos == dstart:
                self.error("expected a denominator")
            den = int(self.text[dstart:self.pos])
            if den == 0:
                self.pos = dstart
                self.error("zero denominator")
            return Fraction(num, den)
        return num

    def game(self) -> Generator:
        """game := rational | '{' options '|' rational '|' options '}'"""
        self.skip_ws()
        c = self.peek()
        if c != "{":
            if c not in _DIGITS and c not in ("+", "-"):
                self.error("expected a game")
            return make_game((), self.rational(), ())
        self.pos += 1
        left = yield self.options()
        self.take("|")
        self.skip_ws()
        s = self.rational()
        self.skip_ws()
        if self.peek() != "|":
            self.error("expected '|' after the score (games are {options|score|options})")
        self.pos += 1
        right = yield self.options()
        self.take("}")
        return make_game(left, s, right)

    def options(self) -> Generator:
        """options := '.' | game (',' game)*"""
        self.skip_ws()
        if self.peek() == ".":
            self.pos += 1
            return []
        games = [(yield self.game())]
        self.skip_ws()
        while self.peek() == ",":
            self.pos += 1
            games.append((yield self.game()))
            self.skip_ws()
        return games


def parse_game(text: str) -> GameId:
    """Parse one game; raises NotationError with a position on bad input."""
    p = _Parser(text)
    g = _unwind(p.game())
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input after the game")
    return g


def format_score(value: Fraction) -> str:
    return str(value)


def format_game(g: GameId) -> str:
    """Canonical text for a game; round-trips through parse_game.

    Written from a stack of pending text and ids, so any depth prints.
    """
    _node(g)
    out = []
    stack: list = [g]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        left, s, right = _nodes[item]
        if left or right:
            stack += reversed(["{", *_listed(left), f"|{format_score(s)}|", *_listed(right), "}"])
        else:
            out.append(format_score(s))
    return "".join(out)


def _listed(options: tuple[GameId, ...]) -> list:
    """An option list as `format_game` writes it: ids between commas, or '.'."""
    if not options:
        return ["."]
    items = [options[0]]
    for x in options[1:]:
        items += [",", x]
    return items


def parse_game_lines(text: str | Iterable[str]) -> list[GameId]:
    """Games from file-style text: one per line, '#' comments, blanks skipped."""
    lines = text.splitlines() if isinstance(text, str) else text
    out = []
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if body:
            out.append(parse_game(body))
    return out


def parse_octal(text: str) -> OctalRuleset:
    """Parse a ruleset like '0.33:1,2', '337' or '0.007:0,0,1/2'.

    Each point value is a `rational` of the game grammar; error positions
    index `text` as given.
    """
    p = _Parser(text)
    p.skip_ws()
    if text.startswith("0.", p.pos):
        p.pos += 2
    first = p.pos
    while p.peek() in _OCTAL_DIGITS:
        p.pos += 1
    digits = tuple(int(c) for c in text[first:p.pos])
    c = p.peek()
    if c and c != ":" and not c.isspace():
        p.error(f"octal digit expected, got {c!r}")
    if not digits:
        p.error("expected ruleset digits")
    p.skip_ws()
    points = []         # stays empty only without a ':'
    while p.peek() == (":" if not points else ","):
        p.pos += 1
        p.skip_ws()
        points.append(p.rational())
        p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input after the ruleset")
    try:
        return OctalRuleset(digits, tuple(points) or None)
    except ValueError as e:
        raise NotationError(str(e), first) from None
