"""Reference evaluators the benchmark checks the engine against.

Nothing here imports scoreplay.  Both evaluators are written from the
rules as the package README states them, with their own move generators
and memos, so an engine bug cannot hide by being shared.

* `HeapEvaluator` scores heap positions of one octal ruleset under the
  four sum operators.  It walks states with an explicit stack, so no
  position is too deep for Python's recursion limit.
* `brute_force_sum` scores a sum of plain-tuple trees by enumerating
  every line of play.  It has no memo and is meant for small sums.
* `walk_final_scores` scores one plain-tuple tree of any depth with an
  explicit stack.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

DISJUNCTIVE = "disjunctive"
CONJUNCTIVE = "conjunctive"
SELECTIVE = "selective"
SEQUENTIAL = "sequential"
OPERATORS = (DISJUNCTIVE, CONJUNCTIVE, SELECTIVE, SEQUENTIAL)


class Ruleset:
    """An octal ruleset: digit k governs taking k beans, worth points[k-1].

    Bit 0 of a digit allows taking the whole heap, bit 1 leaving one
    nonempty heap, bit 2 splitting what is left into two nonempty heaps.
    """

    def __init__(self, digits, points):
        self.digits = tuple(int(d) for d in digits)
        self.points = tuple(Fraction(p) for p in points)
        if len(self.digits) != len(self.points):
            raise ValueError("one point value per digit")

    @classmethod
    def parse(cls, text: str) -> "Ruleset":
        """'0.33:1,2' form; the points part is required here."""
        head, _, tail = text.partition(":")
        digits = head[2:] if head.startswith("0.") else head
        return cls([int(c) for c in digits], [Fraction(p) for p in tail.split(",")])

    def notation(self) -> str:
        return ("0." + "".join(map(str, self.digits)) + ":"
                + ",".join(str(p) for p in self.points))

    @property
    def can_split(self) -> bool:
        return any(d & 4 for d in self.digits)

    def moves(self, n: int) -> list[tuple[Fraction, tuple[int, ...]]]:
        """(points, remaining heaps) for every legal take from a heap of n."""
        out = []
        for k, (d, p) in enumerate(zip(self.digits, self.points), start=1):
            rest = n - k
            if rest < 0:
                break
            if d & 1 and rest == 0:
                out.append((p, ()))
            if d & 2 and rest > 0:
                out.append((p, (rest,)))
            if d & 4:
                for a in range(1, rest // 2 + 1):
                    out.append((p, (a, rest - a)))
        return out


class HeapEvaluator:
    """Mover-relative values of heap positions of one ruleset.

    The value of a position is the best, over the mover's legal combined
    moves, of the points collected minus the value of the position left
    to the opponent; a position with no legal move is worth 0.  Heaps
    with no legal take are dropped, since nobody can touch them.
    """

    def __init__(self, rules: Ruleset, op: str):
        if op == SEQUENTIAL and rules.can_split:
            raise ValueError("a split has no sequential reading")
        self.rules = rules
        self.op = op
        self._moves: dict[int, list] = {}
        self._memo: dict[tuple, Fraction] = {(): Fraction(0)}

    def _heap_moves(self, n: int) -> list:
        got = self._moves.get(n)
        if got is None:
            got = [(p, tuple(m for m in rem if self.rules.moves(m)))
                   for p, rem in self.rules.moves(n)]
            self._moves[n] = got
        return got

    def state(self, heaps) -> tuple:
        live = [n for n in heaps if n > 0 and self._heap_moves(n)]
        return tuple(live) if self.op == SEQUENTIAL else tuple(sorted(live))

    def successors(self, state: tuple) -> dict[tuple, Fraction]:
        """{successor state: best points} over the mover's combined moves."""
        if self.op == SEQUENTIAL:
            out: dict[tuple, Fraction] = {}
            for p, rem in self._heap_moves(state[0]):
                succ = rem + state[1:]
                if succ not in out or p > out[succ]:
                    out[succ] = p
            return out
        if self.op == DISJUNCTIVE:
            out = {}
            for i, n in enumerate(state):
                others = state[:i] + state[i + 1:]
                for p, rem in self._heap_moves(n):
                    succ = tuple(sorted(others + rem))
                    if succ not in out or p > out[succ]:
                        out[succ] = p
            return out
        # conjunctive: every heap moves; selective: any nonempty subset.
        # Fold the heaps in one at a time, keeping only the best points for
        # each (parts so far, moved anything) pair.
        partial: dict[tuple, Fraction] = {((), False): Fraction(0)}
        for n in state:
            choices = [(p, rem, True) for p, rem in self._heap_moves(n)]
            if self.op == SELECTIVE:
                choices.append((Fraction(0), (n,), False))
            grown: dict[tuple, Fraction] = {}
            for ((parts, moved), pts), (p, rem, moves) in product(partial.items(), choices):
                key = (tuple(sorted(parts + rem)), moved or moves)
                total = pts + p
                if key not in grown or total > grown[key]:
                    grown[key] = total
            partial = grown
        return {parts: pts for (parts, moved), pts in partial.items() if moved}

    def value(self, heaps) -> Fraction:
        root = self.state(heaps)
        memo = self._memo
        stack = [root]
        while stack:
            s = stack[-1]
            if s in memo:
                stack.pop()
                continue
            succs = self.successors(s)
            todo = [t for t in succs if t not in memo]
            if todo:
                stack.extend(todo)
                continue
            memo[s] = max((p - memo[t] for t, p in succs.items()), default=Fraction(0))
            stack.pop()
        return memo[root]


# Plain-tuple trees: (left options, score, right options), options tuples.

def leaf(s) -> tuple:
    return ((), Fraction(s), ())


def tree_text(g: tuple) -> str:
    """The package's notation for a plain-tuple tree, written iteratively."""
    out: list[str] = []
    stack: list = [g]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        left, s, right = item
        if not left and not right:
            out.append(str(s))
            continue
        seq: list = ["{"]
        seq += _joined(left) + ["|" + str(s) + "|"] + _joined(right) + ["}"]
        stack.extend(reversed(seq))
    return "".join(out)


def _joined(options) -> list:
    if not options:
        return ["."]
    seq: list = []
    for i, o in enumerate(options):
        if i:
            seq.append(",")
        seq.append(o)
    return seq


def walk_final_scores(g: tuple) -> tuple[Fraction, Fraction]:
    """(SL, SR) of one tree by an explicit-stack post-order walk."""
    done: dict[int, tuple[Fraction, Fraction]] = {}
    stack = [(g, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        left, s, right = node
        if not expanded:
            stack.append((node, True))
            stack.extend((x, False) for x in left + right)
            continue
        sl = max(done[id(x)][1] for x in left) if left else s
        sr = min(done[id(x)][0] for x in right) if right else s
        done[id(node)] = (sl, sr)
    return done[id(g)]


def _sum_moves(op: str, comps: tuple, side: int) -> list[tuple]:
    """Component tuples the `side` player (0 Left, 2 Right) can move to."""
    if op == SEQUENTIAL:
        # finished components ahead of the head keep their scores
        for h, c in enumerate(comps):
            if c[0] or c[2]:
                return [comps[:h] + (o,) + comps[h + 1:] for o in c[side]]
        return []
    if op == DISJUNCTIVE:
        return [comps[:i] + (o,) + comps[i + 1:]
                for i, c in enumerate(comps) for o in c[side]]
    movable = [i for i, c in enumerate(comps) if c[side]]
    out = []
    for picks in product(*[[None] + list(comps[i][side]) for i in movable]):
        if op == CONJUNCTIVE and None in picks:
            continue
        if all(p is None for p in picks):
            continue
        new = list(comps)
        for i, p in zip(movable, picks):
            if p is not None:
                new[i] = p
        out.append(tuple(new))
    return out


def brute_force_sum(op: str, comps) -> tuple[Fraction, Fraction]:
    """(SL, SR) of the sum of plain-tuple trees, every line played out.

    A composite position scores the sum of its components' scores; play
    ends when the player to move has no combined move.
    """
    comps = tuple(comps)

    def play(state: tuple, side: int) -> Fraction:
        nxt = _sum_moves(op, state, side)
        if not nxt:
            return sum((c[1] for c in state), Fraction(0))
        values = [play(t, 2 - side) for t in nxt]
        return max(values) if side == 0 else min(values)

    return play(comps, 0), play(comps, 2)


def brute_force_period(table, min_confirm: int):
    """(preperiod, period, confirmations) as the package defines a period.

    The smallest period p, with the smallest preperiod, such that
    table[i + p] == table[i] from the preperiod to the end of the table on
    at least `min_confirm` indices; None when there is none.
    """
    total = len(table)
    for p in range(1, total):
        start = total - p
        while start > 0 and table[start - 1] == table[start - 1 + p]:
            start -= 1
        if total - p - start >= min_confirm:
            return start, p, total - p - start
    return None


def self_check() -> list[str]:
    """Hand-worked cases; returns the ones the evaluators get wrong."""
    bad = []
    take2 = Ruleset((3, 3), (1, 2))
    got = [HeapEvaluator(take2, DISJUNCTIVE).value([n]) for n in range(8)]
    if got != [0, 1, 2, 1, 0, 1, 2, 1]:
        bad.append(f"0.33:1,2 disjunctive gave {got}, wanted 0,1,2,1 repeating")
    # one heap of 5 under 0.007:0,0,1: take 3 and split 2 into 1+1, worth 1
    split = Ruleset((0, 0, 7), (0, 0, 1))
    for op in (DISJUNCTIVE, CONJUNCTIVE, SELECTIVE):
        if HeapEvaluator(split, op).value([5]) != 1:
            bad.append(f"0.007:0,0,1 heap 5 {op} is not 1")
    # {5, 5} conjunctive: both heaps move at once, 1 + 1
    if HeapEvaluator(split, CONJUNCTIVE).value([5, 5]) != 2:
        bad.append("0.007:0,0,1 heaps {5,5} conjunctive is not 2")
    g = ((leaf(4),), Fraction(3), (leaf(2),))
    if walk_final_scores(g) != (4, 2) or brute_force_sum(DISJUNCTIVE, [g]) != (4, 2):
        bad.append("{4|3|2} does not score SL 4, SR 2 (outcome L)")
    if brute_force_sum(SEQUENTIAL, [leaf(1), leaf(1)]) != (2, 2):
        bad.append("sequential 1 + 1 does not score 2")
    if tree_text(g) != "{4|3|2}" or tree_text(((), Fraction(-1, 2), (g,))) != "{.|-1/2|{4|3|2}}":
        bad.append("tree_text does not write the package notation")
    if brute_force_period([0, 1, 2, 1] * 5, 5) != (0, 4, 16):
        bad.append("period of 0,1,2,1 repeating is not 4 from 0")
    if brute_force_period(list(range(30)), 1) is not None:
        bad.append("an increasing table has a period")
    return bad
