"""Heap games described by octal rulesets, and their scored values.

An octal ruleset is a digit string d1 d2 ... dk with a rational point
award p_i for removing exactly i beans.  Digit bits say what may remain
of the heap after removing i beans: bit 0 permits taking a whole heap
(nothing remains), bit 1 permits leaving one nonempty heap, bit 2 permits
splitting the rest into two nonempty heaps.  A heap of size zero, like
any heap no rule applies to, is dead weight and vanishes from positions,
since nobody can ever touch it.

`grundy_value(op, position)` is the mover-relative value of a position
under one of the four sum operators: the best, over the legal combined
moves of whoever is to move, of (points collected) - (value left to the
opponent).  The empty position, and any position with no legal combined
move, is worth 0.  Under the sequential operator positions are ordered
and only the first live heap may be played; splitting rulesets are
rejected there because a split has no sequential reading.

Values are computed by `_negamax` over the combined moves that
`operators._successors` lists, in integer arithmetic scaled by the common
denominator of the point awards; results are exact Fractions.  Both
players have the same moves in a heap position, so one memo per operator
holds the value of a state to whoever is to move.  A heap needs no store:
in a position whose distinct rulesets, in canonical order, are
r_0 .. r_{k-1}, a heap of n beans of r_i is the int n * k + i, which is
just n for a position of one ruleset.  A state is a tuple of those ints,
sorted for the commutative operators, so it hashes and compares as a flat
tuple of ints, as a state of interned game ids does.  Equal rulesets share
one table of `_gs_tables`, keyed on the position's rulesets: the scale,
each heap's scaled moves, built once, and each operator's memo.
`_negamax` is the engine's last recursion, a frame a ply; `heap_game`
folds (operator, ruleset, size) keys by `game._postorder`, so its trees
build at any depth.  Heap sizes must be ints; nothing is truncated into
another heap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Optional, Sequence

from .game import GameId, _postorder, as_score, number, make_game, shift
from .operators import Moves, Operator, _check_op, _successors, sum_games


def default_points(digits: Sequence[int]) -> tuple[Fraction, ...]:
    """Point scheme used when a ruleset omits its points.

    Removing i beans scores i points wherever the digit value is 1, 2 or
    3; every other digit scores nothing.
    """
    return tuple(Fraction(i) if d in (1, 2, 3) else Fraction(0)
                 for i, d in enumerate(digits, start=1))


@dataclass(frozen=True)
class OctalRuleset:
    digits: tuple[int, ...]
    points: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        digits = tuple(int(d) for d in self.digits)
        if not digits:
            raise ValueError("a ruleset needs at least one digit")
        if any(d < 0 or d > 7 for d in digits):
            raise ValueError(f"octal digits must be 0..7: {digits}")
        if not any(digits):
            raise ValueError("a ruleset needs at least one nonzero digit")
        points = self.points
        if points is None:
            points = default_points(digits)
        else:
            points = tuple(as_score(p) for p in points)
            if len(points) != len(digits):
                raise ValueError(
                    f"{len(digits)} digits but {len(points)} point values")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "points", points)
        # every grundy_value call looks its table up by its rulesets;
        # hashing the Fraction points afresh each time is wasted work
        object.__setattr__(self, "_hash", hash((digits, points)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def can_split(self) -> bool:
        return any(d & 4 for d in self.digits)

    def notation(self) -> str:
        text = "0." + "".join(str(d) for d in self.digits)
        return text + ":" + ",".join(str(p) for p in self.points)

    def __str__(self) -> str:
        return self.notation()


Heap = tuple[OctalRuleset, int]
Position = Iterable[Heap]

RawMoves = tuple[tuple[Fraction, tuple[int, ...]], ...]


def _raw_moves(rules: OctalRuleset, n: int) -> RawMoves:
    out = []
    for k in range(1, min(n, len(rules.digits)) + 1):
        d = rules.digits[k - 1]
        if not d:
            continue
        p = rules.points[k - 1]
        rest = n - k
        if d & 1 and rest == 0:
            out.append((p, ()))
        if d & 2 and rest >= 1:
            out.append((p, (rest,)))
        if d & 4 and rest >= 2:
            for a in range(1, rest // 2 + 1):
                out.append((p, (a, rest - a)))
    return tuple(out)


def _live(rules: OctalRuleset, n: int) -> bool:
    """Whether a heap of n beans of `rules` has a move at all.

    From n = len(digits) + 2 on, every take leaves at least two beans, so
    bit 0 never applies and bits 1 and 2 always do: liveness there is the
    liveness at len(digits) + 2, which bounds the check by the digits.
    """
    return bool(_raw_moves(rules, min(n, len(rules.digits) + 2)))


def _as_size(n) -> int:
    """`n` if it is an int; a float, Fraction, str or bool raises TypeError
    rather than being truncated into some other heap."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"heap sizes must be ints, got {type(n).__name__} {n!r}")
    return n


def _as_rules(rules) -> OctalRuleset:
    """`rules` if it is an OctalRuleset; anything else raises TypeError."""
    if not isinstance(rules, OctalRuleset):
        raise TypeError(f"expected an OctalRuleset, got {type(rules).__name__}")
    return rules


def heap_moves(rules: OctalRuleset, n: int) -> RawMoves:
    """Legal single-heap moves on a heap of n: (points, remaining heap sizes).

    Remainders are unordered (sorted ascending); empty tuple means the
    heap is gone.  Deterministic order: beans removed ascending, then the
    permitted shapes in bit order.
    """
    _as_rules(rules)
    if _as_size(n) < 0:
        raise ValueError(f"heap size must be nonnegative: {n}")
    return _raw_moves(rules, n)


#: (moves, scale, {op: (memo, groups) of `_negamax`}) for one set of rulesets
Table = tuple[Moves, int, dict[Operator, tuple[dict, dict]]]

#: the position's rulesets in canonical order -> their table: the operators
#: share one copy of the moves, and no per-state key carries the operator
_gs_tables: dict[tuple[OctalRuleset, ...], Table] = {}


def _table(rulesets: tuple[OctalRuleset, ...]) -> Table:
    """A fresh `_gs_tables` entry.  Its `moves`, as `operators._successors`
    takes them, map heap n * k + i, once, to (points times the scale, live
    remainders): dead ones are dropped here, so every state is live."""
    k = len(rulesets)
    scale = reduce(math.lcm, (p.denominator for rules in rulesets for p in rules.points), 1)
    cache: dict[int, tuple] = {}

    def moves(h: int) -> tuple:
        got = cache.get(h)
        if got is None:     # racing threads both store the same moves: no lock
            n, i = divmod(h, k)
            rules = rulesets[i]
            got = cache[h] = tuple(
                (int(p * scale), tuple(m * k + i for m in rem if _live(rules, m)))
                for p, rem in _raw_moves(rules, n))
        return got
    return moves, scale, {}


def _check_rules(op: Operator, rules: OctalRuleset) -> None:
    """Reject a non-operator, a non-ruleset, and a splitting ruleset under
    `op` sequential."""
    _check_op(op)
    _as_rules(rules)
    if op is Operator.SEQUENTIAL and rules.can_split:
        raise ValueError(
            f"splitting ruleset {rules.notation()} has no sequential reading")


def _prepare(op: Operator, position: Position) -> tuple[tuple, Table]:
    """The live heaps of `position` as a canonical state, and its table."""
    _check_op(op)
    heaps = []
    rulesets = []       # a position holds few: a list finds them without hashing
    for rules, n in position:
        if rules not in rulesets:
            _check_rules(op, rules)
            rulesets.append(rules)
        if _as_size(n) < 0:
            raise ValueError(f"heap sizes are nonnegative: {n}")
        heaps.append((rules, n))
    key = tuple(sorted(rulesets, key=lambda r: (r.digits, r.points)))
    # setdefault only on a miss: its default would be built on every call
    table = _gs_tables.get(key) or _gs_tables.setdefault(key, _table(key))
    k, moves = len(key), table[0]
    state = [h for rules, n in heaps if moves(h := n * k + key.index(rules))]
    if op is not Operator.SEQUENTIAL:
        state.sort()
    return tuple(state), table


def _negamax(op: Operator, state: tuple, moves: Moves, memo: dict, groups: dict) -> int:
    """Value of `state` to the player to move: their best points minus the
    successor's value to the opponent, or 0 with no move.  `memo` and
    `groups` belong to `op` and `moves`.  One frame and one generator frame
    per ply."""
    if not state:
        return 0
    val = memo.get(state)
    if val is None:
        known = memo.get    # a successor's memo hit costs no call
        val = max((pts - (v if (v := known(succ)) is not None else _negamax(op, succ, moves, memo, groups))
                   for succ, pts in _successors(op, state, moves, groups)), default=0)
        memo[state] = val
    return val


def grundy_value(op: Operator, position: Position) -> Fraction:
    """Mover-relative value of a heap position under `op`."""
    state, (moves, scale, memos) = _prepare(op, position)
    memo, groups = memos.get(op) or memos.setdefault(op, ({}, {}))
    return Fraction(_negamax(op, state, moves, memo, groups), scale)


def heap_value(rules: OctalRuleset, n: int, op: Operator = Operator.DISJUNCTIVE) -> Fraction:
    """Value of the single heap {n}; n = 0 is the empty position."""
    return grundy_value(op, [(rules, n)])


_tree_memo: dict[tuple[Operator, OctalRuleset, int], GameId] = {}


def heap_game(rules: OctalRuleset, n: int, op: Operator = Operator.DISJUNCTIVE,
              cap: int = 12) -> GameId:
    """The heap of n as an explicit game tree.

    Both players have the same moves; a move that removes i beans swings
    the running score p_i toward the mover.  When a move splits the heap,
    the two parts continue as a sum under `op`, so the tree composed with
    other heaps by `op` plays exactly like the flat heap position.  The
    tree on its own satisfies SL(heap_game(rules, n)) = heap_value(rules, n)
    for the disjunctive operator.

    Tree size grows fast with n; `cap` is a guard, not a suggestion.
    """
    if _as_size(n) > cap:
        raise ValueError(f"heap {n} exceeds cap {cap}; raise cap knowingly")
    if n < 0:
        raise ValueError(f"heap size must be nonnegative: {n}")
    _check_rules(op, rules)
    return _postorder((op, rules, n), _heap_tree, _tree_memo, _heap_parts)


def _heap_parts(key: tuple[Operator, OctalRuleset, int]) -> tuple[tuple, Iterator]:
    """Heap `key` = (op, rules, n) as `heap_game` folds it: its moves, and their parts."""
    op, rules, n = key
    moves = [(p, [(op, rules, m) for m in rem]) for p, rem in _raw_moves(rules, n)]
    return (op, moves), (part for _, parts in moves for part in parts)


def _heap_tree(op: Operator, moves: list, memo: dict) -> GameId:
    lefts, rights = [], []
    for p, parts in moves:
        sub = (number(0) if not parts else memo[parts[0]] if len(parts) == 1
               else sum_games(op, [memo[part] for part in parts]))
        lefts.append(shift(sub, p))
        rights.append(shift(sub, -p))
    return make_game(lefts, 0, rights)


def value_table(op: Operator, rules: OctalRuleset, n_max: int,
                tail: Position = ()) -> list[Fraction]:
    """Values of {n} + tail for n = 0..n_max (n = 0 means the tail alone).

    Under the sequential operator the varying heap is played first, then
    the tail in its given order.
    """
    _check_rules(op, rules)
    if _as_size(n_max) < 0:
        raise ValueError("n_max must be nonnegative")
    tail = tuple(tail)
    return [grundy_value(op, ((rules, n),) + tail) for n in range(n_max + 1)]


@dataclass(frozen=True)
class PeriodReport:
    preperiod: int       # first index from which the repetition holds
    period: int          # repetition length, >= 1
    confirmations: int   # indices actually checked

    def to_dict(self) -> dict:
        return {"preperiod": self.preperiod, "period": self.period,
                "confirmations": self.confirmations}


def _check_min_confirm(min_confirm: int) -> None:
    """Reject a `min_confirm` below 1, before any table is built for it."""
    if min_confirm < 1:
        raise ValueError("min_confirm must be at least 1")


def find_period(values: Sequence, min_confirm: int = 10) -> Optional[PeriodReport]:
    """Smallest eventual repetition in `values`, if the data supports one.

    Returns the (period, preperiod) pair minimal in that order such that
    values[i + period] == values[i] for every i from the preperiod up to
    the end of the table, with at least `min_confirm` indices checked.
    None when no repetition is confirmed, e.g. on strictly growing data.
    """
    _check_min_confirm(min_confirm)
    vals = list(values)
    total = len(vals)
    for p in range(1, total):
        last_bad = -1
        for i in range(total - p):
            if vals[i + p] != vals[i]:
                last_bad = i
        start = last_bad + 1
        confirmations = total - p - start
        if confirmations >= min_confirm:
            return PeriodReport(start, p, confirmations)
    return None


@dataclass(frozen=True)
class OperatorPeriods:
    operator: Operator
    table: Optional[list]               # None when skipped
    period: Optional[PeriodReport]
    skipped: Optional[str] = None       # reason, when the operator was not run


@dataclass(frozen=True)
class PeriodComparison:
    ruleset: OctalRuleset
    tail: tuple
    n_max: int
    min_confirm: int
    reference_period: Optional[int]
    results: tuple[OperatorPeriods, ...]
    all_periods_equal: bool = field(default=False)

    def to_dict(self) -> dict:
        per_op = {}
        for r in self.results:
            entry: dict = {}
            if r.skipped is not None:
                entry["skipped"] = r.skipped
            else:
                entry["table"] = [_frac_json(v) for v in r.table]
                entry["period"] = r.period.to_dict() if r.period else None
            per_op[r.operator.value] = entry
        return {
            "ruleset": self.ruleset.notation(),
            "tail": [[rules.notation(), n] for rules, n in self.tail],
            "n_max": self.n_max,
            "min_confirm": self.min_confirm,
            "reference_period": self.reference_period,
            "operators": per_op,
            "all_periods_equal": self.all_periods_equal,
        }


def _frac_json(v: Fraction):
    return int(v) if v.denominator == 1 else str(v)


def reference_period(rules: OctalRuleset) -> Optional[int]:
    """Twice the position of the last digit that is not 0 or 1.

    The guessed repetition length for tables of this ruleset; undefined
    (None) when every digit is 0 or 1.
    """
    k = None
    for i, d in enumerate(rules.digits, start=1):
        if d not in (0, 1):
            k = i
    return 2 * k if k else None


def compare_periods(rules: OctalRuleset, tail: Position = (), n_max: int = 200,
                    min_confirm: int = 10) -> PeriodComparison:
    """Value tables and detected periods for one ruleset under all operators.

    The sequential operator is skipped (with a reason, not an error) when
    the ruleset can split, since no sequential reading exists there.
    """
    _check_min_confirm(min_confirm)
    tail = tuple(tail)
    splitty = any(_as_rules(r).can_split for r, _ in ((rules, 0),) + tail)
    results = []
    found: list[Optional[PeriodReport]] = []
    for op in Operator:
        if op is Operator.SEQUENTIAL and splitty:
            results.append(OperatorPeriods(op, None, None,
                                           "splitting ruleset has no sequential reading"))
            continue
        table = value_table(op, rules, n_max, tail)
        report = find_period(table, min_confirm)
        results.append(OperatorPeriods(op, table, report))
        found.append(report)
    equal = bool(found) and all(r is not None for r in found) and \
        len({r.period for r in found}) == 1
    return PeriodComparison(rules, tail, n_max, min_confirm,
                            reference_period(rules), tuple(results), equal)
