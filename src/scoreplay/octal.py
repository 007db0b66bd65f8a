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

Values are exact Fractions, computed in integer arithmetic scaled by the
common denominator of the point awards.  `grundy_value` is the one place
that picks how.  Where one of these reductions is proved, it sums single
heaps; everywhere else the general `_negamax` plays out the combined
moves that `operators._successors` lists.

* The lockstep sum (C. A. B. Smith, "Graphs and composite games", J.
  Combin. Theory 1 (1966); Conway, On Numbers and Games, ch. 14).  Under
  the conjunctive sum a position of heaps is worth the sum of its heaps'
  values, v(h) being the best, over h's moves, of the points less the
  sum of v over the parts left, or 0 with no move.  Hypothesis: the
  components are impartial heaps.  A heap where the mover has no move is
  then dead for both players, so every live heap moves on every turn, and
  each heap's t-th move is made by the same player in every heap.  Proof,
  by induction on the position: a turn picks a move in each live heap,
  independently, and the position it leaves is worth the sum of its
  heaps' values, so the best total of points less that sum is the sum,
  over heaps, of each heap's best.  Tree sums do not reduce so: a tree
  component may offer options to one player only, and then it sits out
  the other's turn while the rest move on.
* One heap of a ruleset that cannot split stays one heap, and all four
  operators play a one-component position alike, by the same recurrence.

`_lockstep` fills each heap's value by one loop up the sizes of its
ruleset, over the table's moves.  `_general_value` is `_negamax` alone,
with memos of its own, so the checks that hold the reductions to the
general recursion never read a value a reduction made.

Both players have the same moves in a heap position, so one memo per
operator holds the value of a state to whoever is to move; the lockstep
sum keeps each heap's value there under the state (h,), where the general
recursion finds it too.  A heap needs no store: in a position whose
distinct rulesets, in canonical order, are r_0 .. r_{k-1}, a heap of n
beans of r_i is the int n * k + i, which is just n for a position of one
ruleset.  A state is a tuple of those ints, sorted for the commutative
operators, so it hashes and compares as a flat tuple of ints, as a state
of interned game ids does.  Equal rulesets share one table of
`_gs_tables`, keyed on the position's rulesets: the scale, each heap's
scaled moves, built once, and each operator's memos and heap trees.
`_negamax` is the engine's last recursion, a frame a ply; `heap_game`
folds heap sizes by `game._postorder` over the same moves, so its trees
build at any depth.  A heap tree is a shape (see `game`): a move worth p
is the option (p, part) for Left and (-p, part) for Right.  Heap sizes
must be nonnegative ints; nothing is truncated into another heap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional, Sequence

from .game import GameId, _LEAF, _mirrored, _postorder, as_score
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
        digits = tuple(self.digits)
        if any(isinstance(d, bool) or not isinstance(d, int) for d in digits):
            raise TypeError(f"octal digits must be ints: {digits!r}")
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
        # every grundy_value call looks its table up by its rulesets, and
        # every heap_game call checks can_split: scanning the Fraction
        # points or the digits afresh each time is wasted work
        object.__setattr__(self, "_hash", hash((digits, points)))
        object.__setattr__(self, "can_split", any(d & 4 for d in digits))

    def __hash__(self) -> int:
        return self._hash

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
    """`n` if it is an int of at least 0.  A float, Fraction, str or bool
    raises TypeError rather than being truncated into some other heap, and
    a negative int raises ValueError."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"heap sizes must be ints, got {type(n).__name__} {n!r}")
    if n < 0:
        raise ValueError(f"heap sizes must be nonnegative, got {n}")
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
    return _raw_moves(rules, _as_size(n))


#: `_negamax`'s values and groups, `heap_game`'s trees, `_lockstep`'s frontier
Memos = tuple[dict, dict, dict[int, GameId], list[int]]
#: (moves, scale, {op or (op, "general"): its memos})
Table = tuple[Moves, int, dict[object, Memos]]

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


def _memos(memos: dict, key, k: int) -> Memos:
    """The memos under `key` of a table of k rulesets, made on first use:
    the values and groups of `_negamax`, the trees of `heap_game`, and the
    frontier of `_lockstep`.  `key` is an operator, or (operator, "general")
    for `_general_value`."""
    return memos.get(key) or memos.setdefault(key, ({}, {}, {}, list(range(k))))


def _check_rules(op: Operator, rules: OctalRuleset) -> None:
    """Reject a non-operator, a non-ruleset, and a splitting ruleset under
    `op` sequential."""
    _check_op(op)
    _as_rules(rules)
    if op is Operator.SEQUENTIAL and rules.can_split:
        raise ValueError(
            f"splitting ruleset {rules.notation()} has no sequential reading")


def _prepare(op: Operator, position: Position) -> tuple[tuple, Table, tuple[OctalRuleset, ...]]:
    """The live heaps of `position` as a canonical state, its table, and
    the rulesets that number its heaps."""
    _check_op(op)
    heaps = []
    rulesets = []       # a position holds few: a list finds them without hashing
    for rules, n in position:
        if rules not in rulesets:
            _check_rules(op, rules)
            rulesets.append(rules)
        heaps.append((rules, n))
    key = tuple(sorted(rulesets, key=lambda r: (r.digits, r.points)))
    # setdefault only on a miss: its default would be built on every call
    table = _gs_tables.get(key) or _gs_tables.setdefault(key, _table(key))
    k, moves = len(key), table[0]
    state = [h for rules, n in heaps if moves(h := _as_size(n) * k + key.index(rules))]
    if op is not Operator.SEQUENTIAL:
        state.sort()
    return tuple(state), table, key


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


def _lockstep(state: tuple, moves: Moves, k: int, memo: dict, filled: list[int]) -> int:
    """The sum over the heaps h of `state` of v(h): the best, over h's
    moves, of the points less the values of the parts, or 0 with no move.

    v(h) is kept in `memo` under (h,).  A miss fills every live heap of
    h's ruleset, from the one above filled[h % k] up to h, in one loop
    up the sizes: every live heap of ruleset i up to filled[i] is in
    `memo`, so each part is found there."""
    total = 0
    for h in state:
        v = memo.get((h,))
        if v is None:
            i = h % k
            for m in range(filled[i] + k, h + 1, k):
                if ms := moves(m):
                    memo[m,] = max(p - sum([memo[x,] for x in parts]) for p, parts in ms)
            filled[i] = h   # a racing thread may set it lower: a refill, not an error
            v = memo[h,]
        total += v
    return total


def grundy_value(op: Operator, position: Position) -> Fraction:
    """Mover-relative value of a heap position under `op`.

    The one place that picks how: by the lockstep sum wherever it is
    proved (see the module docstring), else by `_negamax`."""
    state, (moves, scale, memos), rulesets = _prepare(op, position)
    k = len(rulesets)
    memo, groups, _, filled = _memos(memos, op, k)
    if op is Operator.CONJUNCTIVE or len(state) < 2 and not any(
            rulesets[h % k].can_split for h in state):
        return Fraction(_lockstep(state, moves, k, memo, filled), scale)
    return Fraction(_negamax(op, state, moves, memo, groups), scale)


def _general_value(op: Operator, position: Position) -> Fraction:
    """`grundy_value` by `_negamax` alone, in memos of its own: the check
    that a reduction must pass never reads a value the reduction made."""
    state, (moves, scale, memos), rulesets = _prepare(op, position)
    memo, groups, _, _ = _memos(memos, (op, "general"), len(rulesets))
    return Fraction(_negamax(op, state, moves, memo, groups), scale)


def heap_value(rules: OctalRuleset, n: int, op: Operator = Operator.DISJUNCTIVE) -> Fraction:
    """Value of the single heap {n}; n = 0 is the empty position."""
    return grundy_value(op, [(rules, n)])


def heap_game(rules: OctalRuleset, n: int, op: Operator = Operator.DISJUNCTIVE,
              cap: int = 12) -> GameId:
    """The heap of n as an explicit game tree.

    Both players have the same moves; a move that removes i beans swings
    the running score p_i toward the mover.  When a move splits the heap,
    the two parts continue as a sum under `op`, so the tree composed with
    other heaps by `op` plays exactly like the flat heap position.  The
    tree on its own satisfies SL(heap_game(rules, n)) = heap_value(rules, n)
    for the disjunctive operator.  Trees are kept by size in the table of
    `rules`, beside its values, and built over the same moves: a part with
    no move is left out, as from any sum.

    Tree size grows fast with n; `cap` is a guard, not a suggestion.
    """
    # a hit reads three dicts and calls no helper; only an int within the
    # cap may hit, since True or 3.0 would find the tree of 1 or 3
    try:
        table = _gs_tables.get((rules,))
        entry = table[2].get(op) if table else None
    except TypeError:       # an unhashable ruleset or operator, rejected below
        table = entry = None
    got = entry[2].get(n) if entry and type(n) is int and n <= cap else None
    if got is not None:
        return got
    _check_rules(op, rules)
    if _as_size(n) > cap:
        raise ValueError(f"heap {n} exceeds cap {cap}; raise cap knowingly")
    moves, scale, memos = table or _gs_tables.setdefault((rules,), _table((rules,)))
    trees = (entry or _memos(memos, op, 1))[2]

    def expand(h):
        return (moves(h),), (m for _, parts in moves(h) for m in parts)

    def combine(ms, trees):
        return _mirrored((Fraction(pts, scale), _LEAF if not parts else trees[parts[0]]
                          if len(parts) == 1 else sum_games(op, [trees[m] for m in parts]))
                         for pts, parts in ms)

    return _postorder(n, combine, trees, expand)


def value_table(op: Operator, rules: OctalRuleset, n_max: int,
                tail: Position = ()) -> list[Fraction]:
    """Values of {n} + tail for n = 0..n_max (n = 0 means the tail alone).

    Under the sequential operator the varying heap is played first, then
    the tail in its given order.
    """
    _check_rules(op, rules)
    _as_size(n_max)
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
