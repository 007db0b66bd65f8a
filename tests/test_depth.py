"""Whole-tree walks at any depth: no entry point is bounded by the call stack.

Each expected value comes from a loop over the levels of the line in the
test itself, never from the walk under test.  The heap evaluator still
recurses once per ply; a fresh-process test guards how many frames a ply
costs.
"""

import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import scoreplay
from scoreplay import (FinalScores, ImpartialParams, Operator, conjunctive_inverse,
                       eval_sum, final_scores, format_game, is_impartial, make_game,
                       max_score_magnitude, negate, number, outcome_of_scores,
                       parse_game, random_impartial, reverse, score, shift, store_size,
                       sum_games)
from scoreplay.notation import format_score

BOTTOM = 3      # score of the leaf at the end of every line


def _level(i):
    """Level i of a line, 0 being the root: its score and its side leaf's score."""
    return Fraction(i % 5 - 2, 1 + i % 3), i % 9 - 4


def _fold_line(depth, bottom, node):
    """`node(i, value, s, x)` from the bottom level up, starting from `bottom`."""
    value = bottom
    for i in reversed(range(depth)):
        s, x = _level(i)
        value = node(i, value, s, x)
    return value


def _build(depth, f=lambda v: v, swap=False):
    """The line with every score mapped by `f`, and sides swapped if `swap`.

    The line goes on through Left's option at even levels and through
    Right's at odd ones; the other side holds a leaf.  So both players
    walk all of it.
    """
    def node(i, g, s, x):
        on_left = (i % 2 == 0) != swap
        leaf = number(f(x))
        return make_game([g] if on_left else [leaf], f(s), [leaf] if on_left else [g])
    return _fold_line(depth, number(f(BOTTOM)), node)


@cache
def _line(depth):
    return _build(depth)


@cache
def _ladder(depth, c):
    """Every node scores `c`, with one option, the next node, on both sides."""
    g = number(c)
    for _ in range(depth):
        g = make_game([g], c, [g])
    return g


def _text(depth):
    prefixes, suffixes = [], []
    for i in range(depth):
        s, x = _level(i)
        prefixes.append("{" if i % 2 == 0 else f"{{{x}|{s}|")
        suffixes.append(f"|{s}|{x}}}" if i % 2 == 0 else "}")
    return "".join(prefixes) + str(BOTTOM) + "".join(reversed(suffixes))


def _round_trip(depth):
    text = _text(depth)
    return (format_game(_line(depth)), parse_game(text)), (text, _line(depth))


def _final_scores(depth):
    sl, sr = _fold_line(depth, (BOTTOM, BOTTOM),
                        lambda i, fs, s, x: (fs[1], x) if i % 2 == 0 else (x, fs[0]))
    return final_scores(_line(depth)), FinalScores(sl, sr)


#: the components that move in one turn of a sum of the line and a tail,
#: per operator: 0 the line alone, 1 the tail alone, 2 both
MOVERS = {Operator.DISJUNCTIVE: (0, 1), Operator.CONJUNCTIVE: (2,),
          Operator.SELECTIVE: (0, 1, 2), Operator.SEQUENTIAL: (0,)}


def _tail_scores(op, depth):
    """Final scores of the line summed with {1|0|-1} under `op`, line first.

    Loops up the levels with two pairs: the final scores of the line alone,
    and those of the line beside the unplayed tail.  A played tail is a
    leaf of 1 or -1, which only shifts what is beside it; so does a side
    leaf x, whatever is still unplayed beside it.
    """
    def node(i, below, s, x):
        (line_sl, line_sr), (both_sl, both_sr) = below
        # each player's moves, by MOVERS index, valued at the successor's
        # final score with the other player to move
        if i % 2 == 0:      # the line goes on through Left's option
            line = (line_sr, x)
            lefts = (both_sr, line[1] + 1, line_sr + 1)
            rights = (x + 1, line[0] - 1, x - 1)
        else:
            line = (x, line_sl)
            lefts = (x - 1, line[1] + 1, x + 1)
            rights = (both_sl, line[0] - 1, line_sl - 1)
        return line, (max(lefts[k] for k in MOVERS[op]), min(rights[k] for k in MOVERS[op]))
    _, (sl, sr) = _fold_line(depth, ((BOTTOM, BOTTOM), (BOTTOM + 1, BOTTOM - 1)), node)
    return FinalScores(sl, sr)


def _tail_eval_sum(op, depth):
    tail = make_game([number(1)], 0, [number(-1)])
    return eval_sum(op, [_line(depth), tail]), _tail_scores(op, depth)


def _magnitude(depth):
    largest = max(abs(v) for i in range(depth) for v in _level(i))
    return max_score_magnitude(_line(depth)), max(largest, BOTTOM)


#: entry point -> a function of the depth giving (its result, the expected result)
CASES = {
    "format_parse": _round_trip,
    "final_scores": _final_scores,
    "negate": lambda d: (negate(_line(d)), _build(d, lambda v: -v, swap=True)),
    "reverse": lambda d: (reverse(_line(d)), _build(d, lambda v: -v)),
    "shift": lambda d: (shift(_line(d), "1/3"), _build(d, lambda v: v + Fraction(1, 3))),
    "max_score_magnitude": _magnitude,
    "is_impartial": lambda d: (is_impartial(_ladder(d, Fraction(1, 2))), True),
    "conjunctive_inverse": lambda d: (conjunctive_inverse(_ladder(d, 2)), _ladder(d, -2)),
    # joining a leaf after the line shifts the line by the leaf's score
    "sequential_sum": lambda d: (sum_games(Operator.SEQUENTIAL, [_line(d), number(5)]),
                                 _build(d, lambda v: v + 5)),
    **{f"{op.value}_eval_sum": lambda d, op=op: _tail_eval_sum(op, d) for op in Operator},
    # one option a side, all scores 0: the draws make a ladder
    "random_impartial": lambda d: (random_impartial(ImpartialParams(
        max_depth=d, max_branch=1, palette=(0,), leaf_probability=0)), _ladder(d, 0)),
}


@pytest.mark.parametrize("name,depth", [(name, 10 ** 4) for name in CASES]
                         + [("final_scores", 10 ** 5), ("negate", 10 ** 5)])
def test_walks_have_no_depth_limit(name, depth):
    got, want = CASES[name](depth)
    assert got == want


@pytest.mark.parametrize("op", list(Operator))
@pytest.mark.parametrize("where", ["alone", "before a leaf", "after a leaf"])
def test_eval_sum_reads_a_lone_deep_component(op, where):
    # a sum of one game is that game, shifted by the leaves beside it, so
    # the line is read from its final scores, never played move by move
    depth, c = 10 ** 4, Fraction(-7, 2)
    line, leaf = _line(depth), number(c)
    comps, by = {"alone": ([line], 0), "before a leaf": ([line, leaf], c),
                 "after a leaf": ([leaf, line], c)}[where]
    _, want = _final_scores(depth)
    assert eval_sum(op, comps) == FinalScores(want.sl + by, want.sr + by)


def test_shift_is_one_intern():
    # the store keeps each tree once up to translation, so a shifted line
    # shares every node below its root: one new node, however deep
    depth, c = 10 ** 5, Fraction(1, 3)
    line = _line(depth)
    _, want = _final_scores(depth)
    before = store_size()
    moved = shift(line, c)
    assert store_size() - before <= 1
    assert score(moved) == _level(0)[0] + c
    assert final_scores(moved) == FinalScores(want.sl + c, want.sr + c)


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once it has run for `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_walks_visit_a_shared_node_once():
    # 2^(10^4) paths lead through this DAG of 10^4 + 1 nodes: only a walk
    # that folds each node once finishes
    ladder = _ladder(10 ** 4, 1)
    with _deadline(1.0):
        assert final_scores(ladder) == FinalScores(1, 1)
    with _deadline(1.0):
        assert negate(ladder) == _ladder(10 ** 4, -1)
    with _deadline(1.0):
        assert is_impartial(ladder)


def _fresh(*args):
    """Standard output of `python *args` in a fresh interpreter, which must
    exit 0 with nothing on standard error."""
    env = dict(os.environ, PYTHONPATH=str(Path(scoreplay.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_cold_heap_value_at_300_plies_finishes():
    # a cold heap_value(0.33:1,2, n) plays n plies deep at about 3 stack
    # levels a ply, so it fails from about n = 330 under the default
    # recursion limit of 1000; one more level a ply fails here
    values = [0]
    for n in range(1, 301):
        values.append(max(p - values[n - p] for p in (1, 2) if p <= n))
    code = ("from scoreplay import heap_value, parse_octal; "
            "print(heap_value(parse_octal('0.33:1,2'), 300))")
    assert _fresh("-c", code) == f"{values[300]}\n"


def test_cold_heap_game_at_1500_beans_finishes():
    # with no points, the tree of heap n offers the trees of n - 1 and n - 2
    # to both sides at score 0: a DAG of 1501 nodes, 1500 levels deep
    code = ("from scoreplay import heap_game, make_game, number, parse_octal\n"
            "got = heap_game(parse_octal('0.33:0,0'), 1500, cap=1500)\n"
            "trees = [number(0)]\n"
            "for n in range(1, 1501):\n"
            "    trees.append(make_game(trees[-2:], 0, trees[-2:]))\n"
            "print(got == trees[1500])\n")
    assert _fresh("-c", code) == "True\n"


def test_drifting_impartial_ladder_interns_few_nodes():
    # the drawn game has about 9,300 distinct scored nodes, but one shape a
    # level: an impartial shape is its own negative, so a mirror adds none,
    # and only the root is interned with its score
    code = ("from scoreplay import ImpartialParams, random_impartial, store_size\n"
            "before = store_size()\n"
            "random_impartial(ImpartialParams(max_depth=125, max_branch=1,\n"
            "                                 leaf_probability=0, seed=1))\n"
            "print(store_size() - before)\n")
    assert int(_fresh("-c", code)) <= 126


def test_is_impartial_on_a_drifting_ladder_finishes_fast():
    # a check that shifts each node's mirrored options by twice its score
    # walks every subtree again at each level, since the scores drift:
    # cubic, 13 s or more at this depth.  On shapes it is one walk.
    code = ("import time\n"
            "from scoreplay import ImpartialParams, is_impartial, random_impartial\n"
            "g = random_impartial(ImpartialParams(max_depth=250, max_branch=1,\n"
            "                                     leaf_probability=0, seed=1))\n"
            "start = time.perf_counter()\n"
            "print(is_impartial(g), time.perf_counter() - start)\n")
    verdict, seconds = _fresh("-c", code).split()
    assert verdict == "True" and float(seconds) < 2


def test_cli_sums_a_deep_line(tmp_path):
    depth, op = 10 ** 4, Operator.SELECTIVE
    path = tmp_path / "games.txt"
    path.write_text(_text(depth) + "\n{1|0|-1}\n", encoding="utf-8")
    fs = _tail_scores(op, depth)
    out = _fresh("-m", "scoreplay", "sum", "--op", "sel", "--file", str(path))
    assert out == (f"selective sum of 2 components: SL={format_score(fs.sl)} "
                   f"SR={format_score(fs.sr)} outcome={outcome_of_scores(fs)}\n")
