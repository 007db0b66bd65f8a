"""Pinned reports: CLI output, composite trees, heap values and heap trees,
byte for byte.

The files under tests/data/ hold the expected output.  Unlike a test that
runs the same code twice, they catch a change in printed option order or
in any reported number.  After a deliberate change to a report, rewrite
them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import contextlib
import io
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from scoreplay import (Operator, format_game, grundy_value, heap_game, parse_game,
                       parse_octal, sum_games)
from scoreplay.cli import main
from scoreplay.verify import BATTERY

DATA = Path(__file__).parent / "data"

GS = ["gs", "--rules", "0.33:1,2", "--n-max", "25"]
EVAL_GAMES = ["{97/13,96/13|1|{0|-1/2|.},-7/11}",
              "{{.|-2|{.|3|{1|0|-4}}}|5|.}",
              "{{2|3|4},{4|3|2}|0|{1|1|1}}"]
SUM_COMPONENTS = ["{{4|3|2},1|0|-2}", "{4|3|2}", "1/2"]

#: file name -> scoreplay arguments
REPORTS = {
    "gs.txt": GS,
    "gs.csv": GS + ["--format", "csv"],
    "gs.json": GS + ["--format", "json"],
    "period-compare.json": ["period-compare", "--rules", "0.33:1,2",
                            "--rules", "0.13:1,2", "--n-max", "60", "--json"],
    "eval.json": ["eval", "--json", *EVAL_GAMES],
    **{f"sum-{op.value}.json": ["sum", "--op", op.value, "--json", *SUM_COMPONENTS]
       for op in Operator},
    "verify-paper.json": ["verify-paper", "--json", "--only", "notation-round-trip",
                          "--only", "period-anchor"],
}

#: component lists composed under every operator: a leaf among trees,
#: a repeated component, one component alone, one tree between leaves
COMPOSITES = (
    ("{4|3|2}", "1/2", "{1|0|-1}"),
    ("{1|0|-1}", "{1|0|-1}", "{2|1|.}"),
    ("{{3|2|1},5|0|-2}",),
    ("-1/3", "{.|1|{2|1|.}}", "2"),
)
COMPOSITES_FILE = "composites.txt"

SPLIT = "0.007:0,0,5/2"
#: mixed-ruleset positions, as (ruleset, size) pairs in the order given
MIXED = {
    Operator.DISJUNCTIVE: (
        (("0.007:0,0,5/2", 7), ("0.33:1/3,1/2", 5)),
        (("0.33:1/3,1/2", 4), ("0.6:1", 6), ("0.007:0,0,5/2", 5)),
        (("0.13:1,2", 9), ("0.007:0,0,5/2", 9), ("0.007:0,0,5/2", 4)),
    ),
    Operator.SEQUENTIAL: (
        (("0.33:1/3,1/2", 5), ("0.13:1,2", 4)),
        (("0.13:1,2", 4), ("0.33:1/3,1/2", 5)),
        (("0.333:1,2,3", 7), ("0.33:1/3,1/2", 3), ("0.13:1,2", 6)),
    ),
}
HEAP_VALUES_FILE = "heap-values.txt"

#: the battery's rulesets, then rational points, a split that scores, dead
#: remainders (a heap of one is dead under 0.6), a negative point and a
#: digit that only takes a whole heap
TREE_RULESETS = tuple(str(rules) for rules in BATTERY) + (
    "0.33:1/3,1/2", "0.007:0,0,5/2", "0.6:1", "0.16:1,-1", "0.07:1,2")
TREE_BEANS = 6
HEAP_TREES_FILE = "heap-trees.txt"


def report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"scoreplay {' '.join(argv)} exited {code}")
    return out.getvalue()


def composites() -> str:
    lines = []
    for texts in COMPOSITES:
        games = [parse_game(t) for t in texts]
        for op in Operator:
            lines.append(f"{op.value} [{', '.join(texts)}]: "
                         f"{format_game(sum_games(op, games))}")
    return "\n".join(lines) + "\n"


def heap_values() -> str:
    """`grundy_value` of every selective and conjunctive multiset of 1-3
    heaps of 1-10 beans of SPLIT, then of the MIXED positions."""
    positions = [(op, tuple((SPLIT, n) for n in sizes))
                 for op in (Operator.SELECTIVE, Operator.CONJUNCTIVE)
                 for k in range(1, 4)
                 for sizes in combinations_with_replacement(range(1, 11), k)]
    positions += [(op, pos) for op, group in MIXED.items() for pos in group]
    lines = []
    for op, pos in positions:
        heaps = [(parse_octal(rules), n) for rules, n in pos]
        text = ", ".join(f"{rules} {n}" for rules, n in pos)
        lines.append(f"{op.value} [{text}]: {grundy_value(op, heaps)}")
    return "\n".join(lines) + "\n"


def heap_trees() -> str:
    """`heap_game` of 0..TREE_BEANS beans of each of TREE_RULESETS under
    every operator, sequential only for rulesets that cannot split."""
    lines = []
    for text in TREE_RULESETS:
        rules = parse_octal(text)
        for op in Operator:
            if op is Operator.SEQUENTIAL and rules.can_split:
                continue
            for n in range(TREE_BEANS + 1):
                lines.append(f"{op.value} {text} {n}: "
                             f"{format_game(heap_game(rules, n, op))}")
    return "\n".join(lines) + "\n"


def golden(name: str) -> str:
    return (DATA / name).read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name):
    assert report(REPORTS[name]) == golden(name)


def test_composite_trees_match_golden():
    assert composites() == golden(COMPOSITES_FILE)


def test_heap_values_match_golden():
    assert heap_values() == golden(HEAP_VALUES_FILE)


def test_heap_trees_match_golden():
    assert heap_trees() == golden(HEAP_TREES_FILE)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    outputs = {name: report(argv) for name, argv in REPORTS.items()}
    outputs[COMPOSITES_FILE] = composites()
    outputs[HEAP_VALUES_FILE] = heap_values()
    outputs[HEAP_TREES_FILE] = heap_trees()
    for name, text in outputs.items():
        (DATA / name).write_text(text, encoding="utf-8", newline="")
        print(f"wrote {DATA / name}")
