"""Seeded inputs for the three workloads.

The same seed always gives the same inputs.  The seed changes point
values and game texts, never the shape of the work, so the cost of a run
barely depends on it.  Nothing here imports scoreplay: the engine only
ever sees the texts and numbers built here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

from reference import OPERATORS, SEQUENTIAL, Ruleset, tree_text

#: The package's `verify.BATTERY`, written out so no engine code is shared.
BATTERY = ("0.33:1,2", "0.007:0,0,1", "0.3:1", "0.13:1,2", "0.333:1,2,3")
TAKE2 = "0.33:1,2"

# heap-split: selective multisets of 1-3 heaps up to SEL_MAX beans each,
# conjunctive pairs and triples up to CONJ_MAX.
SEL_MAX = 16
CONJ_MAX = 18
# Deep cold single heaps of the take-2 ruleset (RecursionError from 331).
DEEP_HEAPS = (400, 1000, 3000)

# tree-sums: random sums per run, spread evenly over these buckets of the
# product of the components' node counts, so every seed gets the same mix
# of small and large sums.
SUMS = 100
SUM_BUCKETS = ((1, 40), (40, 120), (120, 300), (300, 700))
BRUTE_FORCE_MAX = 40        # sums this small are also played out in full
HEAP_BEANS = 9              # heap_game partitions of up to this many beans
DEEP_LINES = (400, 1000)    # forced lines run through parse/final/format

# cli-reports
CLI_N_MAX = 200
BATTERY_N_MAX = 40
FAILING_GS = ["gs", "--rules", TAKE2, "--n-max", "400", "--tail", "350"]
VERIFY_GROUPS = (
    ("conjunctive-pair-scores", "selective-pair-scores", "sequential-identity-game"),
    ("conjunctive-reversal-group", "period-anchor"),
    ("nonzero-witness", "notation-round-trip"),
)


def _points(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 3))


def split_ruleset(seed: int) -> str:
    """0.007 with a seeded award for the one legal take (3 beans, split)."""
    return f"0.007:0,0,{_points(random.Random(seed))}"


def heap_split_ops(seed: int) -> list[tuple]:
    """(kind, ruleset, operator, heap sizes), ascending within each operator."""
    rules = split_ruleset(seed)
    sel = [s for k in (1, 2, 3)
           for s in combinations_with_replacement(range(1, SEL_MAX + 1), k)]
    conj = [s for k in (2, 3)
            for s in combinations_with_replacement(range(1, CONJ_MAX + 1), k)]
    ops = [("grundy", rules, "selective", s) for s in sorted(sel, key=lambda s: (sum(s), s))]
    ops += [("grundy", rules, "conjunctive", s) for s in sorted(conj, key=lambda s: (sum(s), s))]
    ops += [("deep_heap", TAKE2, "disjunctive", (n,)) for n in DEEP_HEAPS]
    return ops


def random_tree(rng: random.Random, depth: int, top: bool = True) -> tuple:
    """Plain-tuple tree: depth at most `depth`, 0-2 options per side."""
    s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if depth == 0 or (not top and rng.random() < 0.35):
        return ((), s, ())
    left = tuple(random_tree(rng, depth - 1, False) for _ in range(rng.randint(0, 2)))
    right = tuple(random_tree(rng, depth - 1, False) for _ in range(rng.randint(0, 2)))
    return (left, s, right)


def node_count(g: tuple) -> int:
    stack, total = [g], 0
    while stack:
        left, _, right = stack.pop()
        total += 1
        stack.extend(left + right)
    return total


def random_sums(seed: int) -> list[tuple[tuple, ...]]:
    """SUMS sums of 2-3 random trees of depth 3-4, bucketed by size."""
    rng = random.Random(seed)
    out = []
    for i in range(SUMS):
        lo, hi = SUM_BUCKETS[i % len(SUM_BUCKETS)]
        while True:
            comps = tuple(random_tree(rng, rng.randint(3, 4))
                          for _ in range(rng.randint(2, 3)))
            if lo < math.prod(map(node_count, comps)) <= hi:
                break
        out.append(comps)
    return out


def partitions(total: int, largest: int):
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


def compositions(total: int):
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in compositions(total - head):
            yield (head,) + rest


def forced_line(depth: int) -> tuple:
    """A line of `depth` moves with one option per side at every node.

    The line continues through Left's option at even depths from the top
    and through Right's at odd ones; the other option is a leaf.  So with
    Left moving first, both players walk the whole line.  Scores depend
    on the depth too, so lines of different depths share no nodes.  Built
    bottom up, so no recursion is needed.
    """
    g = ((), Fraction(depth % 7 - 3), ())
    for i in reversed(range(depth)):
        s = Fraction((i + depth) % 5 - 2, 1 + i % 3)
        side_leaf = ((), Fraction(i % 9 - 4), ())
        g = ((g,), s, (side_leaf,)) if i % 2 == 0 else ((side_leaf,), s, (g,))
    return g


def tree_sums_ops(seed: int) -> list[tuple]:
    """(kind, ...) operations; sums reference components by index."""
    ops: list[tuple] = []
    for i, comps in enumerate(random_sums(seed)):
        texts = tuple(tree_text(c) for c in comps)
        for op in OPERATORS:
            ops.append(("sum", op, texts, i))
    for rules in BATTERY:
        for op in OPERATORS[:3]:    # the commutative operators
            for total in range(1, HEAP_BEANS + 1):
                for parts in partitions(total, total):
                    ops.append(("heap", rules, op, parts))
        if Ruleset.parse(rules).can_split:
            continue
        for total in range(1, HEAP_BEANS + 1):
            for parts in compositions(total):
                ops.append(("heap", rules, SEQUENTIAL, parts))
    for depth in DEEP_LINES:
        for kind in ("deep_parse", "deep_final", "deep_format"):
            ops.append((kind, depth))
    return ops


def cli_script(seed: int) -> list[list[str]]:
    """The scoreplay invocations of one round, in order."""
    rng = random.Random(seed)
    r1 = f"0.33:{_points(rng)},{_points(rng)}"
    r2 = f"0.333:{_points(rng)},{_points(rng)},{_points(rng)}"
    tails = {r1: "3,5", r2: "4,6"}
    script = [["eval", "0"]]
    combos = [(op, tail, fmt) for op in OPERATORS for tail in (False, True)
              for fmt in ("text", "csv", "json")]
    for i, (op, tail, fmt) in enumerate(combos):
        rules = (r1, r2)[i % 2]
        argv = ["gs", "--rules", rules, "--op", op, "--n-max", str(CLI_N_MAX),
                "--format", fmt]
        if tail:
            argv += ["--tail", tails[rules]]
        script.append(argv)
        if i == len(combos) // 2:
            script.append(["eval", "0"])
    battery = [a for r in BATTERY for a in ("--rules", r)]
    script.append(["period-compare", *battery, "--n-max", str(BATTERY_N_MAX), "--json"])
    script.append(["period-compare", "--rules", r1, "--rules", r2, "--rules", "0.13:1,2",
                   "--n-max", str(CLI_N_MAX), "--json"])
    for group in VERIFY_GROUPS:
        script.append(["verify-paper", *[a for name in group for a in ("--only", name)],
                       "--json"])
    script.append(list(FAILING_GS))
    script.append(["eval", "0"])
    return script
