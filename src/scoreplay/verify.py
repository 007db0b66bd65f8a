"""Built-in check battery: replays the engine's anchor results.

Each check re-derives a known identity or worked value from scratch and
reports pass/fail with a short detail string.  The battery is the same
code path the command line exposes, so a green run here is the same
evidence as a green `verify-paper` run.

Checks are deterministic: every random draw flows from an explicit seed,
and detail strings carry counts, not timings, so identical configurations
produce identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Iterator, Optional, Sequence

from .evaluate import FinalScores, Outcome, final_scores, outcome, outcome_of_scores
from .game import make_game, negate, number, reverse, score, shift
from .notation import format_game, parse_game
from .octal import (OctalRuleset, PeriodReport, _general_value, compare_periods,
                    find_period, grundy_value, heap_game, heap_value, reference_period,
                    value_table)
from .operators import Operator, eval_sum, sum_games
from .structure import (ImpartialParams, identity_game, identity_test,
                        nonzero_witness, random_game, random_impartial)

#: Rulesets exercised by the heap checks.  The first two are the
#: load-bearing ones (a pure take-2 pattern and a pure split ruleset);
#: the rest add coverage for mixed digits and longer point lists.
BATTERY: tuple[OctalRuleset, ...] = (
    OctalRuleset((3, 3), (Fraction(1), Fraction(2))),
    OctalRuleset((0, 0, 7), (Fraction(0), Fraction(0), Fraction(1))),
    OctalRuleset((3,), (Fraction(1),)),
    OctalRuleset((1, 3), (Fraction(1), Fraction(2))),
    OctalRuleset((3, 3, 3), (Fraction(1), Fraction(2), Fraction(3))),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _verdict(name: str, failures: list[str], ok_detail: str) -> CheckResult:
    if not failures:
        return CheckResult(name, True, ok_detail)
    shown = "; ".join(failures[:3])
    if len(failures) > 3:
        shown += f"; and {len(failures) - 3} more"
    return CheckResult(name, False, shown)


def _random_score(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 3))


def check_conjunctive_pair(samples: int = 100, seed: int = 0) -> CheckResult:
    """Two one-lane ladder games with known component and sum scores.

    G is a ladder Left enters and Right then chases; H mirrors it.  Under
    the conjunctive operator every turn moves both lanes, so the play is
    completely forced and the final scores come out as e+j and e+k no
    matter which rationals sit on the labels.
    """
    rng = random.Random(seed)
    failures: list[str] = []
    for trial in range(samples):
        a, b, c, d, e, f = (_random_score(rng) for _ in range(6))
        g, h, i, j, k = (_random_score(rng) for _ in range(5))
        inner = make_game([number(e)], d, [number(f)])
        gl = make_game([], b, [make_game([], c, [inner])])
        big_g = make_game([gl], a, [])
        hb = make_game([make_game([number(k)], j, [])], i, [])
        big_h = make_game([], g, [make_game([hb], h, [])])
        checks = [
            ("SL(G)", final_scores(big_g).sl, c),
            ("SR(G)", final_scores(big_g).sr, a),
            ("SL(H)", final_scores(big_h).sl, g),
            ("SR(H)", final_scores(big_h).sr, i),
        ]
        composed = eval_sum(Operator.CONJUNCTIVE, [big_g, big_h])
        checks.append(("SL(G and H)", composed.sl, e + j))
        checks.append(("SR(G and H)", composed.sr, e + k))
        for label, got, want in checks:
            if got != want:
                failures.append(f"trial {trial}: {label} = {got}, wanted {want}")
                break
    return _verdict("conjunctive-pair-scores", failures,
                    f"{samples} random assignments, all six score identities exact")


def check_selective_pair(samples: int = 100, seed: int = 0) -> CheckResult:
    """Companion ladder pair for the selective operator.

    Here one component runs dry for each player at each stage, so despite
    the free choice of subsets the play is again forced, and the sum's
    final scores are c+f and c+g for every assignment.
    """
    rng = random.Random(seed)
    failures: list[str] = []
    for trial in range(samples):
        a, b, c, d, e, f, g = (_random_score(rng) for _ in range(7))
        big_g = make_game([make_game([number(c)], b, [])], a, [])
        tail = make_game([], f, [number(g)])
        big_h = make_game([], d, [make_game([], e, [tail])])
        checks = [
            ("SL(G)", final_scores(big_g).sl, b),
            ("SR(G)", final_scores(big_g).sr, a),
            ("SL(H)", final_scores(big_h).sl, d),
            ("SR(H)", final_scores(big_h).sr, e),
        ]
        composed = eval_sum(Operator.SELECTIVE, [big_g, big_h])
        checks.append(("SL(G or H)", composed.sl, c + f))
        checks.append(("SR(G or H)", composed.sr, c + g))
        for label, got, want in checks:
            if got != want:
                failures.append(f"trial {trial}: {label} = {got}, wanted {want}")
                break
    return _verdict("selective-pair-scores", failures,
                    f"{samples} random assignments, all six score identities exact")


def check_sequential_identity(samples: int = 500, seed: int = 0) -> CheckResult:
    """identity_game() is transparent under the sequential join.

    Joining it before or after any game leaves the final scores exactly
    unchanged, not merely the outcome.
    """
    ident = identity_game()
    params = ImpartialParams(max_depth=5, max_branch=2, seed=seed)
    rng = random.Random(seed)
    failures: list[str] = []
    for trial in range(samples):
        probe = random_game(params, rng)
        want = final_scores(probe)
        pre = eval_sum(Operator.SEQUENTIAL, [ident, probe])
        post = eval_sum(Operator.SEQUENTIAL, [probe, ident])
        if pre != want:
            failures.append(f"trial {trial}: i then {format_game(probe)} gave {pre}, "
                            f"wanted {want}")
        elif post != want:
            failures.append(f"trial {trial}: {format_game(probe)} then i gave {post}, "
                            f"wanted {want}")
    return _verdict("sequential-identity-game", failures,
                    f"{samples} games, scores exact on both sides of the join")


def check_conjunctive_group(samples: int = 200, seed: int = 0) -> CheckResult:
    """Score reversal inverts single-line impartial games conjunctively.

    The generated games have one option per side at every node, so play
    is a forced line and reversing the scores inverts that line exactly:
    the pair g with reverse(g) ties, and because the pair offers no
    choices it acts as an identity on arbitrary impartial probes, which
    here branch freely: the first 50 pairs each face 50 probes.
    """
    params = ImpartialParams(max_depth=4, max_branch=1, seed=seed)
    rng = random.Random(seed)
    games = [random_impartial(params, rng) for _ in range(samples)]
    failures: list[str] = []
    for idx, g in enumerate(games):
        pair = eval_sum(Operator.CONJUNCTIVE, [g, reverse(g)])
        if outcome_of_scores(pair) is not Outcome.TIE:
            failures.append(f"game {idx}: pair scored {pair}, not a tie")
    for idx, g in enumerate(games[:50]):
        combined = sum_games(Operator.CONJUNCTIVE, [g, reverse(g)])
        probe_params = ImpartialParams(max_depth=3, max_branch=2, seed=seed + idx + 1)
        report = identity_test(combined, Operator.CONJUNCTIVE,
                               samples=50, params=probe_params)
        if not report.all_passed:
            cex = format_game(report.first_counterexample)
            failures.append(f"game {idx}: pair changed the outcome of probe {cex}")
    return _verdict(
        "conjunctive-reversal-group", failures,
        f"{samples} ties, {min(samples, 50)}x50 identity probes clean")


def check_conjunctive_additivity() -> CheckResult:
    """Heap values add across conjunctive pairs: value{n,m} = value{n} + value{m},
    for every pair of heaps of at most 30 beans.

    `grundy_value` sums single heaps for every conjunctive position, so
    each pair is valued by the general recursion instead, in memos that
    never hold a value the sum made."""
    pair_max = 30
    failures: list[str] = []
    pairs = 0
    for rules in BATTERY:
        singles = [heap_value(rules, n, Operator.CONJUNCTIVE)
                   for n in range(pair_max + 1)]
        for n in range(1, pair_max + 1):
            for m in range(n, pair_max + 1):
                pairs += 1
                got = _general_value(Operator.CONJUNCTIVE, [(rules, n), (rules, m)])
                want = singles[n] + singles[m]
                if got != want:
                    failures.append(
                        f"{rules.notation()} heaps {{{n},{m}}}: {got} != {want}")
    return _verdict("conjunctive-heap-additivity", failures,
                    f"{pairs} pairs over {len(BATTERY)} rulesets, all additive")


def check_selective_additivity() -> CheckResult:
    """Where single-heap values stay nonnegative, selective sums add up:
    every multiset of 2 or 3 heaps of at most 20 beans is checked."""
    heap_max = 20
    failures: list[str] = []
    counted = 0
    covered = 0
    for rules in BATTERY:
        singles = [heap_value(rules, n, Operator.SELECTIVE)
                   for n in range(heap_max + 1)]
        if any(v < 0 for v in singles):
            continue
        covered += 1
        for k in (2, 3):
            for sizes in combinations_with_replacement(range(1, heap_max + 1), k):
                counted += 1
                got = grundy_value(Operator.SELECTIVE, [(rules, n) for n in sizes])
                want = sum(singles[n] for n in sizes)
                if got != want:
                    failures.append(
                        f"{rules.notation()} heaps {sizes}: {got} != {want}")
    if covered < 2:
        failures.append(f"only {covered} rulesets qualified; the check needs spread")
    return _verdict("selective-heap-additivity", failures,
                    f"{counted} multisets over {covered} qualifying rulesets")


def _partitions(total: int, largest: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def _compositions(total: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in _compositions(total - head):
            yield (head,) + rest


def check_tree_oracle() -> CheckResult:
    """Heap values agree with the explicit game trees, operator by operator.

    Every multiset of heaps totalling at most 12 beans is scored
    twice: once by the heap recursion, once by materializing each heap as
    a game tree and composing the trees with the operator.  The sequential
    operator runs over ordered sequences instead and skips rulesets that
    can split a heap, which have no sequential reading.
    """
    bean_max = 12
    failures: list[str] = []
    counted = 0
    for rules in BATTERY:
        for op in Operator:
            sequential = op is Operator.SEQUENTIAL
            if sequential and rules.can_split:
                continue
            for total in range(1, bean_max + 1):
                shapes = _compositions(total) if sequential else _partitions(total, total)
                for parts in shapes:
                    counted += 1
                    pos = [(rules, n) for n in parts]
                    trees = [heap_game(rules, n, op, cap=bean_max) for n in parts]
                    got = final_scores(sum_games(op, trees)).sl
                    want = grundy_value(op, pos)
                    if got != want:
                        failures.append(f"{rules.notation()} {op.value} {parts}: "
                                        f"tree {got} != heap {want}")
    return _verdict("heap-tree-oracle", failures,
                    f"{counted} positions, heap recursion matches the trees")


def check_evaluator_properties(samples: int = 1000, seed: int = 0) -> CheckResult:
    """Sign bookkeeping across the evaluator: partition, mirror, shift, symmetry."""
    params = ImpartialParams(max_depth=4, max_branch=2, seed=seed)
    rng = random.Random(seed)
    failures: list[str] = []
    buckets = {o: 0 for o in Outcome}
    for trial in range(samples):
        g = random_game(params, rng)
        fs = final_scores(g)
        buckets[outcome(g)] += 1
        mirrored = final_scores(negate(g))
        if mirrored != FinalScores(-fs.sr, -fs.sl):
            failures.append(f"trial {trial}: negate broke the mirror on "
                            f"{format_game(g)}")
            continue
        amount = _random_score(rng)
        shifted = final_scores(shift(g, amount))
        if shifted != FinalScores(fs.sl + amount, fs.sr + amount):
            failures.append(f"trial {trial}: shift by {amount} moved scores "
                            f"unevenly on {format_game(g)}")
    for trial in range(samples // 4):
        g = random_impartial(params, rng)
        fs = final_scores(g)
        if fs.sl + fs.sr != 2 * score(g):
            failures.append(f"impartial trial {trial}: SL+SR != twice the root "
                            f"score on {format_game(g)}")
    if sum(buckets.values()) != samples:
        failures.append("outcome classes failed to partition the sample")
    seen = sum(1 for count in buckets.values() if count)
    return _verdict("outcome-partition-mirror", failures,
                    f"{samples} games in {seen} outcome classes, "
                    "mirror and shift exact")


def check_notation_roundtrip(samples: int = 1000, seed: int = 0) -> CheckResult:
    """format_game and parse_game are inverse on random games."""
    params = ImpartialParams(max_depth=4, max_branch=3, seed=seed)
    rng = random.Random(seed)
    failures: list[str] = []
    for trial in range(samples):
        g = random_game(params, rng)
        text = format_game(g)
        back = parse_game(text)
        if back != g:
            failures.append(f"trial {trial}: {text} parsed back differently")
    return _verdict("notation-round-trip", failures,
                    f"{samples} games re-parsed to the identical node")


def check_period_anchor() -> CheckResult:
    """The take-2 ruleset's table repeats 0,1,2,1 from the start.

    Detection must report preperiod 0 and period 4 on the disjunctive
    table of heaps up to 200, with 10 confirmations at least, the
    degenerate inputs must behave, and the cross-operator report for the
    same ruleset must agree on the period.
    """
    n_max, min_confirm = 200, 10
    rules = BATTERY[0]
    failures: list[str] = []
    table = value_table(Operator.DISJUNCTIVE, rules, n_max)
    pattern = [Fraction(0), Fraction(1), Fraction(2), Fraction(1)]
    if any(table[n] != pattern[n % 4] for n in range(n_max + 1)):
        failures.append("table diverged from the 0,1,2,1 pattern")
    report = find_period(table, min_confirm)
    if report is None or (report.preperiod, report.period) != (0, 4):
        failures.append(f"detector said {report}, wanted preperiod 0 period 4")
    if find_period([0] * 40, min_confirm) != PeriodReport(0, 1, 39):
        failures.append("all-zero table did not read as period 1")
    if find_period(list(range(40)), min_confirm) is not None:
        failures.append("strictly increasing table claimed a period")
    if reference_period(rules) != 4:
        failures.append("reference period of the take-2 ruleset is off")
    comparison = compare_periods(rules, n_max=n_max, min_confirm=min_confirm)
    if not comparison.all_periods_equal:
        failures.append("operators disagreed on the take-2 ruleset's period")
    return _verdict("period-anchor", failures,
                    f"period 4 from 0 confirmed {report.confirmations} times"
                    if report else "period 4 missing")


def check_nonzero_witness(samples: int = 200, seed: int = 0) -> CheckResult:
    """Every random non-zero game gets a separating context that checks out."""
    params = ImpartialParams(max_depth=3, max_branch=2, seed=seed)
    rng = random.Random(seed)
    zero = number(0)
    failures: list[str] = []
    produced = 0
    for trial in range(samples):
        g = random_game(params, rng)
        while g == zero:
            g = random_game(params, rng)
        for op in (Operator.CONJUNCTIVE, Operator.SELECTIVE):
            try:
                witness = nonzero_witness(g, op)
            except RuntimeError as err:
                failures.append(f"trial {trial} under {op.value}: {err}")
                continue
            produced += 1
            if witness.outcome_composed == witness.outcome_baseline:
                failures.append(f"trial {trial} under {op.value}: "
                                "witness outcomes agree")
    return _verdict("nonzero-witness", failures,
                    f"{produced} witnesses, every one separates its game from 0")


#: The battery in run order: (name, constructor, takes seed/samples).
_CHECKS: tuple[tuple[str, Callable[..., CheckResult], bool], ...] = (
    ("conjunctive-pair-scores", check_conjunctive_pair, True),
    ("selective-pair-scores", check_selective_pair, True),
    ("sequential-identity-game", check_sequential_identity, True),
    ("conjunctive-reversal-group", check_conjunctive_group, True),
    ("conjunctive-heap-additivity", check_conjunctive_additivity, False),
    ("selective-heap-additivity", check_selective_additivity, False),
    ("heap-tree-oracle", check_tree_oracle, False),
    ("outcome-partition-mirror", check_evaluator_properties, True),
    ("notation-round-trip", check_notation_roundtrip, True),
    ("period-anchor", check_period_anchor, False),
    ("nonzero-witness", check_nonzero_witness, True),
)

check_names: tuple[str, ...] = tuple(name for name, _, _ in _CHECKS)


def run_checks(seed: int = 0, samples: Optional[int] = None,
               only: Optional[Sequence[str]] = None) -> list[CheckResult]:
    """Run the battery; `samples` overrides every randomized count.

    `only` restricts the run to checks whose name contains one of the
    given substrings; an empty selection is a ValueError so a typo cannot
    masquerade as a green run.  So is `samples` below 1.
    """
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    picked = [(name, func, randomized) for name, func, randomized in _CHECKS
              if only is None or any(pat in name for pat in only)]
    if not picked:
        raise ValueError(f"no check matches {list(only)!r}; "
                         f"known checks: {', '.join(check_names)}")
    results = []
    for name, func, randomized in picked:
        kwargs: dict = {}
        if randomized:
            kwargs["seed"] = seed
            if samples is not None:
                kwargs["samples"] = samples
        results.append(func(**kwargs))
    return results
