"""Acceptance battery: ten end-to-end criteria with runtime budgets.

Each test reruns one check from scoreplay.verify at its full sample size,
asserts the check passed, and enforces the agreed wall-clock budget.  One
printed line per criterion summarizes the run.
"""

import time

from scoreplay import Operator, compare_periods
from scoreplay.verify import (BATTERY, check_conjunctive_additivity,
                              check_conjunctive_group, check_conjunctive_pair,
                              check_evaluator_properties,
                              check_notation_roundtrip, check_nonzero_witness,
                              check_period_anchor, check_selective_additivity,
                              check_selective_pair, check_sequential_identity,
                              check_tree_oracle)


def _run(number, label, budget, *checks):
    start = time.perf_counter()
    results = [check() for check in checks]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed < budget
    print(f"criterion {number:>2} {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s / budget {budget}s) {label}")
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
    assert elapsed < budget, f"{label}: {elapsed:.2f}s over {budget}s budget"


def test_c01_conjunctive_paired_tree_identities():
    _run(1, "conjunctive paired-tree score identities, 100 assignments", 5,
         lambda: check_conjunctive_pair(samples=100))


def test_c02_selective_paired_tree_identities():
    _run(2, "selective paired-tree score identities, 100 assignments", 5,
         lambda: check_selective_pair(samples=100))


def test_c03_sequential_identity_game():
    _run(3, "sequential join identity game, 500 games", 30,
         lambda: check_sequential_identity(samples=500))


def test_c04_conjunctive_reversal_group_evidence():
    _run(4, "conjunctive reversal ties + identity membership, 200 games", 60,
         lambda: check_conjunctive_group(samples=200))


def test_c05_conjunctive_heap_additivity():
    _run(5, "conjunctive heap additivity, all pairs to 30, 5 rulesets", 60,
         check_conjunctive_additivity)


def test_c06_selective_heap_additivity():
    _run(6, "selective heap additivity, multisets of 3 heaps to 20", 60,
         check_selective_additivity)


def test_c07_heap_tree_oracle_equivalence():
    _run(7, "heap recursion vs materialized trees, 12 beans, 4 operators",
         120, check_tree_oracle)


def test_c08_period_detection_and_battery_reports():
    def battery_reports():
        start = check_period_anchor()
        if not start.passed:
            return start
        for rules in BATTERY:
            n_max = 40 if rules.can_split else 200
            report = compare_periods(rules, n_max=n_max, min_confirm=10)
            ops = {r.operator for r in report.results}
            if ops != set(Operator):
                return start.__class__("period-battery", False,
                                       f"{rules.notation()}: missing operators")
            for r in report.results:
                if r.skipped is None and r.table is None:
                    return start.__class__("period-battery", False,
                                           f"{rules.notation()}: empty table")
        return start

    _run(8, "anchor period (0,4) at n_max 200 + battery reports", 120,
         battery_reports)


def test_c09_evaluator_property_suites():
    _run(9, "outcome partition, mirrors, round-trip, 1000 games", 60,
         lambda: check_evaluator_properties(samples=1000),
         lambda: check_notation_roundtrip(samples=1000))


def test_c10_nonzero_witness_contexts():
    _run(10, "witness contexts separate 200 games from zero", 60,
         lambda: check_nonzero_witness(samples=200))
