"""Command-line surface for the scoring-play engine.

Subcommands:

* ``eval``            final scores and outcome for games in tree notation
* ``sum``             the same for a sum of games under a chosen operator
* ``gs``              heap-value table for an octal ruleset, with period search
* ``period-compare``  per-operator period reports for a battery of rulesets
* ``verify-paper``    run the built-in check battery

Reports are deterministic: the same arguments (seeds included) produce
byte-identical output.  JSON reports carry a ``schema_version`` field and
sorted keys, and serialize scores as integers or "num/den" strings.

Exit status: 0 on success, 1 when a check fails, 2 on usage or parse
errors and on input too deep or too large to evaluate.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .evaluate import final_scores, outcome_of_scores
from .game import GameId
from .notation import (NotationError, format_game, format_score, parse_game,
                       parse_game_lines, parse_octal)
from .octal import (OctalRuleset, _check_min_confirm, _frac_json, compare_periods,
                    find_period, value_table)
from .operators import Operator, eval_sum
from .verify import run_checks

SCHEMA_VERSION = "1"


def _render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# argparse "type" wrappers: a bad value becomes a usage error (exit 2)
# instead of a traceback.

def _operator_arg(text: str) -> Operator:
    try:
        return Operator.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ruleset_arg(text: str) -> OctalRuleset:
    try:
        return parse_octal(text)
    except NotationError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _int_arg(text: str) -> int:
    """An integer in ASCII digits, with an optional sign: bare int() would
    also take "1_0" or the Arabic-Indic "١", which game text rejects."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _tail_arg(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(_int_arg(chunk) for chunk in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated heap sizes, got {text!r}") from None
    if any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError("tail heap sizes must be positive")
    return sizes


def _collect_games(args) -> list[GameId]:
    """Positional game texts plus the optional --file, one game per line."""
    games = [parse_game(text) for text in args.games]
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            games.extend(parse_game_lines(fh.read()))
    if not games:
        raise ValueError("no games given (pass game texts or --file)")
    return games


def cmd_eval(args) -> int:
    games = _collect_games(args)
    rows = []
    for g in games:
        fs = final_scores(g)
        rows.append((format_game(g), fs))
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "eval",
            "games": [{"game": text,
                       "sl": _frac_json(fs.sl),
                       "sr": _frac_json(fs.sr),
                       "outcome": outcome_of_scores(fs).value}
                      for text, fs in rows],
        }
        _emit(_render_json(report), args.output)
    else:
        lines = [f"{text}: SL={format_score(fs.sl)} SR={format_score(fs.sr)} "
                 f"outcome={outcome_of_scores(fs)}"
                 for text, fs in rows]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_sum(args) -> int:
    games = _collect_games(args)
    fs = eval_sum(args.op, games)
    verdict = outcome_of_scores(fs)
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "sum",
            "operator": args.op.value,
            "components": [format_game(g) for g in games],
            "sl": _frac_json(fs.sl),
            "sr": _frac_json(fs.sr),
            "outcome": verdict.value,
        }
        _emit(_render_json(report), args.output)
    else:
        _emit(f"{args.op.value} sum of {len(games)} component"
              f"{'s' if len(games) != 1 else ''}: "
              f"SL={format_score(fs.sl)} SR={format_score(fs.sr)} "
              f"outcome={verdict}\n", args.output)
    return 0


def _table_lines(values: Sequence[Fraction], per_row: int = 20) -> list[str]:
    width = len(str(len(values) - 1))
    out = []
    for start in range(0, len(values), per_row):
        chunk = " ".join(format_score(v) for v in values[start:start + per_row])
        out.append(f"  {start:>{width}}: {chunk}")
    return out


def _period_phrase(report) -> str:
    if report is None:
        return "none detected"
    return (f"length {report.period} from n={report.preperiod} "
            f"(confirmed on {report.confirmations} values)")


def cmd_gs(args) -> int:
    _check_min_confirm(args.min_confirm)
    tail = tuple((args.rules, n) for n in args.tail)
    table = value_table(args.op, args.rules, args.n_max, tail)
    period = find_period(table, args.min_confirm)
    if args.format == "json":
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "gs",
            "ruleset": args.rules.notation(),
            "operator": args.op.value,
            "tail": [[args.rules.notation(), n] for n in args.tail],
            "n_max": args.n_max,
            "min_confirm": args.min_confirm,
            "table": [_frac_json(v) for v in table],
            "period": period.to_dict() if period else None,
        }
        _emit(_render_json(report), args.output)
    elif args.format == "csv":
        # a score's text holds no comma or quote, so no field needs quoting
        lines = ["n,value"] + [f"{n},{format_score(v)}" for n, v in enumerate(table)]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        lines = [f"ruleset {args.rules.notation()}  operator {args.op.value}  "
                 f"n_max {args.n_max}  min_confirm {args.min_confirm}"]
        if args.tail:
            lines.append("tail heaps: " + ",".join(str(n) for n in args.tail))
        lines.append("values:")
        lines.extend(_table_lines(table))
        lines.append(f"period: {_period_phrase(period)}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_period_compare(args) -> int:
    comparisons = [compare_periods(rules, n_max=args.n_max,
                                   min_confirm=args.min_confirm)
                   for rules in args.rules]
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "period-compare",
            "reports": [c.to_dict() for c in comparisons],
        }
        _emit(_render_json(report), args.output)
    else:
        blocks = []
        for c in comparisons:
            ref = c.reference_period if c.reference_period is not None else "none"
            lines = [f"ruleset {c.ruleset.notation()}  n_max {c.n_max}  "
                     f"min_confirm {c.min_confirm}  reference period {ref}"]
            pad = max(len(r.operator.value) for r in c.results)
            for r in c.results:
                label = f"{r.operator.value}:".ljust(pad + 1)
                if r.skipped is not None:
                    lines.append(f"  {label} skipped ({r.skipped})")
                else:
                    lines.append(f"  {label} period {_period_phrase(r.period)}")
            lines.append(f"  all operators agree: "
                         f"{'yes' if c.all_periods_equal else 'no'}")
            blocks.append("\n".join(lines))
        _emit("\n\n".join(blocks) + "\n", args.output)
    return 0


def cmd_verify(args) -> int:
    results = run_checks(seed=args.seed, samples=args.samples, only=args.only)
    all_pass = all(r.passed for r in results)
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify-paper",
            "seed": args.seed,
            "samples": args.samples,
            "passed": all_pass,
            "checks": [r.to_dict() for r in results],
        }
        _emit(_render_json(report), args.output)
    else:
        pad = max(len(r.name) for r in results)
        lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name.ljust(pad)}  {r.detail}"
                 for r in results]
        n_pass = sum(r.passed for r in results)
        lines.append(f"{n_pass}/{len(results)} checks passed")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if all_pass else 1


def _add_output_flag(sub) -> None:
    sub.add_argument("--output", metavar="PATH",
                     help="write the report to PATH instead of stdout")


def _add_game_inputs(sub) -> None:
    sub.add_argument("games", nargs="*", metavar="GAME",
                     help="game in tree notation, e.g. '{4|3|2}'")
    sub.add_argument("--file", metavar="PATH",
                     help="read additional games from PATH, one per line")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoreplay",
        description="Scoring-play combinatorial games: evaluation, sum "
                    "operators, heap values, and periodicity reports.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = subs.add_parser(
        "eval", help="final scores and outcome of one or more games")
    _add_game_inputs(p_eval)
    p_eval.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    _add_output_flag(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sum = subs.add_parser(
        "sum", help="final scores of a sum of games under an operator")
    _add_game_inputs(p_sum)
    p_sum.add_argument("--op", type=_operator_arg, required=True,
                       metavar="OP",
                       help="disjunctive|conjunctive|selective|sequential "
                            "(or any of disj/conj/sel/seq)")
    p_sum.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of text")
    _add_output_flag(p_sum)
    p_sum.set_defaults(func=cmd_sum)

    p_gs = subs.add_parser(
        "gs", help="heap-value table for an octal ruleset, with period search")
    p_gs.add_argument("--rules", type=_ruleset_arg, required=True,
                      metavar="RULESET",
                      help="octal ruleset, e.g. 0.33:1,2 or 337")
    p_gs.add_argument("--op", type=_operator_arg,
                      default=Operator.DISJUNCTIVE, metavar="OP",
                      help="sum operator (default disjunctive)")
    p_gs.add_argument("--n-max", type=_int_arg, default=200, metavar="N",
                      help="largest heap size tabulated (default 200; "
                           "splitting rulesets get expensive under the "
                           "disjunctive and selective operators well "
                           "before that)")
    p_gs.add_argument("--tail", type=_tail_arg, default=(), metavar="SIZES",
                      help="comma-separated fixed heap sizes (same ruleset) "
                           "added to every position; under sequential the "
                           "varying heap is played first")
    p_gs.add_argument("--min-confirm", type=_int_arg, default=10, metavar="K",
                      help="indices a candidate period must match "
                           "(default 10)")
    p_gs.add_argument("--format", choices=("text", "csv", "json"),
                      default="text",
                      help="report format; csv emits the table only "
                           "(default text)")
    _add_output_flag(p_gs)
    p_gs.set_defaults(func=cmd_gs)

    p_cmp = subs.add_parser(
        "period-compare",
        help="per-operator value tables and periods for a ruleset battery")
    p_cmp.add_argument("--rules", type=_ruleset_arg, action="append",
                       required=True, metavar="RULESET",
                       help="ruleset to include (repeat for a battery)")
    p_cmp.add_argument("--n-max", type=_int_arg, default=200, metavar="N",
                       help="largest heap size tabulated (default 200; "
                            "splitting rulesets get expensive under the "
                            "disjunctive and selective operators well "
                            "before that, and all four operators are "
                            "tabulated)")
    p_cmp.add_argument("--min-confirm", type=_int_arg, default=10, metavar="K",
                       help="indices a candidate period must match "
                            "(default 10)")
    p_cmp.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of text")
    _add_output_flag(p_cmp)
    p_cmp.set_defaults(func=cmd_period_compare)

    p_ver = subs.add_parser(
        "verify-paper",
        help="run the built-in check battery; exit 0 only if all pass")
    p_ver.add_argument("--seed", type=_int_arg, default=0,
                       help="seed for the randomized checks (default 0)")
    p_ver.add_argument("--samples", type=_int_arg, default=None, metavar="N",
                       help="override the sample count of every randomized "
                            "check, at least 1 (default: each check's own count)")
    p_ver.add_argument("--only", action="append", metavar="NAME",
                       help="run only checks whose name contains NAME "
                            "(repeatable)")
    p_ver.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of text")
    _add_output_flag(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NotationError as exc:
        print(f"scoreplay: parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"scoreplay: error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError):
        print("scoreplay: error: input too deep or too large to evaluate", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
