"""Spans around calls into scoreplay's public functions, for traced runs.

`Tracer.install()` replaces each traced function with a wrapper in every
scoreplay module that binds it, so a call that goes through a module's
globals (`compare_periods` -> `value_table` -> `grundy_value`, or
`heap_game` -> `sum_games`) opens a child span.  Calls a module makes to
its own private helpers are not seen.

A span's self time is its duration minus the time covered by its child
spans.  Self time and call counts are summed per span name as the spans
close; the raw spans are kept only for the top two levels (the
operation and the layer calls it makes directly), so deep recursions
such as `final_scores` cost no memory.
"""

from __future__ import annotations

import sys
import time
from typing import Callable


def _op_name(args, kwargs) -> str:
    op = kwargs.get("op", args[0] if args else None)
    return getattr(op, "value", str(op))


#: (module, function, span name; a callable names the span from the call)
TRACED: tuple[tuple[str, str, object], ...] = (
    ("octal", "grundy_value", lambda a, k: "octal.grundy_value." + _op_name(a, k)),
    ("octal", "heap_value", "octal.heap_value"),
    ("octal", "heap_game", "octal.heap_game"),
    ("octal", "value_table", "octal.value_table"),
    ("octal", "find_period", "octal.find_period"),
    ("octal", "compare_periods", "octal.compare_periods"),
    ("operators", "sum_games", lambda a, k: "operators.sum_games." + _op_name(a, k)),
    ("operators", "eval_sum", lambda a, k: "operators.eval_sum." + _op_name(a, k)),
    ("evaluate", "final_scores", "evaluate.final_scores"),
    ("notation", "parse_game", "notation.parse_game"),
    ("notation", "format_game", "notation.format_game"),
    ("verify", "run_checks", "verify.run_checks"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}       # name -> [self seconds, calls]
        self.spans: list[tuple] = []            # (op id, depth, name, start, end)
        self.op_id = -1
        self._open: list[list] = []             # child seconds of each open span

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        open_spans = self._open
        frame = [0.0]
        depth = len(open_spans)
        open_spans.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            open_spans.pop()
            took = end - start
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0.0, 0]
            total[0] += took - frame[0]
            total[1] += 1
            if open_spans:
                open_spans[-1][0] += took
            if depth < 2:
                self.spans.append((self.op_id, depth, name, start, end))

    def _wrapper(self, fn: Callable, name) -> Callable:
        span = self.span
        if isinstance(name, str):
            def traced(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return span(name(args, kwargs), fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a loaded scoreplay module binds it.

        Functions of modules not imported yet (the CLI, in the workloads
        that do not use it) are left alone.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "scoreplay" or key.startswith("scoreplay."))]
        for module_name, func_name, name in TRACED:
            owner = sys.modules.get("scoreplay." + module_name)
            if owner is None:
                continue
            original = getattr(owner, func_name)
            wrapped = self._wrapper(original, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def summary(self) -> dict[str, list]:
        return {name: list(total) for name, total in sorted(self.totals.items())}


def self_seconds(summary: dict, prefix: str) -> float:
    """Self seconds of the span `prefix`, or of all `prefix.*` spans."""
    if prefix in summary:
        return summary[prefix][0]
    return sum(t for name, (t, _) in summary.items() if name.startswith(prefix + "."))


def calls(summary: dict, prefix: str) -> int:
    if prefix in summary:
        return summary[prefix][1]
    return sum(n for name, (_, n) in summary.items() if name.startswith(prefix + "."))
