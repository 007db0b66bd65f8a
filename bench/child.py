"""One round of the heap-split or tree-sums workload, in a fresh process.

    PYTHONPATH=src python3 bench/child.py WORKLOAD SEED TRACE

Imports scoreplay, builds the round's inputs from SEED, runs every
operation once in order (closed loop, one client), and prints one JSON
object: per-operation latency and output, the clock readings that bound
the round, and with TRACE=1 the span summary.  Outputs are checked by
run.py, not here, apart from comparisons that need the engine's own
game ids.
"""

from __future__ import annotations

import json
import sys
import time


def _intern(make_game, tree: tuple) -> int:
    """Intern a plain-tuple tree bottom up, without recursion."""
    ids: dict[int, int] = {}
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in ids:
            continue
        left, s, right = node
        if not expanded:
            stack.append((node, True))
            stack.extend((x, False) for x in left + right)
            continue
        ids[id(node)] = make_game([ids[id(x)] for x in left], s, [ids[id(x)] for x in right])
    return ids[id(tree)]


def heap_split_calls(seed: int):
    from scoreplay import octal, notation
    from scoreplay.operators import Operator
    import inputs

    rulesets = {}
    calls = []
    for kind, rules, op, sizes in inputs.heap_split_ops(seed):
        if rules not in rulesets:
            rulesets[rules] = notation.parse_octal(rules)
        r, o = rulesets[rules], Operator(op)
        if kind == "grundy":
            position = [(r, n) for n in sizes]
            calls.append(lambda o=o, p=position: str(octal.grundy_value(o, p)))
        else:
            calls.append(lambda r=r, n=sizes[0], o=o: str(octal.heap_value(r, n, o)))
    return calls


def tree_sums_calls(seed: int):
    from scoreplay import evaluate, game, notation, octal, operators
    from scoreplay.operators import Operator
    import inputs
    from reference import tree_text

    lines = {d: inputs.forced_line(d) for d in inputs.DEEP_LINES}
    line_text = {d: tree_text(line) for d, line in lines.items()}
    line_id = {d: _intern(game.make_game, line) for d, line in lines.items()}
    rulesets: dict = {}

    def run_sum(op, texts):
        comps = [notation.parse_game(t) for t in texts]
        back = [notation.parse_game(notation.format_game(g)) for g in comps]
        fs = evaluate.final_scores(operators.sum_games(op, comps))
        es = operators.eval_sum(op, comps)
        return [str(fs.sl), str(fs.sr), str(es.sl), str(es.sr), back == comps]

    def run_heap(rules, op, parts):
        trees = [octal.heap_game(rules, n, op, cap=inputs.HEAP_BEANS) for n in parts]
        return str(evaluate.final_scores(operators.sum_games(op, trees)).sl)

    calls = []
    for kind, *rest in inputs.tree_sums_ops(seed):
        if kind == "sum":
            op, texts, _ = rest
            calls.append(lambda o=Operator(op), t=texts: run_sum(o, t))
        elif kind == "heap":
            rules, op, parts = rest
            if rules not in rulesets:
                rulesets[rules] = notation.parse_octal(rules)
            calls.append(lambda r=rulesets[rules], o=Operator(op), p=parts: run_heap(r, o, p))
        elif kind == "deep_parse":
            d = rest[0]
            calls.append(lambda d=d: notation.parse_game(line_text[d]) == line_id[d])
        elif kind == "deep_final":
            d = rest[0]
            calls.append(lambda d=d: [str(x) for x in evaluate.final_scores(line_id[d])])
        else:
            d = rest[0]
            calls.append(lambda d=d: notation.format_game(line_id[d]))
    return calls


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    start = time.perf_counter()
    from scoreplay import game     # imports the whole package
    import_s = time.perf_counter() - start

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    build = {"heap-split": heap_split_calls, "tree-sums": tree_sums_calls}[workload]
    calls = build(seed)

    latencies, outputs, errors = [], [], []
    nodes_before = game.store_size()
    first = time.monotonic()
    for i, call in enumerate(calls):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = call()
            else:
                tracer.op_id = i
                out = tracer.span("op", call)
        except Exception as exc:  # one failed operation must not end the round
            latencies.append(time.perf_counter() - t0)
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {str(exc)[:200]}")
            continue
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
        errors.append(None)
    last = time.monotonic()

    result = {"import_s": import_s, "first_op": first, "last_op_end": last,
              "latencies": latencies, "outputs": outputs, "errors": errors}
    if tracer is not None:
        result["nodes_interned"] = game.store_size() - nodes_before
        result["summary"] = tracer.summary()
        result["spans"] = tracer.spans
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
