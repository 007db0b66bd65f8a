"""The scoreplay benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload heap-split --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the engine is imported from the
checkout's `src/`.  Each round of a workload runs in fresh processes, one
at a time (closed loop, one client), and rounds repeat until --seconds
have passed; every round attempts the same operations.  Every output is
checked against the reference evaluators in reference.py, which share no
code with scoreplay.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
of BENCHMARK.json when --trace 0 and its per-layer metrics when --trace 1.
Details of the run go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import inputs  # noqa: E402  (bench/ is on sys.path as the script's directory)
import reference  # noqa: E402
import spans  # noqa: E402
from reference import HeapEvaluator, Ruleset  # noqa: E402

#: A run that has not finished this long after it started is abandoned:
#: the running child is killed and no result is printed.
RUN_LIMIT_S = 170
_deadline = time.monotonic() + RUN_LIMIT_S


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------- processes

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"     # one less source of run-to-run noise
    env.pop("PYTHONSTARTUP", None)
    return env


def spawn(argv: list[str], tmp: str) -> dict:
    """Run argv to its end; wall time, exit code, peak RSS and its output."""
    out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_child_env())
        timer = threading.Timer(max(0.0, _deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if end >= _deadline:
        raise BenchError(f"{' '.join(argv[1:])} still ran {RUN_LIMIT_S} s after the start")
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {"start": start, "end": end, "code": proc.returncode, "stdout": stdout,
            "stderr": stderr, "peak_rss_mb": usage.ru_maxrss / 1024}


# ------------------------------------------------------ heap-split, tree-sums

def child_round(workload: str, seed: int, trace: bool, tmp: str) -> dict:
    run = spawn([sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
                 "1" if trace else "0"], tmp)
    if run["code"] != 0:
        raise BenchError(f"{workload} round exited {run['code']}:\n{run['stderr'][-2000:]}")
    data = json.loads(run["stdout"])
    data["setup_s"] = data["first_op"] - run["start"]
    data["run_s"] = data["last_op_end"] - data["first_op"]
    data["peak_rss_mb"] = run["peak_rss_mb"]
    data["failed"] = [e is not None for e in data["errors"]]
    data["import_s"] = [data["import_s"]]
    data["walls"] = {}
    return data


class Evaluators:
    """Reference heap evaluators, one per (ruleset, operator), made on demand."""

    def __init__(self):
        self._made: dict[tuple[str, str], HeapEvaluator] = {}

    def __call__(self, rules: str, op: str) -> HeapEvaluator:
        key = (rules, op)
        if key not in self._made:
            self._made[key] = HeapEvaluator(Ruleset.parse(rules), op)
        return self._made[key]


def heap_split_checker(seed: int):
    """check(i, output) for the operations of inputs.heap_split_ops(seed).

    Selective multisets whose single heaps are all worth >= 0, and
    conjunctive pairs, are checked against the sum of the single-heap
    values: the additivity identities `verify-paper` asserts in those
    ranges.  Everything else is checked against the reference evaluator.
    """
    ops = inputs.heap_split_ops(seed)
    ev = Evaluators()

    def want(kind, rules, op, sizes) -> Fraction:
        singles = [ev(rules, op).value([n]) for n in sizes]
        additive = (op == reference.SELECTIVE and len(sizes) > 1 and min(singles) >= 0
                    or op == reference.CONJUNCTIVE and len(sizes) == 2)
        return sum(singles, Fraction(0)) if additive else ev(rules, op).value(sizes)

    def check(i: int, output) -> str | None:
        expected = want(*ops[i])
        if Fraction(output) != expected:
            return f"{ops[i]}: engine {output}, reference {expected}"
        return None

    return len(ops), check


def tree_sums_checker(seed: int):
    """check(i, output) for the operations of inputs.tree_sums_ops(seed)."""
    ops = inputs.tree_sums_ops(seed)
    sums = inputs.random_sums(seed)
    ev = Evaluators()

    def check(i: int, output) -> str | None:
        kind, *rest = ops[i]
        if kind == "sum":
            op, _, k = rest
            fsl, fsr, esl, esr, round_trip = output
            if (fsl, fsr) != (esl, esr):
                return f"sum {k} {op}: final_scores(sum_games) {fsl},{fsr} != eval_sum {esl},{esr}"
            if not round_trip:
                return f"sum {k}: parse_game(format_game(g)) != g for a component"
            comps = sums[k]
            if math.prod(map(inputs.node_count, comps)) <= inputs.BRUTE_FORCE_MAX:
                want = reference.brute_force_sum(op, comps)
                if (Fraction(fsl), Fraction(fsr)) != want:
                    return f"sum {k} {op}: engine {fsl},{fsr}, brute force {want}"
            return None
        if kind == "heap":
            rules, op, parts = rest
            want = ev(rules, op).value(parts)
            if Fraction(output) != want:
                return f"heap trees {rules} {op} {parts}: SL {output}, reference {want}"
            return None
        line = inputs.forced_line(rest[0])
        if kind == "deep_parse":
            ok = output is True
        elif kind == "deep_final":
            ok = tuple(map(Fraction, output)) == reference.walk_final_scores(line)
        else:
            ok = output == reference.tree_text(line)
        return None if ok else f"{kind} depth {rest[0]}: wrong result"

    return len(ops), check


# ---------------------------------------------------------------- cli-reports

def _table_json(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _period_phrase(found) -> str:
    if found is None:
        return "none detected"
    start, period, conf = found
    return f"length {period} from n={start} (confirmed on {conf} values)"


def _period_dict(found):
    if found is None:
        return None
    start, period, conf = found
    return {"preperiod": start, "period": period, "confirmations": conf}


def _argv_value(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


class CliChecker:
    """Checks one invocation's exit code and report against the references."""

    def __init__(self):
        self.ev = Evaluators()
        self._tables: dict[tuple, list[Fraction]] = {}

    def table(self, rules: str, op: str, n_max: int, tail: tuple[int, ...]) -> list[Fraction]:
        key = (rules, op, n_max, tail)
        if key not in self._tables:
            ev = self.ev(rules, op)
            self._tables[key] = [ev.value((n,) + tail) for n in range(n_max + 1)]
        return self._tables[key]

    def failed(self, argv: list[str], code: int) -> bool:
        """Did the invocation fail to produce a report at all?"""
        if argv[0] == "verify-paper":
            return code not in (0, 1)   # 1 is a report with a failed check
        return code != 0

    def check(self, argv: list[str], code: int, stdout: str) -> str | None:
        sub = argv[0]
        if sub == "eval":
            return None if stdout == "0: SL=0 SR=0 outcome=Tie\n" else f"eval 0 printed {stdout!r}"
        if sub == "gs":
            return self._check_gs(argv, stdout)
        report = json.loads(stdout)
        if report.get("schema_version") != "1":
            return f"{sub}: schema_version {report.get('schema_version')!r}"
        if sub == "period-compare":
            return self._check_compare(argv, report)
        names = [argv[i + 1] for i, a in enumerate(argv) if a == "--only"]
        got = sorted(c["name"] for c in report["checks"])
        if code != 0 or not report["passed"] or not all(c["passed"] for c in report["checks"]):
            return f"verify-paper {names}: exit {code}, a check failed"
        if got != sorted(names):
            return f"verify-paper ran {got}, asked for {names}"
        return None

    def _check_gs(self, argv: list[str], stdout: str) -> str | None:
        rules, op = _argv_value(argv, "--rules"), _argv_value(argv, "--op", "disjunctive")
        n_max = int(_argv_value(argv, "--n-max", 200))
        tail = tuple(int(n) for n in _argv_value(argv, "--tail", "").split(",") if n)
        fmt = _argv_value(argv, "--format", "text")
        want = self.table(rules, op, n_max, tail)
        found = reference.brute_force_period(want, 10)
        if fmt == "json":
            report = json.loads(stdout)
            if report.get("schema_version") != "1":
                return f"gs json: schema_version {report.get('schema_version')!r}"
            got, rest_ok = _table_json(report["table"]), report["period"] == _period_dict(found)
        elif fmt == "csv":
            rows = stdout.splitlines()
            got = [Fraction(r.split(",")[1]) for r in rows[1:]]
            rest_ok = rows[0] == "n,value" and \
                [int(r.split(",")[0]) for r in rows[1:]] == list(range(len(rows) - 1))
        else:
            lines = stdout.splitlines()
            body = lines[lines.index("values:") + 1:-1]
            got = [Fraction(v) for row in body for v in row.split(":", 1)[1].split()]
            rest_ok = lines[-1] == "period: " + _period_phrase(found)
        if got != want:
            bad = next((n for n, (a, b) in enumerate(zip(got, want)) if a != b),
                       min(len(got), len(want)))
            return f"{' '.join(argv)}: table differs from the reference at n={bad}"
        if not rest_ok:
            return f"{' '.join(argv)}: period or layout differs from the brute-force one"
        return None

    def _check_compare(self, argv: list[str], report: dict) -> str | None:
        rulesets = [argv[i + 1] for i, a in enumerate(argv) if a == "--rules"]
        n_max = int(_argv_value(argv, "--n-max", 200))
        if [r["ruleset"] for r in report["reports"]] != rulesets:
            return f"period-compare reported {[r['ruleset'] for r in report['reports']]}"
        for rules, entry in zip(rulesets, report["reports"]):
            splits = Ruleset.parse(rules).can_split
            periods = []
            for op in reference.OPERATORS:
                got = entry["operators"][op]
                if op == reference.SEQUENTIAL and splits:
                    if "skipped" not in got:
                        return f"period-compare {rules}: sequential not skipped"
                    continue
                want = self.table(rules, op, n_max, ())
                found = reference.brute_force_period(want, entry["min_confirm"])
                if _table_json(got["table"]) != want:
                    return f"period-compare {rules} {op}: table differs from the reference"
                if got["period"] != _period_dict(found):
                    return f"period-compare {rules} {op}: period {got['period']}, brute force {found}"
                periods.append(found)
            agree = all(p is not None for p in periods) and len({p[1] for p in periods}) == 1
            if entry["all_periods_equal"] != agree:
                return f"period-compare {rules}: all_periods_equal is {entry['all_periods_equal']}"
        return None


def cli_round(seed: int, trace: bool, tmp: str) -> dict:
    script = inputs.cli_script(seed)
    trace_path = os.path.join(tmp, "trace.json")
    data = {"latencies": [], "outputs": [], "failed": [], "eval_walls": [],
            "import_s": [], "walls": {}, "summary": {}, "nodes_interned": 0,
            "spans": [], "peak_rss_mb": 0.0}
    for i, argv in enumerate(script):
        if trace:
            cmd = [sys.executable, os.path.join(HERE, "cli_entry.py"), trace_path, *argv]
        else:
            cmd = [sys.executable, "-m", "scoreplay", *argv]
        run = spawn(cmd, tmp)
        wall = run["end"] - run["start"]
        if i == 0:
            data["first_op"] = run["start"]
        data["last_op_end"] = run["end"]
        data["latencies"].append(wall)
        data["outputs"].append((run["code"], run["stdout"], run["stderr"][-2000:]))
        data["peak_rss_mb"] = max(data["peak_rss_mb"], run["peak_rss_mb"])
        if argv == ["eval", "0"]:
            data["eval_walls"].append(wall)
        if trace:
            with open(trace_path, encoding="utf-8") as fh:
                t = json.load(fh)
            os.remove(trace_path)
            data["import_s"].append(t["import_s"])
            data["walls"][argv[0]] = data["walls"].get(argv[0], 0.0) + t["wall_s"]
            data["nodes_interned"] += t["nodes_interned"]
            for name, (self_s, calls) in t["summary"].items():
                total = data["summary"].setdefault(name, [0.0, 0])
                total[0] += self_s
                total[1] += calls
            data["spans"].extend([i, *s[1:]] for s in t["spans"])
    data["run_s"] = data["last_op_end"] - data["first_op"]
    return data


# -------------------------------------------------------------------- metrics

def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, rounds: list[dict]) -> dict[str, float]:
    ok_latencies = [lat for r in rounds
                    for lat, bad in zip(r["latencies"], r["failed"]) if not bad]
    if workload == "cli-reports":
        setup = statistics.median(w for r in rounds for w in r["eval_walls"])
    else:
        setup = statistics.median(r["setup_s"] for r in rounds)
    return {
        "setup_s": setup,
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "op_p50_ms": statistics.median(ok_latencies) * 1e3,
        "op_p99_ms": _quantile(ok_latencies, 99) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def _layer_value(name: str, r: dict):
    if name == "game.nodes_interned":
        return r["nodes_interned"]
    if name.startswith("cli.") and name.endswith(".wall_s"):
        return r["walls"].get(name[len("cli."):-len(".wall_s")], 0.0)
    if name.endswith(".self_s"):
        return spans.self_seconds(r["summary"], name[:-len(".self_s")])
    if name.endswith(".calls"):
        return spans.calls(r["summary"], name[:-len(".calls")])
    raise BenchError(f"no per-layer metric called {name}")


def per_layer(names: list[str], rounds: list[dict]) -> dict[str, float]:
    """Median over rounds of each layer's per-round total; counts from round 1.

    cli.import_s is the median import time of one fresh process.
    """
    out = {}
    for name in names:
        if name == "cli.import_s":
            out[name] = statistics.median(x for r in rounds for x in r["import_s"])
            continue
        values = [_layer_value(name, r) for r in rounds]
        if name.endswith(".calls") or name == "game.nodes_interned":
            if len(set(values)) != 1:
                print(f"warning: {name} differs between rounds: {values}", file=sys.stderr)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


# ----------------------------------------------------------------------- main

WORKLOADS = ("heap-split", "tree-sums", "cli-reports")


def load_metric_names() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "scoreplay", "__init__.py")):
        raise BenchError(f"no scoreplay package under {SRC}")
    bad = reference.self_check()
    if bad:
        raise BenchError("reference evaluators fail their hand-worked cases: " + "; ".join(bad))
    e2e_units, layer_units = load_metric_names()
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        rounds = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < seconds:
            if workload == "cli-reports":
                rounds.append(cli_round(seed, trace, tmp))
            else:
                rounds.append(child_round(workload, seed, trace, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems: list[str] = []
    if workload == "cli-reports":
        script, checker = inputs.cli_script(seed), CliChecker()
        for r in rounds:
            for argv, (code, stdout, stderr) in zip(script, r["outputs"]):
                bad = checker.failed(argv, code)
                r["failed"].append(bad)
                if not bad:
                    try:
                        problem = checker.check(argv, code, stdout)
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        problem = f"{' '.join(argv)}: unreadable report ({exc!r})"
                    if problem:
                        problems.append(problem)
                elif argv != inputs.FAILING_GS:
                    print(f"warning: {' '.join(argv)} exited {code}:\n{stderr}", file=sys.stderr)
    else:
        count, check = (heap_split_checker if workload == "heap-split"
                        else tree_sums_checker)(seed)
        for r in rounds:
            if len(r["outputs"]) != count:
                raise BenchError(f"round ran {len(r['outputs'])} operations, expected {count}")
            for i, (out, err) in enumerate(zip(r["outputs"], r["errors"])):
                if err is None:
                    problem = check(i, out)
                    if problem:
                        problems.append(problem)
    if len({tuple(r["failed"]) for r in rounds}) != 1:
        problems.append("different operations failed in different rounds")

    attempted = sum(len(r["failed"]) for r in rounds)
    failed = sum(sum(r["failed"]) for r in rounds)
    if trace:
        values = per_layer(list(layer_units), rounds)
        units = layer_units
    else:
        values = end_to_end(workload, rounds)
        units = e2e_units
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}

    detail = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  rounds=len(rounds), problems=problems[:50],
                  round_run_s=[r["run_s"] for r in rounds],
                  failed_ops=sorted({i for r in rounds for i, bad in enumerate(r["failed"]) if bad}),
                  python=sys.version.split()[0], cpus=os.cpu_count())
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(os.path.join(OUT, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if trace:
        with open(os.path.join(OUT, name + ".spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "depth", "name", "start_s", "end_s"],
                       "round_1": rounds[0]["spans"],
                       "summary_by_round": [r["summary"] for r in rounds]}, fh)
    for p in problems[:20]:
        print("incorrect:", p, file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
