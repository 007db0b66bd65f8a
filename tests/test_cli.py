"""Command-line surface: output shapes, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scoreplay
from scoreplay import FinalScores, cli, octal, outcome_of_scores
from scoreplay.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_pinned_games(capsys):
    code, out, _ = run(capsys, "eval", "{4|3|2}", "0",
                       "{{.|-2|{.|3|{1|0|-4}}}|5|.}")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "{4|3|2}: SL=4 SR=2 outcome=L"
    assert lines[1] == "0: SL=0 SR=0 outcome=Tie"
    assert "SL=3 SR=5" in lines[2]


def test_eval_json_shape(capsys):
    code, out, _ = run(capsys, "eval", "--json", "{4|3|2}", "1/2")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == "1"
    assert report["command"] == "eval"
    first, second = report["games"]
    assert first == {"game": "{4|3|2}", "sl": 4, "sr": 2, "outcome": "L"}
    assert second["sl"] == "1/2"


def test_eval_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", "{4|3")
    assert code == 2
    assert "parse error" in err


def test_eval_non_ascii_digit_is_a_parse_error(capsys):
    code, out, err = run(capsys, "eval", "\u00b2")
    assert (code, out) == (2, "")
    assert "parse error: expected a game (at position 0)" in err


def test_eval_without_games_exits_2(capsys):
    code, _, err = run(capsys, "eval")
    assert code == 2
    assert "no games" in err


def test_eval_reads_file(capsys, tmp_path):
    path = tmp_path / "games.txt"
    path.write_text("# a comment\n{4|3|2}\n\n0\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--file", str(path))
    assert code == 0
    assert len(out.splitlines()) == 2


def test_eval_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--file", str(tmp_path / "nope"))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_too_deep_or_too_large_exits_2(capsys, monkeypatch, error):
    def cmd_eval(args):
        raise error()
    monkeypatch.setattr(cli, "cmd_eval", cmd_eval)
    code, out, err = run(capsys, "eval", "0")
    assert code == 2
    assert out == ""
    assert err == "scoreplay: error: input too deep or too large to evaluate\n"


@pytest.mark.parametrize("depth", [1500, 10 ** 4])
def test_deep_game_file_evaluates(tmp_path, depth):
    # a line of Left moves; the node at depth i from the root scores i % 7 - 3
    scores = [i % 7 - 3 for i in range(depth)]
    text = "{" * depth + "0" + "".join(f"|{s}|.}}" for s in reversed(scores))
    sl = sr = 0
    for s in reversed(scores):
        sl, sr = sr, s
    path = tmp_path / "deep.txt"
    path.write_text(text + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(scoreplay.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "scoreplay", "eval", "--file", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    verdict = outcome_of_scores(FinalScores(sl, sr))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{text}: SL={sl} SR={sr} outcome={verdict}\n"


def test_sum_sequential_leaves(capsys):
    code, out, _ = run(capsys, "sum", "--op", "seq", "1", "1")
    assert code == 0
    assert "SL=2 SR=2" in out


def test_sum_conjunctive_towers(capsys):
    code, out, _ = run(capsys, "sum", "--op", "conj", "--json",
                       "{{.|-2|{.|3|{1|0|-4}}}|5|.}",
                       "{.|2|{{{6|4|.}|-1|.}|7|.}}")
    assert code == 0
    report = json.loads(out)
    assert report["sl"] == 5 and report["sr"] == 7


def test_sum_unknown_operator_exits_2(capsys):
    code, _, err = run(capsys, "sum", "--op", "bogus", "1")
    assert code == 2
    assert "unknown operator" in err


def test_gs_csv_table(capsys):
    code, out, _ = run(capsys, "gs", "--rules", "0.33:1,2", "--n-max", "8",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert lines[1:] == ["0,0", "1,1", "2,2", "3,1", "4,0", "5,1", "6,2",
                         "7,1", "8,0"]


def test_gs_text_reports_period(capsys):
    code, out, _ = run(capsys, "gs", "--rules", "0.33:1,2", "--n-max", "40")
    assert code == 0
    assert "period: length 4 from n=0" in out


def test_gs_json_shape(capsys):
    code, out, _ = run(capsys, "gs", "--rules", "0.33:1,2", "--n-max", "20",
                       "--op", "sel", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "gs"
    assert report["operator"] == "selective"
    assert report["table"][:9] == [0, 1, 2, 1, 0, 1, 2, 1, 0]
    assert report["period"] == {"preperiod": 0, "period": 4,
                                "confirmations": 17}
    assert report["tail"] == []


def test_gs_period_not_confirmable_is_null(capsys):
    code, out, _ = run(capsys, "gs", "--rules", "0.33:1,2", "--n-max", "12",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["period"] is None


def test_gs_tail_same_ruleset(capsys):
    code, out, _ = run(capsys, "gs", "--rules", "0.33:1,2", "--op", "seq",
                       "--tail", "3", "--n-max", "6", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["tail"] == [["0.33:1,2", 3]]
    # n = 0 row is the tail alone
    assert report["table"][0] == 1


def test_gs_sequential_splitting_ruleset_exits_2(capsys):
    code, _, err = run(capsys, "gs", "--rules", "0.007:0,0,1", "--op", "seq",
                       "--n-max", "6")
    assert code == 2
    assert "sequential" in err


def test_gs_sequential_splitting_ruleset_at_n_max_0_exits_2(capsys):
    code, out, err = run(capsys, "gs", "--rules", "0.007:0,0,1", "--op", "seq",
                         "--n-max", "0")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "sequential" in err


def test_gs_bad_ruleset_exits_2(capsys):
    code, _, err = run(capsys, "gs", "--rules", "0.93:1,2")
    assert code == 2


def test_gs_bad_tail_exits_2(capsys):
    code, _, err = run(capsys, "gs", "--rules", "0.33:1,2", "--tail", "3,x")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("gs", "--rules", "0.33:1,2", "--tail", "\u0661"),
    ("gs", "--rules", "0.33:1,2", "--tail", "3,1_0"),
    ("gs", "--rules", "0.33:1,2", "--n-max", "1_0"),
    ("gs", "--rules", "0.33:1,2", "--n-max", "\u0663"),
    ("gs", "--rules", "0.33:1,2", "--n-max", " 5"),
    ("gs", "--rules", "0.33:1,2", "--min-confirm", "\uff15"),
    ("period-compare", "--rules", "0.33:1,2", "--n-max", "4.0"),
    ("period-compare", "--rules", "0.33:1,2", "--min-confirm", "1e1"),
    ("verify-paper", "--seed", "\u0663"),
    ("verify-paper", "--samples", "1_0"),
])
def test_integer_flags_take_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ")


def test_integer_flags_take_a_sign(capsys):
    signed = run(capsys, "gs", "--rules", "0.33:1,2", "--n-max", "+6",
                 "--tail", "+3", "--min-confirm", "+2")
    plain = run(capsys, "gs", "--rules", "0.33:1,2", "--n-max", "6",
                "--tail", "3", "--min-confirm", "2")
    assert signed == plain and signed[0] == 0


def test_period_compare_text(capsys):
    code, out, _ = run(capsys, "period-compare", "--rules", "0.33:1,2",
                       "--n-max", "40")
    assert code == 0
    assert "reference period 4" in out
    assert "all operators agree: yes" in out


def test_period_compare_splitting_ruleset(capsys):
    code, out, _ = run(capsys, "period-compare", "--rules", "0.007:0,0,1",
                       "--n-max", "20", "--min-confirm", "6")
    assert code == 0
    assert "skipped (splitting ruleset has no sequential reading)" in out


def test_period_compare_json_battery(capsys):
    code, out, _ = run(capsys, "period-compare", "--rules", "0.33:1,2",
                       "--rules", "0.337", "--n-max", "30",
                       "--min-confirm", "8", "--json")
    assert code == 0
    report = json.loads(out)
    assert [r["ruleset"] for r in report["reports"]] == ["0.33:1,2",
                                                         "0.337:1,2,0"]
    assert report["reports"][1]["reference_period"] == 6


@pytest.mark.parametrize("command", ["gs", "period-compare"])
def test_min_confirm_below_one_exits_2_before_any_table(capsys, monkeypatch, command):
    # at the default n_max, tables of this splitting ruleset take minutes
    def value_table(*args):
        raise AssertionError("a table was built")
    monkeypatch.setattr(cli, "value_table", value_table)
    monkeypatch.setattr(octal, "value_table", value_table)
    code, out, err = run(capsys, command, "--rules", "0.007:0,0,1", "--min-confirm", "0")
    assert (code, out) == (2, "")
    assert err == "scoreplay: error: min_confirm must be at least 1\n"


def test_period_compare_empty_battery_exits_2(capsys):
    code, _, err = run(capsys, "period-compare")
    assert code == 2
    assert "--rules" in err


def test_verify_quick_check_passes(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "period-anchor")
    assert code == 0
    assert out.startswith("PASS")
    assert "1/1 checks passed" in out


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "notation-round-trip",
                       "--samples", "10", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == "1"
    assert report["passed"] is True
    assert report["checks"][0]["name"] == "notation-round-trip"
    assert report["checks"][0]["passed"] is True


def test_verify_unknown_filter_exits_2(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "wat")
    assert code == 2
    assert "known checks" in err


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_samples_below_one_exits_2(capsys, samples):
    code, out, err = run(capsys, "verify-paper", "--samples", samples)
    assert code == 2
    assert out == ""
    assert err == f"scoreplay: error: samples must be at least 1, got {samples}\n"


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2


def test_reports_are_byte_identical(tmp_path, capsys):
    argv = ["gs", "--rules", "0.33:1,2", "--n-max", "25", "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    argv = ["verify-paper", "--only", "period-anchor", "--json"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_output_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, out, _ = run(capsys, "gs", "--rules", "0.33:1,2", "--n-max", "6",
                       "--format", "csv")
    assert code == 0
    assert main(["gs", "--rules", "0.33:1,2", "--n-max", "6",
                 "--format", "csv", "--output", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text(encoding="utf-8") == out
