"""Brace-notation parser and printer, plus the octal ruleset notation."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import games_st
from scoreplay import (NotationError, OctalRuleset, format_game, format_score,
                       left_options, number, parse_game, parse_game_lines,
                       parse_octal, right_options, score)


def test_parse_simple_game():
    g = parse_game("{0|1|2}")
    assert left_options(g) == (number(0),)
    assert score(g) == 1
    assert right_options(g) == (number(2),)


def test_leaf_forms_are_the_same_id():
    assert parse_game("{.|5|.}") == parse_game("5") == number(5)
    assert parse_game("{ . | 5 | . }") == number(5)


def test_parse_multi_option_game():
    g = parse_game("{1,{0|0|0}|0|{0|0|0},-1}")
    assert len(left_options(g)) == 2
    assert len(right_options(g)) == 2
    assert score(g) == 0


def test_parse_rationals():
    assert score(parse_game("-3/4")) == Fraction(-3, 4)
    assert score(parse_game("{.|22/7|.}")) == Fraction(22, 7)


def test_whitespace_is_insignificant():
    a = parse_game("{ { . | -2 | 1 } , 0 | 1/2 | . }")
    b = parse_game("{{.|-2|1},0|1/2|.}")
    assert a == b


@pytest.mark.parametrize("bad", [
    "{1|2}",          # missing a slot
    "{|0|}",          # empty option text instead of '.'
    "{0|1|2",         # unclosed brace
    "1/0",            # zero denominator
    "{0|x|2}",        # not a rational
    "",               # nothing at all
    "3 4",            # trailing garbage
])
def test_parse_errors(bad):
    with pytest.raises(NotationError):
        parse_game(bad)


def test_parse_error_carries_position():
    with pytest.raises(NotationError) as err:
        parse_game("{0|1|2statement}")
    assert "position" in str(err.value)


@pytest.mark.parametrize("text, message, position", [
    ("", "expected a game", 0),
    ("  ", "expected a game", 2),
    ("{", "expected a game", 1),
    ("{0,", "expected a game", 3),
    ("{0|", "expected a number", 3),
    ("{0|1|", "expected a game", 5),
])
def test_parse_error_at_end_of_text(text, message, position):
    with pytest.raises(NotationError) as err:
        parse_game(text)
    assert err.value.position == position <= len(text)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("text, message, position", [
    ("{0|1,2|3}", "expected '|' after the score", 4),
    ("1/", "expected a denominator", 2),
    ("1/0", "zero denominator", 2),
    ("{0|1|2|", "expected '}'", 6),
    ("{0,1}", "expected '|'", 4),
    ("{1|0|-1}}", "trailing input after the game", 8),
    ("\u00b2", "expected a game", 0),           # superscript two
    ("{1|\u00b2|0}", "expected a number", 3),
    ("1/\u00b2", "expected a denominator", 2),
    ("\u0661\u0662", "expected a game", 0),     # Arabic-Indic twelve
])
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(NotationError) as err:
        parse_game(text)
    assert err.value.position == position
    assert str(err.value).startswith(message)


@given(st.text(alphabet="{}|,./+- 0123456789\u00b2\u0661", max_size=30))
def test_parse_game_returns_a_game_or_raises_notation_error(text):
    # only the ASCII digits are digits: str.isdigit() also accepts '\u00b2',
    # which int() rejects, and '\u0661', which int() reads as 1
    try:
        g = parse_game(text)
    except NotationError:
        return
    assert parse_game(format_game(g)) == g


def test_format_leaf():
    assert format_game(number(0)) == "0"
    assert format_game(number(Fraction(-1, 3))) == "-1/3"


def test_format_score():
    assert format_score(Fraction(4)) == "4"
    assert format_score(Fraction(-7, 2)) == "-7/2"


def test_format_is_canonical():
    g = parse_game("{2,1|0|.}")
    h = parse_game("{1,2|0|.}")
    assert format_game(g) == format_game(h)


@given(games_st())
def test_round_trip(g):
    assert parse_game(format_game(g)) == g


def test_parse_game_lines_skips_blanks_and_comments():
    text = "# heading\n{4|3|2}\n\n  # note\n0\n{1|0|-1}  # trailing\n"
    games = parse_game_lines(text)
    assert games == [parse_game("{4|3|2}"), number(0), parse_game("{1|0|-1}")]


def test_parse_octal_explicit_points():
    r = parse_octal("0.33:1,2")
    assert r.digits == (3, 3)
    assert r.points == (Fraction(1), Fraction(2))


def test_parse_octal_defaulted_points():
    r = parse_octal("0.337")
    assert r.digits == (3, 3, 7)
    assert r.points == (Fraction(1), Fraction(2), Fraction(0))


def test_parse_octal_without_prefix():
    assert parse_octal("337") == parse_octal("0.337")


def test_parse_octal_rational_points():
    r = parse_octal("0.007:0,0,1/2")
    assert r.points == (Fraction(0), Fraction(0), Fraction(1, 2))


def test_parse_octal_rejects_bad_digit():
    with pytest.raises(NotationError):
        parse_octal("0.39:1,2")


def test_parse_octal_rejects_point_mismatch():
    with pytest.raises(NotationError):
        parse_octal("0.33:1")


@pytest.mark.parametrize("text, message, position", [
    ("0.38", "octal digit expected, got '8'", 3),
    ("  0.38", "octal digit expected, got '8'", 5),
    ("0.33:1,x", "expected a number", 7),
    ("0.33:1,1/0", "zero denominator", 9),
    ("0.3:\u0661", "expected a number", 4),        # Arabic-Indic one
    ("0.3:1_0", "trailing input after the ruleset", 5),
    ("0.3:1.5", "trailing input after the ruleset", 5),
    ("0.3:1e2", "trailing input after the ruleset", 5),
    ("0.33:1:2", "trailing input after the ruleset", 6),
    ("  0.", "expected ruleset digits", 4),
])
def test_parse_octal_error_message_and_position(text, message, position):
    # point values follow the game grammar's rationals, and positions
    # index the text as given
    with pytest.raises(NotationError) as err:
        parse_octal(text)
    assert err.value.position == position
    assert str(err.value).startswith(message)


def test_parse_octal_allows_whitespace_between_parts():
    assert parse_octal(" 0.33 : 1 , -2/3 ") == OctalRuleset((3, 3), (1, Fraction(-2, 3)))


def test_ruleset_notation_round_trips():
    for text in ("0.33:1,2", "0.007:0,0,1", "0.337:1,2,0"):
        assert parse_octal(text).notation() == text
        assert parse_octal(parse_octal(text).notation()) == parse_octal(text)
