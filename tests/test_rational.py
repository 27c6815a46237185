from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from capgames import NEG_INF, POS_INF, format_rational, parse_rational


def test_parse_fraction_and_integer():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("2") == Fraction(2)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("0") == Fraction(0)
    assert parse_rational(" +3 / 4 ") == Fraction(3, 4)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_rational("1/0")


@pytest.mark.parametrize("bad", ["", "abc", "1/2/3", "1.5", "1_000", "\u0661\u0662"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_integers_bare():
    assert format_rational(Fraction(2)) == "2"
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(3, 4)) == "3/4"


@given(st.fractions())
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_extremes_order_around_all_rationals():
    for q in (Fraction(-10**9), Fraction(0), Fraction(10**9)):
        assert NEG_INF < q < POS_INF
        assert not q < NEG_INF
        assert not POS_INF < q
    assert NEG_INF < POS_INF
    assert not POS_INF < POS_INF
    assert POS_INF == POS_INF
    assert NEG_INF != POS_INF


def test_extremes_comparison_operators():
    assert POS_INF >= Fraction(5) and POS_INF > Fraction(5)
    assert NEG_INF <= Fraction(-5) and NEG_INF < Fraction(-5)
    assert sorted([POS_INF, Fraction(1), NEG_INF, Fraction(0)]) == [
        NEG_INF, Fraction(0), Fraction(1), POS_INF]


def test_extremes_hashable():
    assert len({POS_INF, POS_INF, NEG_INF}) == 2
