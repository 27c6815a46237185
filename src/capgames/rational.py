"""Exact rational values extended with ordered infinity sentinels.

All quantitative state in this package is held as `fractions.Fraction`
(canonical reduced form, total order). The correction map used by the
Sugeno integral needs -inf and +inf endpoints, so a tiny sentinel type
that compares correctly against rationals is provided here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

__all__ = ["NEG_INF", "POS_INF", "format_rational", "parse_rational"]


class Extreme:
    """Signed infinity. Compares against Fraction/int; never equal to them."""

    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = 1 if sign > 0 else -1

    @property
    def sign(self) -> int:
        return self._sign

    def __repr__(self) -> str:
        return "POS_INF" if self._sign > 0 else "NEG_INF"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Extreme) and other._sign == self._sign

    def __hash__(self) -> int:
        return hash(("capgames.Extreme", self._sign))

    def __lt__(self, other: object):
        if isinstance(other, Extreme):
            return self._sign < other._sign
        if isinstance(other, (int, Fraction)):
            return self._sign < 0
        return NotImplemented

    def __le__(self, other: object):
        if isinstance(other, Extreme):
            return self._sign <= other._sign
        if isinstance(other, (int, Fraction)):
            return self._sign < 0
        return NotImplemented

    def __gt__(self, other: object):
        if isinstance(other, Extreme):
            return self._sign > other._sign
        if isinstance(other, (int, Fraction)):
            return self._sign > 0
        return NotImplemented

    def __ge__(self, other: object):
        if isinstance(other, Extreme):
            return self._sign >= other._sign
        if isinstance(other, (int, Fraction)):
            return self._sign > 0
        return NotImplemented


NEG_INF = Extreme(-1)
POS_INF = Extreme(+1)

ExtendedValue = Union[Fraction, Extreme]


# ASCII digits only: int() alone would also take "1_000" and non-ASCII digits.
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)\s*(?:/\s*([+-]?[0-9]+)\s*)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a plain integer string into an exact Fraction.

    p and q are ASCII digit strings with an optional sign; whitespace may
    surround each. Raises ValueError on malformed input or zero
    denominator.
    """
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed rational {text!r}; expected p or p/q")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    if int(den) == 0:
        raise ValueError(f"zero denominator in rational {text!r}")
    return Fraction(int(num), int(den))


def format_rational(value: Fraction) -> str:
    """Canonical text form: integers bare, everything else "p/q"."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"
