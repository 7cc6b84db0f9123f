"""Exact rational helpers: p/q serialization and generalized binomials."""

from fractions import Fraction
from math import factorial

from .errors import InputError


def is_int(x) -> bool:
    """True for an int that is not a bool (JSON true/false parse as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def format_rational(q) -> str:
    """Serialize exactly: "p" for integers, "p/q" otherwise."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text) -> Fraction:
    """Parse "p", "p/q" or an int back into an exact Fraction."""
    if isinstance(text, bool):
        raise InputError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def binom_half(m: int) -> Fraction:
    """Generalized binomial C(1/2, m) = (1/2)(1/2-1)...(1/2-m+1)/m!, exact."""
    if m < 0:
        raise InputError("binom_half needs m >= 0")
    num = Fraction(1)
    for t in range(m):
        num *= Fraction(1, 2) - t
    return num / factorial(m)
