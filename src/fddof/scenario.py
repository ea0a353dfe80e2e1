"""JSON scenario files: exact-rational geometry descriptions for the CLI.

Rationals are written as "p/q" strings (plain integers are accepted too);
a JSON number is read as the text it was written as, through the same
grammar, never as a binary float, so every endpoint is read exactly.
Every rational literal must fit a fixed digit budget, checked on its match
before anything is expanded, and the denominators of a geometry must fit a
bit budget, so that every exact value the CLI prints can be printed.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from .intervals import (DirectionSet, DomainError, MalformedIntervalError,
                        _angle_span, _check_span)
from .regions import ArrayHalfLengths, ScatteringGeometry

_LENGTH_KEYS = ("l_t1", "l_r1", "l_t2", "l_r2")
_INTERVAL_KEYS = ("t11", "r11", "t22", "r22", "t12", "r12")

# Digits a rational literal may expand to, its exponent counted as digits.
# Caps are at most 12 times a length, so every closed form stays far inside
# the float range, and the exact values stay quick to print.
_MAX_DIGITS = 300

# Bits of the endpoints' lcm times the lengths', a multiple of the common
# denominator k = link_products(g).k.  Every exact value the CLI prints is
# below 12 * 10**300 (12 times a length) over a denominator dividing k, or,
# on a sweep, k times a --grid denominator of at most 10**300, so its
# numerator has at most log10(12) + 600 + 12000 * log10(2) < 4214 digits,
# inside Python's 4300-digit limit on int-to-str conversion.  An
# --auto-rescale factor divides k (at most 3613 digits), and verify prints
# the rescaled caps only once every space is inside the dimension budget.
_MAX_DENOMINATOR_BITS = 12_000

# The rational literal grammar, Python 3.10's fractions._RATIONAL_FORMAT
# (with the exponent's sign a group of its own): the strictest the supported
# versions read, so a literal means the same on every one.  Later versions
# also read digit separators (3.11) and spaces around the slash (3.12), and
# 3.11 and 3.12 misread a "d" after the point.  A JSON number is in it.
_RATIONAL = re.compile(
    r"\s*([-+]?)(?=\d|\.\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:E([-+]?)(\d+))?)\s*",
    re.IGNORECASE,
)


class SchemaError(ValueError):
    """Scenario file violates the schema; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Scenario:
    """A named geometry, as a scenario file describes it."""

    name: str
    geometry: ScatteringGeometry


class _Number(str):
    """A JSON number, as the text it was written as: a rational, not a name."""


def _significant(digits: str) -> str:
    """``digits`` past their leading zeros, of whatever script."""
    return digits.lstrip("".join(c for c in set(digits) if int(c) == 0))


def _integers(value: str | int | Decimal) -> tuple[int, int]:
    """A literal, "p/q", an integer or a decimal, as the reduced ints (p, q).

    Raises ValueError when the text is not in ``_RATIONAL``'s grammar,
    ValueError, before anything is expanded, when the numerator or the
    denominator would need more than ``_MAX_DIGITS`` digits, and
    ZeroDivisionError on a zero denominator, each with Fraction's message.
    """
    text = str(value)
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    sign, num, den, point, esign, exp = match.groups("")
    # counted on the match: digits past the leading zeros, the exponent's
    # shift (21 of its digits; more are past any budget) and the places
    # after the point; without an exponent, no part expands past the text
    if len(text) > _MAX_DIGITS or exp:
        shift = int(esign + (_significant(exp)[:21] or "0")) - len(point)
        digits = len(_significant(num + point)) or 1
        if max(digits + max(shift, 0), -shift,
               len(_significant(den))) > _MAX_DIGITS:
            raise ValueError(f"more than {_MAX_DIGITS} digits")
    n, d = int(sign + num + point), int(den or 1)
    shift = int(esign + exp or 0) - len(point)  # the power of ten n carries
    if shift:
        n, d = (n * 10**shift, d) if shift > 0 else (n, d * 10**-shift)
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    g = math.gcd(n, d)
    return n // g, d // g


def _literal(value: str | int | Decimal) -> Fraction:
    """``_integers``'s pair as a Fraction, for a ``sweep --grid`` value."""
    return Fraction(*_integers(value))


def _rational(value: Any, path: str) -> tuple[int, int]:
    if isinstance(value, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, (int, Decimal, str)):
        try:
            return _integers(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(
                path,
                f"not a rational of at most {_MAX_DIGITS} digits: "
                f"{reprlib.repr(value)}",
            ) from None
    raise SchemaError(path, f"expected a rational, got {type(value).__name__}")


def _object(value: Any, path: str, keys: tuple[str, ...]) -> dict:
    """``value``, checked to be an object with no keys outside ``keys``."""
    if not isinstance(value, dict):
        raise SchemaError(path, "expected an object")
    unknown = set(value) - set(keys)
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)}")
    return value


def _section(
    data: dict, name: str, keys: tuple[str, ...], parse: Callable
) -> dict:
    """Required object ``name`` with every one of ``keys``, each parsed."""
    if name not in data:
        raise SchemaError(name, "missing")
    block = _object(data[name], name, keys)
    values = {}
    for key in keys:
        if key not in block:
            raise SchemaError(f"{name}.{key}", "missing")
        values[key] = parse(block[key], f"{name}.{key}")
    return values


def _direction_set(value: Any, path: str) -> list[tuple]:
    """The set's checked ``_ratio`` pairs, unmerged; literals before checks."""
    at, span = path, _check_span
    if isinstance(value, dict):
        _object(value, path, ("angles_deg",))
        if "angles_deg" not in value:
            raise SchemaError(path, "interval object needs 'angles_deg'")
        at, span = f"{path}.angles_deg", _angle_span
        value = value["angles_deg"]
    if not isinstance(value, list):
        raise SchemaError(at, "expected a list of [lo, hi] pairs")
    pairs = []
    for i, item in enumerate(value):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"{at}[{i}]", "expected a two-element array")
        pairs.append((_rational(item[0], f"{at}[{i}][0]"),
                      _rational(item[1], f"{at}[{i}][1]")))
    try:
        return [iv for lo, hi in pairs if (iv := span(lo, hi))]
    except (DomainError, MalformedIntervalError) as err:
        raise type(err)(f"{path}: {err}") from None


def parse_scenario(data: Any, default_name: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise SchemaError("$", "top level must be an object")
    _object(data, "$", ("name", "lengths", "intervals"))
    name = data.get("name", default_name)
    if not isinstance(name, str) or isinstance(name, _Number):
        raise SchemaError("name", "expected a string")
    try:
        name.encode("utf-8")  # the report prints it
    except UnicodeEncodeError:
        raise SchemaError("name", "not valid Unicode text") from None
    # Unicode category Cc (C0 controls, DEL, C1 controls) and the line and
    # paragraph separators, the characters str.splitlines breaks at: one in
    # a name could print a report line of its own, such as a forged RESULT
    if any(c < " " or "\x7f" <= c <= "\x9f" or c in "\u2028\u2029"
           for c in name):
        raise SchemaError("name", "contains a control character or a line "
                          "separator")

    length_values = _section(data, "lengths", _LENGTH_KEYS, _rational)
    sets = _section(data, "intervals", _INTERVAL_KEYS, _direction_set)

    try:
        half_lengths = ArrayHalfLengths(
            *(Fraction(*pair) for pair in length_values.values()))
    except DomainError as err:
        raise DomainError(f"lengths: {err}") from None
    # every denominator a set lists counts, merged away or not, and the
    # running bound stops growing once past, before anything is scaled
    scale = math.lcm(*(d for _, d in length_values.values()))
    den = 1
    for (_, lo_den), (_, hi_den) in (iv for s in sets.values() for iv in s):
        if (den * scale).bit_length() > _MAX_DENOMINATOR_BITS:
            break
        den = math.lcm(den, lo_den, hi_den)
    if (den * scale).bit_length() > _MAX_DENOMINATOR_BITS:
        raise SchemaError("$", "lengths and endpoints need a common denominator"
                          f" of more than {_MAX_DENOMINATOR_BITS} bits")
    return Scenario(name, ScatteringGeometry(lengths=half_lengths, **{
        key: DirectionSet._from_ratios(ivs) for key, ivs in sets.items()
    }))


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file; OSErrors propagate, and text that is not UTF-8
    JSON is a SchemaError.  Each number is read by ``_integers``, at its
    field, as the text it was written as."""
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_float=_Number, parse_int=_Number)
        except (ValueError, RecursionError) as err:
            raise SchemaError("$", f"not UTF-8 JSON: {err}") from None
    return parse_scenario(data, default_name=path.stem)
