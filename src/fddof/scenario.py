"""JSON scenario files: exact-rational geometry descriptions for the CLI.

Rationals are written as "p/q" strings (plain integers are accepted too);
JSON number literals are parsed as exact decimal fractions, never as binary
floats, so every endpoint is read exactly as written.
Every rational literal must fit a fixed digit budget, checked on its text
before anything is expanded, and the common denominator of a geometry must
fit a bit budget, so that every exact value the CLI prints can be printed.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from .intervals import (DirectionSet, DomainError, MalformedIntervalError,
                        _checked, scaled_endpoints)
from .regions import ArrayHalfLengths, ScatteringGeometry, link_products

_LENGTH_KEYS = ("l_t1", "l_r1", "l_t2", "l_r2")
_INTERVAL_KEYS = ("t11", "r11", "t22", "r22", "t12", "r12")

# Digits a rational literal may expand to, its exponent counted as digits.
# Caps are at most 12 times a length, so every closed form stays far inside
# the float range, and the exact values stay quick to print.
_MAX_DIGITS = 300

# Bits of the common denominator k = link_products(g).k.  Every exact value
# the CLI prints is below 12 * 10**300 (12 times a length) over a
# denominator dividing k, or, on a sweep, dividing k times a --grid
# denominator of at most 10**300.  Its numerator then has at most
# log10(12) + 600 + 12000 * log10(2) < 4214 digits, inside Python's
# 4300-digit limit on int-to-str conversion.  An --auto-rescale factor
# divides k (at most 3613 digits), and verify prints the rescaled caps only
# once every space is inside the oracle's dimension budget.
_MAX_DENOMINATOR_BITS = 12_000

# The rational literal grammar, Python 3.10's fractions._RATIONAL_FORMAT:
# the strictest the supported versions read, so a literal means the same on
# every one.  Later versions also read digit separators (3.11) and spaces
# around the slash (3.12), and 3.11 and 3.12 misread a "d" after the point.
_RATIONAL = re.compile(
    r"\s*[-+]?(?=\d|\.\d)\d*(?:/\d+|(?:\.\d*)?(?:E[-+]?\d+)?)\s*",
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


def _literal(value: str | int | Decimal) -> Fraction:
    """The exact rational a literal denotes: "p/q", an integer or a decimal.

    Raises ValueError when the text is not in ``_RATIONAL``'s grammar,
    ValueError, before anything is expanded, when the numerator or the
    denominator would need more than ``_MAX_DIGITS`` digits, and
    ZeroDivisionError on a zero denominator.
    """
    text = str(value)
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    # without an exponent, no part expands to more digits than the text has
    if len(text) > _MAX_DIGITS or "e" in text or "E" in text:
        for part in text.split("/", 1):
            try:
                _, digits, exponent = Decimal(part).as_tuple()
            except InvalidOperation:  # an exponent past Decimal's range
                raise ValueError(f"more than {_MAX_DIGITS} digits") from None
            if max(len(digits) + max(exponent, 0), -exponent) > _MAX_DIGITS:
                raise ValueError(f"more than {_MAX_DIGITS} digits")
    return Fraction(text)


def _rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, Decimal, str)):
        try:
            return _literal(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(
                path,
                f"not a rational of at most {_MAX_DIGITS} digits: "
                f"{reprlib.repr(value)}",
            ) from None
    raise SchemaError(path, f"expected a rational, got {type(value).__name__}")


def _pair_list(value: Any, path: str) -> list[tuple[Fraction, Fraction]]:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of [lo, hi] pairs")
    pairs = []
    for i, item in enumerate(value):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"{path}[{i}]", "expected a two-element array")
        pairs.append(
            (_rational(item[0], f"{path}[{i}][0]"),
             _rational(item[1], f"{path}[{i}][1]"))
        )
    return pairs


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


def _direction_set(value: Any, path: str) -> list[tuple[Fraction, Fraction]]:
    """The set's checked, canonical Fraction pairs; nothing is scaled."""
    if isinstance(value, dict):
        _object(value, path, ("angles_deg",))
        if "angles_deg" not in value:
            raise SchemaError(path, "interval object needs 'angles_deg'")
        pairs = _pair_list(value["angles_deg"], f"{path}.angles_deg")
        build = lambda pairs: DirectionSet.from_angles(pairs).intervals
    else:
        pairs, build = _pair_list(value, path), _checked
    try:
        return build(pairs)
    except (DomainError, MalformedIntervalError) as err:
        raise type(err)(f"{path}: {err}") from None


def parse_scenario(data: Any, default_name: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise SchemaError("$", "top level must be an object")
    _object(data, "$", ("name", "lengths", "intervals"))
    name = data.get("name", default_name)
    if not isinstance(name, str):
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
        half_lengths = ArrayHalfLengths(**length_values)
    except DomainError as err:
        raise DomainError(f"lengths: {err}") from None
    # k is a multiple of every denominator, so a running lcm past the budget
    # refuses before a set or link_products scales endpoints by a huge k;
    # under the budget, this call leaves the products in link_products's
    # cache for the closed forms the CLI then takes of this geometry
    endpoints = (x for pairs in sets.values() for iv in pairs for x in iv)
    k = 1
    for x in (*length_values.values(), *endpoints):
        k = math.lcm(k, x.denominator)
        if k.bit_length() > _MAX_DENOMINATOR_BITS:
            break
    else:
        den, ends = scaled_endpoints(list(sets.values()))
        geometry = ScatteringGeometry(lengths=half_lengths, **{
            key: DirectionSet._from_scaled(pairs, den)
            for key, pairs in zip(sets, ends)
        })
        k = link_products(geometry).k
    if k.bit_length() > _MAX_DENOMINATOR_BITS:
        raise SchemaError(
            "$",
            "lengths and endpoints need a common denominator of more than "
            f"{_MAX_DENOMINATOR_BITS} bits",
        )
    return Scenario(name, geometry)


def _json_int(text: str) -> int | Decimal:
    # an integer past the budget stays a Decimal for _rational to refuse
    return int(text) if len(text.lstrip("-")) <= _MAX_DIGITS else Decimal(text)


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file; OSErrors propagate, and text that is not UTF-8
    JSON is a SchemaError.  No number is expanded before it is checked."""
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_float=Decimal, parse_int=_json_int)
        except (ValueError, ArithmeticError, RecursionError) as err:
            raise SchemaError("$", f"not UTF-8 JSON: {err}") from None
    return parse_scenario(data, default_name=path.stem)
