"""JSON scenario files: exact-rational geometry descriptions for the CLI.

Rationals are written as "p/q" strings (plain integers are accepted too);
JSON number literals are parsed as exact decimal fractions, never as binary
floats, so a round trip through a file preserves every endpoint exactly.
Every rational literal must fit a fixed digit budget, checked on its text
before anything is expanded.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Any

from .intervals import DirectionSet, DomainError, MalformedIntervalError
from .oracle import DEFAULT_RANK_TOL
from .regions import ArrayHalfLengths, ScatteringGeometry

DEFAULT_SEEDS = 20

_LENGTH_KEYS = ("l_t1", "l_r1", "l_t2", "l_r2")
_INTERVAL_KEYS = ("t11", "r11", "t22", "r22", "t12", "r12")

# Digits a rational literal may expand to, its exponent counted as digits.
# Caps are at most 12 times a length, so every closed form stays far inside
# the float range, and the exact values stay quick to print.
_MAX_DIGITS = 300


class SchemaError(ValueError):
    """Scenario file violates the schema; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class OracleSettings:
    seeds: int = DEFAULT_SEEDS
    rank_tol: float = DEFAULT_RANK_TOL


@dataclass(frozen=True)
class Scenario:
    name: str
    geometry: ScatteringGeometry
    oracle: OracleSettings = OracleSettings()


def _literal(value: str | int | Decimal) -> Fraction:
    """The exact rational a literal denotes: "p/q", an integer or a decimal.

    Raises ValueError, before anything is expanded, when the numerator or
    the denominator would need more than ``_MAX_DIGITS`` digits, and
    ValueError or ZeroDivisionError when it is not a rational literal.
    """
    text = str(value)
    # without an exponent, no part expands to more digits than the text has
    if len(text) > _MAX_DIGITS or "e" in text or "E" in text:
        for part in text.split("/", 1):
            try:
                _, digits, exponent = Decimal(part).as_tuple()
            except InvalidOperation:
                break  # not a number; Fraction says why
            if isinstance(exponent, int) and (
                max(len(digits) + max(exponent, 0), -exponent) > _MAX_DIGITS
            ):
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


def _direction_set(value: Any, path: str) -> DirectionSet:
    if isinstance(value, dict):
        unknown = set(value) - {"angles_deg"}
        if unknown:
            raise SchemaError(path, f"unknown keys {sorted(unknown)}")
        if "angles_deg" not in value:
            raise SchemaError(path, "interval object needs 'angles_deg'")
        pairs = _pair_list(value["angles_deg"], f"{path}.angles_deg")
        try:
            return DirectionSet.from_angles(pairs)
        except (DomainError, MalformedIntervalError) as err:
            raise type(err)(f"{path}: {err}") from None
    pairs = _pair_list(value, path)
    try:
        return DirectionSet(pairs)
    except (DomainError, MalformedIntervalError) as err:
        raise type(err)(f"{path}: {err}") from None


def parse_scenario(data: Any, default_name: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise SchemaError("$", "top level must be an object")
    name = data.get("name", default_name)
    if not isinstance(name, str):
        raise SchemaError("name", "expected a string")
    try:
        name.encode("utf-8")  # the report prints it
    except UnicodeEncodeError:
        raise SchemaError("name", "not valid Unicode text") from None

    if "lengths" not in data:
        raise SchemaError("lengths", "missing")
    lengths = data["lengths"]
    if not isinstance(lengths, dict):
        raise SchemaError("lengths", "expected an object")
    unknown = set(lengths) - set(_LENGTH_KEYS)
    if unknown:
        raise SchemaError("lengths", f"unknown keys {sorted(unknown)}")
    length_values = {}
    for key in _LENGTH_KEYS:
        if key not in lengths:
            raise SchemaError(f"lengths.{key}", "missing")
        length_values[key] = _rational(lengths[key], f"lengths.{key}")

    if "intervals" not in data:
        raise SchemaError("intervals", "missing")
    intervals = data["intervals"]
    if not isinstance(intervals, dict):
        raise SchemaError("intervals", "expected an object")
    unknown = set(intervals) - set(_INTERVAL_KEYS)
    if unknown:
        raise SchemaError("intervals", f"unknown keys {sorted(unknown)}")
    sets = {}
    for key in _INTERVAL_KEYS:
        if key not in intervals:
            raise SchemaError(f"intervals.{key}", "missing")
        sets[key] = _direction_set(intervals[key], f"intervals.{key}")

    oracle = OracleSettings()
    if "oracle" in data:
        block = data["oracle"]
        if not isinstance(block, dict):
            raise SchemaError("oracle", "expected an object")
        unknown = set(block) - {"seeds", "rank_tol"}
        if unknown:
            raise SchemaError("oracle", f"unknown keys {sorted(unknown)}")
        seeds = block.get("seeds", DEFAULT_SEEDS)
        if not isinstance(seeds, int) or isinstance(seeds, bool) or seeds < 1:
            raise SchemaError("oracle.seeds", "expected a positive integer")
        rank_tol = block.get("rank_tol", DEFAULT_RANK_TOL)
        if isinstance(rank_tol, bool) or not isinstance(
            rank_tol, (int, float, Fraction, Decimal)
        ):
            raise SchemaError("oracle.rank_tol", "expected a positive number")
        try:
            rank_tol = float(rank_tol)
        except OverflowError:
            raise SchemaError("oracle.rank_tol", "too large") from None
        if not (math.isfinite(rank_tol) and rank_tol > 0):
            raise SchemaError(
                "oracle.rank_tol", "expected a finite positive number"
            )
        oracle = OracleSettings(seeds=seeds, rank_tol=rank_tol)

    try:
        half_lengths = ArrayHalfLengths(**length_values)
    except DomainError as err:
        raise DomainError(f"lengths: {err}") from None
    geometry = ScatteringGeometry(lengths=half_lengths, **sets)
    return Scenario(name=name, geometry=geometry, oracle=oracle)


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


def scenario_to_jsonable(scenario: Scenario) -> dict:
    g = scenario.geometry
    return {
        "name": scenario.name,
        "lengths": {
            key: str(getattr(g.lengths, key)) for key in _LENGTH_KEYS
        },
        "intervals": {
            key: [[str(lo), str(hi)] for lo, hi in getattr(g, key).intervals]
            for key in _INTERVAL_KEYS
        },
        "oracle": {
            "seeds": scenario.oracle.seeds,
            "rank_tol": scenario.oracle.rank_tol,
        },
    }


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario_to_jsonable(scenario), handle, indent=2)
        handle.write("\n")
