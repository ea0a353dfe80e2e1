"""Cosines of angles in degrees, held to a captured reference table.

``cos_table.txt`` has one row per angle: the angle, an integer or ``p/q``,
and 10**12 times its cosine, which is an integer.  The table was captured
from the package before it computed its cosines with the standard library.
``cos_degrees`` then reduced the angle exactly into [0, 180], looked up the
grid angles 0, 60, 90, 120 and 180, and evaluated any other angle with
mpmath 1.3.0 at 37 significant digits, rounded to 12 decimal places.  The
rows were drawn with ``random.Random(20261021)`` and cover:

- the grid and angles congruent to it, and 45 and 22.5 degrees;
- every quarter degree in (0, 180), so both sides of 90;
- angles 10**-6 to 10**-40 from each grid angle, where a cosine rounds
  to 0, 1e-12, 1/2 or 1, and two within 10**-13 of a rounding midpoint;
- 300 rationals in [-720, 720] with denominators up to 10**6, 100
  millionths of a degree in (90, 180) and 60 negative angles;
- angles past 360 * 10**40 of both signs;
- 75 angles with denominators of 297 to 300 digits: 50 drawn for a
  scenario file to hold (46 do: both parts at most 300 digits, inside
  [0, 180]), 15 in (90, 180) and 10 negative.

Each row is checked through ``cos_degrees`` and, where a scenario file can
hold the angle, through an ``angles_deg`` scenario load.  The last test
repeats both under a caller's decimal context that differs from the
default in every setting the cosine and the reader could read.  It needs
pytest only, neither numpy nor hypothesis:

    pytest tests/test_cosines.py
"""

import decimal
import json
from fractions import Fraction
from pathlib import Path

import pytest

from fddof import cos_degrees
from fddof.scenario import SchemaError, load_scenario, parse_scenario

TABLE = [
    (Fraction(angle), Fraction(int(scaled), 10**12))
    for angle, scaled in (
        line.split() for line in
        (Path(__file__).parent / "cos_table.txt").read_text().splitlines()
    )
]
# the angles a scenario file can hold, inside [0, 180] with both parts of
# the literal at most 300 digits, less those whose cosine rounds to 1: the
# pair [0, a] then has no width and loads as an empty set
LOADABLE = [(angle, cos) for angle, cos in TABLE if 0 <= angle <= 180
            and cos < 1 and max(len(str(angle.numerator)),
                                len(str(angle.denominator))) <= 300]
SETS = ("t11", "r11", "t22", "r22", "t12", "r12")


def scenario(t11, l_t1="1"):
    return {
        "lengths": {"l_t1": l_t1, "l_r1": "1", "l_t2": "1", "l_r2": "1"},
        "intervals": {"t11": t11, **{name: [["-1", "1"]]
                                     for name in SETS[1:]}},
    }


def loaded_cos(angle):
    # the angle pair [0, a] maps to the direction span [cos a, 1)
    data = scenario({"angles_deg": [["0", str(angle)]]})
    (lo, hi), = parse_scenario(data).geometry.t11.intervals
    assert hi == 1
    return lo


def test_the_table_covers_what_it_says():
    angles = [angle for angle, _ in TABLE]
    assert len(angles) == len(set(angles)) == 1342
    assert len(LOADABLE) == 937
    # reduced into [0, 180], these fall past 90 and are reflected
    assert sum(90 < a % 360 < 270 for a in angles) == 707
    assert sum(a < 0 for a in angles) == 255
    assert sum(abs(a) > 360 * 10**40 for a in angles) == 37
    long = [a for a in angles if len(str(a.denominator)) >= 297]
    assert len(long) == 75
    assert sum(len(str(a.denominator)) == 300 for a in long) == 45
    assert sum(a in dict(LOADABLE) for a in long) == 46
    assert (Fraction(45), Fraction(707106781187, 10**12)) in TABLE
    assert (Fraction(45, 2), Fraction(923879532511, 10**12)) in TABLE


def test_cos_degrees_equals_the_table():
    assert [(angle, cos_degrees(angle)) for angle, _ in TABLE] == TABLE


def test_an_angles_deg_scenario_loads_the_table_cosines():
    assert [(angle, loaded_cos(angle)) for angle, _ in LOADABLE] == LOADABLE


def test_a_hostile_caller_context_changes_nothing(tmp_path):
    # InvalidOperation untrapped (a malformed Decimal is NaN, not an error),
    # Inexact trapped (any rounding raises), and every other setting off
    # its default
    hostile = decimal.Context(
        prec=5, rounding=decimal.ROUND_FLOOR, Emax=99, Emin=-99,
        capitals=0, traps=[decimal.Inexact],
    )
    huge = scenario([["-1", "1"]], l_t1="1e99999999999999999999")
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(huge).replace(
        '"1e99999999999999999999"', "1e99999999999999999999"))
    with decimal.localcontext(hostile):
        # the string and the JSON number are refused alike, at their field
        for read, source in ((parse_scenario, huge), (load_scenario, path)):
            with pytest.raises(SchemaError) as info:
                read(source)
            assert str(info.value) == (
                "lengths.l_t1: not a rational of at most 300 digits: "
                "'1e99999999999999999999'")
        assert [(angle, cos_degrees(angle)) for angle, _ in TABLE] == TABLE
        assert [(angle, loaded_cos(angle))
                for angle, _ in LOADABLE[::10]] == LOADABLE[::10]
        # nothing was signalled in the caller's context
        assert not any(decimal.getcontext().flags.values())
