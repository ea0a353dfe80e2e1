"""Rational literals, as scenario files and ``sweep --grid`` write them.

``scenario._literal`` reads Python 3.10's ``Fraction`` string grammar to
integers itself, so this table holds it to the ``Fraction`` of the same
text on the Python that runs it, and pins the messages of the refusals
that tell a reader which literal was wrong.  It needs pytest only, neither
numpy nor hypothesis, so it also runs before either is installed:

    pytest tests/test_literals.py
"""

import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from fddof.cli import main
from fddof.scenario import _integers, _literal

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SYMMETRIC = SCENARIOS / "symmetric_overlap_075.json"

TEXTS = [
    # integers, signed and unsigned, with leading zeros
    "0", "-0", "+0", "7", "-7", "+7", "007", "-000", "10000000000000000000",
    # p/q, reduced or not
    "1/2", "-1/2", "+1/2", "6/4", "-6/4", "007/0014", "-00/5", "0/9",
    "12345678901234567890/98765432109876543210",
    # decimals without an integer or a fractional part
    ".5", "-.5", "+.5", "5.", "-5.", "+5.", "0.", "5.0", "0.125",
    "-0.0625", "00.500",
    # exponents in either case, with and without a sign or a point
    "1e3", "1E3", "1e-3", "1E-3", "1e+3", "1E+03", "-2.5e-2", ".5e1",
    "5.E2", "1.50E+01", "0.000e5", "-0e-7",
    # surrounding whitespace, ASCII or not
    " 3 ", "\t-3/4\n", "  .25  ", "\u20031/2\u2003",
    # digits of another script, which int and Fraction both read
    "\u0663/\u0664",
    # at the digit budget
    "3" * 300, "-" + "9" * 300 + "/" + "7" * 300, "1e299", "1e-300",
    "." + "1" * 299 + "e1",
]


@pytest.mark.parametrize("text", TEXTS, ids=repr)
def test_literal_equals_fraction(text):
    value = _literal(text)
    assert type(value) is Fraction
    assert value == Fraction(text)


@pytest.mark.parametrize(
    "value",
    [0, 12, -12, 10**299, Decimal("1.5"), Decimal("-0.0"), Decimal("1E+3"),
     Decimal("1.25E-7"), Decimal("0E-5"), Decimal("-12.500")],
    ids=repr,
)
def test_json_numbers_equal_their_fraction(value):
    # load_scenario hands JSON integers over as ints and the rest as Decimals
    assert _literal(value) == Fraction(value)


@pytest.mark.parametrize(
    "text,pair",
    [("6/4", (3, 2)), ("-6/4", (-3, 2)), ("-0.50", (-1, 2)), ("00/5", (0, 1)),
     ("-0e-7", (0, 1)), ("12.5E-1", (5, 4)), ("+.25e2", (25, 1)),
     ("2/" + "4" * 300, (1, int("2" * 300)))],
    ids=repr,
)
def test_a_literal_reads_to_its_least_pair(text, pair):
    # the denominator budget counts these, so they must be least
    assert _integers(text) == pair


ZERO_DENOMINATORS = [("1/0", 1), ("-1/0", -1), ("+3/0", 3), (" 00/000 ", 0)]


@pytest.mark.parametrize("text,numerator", ZERO_DENOMINATORS, ids=repr)
def test_zero_denominator_raises_as_fraction_does(text, numerator):
    with pytest.raises(ZeroDivisionError) as ours:
        _literal(text)
    with pytest.raises(ZeroDivisionError) as theirs:
        Fraction(text)
    assert str(ours.value) == str(theirs.value) == f"Fraction({numerator}, 0)"


@pytest.mark.parametrize("text,numerator", ZERO_DENOMINATORS, ids=repr)
def test_zero_denominator_grid_is_5_with_its_message(text, numerator,
                                                     capsys):
    assert main(["sweep", str(SYMMETRIC), f"--grid={text}"]) == 5
    assert capsys.readouterr().err == (
        f"error: sweep base: bad --grid value: Fraction({numerator}, 0)\n"
    )


def test_zero_denominator_length_is_3_with_its_message(tmp_path, capsys):
    data = json.loads(SYMMETRIC.read_text(encoding="utf-8"))
    data["lengths"]["l_t1"] = "-1/0"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["region", str(path)]) == 3
    assert capsys.readouterr().err == (
        "error: schema: lengths.l_t1: not a rational of at most 300 digits: "
        "'-1/0'\n"
    )
