"""The package's front door: whatever the scenario text and the command
line, ``cli.main`` ends with a documented exit code (0-7), never an
exception; a literal, or a whole scenario, read to integers means what
``Fraction`` and the public constructors make of the same text; and
``fddof`` exports exactly its public surface, every name the benchmark
imports included."""

import ast
import copy
import importlib.util
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fddof
from fddof import ArrayHalfLengths, DirectionSet, cos_degrees, parse_scenario
from fddof.cli import main
from fddof.scenario import _literal

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
DOCS = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted(SCENARIOS.glob("*.json"))
}
SYMMETRIC = DOCS["symmetric_overlap_075.json"]

# argv placeholders, replaced by paths inside each example's directory
SCENARIO, DIRECTORY, MISSING, NOT_UTF8 = "@scn", "@dir", "@missing", "@latin"
OUT, OUT_IN_MISSING_DIR = "@out", "@nodir/out"


def node_paths(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


def with_node(doc, path, fragment: str) -> str:
    """JSON text of doc with the node at path replaced by raw JSON text."""
    if not path:
        return fragment
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    slot = "\x00slot\x00"
    parent[path[-1]] = slot
    return json.dumps(doc).replace(json.dumps(slot), fragment)


# Integers stay small or are all nines: a length of 99 keeps every signal
# space of a checked-in scenario under a few hundred basis functions, and
# 999 and beyond are refused by the dimension budget, so verify stays fast.
json_ints = st.one_of(
    st.integers(-100, 100).map(str),
    st.integers(1, 5000).map(lambda n: "9" * n),
    st.integers(1, 5000).map(lambda n: "-" + "9" * n),
)
raw_numbers = st.sampled_from(
    ["1e400", "1e-999999999", "1e9999999999999999999", "-0.0", "0.5",
     "1E+2", "2.5e-3", "1e-2000000", "NaN", "Infinity", "-Infinity"]
)
json_strings = st.one_of(
    st.sampled_from(
        ["p/q", "nan", "inf", "1e-2000000", "1e400", "1/0", "-1/3", "3/4",
         "1/" + "3" * 400, "1e-999999999", "angles_deg"]
    ),
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(-2, 20)),
    st.text(max_size=12),
).map(json.dumps)
json_scalars = st.one_of(
    st.sampled_from(["null", "true", "false"]),
    json_ints,
    raw_numbers,
    json_strings,
)
json_keys = st.one_of(
    st.sampled_from(["angles_deg", "l_t1", "t11", "intervals", "oracle"]),
    st.text(max_size=6),
).map(json.dumps)
json_fragments = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]"),
        st.lists(st.tuples(json_keys, inner), max_size=4).map(
            lambda kvs: "{" + ", ".join(f"{k}: {v}" for k, v in kvs) + "}"
        ),
    ),
    max_leaves=8,
)


@st.composite
def scenario_texts(draw):
    """A checked-in scenario, as it is or with one node replaced."""
    doc = DOCS[draw(st.sampled_from(sorted(DOCS)))]
    if draw(st.booleans()):
        return json.dumps(doc)
    path = draw(st.sampled_from(list(node_paths(doc))))
    return with_node(doc, path, draw(json_fragments))


outputs = st.sampled_from([OUT, DIRECTORY, OUT_IN_MISSING_DIR])
scenario_args = st.sampled_from(
    [SCENARIO, SCENARIO, SCENARIO, DIRECTORY, MISSING, NOT_UTF8]
)


def option(name, values):
    """Either nothing or the option with one of values."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def flag(name):
    return st.sampled_from([[], [name]])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["region", "compare", "sweep", "verify"]))
    argv = [command, draw(scenario_args)]
    if command == "region":
        argv += draw(option("--csv", outputs)) + draw(option("--svg", outputs))
    elif command == "compare":
        argv += draw(option("--svg", outputs))
    elif command == "sweep":
        grids = st.one_of(
            st.sampled_from(
                ["1,1/2", "0", "1e-2000000", "nan", "", ",", "1/0", "3/2",
                 "1e400", "-1", "1/" + "3" * 400]
            ),
            st.text(max_size=8),
        )
        argv += draw(option("--grid", grids))
        argv += draw(option("--csv", outputs)) + draw(option("--svg", outputs))
    else:
        # mostly one seed, so that verify stays fast
        seeds = st.sampled_from(["1", "1", "1", "0", "10001", "abc", "-3"])
        argv += ["--seeds", draw(seeds)] + draw(flag("--auto-rescale"))
    # an option the subcommand does not have, or no scenario at all
    return draw(st.sampled_from([argv, argv, argv, argv + ["--bogus"],
                                 [command]]))


def run_main(text: str, argv: list[str]) -> int:
    """Exit code of main(argv) on scenario text, argparse exits included.

    stdout and stderr encode strictly as UTF-8, like a UTF-8 terminal.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        places = {
            SCENARIO: tmp / "scenario.json",
            DIRECTORY: tmp,
            MISSING: tmp / "missing.json",
            NOT_UTF8: tmp / "latin1.json",
            OUT: tmp / "out.file",
            OUT_IN_MISSING_DIR: tmp / "nodir" / "out.file",
        }
        places[SCENARIO].write_text(text, encoding="utf-8")
        places[NOT_UTF8].write_bytes(b"\xff" + text.encode("utf-8"))
        argv = [str(places.get(arg, arg)) for arg in argv]
        out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
                    for _ in range(2))
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return main(argv)
            except SystemExit as stop:
                return stop.code


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=scenario_texts(), argv=argvs())
@example(text=with_node(SYMMETRIC, ("lengths", "l_t1"), "7" * 5000),
         argv=["region", SCENARIO])
@example(
    text=with_node(SYMMETRIC, ("lengths",), json.dumps(
        {key: "1e400" for key in SYMMETRIC["lengths"]}
    )),
    argv=["compare", SCENARIO],
)
@example(text=with_node(SYMMETRIC, ("lengths", "l_t1"), '"1e-2000000"'),
         argv=["region", SCENARIO])
@example(text=json.dumps(SYMMETRIC),
         argv=["sweep", SCENARIO, "--grid", "1e-2000000"])
@example(text=json.dumps(SYMMETRIC), argv=["region", DIRECTORY])
@example(text=json.dumps(SYMMETRIC), argv=["region", NOT_UTF8])
@example(text=json.dumps(SYMMETRIC),
         argv=["region", SCENARIO, "--csv", DIRECTORY])
@example(text=json.dumps(SYMMETRIC),
         argv=["compare", SCENARIO, "--svg", DIRECTORY])
@example(text=with_node(SYMMETRIC, ("name",), '"\\ud800"'),
         argv=["region", SCENARIO])
@example(text=with_node(SYMMETRIC, ("name",), '"x\\nRESULT: PASS"'),
         argv=["verify", SCENARIO, "--seeds", "1", "--auto-rescale"])
@example(text=with_node(SYMMETRIC, ("intervals", "t11"),
                        "[" * 100_000 + "]" * 100_000),
         argv=["region", SCENARIO])
def test_every_input_ends_in_a_documented_exit_code(text, argv):
    assert run_main(text, argv) in range(8)


# -- literals and scenarios, read to integers ---------------------------------

digits = st.text("0123456789", min_size=1, max_size=30)
spaces = st.sampled_from(["", " ", "\t", "\n", "\u2003"])
signs = st.sampled_from(["", "-", "+"])
mantissas = st.one_of(
    digits,
    st.builds("{}.".format, digits),
    st.builds("{}.{}".format, st.just("") | digits, digits),
)
exponents = st.just("") | st.builds(
    "{}{}{}".format, st.sampled_from("eE"), signs,
    st.text("0123456789", min_size=1, max_size=2),
)
# texts in the grammar, within the digit budget; p/q's q may be zero
literal_texts = st.builds(
    "{}{}{}{}".format,
    spaces,
    signs,
    st.builds("{}/{}".format, digits, digits)
    | st.builds("{}{}".format, mantissas, exponents),
    spaces,
)


def outcome(parse, value):
    """What parse makes of value: a Fraction, or its zero-denominator
    refusal."""
    try:
        return parse(value)
    except ZeroDivisionError as err:
        return f"ZeroDivisionError: {err}"


@settings(max_examples=400, deadline=None)
@given(value=literal_texts | st.integers(-10**40, 10**40)
       | st.decimals(min_value=-10**12, max_value=10**12, places=6,
                     allow_nan=False, allow_infinity=False))
def test_a_literal_reads_as_fraction_reads_it(value):
    assert outcome(_literal, value) == outcome(Fraction, value)


def rationals(lo, hi, den=24):
    """Rationals in [lo, hi] over denominators up to den."""
    return st.integers(1, den).flatmap(
        lambda q: st.integers(lo * q, hi * q).map(lambda p: Fraction(p, q)))


def written(x: Fraction):
    """x as a scenario may give it: p/q, unreduced, a decimal, a JSON
    integer or Decimal, or the Fraction itself."""
    forms = [str(x), f"{2 * x.numerator}/{2 * x.denominator}", x]
    if 10**6 % x.denominator == 0:
        scaled = x.numerator * 10**6 // x.denominator
        forms += [f"{scaled}e-6", f"{scaled}E-6",
                  str(Decimal(scaled).scaleb(-6)), Decimal(scaled).scaleb(-6)]
    if x.denominator == 1:
        forms.append(x.numerator)
    return st.sampled_from(forms)


@st.composite
def interval_set(draw):
    """Fraction pairs lo < hi in [-1, 1], unsorted, overlapping or
    touching, as the scenario writes them and as the constructor takes
    them; the reference merges them as Fractions."""
    pairs, ends = [], [Fraction(-1), Fraction(1)]
    for _ in range(draw(st.integers(0, 4))):
        # an endpoint drawn before makes pairs touch
        a = draw(st.sampled_from(ends) | rationals(-1, 1))
        b = draw(rationals(-1, 1))
        if a != b:
            pairs.append((min(a, b), max(a, b)))
            ends += [a, b]
    text = [[draw(written(lo)), draw(written(hi))] for lo, hi in pairs]
    return text, DirectionSet(pairs), reference_ends(pairs)


@st.composite
def angle_set(draw):
    """Angle pairs 0 <= a <= b <= 180 degrees, zero-width ones included,
    mostly on the exact-cosine grid."""
    angle = st.sampled_from([0, 60, 90, 120, 180]).map(Fraction) | rationals(
        0, 180, den=4)
    pairs = []
    for _ in range(draw(st.integers(0, 3))):
        a = draw(angle)
        b = a if draw(st.booleans()) else draw(angle)
        pairs.append((min(a, b), max(a, b)))
    text = [[draw(written(a)), draw(written(b))] for a, b in pairs]
    spans = [(cos_degrees(b), cos_degrees(a)) for a, b in pairs]
    return ({"angles_deg": text}, DirectionSet.from_angles(pairs),
            reference_ends([(lo, hi) for lo, hi in spans if lo < hi]))


def reference_ends(pairs):
    """(_den, _ends) of the union of Fraction pairs, merged as Fractions."""
    merged = []
    for lo, hi in sorted(pairs):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    den = math.lcm(*(x.denominator for pair in merged for x in pair))
    return den, tuple((lo.numerator * (den // lo.denominator),
                       hi.numerator * (den // hi.denominator))
                      for lo, hi in merged)


@settings(max_examples=150, deadline=None)
@given(lengths=st.lists(rationals(0, 4), min_size=4, max_size=4),
       sets=st.lists(interval_set() | angle_set(), min_size=6, max_size=6),
       data=st.data())
def test_a_scenario_loads_to_what_the_constructors_build(lengths, sets, data):
    keys = ["t11", "r11", "t22", "r22", "t12", "r12"]
    doc = {
        "lengths": {key: data.draw(written(x)) for key, x
                    in zip(["l_t1", "l_r1", "l_t2", "l_r2"], lengths)},
        "intervals": {key: text for key, (text, _, _) in zip(keys, sets)},
    }
    g = parse_scenario(doc).geometry
    assert g.lengths == ArrayHalfLengths(*lengths)
    for key, (_, built, reference) in zip(keys, sets):
        loaded = getattr(g, key)
        assert (loaded._den, loaded._ends) == (built._den, built._ends)
        assert (loaded._den, loaded._ends) == reference


PUBLIC = [
    "ArrayHalfLengths", "CornerPoints", "DegenerateGeometryError",
    "DimensionBudgetError", "DirectionSet", "DiscretizedChannel",
    "DofRegion", "DomainError", "MalformedIntervalError",
    "QuantizationError", "RankToleranceWarning", "RegionRelation",
    "Scenario", "ScatteringGeometry", "SchemaError", "ZeroForcingResult",
    "allocate_basis", "cap_corners", "corner_points", "corrupt_support",
    "cos_degrees", "fd_caps", "fd_region", "genie_expand", "hd_region",
    "integer_rescale", "is_rectangular", "link_products", "load_scenario",
    "make_fully_spread", "make_symmetric", "numerical_rank",
    "parse_scenario", "refine", "region_relate", "sample_channel",
    "verify_operator_dims", "zero_forcing_corner", "zf_case_applies",
]


def benchmark_imports() -> set[str]:
    """Every name a ``from fddof import (...)`` in ``benchmarks/*.py``
    imports, read from the source without running it."""
    names = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "fddof":
                names.update(alias.name for alias in node.names)
    return names


def test_the_public_surface_is_what_the_cli_benchmark_and_paper_read():
    assert sorted(fddof.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(fddof, name) is not None
    imported = benchmark_imports()
    assert {"fd_region", "zf_case_applies", "cli"} <= imported
    for name in imported:
        # a submodule such as cli is importable without being an attribute
        assert (hasattr(fddof, name)
                or importlib.util.find_spec(f"fddof.{name}") is not None), name
