"""Command-line front door: region reports, comparisons, sweeps, verification.

Exit codes: 0 ok; 1 verification failure; 2 a scenario file that is missing
or cannot be read, an output file that cannot be written (any OSError), or
a usage error (argparse: unknown option, missing argument, or an option
value its validator rejects, such as ``--seeds 0`` or a ``--seeds`` above
``MAX_SEEDS``); 3 schema error: scenario text that is not UTF-8 JSON, a
field of the wrong type, a key the schema does not name, a scenario name
with a control character or a line separator, a rational literal over the
digit budget, or lengths and endpoints whose common denominator is over the
bit budget;
4 interval/length invariant violation, or a sweep whose sum cap rises with
the overlap; 5 bad sweep base, including a ``--grid`` value that is not a
rational literal within the digit budget; 6 quantization, found before
``verify`` prints its caps; 7 a signal space above the oracle's dimension
budget (``oracle.MAX_SPACE_DIM`` basis functions), found before any matrix
is allocated and before ``verify`` prints its caps.
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction
from functools import cache
from itertools import chain

from .intervals import DirectionSet, DomainError, MalformedIntervalError
from .oracle import (
    DEFAULT_RANK_TOL,
    LEAKAGE_TOL,
    DimensionBudgetError,
    QuantizationError,
    _chunks,
    _decided,
    _expected_ranks,
    _plan,
    check_dimension_budget,
    integer_rescale,
    zf_case_applies,
)
from .regions import (
    RegionRelation,
    cap_corners,
    corner_points,
    fd_caps,
    fd_region,
    hd_region,
    is_rectangular,
    make_symmetric,
    region_relate,
)
from .scenario import Scenario, SchemaError, _literal, load_scenario
from .svgplot import write_svg

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_MISSING_FILE = 2
EXIT_SCHEMA = 3
EXIT_INVARIANT = 4
EXIT_SWEEP_BASE = 5
EXIT_QUANTIZATION = 6
EXIT_DIMENSION_BUDGET = 7

DEFAULT_GRID = "1,3/4,1/2,1/4,0"

DEFAULT_SEEDS = 20

# Most oracle seeds one verify run takes: at 1.4-5 ms a seed (draw,
# factors, rank decisions, zero forcing), with every space 64-80 basis
# functions wide (--seeds 1000 and 10000, one BLAS thread, 2-core Xeon,
# numpy 2.4), 10000 seeds take about 52 s, within a two-minute wall budget.
MAX_SEEDS = 10_000


class SweepBaseError(ValueError):
    """The sweep base scenario is not symmetric-constructible."""


class MonotonicityError(RuntimeError):
    """A sweep's sum cap rose with the overlap; the closed forms are wrong."""


def _show(value: Fraction) -> str:
    return f"{value} ({float(value):.6g})"


def _points(*pairs) -> str:
    return " ".join(f"({x}, {y})" for x, y in pairs)


def _write_csv(path: str, header: list[str], rows) -> None:
    """One CSV table; numbers are written to 12 significant digits and
    strings as they are."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                cell if isinstance(cell, str) else format(float(cell), ".12g")
                for cell in row
            )


def cmd_region(args) -> int:
    scn = load_scenario(args.scenario)
    g = scn.geometry
    d1_max, d2_max, dsum_max = fd_caps(g)
    corners = corner_points(g)
    region = fd_region(g)

    print(f"scenario: {scn.name}")
    print(f"d1_max   = {_show(d1_max)}")
    print(f"d2_max   = {_show(d2_max)}")
    print(f"dsum_max = {_show(dsum_max)}")
    print(f"corner p'  = {_points(corners.p_prime)}")
    print(f"corner p'' = {_points(corners.p_double_prime)}")
    print(f"rectangular: {'yes' if is_rectangular(g) else 'no'}")
    print(f"vertices (ccw): {_points(*region.vertices)}")

    if args.csv:
        _write_csv(args.csv, ["d1", "d2"], region.vertices)
        print(f"wrote vertices CSV: {args.csv}")
    if args.svg:
        write_svg(args.svg, [("full-duplex region", region)])
        print(f"wrote SVG: {args.svg}")
    return EXIT_OK


def cmd_compare(args) -> int:
    scn = load_scenario(args.scenario)
    g = scn.geometry
    fd = fd_region(g)
    hd = hd_region(g)
    relation = region_relate(hd, fd)

    print(f"scenario: {scn.name}")
    print(
        f"FD caps: d1_max={_show(fd.d1_cap)}  d2_max={_show(fd.d2_cap)}  "
        f"dsum_max={_show(fd.dsum_cap)}"
    )
    print(f"FD vertices: {_points(*fd.vertices)}")
    print(f"HD vertices: {_points(*hd.vertices)}")
    if relation is RegionRelation.A_STRICT_SUBSET_B:
        print("relation: HD strictly inside FD")
    else:
        print(f"relation: {relation.value}")
    hd_area = hd.area()
    if hd_area > 0:
        print(f"area gain FD/HD: {float(fd.area() / hd_area):.6g}")
    else:
        print("area gain FD/HD: n/a (degenerate HD region)")

    if args.svg:
        write_svg(args.svg, [("half-duplex", hd), ("full-duplex", fd)])
        print(f"wrote SVG: {args.svg}")
    return EXIT_OK


def _symmetric_base(scn: Scenario):
    g = scn.geometry
    L = g.lengths
    if not (L.l_t1 == L.l_r1 == L.l_t2 == L.l_r2):
        raise SweepBaseError("sweep base must have four equal array lengths")
    if not (g.t11 == g.r11 == g.t22 == g.r22):
        raise SweepBaseError("sweep base must share one forward interval set")
    if g.t12 != g.r12:
        raise SweepBaseError("sweep base must share one backscatter interval set")
    return L.l_t1, g.t11, g.t12


def _with_overlap(
    fwd: DirectionSet, back: DirectionSet, overlap: Fraction
) -> DirectionSet:
    """Backscatter set of back's measure overlapping fwd by exactly overlap."""
    inside = fwd.take_from_left(overlap)
    remainder = back.measure() - overlap
    try:
        outside = (DirectionSet.full() - fwd).take_from_left(remainder)
    except ValueError:
        raise SweepBaseError(
            f"cannot place backscatter measure {back.measure()} with overlap "
            f"{overlap}: not enough room outside the forward set"
        ) from None
    return inside | outside


def cmd_sweep(args) -> int:
    scn = load_scenario(args.scenario)
    length, fwd, back = _symmetric_base(scn)
    try:
        grid = [_literal(tok) for tok in args.grid.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as err:
        raise SweepBaseError(f"bad --grid value: {err}") from None
    if not grid:
        raise SweepBaseError("--grid is empty")
    limit = min(fwd.measure(), back.measure())
    for value in grid:
        if value < 0 or value > limit:
            raise SweepBaseError(
                f"grid overlap {value} outside [0, {limit}]"
            )

    print(f"scenario: {scn.name} (symmetric sweep over overlap)")
    rows = []
    entries = []
    for overlap in grid:
        g = make_symmetric(length, fwd, _with_overlap(fwd, back, overlap))
        d1_max, d2_max, dsum_max = caps = fd_caps(g)
        rect = is_rectangular(g)
        rows.append((overlap, *caps, rect))
        entries.append((f"FD overlap={overlap}", fd_region(g)))
        print(
            f"overlap={overlap}: d1_max={d1_max} d2_max={d2_max} "
            f"dsum_max={dsum_max} rectangular={'yes' if rect else 'no'}"
        )
    entries.append(("half-duplex", hd_region(scn.geometry)))

    # the sum cap can only tighten as the overlap grows
    ordered = sorted(rows, key=lambda row: row[0])
    for (o1, _, _, s1, _), (o2, _, _, s2, _) in zip(ordered, ordered[1:]):
        if s2 > s1:
            raise MonotonicityError(
                f"sum cap increased with overlap: {o1}->{o2} gave {s1}->{s2}"
            )

    if args.csv:
        _write_csv(
            args.csv,
            ["overlap", "d1_cap", "d2_cap", "dsum_cap", "rectangular"],
            ((*caps, "true" if rect else "false") for *caps, rect in rows),
        )
        print(f"wrote sweep CSV: {args.csv}")
    if args.svg:
        write_svg(args.svg, entries)
        print(f"wrote SVG: {args.svg}")
    return EXIT_OK


def cmd_verify(args) -> int:
    scn = load_scenario(args.scenario)
    g = scn.geometry
    print(f"scenario: {scn.name}")
    if args.auto_rescale:
        g, scale = integer_rescale(g)
        print(f"auto-rescale: x{scale}")
    try:
        _plan(g)  # refuses over-budget, then non-integral, before the report
    except QuantizationError as err:
        print(f"error: quantization: {err}", file=sys.stderr)
        try:
            check_dimension_budget(g.scaled(err.suggested_scale))
            hint = "re-run with --auto-rescale to apply the suggested scale"
        except DimensionBudgetError as over:
            hint = (f"at the suggested scale, {over}, so this geometry "
                    "cannot be verified")
        print(f"hint: {hint}", file=sys.stderr)
        return EXIT_QUANTIZATION
    print(f"seeds: {args.seeds}   rank_tol: {DEFAULT_RANK_TOL:g}")

    d1_max, d2_max, dsum_max = fd_caps(g)
    corners = corner_points(g)
    print(f"caps: d1_max={d1_max} d2_max={d2_max} dsum_max={dsum_max}")
    print(f"corners: p'={_points(corners.p_prime)}  "
          f"p''={_points(corners.p_double_prime)}")

    target = cap_corners((d1_max, d2_max, dsum_max))
    identity_ok = corners == target
    print(
        "corner/cap identity (exact rational): "
        + ("pass" if identity_ok else "FAIL")
    )

    applies = zf_case_applies(g)
    if applies:
        print("zero-forcing corner check: construction conditions hold, "
              "requiring exact equality with p'")
    else:
        print("zero-forcing corner check: outside the construction's case "
              "conditions; requiring achieved d2 <= p' only")

    all_ok = identity_ok
    # the construction's d1 is rank11's decision, checked in that column
    p2 = target.p_prime[1]
    expected = _expected_ranks(g)
    print("seed  rank11  rank12  rank22   zf(d1,d2)  leakage    status")
    # map holds no chunk's matrices while it draws the next one
    rows = chain.from_iterable(map(_decided, _chunks(g, range(args.seeds))))
    for seed, (*ranks, d2, leakage) in enumerate(rows):
        checks = [rank == exp for rank, exp in zip(ranks, expected)]
        reached = d2 == p2 if applies else d2 <= p2
        row_ok = all(checks) and reached and leakage <= LEAKAGE_TOL
        all_ok = all_ok and row_ok

        cells = " ".join(f"{'ok' if ok else 'FAIL':<7}" for ok in checks)
        corner_cell = f"({ranks[0]},{d2})"
        print(
            f"{seed:>4}  {cells}  {corner_cell:<10} "
            f"{leakage:.2e}   {'pass' if row_ok else 'FAIL'}"
        )

    print(f"RESULT: {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def _seed_count(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_SEEDS:
        raise argparse.ArgumentTypeError(
            f"must be from 1 to {MAX_SEEDS}, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fddof",
        description=(
            "Degrees-of-freedom regions of a three-node full-duplex link: "
            "compute them, compare against half-duplex time division, sweep "
            "the scattering overlap, and verify the closed forms against a "
            "randomized matrix oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="caps, corners and vertices")
    p_region.add_argument("scenario")
    p_region.add_argument("--csv", help="write region vertices as CSV")
    p_region.add_argument("--svg", help="write region plot as SVG")
    p_region.set_defaults(func=cmd_region)

    p_compare = sub.add_parser("compare", help="full-duplex vs half-duplex")
    p_compare.add_argument("scenario")
    p_compare.add_argument("--svg", help="write overlay plot as SVG")
    p_compare.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="overlap sweep on a symmetric base")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument(
        "--grid",
        default=DEFAULT_GRID,
        help=f"comma-separated overlap values (default {DEFAULT_GRID})",
    )
    p_sweep.add_argument("--csv", help="write sweep table as CSV")
    p_sweep.add_argument("--svg", help="write overlay plot as SVG")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="randomized matrix oracle checks of the closed forms"
    )
    p_verify.add_argument("scenario")
    p_verify.add_argument("--seeds", type=_seed_count, default=DEFAULT_SEEDS)
    p_verify.add_argument(
        "--auto-rescale",
        action="store_true",
        help="scale array lengths to the least integral geometry first",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves no state on the parser, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as err:
        print(f"error: file not found: {err.filename or err}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except OSError as err:
        print(f"error: file: {err}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except SchemaError as err:
        print(f"error: schema: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except (DomainError, MalformedIntervalError, MonotonicityError) as err:
        print(f"error: invariant: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except SweepBaseError as err:
        print(f"error: sweep base: {err}", file=sys.stderr)
        return EXIT_SWEEP_BASE
    except DimensionBudgetError as err:
        print(f"error: dimension budget: {err}", file=sys.stderr)
        return EXIT_DIMENSION_BUDGET


def run() -> None:
    # what the terminal cannot encode, say a scenario name, is escaped
    for stream in (sys.stdout, sys.stderr):
        stream.reconfigure(errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    run()
