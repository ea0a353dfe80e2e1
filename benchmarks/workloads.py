"""The four benchmark workloads, the span tracer and the check tally.

Every workload is a closed loop with one client in one process: the next op
starts when the previous one has returned.  An op calls public functions of
the package; spans are recorded here, around those calls, never inside the
package.  Each workload also checks every output it gets.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

from fddof import (
    DegenerateGeometryError,
    RegionRelation,
    allocate_basis,
    cli,
    corner_points,
    fd_caps,
    fd_region,
    genie_expand,
    hd_region,
    integer_rescale,
    is_rectangular,
    load_scenario,
    numerical_rank,
    refine,
    region_relate,
    sample_channel,
    verify_operator_dims,
    zero_forcing_corner,
    zf_case_applies,
)
from fddof.oracle import LEAKAGE_TOL
from fddof.svgplot import render_regions

import inputs

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class Tracer:
    """Spans kept in memory as (id, parent id, name, start ns, end ns).

    The op's root span has no parent; the spans of the calls it makes name
    it as their parent, so one op's spans share its id.  ``counts`` holds
    per-op counts recorded at the same boundaries.  ``marks`` holds
    (number of spans so far, calibration scale) after each measured slice.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, list] = defaultdict(list)
        self.marks: list[tuple[int, float]] = []
        self._open: list = [None]

    def call(self, name, fn, *args):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1]
        self._open.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def count(self, name, value):
        self.counts[name].append(value)

    def mark(self, scale: float) -> None:
        self.marks.append((len(self.spans), scale))

    def durations(self) -> dict[str, list[float]]:
        """Span durations in ns, each scaled by its slice's calibration."""
        out = defaultdict(list)
        begin = 0
        for end, scale in self.marks:
            for _, _, name, start, stop in self.spans[begin:end]:
                out[name].append((stop - start) * scale)
            begin = end
        return out


class NoTrace:
    """Untraced runs: calls straight through, records nothing."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


class Tally:
    """Correctness checks attempted and failed, per layer."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()

    def check(self, layer: str, ok: bool) -> None:
        self.attempted[layer] += 1
        if not ok:
            self.failed[layer] += 1

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def fail_ratio(self) -> float:
        return self.total_failed / max(self.total_attempted, 1)


def run_ops(wl, items, tr, tally: Tally, seconds: float = math.inf,
            traced: bool = False) -> list[int]:
    """Run ops on ``items`` back to back until ``seconds`` have passed or
    the items run out; return each op's latency in ns.

    Only the op is timed: its checks and, in traced runs, the extra layer
    probes run between ops.
    """
    latencies: list[int] = []
    stop = perf_counter() + seconds
    for item in items:
        t0 = perf_counter_ns()
        try:
            out = tr.call(f"op.{wl.name}", wl.op, item, tr)
        except Exception:
            latencies.append(perf_counter_ns() - t0)
            if not tally.failed[wl.layer]:
                traceback.print_exc(file=sys.stderr)
            tally.check(wl.layer, False)
        else:
            latencies.append(perf_counter_ns() - t0)
            wl.check(item, out, tally)
            if traced:
                wl.probe(item, out, tr, tally)
        if perf_counter() >= stop:
            break
    return latencies


def _cap_corners(caps):
    """Corner pair derived from the caps alone (the identity's other side)."""
    d1, d2, ds = caps
    zero = Fraction(0)
    return (
        (d1, min(max(ds - d1, zero), d2)),
        (min(max(ds - d2, zero), d1), d2),
    )


def link_products(g):
    """The twelve length-weighted products the corner formulas use."""
    L = g.lengths
    return (
        L.l_t1 * g.t11.measure(),
        L.l_r1 * g.r11.measure(),
        L.l_t2 * g.t22.measure(),
        L.l_r2 * g.r22.measure(),
        L.l_t2 * g.t12.measure(),
        L.l_r1 * g.r12.measure(),
        L.l_t2 * (g.t22 - g.t12).measure(),
        L.l_t2 * (g.t22 & g.t12).measure(),
        L.l_r1 * (g.r11 - g.r12).measure(),
        L.l_r1 * (g.r11 & g.r12).measure(),
        L.l_r1 * (g.r12 - g.r11).measure(),
        L.l_t2 * (g.t12 - g.t22).measure(),
    )


def _expand(g):
    try:
        return genie_expand(g)
    except DegenerateGeometryError:
        return None


class ClosedForms:
    """op = one criterion-2 geometry through every closed form.

    All of the work is exact Fraction set algebra in intervals/regions; the
    oracle is idle.  Layer group: intervals set operations and regions.
    """

    name = "closed_forms"
    group = "closed_forms"
    layer = "regions"
    POOL = 2048

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.items = [inputs.random_geometry(rng) for _ in range(self.POOL)]
        self.warmup = 200

    def op(self, g, tr):
        caps = tr.call("regions.fd_caps", fd_caps, g)
        corners = tr.call("regions.corner_points", corner_points, g)
        fd = tr.call("regions.fd_region", fd_region, g)
        hd = tr.call("regions.hd_region", hd_region, g)
        relation = tr.call("regions.region_relate", region_relate, hd, fd)
        rect = tr.call("regions.is_rectangular", is_rectangular, g)
        expanded = tr.call("regions.genie_expand", _expand, g)
        return caps, corners, fd, relation, rect, expanded

    def check(self, g, out, tally):
        caps, corners, fd, relation, rect, expanded = out
        tally.check(
            "regions",
            (corners.p_prime, corners.p_double_prime) == _cap_corners(caps),
        )
        tally.check(
            "regions",
            relation in (RegionRelation.EQUAL, RegionRelation.A_STRICT_SUBSET_B),
        )
        # the polygon has the cap corner (d1, d2) as a vertex exactly when
        # the sum cap is inactive
        tally.check("regions", rect == ((caps[0], caps[1]) in fd.vertices))
        if expanded is not None:
            L = expanded.lengths
            top = max(
                2 * L.l_t2 * expanded.t22.measure(),
                2 * L.l_r1 * expanded.r11.measure(),
            )
            tally.check("regions", top == caps[2])

    def probe(self, g, out, tr, tally):
        a, b, c, d, e, f, p, q, r, s, u, v = tr.call(
            "intervals.setops", link_products, g
        )
        # |A| = |A & B| + |A - B| on each overlap the formulas split
        tally.check("intervals", c == p + q)
        tally.check("intervals", e == q + v)
        tally.check("intervals", b == r + s)
        tally.check("intervals", f == s + u)


class OracleCase(NamedTuple):
    index: int          # geometry index, for the per-geometry expectations
    g: object           # integral geometry the oracle runs on
    raw: object         # the same geometry before integer rescaling
    seed: int           # channel seed


class OracleSmall:
    """op = one (geometry, channel seed) pair through the matrix oracle.

    The 100 integral case geometries of acceptance criteria 3/4 (every space
    at most 64) x 20 channel seeds drawn from the workload seed: the matrices
    are tiny, so Python overhead dominates.  Checks follow the rules of
    ``fddof verify``.
    """

    name = "oracle_small"
    group = "oracle"
    layer = "oracle"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        seeds = [rng.randrange(2**32) for _ in range(20)]
        self._setup(inputs.acceptance_case_geometries(), seeds)

    def _setup(self, cases, seeds):
        # geometry-major interleave: any window of ops covers every geometry
        self.items = [
            OracleCase(i, g, raw, s)
            for s in seeds
            for i, (g, raw) in enumerate(cases)
        ]
        self.expected = [self._expectation(g) for g, _ in cases]
        self.ranks: dict[int, tuple] = {}
        self.sample = sample_channel
        self.warmup = len(cases)

    @staticmethod
    def _expectation(g):
        caps = fd_caps(g)
        corners = corner_points(g)
        target = _cap_corners(caps)
        identity = (corners.p_prime, corners.p_double_prime) == target
        return target[0], zf_case_applies(g), identity

    def op(self, case, tr):
        ch = tr.call("oracle.sample_channel", self.sample, case.g, case.seed)
        report = tr.call(
            "oracle.verify_operator_dims", verify_operator_dims, ch, case.g
        )
        zf = tr.call(
            "oracle.zero_forcing_corner", zero_forcing_corner, ch, case.g
        )
        return ch, report, zf

    def check(self, case, out, tally):
        _, report, zf = out
        (p1, p2), applies, identity = self.expected[case.index]
        tally.check("regions", identity)
        for dim_check in report.checks:
            tally.check("oracle", dim_check.ok)
        reached = zf.d2 == p2 if applies else zf.d2 <= p2
        tally.check("oracle", zf.d1 == p1 and reached)
        tally.check("oracle", zf.max_leakage <= LEAKAGE_TOL)
        ranks = tuple(c.observed for c in report.checks)
        tally.check("oracle", self.ranks.setdefault(case.index, ranks) == ranks)

    def probe(self, case, out, tr, tally):
        ch = out[0]
        g = case.g
        for family in ([g.t11], [g.t22, g.t12], [g.r11, g.r12], [g.r22]):
            tr.call("intervals.refine", refine, family)
        alloc = tr.call("oracle.allocate_basis", allocate_basis, g)
        tr.call("oracle.integer_rescale", integer_rescale, case.raw)
        for matrix in (ch.s11, ch.s12, ch.s22):
            if matrix.size:
                tr.call("oracle.numerical_rank", numerical_rank, matrix, ch.rank_tol)
        tr.count(
            "oracle.matrix_entries",
            alloc.r1.total * (alloc.t1.total + alloc.t2.total)
            + alloc.r2.total * alloc.t2.total,
        )


class OracleLarge(OracleSmall):
    """op = one channel seed on one of the checked-in scenarios, scaled so
    its largest space has 64-80 basis functions.

    Same layer as oracle_small, but LAPACK dominates; two of the four
    geometries lie outside the zero-forcing case conditions.
    """

    name = "oracle_large"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        seeds = [rng.randrange(2**32) for _ in range(500)]
        self._setup(inputs.large_geometries(), seeds)


class CliCase(NamedTuple):
    id: str
    command: str
    stem: str
    argv: list


def result_line(stdout: str):
    return next(
        (ln for ln in stdout.splitlines() if ln.startswith("RESULT:")), None
    )


def load_goldens(golden_dir: Path) -> dict:
    """Golden outputs by case id: exit code, stdout or RESULT line, files."""
    manifest = json.loads((golden_dir / "manifest.json").read_text())
    goldens = {}
    for case_id, entry in manifest.items():
        want = dict(entry)
        for ext in ("stdout", "csv", "svg"):
            path = golden_dir / f"{case_id}.{ext}"
            want[ext] = path.read_bytes() if path.exists() else None
        goldens[case_id] = want
    return goldens


def region_library(path):
    """What ``fddof region --svg`` computes, called directly."""
    g = load_scenario(path).geometry
    fd_caps(g)
    corner_points(g)
    region = fd_region(g)
    is_rectangular(g)
    return render_regions([("full-duplex region", region)])


class Cli:
    """op = one in-process ``cli.main(argv)`` call from the fixed mix.

    Every subcommand runs on every checked-in scenario; each cycle of the mix
    runs in a seeded order.  Outputs are byte-compared with the goldens.
    """

    name = "cli"
    group = "cli"
    layer = "cli"
    CYCLES = 16

    def __init__(self, seed: int, golden_dir: Path = GOLDEN_DIR):
        mix = [CliCase(*case) for case in inputs.cli_mix()]
        rng = random.Random(seed)
        self.items = []
        for _ in range(self.CYCLES):
            cycle = list(mix)
            rng.shuffle(cycle)
            self.items += cycle
        self.golden = load_goldens(golden_dir)
        self.work = Path(inputs.WORK_DIR)
        self.work.mkdir(parents=True, exist_ok=True)
        for stale in self.work.iterdir():
            stale.unlink()
        self.warmup = len(mix)

    def op(self, case, tr):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = tr.call(f"cli.{case.command}", cli.main, case.argv)
        return code, out.getvalue()

    def check(self, case, out, tally):
        code, stdout = out
        want = self.golden[case.id]
        tally.check("cli", code == want["exit"])
        if case.command == "verify":
            tally.check("cli", result_line(stdout) == want["result"])
        else:
            tally.check("cli", stdout.encode() == want["stdout"])
        for ext, layer in (("csv", "cli"), ("svg", "svgplot")):
            path = self.work / f"{case.id}.{ext}"
            got = path.read_bytes() if path.exists() else None
            if got is not None or want[ext] is not None:
                tally.check(layer, got == want[ext])
            path.unlink(missing_ok=True)

    def probe(self, case, out, tr, tally):
        path = inputs.scenario_path(case.stem)
        g = tr.call("scenario.load", load_scenario, path).geometry
        entries = [("half-duplex", hd_region(g)), ("full-duplex", fd_region(g))]
        tr.call("svgplot.render", render_regions, entries)
        if case.command == "region":
            tr.call("cli.region_library", region_library, path)


WORKLOADS = {
    cls.name: cls for cls in (ClosedForms, OracleSmall, OracleLarge, Cli)
}

# Where a traced run takes the layers its own workload does not exercise.
HOME = {"closed_forms": ClosedForms, "oracle": OracleSmall, "cli": Cli}
