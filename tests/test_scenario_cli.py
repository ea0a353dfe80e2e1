"""Scenario file handling and CLI behavior, including exit codes."""

import csv
import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from fddof import (
    DirectionSet,
    fd_caps,
    load_scenario,
    make_fully_spread,
    parse_scenario,
    region_from_caps,
    save_scenario,
)
from fddof import cli
from fddof.cli import build_parser, main
from fddof.scenario import MAX_SEEDS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SYMMETRIC = str(SCENARIOS / "symmetric_overlap_075.json")
FULLY_SPREAD = str(SCENARIOS / "fully_spread_bs2_usr1.json")
EMPTY_BACK = str(SCENARIOS / "empty_backscatter.json")
ANGLES = str(SCENARIOS / "angles_demo.json")


def write_json(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# placeholder string that write_raw replaces with raw JSON text
RAW = "@raw@"


def write_raw(tmp_path, data, raw, name="scenario.json"):
    """Write data with the string RAW replaced by the JSON text raw."""
    path = tmp_path / name
    path.write_text(json.dumps(data).replace(json.dumps(RAW), raw),
                    encoding="utf-8")
    return str(path)


def coprime_denominators(count):
    """count <= 64 pairwise coprime denominators of 299 digits, 1 + i * m
    with 64! dividing m: a prime dividing two of them divides j - i < 64,
    so it divides m, yet 1 + i * m is 1 modulo it."""
    m = math.factorial(64) * 10**207
    return [1 + i * m for i in range(1, count + 1)]


def spread_intervals(dens, step=F(1, 8)):
    """One interval per pair of denominators, each endpoint 1 / den past a
    multiple of step / 2."""
    return [
        [str(-1 + i * step + F(1, lo)), str(-1 + i * step + step / 2 + F(1, hi))]
        for i, (lo, hi) in enumerate(zip(dens[::2], dens[1::2]))
    ]


def base_scenario_dict():
    return {
        "name": "base",
        "lengths": {"l_t1": "1", "l_r1": "1", "l_t2": "1", "l_r2": "1"},
        "intervals": {
            "t11": [["0", "1"]],
            "r11": [["0", "1"]],
            "t22": [["0", "1"]],
            "r22": [["0", "1"]],
            "t12": [["-1/4", "3/4"]],
            "r12": [["-1/4", "3/4"]],
        },
    }


# -- scenario files -------------------------------------------------------------

class TestScenarioFiles:
    def test_load_symmetric(self):
        scn = load_scenario(SYMMETRIC)
        assert scn.name == "symmetric-overlap-075"
        assert fd_caps(scn.geometry) == (2, 2, 3)
        assert scn.oracle.seeds == 20

    def test_round_trip_preserves_geometry(self, tmp_path):
        scn = load_scenario(SYMMETRIC)
        path = tmp_path / "copy.json"
        save_scenario(scn, path)
        again = load_scenario(path)
        assert again.geometry == scn.geometry
        assert again.name == scn.name
        assert again.oracle == scn.oracle

    def test_decimal_numbers_parse_exactly(self, tmp_path):
        data = base_scenario_dict()
        data["intervals"]["t12"] = [[-0.25, 0.75]]
        data["intervals"]["r12"] = [[-0.25, 0.75]]
        scn = load_scenario(write_json(tmp_path, data))
        assert scn.geometry.t12 == DirectionSet([(F(-1, 4), F(3, 4))])

    def test_angles_variant(self):
        scn = load_scenario(ANGLES)
        assert scn.geometry.t11 == DirectionSet([(0, F(1, 2))])
        assert scn.geometry.t12 == DirectionSet([(F(1, 2), 1)])

    def test_integer_lengths_accepted(self, tmp_path):
        data = base_scenario_dict()
        data["lengths"]["l_t1"] = 2
        scn = load_scenario(write_json(tmp_path, data))
        assert scn.geometry.lengths.l_t1 == 2

    def test_default_name_is_file_stem(self, tmp_path):
        data = base_scenario_dict()
        del data["name"]
        scn = load_scenario(write_json(tmp_path, data, "my_case.json"))
        assert scn.name == "my_case"

    def test_parse_rejects_non_object(self):
        with pytest.raises(Exception) as info:
            parse_scenario([1, 2, 3])
        assert "top level" in str(info.value)


# -- exit codes -------------------------------------------------------------------

class TestExitCodes:
    def test_missing_file_is_2(self, capsys):
        assert main(["region", "/nonexistent/scenario.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_schema_violation_is_3_with_field_path(self, tmp_path, capsys):
        data = base_scenario_dict()
        del data["intervals"]["t12"]
        code = main(["region", write_json(tmp_path, data)])
        assert code == 3
        assert "intervals.t12" in capsys.readouterr().err

    def test_bad_rational_is_3_with_field_path(self, tmp_path, capsys):
        data = base_scenario_dict()
        data["lengths"]["l_r1"] = "one half"
        code = main(["region", write_json(tmp_path, data)])
        assert code == 3
        assert "lengths.l_r1" in capsys.readouterr().err

    def test_invalid_json_is_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["region", str(path)]) == 3

    def test_interval_invariant_is_4(self, tmp_path, capsys):
        data = base_scenario_dict()
        data["intervals"]["t11"] = [["0", "3/2"]]
        code = main(["region", write_json(tmp_path, data)])
        assert code == 4
        assert "intervals.t11" in capsys.readouterr().err

    def test_negative_length_is_4(self, tmp_path, capsys):
        data = base_scenario_dict()
        data["lengths"]["l_t2"] = "-1"
        assert main(["region", write_json(tmp_path, data)]) == 4

    def test_non_symmetric_sweep_base_is_5(self, capsys):
        assert main(["sweep", FULLY_SPREAD, "--grid", "0"]) == 5

    def test_out_of_range_grid_is_5(self, capsys):
        assert main(["sweep", SYMMETRIC, "--grid", "3/2"]) == 5

    def test_sum_cap_rising_with_overlap_is_4(self, tmp_path, monkeypatch,
                                              capsys):
        real, calls = cli.fd_caps, itertools.count()

        def rising(g):
            d1_max, d2_max, dsum_max = real(g)
            return d1_max, d2_max, dsum_max + 100 * next(calls)

        monkeypatch.setattr(cli, "fd_caps", rising)
        csv_path = tmp_path / "sweep.csv"
        code = main(
            ["sweep", SYMMETRIC, "--grid", "0,1", "--csv", str(csv_path)]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert "error: invariant: sum cap increased" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert "wrote sweep CSV" not in captured.out
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "option", [["--seeds", "0"], ["--seeds", "-3"], ["--rank-tol", "nan"],
                   ["--rank-tol", "inf"], ["--rank-tol", "0"],
                   ["--rank-tol", "-1"]],
    )
    def test_bad_oracle_option_is_a_usage_error_2(self, option, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", EMPTY_BACK, *option])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert option[0] in captured.err
        assert "RESULT: PASS" not in captured.out

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1e400"]
    )
    def test_non_finite_scenario_rank_tol_is_3(self, tmp_path, literal,
                                               capsys):
        text = json.dumps(base_scenario_dict())[:-1]
        path = tmp_path / "scenario.json"
        path.write_text(
            text + f', "oracle": {{"rank_tol": {literal}}}}}', encoding="utf-8"
        )
        assert main(["verify", str(path), "--auto-rescale"]) == 3
        captured = capsys.readouterr()
        assert "oracle.rank_tol" in captured.err
        assert "RESULT: PASS" not in captured.out

    def test_quantization_without_rescale_is_6(self, capsys):
        assert main(["verify", SYMMETRIC, "--seeds", "2"]) == 6
        err = capsys.readouterr().err
        assert "quantization" in err
        assert "--auto-rescale" in err

    def test_dimension_budget_is_7_before_allocating(self, tmp_path, capsys):
        # a 45 degree span has a 12-digit cosine endpoint: rescale 5*10^11
        data = base_scenario_dict()
        data["intervals"] = {
            name: {"angles_deg": [["45", "90"]]}
            for name in ("t11", "r11", "t22", "r22", "t12", "r12")
        }
        path = write_json(tmp_path, data)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = main(["verify", path, "--auto-rescale"])
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 7
        assert elapsed < 5
        assert peak < 2**20
        captured = capsys.readouterr()
        assert "dimension budget" in captured.err
        # refused before the caps, the corners or the seed table
        for line in ("caps:", "corners:", "seed  rank11", "RESULT: PASS"):
            assert line not in captured.out


    @pytest.mark.parametrize(
        "field",
        ["lengths.l_t1", "intervals.t11", "oracle.seeds", "oracle.rank_tol"],
    )
    def test_json_integer_over_4300_digits_is_3(self, tmp_path, field,
                                                capsys):
        data = base_scenario_dict()
        data["oracle"] = {"seeds": 1, "rank_tol": 1e-9}
        section, key = field.split(".")
        data[section][key] = [[RAW, "1"]] if section == "intervals" else RAW
        assert main(["region", write_raw(tmp_path, data, "7" * 5000)]) == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["region", "compare"])
    def test_lengths_past_the_float_range_are_3(self, tmp_path, command,
                                                capsys):
        data = base_scenario_dict()
        data["lengths"] = {key: "1e400" for key in data["lengths"]}
        assert main([command, write_json(tmp_path, data)]) == 3
        assert "lengths.l_t1" in capsys.readouterr().err

    def test_expanding_scenario_literal_is_3_within_a_second(self, tmp_path,
                                                             capsys):
        data = base_scenario_dict()
        data["lengths"]["l_t1"] = "1e-2000000"
        start = time.perf_counter()
        code = main(["region", write_json(tmp_path, data)])
        assert time.perf_counter() - start < 1
        assert code == 3
        assert "lengths.l_t1" in capsys.readouterr().err

    def test_expanding_grid_literal_is_5_within_a_second(self, capsys):
        start = time.perf_counter()
        code = main(["sweep", SYMMETRIC, "--grid", "1/2,1e-2000000"])
        assert time.perf_counter() - start < 1
        assert code == 5
        assert "bad --grid value" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["1e-999999999", '"1e-999999999"'])
    def test_nine_digit_exponent_is_3_within_a_second(self, tmp_path, raw,
                                                      capsys):
        # expanding this exponent would build a 10^9-digit denominator
        data = base_scenario_dict()
        data["intervals"]["t12"] = [[RAW, "3/4"]]
        start = time.perf_counter()
        code = main(["region", write_raw(tmp_path, data, raw)])
        assert time.perf_counter() - start < 1
        assert code == 3
        assert "intervals.t12[0][0]" in capsys.readouterr().err

    def test_scenario_directory_is_2(self, tmp_path, capsys):
        assert main(["region", str(tmp_path)]) == 2
        assert "error: file" in capsys.readouterr().err

    def test_scenario_not_utf8_is_3(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        text = json.dumps(base_scenario_dict()).replace("base", "caf\u00e9")
        path.write_bytes(text.encode("latin-1"))
        assert main(["region", str(path)]) == 3
        assert "UTF-8" in capsys.readouterr().err

    def test_name_with_lone_surrogate_is_3(self, tmp_path, capsys):
        data = base_scenario_dict()
        data["name"] = RAW
        assert main(["region", write_raw(tmp_path, data, '"\\ud800"')]) == 3
        assert "name" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option",
        [("region", "--csv"), ("region", "--svg"), ("compare", "--svg"),
         ("sweep", "--csv"), ("sweep", "--svg")],
    )
    def test_output_path_that_is_a_directory_is_2(self, tmp_path, command,
                                                   option, capsys):
        assert main([command, SYMMETRIC, option, str(tmp_path)]) == 2
        assert "error: file" in capsys.readouterr().err

    def test_seeds_of_300_nines_is_3_within_a_second(self, tmp_path, capsys):
        data = base_scenario_dict()
        data["oracle"] = {"seeds": RAW}
        start = time.perf_counter()
        code = main(["verify", write_raw(tmp_path, data, "9" * 300),
                     "--auto-rescale"])
        assert time.perf_counter() - start < 1
        assert code == 3
        captured = capsys.readouterr()
        assert "oracle.seeds" in captured.err
        assert "seed  rank11" not in captured.out

    def test_seeds_option_above_the_bound_is_a_usage_error_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", EMPTY_BACK, "--seeds", str(MAX_SEEDS + 1)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "--seeds" in captured.err
        assert "seed  rank11" not in captured.out

    def test_seeds_option_at_the_bound_parses(self):
        args = build_parser().parse_args(
            ["verify", EMPTY_BACK, "--seeds", str(MAX_SEEDS)]
        )
        assert args.seeds == MAX_SEEDS

    @pytest.mark.parametrize("command", ["region", "compare", "sweep", "verify"])
    def test_long_common_denominator_is_3_within_a_second(self, tmp_path,
                                                          command, capsys):
        # 16 intervals in each of t11 and r11, over 64 distinct 299-digit
        # denominators: the exact caps would need about 19000 digits
        dens = coprime_denominators(64)
        data = base_scenario_dict()
        data["intervals"]["t11"] = spread_intervals(dens[:32])
        data["intervals"]["r11"] = spread_intervals(dens[32:])
        path = write_json(tmp_path, data)
        start = time.perf_counter()
        code = main([command, path])
        assert time.perf_counter() - start < 1
        assert code == 3
        captured = capsys.readouterr()
        assert "common denominator" in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("command", ["region", "compare", "sweep"])
    def test_values_just_inside_the_denominator_budget_print(self, tmp_path,
                                                             command, capsys):
        # a symmetric base over 12 distinct 299-digit denominators and
        # 300-digit lengths, swept with a 300-digit grid denominator
        fwd = spread_intervals(coprime_denominators(12), step=F(1, 4))
        data = base_scenario_dict()
        data["lengths"] = {key: "9" * 300 for key in data["lengths"]}
        data["intervals"] = {key: fwd for key in data["intervals"]}
        argv = [command, write_json(tmp_path, data)]
        if command == "sweep":
            argv += ["--grid", "1/" + "9" * 300 + ",0"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out) > 4000


# -- region command ----------------------------------------------------------------

class TestRegionCommand:
    def test_report_contents(self, capsys):
        assert main(["region", SYMMETRIC]) == 0
        out = capsys.readouterr().out
        assert "d1_max   = 2" in out
        assert "d2_max   = 2" in out
        assert "dsum_max = 3" in out
        assert "corner p'  = (2, 1)" in out
        assert "corner p'' = (1, 2)" in out
        assert "rectangular: no" in out

    def test_empty_backscatter_is_rectangular(self, capsys):
        assert main(["region", EMPTY_BACK]) == 0
        assert "rectangular: yes" in capsys.readouterr().out

    def test_fully_spread_caps(self, capsys):
        assert main(["region", FULLY_SPREAD]) == 0
        out = capsys.readouterr().out
        assert "d1_max   = 4" in out
        assert "dsum_max = 8" in out

    def test_csv_vertices(self, tmp_path, capsys):
        csv_path = tmp_path / "verts.csv"
        assert main(["region", SYMMETRIC, "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["d1", "d2"]
        points = [(F(str(x)), F(str(y))) for x, y in rows[1:]]
        assert points == [(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)]
        # re-assembled vertices satisfy every cap constraint exactly
        for x, y in points:
            assert 0 <= x <= 2 and 0 <= y <= 2 and x + y <= 3

    def test_svg_written_and_deterministic(self, tmp_path, capsys):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        assert main(["region", SYMMETRIC, "--svg", str(first)]) == 0
        assert main(["region", SYMMETRIC, "--svg", str(second)]) == 0
        a = first.read_text(encoding="utf-8")
        assert a == second.read_text(encoding="utf-8")
        assert 'viewBox="0 0 640 480"' in a
        assert "<polygon" in a
        assert ">d1</text>" in a and ">d2</text>" in a


# -- compare command ----------------------------------------------------------------

class TestCompareCommand:
    def test_identical_supports_are_equal(self, tmp_path, capsys):
        data = base_scenario_dict()
        data["intervals"]["t12"] = [["0", "1"]]
        data["intervals"]["r12"] = [["0", "1"]]
        assert main(["compare", write_json(tmp_path, data)]) == 0
        assert "relation: equal" in capsys.readouterr().out

    def test_fully_spread_larger_base_station(self, capsys):
        assert main(["compare", FULLY_SPREAD]) == 0
        out = capsys.readouterr().out
        assert "relation: HD strictly inside FD" in out
        assert "area gain FD/HD" in out

    def test_fully_spread_equal_arrays(self, tmp_path, capsys):
        data = {
            "name": "fs-equal",
            "lengths": {k: "1" for k in ("l_t1", "l_r1", "l_t2", "l_r2")},
            "intervals": {
                k: [["-1", "1"]]
                for k in ("t11", "r11", "t22", "r22", "t12", "r12")
            },
        }
        assert main(["compare", write_json(tmp_path, data)]) == 0
        assert "relation: equal" in capsys.readouterr().out


# -- sweep command -------------------------------------------------------------------

class TestSweepCommand:
    def test_triangle_pentagon_rectangle(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main(
            ["sweep", SYMMETRIC, "--grid", "1,3/4,1/2", "--csv", str(csv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overlap=1: d1_max=2 d2_max=2 dsum_max=2 rectangular=no" in out
        assert "overlap=3/4: d1_max=2 d2_max=2 dsum_max=3 rectangular=no" in out
        assert "overlap=1/2: d1_max=2 d2_max=2 dsum_max=4 rectangular=yes" in out
        with open(csv_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["overlap", "d1_cap", "d2_cap", "dsum_cap", "rectangular"]
        assert rows[1] == ["1", "2", "2", "2", "false"]
        assert rows[3] == ["0.5", "2", "2", "4", "true"]

    def test_zero_overlap_rectangle(self, capsys):
        assert main(["sweep", SYMMETRIC, "--grid", "0"]) == 0
        # disjoint forward/backscatter: the sum cap is inactive, region is 2Lx2L
        assert "dsum_max=6 rectangular=yes" in capsys.readouterr().out

    def test_svg_overlay_has_legend(self, tmp_path, capsys):
        svg_path = tmp_path / "sweep.svg"
        assert main(
            ["sweep", SYMMETRIC, "--grid", "1,1/2", "--svg", str(svg_path)]
        ) == 0
        text = svg_path.read_text(encoding="utf-8")
        assert "FD overlap=1" in text
        assert "half-duplex" in text


# -- verify command -------------------------------------------------------------------

class TestVerifyCommand:
    def test_symmetric_with_rescale_passes(self, capsys):
        code = main(["verify", SYMMETRIC, "--auto-rescale", "--seeds", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "auto-rescale: x2" in out
        assert "(4,2)" in out
        assert "corner/cap identity (exact rational): pass" in out
        assert "ranks invariant across seeds: pass" in out
        assert "RESULT: PASS" in out

    def test_empty_backscatter_corner_is_the_rectangle(self, capsys):
        code = main(["verify", EMPTY_BACK, "--seeds", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(2,2)" in out

    def test_corrupted_support_fails_with_exit_1(self, capsys):
        code = main(
            [
                "verify",
                SYMMETRIC,
                "--auto-rescale",
                "--seeds",
                "3",
                "--corrupt-support",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_fully_spread_outside_case_conditions_still_passes(self, capsys):
        code = main(["verify", FULLY_SPREAD, "--seeds", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "outside the construction's case conditions" in out


# -- helpers ------------------------------------------------------------------------

def test_region_from_caps_matches_cli_reassembly():
    region = region_from_caps(4, 4, 8)
    assert region.vertices == ((0, 0), (4, 0), (4, 4), (0, 4))
    assert fd_caps(make_fully_spread(2, 1)) == (4, 4, 8)


def test_svg_renders_degenerate_regions_as_polylines():
    from fddof.svgplot import render_regions

    segment = region_from_caps(2, 0, 2)
    text = render_regions([("uplink only", segment)])
    assert "<polyline" in text
    assert "uplink only" in text
