"""Scenario file handling and CLI behavior, including exit codes."""

import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from fddof import (
    DirectionSet,
    DiscretizedChannel,
    RankToleranceWarning,
    cap_corners,
    corrupt_support,
    cos_degrees,
    fd_caps,
    fd_region,
    integer_rescale,
    load_scenario,
    make_fully_spread,
    numerical_rank,
    parse_scenario,
    verify_operator_dims,
    zero_forcing_corner,
    zf_case_applies,
)
from fddof import oracle
from fddof import Scenario, cli
from fddof.cli import MAX_SEEDS, build_parser, main
from fddof.scenario import SchemaError
from geom_helpers import cap_region, reference_channel

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


def fresh_env(**extra) -> dict:
    """The environment of a fresh ``python -m fddof.cli`` process that
    imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


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

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d.update(lengths=[]), "lengths: expected an object"),
            (lambda d: d["lengths"].update(l_x="1"),
             "lengths: unknown keys ['l_x']"),
            (lambda d: d["lengths"].pop("l_r2"), "lengths.l_r2: missing"),
            (lambda d: d.pop("lengths"), "lengths: missing"),
            (lambda d: d.update(intervals="t11"),
             "intervals: expected an object"),
            (lambda d: d["intervals"].update(t13=[]),
             "intervals: unknown keys ['t13']"),
            (lambda d: d["intervals"].pop("r11"), "intervals.r11: missing"),
            (lambda d: d.pop("intervals"), "intervals: missing"),
            (lambda d: d.update(oracle={"seeds": 20, "rank_tol": 1e-9}),
             "$: unknown keys ['oracle']"),
            (lambda d: d["intervals"].update(t11=5),
             "intervals.t11: expected a list of [lo, hi] pairs"),
            (lambda d: d["intervals"].update(
                t11={"angles_deg": [[0, 60]], "deg": 1}),
             "intervals.t11: unknown keys ['deg']"),
            (lambda d: d["intervals"].update(t11={}),
             "intervals.t11: interval object needs 'angles_deg'"),
        ],
        ids=[
            "lengths-not-object", "lengths-unknown", "lengths-key-missing",
            "lengths-missing", "intervals-not-object", "intervals-unknown",
            "intervals-key-missing", "intervals-missing", "top-level-unknown",
            "angles-not-object", "angles-unknown", "angles-missing",
        ],
    )
    def test_object_violation_is_3_with_its_message(self, tmp_path, mutate,
                                                     message, capsys):
        data = base_scenario_dict()
        mutate(data)
        assert main(["region", write_json(tmp_path, data)]) == 3
        assert capsys.readouterr().err == f"error: schema: {message}\n"

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d["lengths"].update(l_t1=True),
             "lengths.l_t1: expected a rational, got a boolean"),
            (lambda d: d.update(name=5), "name: expected a string"),
            (lambda d: d["lengths"].update(l_t1="1_0"),
             "lengths.l_t1: not a rational of at most 300 digits: '1_0'"),
            (lambda d: d["lengths"].update(l_t1="1 / 2"),
             "lengths.l_t1: not a rational of at most 300 digits: '1 / 2'"),
            (lambda d: d["lengths"].update(l_t1="1.d"),
             "lengths.l_t1: not a rational of at most 300 digits: '1.d'"),
        ],
        ids=["boolean-rational", "name-not-string", "digit-separator",
             "slash-space", "d-decimal"],
    )
    def test_refused_value_is_3_with_its_message(self, tmp_path, mutate,
                                                 message, capsys):
        data = base_scenario_dict()
        mutate(data)
        assert main(["region", write_json(tmp_path, data)]) == 3
        assert capsys.readouterr().err == f"error: schema: {message}\n"

    def test_top_level_object_is_required(self):
        with pytest.raises(SchemaError) as info:
            parse_scenario([base_scenario_dict()])
        assert str(info.value) == "$: top level must be an object"

    def test_misspelt_top_level_key_is_3_before_any_seed(self, tmp_path,
                                                         capsys):
        data = base_scenario_dict()
        data["orcale"] = {"seeds": 1}
        path = write_json(tmp_path, data)
        assert main(["verify", path, "--auto-rescale"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: schema: $: unknown keys ['orcale']\n"
        assert "seed  rank11" not in captured.out

    def test_angle_pair_outside_the_range_is_4_with_its_path(self, tmp_path,
                                                             capsys):
        data = base_scenario_dict()
        data["intervals"]["r22"] = {"angles_deg": [[0, 200]]}
        assert main(["region", write_json(tmp_path, data)]) == 4
        assert capsys.readouterr().err == (
            "error: invariant: intervals.r22: angle pair [0, 200] leaves "
            "[0, 180] degrees\n"
        )

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

    @pytest.mark.parametrize(
        "intervals,grid,message",
        [
            ({"r22": [["0", "1/2"]]}, "0",
             "sweep base must share one forward interval set"),
            ({"r12": [["-1/4", "1/2"]]}, "0",
             "sweep base must share one backscatter interval set"),
            ({**{key: [["-1", "1/2"]] for key in ("t11", "r11", "t22", "r22")},
              "t12": [["0", "1"]], "r12": [["0", "1"]]}, "0",
             "cannot place backscatter measure 1 with overlap 0: not enough "
             "room outside the forward set"),
            ({}, ",", "--grid is empty"),
            ({}, "1_0/16",
             "bad --grid value: Invalid literal for Fraction: '1_0/16'"),
            ({}, "1 / 2",
             "bad --grid value: Invalid literal for Fraction: '1 / 2'"),
            ({}, "1.d",
             "bad --grid value: Invalid literal for Fraction: '1.d'"),
        ],
        ids=["forward", "backscatter", "no-room", "empty-grid",
             "digit-separator", "slash-space", "d-decimal"],
    )
    def test_bad_sweep_base_or_grid_is_5(self, tmp_path, intervals, grid,
                                         message, capsys):
        data = base_scenario_dict()
        data["intervals"].update(intervals)
        path = write_json(tmp_path, data)
        assert main(["sweep", path, "--grid", grid]) == 5
        assert capsys.readouterr().err == f"error: sweep base: {message}\n"

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
        "option", [["--seeds", "0"], ["--seeds", "-3"], ["--seeds", "abc"],
                   ["--seeds", "1.5"], ["--seeds", "1e3"], ["--seeds", ""]],
    )
    def test_bad_oracle_option_is_a_usage_error_2(self, option, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", EMPTY_BACK, *option])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert option[0] in captured.err
        assert "RESULT: PASS" not in captured.out

    def test_rank_tol_option_is_a_usage_error_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", EMPTY_BACK, "--rank-tol", "1e-9"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --rank-tol 1e-9" in captured.err
        assert captured.out == ""

    def test_quantization_without_rescale_is_6(self, capsys):
        assert main(["verify", SYMMETRIC, "--seeds", "2"]) == 6
        captured = capsys.readouterr()
        assert "quantization" in captured.err
        assert "--auto-rescale" in captured.err
        # refused before the caps, the corners or the seed table
        for line in ("caps:", "corners:", "seed  rank11"):
            assert line not in captured.out

    def test_quantization_hint_within_the_budget(self, capsys):
        assert main(["verify", SYMMETRIC]) == 6
        assert capsys.readouterr().err == (
            "error: quantization: space t2: atom [-1/4, 0) has non-integral "
            "dimension 1/2 (space total 5/2); scaling all array lengths by 2 "
            "makes every atom dimension integral\n"
            "hint: re-run with --auto-rescale to apply the suggested scale\n"
        )

    def test_quantization_hint_over_the_budget(self, tmp_path, capsys):
        # off the exact-cosine grid: the suggested scale is 2.5 * 10^11,
        # so --auto-rescale would only exit 7
        data = json.loads(Path(ANGLES).read_text(encoding="utf-8"))
        for name in ("t11", "r11", "t22", "r22"):
            data["intervals"][name] = {"angles_deg": [["45", "90"]]}
        assert main(["verify", write_json(tmp_path, data)]) == 6
        assert capsys.readouterr().err == (
            "error: quantization: space t1: atom [0, "
            "707106781187/1000000000000) has non-integral dimension "
            "707106781187/250000000000 (space total "
            "707106781187/250000000000); scaling all array lengths by "
            "250000000000 makes every atom dimension integral\n"
            "hint: at the suggested scale, space t1 needs 707106781187 basis "
            "functions, above the budget of 2048 per space, so this geometry "
            "cannot be verified\n"
        )

    def test_corrupt_support_option_is_a_usage_error_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", SYMMETRIC, "--auto-rescale", "--corrupt-support"])
        assert info.value.code == 2
        assert "--corrupt-support" in capsys.readouterr().err

    def test_dimension_budget_is_7_before_allocating(self, tmp_path, capsys):
        # a 45 degree span has a 12-digit cosine endpoint: rescale 5*10^11
        data = base_scenario_dict()
        data["intervals"] = {
            name: {"angles_deg": [["45", "90"]]}
            for name in ("t11", "r11", "t22", "r22", "t12", "r12")
        }
        path = write_json(tmp_path, data)
        # mpmath's first import and the parser are once-per-process costs,
        # paid here, so the window sees only the refusal in any test order
        cos_degrees(45)
        cli._parser()
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

    def test_dimension_budget_comes_before_quantization(self, tmp_path,
                                                        capsys):
        # t1 = 8194/3 is non-integral, and no integer rescale fits the budget
        data = base_scenario_dict()
        data["lengths"]["l_t1"] = "4097/3"
        data["intervals"]["t12"] = data["intervals"]["r12"] = []
        assert main(["verify", write_json(tmp_path, data)]) == 7
        captured = capsys.readouterr()
        assert "dimension budget" in captured.err
        # refused before the caps, the corners or the seed table
        for line in ("caps:", "corners:", "seed  rank11"):
            assert line not in captured.out

    @pytest.mark.parametrize(
        "field",
        ["lengths.l_t1", "intervals.t11"],
    )
    def test_json_integer_over_4300_digits_is_3(self, tmp_path, field,
                                                capsys):
        data = base_scenario_dict()
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

    # the second exponent is past the range Decimal reads
    EXPANDING = ("1e-2000000", "1e99999999999999999999")

    def test_expanding_scenario_literal_is_3_within_a_second(self, tmp_path,
                                                             capsys):
        for literal in self.EXPANDING:
            data = base_scenario_dict()
            data["lengths"]["l_t1"] = literal
            start = time.perf_counter()
            code = main(["region", write_json(tmp_path, data)])
            assert time.perf_counter() - start < 1
            assert code == 3
            assert "lengths.l_t1" in capsys.readouterr().err

    def test_expanding_grid_literal_is_5_within_a_second(self, capsys):
        for literal in self.EXPANDING:
            start = time.perf_counter()
            code = main(["sweep", SYMMETRIC, "--grid", f"1/2,{literal}"])
            assert time.perf_counter() - start < 1
            assert code == 5
            assert capsys.readouterr().err == (
                "error: sweep base: bad --grid value: more than 300 digits\n"
            )

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

    def test_name_with_a_newline_is_3_before_any_output(self, tmp_path,
                                                        capsys):
        # the name would otherwise print a RESULT line of its own
        data = base_scenario_dict()
        data["name"] = "x\nRESULT: PASS"
        with pytest.raises(SchemaError, match="control character"):
            parse_scenario(data)
        path = write_json(tmp_path, data)
        assert main(["verify", path, "--auto-rescale", "--seeds", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "name" in err

    def test_names_are_refused_exactly_on_category_cc(self):
        # and on the rest of what str.splitlines breaks at, U+2028 and
        # U+2029, which a report's reader would split as a line break
        import unicodedata

        breaks = {chr(code) for code in range(0x110000)
                  if len(f"a{chr(code)}b".splitlines()) > 1}
        assert {"\u2028", "\u2029"} < breaks
        data = base_scenario_dict()
        for char in sorted(breaks | set(map(chr, range(0x200)))
                           | {"\u2027", "\u202a"}):
            data["name"] = f"a{char}b"
            if unicodedata.category(char) == "Cc" or char in breaks:
                with pytest.raises(SchemaError):
                    parse_scenario(data)
            else:
                assert parse_scenario(data).name == data["name"]

    def test_file_stem_with_a_control_character_is_3(self, tmp_path):
        data = base_scenario_dict()
        del data["name"]
        with pytest.raises(SchemaError, match="name"):
            load_scenario(write_json(tmp_path, data, "a\x1b[2Jb.json"))

    @pytest.mark.parametrize(
        "command, option",
        [("region", "--csv"), ("region", "--svg"), ("compare", "--svg"),
         ("sweep", "--csv"), ("sweep", "--svg")],
    )
    def test_output_path_that_is_a_directory_is_2(self, tmp_path, command,
                                                   option, capsys):
        assert main([command, SYMMETRIC, option, str(tmp_path)]) == 2
        assert "error: file" in capsys.readouterr().err

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
        # the symmetric scenario with 2000 intervals in t11, over 4000
        # distinct denominators of about 290 digits: scaling the endpoints
        # to integers over their lcm, as a set stores them, takes minutes,
        # so the budget must refuse before any set is built
        many = json.loads(Path(SYMMETRIC).read_text(encoding="utf-8"))
        many["intervals"]["t11"] = spread_intervals(
            [1 + i * 10**287 for i in range(1, 4001)], step=F(1, 1000)
        )
        for i, scenario in enumerate((data, many)):
            path = write_json(tmp_path, scenario, name=f"long{i}.json")
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

    def test_degenerate_hd_region_has_no_area_gain(self, tmp_path, capsys):
        data = base_scenario_dict()
        data["intervals"]["t11"] = []  # flow 1 has no dimensions
        assert main(["compare", write_json(tmp_path, data)]) == 0
        out = capsys.readouterr().out
        assert "area gain FD/HD: n/a (degenerate HD region)\n" in out

    def test_svg_is_written_and_reported(self, tmp_path, capsys):
        path = tmp_path / "compare.svg"
        assert main(["compare", SYMMETRIC, "--svg", str(path)]) == 0
        assert capsys.readouterr().out.endswith(f"wrote SVG: {path}\n")
        svg = path.read_text(encoding="utf-8")
        assert svg.count("<polygon") == 2
        assert ">half-duplex</text>" in svg and ">full-duplex</text>" in svg

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

def lowered_chunks(name, seed=None):
    """A stand-in for ``cli._chunks``: each chunk with the ``name`` matrix
    of every seed, or of ``seed`` only, given its smallest nonzero singular
    value zeroed."""
    chunks = cli._chunks

    def lowered(g, seeds):
        for stacks in chunks(g, seeds):
            mats = dict(zip(("s11", "s12", "s22"), stacks))
            stack = mats[name].copy()
            for i in range(len(stack)) if seed is None else [seed]:
                u, sv, vh = np.linalg.svd(stack[i], full_matrices=False)
                sv[numerical_rank(stack[i]) - 1] = 0.0
                stack[i] = (u * sv) @ vh
            mats[name] = stack
            yield tuple(mats.values())

    return lowered


class TestVerifyCommand:
    def test_symmetric_with_rescale_passes(self, capsys):
        code = main(["verify", SYMMETRIC, "--auto-rescale", "--seeds", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "auto-rescale: x2" in out
        assert "(4,2)" in out
        assert "corner/cap identity (exact rational): pass" in out
        # three rank columns, each its own decision, then the construction
        lines = out.splitlines()
        table = lines.index(
            "seed  rank11  rank12  rank22   zf(d1,d2)  leakage    status")
        rows = lines[table + 1:-1]
        assert [row.split()[:5] for row in rows] == [
            [str(seed), "ok", "ok", "ok", "(4,2)"] for seed in range(5)
        ]
        assert all(row.endswith(" pass") for row in rows)
        assert lines[-1] == "RESULT: PASS"

    def test_empty_backscatter_corner_is_the_rectangle(self, capsys):
        code = main(["verify", EMPTY_BACK, "--seeds", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(2,2)" in out

    def test_corrupted_support_fails_with_exit_1(self, monkeypatch, capsys):
        chunks = cli._chunks

        def corrupted(g, seeds):
            # each seed's matrices as a channel, corrupted, stacked again
            for stacks in chunks(g, seeds):
                bad = [corrupt_support(DiscretizedChannel(*mats, g), g)
                       for mats in zip(*stacks)]
                yield tuple(np.stack([getattr(ch, name) for ch in bad])
                            for name in ("s11", "s12", "s22"))

        monkeypatch.setattr(cli, "_chunks", corrupted)
        code = main(["verify", SYMMETRIC, "--auto-rescale", "--seeds", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("name", ["s11", "s12", "s22"])
    def test_each_rank_column_fails_alone(self, name, monkeypatch, capsys):
        """One matrix with its smallest nonzero singular value zeroed
        fails its own rank column and no other check column."""
        monkeypatch.setattr(cli, "_chunks", lowered_chunks(name))
        code = main(["verify", SYMMETRIC, "--auto-rescale", "--seeds", "3"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[-1] == "RESULT: FAIL"
        header = next(ln for ln in lines if ln.startswith("seed "))
        columns = header.split()[1:header.split().index("zf(d1,d2)")]
        rows = [ln.split() for ln in lines if re.match(r" +\d+  ", ln)]
        assert len(rows) == 3
        column = "rank" + name[1:]
        for row in rows:
            cells = dict(zip(columns, row[1:]))
            assert [c for c, v in cells.items() if v == "FAIL"] == [column]
            assert row[-1] == "FAIL"

    @pytest.mark.parametrize("name", ["s11", "s12", "s22"])
    def test_one_lowered_seed_in_a_chunk_fails_only_its_row(self, name,
                                                           monkeypatch,
                                                           capsys):
        """The chunk's seeds then disagree on d1 or on the kernel
        dimension, or on a rank only; every other row reads as before."""
        assert main(["verify", SYMMETRIC, "--auto-rescale"]) == 0
        before = capsys.readouterr().out.splitlines()
        monkeypatch.setattr(cli, "_chunks", lowered_chunks(name, seed=5))
        assert main(["verify", SYMMETRIC, "--auto-rescale"]) == 1
        after = capsys.readouterr().out.splitlines()
        changed = [(old, new) for old, new in zip(before, after) if old != new]
        assert len(before) == len(after)
        (old, new), (_, result) = changed
        assert old.split()[0] == new.split()[0] == "5"
        assert new.endswith(" FAIL") and result == "RESULT: FAIL"
        cells = dict(zip(["rank11", "rank12", "rank22"], new.split()[1:4]))
        assert [c for c, v in cells.items() if v == "FAIL"] == [
            "rank" + name[1:]]

    def test_near_threshold_seed_in_a_chunk_warns_as_alone(self, monkeypatch,
                                                           capsys):
        """Seed 5's s22 with its smallest singular value at twice the rank
        threshold, and its unsupported entries still exactly zero: one
        warning, in the text the per-channel rule gives, and every row as
        before.  (A near-threshold s11 would also tilt U1 and so the kernel
        decision, which then warns too.)"""
        assert main(["verify", SYMMETRIC, "--auto-rescale"]) == 0
        before = capsys.readouterr().out
        chunks = cli._chunks
        alone = []

        def near(g, seeds):
            for s11, s12, s22 in chunks(g, seeds):
                u, sv, vh = np.linalg.svd(s22[5], full_matrices=False)
                sv[-1] = 2 * DiscretizedChannel.rank_tol * sv[0]
                s22 = s22.copy()
                s22[5] = np.where(s22[5] != 0, (u * sv) @ vh, 0)
                with pytest.warns(RankToleranceWarning) as caught:
                    numerical_rank(s22[5])
                alone.extend(str(w.message) for w in caught)
                yield s11, s12, s22

        monkeypatch.setattr(cli, "_chunks", near)
        with pytest.warns(RankToleranceWarning) as caught:
            assert main(["verify", SYMMETRIC, "--auto-rescale"]) == 0
        assert capsys.readouterr().out == before
        assert len(alone) == 1
        assert [str(w.message) for w in caught] == alone
        assert alone[0].startswith("1 singular value(s) within a decade of "
                                   "the rank threshold ")
        assert {w.filename for w in caught} == {cli.__file__}

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize(
        "path", sorted(SCENARIOS.glob("*.json")), ids=lambda path: path.stem
    )
    def test_seed_table_equals_rows_from_reference_channels(
            self, path, chunk, monkeypatch, capsys):
        """Every seed row, leakage digits included, against the row the
        per-channel functions give on ``reference_channel``, drawn one
        matrix at a time; in one chunk of 20 seeds, and in chunks of 7."""
        if chunk:
            monkeypatch.setattr(oracle, "_chunk_seeds", lambda plan: chunk)
        assert main(["verify", str(path), "--auto-rescale"]) == 0
        lines = capsys.readouterr().out.splitlines()
        table = lines.index(
            "seed  rank11  rank12  rank22   zf(d1,d2)  leakage    status")
        g = integer_rescale(load_scenario(path).geometry)[0]
        p2 = cap_corners(fd_caps(g)).p_prime[1]
        applies = zf_case_applies(g)
        expected = []
        for seed in range(20):
            ch = reference_channel(g, seed)
            checks = verify_operator_dims(ch, g).checks
            zf = zero_forcing_corner(ch, g)
            reached = zf.d2 == p2 if applies else zf.d2 <= p2
            ok = all(c.ok for c in checks) and reached and (
                zf.max_leakage <= oracle.LEAKAGE_TOL)
            cells = " ".join(f"{'ok' if c.ok else 'FAIL':<7}" for c in checks)
            expected.append(
                f"{seed:>4}  {cells}  {f'({zf.d1},{zf.d2})':<10} "
                f"{zf.max_leakage:.2e}   {'pass' if ok else 'FAIL'}")
        assert lines[table + 1:-1] == expected

    @pytest.mark.parametrize(
        "path", sorted(SCENARIOS.glob("*.json")), ids=lambda path: path.stem
    )
    @pytest.mark.filterwarnings("error")
    def test_readme_example_passes(self, path, capsys):
        # at the shipped defaults, with every warning an error: a rank
        # decision within a decade of its threshold fails here
        assert main(["verify", str(path), "--auto-rescale"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("seeds:")] == [
            "seeds: 20   rank_tol: 1e-09"
        ]
        assert lines[-1] == "RESULT: PASS"

    @pytest.mark.parametrize(
        "path", sorted(SCENARIOS.glob("*.json")), ids=lambda path: path.stem
    )
    def test_readme_example_passes_in_a_fresh_process(self, path):
        # -W error from interpreter start: a warning raised while numpy or
        # mpmath is first imported fails here, where the test above, in a
        # process that has imported both already, cannot see it
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fddof.cli", "verify",
             str(path), "--auto-rescale"],
            capture_output=True, text=True, env=fresh_env(), timeout=120,
        )
        assert done.returncode == 0
        assert done.stdout.splitlines()[-1] == "RESULT: PASS"
        assert done.stderr == ""

    def test_fully_spread_outside_case_conditions_still_passes(self, capsys):
        code = main(["verify", FULLY_SPREAD, "--seeds", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "outside the construction's case conditions" in out


# -- run settings: the seed count and the fixed rank threshold ------------------

class TestRunSettings:
    @staticmethod
    def run_verify(capsys, options=()):
        """verify on the empty-backscatter scenario; returns the settings
        line and the seed rows."""
        assert main(["verify", EMPTY_BACK, *options]) == 0
        out = capsys.readouterr().out
        settings = [line for line in out.splitlines()
                    if line.startswith("seeds:")]
        return settings, re.findall(r"^ +\d+  ok ", out, re.M)

    def test_seeds_flag_is_printed_and_used(self, capsys):
        settings, rows = self.run_verify(capsys, ["--seeds", "2"])
        assert settings == ["seeds: 2   rank_tol: 1e-09"]
        assert len(rows) == 2

    def test_defaults_without_an_oracle_block(self, capsys):
        settings, rows = self.run_verify(capsys)
        assert settings == ["seeds: 20   rank_tol: 1e-09"]
        assert len(rows) == 20

    def test_a_scenario_is_a_name_and_a_geometry(self):
        assert [f.name for f in fields(Scenario)] == ["name", "geometry"]

    def test_fraction_values_parse_as_their_strings(self):
        text = base_scenario_dict()
        exact = base_scenario_dict()
        exact["lengths"] = {key: F(value) for key, value
                            in text["lengths"].items()}
        exact["intervals"] = {
            key: [[F(lo), F(hi)] for lo, hi in pairs]
            for key, pairs in text["intervals"].items()
        }
        assert parse_scenario(exact) == parse_scenario(text)


# -- console entry point ------------------------------------------------------------

def test_module_entry_point_runs_main(capsys):
    """``python -m fddof.cli`` goes through ``cli.run``, the function the
    ``fddof`` console script calls."""
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fddof.cli", *argv],
            capture_output=True, text=True, env=fresh_env(), timeout=60,
        )

    done = run("region", EMPTY_BACK)
    assert main(["region", EMPTY_BACK]) == 0
    assert (done.returncode, done.stdout, done.stderr) == (
        0, capsys.readouterr().out, ""
    )
    missing = run("region", "/nonexistent/scenario.json")
    assert (missing.returncode, missing.stderr) == (
        2, "error: file not found: /nonexistent/scenario.json\n"
    )


def test_entry_point_escapes_what_the_terminal_cannot_encode(tmp_path):
    """On an ASCII terminal, ``cli.run`` prints a non-ASCII scenario name
    with backslash escapes instead of dying with a traceback."""
    data = base_scenario_dict()
    data["name"] = "na\u00efve-\u540d"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "fddof.cli", "region", str(path)],
        capture_output=True, env=fresh_env(PYTHONIOENCODING="ascii"),
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.startswith(b"scenario: na\\xefve-\\u540d\n")


# -- helpers ------------------------------------------------------------------------

def test_fd_region_matches_cli_reassembly():
    assert fd_caps(make_fully_spread(2, 1)) == (4, 4, 8)
    region = fd_region(make_fully_spread(2, 1))
    assert region.vertices == ((0, 0), (4, 0), (4, 4), (0, 4))


@pytest.mark.parametrize(
    "cap,ticks", [(11, list(range(1, 12))), (20, list(range(2, 21, 2)))]
)
def test_svg_tick_step_doubles_past_a_span_of_12(cap, ticks):
    from fddof.svgplot import render_regions

    # the span is 1.08 times the largest cap: 11.88, then 21.6
    text = render_regions([("r", cap_region(cap, cap, 2 * cap))])
    labels = re.findall(r'font-size="11" text-anchor="\w+">(\d+)</text>', text)
    assert labels == [str(t) for t in ticks for _ in range(2)]


def test_svg_renders_degenerate_regions_as_polylines():
    from fddof.svgplot import render_regions

    segment = cap_region(2, 0, 2)
    text = render_regions([("uplink only", segment)])
    assert "<polyline" in text
    assert "uplink only" in text
