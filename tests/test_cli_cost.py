"""What the exact subcommands cost: the modules they load and the link
products they compute (cache misses, not calls).

``region``, ``compare`` and ``sweep`` never touch a matrix, so they load no
module outside the standard library and the package, also on a scenario
whose angles are off the exact-cosine grid; ``verify`` loads numpy on its
first oracle call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fddof import cli, oracle, regions

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "benchmarks" / "golden"
SYMMETRIC = str(SCENARIOS / "symmetric_overlap_075.json")
PATHS = [str(path) for path in sorted(SCENARIOS.glob("*.json"))]
LIGHT = [(command, path) for command in ("region", "compare", "sweep")
         for path in PATHS]
VERIFY = ["verify", str(SCENARIOS / "empty_backscatter.json"), "--seeds", "2"]
# a symmetric sweep base whose every angle but 90 is off the grid
OFF_GRID = {
    "name": "off-grid",
    "lengths": {"l_t1": "1", "l_r1": "1", "l_t2": "1", "l_r2": "1"},
    "intervals": {
        **{name: {"angles_deg": [["45", "90"]]}
           for name in ("t11", "r11", "t22", "r22")},
        **{name: {"angles_deg": [["22.5", "100"]]} for name in ("t12", "r12")},
    },
}

# Runs in a fresh interpreter: pytest's filterwarnings setting imports
# fddof.oracle into the test process, and the tests load numpy anyway.
PROBE = r"""
import contextlib, io, json, sys

sys.modules["mpmath"] = None  # so that any import of it fails
before = set(sys.modules)
HEAVY = ("numpy",)

def loaded():
    return [name for name in HEAVY if name in sys.modules]

def third_party():
    tops = {name.partition(".")[0] for name in set(sys.modules) - before}
    return sorted(tops - set(sys.stdlib_module_names) - {"fddof"})

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]

import fddof
after_import = loaded()
from fddof import cli
light = {" ".join(argv): run(argv) for argv in json.loads(sys.argv[1])}
after_light = loaded()
cos45 = str(fddof.cos_degrees(45))
off_grid = {" ".join(argv): run(argv) for argv in json.loads(sys.argv[3])}
outside = third_party()
verify = run(json.loads(sys.argv[2]))
print(json.dumps({
    "after_import": after_import,
    "light": light,
    "after_light": after_light,
    "cos45": cos45,
    "off_grid": off_grid,
    "third_party": outside,
    "verify": verify,
    "after_verify": loaded(),
}))
"""


@pytest.fixture(scope="module")
def off_grid(tmp_path_factory):
    path = tmp_path_factory.mktemp("off_grid") / "off_grid.json"
    path.write_text(json.dumps(OFF_GRID), encoding="utf-8")
    return [["region", str(path)], ["compare", str(path)],
            ["sweep", str(path), "--grid", "0,1/4,1/2"]]


@pytest.fixture(scope="module")
def fresh(off_grid):
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE,
         json.dumps([list(case) for case in LIGHT]), json.dumps(VERIFY),
         json.dumps(off_grid)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_package_loads_neither(fresh):
    assert fresh["after_import"] == []


def test_exact_subcommands_load_neither(fresh):
    assert fresh["after_light"] == []


@pytest.mark.parametrize("command,path", LIGHT,
                         ids=[f"{c}-{Path(p).stem}" for c, p in LIGHT])
def test_fresh_output_equals_in_process_output(fresh, command, path, capsys):
    code = cli.main([command, path])
    out, err = capsys.readouterr()
    # sweep refuses the three scenarios without a symmetric base (exit 5)
    assert fresh["light"][f"{command} {path}"] == [code, out, err]


def test_verify_loads_numpy_on_first_use_and_passes(fresh):
    code, out, _ = fresh["verify"]
    assert code == 0
    assert out.splitlines()[-1] == "RESULT: PASS"
    assert fresh["after_verify"] == ["numpy"]


def test_off_grid_angles_load_no_third_party_module(fresh, off_grid, capsys):
    # mpmath blocked, every module loaded from the probe's start to here is
    # in the standard library or the package
    assert fresh["cos45"] == "707106781187/1000000000000"
    assert fresh["third_party"] == []
    for argv in off_grid:
        code, out, err = fresh["off_grid"][" ".join(argv)]
        assert code == 0 and err == ""
        assert [code, out, err] == [cli.main(argv), *capsys.readouterr()]


@pytest.mark.parametrize("command,computed,capped", [
    # fd_caps; corner_points, fd_region and is_rectangular read its cached
    # products, and all but corner_points its cached caps
    pytest.param("region", 1, 1, id="region-1"),
    # likewise, for both polygons
    pytest.param("compare", 1, 1, id="compare-1"),
    # the parsed geometry and one per grid value (five by default); the
    # half-duplex base equals the parsed geometry, whose products and caps
    # only the half-duplex polygon reads
    pytest.param("sweep", 6, 6, id="sweep-6"),
])
def test_link_products_once_per_geometry(capsys, command, computed, capped):
    regions.link_products.cache_clear()
    regions._caps.cache_clear()
    path = str(SCENARIOS / "symmetric_overlap_075.json")
    assert cli.main([command, path]) == 0
    capsys.readouterr()
    assert regions.link_products.cache_info().misses == computed
    assert regions._caps.cache_info().misses == capped


def test_verify_allocates_once_for_all_seeds(monkeypatch, capsys):
    calls = 0
    original = oracle.allocate_basis

    def counted(g):
        nonlocal calls
        calls += 1
        return original(g)

    monkeypatch.setattr(oracle, "allocate_basis", counted)
    regions.link_products.cache_clear()
    oracle._plan.cache_clear()
    path = str(SCENARIOS / "symmetric_overlap_075.json")
    argv = ["verify", path, "--auto-rescale", "--seeds", "20"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "RESULT: PASS"
    assert calls == 1
    assert oracle._plan.cache_info().misses == 1
    # link products of the rescaled geometry only (the parser bounds the
    # parsed one's denominators without them); the dimension budget, the
    # caps, the corners, the case test and every seed's checks read them
    assert regions.link_products.cache_info().misses == 1


def test_one_parser_serves_every_call(monkeypatch, capsys):
    builds = 0
    original = cli.build_parser

    def counted():
        nonlocal builds
        builds += 1
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv in (["region", SYMMETRIC], ["compare", SYMMETRIC],
                 ["sweep", SYMMETRIC], ["region", PATHS[0]],
                 ["verify", SYMMETRIC, "--auto-rescale", "--seeds", "1"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert builds == 1


def test_a_usage_error_leaves_the_parser_as_it_was(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", SYMMETRIC, "--seeds", "0"])
    assert info.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert cli.main(["region", SYMMETRIC]) == 0
    golden = GOLDEN / "coldstart-symmetric_overlap_075.stdout"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_help_exits_0_and_the_next_call_parses(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    assert "usage: fddof" in capsys.readouterr().out
    assert cli.main(["compare", SYMMETRIC]) == 0
    assert capsys.readouterr().out.startswith("scenario: ")


def test_an_equal_geometry_again_hits_every_cache(capsys):
    # the second call parses fresh geometries equal to the first call's,
    # field by field, so every lookup by them finds the first call's entry
    argv = ["verify", SYMMETRIC, "--auto-rescale", "--seeds", "20"]
    assert cli.main(argv) == 0
    caches = (regions.link_products, regions._caps, oracle._plan)
    misses = [cache.cache_info().misses for cache in caches]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "RESULT: PASS"
    assert [cache.cache_info().misses for cache in caches] == misses
