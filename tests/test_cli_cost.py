"""What the exact subcommands cost: the modules they load and the link
products they compute.

``region``, ``compare`` and ``sweep`` never touch a matrix, so on the
checked-in scenarios (all on the exact-cosine grid of angles) they load
neither numpy nor mpmath; ``verify`` loads numpy on its first oracle call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fddof import cli, regions

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PATHS = [str(path) for path in sorted(SCENARIOS.glob("*.json"))]
LIGHT = [(command, path) for command in ("region", "compare", "sweep")
         for path in PATHS]
VERIFY = ["verify", str(SCENARIOS / "empty_backscatter.json"), "--seeds", "2"]

# Runs in a fresh interpreter: pytest's filterwarnings setting imports
# fddof.oracle into the test process, and the tests load numpy anyway.
PROBE = r"""
import contextlib, io, json, sys

HEAVY = ("numpy", "mpmath")

def loaded():
    return [name for name in HEAVY if name in sys.modules]

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
verify = run(json.loads(sys.argv[2]))
print(json.dumps({
    "after_import": after_import,
    "light": light,
    "after_light": after_light,
    "verify": verify,
    "after_verify": loaded(),
    "cos45": str(fddof.cos_degrees(45)),
    "after_cos45": loaded(),
}))
"""


@pytest.fixture(scope="module")
def fresh():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE,
         json.dumps([list(case) for case in LIGHT]), json.dumps(VERIFY)],
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


def test_off_grid_cosine_loads_mpmath_on_first_use(fresh):
    assert fresh["cos45"] == "707106781187/1000000000000"
    assert fresh["after_cos45"] == ["numpy", "mpmath"]


@pytest.mark.parametrize("command,calls", [
    # the parse-time denominator bound, fd_caps, corner_points
    ("region", 3),
    # the parse-time bound and one fd_caps for both polygons
    ("compare", 2),
    # the parse-time bound, one fd_caps per grid value (five by default)
    # and the half-duplex region of the base
    ("sweep", 7),
])
def test_link_products_once_per_geometry(monkeypatch, capsys, command, calls):
    original = regions.link_products
    count = 0

    def counted(g):
        nonlocal count
        count += 1
        return original(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("fddof") and getattr(
            module, "link_products", None
        ) is original:
            monkeypatch.setattr(module, "link_products", counted)
    path = str(SCENARIOS / "symmetric_overlap_075.json")
    assert cli.main([command, path]) == 0
    capsys.readouterr()
    assert count == calls
