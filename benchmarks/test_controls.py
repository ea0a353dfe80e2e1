"""Controls for the benchmark's checkers: they pass on correct outputs and
count failures when the outputs are wrong.

    python3 -m pytest benchmarks -q
"""

import shutil

import pytest

from fddof import corrupt_support, sample_channel

from inputs import cli_mix
from workloads import GOLDEN_DIR, Cli, NoTrace, OracleSmall, Tally, run_ops

ROOT = GOLDEN_DIR.parent.parent


@pytest.fixture(autouse=True)
def _at_checkout_root(monkeypatch):
    # scenario and output paths in the cli mix are relative to the root
    monkeypatch.chdir(ROOT)


def _fail_ratio(wl, ops):
    tally = Tally()
    run_ops(wl, wl.items[:ops], NoTrace, tally)
    assert tally.total_attempted > 0
    return tally.fail_ratio


def test_oracle_checker_passes_sampled_channels():
    assert _fail_ratio(OracleSmall(1), 200) == 0


def test_oracle_checker_counts_corrupted_channels():
    wl = OracleSmall(1)
    wl.sample = lambda g, seed: corrupt_support(sample_channel(g, seed), g)
    assert _fail_ratio(wl, 200) > 0


def test_cli_checker_passes_goldens():
    assert _fail_ratio(Cli(1), len(cli_mix())) == 0


@pytest.mark.parametrize("victim", [
    "region-symmetric_overlap_075.svg",
    "sweep-symmetric_overlap_075.csv",
    "compare-fully_spread_bs2_usr1.stdout",
])
def test_cli_checker_counts_a_perturbed_golden(tmp_path, victim):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, golden)
    path = golden / victim
    original = path.read_bytes()
    path.write_bytes(original.replace(b"2", b"3", 1))
    assert path.read_bytes() != original
    assert _fail_ratio(Cli(1, golden_dir=golden), len(cli_mix())) > 0
