"""The CLI's bytes against the benchmark's goldens, judged by the
benchmark's own checker.

There is one case per golden in ``benchmarks/golden``: each subcommand on
each checked-in scenario from ``inputs.cli_mix()``, and the cold-start
``region`` runs that ``manifest.json`` records.  ``workloads.Cli.check``
compares the exit code, the stdout (only its ``RESULT`` line for
``verify``), the CSV and the SVG exactly as the benchmark compares them.
The argv and the output paths the stdout echoes are relative, so each case
runs in-process from ``tmp_path``, with ``scenarios/`` linked in.

region, compare and sweep need no numpy, so this module also runs before
it is installed:

    pytest tests/test_goldens.py -k "not verify"
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "benchmarks"))

import inputs  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_DIR, Cli, CliCase, NoTrace, Tally, load_goldens,
)


def golden_cases() -> list[CliCase]:
    cases = [CliCase(*case) for case in inputs.cli_mix()]
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
    for case_id, entry in sorted(manifest.items()):
        if "argv" in entry:
            argv = entry["argv"]
            cases.append(CliCase(case_id, argv[0], Path(argv[1]).stem, argv))
    return cases


CASES = golden_cases()


def test_every_golden_has_one_case():
    ids = [case.id for case in CASES]
    assert sorted(ids) == sorted(load_goldens(GOLDEN_DIR))


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_golden(case, tmp_path, monkeypatch):
    (tmp_path / "scenarios").symlink_to(ROOT / "scenarios")
    monkeypatch.chdir(tmp_path)
    wl, tally = Cli(0), Tally()
    wl.check(case, wl.op(case, NoTrace), tally)
    assert tally.total_attempted > 0
    assert not tally.failed, (
        f"{case.id}: failed checks {dict(tally.failed)} "
        f"of {dict(tally.attempted)}"
    )
