"""Capture the golden outputs the cli workload compares against.

    python3 benchmarks/capture_goldens.py

Writes benchmarks/golden/ from the current sources: for region, compare and
sweep on every checked-in scenario, the stdout, CSV and SVG bytes and the
exit code; for verify, only the exit code and the RESULT line, because its
text is expected to change; for the fresh-process cold-start command, the
stdout and exit code.  Re-capture only when a change is meant to alter
these outputs, and say so in that change.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fddof import cli  # noqa: E402

import inputs  # noqa: E402
from workloads import GOLDEN_DIR, result_line  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for old in GOLDEN_DIR.iterdir():
        old.unlink()
    work = Path(inputs.WORK_DIR)
    work.mkdir(parents=True, exist_ok=True)

    manifest = {}
    for case_id, command, _, argv in inputs.cli_mix():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        entry = {"exit": code}
        if command == "verify":
            entry["result"] = result_line(out.getvalue())
        else:
            (GOLDEN_DIR / f"{case_id}.stdout").write_bytes(out.getvalue().encode())
        for ext in ("csv", "svg"):
            produced = work / f"{case_id}.{ext}"
            if produced.exists():
                (GOLDEN_DIR / f"{case_id}.{ext}").write_bytes(produced.read_bytes())
                produced.unlink()
        manifest[case_id] = entry

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for stem in inputs.SCENARIOS:
        argv = ["region", inputs.scenario_path(stem)]
        proc = subprocess.run(
            [sys.executable, "-m", "fddof.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, check=False,
        )
        (GOLDEN_DIR / f"coldstart-{stem}.stdout").write_bytes(proc.stdout)
        manifest[f"coldstart-{stem}"] = {"argv": argv, "exit": proc.returncode}

    (GOLDEN_DIR / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    )
    for case_id, entry in sorted(manifest.items()):
        print(f"{case_id:<36} exit {entry['exit']}  {entry.get('result', '')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
