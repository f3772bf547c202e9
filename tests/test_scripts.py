"""The research scripts and the README report digests, run end to end as
subprocesses."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, line", [
    (["closure_sweep.py", "--count", "3", "--seed", "1"], "3/3 families agree"),
    (["chain_report.py", "five-ring"], "[oracle agrees]"),
    (["chain_report.py"], "== two-point-overlap (2 blocks) [oracle agrees]"),
    (["report_digests.py"], " invsemi verify pettis-witness "),
], ids=["closure_sweep", "chain_report", "chain_report_catalog", "report_digests"])
def test_research_script_runs(argv, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert line in out.stdout
    if argv[0] == "report_digests.py":
        # one line per README command, and its two passes agree
        assert len(out.stdout.splitlines()) == 15
        assert "second pass differs" not in out.stderr
    if argv == ["chain_report.py"]:
        # the whole catalog, byte for byte: every matrix and every route
        assert len(out.stdout.splitlines()) == 73
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == (
            "687bd7362992e744a8eaf084941730c5fbf97648e769ff03b03a27325c33705f")
