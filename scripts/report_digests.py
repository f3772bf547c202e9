#!/usr/bin/env python3
"""Run every `invsemi ...` command line of README.md in-process and print,
for each, the exit code, the SHA-256 of its JSON report with the `meta`
block dropped, and the command.

The commands run inside a temporary directory, so files they write
(`--csv`, `--out`) land there and are removed afterwards.  Everything
outside `meta` is byte-stable for a fixed seed, so diffing the output of
two checkouts shows whether a change keeps every README report:

    PYTHONPATH=src python3 scripts/report_digests.py > after.txt

A command that prints no report (a usage error) gets `-` as its digest.

The list runs twice in the same process, each pass in its own temporary
directory, and the script exits 1 when a line differs between the two
passes: state kept across calls (the CLI parser, the rule blocks, the
descriptor period memo) must not change a report.  Only the first pass
is printed.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from invsemi import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands(text: str) -> list[str]:
    """The indented code lines that call the `invsemi` entry point."""
    return [
        line.strip()
        for line in text.splitlines()
        if line.startswith("    ") and line.strip().startswith("invsemi ")
    ]


def report_digest(stdout: str) -> str:
    """SHA-256 of the report document without `meta`; the document is the
    indented JSON object that follows the one-line summary."""
    start = re.search(r"^\{$", stdout, re.MULTILINE)
    if start is None:
        return "-"
    doc = json.loads(stdout[start.start():])
    doc.pop("meta", None)
    canon = json.dumps(doc, sort_keys=True, indent=2)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def digest_pass(commands: list[str]) -> list[str]:
    """One line per command, run in a fresh temporary directory."""
    lines = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for command in commands:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(shlex.split(command)[1:])
                lines.append(f"{code} {report_digest(out.getvalue())} {command}")
        finally:
            os.chdir(home)
    return lines


def main() -> int:
    commands = readme_commands(README.read_text(encoding="utf-8"))
    first = digest_pass(commands)
    second = digest_pass(commands)
    print("\n".join(first))
    drift = [(a, b) for a, b in zip(first, second) if a != b]
    for a, b in drift:
        print(f"second pass differs:\n  {a}\n  {b}", file=sys.stderr)
    return 1 if drift else 0


if __name__ == "__main__":
    raise SystemExit(main())
