"""Every function the benchmark's tracer wraps must exist in the package:
`perfbench/run.py --trace 1` stops with a KeyError on a missing name.

The tracer source is read and executed here, never imported, so the test
writes nothing under perfbench/.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return [pytest.param(module, path, id=name) for name, module, path, _ in namespace["TARGETS"]]


@pytest.mark.parametrize("module, path", _targets())
def test_tracer_target_resolves(module, path):
    # the lookup `Tracer.install` makes
    owner = importlib.import_module(f"invsemi.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert attr in owner.__dict__
