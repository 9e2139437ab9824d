"""The benchmark probe wraps package functions by name; they must exist."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def test_every_probed_name_is_a_package_function(monkeypatch):
    # a traced benchmark run calls getattr on each of these names, so a
    # renamed or deleted function breaks it before any timing happens
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only load
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    names = probe.TRACED + probe.PROBED + (probe.COMMAND,)
    for name in names:
        layer, attr = name.split(".")
        module = importlib.import_module(f"extrout.{layer}")
        assert callable(getattr(module, attr, None)), name
