"""Smoke tests: scripts/run_verification.py runs in process on a tiny
input."""

import importlib.util
import sys
from pathlib import Path

from nilflow import suites

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_verification_module():
    spec = importlib.util.spec_from_file_location(
        "run_verification", SCRIPTS / "run_verification.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_run_verification_script(monkeypatch, capsys):
    # run_verification.py has no size option and runs every suite, so it is
    # run in-process with the suite list of run_suite("all", seed) cut to
    # the cheap algebra suite; the default seed 42 is the sweep of that one
    # seed
    mod = _run_verification_module()
    monkeypatch.setattr(suites, "SUITE_NAMES", ("algebra",))
    monkeypatch.setattr(sys, "argv", ["run_verification.py"])
    assert mod.main() == 0
    out = capsys.readouterr().out
    assert "seed 42: pass" in out
    assert "overall: pass  seeds: 1  failing checks: 0" in out


def test_run_verification_sweeps_a_seed_range(monkeypatch, capsys):
    # every suite at seed 16, whose family-dimension target has V almost
    # orthogonal to Y_c
    mod = _run_verification_module()
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--seed", "16:17"])
    assert mod.main() == 0
    out = capsys.readouterr().out
    assert "seed 16: pass" in out and "FAIL" not in out
    assert "periodicity.density_construction: " in out
    assert "overall: pass  seeds: 1  failing checks: 0" in out
