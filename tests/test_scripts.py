"""Smoke tests: every script under scripts/ runs on a tiny input."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("name", ["closed_geodesic_demo.py", "integral_scan.py"])
def test_script_runs(name):
    res = _run(name, "--n", "1", "--seed", "3")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()


def test_run_verification_script(tmp_path, monkeypatch, capsys):
    # run_verification.py has no size option and runs every suite, so it is
    # run in-process with its suite list cut to the cheap algebra suite
    spec = importlib.util.spec_from_file_location(
        "run_verification", SCRIPTS / "run_verification.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "SUITE_NAMES", ("algebra",))
    out = tmp_path / "r.json"
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--out", str(out)])
    assert mod.main() == 0
    assert "overall: pass" in capsys.readouterr().out
    assert out.is_file()
