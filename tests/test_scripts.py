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


# stdout of the scripts at seed 3; each draws all its states in one
# sampler call, which consumes the RNG stream as one call per state would
PINNED_STDOUT = {
    ("integral_scan.py", "--seed", "3", "--n", "50"): (
        'states: 50   t = 10.0\n'
        'max conservation drift: 2.842e-14\n'
        'max pairwise Poisson bracket: 8.527e-08\n'
        'independence ranks: {8: 50}\n'
    ),
    ("closed_geodesic_demo.py", "--seed", "3", "--n", "3"): (
        '== M ==\n'
        '  |c|=21/8  c_k/|c|=-54071/122347  m=4790012290880  tau/pi=9376698140036725760/21  distance=0.0038\n'
        '  |c|=9/5  c_k/|c|=52257/119969  m=7196280480500  tau/pi=8633305729651045000/9  distance=0.0117\n'
        '  |c|=2  c_k/|c|=-344711/434041  m=1883915896810  tau/pi=817696739767309210  distance=0.0107\n'
        '== Mprime ==\n'
        '  |c|=17/8  c_k/|c|=637511/687681  m=25221608413920  tau/pi=277510734331086712320/17  distance=0.0040\n'
        '  |c|=19/10  c_k/|c|=1602167/1946281  m=1515203892384400  tau/pi=58980250937476048328000/19  distance=0.0093\n'
        '  |c|=43/20  c_k/|c|=-47668/111533  m=49758440356000  tau/pi=221988325129029920000/43  distance=0.0049\n'
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=lambda a: a[0])
def test_script_stdout_is_pinned(argv):
    res = _run(*argv)
    assert res.returncode == 0, res.stderr
    assert res.stdout == PINNED_STDOUT[argv]


def _run_verification_module():
    spec = importlib.util.spec_from_file_location(
        "run_verification", SCRIPTS / "run_verification.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_run_verification_script(tmp_path, monkeypatch, capsys):
    # run_verification.py has no size option and runs every suite, so it is
    # run in-process with its suite list cut to the cheap algebra suite
    mod = _run_verification_module()
    monkeypatch.setattr(mod, "SUITE_NAMES", ("algebra",))
    out = tmp_path / "r.json"
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--out", str(out)])
    assert mod.main() == 0
    assert "overall: pass" in capsys.readouterr().out
    assert out.is_file()


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
