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


# stdout of the scripts when each drew its states one sampler call per
# state; the batched draws consume the same RNG stream, so it is unchanged
PINNED_STDOUT = {
    ("integral_scan.py", "--seed", "3", "--n", "50"): (
        'states: 50   t = 10.0\n'
        'max conservation drift: 2.842e-14\n'
        'max pairwise Poisson bracket: 7.283e-08\n'
        'independence ranks: {8: 50}\n'
    ),
    ("closed_geodesic_demo.py", "--seed", "3", "--n", "3"): (
        '== M ==\n'
        '  |c|=21/8  c_k/|c|=-54071/122347  m=4790012290880  tau/pi=9376698140036725760/21  distance=0.0038\n'
        '  |c|=17/10  c_k/|c|=72/361  m=260642000  tau/pi=1881835240000/17  distance=0.0063\n'
        '  |c|=39/20  c_k/|c|=2113/28105  m=789891025000  tau/pi=887995490305000000/39  distance=0.0092\n'
        '== Mprime ==\n'
        '  |c|=79/40  c_k/|c|=-1949911/2430889  m=9454754128513600  tau/pi=1838676624696663727232000/79  distance=0.0071\n'
        '  |c|=31/20  c_k/|c|=156183/234545  m=110022714050000  tau/pi=1032211098674290000000/31  distance=0.0031\n'
        '  |c|=11/5  c_k/|c|=1096959/1411841  m=398659001856200  tau/pi=5628431238396592642000/11  distance=0.0019\n'
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
