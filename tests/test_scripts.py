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
        '  |c|=97/37  c_k/|c|=-54071/122347  m=3483686126426570  tau/pi=31540172441733455424460/97  distance=0.0025\n'
        '  |c|=29/17  c_k/|c|=72/361  m=50891262747  tau/pi=624639358956678/29  distance=0.0010\n'
        '  |c|=33/17  c_k/|c|=2113/28105  m=5810725613000  tau/pi=504777734001310000/3  distance=0.0014\n'
        '== Mprime ==\n'
        '  |c|=79/40  c_k/|c|=-1949911/2430889  m=22856986290108234420  tau/pi=4445023723661993268879950400/79  distance=0.0071\n'
        '  |c|=45/29  c_k/|c|=156183/234545  m=610692076605930  tau/pi=553841122682479693820/3  distance=0.0026\n'
        '  |c|=11/5  c_k/|c|=1096959/1411841  m=6637672380905730  tau/pi=93713380119303267489300/11  distance=0.0019\n'
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=lambda a: a[0])
def test_script_stdout_is_pinned(argv):
    res = _run(*argv)
    assert res.returncode == 0, res.stderr
    assert res.stdout == PINNED_STDOUT[argv]


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
