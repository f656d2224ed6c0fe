"""The pins under numpy's AVX2 loops.

The pins are sha256 hashes of outputs that print floats to 17 digits, so
they pin the bits of numpy's SIMD loops too.  On a host with AVX-512 a
child process with NPY_DISABLE_CPU_FEATURES set takes the AVX2 loops that
a host without AVX-512 takes, and recomputes every pin there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

from nilflow.cli import EXIT_PASS
from test_acceptance import (
    BODY_SHA256_SEED_7,
    BODY_SHA256_SEED_42,
    BODY_SHA256_SEED_90210,
)
from test_cli import CLI_SHA256, CRITERIA_SHA256
from test_criteria import CIH_SHA256

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DISABLED = "X86_V4 AVX512_SPR AVX512_ICL"

# prints, as JSON, whether numpy's AVX-512 loops are on and the hash of
# each pinned output, computed as the pinning tests compute it
CHILD = """
import contextlib, hashlib, io, json, sys
sys.path[:0] = sys.argv[1:]
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from nilflow.catalog import get_manifold
from nilflow.cli import main
from nilflow.criteria import cih_certificate
from nilflow.suites import run_suite
from test_cli import CRITERIA_SHA256, PINNED_REQUESTS
from test_criteria import CIH_SHA256

sha = lambda text: hashlib.sha256(text.encode()).hexdigest()

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()

def criteria(name, seed):
    code, out = run(["criteria", "--manifold", name, "--seed", str(seed)])
    return [code, sha(json.dumps(json.loads(out)["body"], indent=2))]

def cih(name, bound):
    rng = np.random.Generator(np.random.Philox(0))
    cert = cih_certificate(get_manifold(name), bound, rng)
    return sha(json.dumps(cert.to_dict(), indent=2))

print(json.dumps({
    "AVX512_SKX": __cpu_features__["AVX512_SKX"],
    "bodies": {seed: sha(run_suite("all", seed).body_text())
               for seed in (42, 7, 90210)},
    "cli": {rid: [code, sha(out)] for rid, argv in PINNED_REQUESTS.items()
            for code, out in [run(argv)]},
    "criteria": {f"{name}@{seed}": criteria(name, seed)
                 for name, seed in CRITERIA_SHA256},
    "cih": {f"{name}@{bound}": cih(name, bound) for name, bound in CIH_SHA256},
}))
"""


@pytest.fixture(scope="module")
def avx2_hashes():
    if not __cpu_features__.get("AVX512_SKX"):
        pytest.skip("numpy runs no AVX-512 loops on this host, so the other "
                    "pinning tests already run its AVX2 loops")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
    run = subprocess.run([sys.executable, "-c", CHILD, str(SRC), str(TESTS)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    if got["AVX512_SKX"]:
        pytest.skip(f"NPY_DISABLE_CPU_FEATURES={DISABLED!r} left numpy's "
                    "AVX-512 loops on")
    return got


@pytest.mark.parametrize("seed, want", [
    (42, BODY_SHA256_SEED_42),
    (7, BODY_SHA256_SEED_7),
    # ROADMAP item 30: np.exp's AVX2 loop rounds differently from its
    # AVX-512 loop, and the FD stencil of gradient_forms_agree lifts that
    # last bit into the printed digits (fb170d49... here)
    pytest.param(90210, BODY_SHA256_SEED_90210, marks=pytest.mark.xfail(
        strict=True, reason="item 30: gradient_forms_agree moves under "
                            "the AVX2 loops")),
], ids=["42", "7", "90210"])
def test_report_body_pins_hold_under_avx2_loops(avx2_hashes, seed, want):
    assert avx2_hashes["bodies"][str(seed)] == want


def test_cli_pins_hold_under_avx2_loops(avx2_hashes):
    assert avx2_hashes["cli"] == {rid: [EXIT_PASS, h]
                                  for rid, h in CLI_SHA256.items()}


def test_criteria_pins_hold_under_avx2_loops(avx2_hashes):
    assert avx2_hashes["criteria"] == {
        f"{name}@{seed}": list(pin)
        for (name, seed), pin in CRITERIA_SHA256.items()}


def test_cih_pins_hold_under_avx2_loops(avx2_hashes):
    assert avx2_hashes["cih"] == {
        f"{name}@{bound}": h for (name, bound), h in CIH_SHA256.items()}
