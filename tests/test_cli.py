"""CLI contract: exit codes, wire format, determinism."""

import ast
import contextlib
import hashlib
import inspect
import io
import json
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow.catalog import build_pair
from nilflow import catalog, cli, suites
from nilflow.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CONSTRUCTION,
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_PASS,
    EXIT_USAGE,
    MAX_CIH_BOUND,
    format_state,
    main,
    parse_state,
)
from nilflow.flow import sample_generic_state
from test_faults import _m_plus_one

M, MP = build_pair()


def test_state_roundtrip():
    rng = np.random.default_rng(1)
    s = sample_generic_state(M, rng)
    text = format_state(s)
    back = parse_state(M.alg, text)
    assert np.array_equal(back.v, s.v)
    assert np.array_equal(back.z, s.z)
    assert np.array_equal(back.V, s.V)
    assert np.array_equal(back.Z, s.Z)


def test_parse_state_errors():
    with pytest.raises(ValueError):
        parse_state(M.alg, "v: 1 2 3; z: 0 0 0; V: 1 0 0 0 0; Z: 0 0 1")
    with pytest.raises(ValueError):
        parse_state(M.alg, "z: 0 0 0; V: 1 0 0 0 0; Z: 0 0 1")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_parse_state_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="'Z'"):
        parse_state(M.alg,
                    f"v: 0 0 0 0 0; z: 0 0 0; V: 1 0 0 0 0; Z: 0 0 {bad}")


GOOD_FIELDS = "v: 0 0 0 0 0; z: 0 0 0; V: 1 0 0 0 0; Z: 1 1 1"


@pytest.mark.parametrize("text, why", [
    (GOOD_FIELDS + "; Z: 0 0 0; w: 7", "'Z' given twice"),
    (GOOD_FIELDS + "; v: 0 0 0 0 0", "'v' given twice"),
    (GOOD_FIELDS + "; w: 7", "unknown state field 'w'"),
    ("x: 1; " + GOOD_FIELDS, "unknown state field 'x'"),
    (": 1; " + GOOD_FIELDS, "unknown state field ''"),
    ("junk; " + GOOD_FIELDS, "'junk' has no"),
    (GOOD_FIELDS + "; 1 2 3", "'1 2 3' has no"),
])
def test_malformed_state_record_is_usage_error(text, why, capsys):
    # a repeated label, an unknown label or a chunk without a label is
    # rejected, not read past
    assert main(["integrals", "--state", text]) == EXIT_USAGE
    err = capsys.readouterr()
    assert err.out == "" and why in err.err
    assert len(err.err.strip().splitlines()) == 1


_LABELS = st.sampled_from(["v", "z", "V", "Z", " Z ", "w", "", "vV"])
_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.text(alphabet="0123456789.eE+-naif", max_size=6),
)
_CHUNK = st.one_of(
    st.tuples(_LABELS, st.lists(_NUMBER, max_size=6)).map(
        lambda t: f"{t[0]}: {' '.join(t[1])}"),
    st.text(max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CHUNK, max_size=6).map("; ".join))
def test_state_text_fuzz_exits_0_or_2(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["integrals", "--manifold", "M", "--state", text])
    assert code in (EXIT_PASS, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert len(err.getvalue().strip().splitlines()) == 1


@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_flow_non_finite_state_is_usage_error(method, capsys):
    code = main(["flow", "--method", method, "--state",
                 "v: nan 0 0 0 0; z: 0 0 0; V: 1 0 0 0 0; Z: .5 .2 1.1"])
    err = capsys.readouterr()
    assert code == EXIT_USAGE and err.out == ""
    assert len(err.err.strip().splitlines()) == 1 and "'v'" in err.err


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_flow_non_finite_t_is_usage_error(t, capsys):
    code = main(["flow", "--method", "rk4", f"--t={t}", "--state", PAIR_STATE])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert len(err.strip().splitlines()) == 1 and "--t" in err


@pytest.mark.parametrize("t", ["1e12", "-1e12"])
def test_flow_rk4_huge_t_is_finite(t, tmp_path):
    # 10^15 steps: the work is logarithmic in the step count
    out = tmp_path / "end.txt"
    code = main(["flow", "--method", "rk4", f"--t={t}", "--state", PAIR_STATE,
                 "--out", str(out)])
    assert code == EXIT_PASS
    end = parse_state(M.alg, out.read_text())
    assert np.isfinite(end.flat()).all()
    assert np.array_equal(end.Z, parse_state(M.alg, PAIR_STATE).Z)


@pytest.mark.parametrize("t", ["1e20", "-1e100", "1.7e308"])
def test_flow_rk4_overflowing_t_is_usage_error(t, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["flow", "--method", "rk4", f"--t={t}",
                     "--state", PAIR_STATE])
    err = capsys.readouterr()
    assert code == EXIT_USAGE and err.out == ""
    assert len(err.err.strip().splitlines()) == 1 and "--t" in err.err


@pytest.mark.parametrize("t", ["1e13", "-1e13"])
def test_flow_rk4_past_1e15_steps_is_usage_error(t, capsys):
    # 1e16 steps at 1000 per unit: past 1e15 rounding dominates the result
    code = main(["flow", "--method", "rk4", f"--t={t}", "--state", PAIR_STATE])
    err = capsys.readouterr()
    assert code == EXIT_USAGE and err.out == ""
    assert len(err.err.strip().splitlines()) == 1 and "--t" in err.err


@pytest.mark.parametrize("t", ["1e9", "-1e9"])
def test_flow_exact_huge_t_is_bounded(t, tmp_path):
    # the closed-form z costs the same at every t
    out = tmp_path / "end.txt"
    t0 = time.perf_counter()
    code = main(["flow", "--method", "exact", f"--t={t}", "--state",
                 PAIR_STATE, "--out", str(out)])
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_PASS
    start, end = parse_state(M.alg, PAIR_STATE), parse_state(M.alg, out.read_text())
    assert np.isfinite(end.flat()).all()
    assert np.array_equal(end.Z, start.Z)
    assert np.linalg.norm(end.V) == pytest.approx(np.linalg.norm(start.V),
                                                  rel=1e-13)


@pytest.mark.parametrize("t", ["1e300", "-1e300"])
def test_flow_exact_overflowing_t_is_usage_error(t, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["flow", "--method", "exact", f"--t={t}",
                     "--state", PAIR_STATE])
    err = capsys.readouterr()
    assert code == EXIT_USAGE and err.out == ""
    assert len(err.err.strip().splitlines()) == 1 and "--t" in err.err


HUGE_V_STATE = "v: 0 0 0 0 0; z: 0 0 0; V: 1e200 0 0 0 0; Z: 1 1 1"


@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_flow_of_huge_state_names_the_state(method, capsys):
    # at t = 1 only the state can be at fault, so the line names it too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["flow", "--method", method, "--state", HUGE_V_STATE])
    err = capsys.readouterr()
    assert code == EXIT_USAGE and err.out == ""
    assert len(err.err.strip().splitlines()) == 1
    assert "the state is too large" in err.err


def test_verify_algebra_pass(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "algebra", "--seed", "7",
                 "--out", str(out)]) == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["body"]["pass"] is True


def test_verify_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "--suite", "bogus"]) == EXIT_USAGE


def test_verify_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--suite", "algebra", "--seed", "42", "--out", str(p1)])
    main(["verify", "--suite", "algebra", "--seed", "42", "--out", str(p2)])
    b1 = json.loads(p1.read_text())["body"]
    b2 = json.loads(p2.read_text())["body"]
    assert json.dumps(b1) == json.dumps(b2)


def test_flow_degenerate_exact_is_exit_4(capsys):
    code = main([
        "flow", "--manifold", "M", "--method", "exact", "--t", "1",
        "--state", "v: 0 0 0 0 0; z: 0 0 0; V: 1 0 0 0 0; Z: 0 0 1",
    ])
    assert code == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert "rk4" in err
    assert len(err.strip().splitlines()) == 1


def test_flow_rk4_straight_line(tmp_path):
    out = tmp_path / "end.txt"
    code = main([
        "flow", "--manifold", "M", "--method", "rk4", "--t", "1",
        "--state", "v: 0 0 0 0 0; z: 0 0 0; V: 1 0 0 0 0; Z: 0 0 0",
        "--out", str(out),
    ])
    assert code == EXIT_PASS
    end = parse_state(M.alg, out.read_text())
    assert np.allclose(end.v, [1, 0, 0, 0, 0], atol=1e-9)
    assert np.allclose(end.z, 0, atol=1e-12)


def test_flow_exact_matches_rk4(tmp_path):
    rng = np.random.default_rng(3)
    s = sample_generic_state(M, rng)
    rec = format_state(s)
    o1, o2 = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["flow", "--manifold", "M", "--method", "exact", "--t", "2",
          "--state", rec, "--out", str(o1)])
    main(["flow", "--manifold", "M", "--method", "rk4", "--t", "2",
          "--state", rec, "--out", str(o2)])
    e1 = parse_state(M.alg, o1.read_text())
    e2 = parse_state(M.alg, o2.read_text())
    assert np.max(np.abs(e1.v - e2.v)) < 1e-8
    assert np.max(np.abs(e1.V - e2.V)) < 1e-8


def test_closed_geodesic_success(tmp_path):
    out = tmp_path / "geo.json"
    code = main(["closed-geodesic", "--manifold", "M", "--seed", "1",
                 "--epsilon", "0.1", "--out", str(out)])
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["a_in_gamma"] == "exact_pass"
    assert doc["rotation_condition"] == "exact_pass"


def test_closed_geodesic_outside_gamma_exits_1(capsys, monkeypatch):
    # with the multiple m + 1 the geodesic still closes, but a leaves Gamma
    _m_plus_one(monkeypatch)
    assert main(["closed-geodesic", "--seed", "3"]) == EXIT_CHECK_FAILURE
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 5332743108495681
    assert doc["a_in_gamma"] == "fail"
    assert doc["rotation_condition"] == "exact_pass"


def test_closed_geodesic_mprime(tmp_path):
    out = tmp_path / "geo.json"
    code = main(["closed-geodesic", "--manifold", "Mprime", "--seed", "2",
                 "--epsilon", "0.1", "--out", str(out)])
    assert code == EXIT_PASS


def test_closed_geodesic_degenerate_is_exit_5():
    code = main([
        "closed-geodesic", "--manifold", "M", "--epsilon", "1e-9",
        "--target", "v: 0 0 0 0 0; z: 0 0 0; V: 1 0 0 0 0; Z: 0 0 1",
    ])
    assert code == EXIT_CONSTRUCTION


def test_integrals_and_poisson_commands(tmp_path):
    rng = np.random.default_rng(5)
    s = sample_generic_state(M, rng)
    rec = format_state(s)
    assert main(["integrals", "--manifold", "M", "--state", rec,
                 "--out", str(tmp_path / "i.json")]) == EXIT_PASS
    assert main(["poisson", "--manifold", "M", "--state", rec,
                 "--out", str(tmp_path / "p.json")]) == EXIT_PASS
    doc = json.loads((tmp_path / "p.json").read_text())
    assert len(doc["rows"]) == 28
    # the benchmark's output check reads the first row's tolerance
    assert {float(r["tolerance"]) for r in doc["rows"]} == {suites.BRACKET_TOL}


@pytest.mark.parametrize("command", ["integrals", "poisson"])
def test_integrals_of_huge_state_is_usage_error(command, capsys):
    # finite input whose squares overflow: one line and exit 2, never a
    # silent inf / nan in the output
    huge = ("v: 1e300 0 0 0 0; z: 0 0 0; V: 1e300 0 0 0 0; "
            "Z: 1e300 1e-300 1e300")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--state", huge])
    err = capsys.readouterr()
    assert code == EXIT_USAGE and err.out == ""
    assert len(err.err.strip().splitlines()) == 1 and "not finite" in err.err


def test_cih_command(tmp_path):
    out = tmp_path / "c.json"
    assert main(["cih", "--manifold", "Mprime", "--bound", "1",
                 "--out", str(out)]) == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["pass"] is True


def test_cih_bound_zero_is_honoured(tmp_path):
    out = tmp_path / "c.json"
    assert main(["cih", "--bound", "0", "--out", str(out)]) == EXIT_PASS
    doc = json.loads(out.read_text())
    spans = next(c for c in doc["checks"]
                 if c["name"] == "rational_projectors_for_all_bracket_spans")
    assert spans["value"]["enumerated_V"] == 1  # only V = 0, not bound 3


def test_cih_negative_bound_is_usage_error(capsys):
    assert main(["cih", "--bound", "-1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--bound" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_cih_over_cap_bound_is_usage_error(capsys, monkeypatch):
    # rejected before any V is enumerated: the certificate is never called
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("cih_certificate called above the cap")

    monkeypatch.setattr(cli, "cih_certificate", enumerate_nothing)
    for bound in (MAX_CIH_BOUND + 1, 10, 10**6):
        assert main(["cih", "--bound", str(bound)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--bound" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flag", [
    ["--epsilon", "0"], ["--epsilon", "inf"], ["--epsilon", "1e-320"],
    ["--epsilon", "1e200"], ["--epsilon", "1e-300"], ["--epsilon", "1e-16"],
])
def test_closed_geodesic_bad_bound_or_epsilon_is_usage_error(flag, capsys):
    # inf and 1e200 exceed the target's size |(V, Z)|; 0, 1e-320, 1e-300 and
    # 1e-16 lie below its float resolution 2^-52 |(V, Z)| (7.2e-16 here)
    assert main(["closed-geodesic", "--seed", "1"] + flag) == EXIT_USAGE
    err = capsys.readouterr().err
    assert flag[0][2:] in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_closed_geodesic_has_no_bound_option(capsys):
    # the grid follows epsilon alone: there is no grid knob to set
    assert main(["closed-geodesic", "--seed", "1", "--bound", "64"]) == \
        EXIT_USAGE
    err = capsys.readouterr()
    assert err.out == ""
    lines = err.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    assert "--bound" in lines[0]


@pytest.mark.parametrize("argv", [
    ["--seed", "1", "--epsilon", "1e20"],
    ["--epsilon", "1e300",
     "--target", "v: 0 0 0 0 0; z: 0 0 0; V: 0 0 0 0.6 0.8; Z: 0 3 4"],
])
def test_closed_geodesic_epsilon_past_the_target_is_usage_error(argv, capsys):
    # an epsilon larger than the target's size |(V, Z)| is rejected in one
    # line; it used to build V of order epsilon (exit 0) or overflow to a
    # distance of inf (exit 5)
    assert main(["closed-geodesic"] + argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: --epsilon=")
    assert "exceeds the target's size" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_closed_geodesic_of_a_target_of_infinite_size_is_usage_error(capsys):
    # |(V, Z)| overflows to inf: rejected as the target's fault in one line,
    # with no numpy warning and no blame on epsilon
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["closed-geodesic", "--target", HUGE_V_STATE])
    err = capsys.readouterr()
    assert code == EXIT_USAGE and err.out == ""
    assert len(err.err.strip().splitlines()) == 1
    assert "the target is too large" in err.err and "epsilon" not in err.err


def test_criteria_reports_butler_certificate(tmp_path):
    out = tmp_path / "r.json"
    # the HR presentation fails on M', so the command reports a failed check
    assert main(["criteria", "--manifold", "Mprime", "--seed", "3",
                 "--out", str(out)]) == EXIT_CHECK_FAILURE
    doc = json.loads(out.read_text())
    names = [c["name"] for c in doc["body"]["checks"]]
    assert names == ["hr_injective_presentation[algebra]",
                     "butler_positive_dim_fraction[Mprime]"]
    row = doc["body"]["checks"][-1]
    assert row["pass"] and float(row["value"]) >= 0.999
    assert row["note"] == "regular pairs: 1000"
    assert float(doc["wall_time_s"]) > 0


def test_criteria_passes_on_M(tmp_path):
    out = tmp_path / "r.json"
    assert main(["criteria", "--manifold", "M", "--seed", "3",
                 "--out", str(out)]) == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["body"]["pass"] is True
    row = doc["body"]["checks"][-1]
    assert row["name"] == "butler_positive_dim_fraction[M]"
    assert float(row["value"]) == 0.0 and row["note"].startswith("regular pairs: ")
    assert float(doc["wall_time_s"]) > 0


@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["verify", "--seed"],
    ["flow", "--t", "-inf", "--state", "v: 0"],
])
def test_argparse_error_is_one_usage_line(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("usage error: ")
    if "-inf" in argv:  # argparse reads -inf as an option, not a value
        assert "argument --t: expected one argument" in err


@pytest.mark.parametrize("command", [
    "cih", "criteria", "closed-geodesic", "verify"])
def test_negative_seed_names_the_option(command, capsys):
    # rejected by the parser, before an RNG is built from it
    assert main([command, "--seed", "-1"]) == EXIT_USAGE
    err = capsys.readouterr()
    assert err.out == "" and "Traceback" not in err.err
    lines = err.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    assert "--seed" in lines[0]


PAIR_STATE = "v: 0 0 0 0 0; z: 0 0 0; V: 1 0 0 .2 .4; Z: .5 .2 1.1"


def test_one_parser_serves_every_call(capsys):
    # usage errors leave the cached parser as they found it: each call
    # gives the exit code and output it gives as the first call of a fresh
    # parser, and the parser is built once for all of them
    calls = [
        ["cih", "--no-such-option"],
        ["cih", "--bound", "7"],
        ["cih", "--bound", "1", "--seed", "3"],
        ["flow", "--state", PAIR_STATE],
    ]

    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    first = []
    for argv in calls:
        cli.build_parser.cache_clear()
        first.append(run(argv))
    cli.build_parser.cache_clear()
    assert [run(argv) for argv in calls * 3] == first * 3
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3 * len(calls) - 1)
    assert [code for code, _, _ in first] == [EXIT_USAGE] * 2 + [EXIT_PASS] * 2


DEFO_STATE = "v: 0 0 0 0; z: 0 0; V: 1 0 0 .2; Z: .5 .2"


@pytest.mark.parametrize("argv, manifold", [
    (["flow", "--method", "exact", "--state", DEFO_STATE], "defo:1/3"),
    (["closed-geodesic", "--seed", "1"], "defo:1/3"),
    (["integrals", "--state", PAIR_STATE], "Mprime"),
    (["integrals", "--state", DEFO_STATE], "defo:1/3"),
    (["poisson", "--state", PAIR_STATE], "Mprime"),
    (["poisson", "--state", DEFO_STATE], "defo:1/3"),
    (["cih", "--bound", "1"], "defo:1/3"),
])
def test_wrong_manifold_is_usage_error(argv, manifold, capsys):
    code = main(argv[:1] + ["--manifold", manifold] + argv[1:])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and manifold in err
    if argv[0] == "flow":
        assert "--method rk4" in err
    if argv[0] == "cih":
        assert "M and Mprime only" in err


@pytest.mark.parametrize("selector, name", [
    ("defo:3/5", "defo:3/5"), ("defo:7", "defo:7"),
    ("defo:-2/6", "defo:-1/3"),
])
def test_deformation_t_is_p_over_q(selector, name, capsys):
    assert catalog.get_manifold(selector).name == name
    assert main(["flow", "--manifold", selector, "--method", "rk4",
                 "--state", DEFO_STATE]) == EXIT_PASS
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("selector", [
    "defo:1/0", "defo:nan", "defo:inf", "defo:-inf", "defo:0.5",
    "defo:1e400", "defo:1e-400", "defo:1e300", "defo:1e-1000000",
    "defo:1e1000000", "defo:1e-31", "defo:1e31", "defo:1/" + "1" * 31,
])
def test_bad_deformation_t_is_usage_error(selector, capsys, monkeypatch):
    # t is p or p/q, integers of at most 30 digits each; anything else is
    # rejected from the string, before Fraction is reached
    parsed = []

    def fraction(*args):
        parsed.append(args)
        return Fraction(*args)

    monkeypatch.setattr(catalog, "Fraction", fraction)
    code = main(["flow", "--manifold", selector, "--method", "rk4",
                 "--state", DEFO_STATE])
    # of these, only defo:1/0 is p/q in form and reaches Fraction
    assert (parsed != []) == (selector == "defo:1/0")
    err = capsys.readouterr()
    assert code == EXIT_USAGE and err.out == ""
    assert "Traceback" not in err.err
    assert len(err.err.strip().splitlines()) == 1
    assert err.err.startswith("usage error: ") and selector in err.err
    assert "p/q" in err.err


LONG = 5_000


@pytest.mark.parametrize("argv, code, kind", [
    (["flow", "--manifold", "defo:1e" + "9" * LONG, "--state", DEFO_STATE],
     EXIT_USAGE, "usage error"),
    (["flow", "--manifold", "defo:" + "x" * LONG, "--state", DEFO_STATE],
     EXIT_USAGE, "usage error"),
    (["flow", "--manifold", "Q" * LONG, "--state", PAIR_STATE],
     EXIT_USAGE, "usage error"),
    (["integrals", "--state", "v: " + "x" * LONG + PAIR_STATE[4:]],
     EXIT_USAGE, "usage error"),
    (["integrals", "--state", "Q" * LONG + ": nan; " + PAIR_STATE],
     EXIT_USAGE, "usage error"),
    (["flow", "--out", "/nonexistent/" + "x" * LONG, "--state",
      PAIR_STATE], EXIT_IO, "I/O error"),
])
def test_error_line_is_bounded_whatever_the_input(argv, code, kind, capsys):
    # each message quotes a 5,000-character input; the line is cut, not it
    assert main(argv) == code
    err = capsys.readouterr()
    assert err.out == ""
    lines = err.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{kind}: ")
    assert len(lines[0]) <= 240 and lines[0].endswith("…")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "algebra"],
    ["flow", "--method", "rk4", "--state", PAIR_STATE],
    ["poisson", "--state", PAIR_STATE],
])
def test_tolerances_are_not_configurable(argv, tmp_path, capsys):
    # the acceptance tolerances are fixed in the program: no file loosens them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bracket_tol": 1.0}))
    assert main(argv + ["--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr()
    assert err.out == ""
    lines = err.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    assert "--config" in lines[0]


def test_lookup_bug_in_a_command_propagates(monkeypatch, capsys):
    # no input path raises KeyError (a bad manifold is a ValueError, a bad
    # suite an argparse error), so a missing key inside a command is a
    # bug: it propagates instead of passing as a usage error
    def broken(args):
        return {}["records"], True

    monkeypatch.setitem(cli.COMMANDS, "cih", broken)
    with pytest.raises(KeyError, match="records"):
        main(["cih", "--bound", "1"])
    assert capsys.readouterr().out == ""
    assert main(["verify", "--suite", "nope"]) == EXIT_USAGE


def test_out_path_io_error(tmp_path):
    assert main(["verify", "--suite", "algebra",
                 "--out", str(tmp_path / "no" / "dir" / "r.json")]) == EXIT_IO


# one request per command and flow method; criteria on Mprime exits 1
OUTPUT_REQUESTS = {
    "verify": ["verify", "--suite", "algebra", "--seed", "7"],
    "flow-exact": ["flow", "--method", "exact", "--state", PAIR_STATE],
    "flow-rk4": ["flow", "--method", "rk4", "--state", PAIR_STATE],
    "closed-geodesic": ["closed-geodesic", "--seed", "0"],
    "integrals": ["integrals", "--state", PAIR_STATE],
    "poisson": ["poisson", "--state", PAIR_STATE],
    "criteria": ["criteria", "--manifold", "Mprime", "--seed", "0"],
    "cih": ["cih", "--bound", "1"],
}


@pytest.mark.parametrize("request_id", sorted(OUTPUT_REQUESTS))
def test_out_file_holds_what_stdout_prints(request_id, tmp_path, capsys):
    argv = OUTPUT_REQUESTS[request_id]
    code = main(argv)
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    written = out.read_text()
    if argv[0] in ("verify", "criteria"):  # wall_time_s varies
        printed, written = (json.loads(x)["body"] for x in (printed, written))
    assert written == printed


@pytest.mark.parametrize("request_id", sorted(OUTPUT_REQUESTS))
def test_out_directory_is_io_error(request_id, tmp_path, capsys):
    assert main(OUTPUT_REQUESTS[request_id]
                + ["--out", str(tmp_path)]) == EXIT_IO
    err = capsys.readouterr()
    assert err.out == ""
    lines = err.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("I/O error: ")


def test_only_main_writes_output_and_maps_the_verdict():
    tree = ast.parse(inspect.getsource(cli))
    banned = {"print", "open", "json"}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        if fn.name.startswith("cmd_"):
            assert not names & banned, fn.name
            assert not any(n.startswith("EXIT_") for n in names), fn.name
            assert not any(isinstance(n, ast.Attribute) and n.attr == "out"
                           for n in ast.walk(fn)), fn.name
        elif fn.name != "main":
            assert not names & {"EXIT_PASS", "EXIT_CHECK_FAILURE"}, fn.name


def test_exit_constants_are_distinct():
    codes = {EXIT_PASS, EXIT_CHECK_FAILURE, EXIT_USAGE, EXIT_IO,
             EXIT_DEGENERATE, EXIT_CONSTRUCTION}
    assert codes == {0, 1, 2, 3, 4, 5}


# the state of every pinned flow, integrals and poisson request: nonzero v
# and z, so every term of the closed-form flow enters the output
PINNED_STATE = ("v: .3 -.7 .1 .5 -.2; z: .4 0 -.6; V: 1 -.3 .25 .2 .4; "
                "Z: .5 .2 1.1")
PINNED_DEFO_STATE = "v: .3 -.7 .1 .5; z: .4 -.6; V: 1 -.3 .25 .2; Z: .5 .2"
PINNED_REQUESTS = {
    "flow-exact-M": ["flow", "--manifold", "M", "--method", "exact",
                     "--t", "2.5", "--state", PINNED_STATE],
    "flow-exact-Mprime": ["flow", "--manifold", "Mprime", "--method", "exact",
                          "--t", "2.5", "--state", PINNED_STATE],
    "flow-rk4-M": ["flow", "--manifold", "M", "--method", "rk4",
                   "--t", "0.5", "--state", PINNED_STATE],
    "flow-rk4-defo": ["flow", "--manifold", "defo:1/3", "--method", "rk4",
                      "--t", "0.5", "--state", PINNED_DEFO_STATE],
    "integrals-M": ["integrals", "--manifold", "M", "--state", PINNED_STATE],
    "poisson-M": ["poisson", "--manifold", "M", "--state", PINNED_STATE],
    **{f"closed-geodesic-{name}-{seed}":
       ["closed-geodesic", "--manifold", name, "--seed", str(seed)]
       for name in ("M", "Mprime") for seed in (0, 7, 42)},
}
# sha256 of each request's stdout, every request exiting 0: a change that
# moves any printed digit fails here
CLI_SHA256 = {
    "flow-exact-M":
        "19c0cbfa54bfc5ebb42ce5e81af3aeedb7b6703661cc4cce451ab2e85689b7ba",
    "flow-exact-Mprime":
        "93a72023a027bf21413755bea23177cc3b3305e81472a286fb22e8d04bae5f46",
    "flow-rk4-M":
        "0e87b2b2943f9801e321d4578c6c1d541f085c33b12bb0264ed5d4a265469a7c",
    "flow-rk4-defo":
        "e9d9e6ed857f3f9d151284d2defb354458fee36a805d8dcd93929b99e00d2c07",
    "integrals-M":
        "e63783d95ce39ea2f355b283d27589fa5dd6767030ff92e124d62c3529a4358c",
    "poisson-M":
        "8582d17e982bb2ca204ded92735f60fb3994b3af7724d9ca859343eb827bb61c",
    "closed-geodesic-M-0":
        "1591bc4f2004b9d899b7d52bebb54cb705b386fc93653aa1085791126b38eb82",
    "closed-geodesic-M-7":
        "29caeaf77c6ed727ccb0e8a9557d95eef2b99353986db98e1710c76b59ba2df1",
    "closed-geodesic-M-42":
        "7908e39292464630fb9ed08b0a69c5a0b8d3dc7801fad0e320074e8a588fc1a1",
    "closed-geodesic-Mprime-0":
        "a37e1195d82849236cf1d18581dc1ea87869df7cef0ed190d95f3bf143528092",
    "closed-geodesic-Mprime-7":
        "06413b5096f2adc35fb8f31ccacb26b069e08a54030bada26906bbdda5e262a9",
    "closed-geodesic-Mprime-42":
        "17084cda69c2e2cf1cc98244f4a98a429dbb0c1aa2cbd9c7828783b2d266697d",
}


@pytest.mark.parametrize("request_id", sorted(CLI_SHA256))
def test_cli_outputs_are_pinned(request_id, capsys):
    assert main(PINNED_REQUESTS[request_id]) == EXIT_PASS
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_SHA256[request_id]


# sha256 of the body of each `nilflow criteria` report, as Report.body_text()
# prints it (the report's wall_time_s varies, so only the body is pinned),
# with its exit code: the HR presentation fails on Mprime.  The Butler draw
# keeps Z with c_k != 0 for the manifold's k = split[2], which is Z_1 on
# defo:<t>, where every such Z has rank 4: 1000 regular pairs of 1000
CRITERIA_SHA256 = {
    ("M", 0): (
        EXIT_PASS,
        "073f82cd61dfbb957a9d875c764c0edd105785546827e0dde0319d87c14e0351"),
    ("M", 42): (
        EXIT_PASS,
        "4e400e69e9e63cee32850c00e21d831e4eafd34071c4a22d34e67ea9ae2695df"),
    ("Mprime", 0): (
        EXIT_CHECK_FAILURE,
        "206ccf3eadc57dd4c8374d15e66631e86ea418a3b88d38572dd14cee788304fe"),
    ("Mprime", 42): (
        EXIT_CHECK_FAILURE,
        "cf3d09deb20c3b6d712ecea1cce46e422c96cd8dee833330adaa7efb14242419"),
    ("defo:1/3", 0): (
        EXIT_PASS,
        "ca09094979ed7570b0ef5512bbed3ce16cb0b75e1decf7407effaed9937c088b"),
    ("defo:1/3", 42): (
        EXIT_PASS,
        "cd9479a93b52cf117c39f411b875d2a925a8cc35f34ca808193d65bdb039a4e0"),
}


@pytest.mark.parametrize("name, seed", sorted(CRITERIA_SHA256),
                         ids=str)
def test_criteria_bodies_are_pinned(name, seed, capsys):
    code, want = CRITERIA_SHA256[name, seed]
    assert main(["criteria", "--manifold", name, "--seed", str(seed)]) == code
    body = json.loads(capsys.readouterr().out)["body"]
    text = json.dumps(body, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == want
