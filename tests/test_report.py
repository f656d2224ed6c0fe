"""Report serialization invariants."""

from fractions import Fraction
from numbers import Real

import pytest

from nilflow.report import Certificate, CheckRecord, Report, fmt_value
from nilflow.suites import run_suite


def test_fmt_value_modes():
    assert fmt_value(Fraction(3, 7)) == "3/7"
    assert fmt_value(0.1) == "0.10000000000000001"
    assert fmt_value(True) is True
    assert fmt_value([1, Fraction(1, 2)]) == [1, "1/2"]
    assert fmt_value({"a": 2.0}) == {"a": "2"}


def test_report_pass_is_conjunction():
    r = Report("demo", 0, ["M"])
    r.add("a", True)
    assert r.passed
    r.add("b", False)
    assert not r.passed


def test_body_excludes_wall_time():
    r = Report("demo", 0, ["M"])
    r.add("a", True, value=1.5, tolerance=2.0)
    r.wall_time_s = 123.0
    body = r.body_text()
    assert "wall_time" not in body
    assert "123" not in body
    assert "wall_time_s" in r.to_text()


def test_certificate_first_failure():
    c = Certificate("crit", "M")
    c.add("ok", True)
    c.add("bad", False, value=3)
    assert not c.passed
    assert c.first_failure().name == "bad"
    d = c.to_dict()
    assert d["pass"] is False and len(d["checks"]) == 2


def test_check_record_dict():
    rec = CheckRecord("n", True, value=Fraction(1, 3), tolerance=1e-6)
    d = rec.to_dict()
    assert d["value"] == "1/3"
    assert d["tolerance"] == "9.9999999999999995e-07"


def test_add_bounded_passes_at_equality_and_fails_on_nan():
    r = Report("demo", 0, ["M"])
    r.add_bounded("equal", 1e-8, 1e-8, note="at the bound")
    r.add_bounded("over", 2e-8, 1e-8)
    r.add_bounded("nan", float("nan"), 1e-8)
    assert [c.passed for c in r.checks] == [True, False, False]
    # the record is the hand-written add with the bound written twice
    hand = Report("demo", 0, ["M"])
    hand.add("equal", 1e-8 <= 1e-8, value=1e-8, tolerance=1e-8,
             note="at the bound")
    assert r.checks[0] == hand.checks[0]
    assert r.checks[0].to_dict() == hand.checks[0].to_dict()


# the one suite row whose tolerance is a lower bound
LOWER_BOUNDS = {"criteria.butler_fraction_Mprime"}


@pytest.mark.parametrize("seed", [42, 7, 90210])
def test_every_numeric_row_passes_exactly_within_its_tolerance(seed):
    # a row that prints a number and a numeric tolerance passes exactly
    # when the value is within it: value <= tolerance, or >= for a lower
    # bound, so a printed bound cannot drift from the one tested
    rows = [c for c in run_suite("all", seed).checks
            if all(isinstance(x, Real) and not isinstance(x, bool)
                   for x in (c.value, c.tolerance))]
    assert len(rows) == 9
    assert {c.name for c in rows} >= LOWER_BOUNDS
    for c in rows:
        within = (c.value >= c.tolerance if c.name in LOWER_BOUNDS
                  else c.value <= c.tolerance)
        assert c.passed == within, c.name
