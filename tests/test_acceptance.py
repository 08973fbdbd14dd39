"""Acceptance gate: every criterion must pass at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with per-check details.
"""
from fractions import Fraction

import pytest

from strz import exponents
from strz.acceptance import CRITERIA, AcceptanceContext, run_criterion


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext()


@pytest.mark.parametrize("key,title", [(k, t) for k, t, _, _ in CRITERIA])
def test_criterion(key, title, ctx):
    result = run_criterion(key, ctx)
    print()
    print(result.line())
    for line in result.detail_lines():
        print(line)
    failed = [name for name, ok, _ in result.checks if not ok]
    assert result.passed, f"{key} failed checks: {failed}"


def test_c01_counts_pseudoconformal_disagreements(monkeypatch):
    # c01 compares pseudoconformal_ok with r(n/s - 2) > -1 itself, so a wrong
    # formula (1/r for 1/(2r)) fails it under python -O as well
    def wrong(r, s, n):
        r, s = exponents.as_exponent(r), exponents.as_exponent(s)
        return r.reciprocal + Fraction(n, 2) * s.reciprocal > 1

    monkeypatch.setattr(exponents, "pseudoconformal_ok", wrong)
    result = run_criterion("c01", AcceptanceContext())
    ok, info = next((ok, info) for name, ok, info in result.checks
                    if name == "pseudoconformal equivalence x1000")
    fails, word = info.split()
    assert not ok and not result.passed
    assert 0 < int(fails) <= 1000 and word == "failures"
