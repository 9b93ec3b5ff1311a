"""Acceptance gate: every criterion at its stated tolerance, one line each.

Runs the full validation suite once (it caches the heavy eigensolves) and
asserts each criterion separately so `pytest -v` shows one pass/fail line
per criterion.
"""

import json

import pytest

from fouspec import validation

pytestmark = pytest.mark.slow  # the fixture runs every criterion at full size

CRITERIA = [
    "bm_spectrum",
    "ou_spectrum",
    "eigenvalue_formula",
    "endpoint_law",
    "ia_degenerate",
    "refinement_dominance",
    "special_constants",
    "series_wh_identity",
    "error_asymptote",
    "property_suites",
    "suite_runtime",
]


@pytest.fixture(scope="module")
def results():
    out = {r["name"]: r for r in validation.run_all(quick=False)}
    for name in CRITERIA:
        r = out[name]
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status} criterion {r['id']:>2} {name} ({r['seconds']}s)")
    return out


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(results, name):
    r = results[name]
    assert r["passed"], f"{name} failed: {json.dumps(r['details'], default=str)}"
