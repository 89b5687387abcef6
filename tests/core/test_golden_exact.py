"""The exact tier's timing and final state match the golden fixture.

See :mod:`tests.core.golden_exact` for what each case records and how
to rewrite the fixture.
"""

import json

import pytest

from tests.core.golden_exact import (
    CASES,
    FIXTURE,
    RESULT_FIELDS,
    build_trace,
    reference_stays_finite,
    run_case,
)

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    assert GOLDEN["fields"] == list(RESULT_FIELDS)
    assert sorted(GOLDEN["cases"]) == sorted(case.id for case in CASES)


def test_fixture_traces_stay_finite():
    # The ELM treats non-finite multiplicands as effectual; the fixture
    # pins timing only where that rule and the zero test agree.
    for key in sorted({case.trace_key for case in CASES}, key=repr):
        assert reference_stays_finite(build_trace(key)), key


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_matches_golden(case):
    expected = GOLDEN["cases"][case.id]
    got = run_case(case)
    for name, want, have in zip(RESULT_FIELDS, expected["result"], got["result"]):
        assert have == want, f"{name}: {have!r} != golden {want!r}"
    assert got["state"] == expected["state"], "final state digest"
    if case.instrumented:
        assert got["metrics"] == expected["metrics"]
        assert got["events"] == expected["events"]
