"""Tests for the declarative verify runner."""

from __future__ import annotations

import pytest

import cycloknot
from cycloknot.verify import SUITES, run_suite


def _stream(reports):
    return [(r.identity, r.params, r.passed) for r in reports]


@pytest.mark.parametrize(
    "quick, exploratory", [(True, False), (False, True)], ids=["quick", "exploratory"]
)
@pytest.mark.parametrize("name", list(SUITES))
def test_points_listed_first_run_the_same_checks(name, quick, exploratory):
    # Each point must bind its own parameters: a closure over the suite's
    # loop variables would run every listed point at the last grid values.
    points = list(SUITES[name](quick, exploratory))
    listed = [report for _knot, _p, run in points for report in run()]
    assert _stream(listed) == _stream(run_suite(name, quick=quick, exploratory=exploratory))


def test_suite_order_does_not_change_reports():
    # The memoized kernels are shared by every suite; whichever suite fills
    # a cache first, every later reader must get the same reports.
    def run_all(names):
        return {name: _stream(run_suite(name, exploratory=True)) for name in names}

    cycloknot.clear_caches()
    forward = run_all(list(SUITES))
    cycloknot.clear_caches()
    backward = run_all(reversed(list(SUITES)))
    assert [forward[name] for name in SUITES] == [backward[name] for name in SUITES]
