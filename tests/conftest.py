"""The acceptance-criteria fixture and summary hook, and the record-count
oracle that the enumeration and acceptance tests share.

Acceptance tests register one line per criterion through ``record_criterion``;
after the run, pytest prints them as a block so the overall gate is readable
at a glance.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, description: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    _CRITERION_LINES[number] = f"criterion {number}: {status} - {description}"


@pytest.fixture
def criterion():
    """Context manager recording one acceptance-criterion line.

    The enclosed assertions decide the verdict; any escaping exception
    marks the criterion FAIL and still fails the test normally.
    """

    @contextmanager
    def _criterion(number: int, description: str):
        try:
            yield
        except BaseException:
            record_criterion(number, description, False)
            raise
        record_criterion(number, description, True)

    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])


def expected_record_count(bound: int, include_zero: bool = False) -> int:
    """Size of the unfiltered, unsharded enumeration stream."""
    lattice = (2 * bound + 1) ** 2
    if include_zero:
        return lattice * lattice
    return (lattice - 1) ** 2
