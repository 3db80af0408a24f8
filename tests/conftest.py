"""Collects one-line verdicts from the whole-system tests.

pytest captures stdout of passing tests, so the acceptance checks push their
summary lines here and a terminal-summary hook replays them after the run.
An autouse fixture fails any test that leaves a child process behind.
"""

import os

import pytest

SUMMARY: list[str] = []


def record(line: str) -> None:
    SUMMARY.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if SUMMARY:
        terminalreporter.section("acceptance summary")
        for line in SUMMARY:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid(-1, WNOHANG) gave {left})")
