import faulthandler
import os
import sys

import pytest

ACCEPTANCE_LINES = []

#: Seconds a test may run before it counts as hung: well above the slowest
#: test (under 2 s).
HANG_TIMEOUT_S = 60
_hang_report_fd = None


def pytest_configure(config):
    # A duplicate of the process's own stderr: pytest's fd capture swaps
    # fd 2 during a test, and a stack written there would be lost.
    global _hang_report_fd
    _hang_report_fd = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(_hang_report_fd)


@pytest.fixture(autouse=True)
def _a_hang_fails():
    """A test that runs past HANG_TIMEOUT_S prints every thread's stack and
    ends the run with a failure, instead of hanging it."""
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True, file=_hang_report_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
