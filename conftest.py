"""Repository-wide pytest hooks: these apply to ``tests/`` and ``benchmarks/e2e/`` alike."""

from __future__ import annotations

import signal

import pytest

#: Seconds a test may run before it fails; the slowest takes a few seconds.
TEST_ALARM_SECONDS = 120


def _wedged(signum, frame):
    # pytest.fail raises a BaseException, so no ``except Exception`` on the
    # stack (a node's frame step, a caught wait_for timeout) can swallow it.
    pytest.fail(f"test still running after {TEST_ALARM_SECONDS} s")


@pytest.fixture(autouse=True)
def fail_a_wedged_test():
    """A test that wedges (an operation awaiting a reply that was dropped)
    fails instead of hanging the run."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _wedged)
    signal.alarm(TEST_ALARM_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
