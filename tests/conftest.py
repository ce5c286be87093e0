import signal

import pytest


@pytest.fixture
def deadline():
    """Raise TimeoutError in a test still running after 5 s: the inputs it
    guards are answered in milliseconds, so a slow algorithm fails the test
    instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("no answer within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
