import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def time_limit():
    """`time_limit(seconds)` makes the rest of the test raise TimeoutError
    once it has run that long, so that a loop that never ends fails the
    test instead of hanging the suite (SIGALRM: main thread, POSIX)."""
    previous = signal.getsignal(signal.SIGALRM)

    def expire(signum, frame):
        raise TimeoutError("the test ran past its time limit")

    def arm(seconds):
        signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)

    yield arm
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
