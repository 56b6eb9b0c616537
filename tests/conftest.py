import contextlib
import signal

import pytest
from hypothesis import settings

# Fixed example generation and no per-example deadline, so that a test run
# draws the same examples every time and slow shared hosts do not flake.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


@pytest.fixture
def deadline():
    """``with deadline(seconds, what):`` fails the test once its body runs past
    ``seconds`` of wall time, instead of letting a regression to a slow
    algorithm hang the suite.  Uses SIGALRM, so it works in the main thread only.
    """

    @contextlib.contextmanager
    def within(seconds: float, what: str):
        def expire(signum, frame):
            pytest.fail(f"{what} did not finish within {seconds} s", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
