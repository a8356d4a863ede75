import signal

import pytest
from hypothesis import settings

settings.register_profile("kit", deadline=None)
settings.load_profile("kit")

# The slowest test, criterion 03, takes 10-25 s, so the bound leaves room
# for a loaded machine; without it a fault that stops fold or close from
# making progress would hang the suite.
TEST_SECONDS = 120


class TestTimeout(BaseException):
    """Not an Exception, so hypothesis reports it at once instead of
    replaying the example that hung."""

    __test__ = False


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TestTimeout(f"test ran longer than {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
