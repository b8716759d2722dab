"""A time limit for calls that must fail fast instead of running on."""

import contextlib
import signal


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once seconds have passed (main thread only)."""

    def out_of_time(_signum, _frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
