"""Process-level runtime knobs."""

import os

__all__ = ["worker_count"]

THREADS_ENV = "THERMODUCT_THREADS"


def worker_count():
    """Worker count for concurrent independent solves.

    Read from the THERMODUCT_THREADS environment variable; unset or
    unparsable means 1, and values below 1 fall back to 1.
    """
    try:
        return max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        return 1
