"""Runtime limits for the exact core.

The cochain degree cap guards against the C(n,p) blowup of cochain
spaces.  Row reduction has no size setting: every elimination runs on
dict rows.
"""

import os

from .errors import ParseError

DEFAULT_DEGREE_CAP = 6


def degree_cap() -> int:
    raw = os.environ.get("LIECOH_DEGREE_CAP")
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise ParseError(f"LIECOH_DEGREE_CAP must be a nonnegative integer, got {raw!r}")
    return value


def sparse_threshold() -> int:
    # The traced benchmark pass (perfbench/trace_launcher.py) counts an
    # elimination with more entries than this as a dict-row one; every
    # nonempty elimination is, so the threshold is 0.
    return 0
