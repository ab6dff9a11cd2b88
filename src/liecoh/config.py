"""Runtime limits for the exact core.

The cochain degree cap guards against the C(n,p) blowup of cochain
spaces; the sparse threshold switches row reduction to a dict-of-rows
elimination for large matrices.
"""

import os

from .errors import ParseError

DEFAULT_DEGREE_CAP = 6
DEFAULT_SPARSE_THRESHOLD = 10_000

_sparse_threshold = DEFAULT_SPARSE_THRESHOLD


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
    return _sparse_threshold


def set_sparse_threshold(value: int) -> None:
    global _sparse_threshold
    if value < 0:
        raise ValueError("sparse threshold must be nonnegative")
    _sparse_threshold = value
