"""The argument checks every public entry point runs at its boundary.

Each check raises ``ValueError`` with a message that starts with the name it
is given.  NaN fails every check, and so does anything that is not a number:
a string, ``None`` or a bool, also inside a list or tuple.  A scalar
argument given an array fails with the same message as an out-of-range
value.
"""

from numbers import Integral

import numpy as np


def check_int(name, x, low=None):
    """``x`` an integer, and at least ``low`` when it is given."""
    # bool is an Integral, but True is no count, seed or preset
    if not isinstance(x, Integral) or isinstance(x, bool):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if low is not None and x < low:
        raise ValueError(f"{name} must be at least {low}, got {x}")


def _holds_bool(x):
    """Whether the list or tuple ``x`` holds a bool at any depth: numpy turns
    ``[True, 1.0]`` into a float array.  Reads the set of element types, so
    a long flat list costs one pass in C."""
    types = set(map(type, x))
    if types & {bool, np.bool_}:
        return True
    nested = any(issubclass(t, (list, tuple)) for t in types)
    return nested and any(_holds_bool(v) for v in x if isinstance(v, (list, tuple)))


def as_numbers(x, scalar):
    """``x`` as an array, or None when it holds anything but integers and
    floats, or when a scalar argument is given an array."""
    a = np.asarray(x)
    if a.dtype.kind not in "iuf" or (scalar and a.ndim):
        return None
    return None if isinstance(x, (list, tuple)) and _holds_bool(x) else a


def check_unit(name, x, closed=False, scalar=True):
    """Every value of ``x`` in (0, 1), or in [0, 1] when ``closed``."""
    a = as_numbers(x, scalar)
    if a is None or not ((a >= 0) & (a <= 1) if closed else (a > 0) & (a < 1)).all():
        raise ValueError(f"{name} must lie in [0, 1]" if closed else f"{name} must lie in (0, 1)")


def check_positive(name, x, scalar=True):
    """Every value of ``x`` positive and finite."""
    a = as_numbers(x, scalar)
    if a is None or not ((a > 0) & (a < np.inf)).all():
        raise ValueError(f"{name} must be positive and finite")
