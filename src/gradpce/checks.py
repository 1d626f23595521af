"""Type checks of library inputs, shared by every layer.

Each check raises one ValueError that names the field, before any work.
"""

from __future__ import annotations

import numbers


# The abstract type each checked class accepts, and its name in messages.
_ACCEPTS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
            str: (str, "a string")}


def checked(name: str, value, cls: type):
    """``value`` as a ``cls``; a boolean or a value of another type raises ValueError.

    A class outside the table above accepts its own instances and returns them.
    """
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    abc, what = _ACCEPTS[cls] if cls in _ACCEPTS else (cls, f"{article} {cls.__name__}")
    if isinstance(value, bool) or not isinstance(value, abc):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return cls(value) if cls in _ACCEPTS else value


def checked_entries(name: str, values, cls: type) -> tuple:
    """``values`` as a tuple of ``cls``; a string, a non-list or a bad entry raises ValueError."""
    if not isinstance(values, str):
        try:
            return tuple(checked(f"{name} entries", v, cls) for v in values)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a list, got {values!r}")
