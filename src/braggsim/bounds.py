"""Bounds on single fields and function arguments, and the one check,
``check``, that enforces them all.

A field declares its bound in its annotation, ``samples: Annotated[int,
Range(1)]``, or on one arm of a union, ``Annotated[float, Positive] | None``,
whose other values (null, a ``Literal`` string) pass. A function checks an
argument, a number or an array, by ``check("order", order, Range(1))``.
``config`` names a bad value at its key path from the same bounds. Imports
nothing from the package.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from types import UnionType
from typing import NamedTuple, Union, get_args, get_origin, get_type_hints


class Range(NamedTuple):
    """Finite numbers from ``low`` to ``high``, each end closed unless open;
    NaN lies in none, and an int beyond the largest float counts as infinite."""

    low: float = -math.inf
    high: float = math.inf
    open_low: bool = False
    open_high: bool = False

    def admits(self, x) -> bool:
        return (abs(x) <= sys.float_info.max
                and (self.low < x if self.open_low else self.low <= x)
                and (x < self.high if self.open_high else x <= self.high))

    def complaint(self, x) -> str:
        """Why ``x`` falls outside: ``must lie in [0, 90), got 95.0``."""
        if not abs(x) <= sys.float_info.max or self == Finite:
            return f"must be finite, got {x}"
        if self.high < math.inf:
            return (f"must lie in {'(' if self.open_low else '['}{self.low}, "
                    f"{self.high}{')' if self.open_high else ']'}, got {x}")
        return f"must be {'>' if self.open_low else '>='} {self.low}, got {x}"


Finite, Positive, NonNegative = Range(), Range(0, open_low=True), Range(0)


def check(name: str, value, rng: Range = Finite) -> None:
    """ValueError naming ``name`` unless ``value`` lies in ``rng``. An array
    is judged by its min and its max, into both of which a NaN carries; an
    empty array passes."""
    if getattr(value, "ndim", 0):
        if value.size:
            check(name, value.min(), rng)
            check(name, value.max(), rng)
    elif not rng.admits(value):
        raise ValueError(f"{name} {rng.complaint(value)}")


def _bound_of(hint) -> Range | None:
    """The range an annotation declares, on itself or on one arm of a union."""
    if get_origin(hint) in (Union, UnionType):
        return next(filter(None, map(_bound_of, get_args(hint))), None)
    return getattr(hint, "__metadata__", (None,))[0]


@functools.cache
def field_bounds(cls) -> tuple:
    """(field, range, values that pass) of each bound that ``cls`` declares."""
    hints = get_type_hints(cls, include_extras=True).items()
    return tuple((name, _bound_of(hint), (type(None), str)
                  if get_origin(hint) in (Union, UnionType) else ())
                 for name, hint in hints if _bound_of(hint) is not None)


def bounded(cls):
    """``@dataclass(frozen=True)`` that checks each declared bound, naming the
    field, then runs the class's own ``__post_init__``: the rules between fields."""
    own = cls.__dict__.get("__post_init__", lambda self: None)
    checks = field_bounds(cls)   # as the class is made, not amid a run

    def __post_init__(self):
        for name, rng, passes in checks:
            value = getattr(self, name)
            if not isinstance(value, passes):
                check(name, value, rng)
        own(self)

    cls.__post_init__ = __post_init__
    return dataclass(frozen=True)(cls)
