"""Admissible ranges of numeric inputs and the one check of them.

Each module states the range of each of its arguments once, in a table
``RANGES`` from name to ``Range``, and the cli schema points at the same
objects, so an argument and its config field cannot drift apart.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np


class Range(NamedTuple):
    """The numbers in [low, high], only ints and numpy integers (not
    bools) when ``integer``; a value outside "must be <words>"."""

    low: float
    high: float
    words: str
    integer: bool = False


# A float is positive when it is at least the least positive float, and
# finite when it is at most the largest one; NaN fails every range.
POSITIVE = Range(math.ulp(0.0), sys.float_info.max, "finite and positive")
NONNEGATIVE = Range(0.0, sys.float_info.max, "finite and nonnegative")
AT_LEAST_1 = Range(1.0, sys.float_info.max, "finite and at least 1")
PROBABILITY = Range(math.ulp(0.0), 1.0, "in (0, 1]")
COUNT = Range(1, math.inf, "an integer at least 1", integer=True)


def args(ranges: dict, *names: str) -> tuple:
    """The name and range of each of ``names``, from ``ranges``, in the
    form ``check`` reads."""
    return tuple((name, *ranges[name]) for name in names)


def check(named: tuple, values, error: type[ValueError] = ValueError) -> None:
    """Raise ``error("<name> must be <words>, got <value>")`` for the
    first of ``values`` outside its range; ``named``, from ``args``,
    names each value and gives its range, in order; a value that is no
    number at all fails too. It runs on every bound evaluation, so the
    ranges come unpacked and each test is inline."""
    for (name, low, high, words, integer), value in zip(named, values):
        try:
            outside = (
                integer and (isinstance(value, bool) or not isinstance(value, (int, np.integer)))
                or not low <= value <= high
            )
        except TypeError:  # a string, None or a complex number is in no range
            outside = True
        if outside:
            raise error(f"{name} must be {words}, got {value!r}")
