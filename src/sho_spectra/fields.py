"""Field-named checks for JSON input payloads.

A malformed field raises ConfigError naming the field by its path, such as
``theta.limits`` or ``symbol.jumps[0].location``; the CLI maps ConfigError
to its usage exit code.  ConfigError is a ValueError, so library callers of
the ``from_dict`` parsers can keep catching ValueError.
"""

from __future__ import annotations

import math


class ConfigError(ValueError):
    """Structured configuration problem; carries the offending fields."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = list(fields)


def as_object(data, where: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object", [where])
    return data


def as_number(value, where: str) -> float:
    """Finite float; NaN, infinities, booleans and non-numbers are rejected."""
    try:
        if isinstance(value, bool):             # float(True) is 1.0
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} = {value!r} is not a number", [where]) from None
    if not math.isfinite(x):
        raise ConfigError(f"{where} = {value!r} is not finite", [where])
    return x


def required(data, key: str, where: str):
    if key not in as_object(data, where):
        raise ConfigError(f"{where}.{key} is missing", [f"{where}.{key}"])
    return data[key]


def number(data, key: str, where: str) -> float:
    return as_number(required(data, key, where), f"{where}.{key}")


def integer(data, key: str, where: str) -> int:
    x = number(data, key, where)
    if x != int(x):
        raise ConfigError(f"{where}.{key} = {x!r} is not an integer", [f"{where}.{key}"])
    return int(x)


def items(data, key: str, where: str) -> list:
    """List field; a missing key reads as the empty list."""
    value = as_object(data, where).get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{where}.{key} must be a list", [f"{where}.{key}"])
    return value
