"""Bounded command-line value parsers, shared by :mod:`repro.cli` and the
experiment harnesses.

A harness annotates a ``run`` parameter ``Annotated[T, parser]`` with one
of these; the CLI gives that parameter's flag ``type=parser``, so a value
out of bounds is a usage error (exit 2) naming the value, raised while
parsing and before anything runs.
"""

from __future__ import annotations

import argparse
import contextlib
import math
from typing import Any, Callable


def bounded(convert: Callable[[str], Any], ok: Callable[[Any], bool], what: str):
    """An argparse ``type``: ``convert(value)`` when ``ok`` accepts it,
    otherwise a usage error (exit 2) naming ``value``."""

    def parse(value: str) -> Any:
        with contextlib.suppress(ValueError):
            if ok(converted := convert(value)):
                return converted
        raise argparse.ArgumentTypeError(f"must be {what}, got {value!r}")

    return parse


def int_at_least(k: int):
    return bounded(int, lambda n: n >= k, f"an integer >= {k}")


positive_float = bounded(float, lambda x: 0 < x < math.inf, "a finite number > 0")
int_or_auto = bounded(lambda v: v if v == "auto" else int(v),
                      lambda v: v == "auto" or v >= 1, "an integer >= 1 or 'auto'")


def comma_list(item: Callable[[str], Any]):
    """An argparse ``type``: a comma-separated tuple of ``item`` values."""
    return lambda value: tuple(item(part) for part in value.split(","))


def codec_spec(value: str) -> str:
    """An argparse ``type``: a gradient-codec spec, validated eagerly."""
    from repro.compression import get_codec

    try:
        get_codec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value
