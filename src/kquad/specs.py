"""One reader for every ``head:key=value,...`` spec string.

Kernels, datasets, quadrature methods and rate curves are all written as a
head naming the kind, optionally followed by ``:`` and comma-separated
``key=value`` parameters.  Each caller passes a schema that maps every head
to its accepted keys and the parser of each key's value.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .errors import InputError

Schema = Mapping[str, Mapping[str, Callable[[str], object]]]


def optional(parse: Callable[[str], object], word: str = "auto") -> Callable[[str], object]:
    """Value parser that reads ``word`` as None and anything else with ``parse``."""
    return lambda text: None if text.lower() == word else parse(text)


def parse_spec(text: str, what: str, schema: Schema) -> tuple[str, dict]:
    """Split ``head[:key=value,...]`` and check it against ``schema``.

    Heads and keys are case-insensitive; values are stripped but keep their
    case.  Returns the lower-cased head and the parsed values of the keys
    that were given.  An unknown head or key, a parameter without ``=``, a
    repeated key and a value its parser rejects all raise InputError.
    """
    head, _, tail = text.strip().partition(":")
    head = head.strip().lower()
    if head not in schema:
        raise InputError(f"unknown {what} {head!r}; expected one of {tuple(schema)}")
    keys = schema[head]
    params = {}
    for item in tail.split(",") if tail else ():
        key, eq, value = item.partition("=")
        key, value = key.strip().lower(), value.strip()
        if not eq:
            raise InputError(f"malformed {what} parameter {item!r}; expected key=value")
        if key not in keys:
            accepted = f"one of {tuple(keys)}" if keys else "no parameters"
            raise InputError(f"unknown {what} parameter {key!r} for {head!r}; it takes {accepted}")
        if key in params:
            raise InputError(f"repeated {what} parameter {key!r}")
        try:
            params[key] = keys[key](value)
        except ValueError:
            raise InputError(f"bad {what} parameter {key}={value!r}") from None
    return head, params
