"""The recursive report writer (test oracle).

``cli.dump_json`` renders a report in one flat pass over an explicit stack.
This module keeps the writer it must reproduce byte for byte: one recursive
call per value, a chain of exact type tests to pick the value's form, one
``json.dumps`` per key and string, and 17 significant digits per float.
Reports hold plain values only, so any other type, a subclass of a plain
type included, is refused.  The module name has no ``test_`` prefix, so
pytest imports it without collecting it.
"""

from __future__ import annotations

import json
import math


def dump_json(obj, indent: int = 0) -> str:
    """JSON text with floats rendered at 17 significant digits; ``indent`` is the depth of ``obj``."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    kind = type(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError("non-finite float in report")
        return format(obj, ".17g")
    if kind is int:
        return str(obj)
    if kind is str:
        return json.dumps(obj)
    if kind is list:
        if not obj:
            return "[]"
        items = ",\n".join(inner + dump_json(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if kind is dict:
        if not obj:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(_key(k))}: {dump_json(v, indent + 1)}" for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {kind!r}")


def _key(key) -> str:
    if type(key) is not str:
        raise TypeError(f"cannot serialize {type(key)!r} as a key")
    return key
