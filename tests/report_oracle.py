"""The recursive report writer (test oracle).

``cli.dump_json`` renders a report in one flat pass over an explicit stack.
This module keeps the writer it must reproduce byte for byte: one recursive
call per value, an ``isinstance`` chain to pick the value's form, one
``json.dumps`` per key and string, and 17 significant digits per float.  The
module name has no ``test_`` prefix, so pytest imports it without collecting
it.
"""

from __future__ import annotations

import json
import math

import numpy as np


def dump_json(obj, indent: int = 0) -> str:
    """JSON text with floats rendered at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (np.floating, float)):
        if not math.isfinite(obj):
            raise ValueError("non-finite float in report")
        return format(float(obj), ".17g")
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dump_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + dump_json(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dump_json(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")
