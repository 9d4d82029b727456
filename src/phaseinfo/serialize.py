"""Deterministic text encoding for results.

Floats are rendered with repr-faithful precision (%.17g) so that rerunning a
seeded command reproduces its output byte for byte.  Infinities become the
string "inf" because JSON has no literal for them.
"""

import math

import numpy as np

__all__ = ["format_float", "dumps_json"]


def format_float(x):
    """Render a float with enough digits to round-trip exactly."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    return "%.17g" % x


def _encode(obj, indent, level):
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            items.append('%s"%s": %s' % (inner, key, _encode(value, indent, level + 1)))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        if all(type(v) is float and math.isfinite(v) for v in obj):
            flat, parts = True, ["%.17g" % v for v in obj]
        else:
            flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj)
            parts = [_encode(v, indent, level + 1) for v in obj]
        if flat and len(parts) <= 2:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x) or math.isnan(x):
            return '"%s"' % format_float(x)
        return format_float(x)
    if isinstance(obj, str):
        return '"%s"' % obj.replace("\\", "\\\\").replace('"', '\\"')
    if obj is None:
        return "null"
    raise TypeError("cannot serialize %r" % type(obj))


def dumps_json(obj, indent=2):
    """Encode a dict/list tree as deterministic JSON text.

    Key order is insertion order, floats use :func:`format_float`, and the
    result ends with a newline.
    """
    return _encode(obj, indent, 0) + "\n"
