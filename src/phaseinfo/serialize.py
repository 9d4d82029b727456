"""Deterministic text encoding for results.

Floats are rendered with repr-faithful precision (%.17g) so that rerunning a
seeded command reproduces its output byte for byte.  Infinities become the
string "inf" because JSON has no literal for them.
"""

import math

import numpy as np

__all__ = ["format_float", "dumps_json"]

_INDENT = "  "
# JSON string escapes: the quote, the backslash and every control character.
_ESCAPES = {c: "\\u%04x" % c for c in range(0x20)} | {ord('"'): '\\"', ord("\\"): "\\\\"}


def format_float(x):
    """Render a float with enough digits to round-trip exactly."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    return "%.17g" % x


def _encode(obj, pad):
    inner = pad + _INDENT
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError("JSON keys must be str, got %r" % type(key))
            items.append('%s"%s": %s' % (inner, key.translate(_ESCAPES), _encode(value, inner)))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        if all(type(v) is float and math.isfinite(v) for v in obj):
            flat, parts = True, ["%.17g" % v for v in obj]
        else:
            flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj)
            parts = [_encode(v, inner) for v in obj]
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
        return '"%s"' % obj.translate(_ESCAPES)
    if obj is None:
        return "null"
    raise TypeError("cannot serialize %r" % type(obj))


def dumps_json(obj):
    """Encode a dict/list tree as deterministic JSON text.

    Key order is insertion order and the indent is two spaces.  Floats use
    :func:`format_float`, +-inf as a string.  Keys must be str; keys and
    strings escape the quote, the backslash and control characters.  The
    result ends with a newline.
    """
    return _encode(obj, "") + "\n"
