"""JSON line serialization with fixed-width float formatting.

Records are replayed and compared byte for byte, so floats are written
with 17 significant digits (enough to round-trip any IEEE 754 double
exactly) instead of repr's shortest form.  Parsing is plain stdlib json.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Iterator


def format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite float not representable in JSON: {value!r}")
    text = format(value, ".17g")
    # keep floats typed as floats across a round-trip
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def dumps(obj: Any) -> str:
    """Serialize one object; floats get 17 significant digits."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError(f"object keys must be str, got {type(key).__name__}")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _write(val, out)
        out.append("}")
    else:
        raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def write_lines(path: str, objects: Iterable[Any]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objects:
            fh.write(dumps(obj))
            fh.write("\n")


def read_lines(path: str) -> Iterator[tuple[int, Any]]:
    """Yield (1-based line number, parsed object), skipping blank lines.

    A line that is not UTF-8 JSON raises ValueError naming path:line.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    obj = json.loads(line)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                yield lineno, obj
