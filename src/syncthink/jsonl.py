"""JSON line and CSV serialization: compact, key order kept, finite floats only.

Records are replayed and compared byte for byte.  json writes a float in
its shortest form that parses back to the same double, so a
parse/serialize cycle is byte-stable.  Keys must be str: json.dumps
would quietly turn int keys into strings.  Every CSV table is written by
write_csv, whose one cell rule writes a float in that same form.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Iterator, Sequence


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite float not representable in JSON: {value!r}")
    return repr(float(value))


def dumps(obj: Any) -> str:
    """Serialize one object on one line; NaN and infinities raise ValueError."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False)


def float_texts(values: list[float]) -> list[str]:
    """Each float's text as dumps writes it, from one C-level encode of the list.

    No float's text holds a comma, so the list's text splits into them.
    NaN and infinities raise ValueError.
    """
    return dumps(values)[1:-1].split(",") if values else []


def _cell(value: Any) -> Any:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_float(value) if isinstance(value, float) else value


def write_csv(path: str, columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a header of columns, then each row by one cell rule: None an
    empty cell, a bool true or false, a float by format_float, anything
    else as csv writes it.  A numpy bool is not a bool: pass tolist()."""
    import csv  # here: the feed and stub processes write no table
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(map(_cell, row) for row in rows)


def write_lines(path: str, objects: Iterable[Any]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objects:
            fh.write(dumps(obj))
            fh.write("\n")


def scan_lines(path: str) -> Iterator[tuple[int, int, bytes, Any]]:
    """Yield (1-based line number, byte offset, raw line, parsed object),
    skipping blank lines.

    A line that is not UTF-8 JSON, or nests too deep for json.loads to
    parse (RecursionError), raises ValueError naming path:line.
    """
    offset = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            start, offset = offset, offset + len(line)
            if line.strip():
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                yield lineno, start, line, obj


# The exact Python types json.loads gives a field of each JSON type: true
# is a bool and not an int, 1.0 a float and not an int; a FLOAT field
# also takes an integer.
INT, FLOAT, TEXT, BOOL = (int,), (int, float), (str,), (bool,)


def typed(name: str, value: Any, kinds: tuple[type, ...]) -> Any:
    """value if its exact type is one of kinds, as a float for a FLOAT
    field; else TypeError naming the field."""
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"{name} must be a JSON {names}, got {value!r}")
    return float(value) if kinds is FLOAT else value


def read_lines(path: str) -> Iterator[tuple[int, Any]]:
    """Yield (1-based line number, parsed object) of each line scan_lines yields."""
    for lineno, _, _, obj in scan_lines(path):
        yield lineno, obj
