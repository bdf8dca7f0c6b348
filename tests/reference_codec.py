"""Reference v1 trace codec that converts every integer on every row.

This is the per-row codec `urbasis.tracefile` had before it converted each
distinct integer once per call: `str()` on every element of every row when
writing, `int()` on every element string when reading.  It shares no code
with the package's codec beyond the trace classes, and it checks nothing
but what a well-formed trace needs, so the tests compare the two only on
traces the builder wrote.  `raw_rows` is the package's line reader as it
was when it stripped each line's end before decoding it.
"""

import json

from urbasis import BasisTrace, ConstructionStep, IntSet
from urbasis.digits import decimal_io


def _dump_line(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def rows(trace):
    """The stage rows as dicts, every integer converted with str() on every row."""
    with decimal_io():
        out = []
        for step in trace.steps:
            row = {
                "k": step.k,
                "elements": [str(a) for a in step.basis.elements],
                "d": str(step.radius),
                "b": str(step.gap),
                "branch": "positive" if step.positive_branch else "negative",
            }
            if step.reach is not None:
                row["c"] = str(step.reach)
            out.append(row)
    return out


def dump(mode, stage_rows):
    """The trace file of a mode and its stage rows."""
    lines = [_dump_line({"format": "urbasis-trace", "version": "1", "mode": mode})]
    lines += [_dump_line(row) for row in stage_rows]
    return "\n".join(lines) + "\n"


def serialize(trace):
    return dump(trace.mode, rows(trace))


def parse(text):
    with decimal_io():
        header, *rows = [json.loads(ln) for ln in text.splitlines()]
        steps = tuple(
            ConstructionStep(
                k=row["k"],
                basis=IntSet(tuple(int(v) for v in row["elements"])),
                radius=int(row["d"]),
                gap=int(row["b"]),
                positive_branch=row["branch"] == "positive",
                reach=int(row["c"]) if "c" in row else None,
            )
            for row in rows
        )
    return BasisTrace(steps=steps, mode=header["mode"])


def raw_rows(raw_lines):
    """(line number, decoded JSON) for each nonblank byte line, numbered from 1; a fault raises ValueError
    with the message the package's reader gives."""
    lineno = 0
    for raw in raw_lines:
        try:
            line = raw.rstrip(b"\r\n").decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"line {lineno + 1}: not valid UTF-8") from None
        if not line.strip():
            continue
        lineno += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"line {lineno}: not valid JSON ({e.msg})") from None
        yield lineno, obj
