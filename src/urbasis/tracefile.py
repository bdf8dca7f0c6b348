"""Line-delimited trace files.

One JSON object per line: a header, then one row per stage in order.  All
unbounded integers (elements, d, b, c) travel as decimal strings so no
consumer needs big-int JSON; the stage index k stays a plain number.
Serialization is canonical (sorted keys, fixed separators, trailing
newline), so identical traces produce byte-identical files.  A stage row
is joined from its texts in sorted-key order (`joined_rows`), to the
bytes json.dumps writes: every value but k is canonical decimal text or
a branch word, and none needs escaping.  `export` joins its JSON rows
the same way with its own separators.  The header, whose mode can need
escaping, goes through json.dumps.  Both directions run under the
package's decimal digit limit (`digits`); a value past it raises
DigitLimitError.

Every v1 row repeats all of its stage's elements, and a long integer costs
far more to convert than to look up.  So each direction converts each
distinct integer once per call: `step_rows` keeps one int -> str dict,
`parse` one str -> int dict, and the parsed rows share one int object per
element.  Across calls, the conversions go through `digits`, whose memo
lets `step_rows` write a long integer that `parse` read in the same
outermost `decimal_io()` block with the text it was read from; `digits`
says which texts it records and how it converts long values.  A stage's
new pair lies at 3c and 3c + b, where c is the last stage's reach and b
its gap, so `step_rows` hands `decimal_str` that reach as the hint: its
text is recorded by then, and a long new element is written from it in
linear time.  A row that nests the last one, its strings with one new
string at each end, parses only those two, and `IntSet.with_ends`
compares only them with the last row's ends.
`parse` accepts only the canonical integer text `serialize` writes,
ASCII `0` or `-?[1-9][0-9]*`, so each integer re-serializes to the same
digits; JSON spacing, unknown keys, blank lines and CRLF line ends are
accepted and re-serialize to other bytes.

Files stream one row at a time, so memory follows the parsed stages, not
the text, which grows as K^3 bytes.  `write_file` writes each line of
`trace_lines` as it is made, and `step_rows` makes each row when taken.
`read_file` and `parse` share one reader of raw byte lines; `parse`
reads its text's UTF-8 bytes, a lone surrogate included.  A line ends at
LF alone; the CRs and LFs it ends with are dropped.  Each nonblank line
is numbered from 1 and decoded as UTF-8, then as JSON, and its row is
converted before the next line is read.  The first fault in file order
is the one reported, and nothing after it is read.
"""

from __future__ import annotations

import io
import json
from itertools import chain
from typing import Iterable, Iterator

from .digits import canonical_int, decimal_io, decimal_str, quote
from .intset import IntSet
from .record import BasisTrace, ConstructionStep

FORMAT_NAME = "urbasis-trace"
FORMAT_VERSION = "1"


class TraceFormatError(ValueError):
    """The text is not a well-formed trace file."""


def step_rows(steps: Iterable[ConstructionStep]) -> Iterator[dict]:
    """The stages as trace rows, made as they are taken: k as a number, other integers in decimal.

    Each distinct integer is converted to decimal once, before this returns,
    so a value past the digit limit raises here; none is converted when the
    enclosing decimal_io() block has read its text.  A stage's new integers
    are written with the last stage's reach as the hint (digits.decimal_str):
    its new pair lies at 3c and 3c + b.
    """
    steps = tuple(steps)
    texts: dict[int, str] = {}
    with decimal_io():
        near = None
        for step in steps:
            for n in chain(step.basis.elements, (step.radius, step.gap, step.reach)):
                if n is not None and n not in texts:
                    texts[n] = decimal_str(n, near)
            near = step.reach
    return (_row(step, texts) for step in steps)


def _row(step: ConstructionStep, texts: dict[int, str]) -> dict:
    row = {"k": step.k, "elements": [texts[a] for a in step.basis.elements], "d": texts[step.radius],
           "b": texts[step.gap], "branch": "positive" if step.positive_branch else "negative"}
    if step.reach is not None:
        row["c"] = texts[step.reach]
    return row


def joined_rows(rows: Iterable[dict], separators: tuple[str, str]) -> Iterator[str]:
    """json.dumps(row, sort_keys=True, separators=separators) for each row of step_rows, joined from its texts.

    Every value but k is canonical decimal text or a branch word, so none needs escaping.
    """
    item, key = separators
    between = '"' + item + '"'
    for row in rows:
        elements = row["elements"]
        quote = '"' if elements else ""  # an empty list is []
        reach = f'"c"{key}"{row["c"]}"{item}' if "c" in row else ""
        # one f-string, so no part of a long row outlives the line it is joined into
        yield (f'{{"b"{key}"{row["b"]}"{item}"branch"{key}"{row["branch"]}"{item}{reach}"d"{key}"{row["d"]}"{item}'
               f'"elements"{key}[{quote}{between.join(elements)}{quote}]{item}"k"{key}{json.dumps(row["k"])}}}')


def trace_lines(trace: BasisTrace) -> Iterator[str]:
    """The lines of the trace file, each ending in a newline, made as they are taken.

    Every integer is converted before this returns, so a value past the
    digit limit raises here and not between lines.
    """
    rows = joined_rows(step_rows(trace.steps), (",", ":"))
    header = json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION, "mode": trace.mode},
                        sort_keys=True, separators=(",", ":"))
    return map("{}\n".format, chain([header], rows))  # map holds no line while the next is written


def serialize(trace: BasisTrace) -> str:
    return "".join(trace_lines(trace))


def _parse_int(value, what: str, lineno: int, ints: dict[str, int]) -> int:
    """The integer a canonical decimal string spells, converted once per `ints` dict."""
    if not isinstance(value, str):
        raise TraceFormatError(f"line {lineno}: {what} must be a decimal string")
    n = ints.get(value)
    if n is None:
        n = canonical_int(value, f"line {lineno}: {what}")
        if n is None:
            raise TraceFormatError(f"line {lineno}: {what} is not a decimal integer: {quote(value)}")
        ints[value] = n
    return n


def parse(text: str) -> BasisTrace:
    with decimal_io():
        return _read_rows(_rows(io.BytesIO(text.encode("utf-8", "surrogatepass"))))


def _rows(raw_lines: Iterable[bytes]) -> Iterator[tuple[int, object]]:
    """(line number, decoded JSON) for each nonblank line, numbered from 1.

    A line ends at LF, and the CRs and LFs it ends with are dropped.  A
    line that is not UTF-8, or not JSON, raises TraceFormatError.
    """
    lineno = 0
    for raw in raw_lines:
        try:
            line = raw.decode("utf-8")  # CR and LF are ASCII: stripping them first changes no verdict
        except UnicodeDecodeError:
            raise TraceFormatError(f"line {lineno + 1}: not valid UTF-8") from None
        if not line or line.isspace():
            continue
        lineno += 1
        try:
            obj = json.loads(line)  # JSON skips the CRs and LFs the line ends with
        except json.JSONDecodeError as e:
            msg = e.msg
            try:  # the message of the line without them: a string cut at the line end is unterminated
                json.loads(line.rstrip("\r\n"))
            except json.JSONDecodeError as stripped:
                msg = stripped.msg
            raise TraceFormatError(f"line {lineno}: not valid JSON ({msg})") from None
        yield lineno, obj


def _elements(raw: list, prev: tuple[list, IntSet], lineno: int, ints: dict[str, int]) -> IntSet:
    """The set a row's element strings spell, checked to be strictly increasing.

    A nested row is the last row's strings with one new string at each end;
    only those two are parsed and placed, which is also where a fault in it can lie.
    """
    prev_raw, prev_basis = prev
    nested = len(raw) == len(prev_raw) + 2 and raw[1:-1] == prev_raw
    if nested:
        ends = _parse_int(raw[0], "element", lineno, ints), _parse_int(raw[-1], "element", lineno, ints)
    else:
        values = tuple(_parse_int(v, "element", lineno, ints) for v in raw)
    try:
        return prev_basis.with_ends(*ends) if nested else IntSet(values)
    except ValueError as e:  # elements out of order
        raise TraceFormatError(f"line {lineno}: {e}") from None


def _read_rows(rows: Iterator[tuple[int, object]]) -> BasisTrace:
    first = next(rows, None)
    if first is None:
        raise TraceFormatError("empty trace file")
    _, header = first
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceFormatError("missing or unrecognized header line")
    if header.get("version") != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported format version {quote(header.get('version'))}")
    mode = header.get("mode", "")
    if not isinstance(mode, str):
        raise TraceFormatError("header mode must be a string")

    ints: dict[str, int] = {}  # one int per distinct decimal string in the file
    steps: list[ConstructionStep] = []
    prev: tuple[list, IntSet] = ([], IntSet())  # the last row's element strings and their set
    for lineno, row in rows:
        if not isinstance(row, dict):
            raise TraceFormatError(f"line {lineno}: stage row must be an object")
        k = row.get("k")
        if not isinstance(k, int) or isinstance(k, bool):
            raise TraceFormatError(f"line {lineno}: k must be an integer")
        if k != lineno - 1:
            raise TraceFormatError(f"line {lineno}: stage indices must run 1..K in order, got k={quote(k)}")
        raw = row.get("elements")
        if not isinstance(raw, list) or not raw:
            raise TraceFormatError(f"line {lineno}: elements must be a nonempty list")
        basis = _elements(raw, prev, lineno, ints)
        prev = raw, basis
        branch = row.get("branch")
        if branch not in ("positive", "negative"):
            raise TraceFormatError(f"line {lineno}: branch must be 'positive' or 'negative'")
        reach = None
        if "c" in row:
            reach = _parse_int(row["c"], "c", lineno, ints)
        steps.append(ConstructionStep(
            k=k,
            basis=basis,
            radius=_parse_int(row.get("d"), "d", lineno, ints),
            gap=_parse_int(row.get("b"), "b", lineno, ints),
            positive_branch=(branch == "positive"),
            reach=reach,
        ))
    if not steps:
        raise TraceFormatError("trace file has no stages")
    return BasisTrace(steps=tuple(steps), mode=mode)


def write_file(trace: BasisTrace, path: str) -> None:
    lines = trace_lines(trace)  # before opening, so a trace past the digit limit leaves no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def read_file(path: str) -> BasisTrace:
    with open(path, "rb") as fh, decimal_io():
        return _read_rows(_rows(fh))
