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
element.  Each stage the builder places nests the last one: its elements
are the last stage's with one new element at each end, so row k is row
k - 1 with one new text at each end.  For such a stage `step_rows`
converts and looks up only the two new elements, and makes the row's list
as the last row's list with one new text at each end, so writing a trace
converts and looks up O(K) integers, not O(K^2); any other stage is
converted whole.  Across calls, the conversions go through `digits`, whose
memo lets `step_rows` write a long integer that `parse` read in the same
outermost `decimal_io()` block with the text it was read from; `digits`
says which texts it records and how it converts long values.  A stage's
new pair lies at 3c and 3c + b, where c is the last stage's reach and b
its gap, so `step_rows` hands `decimal_str` that reach as the hint: its
text is recorded by then, and a long new element is written from it in
linear time.  A row that nests the last one, its strings with one new
string at each end, parses only those two, and `IntSet.with_ends`
compares only them with the last row's ends.  The row's list then takes
the last row's strings for its middle, so the strings JSON made there are
freed at once, and each element's text is held once, by the memo, the
str -> int dict and the last row's list alike.
`parse` accepts only the canonical integer text `serialize` writes,
ASCII `0` or `-?[1-9][0-9]*`, so each integer re-serializes to the same
digits; JSON spacing, unknown keys, blank lines and CRLF line ends are
accepted and re-serialize to other bytes.

Files stream one row at a time, so memory follows the parsed stages, not
the text, which grows as K^3 bytes.  `write_file` writes each piece of
`trace_lines` as it is made, and `step_rows` makes each row when taken.
`joined_rows` makes a line whose elements, counted at the length of its
longest, total at most 64 KiB of text in one piece, newline included,
and a longer one as its head, groups of whole elements of at most
64 KiB of text each, and its tail, so neither the joined text nor the
bytes a text file encodes it to hold a long line whole; it holds no
piece while it joins the next.  `read_file` and
`parse` share one reader of raw byte lines; `parse` reads its text's
UTF-8 bytes, a lone surrogate included.  A line ends at LF alone; the
CRs and LFs it ends with are dropped.  Each nonblank line is numbered
from 1 and decoded as UTF-8, then as JSON, and its row is converted
before the next line is read.  The reader drops a line's text once its
JSON is parsed, and keeps its bytes until the next line is read:
dropping them after the parse raised the peak RSS of greedy K=640
`verify` by 0.7 MB and `analyze` by 1.5 MB, and dropping them before it
raised replay-shaped traces' by 0.04-0.07 MB, through how the C
allocator reuses freed blocks.  The first fault in file order is the one
reported, and nothing after it is read.
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
    enclosing decimal_io() block has read its text.  A stage that nests the
    last one converts and looks up only its two new elements, and its row's
    list is the last row's texts with one new text at each end.  A stage's
    new integers are written with the last stage's reach as the hint
    (digits.decimal_str): its new pair lies at 3c and 3c + b.
    """
    steps = tuple(steps)
    texts: dict[int, str] = {}
    nested: list[bool] = []
    with decimal_io():
        near, before = None, ()
        for step in steps:
            now = step.basis.elements
            nested.append(_nests(now, before))
            new = (now[0], now[-1]) if nested[-1] else now
            for n in chain(new, (step.radius, step.gap, step.reach)):
                if n is not None and n not in texts:
                    texts[n] = decimal_str(n, near)
            near, before = step.reach, now
    return _made_rows(steps, nested, texts)


def _nests(now, before) -> bool:
    """Whether the sequence `now` is `before` with one more item at each end, as each built stage extends the last."""
    return len(now) == len(before) + 2 and now[1:-1] == before


def _made_rows(steps: tuple[ConstructionStep, ...], nested: list[bool], texts: dict[int, str]) -> Iterator[dict]:
    listed: list[str] = []  # the last row's element texts
    for step, nests in zip(steps, nested):
        now = step.basis.elements
        listed = [texts[now[0]], *listed, texts[now[-1]]] if nests else [texts[a] for a in now]
        row = {"k": step.k, "elements": listed, "d": texts[step.radius], "b": texts[step.gap],
               "branch": "positive" if step.positive_branch else "negative"}
        if step.reach is not None:
            row["c"] = texts[step.reach]
        yield row


_GROUP = 1 << 16  # characters of element text: a row that may hold more is joined in groups of at most this many


def joined_rows(rows: Iterable[dict], separators: tuple[str, str], *,
                between: str = "", end: str = "") -> Iterator[str]:
    """json.dumps(row, sort_keys=True, separators=separators) for each row of step_rows, joined from its texts,
    after `between` for every row but the first and before `end`.

    Every value but k is canonical decimal text or a branch word, so none needs escaping.  Of canonical
    texts in increasing order, as a row's elements are, none is longer than both end ones.  So a row whose
    element count times its longer end text is at most _GROUP characters is one piece, and any other is
    yielded as its head, its elements in groups of at most _GROUP characters (a longer element alone), and
    its tail: neither this nor a text file that encodes each piece holds a long row whole.
    """
    item, key = separators
    apart = '"' + item + '"'
    lead = ""
    for row in rows:
        elements = row["elements"]
        mark = '"' if elements else ""  # an empty list is []
        reach = f'"c"{key}"{row["c"]}"{item}' if "c" in row else ""
        head = (f'{lead}{{"b"{key}"{row["b"]}"{item}"branch"{key}"{row["branch"]}"{item}{reach}'
                f'"d"{key}"{row["d"]}"{item}"elements"{key}[{mark}')
        tail = f'{mark}]{item}"k"{key}{json.dumps(row["k"])}}}{end}'
        lead = between
        longest = max(len(elements[0]), len(elements[-1])) if elements else 0
        if len(elements) * longest <= _GROUP:
            yield f"{head}{apart.join(elements)}{tail}"
            continue
        yield head
        del head  # the radius, gap and reach texts are not held while the groups are joined
        per = max(1, _GROUP // longest)  # elements to a group: none is longer than `longest`
        for start in range(0, len(elements), per):
            group = elements[start:start + per]
            yield apart.join([""] + group if start else group)  # a later group starts with the separator
        yield tail


def trace_lines(trace: BasisTrace) -> Iterator[str]:
    """The text of the trace file, a line or a piece of a long line at a time (joined_rows), made as taken.

    Every integer is converted before this returns, so a value past the
    digit limit raises here and not between lines.
    """
    rows = joined_rows(step_rows(trace.steps), (",", ":"), end="\n")
    header = json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION, "mode": trace.mode},
                        sort_keys=True, separators=(",", ":"))
    return chain([header + "\n"], rows)


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
        del line  # the row holds its own strings: the line's text is not kept while the next line is read
        yield lineno, obj


def _elements(raw: list, prev: tuple[list, IntSet], lineno: int, ints: dict[str, int]) -> IntSet:
    """The set a row's element strings spell, checked to be strictly increasing.

    A nested row is the last row's strings with one new string at each end;
    only those two are parsed and placed, which is also where a fault in it can lie.
    Once it passes, its middle is made the last row's strings themselves.
    """
    prev_raw, prev_basis = prev
    nested = _nests(raw, prev_raw)
    if nested:
        ends = _parse_int(raw[0], "element", lineno, ints), _parse_int(raw[-1], "element", lineno, ints)
    else:
        values = tuple(_parse_int(v, "element", lineno, ints) for v in raw)
    try:
        basis = prev_basis.with_ends(*ends) if nested else IntSet(values)
    except ValueError as e:  # elements out of order
        raise TraceFormatError(f"line {lineno}: {e}") from None
    if nested:  # the strings JSON just made for the middle go: each text is held once, by the last row's list
        raw[1:-1] = prev_raw
    return basis


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
