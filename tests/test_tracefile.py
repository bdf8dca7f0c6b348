"""Trace file format: round-trips, canonical bytes, malformed inputs."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from records import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbasis import (
    DigitLimitError,
    ExplicitReaches,
    LogLogGrowth,
    TraceFormatError,
    extend,
    initial_state,
    run_greedy,
    run_with_growth,
)
import urbasis
from urbasis import digits, tracefile
from urbasis.tracefile import read_file, serialize, write_file

import reference_codec


def _outcome(read, source):
    try:
        return read(source), None
    except (TraceFormatError, DigitLimitError) as e:
        return None, (type(e), str(e))


def parse(text):
    """tracefile.parse(text), checked against read_file of the same text written to a file.

    The file holds the text's UTF-8 bytes, a lone surrogate included.  Both
    must give equal traces, or the same error with the same message, so
    every text this module parses, well-formed or not, also tests the
    reader that streams a file one line at a time.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.trace")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8", "surrogatepass"))
        from_file = _outcome(read_file, path)
    from_text = _outcome(tracefile.parse, text)
    assert from_file == from_text
    trace, error = from_text
    if error is not None:
        raise error[0](error[1])
    return trace


def explicit_trace(slack):
    """Build a trace from per-stage reach slack, collecting the reaches used."""
    s = initial_state()
    reaches = []
    for extra in slack:
        reaches.append(s.radius + extra)
        s = extend(s, reaches[-1])
    return run_with_growth(ExplicitReaches(tuple(reaches)), len(slack) + 1)


def powers_of_ten_trace():
    """Reaches 10**e up to 5000 digits, so the later radii pass the interpreter's 4300-digit default."""
    return run_with_growth(ExplicitReaches(tuple(10**e for e in (1, 3, 30, 300, 1000, 2500, 4000, 4999))), 9)


def edit_rows(text, edits):
    """The trace text with stage rows rewritten: {line number: function of the row dict}."""
    lines = text.splitlines()
    for lineno, edit in edits.items():
        row = json.loads(lines[lineno - 1])
        edit(row)
        lines[lineno - 1] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


def set_element(old, new):
    """A row edit that replaces the element string `old` with `new`."""
    def edit(row):
        row["elements"] = [new if v == old else v for v in row["elements"]]
    return edit


class TestRoundTrip:
    def test_greedy(self):
        trace = run_greedy(5)
        assert parse(serialize(trace)) == trace

    def test_slow_growth_mode_preserved(self, slow10):
        again = parse(serialize(slow10))
        assert again == slow10
        assert again.mode == "loglog,2,4,3"

    def test_single_stage(self):
        trace = run_greedy(1)
        assert parse(serialize(trace)) == trace

    def test_file_round_trip(self, tmp_path):
        trace = run_greedy(4)
        path = str(tmp_path / "t.trace")
        write_file(trace, path)
        assert read_file(path) == trace

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=6))
    def test_any_explicit_trace(self, slack):
        trace = explicit_trace(slack)
        assert parse(serialize(trace)) == trace


class TestCanonicalBytes:
    def test_serialize_is_deterministic(self):
        trace = run_greedy(6)
        assert serialize(trace) == serialize(trace)

    def test_greedy_k160_bytes_frozen(self):
        digest = hashlib.sha256(serialize(run_greedy(160)).encode("utf-8")).hexdigest()
        assert digest == "3d53872264286dfd27d9c5ee18c79c10588deca6607006fbbf4ed65a102a6fd2"

    def test_reserialize_after_parse_is_identical(self, slow10):
        text = serialize(slow10)
        assert serialize(parse(text)) == text

    def test_layout(self):
        lines = serialize(run_greedy(2)).splitlines()
        assert len(lines) == 3
        header = json.loads(lines[0])
        assert header == {"format": "urbasis-trace", "version": "1", "mode": "greedy"}
        row = json.loads(lines[2])
        assert row["k"] == 2
        assert row["elements"] == ["-4", "0", "1", "3"]
        assert (row["d"], row["b"], row["branch"]) == ("4", "2", "negative")
        assert "c" not in row  # final stage not yet extended

    def test_integers_travel_as_decimal_strings(self, slow10):
        row = json.loads(serialize(slow10).splitlines()[-1])
        assert isinstance(row["d"], str)
        assert len(row["d"]) > 1000  # slow-growth radii are huge
        assert int(row["d"]) == slow10.final.radius


class TestMemoisedCodec:
    """The codec converts each distinct integer once and matches the per-row reference."""

    @pytest.mark.parametrize("name", ["greedy-160", "loglog-10", "powers-of-ten"])
    def test_matches_per_row_reference(self, name, slow10):
        trace = {"greedy-160": lambda: run_greedy(160), "loglog-10": lambda: slow10,
                 "powers-of-ten": powers_of_ten_trace}[name]()
        text = serialize(trace)
        assert text == reference_codec.serialize(trace)
        assert parse(text) == reference_codec.parse(text) == trace

    def test_rows_share_one_int_per_element(self):
        trace = parse(serialize(powers_of_ten_trace()))
        final = {a: a for a in trace.final.basis.elements}
        for step in trace.steps:
            assert all(a is final[a] for a in step.basis.elements)

    @pytest.mark.parametrize("value", [[-4], {"a": "-4"}], ids=["list", "object"])
    def test_non_string_element(self, value):
        text = edit_rows(serialize(run_greedy(2)), {3: set_element("-4", value)})
        with pytest.raises(TraceFormatError, match="line 3: element must be a decimal string"):
            parse(text)

    def test_repeated_bad_string_reports_first_line(self):
        text = edit_rows(serialize(run_greedy(4)), {3: set_element("0", "0x"), 5: set_element("0", "0x")})
        with pytest.raises(TraceFormatError, match="line 3: element is not a decimal integer: '0x'"):
            parse(text)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([(2, "d"), (3, "b"), (3, "c"), (4, "elements")]),
        st.one_of(st.integers(-10**6, 10**6).map(str), st.text(alphabet="-+0123456789 _\uff14", max_size=6)),
    )
    def test_accepted_text_reserializes_to_itself(self, field, value):
        lineno, key = field

        def edit(row):
            if key == "elements":
                row["elements"][0] = value  # the greedy K=3 row's least element, "-14"
            else:
                row[key] = value

        text = edit_rows(serialize(run_greedy(3)), {lineno: edit})
        try:
            trace = parse(text)
        except TraceFormatError:
            return
        assert serialize(trace) == text


def replay_shaped_trace(seed):
    """31 reaches 10**D, D from 1 by seeded steps of 1 to 1000 digits: radii of up to ~15,500 digits."""
    rng, exponent, reaches = random.Random(seed), 1, []
    for _ in range(31):
        reaches.append(10**exponent)
        exponent += rng.randint(1, 1000)
    return run_with_growth(ExplicitReaches(tuple(reaches)), 32)


JOINED_TRACES = {
    **{f"greedy-{k}": (lambda k=k: run_greedy(k)) for k in range(1, 41)},
    "loglog-10": lambda: run_with_growth(LogLogGrowth(2, 4, 3), 10),
    "replay-3": lambda: replay_shaped_trace(3),
    "replay-4": lambda: replay_shaped_trace(4),
    "c-list-200000": lambda: run_with_growth(ExplicitReaches((10**199_999,)), 2),
    "mode-quote": lambda: replace(run_greedy(3), mode='say "greedy"'),
    "mode-backslash": lambda: replace(run_greedy(3), mode="C:\\trace\\"),
    "mode-non-ascii": lambda: replace(run_greedy(3), mode="gr\u00e9edy \u03a3 \U0001d4b7"),
    "mode-line-separator": lambda: replace(run_greedy(3), mode="one\u2028two\u2029three\n"),
}


@pytest.fixture(scope="module")
def joined_reference():
    """name -> (trace, its rows by the reference codec), each made when first asked for."""
    made = {}

    def get(name):
        if name not in made:
            trace = JOINED_TRACES[name]()
            made[name] = trace, reference_codec.rows(trace)
        return made[name]
    return get


class TestJoinedRows:
    """Rows are joined from their texts, byte for byte as JSON-encoding them writes them."""

    @pytest.mark.parametrize("name", list(JOINED_TRACES))
    def test_serialize_matches_the_reference(self, joined_reference, name):
        trace, rows = joined_reference(name)
        assert serialize(trace) == reference_codec.dump(trace.mode, rows)  # reference_codec.serialize(trace)

    @pytest.mark.parametrize("name", list(JOINED_TRACES))
    def test_export_json_matches_json_dumps(self, joined_reference, name):
        from urbasis.cli import _json_steps
        trace, rows = joined_reference(name)
        assert "".join(_json_steps(trace)) == json.dumps({"mode": trace.mode, "steps": rows}, sort_keys=True) + "\n"

    @pytest.mark.parametrize("separators", [(",", ":"), (", ", ": ")])
    def test_any_row_as_json_dumps_writes_it(self, separators):
        rows = [{"k": 1, "elements": [], "d": "1", "b": "1", "branch": "positive"},
                {"k": True, "elements": ["-9", "0"], "d": "9", "b": "2", "branch": "negative", "c": "12"}]
        expected = [json.dumps(row, sort_keys=True, separators=separators) for row in rows]
        assert list(tracefile.joined_rows(rows, separators)) == expected


class TestMalformed:
    def test_empty(self):
        with pytest.raises(TraceFormatError):
            parse("")

    def test_header_only(self):
        text = serialize(run_greedy(2)).splitlines()[0]
        with pytest.raises(TraceFormatError, match="no stages"):
            parse(text)

    def test_truncated_line(self):
        text = serialize(run_greedy(3))
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            parse(text[:-30])

    def test_bad_header(self):
        with pytest.raises(TraceFormatError, match="header"):
            parse('{"format":"something-else","version":"1"}\n{"k":1}')

    def test_unknown_version(self):
        text = serialize(run_greedy(2)).replace('"version":"1"', '"version":"99"')
        with pytest.raises(TraceFormatError, match="version"):
            parse(text)

    def test_stage_gap(self):
        lines = serialize(run_greedy(3)).splitlines()
        with pytest.raises(TraceFormatError, match="1..K in order"):
            parse("\n".join([lines[0], lines[1], lines[3]]))

    def test_unsorted_elements(self):
        text = serialize(run_greedy(2)).replace('["-4","0","1","3"]', '["0","-4","1","3"]')
        with pytest.raises(TraceFormatError, match="strictly increasing"):
            parse(text)

    def test_unsorted_elements_are_not_formatted(self, monkeypatch):
        # the message shows the elements through digits.quote, which converts no long integer to decimal
        text = serialize(run_greedy(2)).replace('["-4","0","1","3"]', '["0","-4","1","3"]')
        quoted = []

        def quote(value):
            quoted.append(value)
            return digits.quote(value)
        monkeypatch.setattr("urbasis.intset.quote", quote)
        with pytest.raises(TraceFormatError) as refused:
            tracefile.parse(text)  # once: test_unsorted_elements reads this text from a file too
        assert str(refused.value) == "line 3: elements must be strictly increasing: 0 then -4"
        assert quoted == [0, -4]

    def test_non_decimal_field(self):
        text = serialize(run_greedy(2)).replace('"d":"4"', '"d":"four"')
        with pytest.raises(TraceFormatError, match="decimal"):
            parse(text)

    def test_numeric_instead_of_string(self):
        text = serialize(run_greedy(2)).replace('"d":"4"', '"d":4')
        with pytest.raises(TraceFormatError, match="decimal string"):
            parse(text)

    def test_bad_branch(self):
        text = serialize(run_greedy(2)).replace('"branch":"negative"', '"branch":"sideways"')
        with pytest.raises(TraceFormatError, match="branch"):
            parse(text)

    def test_missing_elements(self):
        with pytest.raises(TraceFormatError, match="elements"):
            parse('{"format":"urbasis-trace","version":"1","mode":""}\n'
                  '{"k":1,"d":"1","b":"1","branch":"negative"}')


class TestDigitLimit:
    def test_import_leaves_interpreter_limit(self):
        code = ("import sys; before = sys.get_int_max_str_digits(); import urbasis.cli; "
                "print(before == sys.get_int_max_str_digits())")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(urbasis.__file__)))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "True"

    def test_codec_restores_limit(self):
        before = sys.get_int_max_str_digits()
        trace = run_with_growth(ExplicitReaches((10**5000,)), 2)  # past the default 4300 digits
        assert parse(serialize(trace)) == trace
        assert sys.get_int_max_str_digits() == before

    def test_past_limit_raises(self, monkeypatch):
        text = serialize(run_with_growth(ExplicitReaches((10**5000,)), 2))
        monkeypatch.setattr(digits, "DECIMAL_DIGIT_LIMIT", 5000)
        with pytest.raises(DigitLimitError, match="more than 5000 decimal digits"):
            parse(text)
        with pytest.raises(DigitLimitError, match="more than 5000 decimal digits"):
            serialize(run_with_growth(ExplicitReaches((1, 4 * 10**4999)), 3))

    def test_repeated_value_past_limit_reports_first_line(self, monkeypatch):
        big = "1" + "0" * 5000
        text = edit_rows(serialize(run_greedy(4)), {3: set_element("-4", big), 5: set_element("-4", big)})
        monkeypatch.setattr(digits, "DECIMAL_DIGIT_LIMIT", 5000)
        with pytest.raises(DigitLimitError, match="line 3: element has more than 5000 decimal digits"):
            parse(text)


class TestStreamingReader:
    """read_file reads one line at a time, and parse reads the same bytes the same way.

    A line ends at LF alone, and the first fault in file order is the one
    reported: nothing after it is read.  `parse` in this module checks
    that both readers agree on every text it is given; the tests here pin
    where a line ends and which fault wins.
    """

    def test_an_earlier_wrong_k_outranks_bad_json(self):
        lines = serialize(run_greedy(4)).splitlines()
        lines[2] = lines[2].replace('"k":2', '"k":7')
        lines[4] = lines[4][:-5]
        with pytest.raises(TraceFormatError, match=r"^line 3: stage indices must run 1..K in order, got k=7$"):
            parse("\n".join(lines) + "\n")

    def test_an_earlier_value_past_limit_outranks_bad_json(self, monkeypatch):
        text = edit_rows(serialize(run_greedy(4)), {3: set_element("-4", "1" + "0" * 5000)})
        lines = text.splitlines()
        lines[4] = lines[4][:-5]
        monkeypatch.setattr(digits, "DECIMAL_DIGIT_LIMIT", 5000)
        with pytest.raises(DigitLimitError, match=r"^line 3: element has more than 5000 decimal digits"):
            parse("\n".join(lines) + "\n")

    @pytest.mark.parametrize("source", ["parse", "read_file"])
    def test_reading_stops_at_the_first_fault(self, tmp_path, monkeypatch, source):
        # greedy K=40 is 41 lines; a wrong k on line 3 is refused before line 4 is decoded
        text = serialize(run_greedy(40)).replace('"k":2}', '"k":9}')
        path = tmp_path / "t.trace"
        path.write_text(text, encoding="utf-8")
        decoded = []
        loads = json.loads

        def counted(line, *args, **kwargs):
            decoded.append(line)
            return loads(line, *args, **kwargs)
        monkeypatch.setattr(tracefile.json, "loads", counted)
        with pytest.raises(TraceFormatError, match=r"^line 3: stage indices must run 1..K in order, got k=9$"):
            tracefile.parse(text) if source == "parse" else read_file(str(path))
        assert len(decoded) == 3

    @pytest.mark.parametrize("separator, message", [
        ("\u2028", None),
        ("\x85", None),
        ("\x1e", "line 1: not valid JSON (Invalid control character at)"),
        ("\r", "line 1: not valid JSON (Invalid control character at)"),
    ], ids=["U+2028", "NEL", "RS", "CR"])
    def test_line_separator_inside_a_string_stays_in_the_line(self, separator, message):
        # only LF ends a line: JSON allows U+2028 and NEL raw in a string, but no control character
        trace = run_greedy(2)
        text = serialize(trace).replace('"mode":"greedy"', f'"mode":"gr{separator}eedy"')
        if message is None:
            assert parse(text) == replace(trace, mode=f"gr{separator}eedy")
        else:
            with pytest.raises(TraceFormatError) as refused:
                parse(text)
            assert str(refused.value) == message

    def test_crlf_and_blank_lines_keep_the_numbering(self):
        lines = serialize(run_greedy(4)).splitlines()
        text = "\r\n\r\n".join(lines[:3]) + "\r\n  \t\r\n\n" + "\r\n".join(lines[3:]) + "\r\n"
        assert parse(text) == run_greedy(4)
        with pytest.raises(TraceFormatError, match=r"^line 4: stage indices must run 1..K in order, got k=9$"):
            parse(text.replace('"k":3', '"k":9'))  # the eighth raw line

    def test_lone_surrogate_is_not_utf8(self):
        # parse reads the text's bytes, so it refuses what a file holding them is refused for
        text = serialize(run_greedy(2)).replace('"mode":"greedy"', '"mode":"gr\ud800eedy"')
        with pytest.raises(TraceFormatError, match=r"^line 1: not valid UTF-8$"):
            parse(text)

    @pytest.mark.parametrize("raw, message", [
        (b"\xff{}\n", "line 1: not valid UTF-8"),
        (b"\n \n{}\xc3\n", "line 1: not valid UTF-8"),
        (b'{"format":"other"}\xed\xa0\x80\n', "line 1: not valid UTF-8"),  # an encoded surrogate
        (b'{"format":"other"}\n\n{"k":1}\n\xed\xa0\x80\n', "missing or unrecognized header line"),
        (b"[\n\xff\n", "line 1: not valid JSON (Expecting value)"),
    ], ids=["first-line", "after-blank-lines", "outranks-a-header-fault", "after-a-header-fault", "after-bad-json"])
    def test_line_not_utf8(self, tmp_path, raw, message):
        path = tmp_path / "t.trace"
        path.write_bytes(raw)
        with pytest.raises(TraceFormatError) as refused:
            read_file(str(path))
        assert str(refused.value) == message


def _read_lines(reader, data):
    """What a line reader yields on the bytes, then its error message if it stops at a fault."""
    out = []
    try:
        out.extend(reader(io.BytesIO(data)))
    except ValueError as e:  # TraceFormatError is one
        out.append(str(e))
    return out


class TestRawLines:
    """The line reader decodes each line with its end, and gives the rows and faults of stripping it first."""

    # JSON, blank and whitespace-only lines (VT, FF, FS, NEL, U+3000), strings cut at the line end, bad UTF-8
    BODIES = [b'{"k":1}', b'[1, "a"]', b"7", b"", b" ", b"\t", b"\x0b", b"\x0c", b"\x1c", "\x85".encode(),
              "\u3000".encode(), " \u3000\x0c ".encode(), b'{"k":"ab', b'"', b'{"a":"\r', b'{"k":1}\xc2\x85',
              b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b'{"k":1', b"[", b"\r{}"]
    ENDS = [b"\n", b"\r\n", b"\r\r\n", b"\r", b"\r\r", b""]

    def test_matches_the_reader_that_stripped_first(self):
        rng = random.Random(0x11E5)
        faults = set()
        for _ in range(3000):
            data = b"".join(rng.choice(self.BODIES) + rng.choice(self.ENDS) for _ in range(rng.randint(1, 5)))
            expected = _read_lines(reference_codec.raw_rows, data)
            assert _read_lines(tracefile._rows, data) == expected
            if expected and isinstance(expected[-1], str):
                faults.add(expected[-1].split(": ", 1)[1])
        assert {"not valid UTF-8", "not valid JSON (Unterminated string starting at)",
                "not valid JSON (Invalid control character at)", "not valid JSON (Extra data)"} <= faults

    @pytest.mark.parametrize("data", [b'{"k":"ab\n', b'{"k":"ab\r\n', b'\n\x0c\r\n{"k":"ab\r\r'])
    def test_a_string_cut_at_the_line_end_is_unterminated(self, data):
        with pytest.raises(TraceFormatError, match=r"^line 1: not valid JSON \(Unterminated string starting at\)$"):
            list(tracefile._rows(io.BytesIO(data)))


def _every_element(raw, prev, lineno, ints):
    # the reader with the nested-row path switched off: every element string of the row is parsed and compared
    values = tuple(tracefile._parse_int(v, "element", lineno, ints) for v in raw)
    try:
        return urbasis.IntSet(values)
    except ValueError as e:
        raise TraceFormatError(f"line {lineno}: {e}") from None


class TestNestedRows:
    """A row that holds the last row's element strings with one new string at each end parses only those two.

    The values and the first fault of every row are those of parsing every string.
    """

    @pytest.mark.parametrize("source", ["parse", "read_file"])
    def test_each_row_decodes_two_element_strings(self, tmp_path, monkeypatch, source):
        text = serialize(run_greedy(40))
        path = tmp_path / "t.trace"
        path.write_text(text, encoding="utf-8")
        decoded = Counter()
        parse_int = tracefile._parse_int

        def counted(value, what, lineno, ints):
            decoded[lineno, what] += 1
            return parse_int(value, what, lineno, ints)
        monkeypatch.setattr(tracefile, "_parse_int", counted)
        trace = tracefile.parse(text) if source == "parse" else read_file(str(path))
        assert trace == run_greedy(40)
        elements = {lineno: n for (lineno, what), n in decoded.items() if what == "element"}
        assert elements == dict.fromkeys(range(2, 42), 2)  # rows 1..40 on lines 2..41

    def test_one_element_edits_give_the_faults_of_a_full_parse(self, tmp_path, monkeypatch):
        rng = random.Random(27)
        text = serialize(run_greedy(12))
        path = tmp_path / "t.trace"
        outcomes = Counter()
        for _ in range(300):
            lines = text.splitlines()
            lineno = rng.randrange(2, len(lines) + 1)
            row = json.loads(lines[lineno - 1])
            elements = row["elements"]
            middle = [rng.randrange(1, len(elements) - 1)] if len(elements) > 2 else []
            i = rng.choice([0, len(elements) - 1, *middle])
            kind = rng.choice(["changed", "number", "dropped"])
            if kind == "changed":
                elements[i] = rng.choice([str(int(elements[i]) + rng.choice((-2, -1, 1, 2))),
                                          rng.choice(["0x", "-0", "+1", " 1", "01", "", "\uff14"])])
            elif kind == "number":
                elements[i] = int(elements[i])
            else:
                del elements[i]
            lines[lineno - 1] = json.dumps(row, sort_keys=True, separators=(",", ":"))
            edited = "\n".join(lines) + "\n"
            path.write_text(edited, encoding="utf-8")
            nested = _outcome(tracefile.parse, edited), _outcome(read_file, str(path))
            with monkeypatch.context() as patched:
                patched.setattr(tracefile, "_elements", _every_element)
                full = _outcome(tracefile.parse, edited), _outcome(read_file, str(path))
            assert nested == full, (lineno, i, kind, elements)
            outcomes[nested[0][1] is None] += 1
        assert outcomes[True] > 50 and outcomes[False] > 50  # edits the reader refuses, and edits it reads


    def test_both_new_strings_bad_reports_the_first(self):
        def edit(row):
            row["elements"] = ["a", *row["elements"][1:-1], "b"]
        with pytest.raises(TraceFormatError, match=r"^line 4: element is not a decimal integer: 'a'$"):
            parse(edit_rows(serialize(run_greedy(4)), {4: edit}))


@pytest.fixture(scope="module")
def greedy320():
    return run_greedy(320)


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    """Greedy K=320 is 5.6 MB of trace text; reading or writing it holds one line of it at a time."""

    def test_write_file(self, tmp_path, greedy320):
        path = str(tmp_path / "t.trace")
        assert _peak(lambda: write_file(greedy320, path)) <= 4 * 2**20  # 10.9 MB with the whole text held
        assert os.path.getsize(path) == len(serialize(greedy320))

    def test_read_file(self, tmp_path, greedy320):
        path = str(tmp_path / "t.trace")
        write_file(greedy320, path)
        read = []
        assert _peak(lambda: read.append(read_file(path))) <= 4 * 2**20  # 22.8 MB with the whole text held
        assert read == [greedy320]

    def test_write_file_makes_each_row_as_its_line_is_written(self, tmp_path):
        # all 640 rows and their element lists at once peak at 4.3 MB; one row at a time, under 1 MB
        trace, path = run_greedy(640), str(tmp_path / "t.trace")
        assert _peak(lambda: write_file(trace, path)) <= 1.5 * 2**20
        with open(path, encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 641
