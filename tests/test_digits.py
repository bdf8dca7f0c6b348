"""The decimal I/O block: its digit limit, its conversion memo and power tables, and the split
conversions of long values; and how a message quotes a value."""

import builtins
import os
import random
import subprocess
import sys
from contextlib import nullcontext
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbasis import DigitLimitError, ExplicitReaches, run_with_growth
from urbasis import digits, tracefile
from urbasis.digits import canonical_int, decimal_int, decimal_io, decimal_str, quote
from urbasis.tracefile import parse, serialize, step_rows

import reference_codec
from undecimal import Undecimal

LONG = digits._MEMO_FLOOR + 100  # digits of a value the memo records


def spell(n, style):
    """A decimal text that int(text, 10) reads as n: canonical, or in one non-canonical style."""
    sign, body = ("-", str(-n)) if n < 0 else ("", str(n))
    if style == "plus":
        return (sign or "+") + body
    if style == "zeros":
        return sign + "00" + body
    if style == "underscore" and len(body) > 1:
        return sign + body[0] + "_" + body[1:]
    if style == "spaces":
        return f" {sign}{body}\n"
    return sign + body


integers = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(lambda d, r, neg: (-1) ** neg * (7 * 10**d + r),
              st.integers(0, LONG), st.integers(0, 10**6), st.integers(0, 1)),
)
styles = st.sampled_from(["canonical", "plus", "zeros", "underscore", "spaces"])


@settings(max_examples=60, deadline=None)
@given(reads=st.lists(st.tuples(integers, styles), max_size=12),
       floor=st.sampled_from([1, 3, digits._MEMO_FLOOR]))
def test_memo_returns_canonical_text_whatever_was_read(reads, floor):
    with mock.patch.object(digits, "_MEMO_FLOOR", floor), decimal_io():
        for n, style in reads:
            assert decimal_int(spell(n, style), "a value") == n
        for n, style in reads:
            assert decimal_str(n) == str(n)
            assert decimal_int(str(n), "a value") == n
            assert decimal_int(spell(n, style), "a value") == n


@pytest.mark.parametrize("style", ["plus", "zeros", "underscore", "spaces"])
def test_canonical_int_refuses_other_spellings(style):
    with decimal_io():
        for n in (17, -17, 10**LONG, -(10**LONG)):
            text = spell(n, style)
            assert canonical_int(text, "a value") == (n if text == str(n) else None)
            assert canonical_int(str(n), "a value") == n
        assert canonical_int("-0", "a value") is None and canonical_int("", "a value") is None


@pytest.mark.parametrize("text, refused", [
    ("+" + "1" * 1000, False), ("-" + "1" * 1000, False), (" 1" + "0" * 999 + "\n", False),
    ("1_" * 999 + "1", False), ("0" * 1000, False),
    ("0" + "1" * 1000, True), ("+" + "1" * 1001, True), ("1_" * 1000 + "1", True), (" " + "0" * 1001, True),
], ids=["plus", "minus", "spaces", "underscores", "zeros", "leading-zero-counts", "plus-past",
        "underscores-past", "zeros-past"])
def test_non_canonical_text_counted_as_int_counts(monkeypatch, text, refused):
    # a sign, surrounding spaces and underscores do not count, leading zeros do; refused before int()
    def no_int(*args):
        raise AssertionError("converted past the limit")

    monkeypatch.setattr(digits, "DECIMAL_DIGIT_LIMIT", 1000)
    if refused:
        monkeypatch.setattr(digits, "int", no_int, raising=False)
    with decimal_io():
        if refused:
            with pytest.raises(DigitLimitError, match="^a reach has more than 1000 decimal digits"):
                decimal_int(text, "a reach")
        else:
            assert decimal_int(text, "a reach") == int(text)


class TestLifetime:
    def test_no_memo_outside_a_block(self):
        text = "9" * LONG
        assert digits._memo is None
        with decimal_io():
            n = decimal_int(text, "a value")
        assert decimal_str(n) == text and digits._memo is None

    def test_nested_blocks_share_the_outermost_memo(self):
        text = "1" + "0" * LONG
        with decimal_io():
            outer = digits._memo
            with decimal_io():
                assert digits._memo is outer
                n = decimal_int(text, "a value")
            assert digits._memo is outer
            assert decimal_str(n) is text  # the text read, not a new conversion
        assert digits._memo is None

    def test_negation_written_from_the_text_read(self):
        with decimal_io():
            for text in ("7" * LONG, "-" + "7" * LONG):
                n = decimal_int(text, "a value")
                assert decimal_str(Undecimal(-n)) == str_of(-n)  # not converted
        assert digits._memo is None

    def test_memo_dropped_when_the_block_raises(self):
        with pytest.raises(RuntimeError):
            with decimal_io():
                with decimal_io():
                    decimal_str(10**LONG)
                    raise RuntimeError("inside")
        assert digits._memo is None

    def test_no_memo_when_the_limit_cannot_be_set(self, monkeypatch):
        def refuse(limit):  # as the interpreter refuses a limit below 640
            raise ValueError(f"cannot set a limit of {limit}")

        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        with pytest.raises(ValueError, match="cannot set a limit of 2000000"):
            with decimal_io():
                pass
        assert digits._memo is None

    def test_short_texts_are_not_recorded(self):
        with decimal_io():
            decimal_int("12345", "a value")
            decimal_str(10**20)
            assert digits._memo == {}

    def test_past_limit_raises_and_is_not_recorded(self, monkeypatch):
        monkeypatch.setattr(digits, "DECIMAL_DIGIT_LIMIT", 1000)
        with decimal_io():
            with pytest.raises(DigitLimitError, match="a reach has more than 1000"):
                decimal_int("1" + "0" * 1000, "a reach")
            with pytest.raises(DigitLimitError, match="an integer has more than 1000"):
                decimal_str(10**1000)
            assert digits._memo == {}


def test_block_reports_a_conversion_made_elsewhere(monkeypatch):
    monkeypatch.setattr(digits, "DECIMAL_DIGIT_LIMIT", 1000)
    with pytest.raises(DigitLimitError, match="^an integer has more than 1000 decimal digits"):
        with decimal_io():
            str(10**1000)
    with pytest.raises(ValueError, match="invalid literal"):  # any other ValueError passes unchanged
        with decimal_io():
            int("x")


# split thresholds lowered so that values of a few hundred digits take every split path
SMALL_SPLITS = {"_SPLITS": True, "_READ_SPLIT": 3, "_WRITE_CUTOFF": 8, "_WRITE_SPLIT": 4}


@st.composite
def edge_integers(draw):
    """0, 10**k, 10**k - 1, 2**k - 1, and lengths of S * 2**j +- 1 digits or C * 2**j +- 1 bits, either sign."""
    kind = draw(st.sampled_from(["zero", "ten", "ten-1", "two-1", "aligned-digits", "aligned-bits"]))
    k = draw(st.integers(0, 700))
    edge = draw(st.sampled_from([-1, 0, 1]))
    if kind == "zero":
        n = 0
    elif kind == "ten":
        n = 10**k
    elif kind == "ten-1":
        n = 10**k - 1
    elif kind == "two-1":
        n = 2 ** (3 * k) - 1
    elif kind == "aligned-digits":
        length = SMALL_SPLITS["_READ_SPLIT"] * 2 ** draw(st.integers(0, 7)) + edge
        n = draw(st.integers(10 ** (length - 1), 10**length - 1))
    else:
        bits = SMALL_SPLITS["_WRITE_SPLIT"] * 2 ** draw(st.integers(0, 9)) + edge
        n = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    return -n if draw(st.booleans()) else n


class TestSplitConversion:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(edge_integers(), min_size=1, max_size=4), in_block=st.booleans())
    def test_split_read_and_write_equal_int_and_str(self, values, in_block):
        with mock.patch.multiple(digits, **SMALL_SPLITS):
            with decimal_io() if in_block else nullcontext():
                for n in values:
                    text = str(n)
                    assert canonical_int(text, "a value") == int(text) == n
                    assert decimal_str(n) == text
                    if in_block:  # convert again, with the tables filled
                        digits._memo.clear()
                    assert decimal_str(n) == text
                    assert canonical_int(text, "a value") == n

    @pytest.mark.parametrize("digit_count", [1_000, 1_024, 1_025, 2_049, 15_000, 70_000])
    @mock.patch.object(digits, "_SPLITS", True)  # on every interpreter
    def test_default_splits_equal_int_and_str(self, digit_count):
        for n in (10**digit_count - 1, -(10 ** (digit_count - 1)), 2 ** (digit_count * 10 // 3) - 1):
            text = str_of(n)
            with decimal_io():
                assert canonical_int(text, "a value") == n
                assert decimal_str(n) is text  # recorded by the read
                digits._memo.clear()
                assert decimal_str(n) == text

    @pytest.mark.parametrize("half", [10**15_000 - 1, 5 * 10**14_999, 7**17_000],
                             ids=["twice-gains-a-digit", "twice-is-a-power-of-ten", "power-of-seven"])
    @pytest.mark.parametrize("negative_first", [False, True])
    @pytest.mark.parametrize("recorded_sign", [1, -1])
    @mock.patch.object(digits, "_SPLITS", True)  # on every interpreter
    def test_twice_a_recorded_value_is_written_by_doubling_its_text(self, monkeypatch, half, negative_first,
                                                                   recorded_sign):
        def no_split(*args):
            raise AssertionError("converted from scratch")

        twice = [-2 * half, 2 * half] if negative_first else [2 * half, -2 * half]
        expected = [str_of(n) for n in twice]
        monkeypatch.setattr(digits, "_write_split", no_split)
        with decimal_io():
            assert canonical_int(str_of(recorded_sign * half), "a radius") == recorded_sign * half
            assert [decimal_str(n) for n in twice] == expected
        with decimal_io():  # an odd neighbour is converted in full
            canonical_int(str_of(half), "a radius")
            with pytest.raises(AssertionError, match="converted from scratch"):
                decimal_str(2 * half + 1)

    def test_past_limit_fails_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("converted past the limit")

        monkeypatch.setattr(digits, "DECIMAL_DIGIT_LIMIT", 1000)
        monkeypatch.setattr(digits, "_read_split", no_work)
        monkeypatch.setattr(digits, "_write_decimal", no_work)
        with mock.patch.multiple(digits, **SMALL_SPLITS), decimal_io():
            for text in ("1" + "0" * 1000, "-" + "9" * 1001):
                with pytest.raises(DigitLimitError, match="a reach has more than 1000 decimal digits"):
                    canonical_int(text, "a reach")
            for n in (10**1000, -(10**1000), 2**4000):  # 10**1000 has the bit length of 1000-digit integers
                with pytest.raises(DigitLimitError, match="an integer has more than 1000 decimal digits"):
                    decimal_str(n)
            assert digits._memo == {}
        with mock.patch.multiple(digits, **SMALL_SPLITS):  # outside a block, the interpreter's limit
            limit = sys.get_int_max_str_digits()
            with pytest.raises(DigitLimitError, match=f"a reach has more than {limit} decimal digits"):
                canonical_int("7" * (limit + 1), "a reach")
            with pytest.raises(DigitLimitError, match=f"an integer has more than {limit} decimal digits"):
                decimal_str(7 * 10**limit)

    def test_at_the_limit_converts(self, monkeypatch):
        monkeypatch.setattr(digits, "DECIMAL_DIGIT_LIMIT", 1000)
        with mock.patch.multiple(digits, **SMALL_SPLITS), decimal_io():
            for n in (10**1000 - 1, -(10**1000 - 1)):
                text = str_of(n)
                assert decimal_str(n) == text and canonical_int(text, "a value") == n


def str_of(n):
    """str(n) under a digit limit raised for the call."""
    with decimal_io():
        return str(n)


def _no_scratch(*args):
    raise AssertionError("converted from scratch")


class TestDerivedFromNear:
    """decimal_str(n, near=r) writes |n| = q*|r| + s, 1 <= q <= 3, 0 <= s < 2**64, from r's recorded text."""

    SIGNS = [(n, r, recorded) for n in (1, -1) for r in (1, -1) for recorded in (1, -1)]

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_str_without_converting_from_scratch(self, monkeypatch, seed):
        rng = random.Random(seed)
        length = (3_500, 20_000, *(rng.randint(3_500, 20_000) for _ in range(4)))[seed]
        r_text = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(length - 1))
        sizes = {}
        with decimal_io():
            r = canonical_int(r_text, "a reach")
            for q in (1, 2, 3):
                for s in (0, 1, 17, 2**64 - 1):
                    sizes[q, s] = q * r + s, str(q * r + s)
        monkeypatch.setattr(digits, "_write_decimal", _no_scratch)  # the split writer; Undecimal refuses str()
        for (q, s), (size, text) in sizes.items():
            for n_sign, r_sign, recorded_sign in self.SIGNS:
                with decimal_io():
                    canonical_int(("-" if recorded_sign < 0 else "") + r_text, "a reach")
                    n = Undecimal(n_sign * size)
                    assert decimal_str(n, near=r_sign * r) == ("-" if n_sign < 0 else "") + text, (q, s)

    @pytest.mark.parametrize("case", ["q=4", "q=0", "s=2**64", "r=0", "r-not-recorded"])
    @mock.patch.object(digits, "_SPLITS", True)  # on every interpreter, so that the fallback is seen
    def test_a_hint_that_does_not_fit_falls_back(self, monkeypatch, case):
        r = 7**12_000 + 1  # 33,689 bits, and each n below has more than _WRITE_CUTOFF: the split writer's
        n, near = {"q=4": (4 * r + 5, r), "q=0": (r // 2 - 1, r), "s=2**64": (3 * r + 2**64, r),
                   "r=0": (3 * r, 0), "r-not-recorded": (3 * (r + 2) + 1, r + 2)}[case]
        expected = str_of(n)
        written = []
        write_decimal = digits._write_decimal
        monkeypatch.setattr(digits, "_write_decimal", lambda *args: written.append(args) or write_decimal(*args))
        for sign in (1, -1):
            with decimal_io():
                canonical_int(str_of(r), "a reach")
                assert decimal_str(sign * n, near=sign * near) == ("-" if sign < 0 else "") + expected
        assert len(written) == 2

    @pytest.mark.parametrize("q", [1, 3])
    def test_no_hint_is_read_up_to_10_000_bits(self, monkeypatch, q):
        r = 10**2_999  # 9,963 bits; 3r + 1 has 9,965
        monkeypatch.setattr(digits, "_derived", _no_scratch)
        with decimal_io():
            canonical_int(str_of(r), "a reach")
            assert (q * r + 1).bit_length() <= digits._WRITE_SPLIT
            assert decimal_str(q * r + 1, near=r) == str_of(q * r + 1)

    @mock.patch.object(digits, "_SPLITS", True)  # on every interpreter
    def test_step_rows_write_each_new_pair_from_the_last_reach(self, monkeypatch):
        reaches = tuple(10**e for e in (1, 700, 2_000, 3_500, 5_000, 9_000, 12_000))
        trace = run_with_growth(ExplicitReaches(reaches), len(reaches) + 1)
        expected = reference_codec.rows(trace)

        def short_str(value):  # str() of no integer past the derived floor
            if isinstance(value, int) and value.bit_length() > digits._WRITE_SPLIT:
                _no_scratch()
            return builtins.str(value)

        with decimal_io():
            for c in reaches:  # as `build` reads its --c-list
                canonical_int(str_of(c), "a reach")
            monkeypatch.setattr(digits, "_write_decimal", _no_scratch)
            monkeypatch.setattr(digits, "str", short_str, raising=False)
            assert list(step_rows(trace.steps)) == expected
            assert max(len(a.lstrip("-")) for a in expected[-1]["elements"]) == 12_001  # digits of 3 * 10**12_000


class TestPowerTables:
    def test_dropped_with_the_outermost_block(self):
        assert digits._powers is None
        with mock.patch.multiple(digits, **SMALL_SPLITS), decimal_io():
            tables = digits._powers
            with decimal_io():
                assert digits._powers is tables
                decimal_str(10**300)
                canonical_int("9" * 300, "a value")
            assert tables.fives and tables.twos  # filled inside the nested block, kept by the outer
        assert digits._powers is None

    def test_dropped_when_the_block_raises(self):
        with pytest.raises(RuntimeError), mock.patch.multiple(digits, **SMALL_SPLITS):
            with decimal_io():
                decimal_str(10**300)
                assert digits._powers.twos
                raise RuntimeError("inside")
        assert digits._powers is None

    def test_none_kept_outside_a_block(self):
        with mock.patch.multiple(digits, **SMALL_SPLITS):
            assert decimal_str(10**300) == str(10**300)
            assert canonical_int("9" * 300, "a value") == 10**300 - 1
        assert digits._powers is None


def test_small_integers_do_not_load_decimal():
    """Without a recorded text to derive it from, only an integer past the write cutoff imports the decimal module
    (from Python 3.12, int() and str() do)."""
    code = ("import sys\n"
            "from urbasis.digits import decimal_io, decimal_str, canonical_int\n"
            "with decimal_io():\n"
            "    decimal_str(-(2 ** 29_999)); canonical_int('9' * 1500, 'a value')\n"
            "print('decimal' in sys.modules)\n"
            "with decimal_io():\n"
            "    decimal_str(2 ** 30_000)\n"
            "print('decimal' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(digits.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "True"]


def test_rows_of_a_parsed_trace_reuse_its_texts():
    reaches = (10, 10**LONG, 10**(2 * LONG))
    text = serialize(run_with_growth(ExplicitReaches(reaches), len(reaches) + 1))
    with decimal_io():
        trace = parse(text)
        rows = step_rows(trace.steps)
        memo = digits._memo
        long_values = [(row["d"], step.radius) for row, step in zip(rows, trace.steps) if len(row["d"]) >= LONG]
        assert long_values
        for written, value in long_values:
            assert written is memo[value]  # recorded by parse, so not converted again


def test_parse_matches_each_long_text_once(monkeypatch):
    reaches = (10, 10**LONG, 10**(2 * LONG))
    text = serialize(run_with_growth(ExplicitReaches(reaches), len(reaches) + 1))
    pattern, matched = digits.CANONICAL_DECIMAL, []
    counting = SimpleNamespace(fullmatch=lambda t: matched.append(t) or pattern.fullmatch(t))
    monkeypatch.setattr(digits, "CANONICAL_DECIMAL", counting)
    monkeypatch.setattr(tracefile, "CANONICAL_DECIMAL", counting, raising=False)  # if tracefile matches too
    parse(text)
    long_texts = [t for t in matched if len(t) >= digits._MEMO_FLOOR]
    assert len(set(long_texts)) >= 4  # the two long reaches and the radii they make
    assert len(long_texts) == len(set(long_texts))



@pytest.mark.parametrize("sign", [1, -1])
def test_a_text_whose_negation_was_read_is_not_converted(monkeypatch, sign):
    n = sign * 7**3000  # 2,536 digits
    text, negated, doubled = str_of(n), str_of(-n), "--" + str_of(abs(n))
    with decimal_io():
        assert canonical_int(text, "a value") == n
        monkeypatch.setattr(digits, "CANONICAL_DECIMAL", None)  # neither matched nor converted
        assert canonical_int(negated, "a value") == -n
        assert digits._memo[negated] == -n and digits._memo[-n] is negated  # recorded, as a conversion is
        monkeypatch.undo()
        assert canonical_int(doubled, "a value") is None

class TestQuoteIntegers:
    @settings(max_examples=200)
    @given(st.integers(-(10**40 - 1), 10**40 - 1))
    def test_up_to_40_digits_prints_as_repr(self, n):
        assert quote(n) == repr(n)

    @pytest.mark.parametrize("k", [39, 40, 4300, 4301, 100_000])
    def test_digit_count_is_exact(self, k):
        for n, count in ((10**k - 1, k), (10**k, k + 1), (-(10**k), k + 1)):
            shown = repr(n) if count <= 40 else f"{'-' if n < 0 else ''}<{count}-digit integer>"
            assert quote(n) == shown
            with decimal_io():
                assert quote(n) == shown
                decimal_str(n)  # recorded in the block's memo when 500 digits or more
                assert quote(n) == shown

    @pytest.mark.parametrize("n, shown", [
        (10**40, "<41-digit integer>"), (-7 * 10**640, "-<641-digit integer>"),
    ], ids=["41-digits", "641-digits"])
    def test_never_converts_a_long_integer(self, n, shown):
        assert quote(Undecimal(n)) == shown
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # also under the interpreter's lowest digit limit
        try:
            assert quote(n) == shown
        finally:
            sys.set_int_max_str_digits(saved)
