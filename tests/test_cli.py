"""End-to-end command-line behavior: exit codes, output shapes, file handling."""

import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbasis import ExplicitReaches, ThresholdTable, cli, digits, run_greedy, run_with_growth, tracefile
from urbasis.bounds import growth_report
from urbasis.cli import main
from urbasis.construction import LogLogGrowth
from urbasis.oracle import brute_rep_report, verify_trace
from urbasis.tracefile import read_file, serialize, step_rows, write_file

from budget_check import budget_at_least


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as e:  # argparse's own rejections
        return e.code


def build_greedy(tmp_path, k, name="t.trace"):
    path = str(tmp_path / name)
    assert run_cli("build", "--greedy", str(k), "-o", path) == 0
    return path


def dense_interval_trace(tmp_path, m):
    """A parseable trace whose single stage is the interval [-m, m]."""
    dump = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))
    header = dump({"format": "urbasis-trace", "version": "1", "mode": ""})
    row = dump({
        "k": 1,
        "elements": [str(v) for v in range(-m, m + 1)],
        "d": str(m), "b": "1", "branch": "negative",
    })
    path = str(tmp_path / "interval.trace")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + row + "\n")
    return path


def long_explicit_trace():
    """A trace whose reaches and radii are longer than the digits memo's floor."""
    reaches = (10, 10**600, 10**1300)
    return run_with_growth(ExplicitReaches(reaches), len(reaches) + 1)


def long_c_list_trace(tmp_path):
    """A --c-list trace whose reaches and radii have 600 to 2000 digits, and the radius of stage 3."""
    reaches = tmp_path / "long.txt"
    reaches.write_text("\n".join(["10", "1" + "0" * 600, "7" + "3" * 1000, "1" + "0" * 2000]) + "\n")
    path = str(tmp_path / "long.trace")
    assert run_cli("build", "--c-list", str(reaches), "-o", path) == 0
    return path, str(read_file(path).steps[2].radius)


def rewrite_row(path, k, **fields):
    """Overwrite fields of stage k in a trace file, keeping canonical layout."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = json.loads(lines[k])
    row.update(fields)
    lines[k] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class TestBuild:
    def test_greedy(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 3)
        assert capsys.readouterr().out.strip() == "K=3 radius=14 gap=5"
        assert read_file(path) == run_greedy(3)

    def test_c_list_matches_greedy_steps(self, tmp_path, capsys):
        reaches = tmp_path / "c.txt"
        reaches.write_text("[1, 4]\n")
        path = str(tmp_path / "out.trace")
        assert run_cli("build", "--c-list", str(reaches), "-o", path) == 0
        trace = read_file(path)
        assert trace.steps == run_greedy(3).steps
        assert trace.mode == "explicit"

    def test_threshold_table(self, tmp_path, capsys):
        path = str(tmp_path / "out.trace")
        assert run_cli("build", "--threshold", "table,4:10;6:100", "3", "-o", path) == 0
        assert "K=3 radius=302" in capsys.readouterr().out
        assert read_file(path) == run_with_growth(ThresholdTable({4: 10, 6: 100}), 3)

    def test_threshold_loglog(self, tmp_path):
        path = str(tmp_path / "out.trace")
        assert run_cli("build", "--threshold", "loglog,2,4,3", "5", "-o", path) == 0
        trace = read_file(path)
        assert trace.mode == "loglog,2,4,3"
        assert trace.final.k == 5

    def test_non_canonical_long_reaches_build_the_canonical_trace(self, tmp_path, capsys):
        # the reach texts are long enough for the digits memo, which must not write them back as read
        canonical = ["10", "1" + "0" * 600, "1" + "0" * 1300, "1" + "0" * 2000]
        spelled = ["+10", "+" + canonical[1], "000" + canonical[2], "1_" + canonical[3][1:]]
        outputs = []
        for name, entries in (("canonical", canonical), ("spelled", spelled)):
            reaches = tmp_path / f"{name}.txt"
            reaches.write_text("\n".join(entries) + "\n")
            path = tmp_path / f"{name}.trace"
            assert run_cli("build", "--c-list", str(reaches), "-o", str(path)) == 0
            outputs.append((path.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert run_cli("verify", str(tmp_path / "spelled.trace")) == 0

    def test_zero_stages_rejected(self, tmp_path, capsys):
        assert run_cli("build", "--greedy", "0", "-o", str(tmp_path / "x")) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_integer_greedy_k_rejected(self, tmp_path, capsys):
        assert run_cli("build", "--greedy", "1.5", "-o", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == "error: K must be an integer, got '1.5'\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read reach list: [Errno 21] Is a directory: {path!r}"),
        ("1 4 x\n", "reach list {path!r} must contain only integers"),
        ("[ ]\n", "reach list {path!r} is empty"),
    ], ids=["directory", "not-integers", "empty"])
    def test_unusable_reach_list_refused(self, tmp_path, capsys, content, message):
        reaches = tmp_path / "c"
        if content is None:
            reaches.mkdir()
        else:
            reaches.write_text(content)
        out = tmp_path / "x.trace"
        assert run_cli("build", "--c-list", str(reaches), "-o", str(out)) == 2
        assert capsys.readouterr().err == "error: " + message.format(path=str(reaches)) + "\n"
        assert not out.exists()

    def test_c_list_reach_below_radius(self, tmp_path, capsys):
        reaches = tmp_path / "c.txt"
        reaches.write_text("1 2\n")  # stage 3 needs c >= 4
        assert run_cli("build", "--c-list", str(reaches), "-o", str(tmp_path / "x")) == 2

    def test_bad_threshold_family(self, tmp_path):
        assert run_cli("build", "--threshold", "banana,1,2", "3", "-o", str(tmp_path / "x")) == 2

    def test_bad_threshold_k(self, tmp_path):
        assert run_cli("build", "--threshold", "log,2,2", "many", "-o", str(tmp_path / "x")) == 2

    def test_decreasing_table_refused_before_its_target_is_read(self, tmp_path, capsys):
        # K=2 reads only target 4; the table is refused when it is built
        assert run_cli("build", "--threshold", "table,4:100;6:10", "2", "-o", str(tmp_path / "x")) == 2
        assert "decreases" in capsys.readouterr().err

    def test_repeated_table_target_refused(self, tmp_path, capsys):
        assert run_cli("build", "--threshold", "table,4:10;4:20", "2", "-o", str(tmp_path / "x")) == 2
        assert "threshold table gives target 4 twice" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, target", [("table,3:1;4:10;6:100", 3), ("table,4:10;5:1", 5)])
    def test_table_target_no_stage_reads_refused(self, tmp_path, capsys, spec, target):
        # the builder asks only for even targets >= 4
        assert run_cli("build", "--threshold", spec, "3", "-o", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert f"target {target} is never read" in err and "decreases" not in err

    def test_budget_label_keeps_every_digit(self, tmp_path):
        path = str(tmp_path / "out.trace")
        assert run_cli("build", "--threshold", "log,1.2345678,0.1234567", "6", "-o", path) == 0
        assert read_file(path).mode == "log,1.2345678,0.1234567"

    @pytest.mark.parametrize("spec, name", [
        ("log,nan,0", "scale"),
        ("loglog,inf,4", "scale"),
        ("log,1,nan", "offset"),
        ("log,1,-inf", "offset"),
    ])
    def test_non_finite_budget_parameter_refused(self, tmp_path, capsys, spec, name):
        assert run_cli("build", "--threshold", spec, "4", "-o", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert f"bad threshold spec {spec!r}" in err and f"{name} must be finite" in err

    @pytest.mark.parametrize("spec, message", [
        ("log,2,2,2", "log takes 2 parameters, got 3"),
        ("log,2", "log takes 2 parameters, got 1"),
        ("loglog,2", "loglog takes 2 or 3 parameters, got 1"),
        ("loglog,1,2,3,4", "loglog takes 2 or 3 parameters, got 4"),
    ])
    def test_parameter_count_named(self, tmp_path, capsys, spec, message):
        assert run_cli("build", "--threshold", spec, "4", "-o", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == f"error: bad threshold spec {spec!r}: {message}\n"

    @pytest.mark.parametrize("spec, message", [
        ("table,4:" + "9" * 2_000_001, "a table entry has more than 2000000 decimal digits"),
        ("log,2," + "1" * 500_000 + "x", "offset is not a number: '1111"),
    ], ids=["table-entry-past-digit-limit", "long-offset-not-a-number"])
    def test_long_spec_error_is_short(self, tmp_path, capsys, spec, message):
        assert run_cli("build", "--threshold", spec, "3", "-o", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.encode()) < 1024

    def test_sources_mutually_exclusive(self, tmp_path):
        code = run_cli("build", "--greedy", "3", "--c-list", "c.txt", "-o", str(tmp_path / "x"))
        assert code == 2

    def test_source_required(self, tmp_path):
        assert run_cli("build", "-o", str(tmp_path / "x")) == 2


class TestVerify:
    def test_pass_text(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 4)
        capsys.readouterr()
        assert run_cli("verify", path) == 0
        out = capsys.readouterr().out
        for name in ("rep-scan", "unique-window", "decomposition", "gap-growth", "radius", "gap"):
            assert f"PASS {name}" in out
        assert "verification: PASS" in out

    def test_single_stage(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 1)
        assert run_cli("verify", path) == 0
        assert "gap-growth" not in capsys.readouterr().out  # needs two stages

    def test_fast_flag_rejected(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 5)
        capsys.readouterr()
        assert run_cli("verify", path, "--fast", "--format", "json") == 2
        assert "--fast" in capsys.readouterr().err

    def test_default_window_is_twice_radius(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 4)
        capsys.readouterr()
        assert run_cli("verify", path, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        scan = next(row for row in payload["checks"] if row["name"] == "rep-scan")
        assert scan["window"] == [-94, 94]

    def test_corrupted_elements_exit_1(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 2)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        broken = text.replace('["-4","0","1","3"]', '["-4","0","1","4"]')
        assert broken != text
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(broken)
        capsys.readouterr()
        assert run_cli("verify", path, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        scan = next(row for row in payload["checks"] if row["name"] == "rep-scan")
        assert scan["ok"] is False
        assert scan["witness"]["n"] == 0
        assert scan["witness"]["count"] == 2
        assert scan["witness"]["pairs"] == [[-4, 4], [0, 0]]

    def test_corrupted_elements_text_output(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 2)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace('["-4","0","1","3"]', '["-4","0","1","4"]'))
        capsys.readouterr()
        assert run_cli("verify", path) == 1
        out = capsys.readouterr().out
        assert "FAIL rep-scan" in out
        assert "verification: FAIL" in out

    def test_recorded_reach_mismatch_exit_1(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 6)
        implied = read_file(path).step(3).reach
        rewrite_row(path, 3, c=str(implied + 5))
        capsys.readouterr()
        assert run_cli("verify", path, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        decomp = next(row for row in payload["checks"] if row["name"] == "decomposition")
        assert decomp["witness"] == {
            "reason": "reach-mismatch", "stage": 3, "recorded": implied + 5, "implied": implied,
        }

    def test_reach_on_final_row_exit_1(self, tmp_path, capsys):
        # build never records a reach on the last stage: no later stage places its pair
        path = build_greedy(tmp_path, 12)
        rewrite_row(path, 12, c="999999999")
        capsys.readouterr()
        assert run_cli("verify", path, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in payload["checks"] if not row["ok"]] == ["decomposition"]
        decomp = next(row for row in payload["checks"] if row["name"] == "decomposition")
        assert decomp["witness"] == {"reason": "final-reach", "stage": 12, "recorded": 999999999}

    def test_recorded_radius_mismatch_exit_1(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 6)
        radius = read_file(path).final.radius
        rewrite_row(path, 6, d="1")
        capsys.readouterr()
        assert run_cli("verify", path, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        scan = next(row for row in payload["checks"] if row["name"] == "rep-scan")
        assert scan["ok"] is True
        assert scan["window"] == [-2 * radius, 2 * radius]
        check = next(row for row in payload["checks"] if row["name"] == "radius")
        assert check["witness"] == {"reason": "radius-mismatch", "stage": 6, "recorded": 1, "actual": radius}

    @pytest.mark.parametrize("field", ["b", "branch"])
    def test_recorded_final_gap_mismatch_exit_1(self, tmp_path, capsys, field):
        path = build_greedy(tmp_path, 6)
        final = read_file(path).final
        actual = {"b": final.gap, "branch": "positive" if final.positive_branch else "negative"}
        recorded = dict(actual)
        if field == "b":
            recorded["b"] += 1
        else:
            recorded["branch"] = "negative" if final.positive_branch else "positive"
        rewrite_row(path, 6, b=str(recorded["b"]), branch=recorded["branch"])
        capsys.readouterr()
        assert run_cli("verify", path, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in payload["checks"] if not row["ok"]] == ["gap"]
        check = payload["checks"][-1]
        assert check["witness"] == {"reason": "gap-mismatch", "stage": 6, "recorded": recorded, "actual": actual}

    def test_truncated_file_exit_2(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 3)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text[:-25])
        assert run_cli("verify", path) == 2
        assert "trace format error" in capsys.readouterr().err

    @pytest.mark.parametrize("line, edit, message", [
        (0, lambda row: {**row, "mode": 7}, "header mode must be a string"),
        (1, lambda row: [row], "line 2: stage row must be an object"),
        (1, lambda row: {**row, "k": "1"}, "line 2: k must be an integer"),
    ], ids=["mode-not-string", "row-not-object", "k-is-text"])
    def test_malformed_trace_refused(self, tmp_path, capsys, line, edit, message):
        path = build_greedy(tmp_path, 3)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[line] = json.dumps(edit(json.loads(lines[line])))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("verify", path) == 2
        assert capsys.readouterr().err == f"trace format error: {message}\n"

    def test_added_pair_off_the_sign_rule_fails(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 3)
        rewrite_row(path, 2, elements=["0", "1", "7", "9"])
        capsys.readouterr()
        assert run_cli("verify", path) == 1
        witness = {"refused": "added pair [7, 9] is not one negative and one positive element", "stage": 2}
        assert f"FAIL decomposition  witness={witness}" in capsys.readouterr().out.splitlines()

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert run_cli("verify", str(tmp_path / "nope.trace")) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, field, message", [
        (2, "d", "line 3: d is not a decimal integer"),
        (0, "version", "unsupported format version"),
    ], ids=["d", "version"])
    def test_long_bad_value_message_is_bounded(self, tmp_path, capsys, line, field, message):
        path = build_greedy(tmp_path, 2)
        rewrite_row(path, line, **{field: "x" * 1_000_000})
        capsys.readouterr()
        assert run_cli("verify", path) == 2
        err = capsys.readouterr().err
        assert message in err and "(1000000 characters)" in err
        assert len(err.encode()) < 1024

    def test_long_ordering_message_is_bounded(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 2)
        rewrite_row(path, 2, elements=["-4", "0", "2" + "0" * 99_999, "1" + "0" * 99_999])
        capsys.readouterr()
        assert run_cli("verify", path) == 2
        err = capsys.readouterr().err
        assert err == (
            "trace format error: line 3: elements must be strictly increasing: "
            "<100000-digit integer> then <100000-digit integer>\n"
        )

    @pytest.mark.parametrize("text, replaces", [
        (" -4", "-4"), ("-4 ", "-4"), ("-04", "-4"), ("-0_4", "-4"), ("-\uff14", "-4"), ("-0", "0"),
    ], ids=["lead-space", "trail-space", "lead-zero", "underscore", "full-width", "minus-zero"])
    def test_non_canonical_decimal_is_refused(self, tmp_path, capsys, text, replaces):
        path = build_greedy(tmp_path, 2)
        elements = [text if v == replaces else v for v in ["-4", "0", "1", "3"]]
        rewrite_row(path, 2, elements=elements)
        capsys.readouterr()
        assert run_cli("verify", path) == 2
        assert "line 3: element is not a decimal integer" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_json_checks_are_the_library_rows(self, tmp_path, capsys, corrupt):
        path = build_greedy(tmp_path, 12)
        if corrupt:
            rewrite_row(path, 5, b=str(read_file(path).step(5).gap + 1))
        capsys.readouterr()
        assert run_cli("verify", path, "--format", "json") == (1 if corrupt else 0)
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"] == json.loads(json.dumps(verify_trace(read_file(path))))


    @pytest.mark.parametrize("source", ["greedy12", "greedy12-corrupt", "slow10", "long", "long-corrupt"])
    def test_json_is_json_dumps_of_the_rows(self, tmp_path, capsys, request, source):
        """verify --format json prints what json.dumps of the library rows prints, whatever their integers' size."""
        path = str(tmp_path / "t.trace")
        trace = long_explicit_trace() if source.startswith("long") else request.getfixturevalue(source.split("-")[0])
        write_file(trace, path)
        if source.endswith("corrupt"):  # a radius one too long: witnesses with the trace's largest integers
            rewrite_row(path, len(trace.steps), d=str(trace.final.radius + 1))
        rows = verify_trace(read_file(path))
        ok = all(row["ok"] for row in rows)
        with digits.decimal_io():
            expected = json.dumps({"ok": ok, "checks": rows}, sort_keys=True) + "\n"
        capsys.readouterr()
        assert run_cli("verify", path, "--format", "json") == int(not ok)
        assert capsys.readouterr().out == expected
        assert ok is not source.endswith("corrupt")

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.floats() | st.text() | st.integers() | st.integers(-(10**700), 10**700),
        lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4),
        max_leaves=12,
    ))
    def test_json_writer_is_json_dumps(self, value):
        try:
            expected = json.dumps(value, sort_keys=True, allow_nan=False)
        except ValueError:  # a non-finite float, which JSON cannot write
            with pytest.raises(ValueError):
                cli._json(value)
        else:
            assert cli._json(value) == expected

    @pytest.mark.parametrize("source", ["greedy12-corrupt", "long-corrupt"])
    def test_text_witnesses_are_repr_of_the_rows(self, tmp_path, capsys, request, source):
        """verify prints each failed row's witness as repr prints it, whatever its integers' size."""
        path = str(tmp_path / "t.trace")
        trace = long_explicit_trace() if source.startswith("long") else request.getfixturevalue(source.split("-")[0])
        write_file(trace, path)
        rewrite_row(path, len(trace.steps), d=str(trace.final.radius + 1))
        rows = verify_trace(read_file(path))
        with digits.decimal_io():
            expected = [f"{'PASS' if row['ok'] else 'FAIL'} {row['name']}"
                        + ("" if row["ok"] else f"  witness={row['witness']!r}") for row in rows]
        capsys.readouterr()
        assert run_cli("verify", path) == 1
        assert capsys.readouterr().out.splitlines() == expected + ["verification: FAIL"]

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.text() | st.integers() | st.integers(-(10**700), 10**700),
        lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=3) | st.integers(), inner, max_size=4),
        max_leaves=12,
    ))
    def test_witness_writer_is_repr(self, value):
        with digits.decimal_io():
            assert cli._repr(value) == repr(value)


class TestAnalyze:
    def test_defaults_pass(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 3)
        capsys.readouterr()
        assert run_cli("analyze", path) == 0
        out = capsys.readouterr().out
        assert "HOLD sqrt-cap x=1" in out
        assert "HOLD log-envelope x=14" in out
        assert "analysis: PASS" in out

    def test_explicit_samples_json(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 3)
        capsys.readouterr()
        assert run_cli("analyze", path, "--x", "1,4,14", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["bounds"]) == 8  # cap + envelope at each sample, reach envelope at stages 1-2
        assert {row["name"] for row in payload["bounds"]} == {"sqrt-cap", "log-envelope", "reach-envelope"}

    def test_sample_out_of_range(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 3)
        assert run_cli("analyze", path, "--x", "0") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("build", [["--greedy", "3"], ["--threshold", "loglog,2,4,3", "6"]],
                             ids=["greedy", "budget"])
    @pytest.mark.parametrize("xs", ["", ",", " , "])
    def test_empty_sample_list_refused(self, tmp_path, capsys, build, xs):
        path = str(tmp_path / "t.trace")
        assert run_cli("build", *build, "-o", path) == 0
        capsys.readouterr()
        for fmt in ("text", "json"):
            assert run_cli("analyze", path, "--x", xs, "--format", fmt) == 2
            assert capsys.readouterr() == ("", "error: sample list is empty\n")

    def test_rep_window_with_negative_lo(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 3)
        capsys.readouterr()
        assert run_cli("analyze", path, "--rep-window", "-3,3") == 0
        out = capsys.readouterr().out
        for n in range(-3, 4):
            assert f"rep n={n} count=1" in out
        assert "rep-window violations=0 gaps=0" in out

    def test_sparse_counts_for_wide_window(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 3)
        capsys.readouterr()
        code = run_cli("analyze", path, "--x", "14", "--rep-window", "-1000000,1000000",
                       "--format", "json")
        assert code == 0
        block = json.loads(capsys.readouterr().out)["rep_window"]
        assert len(block["counts"]) == 21  # nonzero sums only
        assert block["gap_count"] == 2_000_001 - 21

    def test_bound_violation_exit_1(self, tmp_path, capsys):
        path = dense_interval_trace(tmp_path, 50)
        assert run_cli("analyze", path) == 1
        out = capsys.readouterr().out
        assert "VIOL sqrt-cap x=50" in out
        assert "analysis: FAIL" in out

    def test_reach_outside_envelope_exit_1(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 5)
        rewrite_row(path, 3, c="20", d="20")  # stays greedy; the envelope at k=3 is [13, 19]
        trace = read_file(path)
        first, widest = trace.steps[0].radius, 2 * trace.final.radius
        capsys.readouterr()
        assert run_cli("analyze", path) == 1
        captured = capsys.readouterr()
        assert captured.err == ""  # every default sample lies in [first radius, 2 * final radius]
        lines = captured.out.splitlines()
        samples = [int(line.split(" x=")[1].split()[0]) for line in lines[:-1] if "reach-envelope" not in line]
        assert samples and all(first <= x <= widest for x in samples)
        assert "VIOL reach-envelope x=3 observed=20 lower=13.000 upper=19.000" in lines
        assert lines[-1] == "analysis: FAIL"

    def test_nonpositive_reach_refused(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 5)
        rewrite_row(path, 2, c="0", d="0")
        capsys.readouterr()
        assert run_cli("analyze", path, "--x", "1") == 2
        assert capsys.readouterr().err == "error: reach at stage 2 must be >= 1, got 0\n"

    def test_json_has_no_infinity(self, tmp_path, capsys, slow10):
        path = str(tmp_path / "slow10.trace")
        write_file(slow10, path)
        capsys.readouterr()
        assert run_cli("analyze", path) == 0
        assert "upper=inf" in capsys.readouterr().out  # a sqrt-cap display bound past double range

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        assert run_cli("analyze", path, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert payload["ok"] is True
        assert any(row["upper"] is None for row in payload["bounds"] if row["name"] == "sqrt-cap")

    def test_large_text_bounds_keep_only_float_digits(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 40)
        capsys.readouterr()
        assert run_cli("analyze", path) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert run_cli("analyze", path, "--format", "json") == 0
        rows = json.loads(capsys.readouterr().out)["bounds"]
        assert len(lines) == len(rows)
        texts = [(row[name], value) for line, row in zip(lines, rows)
                 for name, value in re.findall(r"(lower|upper)=(\S+)", line)]
        assert any(abs(v) >= 1e15 for v, _ in texts if v is not None)
        for v, text in texts:  # .3f below 1e15, six significant decimals above
            assert len(text) <= 20, text
            assert text == "inf" if v is None else abs(float(text) - v) <= max(5e-4, 1e-6 * abs(v))

    def test_rep_violation_forces_exit_1(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 2)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace('["-4","0","1","3"]', '["-4","0","1","4"]'))
        capsys.readouterr()
        assert run_cli("analyze", path, "--rep-window", "-1,1", "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert all(row["holds"] for row in payload["bounds"])  # bounds alone are fine
        assert payload["rep_window"]["violations"] == [0]

    def test_bad_window_rejected(self, tmp_path):
        path = build_greedy(tmp_path, 2)
        assert run_cli("analyze", path, "--rep-window", "5,1") == 2
        assert run_cli("analyze", path, "--rep-window", "1;5") == 2


def _display(v):
    return f"{v:.3f}" if abs(v) < 1e15 else f"{v:.6e}"


def reference_analyze(trace, xs, window, fmt):
    """analyze's stdout and exit code, written as json.dumps of the whole payload or one f-string a row."""
    checks = growth_report(trace, xs)
    ok = all(c.holds for c in checks)
    rep = None
    if window is not None:
        report = brute_rep_report(trace.final.basis, *window)
        rep = {"window": list(window), "counts": {str(n): c for n, c in sorted(report.counts.items())},
               "violations": list(report.violations), "gap_count": report.gap_count}
        ok = ok and not report.violations
    if fmt == "json":
        finite = lambda v: v if v is None or math.isfinite(v) else None
        bounds = [{"name": c.name, "x": c.x, "observed": c.observed, "lower": finite(c.lower),
                   "upper": finite(c.upper), "holds": c.holds} for c in checks]
        payload = {"ok": ok, "bounds": bounds}
        if rep is not None:
            payload["rep_window"] = rep
        return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n", int(not ok)
    lines = []
    for c in checks:
        lo = "" if c.lower is None else f" lower={_display(c.lower)}"
        hi = "" if c.upper is None else f" upper={_display(c.upper)}"
        lines.append(f"{'HOLD' if c.holds else 'VIOL'} {c.name} x={c.x} observed={c.observed}{lo}{hi}")
    if rep is not None:
        lines += [f"rep n={n} count={c}" for n, c in rep["counts"].items()]
        lines.append(f"rep-window violations={len(rep['violations'])} gaps={rep['gap_count']}")
    lines.append(f"analysis: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n", int(not ok)


class TestAnalyzeBytes:
    """analyze prints what one json.dumps or one f-string a row prints, whatever its integers' size."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source, args", [
        ("greedy12", []),
        ("greedy12", ["--rep-window", "-50,50"]),
        ("greedy12", ["--x", "1,100,10000"]),
        ("greedy12", ["--x", "300000", "--rep-window", "-50,50"]),
        ("slow10", []),
        ("long", []),
        ("c-list", []),
        ("c-list", ["--x", "+{d},00{d}"]),
    ])
    def test_matches_the_whole_text_forms(self, tmp_path, capsys, request, source, args, fmt):
        if source == "c-list":
            path, d = long_c_list_trace(tmp_path)
            args = [a.format(d=d) for a in args]
        else:
            trace = long_explicit_trace() if source == "long" else request.getfixturevalue(source)
            path = str(tmp_path / "t.trace")
            write_file(trace, path)
        trace = read_file(path)
        options = dict(zip(args[::2], args[1::2]))
        if "--x" in options:
            xs = [int(t) for t in options["--x"].split(",")]
        else:
            xs = sorted({s.radius for s in trace.steps} | {s.reach for s in trace.steps if s.reach is not None})
        window = tuple(map(int, options["--rep-window"].split(","))) if "--rep-window" in options else None
        expected = reference_analyze(trace, xs, window, fmt)
        capsys.readouterr()
        code = run_cli("analyze", path, *args, "--format", fmt)
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == (expected[0], "", expected[1])
        if source == "greedy12":
            assert "reach-envelope" in captured.out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_long_integers_are_written_from_the_text_read(self, tmp_path, capsys, monkeypatch, fmt):
        path, _ = long_c_list_trace(tmp_path)
        trace = read_file(path)
        samples = {s.radius for s in trace.steps} | {s.reach for s in trace.steps}
        # a long element that no bound row writes, alone in the rep window as its sum with 0
        element = next(a for a in trace.final.basis.elements if a >= 10**digits._MEMO_FLOOR and a not in samples)
        written = []  # (integer, whether the memo held its text)

        def recording_decimal_str(n):
            memo = digits._memo
            written.append((n, memo is not None and n in memo))
            return digits.decimal_str(n)

        monkeypatch.setattr(cli, "decimal_str", recording_decimal_str)
        capsys.readouterr()
        assert run_cli("analyze", path, "--rep-window", f"{element},{element}", "--format", fmt) == 0
        printed = {int(t) for t in re.findall(r"\d{%d,}" % digits._MEMO_FLOOR, capsys.readouterr().out)}
        assert len(printed) >= 7 and element in printed  # every radius and reach past stage 1, and the element
        long_written = [(n, hit) for n, hit in written if abs(n) >= 10 ** (digits._MEMO_FLOOR - 1)]
        assert {n for n, _ in long_written} == printed
        assert all(hit for _, hit in long_written)


class TestExport:
    def test_elements_json(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 3)
        capsys.readouterr()
        assert run_cli("export", path, "--what", "elements") == 0
        assert json.loads(capsys.readouterr().out) == ["-14", "-4", "0", "1", "3", "12"]

    def test_elements_text(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 3)
        capsys.readouterr()
        assert run_cli("export", path, "--what", "elements", "--format", "text") == 0
        assert capsys.readouterr().out.split() == ["-14", "-4", "0", "1", "3", "12"]

    def test_steps_json(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 3)
        capsys.readouterr()
        assert run_cli("export", path) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "greedy"
        assert [row["k"] for row in payload["steps"]] == [1, 2, 3]
        assert payload["steps"][1]["c"] == "4"
        assert "c" not in payload["steps"][2]

    def test_steps_text_is_trace_format(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 3)
        capsys.readouterr()
        assert run_cli("export", path, "--format", "text") == 0
        assert capsys.readouterr().out == serialize(run_greedy(3))

    def test_output_file(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 2)
        dest = str(tmp_path / "elements.json")
        assert run_cli("export", path, "--what", "elements", "-o", dest) == 0
        with open(dest, "r", encoding="utf-8") as fh:
            assert json.loads(fh.read()) == ["-4", "0", "1", "3"]

    @pytest.mark.parametrize("source", ["greedy12", "slow10", "long"])
    @pytest.mark.parametrize("what, fmt", [
        ("steps", "json"), ("steps", "text"), ("elements", "json"), ("elements", "text"),
    ])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_bytes_match_the_whole_text_forms(self, tmp_path, capsys, request, source, what, fmt, to_file):
        trace = long_explicit_trace() if source == "long" else request.getfixturevalue(source)
        if what == "elements":
            values = [str(a) for a in trace.final.basis.elements]
            expected = (json.dumps(values) if fmt == "json" else "\n".join(values)) + "\n"
        elif fmt == "json":
            expected = json.dumps({"mode": trace.mode, "steps": list(step_rows(trace.steps))}, sort_keys=True) + "\n"
        else:
            expected = serialize(trace)
        path = str(tmp_path / "t.trace")
        write_file(trace, path)
        dest = tmp_path / "out"
        argv = ["export", path, "--what", what, "--format", fmt] + (["-o", str(dest)] if to_file else [])
        assert run_cli(*argv) == 0
        got = dest.read_bytes() if to_file else capsys.readouterr().out.encode()
        assert got == expected.encode()


_MEASURE = """
import os, subprocess, sys
launch = "import sys; from urbasis.cli import main; sys.exit(main())"
child = subprocess.Popen([sys.executable, "-c", launch, *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss)
"""


def _peak_rss(argv, cwd):
    """Exit code and peak RSS of one `urbasis` command.

    Linux carries a parent's peak RSS into its child's at exec, so the
    command starts from a fresh interpreter that holds no data, not from
    this process.
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(digits.__file__)))
    out = subprocess.run([sys.executable, "-c", _MEASURE, *argv],
                         cwd=cwd, env=env, capture_output=True, text=True, check=True)
    code, peak = map(int, out.stdout.split())
    return code, peak


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="reads a child's peak RSS from os.wait4")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_export_streams_within_the_peak_of_verify(tmp_path, fmt):
    # a trace of several MB: what export holds beyond the parsed trace is one row, not the whole text
    reaches = tmp_path / "c.txt"
    reaches.write_text("\n".join("1" + "0" * d for d in range(1, 15_000, 500)) + "\n")
    assert run_cli("build", "--c-list", str(reaches), "-o", str(tmp_path / "t.trace")) == 0
    assert (tmp_path / "t.trace").stat().st_size > 4_000_000
    code, verify_peak = _peak_rss(["verify", "t.trace"], tmp_path)
    assert code == 0
    code, export_peak = _peak_rss(["export", "t.trace", "--format", fmt, "-o", "out"], tmp_path)
    assert code == 0
    assert export_peak <= verify_peak * 1.03  # allocator noise is ~1%; holding the whole output costs 15-30%


class TestPipeline:
    def test_build_verify_analyze_greedy(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 12)
        assert run_cli("verify", path) == 0
        assert run_cli("analyze", path) == 0
        assert "analysis: PASS" in capsys.readouterr().out

    def test_build_verify_analyze_slow_growth(self, tmp_path, capsys):
        path = str(tmp_path / "slow.trace")
        assert run_cli("build", "--threshold", "loglog,2,4,3", "6", "-o", path) == 0
        assert run_cli("verify", path) == 0
        assert run_cli("analyze", path) == 0

    def test_loglog_k12_session(self, tmp_path, capsys):
        path = str(tmp_path / "k12.trace")
        assert run_cli("build", "--threshold", "loglog,2,4,3", "12", "-o", path) == 0
        assert run_cli("verify", path) == 0
        assert run_cli("analyze", path, "--format", "json") == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1], parse_int=str)
        assert report["ok"] is True
        trace = read_file(path)
        assert trace.final.k == 12
        budget = LogLogGrowth(2, 4, 3)
        for step in trace.steps:
            count = trace.final.basis.counting(-step.radius, step.radius)
            assert budget_at_least(budget, step.radius, count), f"count over budget at stage {step.k}"

    def test_rebuild_is_byte_identical(self, tmp_path):
        a = build_greedy(tmp_path, 7, "a.trace")
        b = build_greedy(tmp_path, 7, "b.trace")
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


class TestDigitLimit:
    """Decimal I/O past the digit limit exits 2 naming the limit, lowered here to 5000."""

    @pytest.fixture(autouse=True)
    def low_limit(self, monkeypatch):
        monkeypatch.setattr(digits, "DECIMAL_DIGIT_LIMIT", 5000)

    def test_trace_value_past_limit(self, tmp_path, capsys):
        reaches = tmp_path / "c.txt"
        reaches.write_text("1\n4" + "0" * 4999 + "\n")  # a 5000-digit reach, a 5001-digit radius
        out = tmp_path / "x.trace"
        assert run_cli("build", "--c-list", str(reaches), "-o", str(out)) == 2
        assert "more than 5000 decimal digits" in capsys.readouterr().err
        assert not out.exists()

    def test_reach_past_limit(self, tmp_path, capsys):
        reaches = tmp_path / "c.txt"
        reaches.write_text("1\n1" + "0" * 5000 + "\n")
        assert run_cli("build", "--c-list", str(reaches), "-o", str(tmp_path / "x.trace")) == 2
        err = capsys.readouterr().err
        assert "reach list" in err and "more than 5000 decimal digits" in err
        assert "only integers" not in err

    def test_trace_file_value_past_limit(self, tmp_path, capsys):
        path = build_greedy(tmp_path, 2)
        rewrite_row(path, 2, d="1" + "0" * 5000)
        assert run_cli("verify", path) == 2
        assert "line 3: d has more than 5000 decimal digits" in capsys.readouterr().err

    def test_values_at_limit_pass(self, tmp_path, capsys):
        reaches = tmp_path / "c.txt"
        reaches.write_text("1\n1" + "0" * 4998 + "\n")  # radius 3*10**4998 + b has 4999 digits
        path = str(tmp_path / "x.trace")
        assert run_cli("build", "--c-list", str(reaches), "-o", path) == 0
        for command in ("verify", "analyze", "export"):
            assert run_cli(command, path) == 0


class TestNothingWrittenBeforeConversion:
    """A report converts every integer in it before it writes a byte, so a refusal on its last row prints nothing."""

    @pytest.mark.parametrize("argv", [
        ["verify", "T", "--format", "json"],
        ["analyze", "T", "--format", "json"],
        ["export", "T"],
        ["export", "T", "--format", "text"],
        ["export", "T", "--what", "elements"],
        ["export", "T", "--what", "elements", "--format", "text"],
        ["export", "T", "-o", "OUT"],
        ["export", "T", "--what", "elements", "-o", "OUT"],
    ], ids=["verify-json", "analyze-json", "export", "export-text", "export-elements", "export-elements-text",
            "export-file", "export-elements-file"])
    def test_refusal_on_the_last_row_prints_nothing(self, tmp_path, capsys, monkeypatch, argv):
        paths = {"T": long_c_list_trace(tmp_path)[0], "OUT": str(tmp_path / "out")}
        argv = [paths.get(arg, arg) for arg in argv]
        calls = []  # the integers converted, in order; the last belongs to the last row written
        refuse_at = None

        def converting(n, near=None):
            calls.append(n)
            if len(calls) == refuse_at:
                raise digits.DigitLimitError("refused on the last row")
            return digits.decimal_str(n, near)

        monkeypatch.setattr(cli, "decimal_str", converting)
        monkeypatch.setattr(tracefile, "decimal_str", converting)
        assert run_cli(*argv) == 0
        refuse_at, written = len(calls), calls[:]
        calls.clear()
        if os.path.exists(paths["OUT"]):
            os.remove(paths["OUT"])
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert capsys.readouterr() == ("", "error: refused on the last row\n")
        assert calls == written
        assert not os.path.exists(paths["OUT"])


_FOURS = "4" * 200_000


class TestLongValueMessages:
    """A refused value is shown in a bounded message: a long text by its start, a long integer by its digit count."""

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "G", "--x", "x" * 1_000_000],
         f"sample list must contain only integers: {'x' * 40!r}... (1000000 characters)"),
        (["analyze", "G", "--rep-window", "1," + "y" * 1_000_000],
         f"window bounds must be integers: {'1,' + 'y' * 38!r}... (1000002 characters)"),
        (["analyze", "G", "--x", "9" * 100_000], "sample <100000-digit integer> outside [1, 94]"),
        (["analyze", "L", "--x", "0"], "sample 0 outside [1, <15001-digit integer>]"),
        (["build", "--threshold", "table,4:" + "9" * 200_000 + ";6:1", "3", "-o", "OUT"],
         f"bad threshold spec {'table,4:' + '9' * 32!r}... (200012 characters): "
         "threshold map decreases: t(6)=1 < t(4)=<200000-digit integer>"),
        (["build", "--threshold", f"table,{_FOURS}:1;{_FOURS}:2", "3", "-o", "OUT"],
         f"bad threshold spec {'table,' + '4' * 34!r}... (400011 characters): "
         "threshold table gives target <200000-digit integer> twice"),
        (["build", "--greedy", "x" * 100_000, "-o", "OUT"],
         f"K must be an integer, got {'x' * 40!r}... (100000 characters)"),
        (["build", "--greedy", "-" + "9" * 5000, "-o", "OUT"], "K must be >= 1, got -<5000-digit integer>"),
    ], ids=["sample-text", "window-text", "sample-integer", "sample-below-long-range",
            "table-decreases", "table-target-twice", "greedy-k-text", "greedy-k-negative"])
    def test_message_is_bounded(self, tmp_path, capsys, argv, message):
        paths = {"G": build_greedy(tmp_path, 4), "L": str(tmp_path / "l.trace"), "OUT": str(tmp_path / "x.trace")}
        if "L" in argv:
            reaches = tmp_path / "c.txt"
            reaches.write_text("10\n1" + "0" * 15_000 + "\n")  # a final radius of 15,001 digits
            assert run_cli("build", "--c-list", str(reaches), "-o", paths["L"]) == 0
        capsys.readouterr()
        assert run_cli(*(paths.get(arg, arg) for arg in argv)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert len(err.encode()) < 1024
        assert not os.path.exists(paths["OUT"])

    @pytest.mark.parametrize("lineno, k, shown", [
        (3, "9" * 100_000, "<100000-digit integer>"),
        (2, "-" + "9" * 5000, "-<5000-digit integer>"),
    ], ids=["long-k", "long-negative-k"])
    def test_trace_k_is_bounded(self, tmp_path, capsys, lineno, k, shown):
        path = tmp_path / "t.trace"
        build_greedy(tmp_path, 4, path.name)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[lineno - 1] = re.sub(r'"k":\d+', f'"k":{k}', lines[lineno - 1])
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("verify", str(path)) == 2
        err = capsys.readouterr().err
        assert err == f"trace format error: line {lineno}: stage indices must run 1..K in order, got k={shown}\n"
        assert len(err.encode()) < 1024


_LAUNCH = "import sys; from urbasis.cli import main; sys.exit(main())"


@pytest.mark.parametrize("argv, message", [
    (["verify", "bad.trace"], "trace format error: line 1: not valid UTF-8"),
    (["analyze", "bad.trace"], "trace format error: line 1: not valid UTF-8"),
    (["export", "bad.trace"], "trace format error: line 1: not valid UTF-8"),
    (["build", "--c-list", "bad.txt", "-o", "out.trace"], "error: reach list 'bad.txt' is not valid UTF-8"),
], ids=["verify", "analyze", "export", "build-c-list"])
def test_input_not_utf8_exits_2(tmp_path, argv, message):
    (tmp_path / "bad.trace").write_bytes(b"\xff{}\n")
    (tmp_path / "bad.txt").write_bytes(b"10\n\xff\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(digits.__file__)))
    out = subprocess.run([sys.executable, "-c", _LAUNCH, *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", message + "\n")  # one short line, no traceback
    assert not (tmp_path / "out.trace").exists()
