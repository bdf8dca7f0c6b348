"""Command-line front end: build, verify, analyze, export.

Exit codes: 0 success (all checks pass / all bounds hold), 1 a
verification or bound failed, 2 bad usage, bad configuration, a
malformed trace file, or an integer past the decimal digit limit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Iterator

from .digits import DigitLimitError, decimal_int, decimal_io, decimal_str, quote

if TYPE_CHECKING:  # only annotations name these: each command imports the modules it runs, and no others
    from .bounds import BoundCheck
    from .record import BasisTrace


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


def _read_c_list(path: str) -> tuple[int, ...]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read reach list: {e}") from None
    except UnicodeDecodeError:
        raise UsageError(f"reach list {path!r} is not valid UTF-8") from None
    cleaned = text.replace("[", " ").replace("]", " ").replace(",", " ")
    try:
        values = tuple(decimal_int(tok, f"an entry of reach list {path!r}") for tok in cleaned.split())
    except ValueError:
        raise UsageError(f"reach list {path!r} must contain only integers") from None
    if not values:
        raise UsageError(f"reach list {path!r} is empty")
    return values


def _read_k(text: str) -> int:
    try:
        return decimal_int(text, "K")
    except ValueError:
        raise UsageError(f"K must be an integer, got {quote(text)}") from None


def cmd_build(args: argparse.Namespace) -> int:
    from .construction import ExplicitReaches, Greedy, parse_budget, run_with_growth
    from .tracefile import write_file
    if args.greedy is not None:
        k_max, policy = _read_k(args.greedy), Greedy()
    elif args.threshold is not None:
        spec, k_text = args.threshold
        k_max = _read_k(k_text)
        try:
            policy = parse_budget(spec)
        except ValueError as e:
            raise UsageError(str(e)) from None
    else:
        values = _read_c_list(args.c_list)
        k_max, policy = len(values) + 1, ExplicitReaches(values)
    try:  # run_with_growth refuses a K below 1
        trace = run_with_growth(policy, k_max)
    except ValueError as e:
        raise UsageError(str(e)) from None
    write_file(trace, args.output)
    final = trace.final
    print(f"K={final.k} radius={decimal_str(final.radius)} gap={decimal_str(final.gap)}")
    return 0


def _json(value) -> str:
    """json.dumps(value, sort_keys=True, allow_nan=False) for str keys, with every integer written by decimal_str.

    Scalars are written as json.dumps writes them, without the encoder it makes per call.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        return "{" + ", ".join(encode_basestring_ascii(k) + ": " + _json(v) for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json, value)) + "]"
    if value is None:
        return "null"
    if value is True or value is False:  # before int, which bool is
        return "true" if value else "false"
    if isinstance(value, int):
        return decimal_str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON compliant")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _repr(value) -> str:
    """repr(value) for the dicts, lists, tuples, strings, integers, None and bools of a witness, with every
    integer written by decimal_str, so a long one costs linear time."""
    if isinstance(value, dict):
        return "{" + ", ".join(_repr(k) + ": " + _repr(v) for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_repr, value)) + "]"
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_repr, value)) + ("," if len(value) == 1 else "") + ")"
    if isinstance(value, int) and not isinstance(value, bool):
        return decimal_str(value)
    return repr(value)


def cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import verify_trace
    from .tracefile import read_file
    rows = verify_trace(read_file(args.trace))
    ok = all(row["ok"] for row in rows)
    if args.format == "json":
        print(_json({"ok": ok, "checks": rows}))
    else:
        for row in rows:
            status = "PASS" if row["ok"] else "FAIL"
            detail = "" if row["ok"] else f"  witness={_repr(row['witness'])}"
            print(f"{status} {row['name']}{detail}")
        print(f"verification: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _parse_samples(text: str) -> list[int]:
    try:
        xs = [decimal_int(tok, "a sample point") for tok in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"sample list must contain only integers: {quote(text)}") from None
    if not xs:
        raise UsageError("sample list is empty")
    return xs


def _parse_window(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"window must be LO,HI: {quote(text)}")
    try:
        lo, hi = (decimal_int(part, "a window bound") for part in parts)
    except ValueError:
        raise UsageError(f"window bounds must be integers: {quote(text)}") from None
    if lo > hi:
        raise UsageError(f"window is empty: {quote(lo)} > {quote(hi)}")
    return lo, hi


def _default_samples(trace: BasisTrace) -> list[int]:
    xs = {s.radius for s in trace.steps}
    xs.update(s.reach for s in trace.steps if s.reach is not None)
    return sorted(xs)


def _bound_row(check: BoundCheck) -> dict:
    # JSON has no infinity: a display bound past double range is written as null
    lower, upper = (v if v is None or math.isfinite(v) else None for v in (check.lower, check.upper))
    return {"holds": check.holds, "lower": lower, "name": check.name,
            "observed": check.observed, "upper": upper, "x": check.x}


def _display(v: float) -> str:
    # a double carries ~17 significant digits: past 1e15, show them with an exponent
    return f"{v:.3f}" if abs(v) < 1e15 else f"{v:.6e}"


_DENSE_WINDOW_LIMIT = 20_001


def cmd_analyze(args: argparse.Namespace) -> int:
    from .bounds import growth_report
    from .tracefile import read_file
    trace = read_file(args.trace)
    xs = _parse_samples(args.x) if args.x is not None else _default_samples(trace)
    try:
        checks = growth_report(trace, xs)
    except ValueError as e:
        raise UsageError(str(e)) from None
    ok = all(c.holds for c in checks)

    rep_block = None
    if args.rep_window is not None:
        from .oracle import brute_rep_report
        lo, hi = _parse_window(args.rep_window)
        report = brute_rep_report(trace.final.basis, lo, hi)
        dense = hi - lo + 1 <= _DENSE_WINDOW_LIMIT
        counts = {decimal_str(n): c for n, c in sorted((report.counts if dense else report.nonzero).items())}
        rep_block = {
            "window": [lo, hi], "counts": counts,
            "violations": list(report.violations), "gap_count": report.gap_count,
        }
        if report.violations:
            ok = False

    if args.format == "json":
        payload = {"bounds": [_bound_row(c) for c in checks], "ok": ok}
        if rep_block is not None:
            payload["rep_window"] = rep_block
        print(_json(payload))
    else:
        for c in checks:
            status = "HOLD" if c.holds else "VIOL"
            lo_txt = "" if c.lower is None else f" lower={_display(c.lower)}"
            hi_txt = "" if c.upper is None else f" upper={_display(c.upper)}"
            print(f"{status} {c.name} x={decimal_str(c.x)} observed={decimal_str(c.observed)}{lo_txt}{hi_txt}")
        if rep_block is not None:
            for n, c in rep_block["counts"].items():
                print(f"rep n={n} count={c}")
            print(f"rep-window violations={len(rep_block['violations'])} gaps={decimal_str(rep_block['gap_count'])}")
        print(f"analysis: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _json_steps(trace: BasisTrace) -> Iterator[str]:
    """json.dumps({"mode": ..., "steps": step_rows(...)}, sort_keys=True) + "\n", one row at a time.

    Every integer is converted before this returns, as in trace_lines.
    """
    from .tracefile import joined_rows, step_rows
    rows = joined_rows(step_rows(trace.steps), (", ", ": "))
    head = '{"mode": ' + json.dumps(trace.mode) + ', "steps": ['
    body = islice(chain.from_iterable((", ", row) for row in rows), 1, None)  # no separator before the first
    return chain([head], body, ["]}\n"])


def cmd_export(args: argparse.Namespace) -> int:
    from .tracefile import read_file, trace_lines
    trace = read_file(args.trace)
    if args.what == "elements":
        values = [decimal_str(a) for a in trace.final.basis.elements]
        pieces = [(json.dumps(values) if args.format == "json" else "\n".join(values)) + "\n"]
    elif args.format == "json":
        pieces = _json_steps(trace)
    else:
        pieces = trace_lines(trace)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urbasis",
        description="Build and check integer sets in which every integer "
                    "has exactly one representation as a pairwise sum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="run the construction and write a trace file")
    source = p_build.add_mutually_exclusive_group(required=True)
    source.add_argument("--greedy", metavar="K", help="densest variant, K stages")
    source.add_argument("--threshold", nargs=2, metavar=("SPEC", "K"),
                        help="growth budget, e.g. 'loglog,2,4' or 'table,4:1;6:13'")
    source.add_argument("--c-list", metavar="PATH", help="file with one reach per extension")
    p_build.add_argument("--output", "-o", required=True, metavar="PATH")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="re-check a trace file by brute force")
    p_verify.add_argument("trace", metavar="TRACE")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_analyze = sub.add_parser("analyze", help="evaluate density bounds on a trace file")
    p_analyze.add_argument("trace", metavar="TRACE")
    p_analyze.add_argument("--x", metavar="LIST", help="comma-separated sample points")
    p_analyze.add_argument("--rep-window", metavar="LO,HI", help="also print pair-sum counts")
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")
    p_analyze.set_defaults(func=cmd_analyze)

    p_export = sub.add_parser("export", help="print a trace in another shape")
    p_export.add_argument("trace", metavar="TRACE")
    p_export.add_argument("--what", choices=("steps", "elements"), default="steps")
    p_export.add_argument("--format", choices=("json", "text"), default="json")
    p_export.add_argument("--output", "-o", metavar="PATH")
    p_export.set_defaults(func=cmd_export)

    return parser


def _absorb_values(argv: list[str]) -> list[str]:
    # argparse misreads values like "-3,3" as option strings; fold the value
    # of these options into --opt=value form so windows can start with '-'
    taking_value = ("--rep-window", "--x")
    out: list[str] = []
    it = iter(argv)
    for tok in it:
        if tok in taking_value:
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_absorb_values(list(argv)))
    from .tracefile import TraceFormatError  # every command reads or writes a trace
    try:
        with decimal_io():
            return args.func(args)
    except TraceFormatError as e:
        print(f"trace format error: {e}", file=sys.stderr)
        return 2
    except (UsageError, DigitLimitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
