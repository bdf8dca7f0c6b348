"""Benchmark of `urbasis` command-line sessions, timed end to end or traced per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A session is what a user runs: `build` writes a trace, then `verify`,
`analyze` and `export` read it.  Each command runs in a fresh interpreter
from the checkout's `src/`, one after another (a closed loop with a single
client); before it, bare `import urbasis.cli` runs measure the start-up
cost every command pays.  In an untraced session each of these steps
repeats until it has run for REPEAT_SECONDS, so short commands get as
many samples as long ones.  Sessions repeat while a typical one still
ends within S seconds; each time is the median of all its samples in
the run.  Every output is checked, and a command whose exit code or
output is wrong counts as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
sessions with sessions whose commands run under `tracer.py`, and prints
per-module times and counts from the traced ones plus the tracing
overhead.  A per-module metric whose target names no longer exist is
left out and listed as absent.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it records the seed and the machine: CPU count, Python
version and mpmath backend, on which big-integer speed depends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import mpmath.libmp

from workloads import WORKLOADS, Workload, read_rows

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACER = os.path.join(HERE, "tracer.py")
SPAWNER = os.path.join(HERE, "spawner.py")
# what the `urbasis` console script runs
LAUNCH = "import sys; from urbasis.cli import main; sys.exit(main())"
# an untraced session repeats each step until it has run this long
REPEAT_SECONDS = 0.5
MAX_REPEATS = 10

# per-layer metric -> (span groups summed, field of the span stats)
LAYER_METRICS: dict[str, tuple[tuple[str, ...], str]] = {
    "intset.sumset_s": (("intset.sumset",), "total_s"),
    "intset.sumset_calls": (("intset.sumset",), "calls"),
    "intset.sums_built": (("intset.sumset",), "items"),
    "intset.gap_search_s": (("intset.gap_search",), "total_s"),
    "construction.extend_s": (("construction.extend",), "self_s"),
    "construction.extend_calls": (("construction.extend",), "calls"),
    "construction.reach_s": (("construction.reach",), "total_s"),
    "construction.budget_evals": (("construction.budget",), "calls"),
    "tracefile.serialize_s": (("tracefile.serialize",), "total_s"),
    "tracefile.parse_s": (("tracefile.parse",), "total_s"),
    "oracle.rep_scan_s": (("oracle.rep_scan",), "total_s"),
    "oracle.unique_window_s": (("oracle.unique_window",), "total_s"),
    "oracle.decomposition_s": (("oracle.decomposition",), "total_s"),
    "oracle.gap_growth_s": (("oracle.gap_growth",), "total_s"),
    "oracle.checks_failed": (
        ("oracle.rep_scan", "oracle.unique_window", "oracle.decomposition", "oracle.gap_growth"),
        "failed",
    ),
    "bounds.growth_report_s": (("bounds.growth_report",), "total_s"),
    "cli.self_s": (("cli.main",), "self_s"),
}
COMMANDS = ("build", "verify", "analyze", "export")
STEPS = ("setup", *COMMANDS)


@dataclass
class Outcome:
    code: int
    seconds: float
    rss_kb: int
    stdout: bytes


@dataclass
class Session:
    seconds: dict[str, list[float]] = field(default_factory=dict)
    rss_kb: int = 0
    trace_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(statistics.median(self.seconds[name]) for name in COMMANDS)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Spawner:
    """Runs children one at a time through spawner.py, which stays small."""

    def __enter__(self) -> "Spawner":
        self.proc = subprocess.Popen(
            [sys.executable, SPAWNER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=WORK, env=_child_env(), text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str]) -> Outcome:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with {self.proc.wait()}")
        result = json.loads(reply)
        with open(os.path.join(WORK, "stdout"), "rb") as fh:
            stdout = fh.read()
        if result["code"] != 0:
            with open(os.path.join(WORK, "stderr"), "rb") as fh:
                tail = fh.read()[-2000:].decode("utf-8", "replace")
            print(f"command {argv[1:]} exited {result['code']}: {tail}", file=sys.stderr)
        return Outcome(result["code"], result["seconds"], result["rss_kb"], stdout)


def _json_line(stdout: bytes):
    # integers stay strings: reports carry numbers past int()'s digit limit
    return json.loads(stdout.decode("utf-8").strip().splitlines()[-1], parse_int=str)


def _check_build(out: Outcome, w: Workload, raw: bytes, rows: list[dict], seed: int) -> list[str]:
    if not rows:
        return ["build wrote no stage rows"]
    last = rows[-1]
    expected = f"K={w.k} radius={last['d']} gap={last['b']}"
    problems = [] if out.stdout.decode().strip() == expected else [f"build printed {out.stdout[:200]!r}"]
    return problems + w.check_trace(raw, rows, seed)


def _check_verify(out: Outcome) -> list[str]:
    report = _json_line(out.stdout)
    if report["ok"] is True and report["checks"] and all(c["ok"] is True for c in report["checks"]):
        return []
    return [f"verify failed: {[c['name'] for c in report['checks'] if not c['ok']]}"]


def _check_analyze(out: Outcome) -> list[str]:
    report = _json_line(out.stdout)
    if report["ok"] is True and report["bounds"] and all(b["holds"] is True for b in report["bounds"]):
        return []
    return ["analyze reported a bound that does not hold"]


def _check_export(out: Outcome, header: dict, rows: list[dict]) -> list[str]:
    if json.loads(out.stdout, parse_int=str) == {"mode": header.get("mode"), "steps": rows}:
        return []
    return ["exported steps do not round-trip to the built trace"]


def _layer_metrics(span_files: list[str]) -> dict[str, float]:
    groups: dict[str, dict] = {}
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            for group, stats in json.load(fh).items():
                total = groups.setdefault(group, dict.fromkeys(stats, 0))
                for key, value in stats.items():
                    total[key] += value
    values = {}
    for metric, (names, key) in LAYER_METRICS.items():
        present = [groups[g][key] for g in names if g in groups]
        if present:
            values[metric] = sum(present)
    return values


def session(spawner: Spawner, w: Workload, seed: int, traced: bool) -> Session:
    s = Session()
    trace = os.path.join(WORK, "session.trace")
    if os.path.exists(trace):
        os.remove(trace)
    argv = {
        "setup": ["-c", "import urbasis.cli"],
        "build": ["-c", LAUNCH, "build", *w.build_args(WORK, trace, seed)],
        "verify": ["-c", LAUNCH, "verify", trace, "--format", "json"],
        "analyze": ["-c", LAUNCH, "analyze", trace, "--format", "json"],
        "export": ["-c", LAUNCH, "export", trace],
    }
    built: dict = {}

    def check(name: str, out: Outcome) -> list[str]:
        if name == "build":
            with open(trace, "rb") as fh:
                raw = fh.read()
            s.trace_bytes = len(raw)
            built["header"], built["rows"] = read_rows(raw)
            return _check_build(out, w, raw, built["rows"], seed)
        if name == "verify":
            return _check_verify(out)
        if name == "analyze":
            return _check_analyze(out)
        if name == "export":
            return _check_export(out, built["header"], built["rows"])
        return []

    span_files = []
    for name in STEPS:
        if traced and name == "setup":
            continue
        spent = 0.0
        for _ in range(MAX_REPEATS):
            cmd = [sys.executable, *argv[name]]
            if traced:
                span_files.append(os.path.join(WORK, f"spans-{name}.json"))
                cmd = [sys.executable, TRACER, span_files[-1], *argv[name][2:]]
            out = spawner.run(cmd)
            s.seconds.setdefault(name, []).append(out.seconds)
            s.rss_kb = max(s.rss_kb, out.rss_kb)
            problems = []
            if out.code == 0:
                try:
                    problems = check(name, out)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                    problems = [f"{name} output unreadable: {e!r}"]
            s.attempted += 1
            if out.code != 0 or problems:
                s.failed += 1
                for p in problems:
                    print(f"check failed: {p}", file=sys.stderr)
            spent += out.seconds
            if traced or spent >= REPEAT_SECONDS:
                break

    if traced and all(os.path.exists(p) for p in span_files):
        s.layers = _layer_metrics(span_files)
    return s


def end_to_end(sessions: list[Session], attempted: int, failed: int) -> dict[str, tuple[float, str]]:
    metrics = {}
    for name in STEPS:
        metrics[f"{name}_s"] = (statistics.median([t for s in sessions for t in s.seconds[name]]), "s")
    metrics["trace_bytes"] = (statistics.median([s.trace_bytes for s in sessions]), "B")
    metrics["peak_rss_mb"] = (statistics.median([s.rss_kb / 1024 for s in sessions]), "MB")
    metrics["ok_ratio"] = ((attempted - failed) / attempted, "1")
    return metrics


def per_layer(plain: list[Session], traced: list[Session]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    metrics, absent = {}, []
    for name in LAYER_METRICS:
        values = [s.layers[name] for s in traced if name in s.layers]
        if values:
            metrics[name] = (statistics.median(values), "s" if name.endswith("_s") else "count")
        else:
            absent.append(name)
    overhead = statistics.median([s.wall for s in traced]) - statistics.median([s.wall for s in plain])
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, absent


def context(args: argparse.Namespace, n_sessions: int) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sessions": n_sessions,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "urbasis")):
        print(f"error: no urbasis sources under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    plain: list[Session] = []
    traced: list[Session] = []
    try:
        with Spawner() as spawner:
            # fill the bytecode cache once, as an installed package has it
            warm = spawner.run([sys.executable, "-c", "import urbasis.cli"])
            deadline = time.perf_counter() + args.seconds
            durations: list[float] = []
            # start a session only if a typical one still ends before the deadline
            while not plain or (args.trace and not traced) or (
                time.perf_counter() + statistics.median(durations) < deadline
            ):
                use_tracer = bool(args.trace) and len(traced) < len(plain)
                began = time.perf_counter()
                (traced if use_tracer else plain).append(session(spawner, w, args.seed, use_tracer))
                durations.append(time.perf_counter() - began)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    sessions = plain + traced
    attempted = 1 + sum(s.attempted for s in sessions)
    failed = int(warm.code != 0) + sum(s.failed for s in sessions)
    if args.trace:
        metrics, absent = per_layer(plain, traced)
    else:
        metrics, absent = end_to_end(plain, attempted, failed), []

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6f} {unit}")
    if absent:
        print(f"absent (target names not found): {', '.join(absent)}")
    print("context " + json.dumps(context(args, len(sessions)), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
