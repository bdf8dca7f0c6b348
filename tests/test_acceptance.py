"""End-to-end acceptance gate.

Nine checks, one verdict line each (run with -s to see them).  Every
expected value is re-derived here independently — step replay with plain
set arithmetic, explicit pair enumeration, exact integer inequalities —
and only then compared against what the library produces.
"""

import os
import random
import time

import mpmath

from urbasis import (
    IntSet,
    LogLogGrowth,
    brute_rep_report,
    log_envelope,
    reach_envelope,
    run_greedy,
    run_with_growth,
    sqrt_cap,
    verify_decomposition,
    verify_gap_growth,
    verify_unique_window,
)
from urbasis.cli import main as cli_main
from urbasis.tracefile import parse, serialize

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _verdict(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {num}/9 {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance {num} {name} failed{tail}"


def _replay_greedy(k_max):
    """Stage replay with no library code: raw sets and double loops."""
    a = {0, 1}
    for _ in range(k_max - 1):
        sums = {x + y for x in a for y in a}
        b = 1
        while b in sums and -b in sums:
            b += 1
        c = max(abs(v) for v in a)
        if b not in sums:
            a |= {b + 3 * c, -3 * c}
        else:
            a |= {-(b + 3 * c), 3 * c}
    return tuple(sorted(a))


def test_1_stage_replay():
    started = time.perf_counter()
    trace = run_greedy(3)
    elapsed = time.perf_counter() - started
    s1, s2, s3 = trace.steps
    ok = (
        s1.basis.elements == (0, 1)
        and s2.basis.elements == (-4, 0, 1, 3)
        and s3.basis.elements == (-14, -4, 0, 1, 3, 12)
        and (s1.radius, s1.gap) == (1, 1)
        and (s2.radius, s2.gap) == (4, 2)
        and s3.gap == 5
        and s3.basis.elements == _replay_greedy(3)
        and elapsed < 1.0
    )
    _verdict(1, "stage-replay", ok, f"{elapsed:.3f}s")


def test_2_stage_four_variant():
    trace = run_greedy(4)
    expected = (-42, -14, -4, 0, 1, 3, 12, 47)
    built = trace.final.basis.elements
    replayed = _replay_greedy(4)
    d = trace.final.radius
    oracle_ok = (
        bool(verify_unique_window(trace))
        and bool(verify_gap_growth(trace))
        and all(bool(verify_decomposition(p, n)) for p, n in zip(trace.steps, trace.steps[1:]))
        and not brute_rep_report(trace.final.basis, -2 * d, 2 * d).violations
    )
    with open(README, "r", encoding="utf-8") as fh:
        readme = fh.read()
    documented = all(tok in readme for tok in ("-42", "47", "-84", "89"))
    ok = built == expected == replayed and oracle_ok and documented
    _verdict(2, "stage-four-variant", ok, "divergence documented in README")


def test_3_uniqueness_at_scale():
    started = time.perf_counter()
    trace = run_greedy(20)
    d = trace.final.radius
    report = brute_rep_report(trace.final.basis, -2 * d, 2 * d)
    scan = verify_unique_window(trace)
    window_ok = all(trace.final.basis.rep_count(n) == 1 for n in range(-10, 11))
    elapsed = time.perf_counter() - started
    ok = not report.violations and bool(scan) and window_ok and elapsed < 60.0
    _verdict(3, "uniqueness-at-scale", ok,
             f"window ±{2 * d}, {len(report.violations)} violations, {elapsed:.2f}s")


def test_4_stage_decomposition(greedy20, slow10):
    verdicts = [
        verify_decomposition(prev, nxt)
        for trace in (greedy20, slow10)
        for prev, nxt in zip(trace.steps, trace.steps[1:])
    ]
    ok = len(verdicts) == 28 and all(bool(v) for v in verdicts)
    _verdict(4, "stage-decomposition", ok, f"{len(verdicts)} consecutive pairs")


def test_5_log_envelope():
    trace = run_greedy(40)
    reaches = [s.reach for s in trace.steps[:-1]]
    reaches.append(trace.final.radius)  # final reach never used, but equals the radius here
    radii = [s.radius for s in trace.steps]
    xs = sorted(set(radii) | set(reaches) | {3 * c for c in reaches})
    envelope_ok = all(log_envelope(x, trace.final.basis.counting(-x, x)).holds for x in xs)
    reach_ok = all(reach_envelope(k, c).holds for k, c in enumerate(reaches, start=1))
    ok = envelope_ok and reach_ok and len(xs) >= 80
    _verdict(5, "log-envelope", ok, f"{len(xs)} samples, 40 exact reach checks")


def test_6_growth_budget(slow10):
    family = LogLogGrowth(2, 4, 3)
    radii = [s.radius for s in slow10.steps]
    reaches = [s.reach for s in slow10.steps if s.reach is not None]
    xs = set(radii)
    xs.update(x - 1 for x in radii)
    xs.update(3 * c for c in reaches)
    xs.update(3 * c - 1 for c in reaches)
    xs.add(2 * slow10.final.radius)
    xs = sorted(x for x in xs if x >= radii[0])
    with mpmath.workdps(60):
        margin = mpmath.mpf("1e-30")
        over = [x for x in xs
                if not mpmath.mpf(slow10.final.basis.counting(-x, x)) <= family.value(x) + margin]
    ok = not over and len(xs) >= 30
    _verdict(6, "growth-budget", ok, f"count <= 2*ln(ln(x+3))+4 at {len(xs)} samples")


def test_7_sqrt_cap(greedy12, slow10):
    built_ok = all(
        sqrt_cap(1, x, trace.final.basis.counting(-x, x)).holds
        for trace in (greedy12, slow10)
        for x in sorted({s.radius for s in trace.steps}
                        | {s.reach for s in trace.steps if s.reach is not None})
    )
    sweep_ok = all(sqrt_cap(1, x, greedy12.final.basis.counting(-x, x)).holds for x in range(1, 401))
    m = 100
    interval = IntSet.of(range(-m, m + 1))
    rejected = not sqrt_cap(1, m, interval.counting(-m, m)).holds
    ok = built_ok and sweep_ok and rejected
    _verdict(7, "sqrt-cap", ok, f"holds on traces, rejects the interval [-{m},{m}]")


def test_8_dual_route_agreement():
    rng = random.Random(0xACCE97)
    probes = mismatches = 0
    while probes < 10_000:
        size = rng.randint(1, 200)
        span = rng.choice((10**3, 10**6, 10**9))
        a = IntSet.of(rng.sample(range(-span, span + 1), size))
        lo, hi = -2 * span, 2 * span
        report = brute_rep_report(a, lo, hi)
        for _ in range(20):
            n = rng.randint(lo, hi)
            if a.rep_count(n) != report.count(n):
                mismatches += 1
            probes += 1
    ok = probes == 10_000 and mismatches == 0
    _verdict(8, "dual-route-agreement", ok, f"{probes} probes, {mismatches} mismatches")


def test_9_round_trip_determinism(tmp_path, greedy20, slow10):
    library_ok = (parse(serialize(greedy20)) == greedy20
                  and parse(serialize(slow10)) == slow10)
    first, second = str(tmp_path / "a.trace"), str(tmp_path / "b.trace")
    codes = (cli_main(["build", "--greedy", "20", "-o", first]),
             cli_main(["build", "--greedy", "20", "-o", second]))
    with open(first, "rb") as fa, open(second, "rb") as fb:
        identical = fa.read() == fb.read()
    ok = library_ok and codes == (0, 0) and identical
    _verdict(9, "round-trip-determinism", ok, "parse(serialize(t)) == t; rebuilds byte-identical")


def test_acceptance_gate_is_complete():
    # the nine checks above are the whole gate; guard against accidental deletion
    names = [n for n in globals() if n.startswith("test_") and n[5].isdigit()]
    assert len(names) == 9
