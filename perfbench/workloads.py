"""The benchmark's workloads: the `build` each one runs and the checks on its trace.

Every workload is one CLI session: `build`, then `verify`, `analyze` and
`export` on the trace it wrote.  The three builds load different layers:

greedy-k160    many stages of small integers; sumset upkeep in `intset` and
               `construction` dominates `build`, pair enumeration in `oracle`
               dominates `verify`.  Its trace is frozen by digest, because
               greedy traces are promised byte-identical.
loglog-k10     few stages of huge integers under the budget
               f(x) = 2*ln(ln(x+3)) + 4; budget inversion dominates `build`,
               the read commands are start-up bound.  No digest is frozen:
               a correct inversion may move its radii.  Instead the count
               budget is checked at every radius.
replay-digits  an explicit reach list of powers of ten, so no budget is
               inverted; decimal I/O of 12-16k digit integers dominates.

Only replay-digits depends on the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from mpmath import iv

GREEDY_K160_SHA256 = "3d53872264286dfd27d9c5ee18c79c10588deca6607006fbbf4ed65a102a6fd2"
REPLAY_K = 32
REPLAY_MAX_STEP = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    # (work dir, trace path, seed) -> build arguments after "build"
    build_args: Callable[[str, str, int], list[str]]
    # (trace bytes, parsed rows, seed) -> list of problems
    check_trace: Callable[[bytes, list[dict], int], list[str]]


def replay_reaches(seed: int) -> list[str]:
    """Reaches 10**D_k as decimal strings, D_1 = 1, D_k growing by seeded steps.

    Each step is uniform in [1, REPLAY_MAX_STEP]; steps come in antithetic
    pairs (u, MAX + 1 - u), so every seed ends at the same digit count and
    seeds differ only in where the intermediate radii fall.  The strings
    are built without int-to-str conversion, so no digit limit applies.
    """
    rng = random.Random(seed)
    digits, step = 1, 0
    reaches = []
    for i in range(REPLAY_K - 1):
        reaches.append("1" + "0" * digits)
        step = rng.randint(1, REPLAY_MAX_STEP) if i % 2 == 0 else REPLAY_MAX_STEP + 1 - step
        digits += step
    return reaches


def _greedy_args(work: str, trace: str, seed: int) -> list[str]:
    return ["--greedy", "160", "-o", trace]


def _check_greedy(raw: bytes, rows: list[dict], seed: int) -> list[str]:
    digest = hashlib.sha256(raw).hexdigest()
    if digest != GREEDY_K160_SHA256:
        return [f"greedy K=160 trace digest {digest} != frozen {GREEDY_K160_SHA256}"]
    return []


def _loglog_args(work: str, trace: str, seed: int) -> list[str]:
    return ["--threshold", "loglog,2,4,3", "10", "-o", trace]


def loglog_budget_holds(x_text: str, count: int) -> bool | None:
    """Whether count <= 2*ln(ln(x+3)) + 4 for x given in decimal.

    Decided by interval arithmetic at a precision that starts at the digit
    count of x and doubles while the interval still straddles `count`;
    None means undecided.
    """
    x = int(x_text)
    saved = iv.prec
    try:
        dps = len(x_text) + 15
        for _ in range(4):
            iv.dps = dps
            f = 2 * iv.log(iv.log(iv.mpf(x) + 3)) + 4
            if f.a >= count:
                return True
            if f.b < count:
                return False
            dps *= 2
        return None
    finally:
        iv.prec = saved


def _check_loglog(raw: bytes, rows: list[dict], seed: int) -> list[str]:
    final = [int(a) for a in rows[-1]["elements"]]
    problems = []
    for row in rows:
        x = int(row["d"])
        count = sum(1 for a in final if -x <= a <= x)
        holds = loglog_budget_holds(row["d"], count)
        if not holds:
            verdict = "undecided" if holds is None else "exceeds"
            problems.append(f"stage {row['k']}: count {count} {verdict} 2*ln(ln(x+3))+4 at x = d")
    return problems


def _replay_args(work: str, trace: str, seed: int) -> list[str]:
    path = os.path.join(work, "reaches.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(replay_reaches(seed)) + "\n")
    return ["--c-list", path, "-o", trace]


def _check_replay(raw: bytes, rows: list[dict], seed: int) -> list[str]:
    recorded = [row.get("c") for row in rows]
    expected = replay_reaches(seed) + [None]
    if recorded != expected:
        return ["recorded reaches differ from the generated reach list"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("greedy-k160", 160, _greedy_args, _check_greedy),
        Workload("loglog-k10", 10, _loglog_args, _check_loglog),
        Workload("replay-digits", REPLAY_K, _replay_args, _check_replay),
    )
}


def read_rows(raw: bytes) -> tuple[dict, list[dict]]:
    """Header and stage rows of a trace, with every integer left as a string."""
    header, *rows = (json.loads(line, parse_int=str) for line in raw.decode("utf-8").splitlines() if line.strip())
    return header, rows
