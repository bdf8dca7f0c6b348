"""Run one `urbasis` command with spans recorded around each module's public names.

Usage: python3 perfbench/tracer.py SPANS_JSON ARG...

ARG... are the arguments of the `urbasis` command line.  Before calling
`urbasis.cli.main`, every target below is looked up by its dotted name
and wrapped; a module-level function is replaced wherever a `urbasis`
module holds a reference to it, so `from .x import f` call sites are
covered too.  A name that no longer exists is skipped rather than
failing the run; a group none of whose names exist is left out of the
output.  Spans are aggregated in memory and written to SPANS_JSON when
the command ends:

    {GROUP: {"calls", "total_s", "self_s", "items", "failed"}, ...}

`self_s` is a span's duration minus the time covered by wrapped calls
nested inside it.  A call nested in a span of its own group (such as
`IntSet.self_sumset` calling `IntSet.sumset`) belongs to the outer span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

_C = "urbasis.construction."
_O = "urbasis.oracle."

# group -> dotted names whose calls make up the group's spans
TARGETS: dict[str, tuple[str, ...]] = {
    "cli.main": ("urbasis.cli.main",),
    "intset.sumset": ("urbasis.intset.IntSet.self_sumset", "urbasis.intset.IntSet.sumset"),
    "intset.gap_search": ("urbasis.intset.min_abs_missing",),
    "construction.extend": (_C + "extend",),
    "construction.reach": (
        _C + "Greedy.reach_for", _C + "ExplicitReaches.reach_for", _C + "ThresholdReach.reach_for",
    ),
    "construction.budget": (_C + "LogGrowth.value", _C + "LogLogGrowth.value"),
    "tracefile.serialize": ("urbasis.tracefile.serialize",),
    "tracefile.parse": ("urbasis.tracefile.parse",),
    "oracle.rep_scan": (_O + "brute_rep_report",),
    "oracle.unique_window": (_O + "verify_unique_window",),
    "oracle.decomposition": (_O + "verify_decomposition",),
    "oracle.gap_growth": (_O + "verify_gap_growth",),
    "bounds.growth_report": ("urbasis.bounds.growth_report",),
}


def _oracle_failed(result) -> bool:
    # a Verdict carries `ok`; a RepReport fails when some sum repeats
    if hasattr(result, "ok"):
        return not result.ok
    return bool(getattr(result, "violations", ()))


ITEMS = {"intset.sumset": len}  # sums materialised
FAILED = {g: _oracle_failed for g in TARGETS if g.startswith("oracle.")}


class Recorder:
    """Aggregates spans per group; one instance per traced process."""

    def __init__(self) -> None:
        self.groups: dict[str, dict] = {}
        self._stack: list[list] = []  # [group, start, covered by children]

    def wrap(self, group: str, fn):
        stats = self.groups.setdefault(
            group, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0, "failed": 0}
        )
        items, failed = ITEMS.get(group), FAILED.get(group)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == group:
                return fn(*args, **kwargs)
            frame = [group, time.perf_counter(), 0.0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if failed is not None and not ok:
                    stats["failed"] += 1
            if items is not None:
                stats["items"] += items(result)
            if failed is not None and failed(result):
                stats["failed"] += 1
            return result

        return traced

    def install(self, targets: dict[str, tuple[str, ...]] = TARGETS) -> None:
        for group, names in targets.items():
            for name in names:
                self._patch(group, name)

    def _patch(self, group: str, dotted: str) -> None:
        owner_path, _, attr = dotted.rpartition(".")
        owner = _lookup(owner_path)
        if owner is None or not callable(vars(owner).get(attr)):
            return
        original = vars(owner)[attr]
        wrapped = self.wrap(group, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "urbasis" and not name.startswith("urbasis."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.groups, fh, sort_keys=True)


def _lookup(dotted: str):
    """The module or class at a dotted path, or None if it does not exist."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            found = getattr(found, part, None)
        return found
    return None


def main(argv: list[str]) -> int:
    spans_path, *cli_args = argv
    import urbasis.cli

    recorder = Recorder()
    recorder.install()
    try:
        return urbasis.cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
