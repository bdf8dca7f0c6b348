"""Mutation check: each mutant of `mutants.txt` must fail every test it names.

Usage: python tests/run_mutants.py

Each entry of `tests/mutants.txt` names a file under `src/`, an exact old
text, the new text that replaces it, and the tests that must fail once it
does.  The script copies `src/`, `tests/` and `pyproject.toml` to a
temporary directory; for each entry it applies the one replacement
there, runs each named test in its own pytest process, and undoes the
replacement.  It reports

  STALE     an entry whose old text does not occur exactly once,
  SURVIVED  a mutant under which a named test passes,
  ERROR     a named test that pytest cannot run (a wrong node id, say),

and exits 1 if it reported any of them.  The named tests are first run on
the unchanged copy, where all must pass.  The script uses only the
standard library and pytest, and its name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.txt"
FIELDS = ("mutant", "file", "old", "new", "kills")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    kills: tuple[str, ...]


def read_mutants(path: Path) -> list[Mutant]:
    """The entries of `path`: blocks of `field: value` lines, one field each, apart by blank lines.

    A value is the rest of its line after ": ", taken exactly; `kills` may
    be given on several lines, one test id each.  Lines starting with `#`
    are comments.
    """
    blocks, block = [], {}
    for lineno, line in enumerate([*path.read_text(encoding="utf-8").splitlines(), ""], 1):
        if line.startswith("#"):
            continue
        if not line.strip():
            if block:
                blocks.append(block)
            block = {}
            continue
        field, sep, value = line.partition(": ")
        if not sep or field not in FIELDS or (field in block and field != "kills"):
            raise SystemExit(f"{path}:{lineno}: expected one of {', '.join(FIELDS)} as `field: value`")
        block.setdefault(field, []).append(value)
    mutants = []
    for block in blocks:
        missing = [field for field in FIELDS if field not in block]
        if missing:
            raise SystemExit(f"{path}: entry {block.get('mutant', ['?'])[0]!r} lacks {', '.join(missing)}")
        mutants.append(Mutant(block["mutant"][0], block["file"][0], block["old"][0], block["new"][0],
                              tuple(block["kills"])))
    return mutants


def _pytest(tree: Path, test: str) -> int:
    # the copy's pyproject puts the copy's src first on sys.path
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "--no-header", "-p", "no:cacheprovider", test]
    return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(mutants: list[Mutant]) -> list[str]:
    """The problems found, one line each; every named test is run once clean and once per mutant that names it."""
    problems = []
    with tempfile.TemporaryDirectory(prefix="urbasis-mutants-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        for test in sorted({test for m in mutants for test in m.kills}):
            code = _pytest(tree, test)
            if code:
                problems.append(f"ERROR     {test} exits {code} on the unchanged tree")
        if problems:
            return problems
        for m in mutants:
            target = tree / m.file
            text = target.read_text(encoding="utf-8") if target.is_file() else ""
            if text.count(m.old) != 1:
                problems.append(f"STALE     {m.name}: the old text occurs {text.count(m.old)} times in {m.file}")
                continue
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            codes = {test: _pytest(tree, test) for test in m.kills}
            took = time.perf_counter() - start
            target.write_text(text, encoding="utf-8")
            shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no example found under one mutant meets the next
            for test, code in codes.items():
                if code == 0:
                    problems.append(f"SURVIVED  {m.name}: {test} passes")
                elif code != 1:
                    problems.append(f"ERROR     {m.name}: {test} exits {code}")
            verdict = "killed" if all(code == 1 for code in codes.values()) else "NOT killed"
            print(f"{m.name}: {verdict} by {len(codes)} test(s) in {took:.1f} s", flush=True)
    return problems


def main() -> int:
    problems = run(read_mutants(MUTANTS))
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
