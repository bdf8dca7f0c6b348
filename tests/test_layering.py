"""Package layering: no module reaches into another module's private names,
only a log or log-log budget loads mpmath, no command on small integers loads decimal,
and every span group of the benchmark's tracer still finds a name to wrap."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import urbasis

PACKAGE = Path(urbasis.__file__).parent


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "urbasis"
        if internal:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"


def test_no_module_imports_a_private_name_of_another():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_imports(path)]
    assert offenders == []


def _names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.alias, ast.FunctionDef)):
            yield node.name


def test_only_decimal_text_io_names_decimal_io():
    # error messages show values through digits.quote, so no other module needs the block
    naming = {path.stem for path in PACKAGE.glob("*.py") if "decimal_io" in set(_names(path))}
    assert naming == {"digits", "construction", "tracefile", "cli"}


# Runs in a fresh interpreter and prints, after each step, whether mpmath and decimal are loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
loaded = {}
def probe(step):
    loaded[step] = {module: module in sys.modules for module in ("mpmath", "decimal")}
import urbasis
probe("import urbasis")
from urbasis.cli import main
probe("import urbasis.cli")
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv
trace, reaches = sys.argv[1:]
for command, argv in [
    ("build", ["build", "--greedy", "12", "-o", trace]),
    ("verify", ["verify", trace]),
    ("verify json", ["verify", trace, "--format", "json"]),
    ("analyze", ["analyze", trace]),
    ("export", ["export", trace]),
    ("build --c-list", ["build", "--c-list", reaches, "-o", trace]),
    ("build table", ["build", "--threshold", "table,4:10;6:100", "3", "-o", trace]),
    ("build log", ["build", "--threshold", "log,3,1", "8", "-o", trace]),
]:
    run(*argv)
    probe(command)
print(json.dumps(loaded))
"""


def test_only_a_log_budget_loads_mpmath(tmp_path):
    """And no step, all on small integers, loads decimal: only an integer past 30,000 bits is written through it."""
    reaches = tmp_path / "c.txt"
    reaches.write_text("1 4 14\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    argv = [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "t.trace"), str(reaches)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, env=env)
    loaded = json.loads(out.stdout)
    assert len(loaded) == 10
    assert loaded.pop("build log") == {"mpmath": True, "decimal": False}  # mpmath once a budget is inverted
    assert loaded == dict.fromkeys(loaded, {"mpmath": False, "decimal": False})


def test_every_tracer_group_resolves_a_callable():
    # a group none of whose names resolves is left out of a traced run, so its per-layer metric goes missing
    path = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines TARGETS and _lookup; install() is not called
    unresolved = [group for group, names in tracer.TARGETS.items()
                  if not any(callable(tracer._lookup(name)) for name in names)]
    assert tracer.TARGETS and unresolved == []
