"""Package layering: no module reaches into another module's private names,
the oracle, the bounds and the policies import no kernel module at run time,
no command loads mpmath or fractions, and none on small integers loads decimal
(greedy K=160 and log-log K=10 builds included), each command loads only the modules
it runs, the lazily loaded package keeps its public names, and every span group of the
benchmark's tracer still finds a name to wrap."""

import ast
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

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


def _runtime_imports(path):
    """The package modules a module imports outside `if TYPE_CHECKING:` blocks, without the package prefix."""
    todo, found = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))], set()
    while todo:
        node = todo.pop()
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            todo.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names]
            found.update(name.partition(".")[2] for name in names if name.partition(".")[0] == "urbasis")
        todo.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", ["oracle", "bounds", "policy"])
def test_readers_import_only_digits_and_record_at_run_time(module):
    # the oracle's agreement with the kernel is evidence only while it runs none of the kernel's code,
    # and the policies stay loadable by the reading commands without the builder
    assert _runtime_imports(PACKAGE / f"{module}.py") <= {"digits", "record"}


_POLICY_PROBE = """
import sys
from urbasis.policy import parse_budget
assert parse_budget("loglog,2,4,3").threshold(8) == 1616
assert parse_budget("table,4:10;6:100").threshold(6) == 100
print(*sorted(m for m in ("urbasis.construction", "urbasis.intset", "urbasis.tracefile") if m in sys.modules))
"""


def test_budgets_parse_and_invert_without_the_builder():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", _POLICY_PROBE], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == []


# pickle.dumps(initial_state(), protocol=0), written while the class was defined in urbasis.construction
_OLD_STEP_PICKLE = (
    b"ccopy_reg\n_reconstructor\np0\n(curbasis.construction\nConstructionStep\np1\nc__builtin__\nobject\np2\n"
    b"Ntp3\nRp4\n(dp5\nVk\np6\nI1\nsVbasis\np7\ng0\n(curbasis.intset\nIntSet\np8\ng2\nNtp9\nRp10\n(dp11\n"
    b"Velements\np12\n(I0\nI1\ntp13\nsbsVradius\np14\nI1\nsVgap\np15\nI1\nsVpositive_branch\np16\nI00\n"
    b"sVreach\np17\nNsb."
)


def test_trace_records_keep_their_construction_names():
    import urbasis.construction
    import urbasis.record
    assert urbasis.construction.BasisTrace is urbasis.record.BasisTrace
    assert urbasis.construction.ConstructionStep is urbasis.record.ConstructionStep
    assert pickle.loads(_OLD_STEP_PICKLE) == urbasis.construction.initial_state()


# pickle.dumps(policy, protocol=0), written while the policies were defined in urbasis.construction
_OLD_POLICY_PICKLES = {
    "greedy": b"ccopy_reg\n_reconstructor\np0\n(curbasis.construction\nGreedy\np1\nc__builtin__\nobject\np2\nNtp3\nRp4\n.",
    "loglog,2,4,3": (
        b"ccopy_reg\n_reconstructor\np0\n(curbasis.construction\nLogLogGrowth\np1\nc__builtin__\nobject\np2\nNtp3\n"
        b"Rp4\n(dp5\nVscale\np6\nI2\nsVoffset\np7\nI4\nsVshift\np8\nI3\nsb."
    ),
    "table,4:10;6:100": (
        b"ccopy_reg\n_reconstructor\np0\n(curbasis.construction\nThresholdTable\np1\nc__builtin__\nobject\np2\n"
        b"Ntp3\nRp4\n(dp5\nVtable\np6\n((I4\nI10\ntp7\n(I6\nI100\ntp8\ntp9\nsb."
    ),
}


def test_policies_keep_their_construction_names():
    from urbasis.construction import Greedy, LogLogGrowth, ThresholdTable
    loaded = {descriptor: pickle.loads(data) for descriptor, data in _OLD_POLICY_PICKLES.items()}
    assert loaded == {"greedy": Greedy(), "loglog,2,4,3": LogLogGrowth(2, 4, 3),
                      "table,4:10;6:100": ThresholdTable({4: 10, 6: 100})}  # records equal only within one class


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
    assert naming == {"digits", "construction", "policy", "tracefile", "cli"}


# Runs in a fresh interpreter.  Given only the trace and reach-list paths, it runs the commands below but the
# last, in order, and prints whether mpmath, decimal and fractions are loaded after each step.  Given command
# names after the paths, it runs only those, and prints the loaded modules named dataclasses, inspect or
# urbasis* after each step.
_IMPORT_PROBE = """
import contextlib, io, json, sys
loaded, modules = {}, {}
def probe(step):
    loaded[step] = {module: module in sys.modules for module in ("mpmath", "decimal", "fractions")}
    modules[step] = sorted(m for m in sys.modules
                           if m in ("dataclasses", "inspect") or m.partition(".")[0] == "urbasis")
import urbasis
probe("import urbasis")
from urbasis.cli import main
probe("import urbasis.cli")
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv
trace, reaches, *only = sys.argv[1:]
commands = {
    "build": ["build", "--greedy", "12", "-o", trace],
    "verify": ["verify", trace],
    "verify json": ["verify", trace, "--format", "json"],
    "analyze": ["analyze", trace],
    "export": ["export", trace],
    "build --c-list": ["build", "--c-list", reaches, "-o", trace],
    "build table": ["build", "--threshold", "table,4:10;6:100", "3", "-o", trace],
    "build log": ["build", "--threshold", "log,3,1", "8", "-o", trace],
    "analyze --rep-window": ["analyze", trace, "--rep-window", "-3,3"],
}
for command in only or list(commands)[:-1]:
    run(*commands[command])
    probe(command)
print(json.dumps(modules if only else loaded))
"""


def test_no_command_loads_mpmath_decimal_or_fractions(tmp_path):
    """Budgets invert on plain integers, and only an integer past 10,000 bits is written through decimal."""
    reaches = tmp_path / "c.txt"
    reaches.write_text("1 4 14\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    argv = [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "t.trace"), str(reaches)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, env=env)
    loaded = json.loads(out.stdout)
    assert len(loaded) == 10
    assert loaded == dict.fromkeys(loaded, {"mpmath": False, "decimal": False, "fractions": False})


_BUILD_PROBE = """
import contextlib, io, sys
from urbasis.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print(*(module in sys.modules for module in ("mpmath", "decimal", "fractions")))
"""


@pytest.mark.parametrize("argv", [["--greedy", "160"], ["--threshold", "loglog,2,4,3", "10"]],
                         ids=["greedy-160", "loglog-10"])
def test_builds_below_10_000_bits_do_not_load_decimal(tmp_path, argv):
    # greedy K=160's radius has 77 digits, loglog,2,4,3 K=10's 1,296: none reaches the derived writer's floor,
    # and neither build loads mpmath or fractions
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    cmd = [sys.executable, "-c", _BUILD_PROBE, "build", *argv, "-o", str(tmp_path / "t.trace")]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "False", "False"]


def test_every_tracer_group_resolves_a_callable():
    # a group none of whose names resolves is left out of a traced run, so its per-layer metric goes missing
    path = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines TARGETS and _lookup; install() is not called
    unresolved = [group for group, names in tracer.TARGETS.items()
                  if not any(callable(tracer._lookup(name)) for name in names)]
    assert tracer.TARGETS and unresolved == []


def _modules_after(tmp_path, command):
    """The modules named dataclasses, inspect or urbasis* that a fresh interpreter holds after each probe step."""
    (tmp_path / "c.txt").write_text("1 4 14\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    argv = [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "t.trace"), str(tmp_path / "c.txt"), command]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, env=env)
    return {step: set(names) for step, names in json.loads(out.stdout).items()}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """And none loads dataclasses or inspect, which cost ~10 ms to import."""
    cli = {"urbasis", "urbasis.cli", "urbasis.digits"}
    reader = cli | {"urbasis.intset", "urbasis.record", "urbasis.tracefile"}  # no command that reads loads the builder
    builder = reader | {"urbasis.construction", "urbasis.policy"}
    assert _modules_after(tmp_path, "build") == {"import urbasis": {"urbasis"}, "import urbasis.cli": cli,
                                                 "build": builder}  # and it writes the trace the others read
    expected = {
        "verify": reader | {"urbasis.oracle"},
        "verify json": reader | {"urbasis.oracle"},
        "analyze": reader | {"urbasis.bounds"},
        "analyze --rep-window": reader | {"urbasis.bounds", "urbasis.oracle"},
        "export": reader,
        "build --c-list": builder,
        "build log": builder,
    }
    loaded = {command: _modules_after(tmp_path, command)[command] for command in expected}
    assert [command for command, names in loaded.items() if names & {"dataclasses", "inspect"}] == []
    assert loaded == expected


# the public names of the package, by the module that defines each
PUBLIC = {
    "bounds": ("BoundCheck", "growth_report", "log_envelope", "reach_envelope", "sqrt_cap"),
    "construction": ("extend", "initial_state", "run_greedy", "run_with_growth"),
    "digits": ("DigitLimitError",),
    "intset": ("IntSet", "min_abs_missing"),
    "oracle": (
        "RepReport", "Verdict", "brute_rep_report", "default_window", "pairs_for", "verify_decomposition",
        "verify_gap_growth", "verify_trace", "verify_unique_window",
    ),
    "policy": (
        "ExplicitReaches", "Greedy", "GrowthConfigError", "GrowthPolicy", "LogGrowth", "LogLogGrowth",
        "ThresholdReach", "ThresholdTable", "parse_budget",
    ),
    "record": ("BasisTrace", "ConstructionStep"),
    "tracefile": ("TraceFormatError", "parse", "read_file", "serialize", "write_file"),
}


def test_the_lazy_namespace_keeps_the_public_api():
    namespace = {}
    exec("from urbasis import *", namespace)
    del namespace["__builtins__"]
    assert len(urbasis.__all__) == 37
    assert sorted(namespace) == sorted(urbasis.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    for home, names in PUBLIC.items():
        module = importlib.import_module(f"urbasis.{home}")
        for name in names:
            assert namespace[name] is getattr(urbasis, name) is vars(module)[name], name
    assert urbasis.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match=r"^module 'urbasis' has no attribute 'no_such_name'$"):
        urbasis.no_such_name


def test_dir_lists_every_public_name_before_any_is_read():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = "import json, sys, urbasis; print(json.dumps([dir(urbasis), sorted(sys.modules)]))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    listed, loaded = json.loads(out.stdout)
    assert set(urbasis.__all__) | {"__all__", "__version__"} <= set(listed)
    assert [m for m in loaded if m.startswith("urbasis.")] == []
