"""Source guards: certificates must not depend on `assert` statements,
which `python -O` strips, nor on `raise AssertionError`, which the CLI
cannot map to an exit code; every raise names one of the three classes
that it maps.  Every certificate runs in a fresh interpreter, so the
runtime keeps clear of `dataclasses`, the modules it pulls in, and
`typing`: their import, and the methods `dataclass` generates and compiles
at every start, would be paid on every run.  Certificates leave out
`fractions` and `decimal` for the same reason, and the certificates that
read no input file leave out `json`.  For the same reason the CLI loads no
argparse, and a subcommand no module it does not run.  The
runtime defines nothing that it does not reach itself, apart from the one
function the benchmark imports: code that only the tests use lives under
tests/.  The names the benchmark traces resolve in the runtime.  The
runtime reads no environment variable, and Qd(p) keeps no table with more
than p entries.  The runtime parses as Python 3.10, the least version that
pyproject.toml admits."""

import ast
import importlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qdp
from qdp import cli
from qdp.dimfun import qdp_obstruction_theorem_B
from qdp.groups import construct_qdp

SRC = Path(qdp.__file__).resolve().parent

COVERED = ["steenrod.py", "fixrank.py", "groups.py", "reports.py", "cli.py", "errors.py",
           "characters.py", "dimfun.py"]


def _raised_name(node) -> str | None:
    """The class a raise statement names, or None for a bare re-raise or
    an expression that is not a plain name."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("name", COVERED)
def test_no_assert_statements(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} has assert statements at lines {lines}"


@pytest.mark.parametrize("name", COVERED)
def test_no_raise_assertion_error(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and _raised_name(node) == "AssertionError"]
    assert lines == [], f"{name} raises AssertionError at lines {lines}"


# cli.main maps MalformedInput to exit 1, BudgetError to exit 3 and any other
# QdpError to exit 2; errors.py defines these three exception classes only
EXIT_CODE_CLASSES = ["QdpError", "MalformedInput", "BudgetError"]


@pytest.mark.parametrize("name", COVERED)
def test_raises_name_an_exit_code_class(name):
    # besides those, only the JSON writer's TypeError and FiniteGroup's
    # abstract methods raise
    allowed = {*EXIT_CODE_CLASSES, "TypeError", "NotImplementedError"}
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and _raised_name(node) not in allowed]
    assert lines == [], f"{name} raises another class at lines {lines}"
    bases = {"Exception", "BaseException", *EXIT_CODE_CLASSES}
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and any(isinstance(b, ast.Name) and b.id in bases for b in node.bases)]
    assert classes == (EXIT_CODE_CLASSES if name == "errors.py" else [])


def test_every_module_is_listed():
    modules = {p.name for p in SRC.glob("*.py")} - {"__init__.py"}
    assert modules == set(COVERED)


@pytest.mark.parametrize("name", COVERED)
def test_no_dataclasses_import(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
             or (isinstance(node, ast.Import)
                 and any(alias.name == "dataclasses" for alias in node.names))]
    assert lines == [], f"{name} imports dataclasses at lines {lines}"


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


@pytest.mark.parametrize("name", COVERED)
def test_no_environment_reads(name):
    # a report records its argv, which names its input files, but not the
    # environment: a certificate must be a function of what it records
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT)
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and any(alias.name in ENVIRONMENT for alias in node.names))]
    assert lines == [], f"{name} reads the environment at lines {lines}"


def test_runtime_import_leaves_out_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, qdp.cli, qdp.dimfun, qdp.characters, qdp.fixrank; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', "
            "'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_out_argparse():
    # importing argparse (with gettext and locale) and building its parsers
    # cost more than many certificates
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, qdp.cli; "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


DATA = SRC / "data"


TAU_FILES = ["--group", str(DATA / "group_e9.json"), "--tau", str(DATA / "tau_regular_e9.json")]


@pytest.mark.parametrize("argv", [["borel-smith", *TAU_FILES], ["realize", *TAU_FILES],
                                  ["theorem-b", "--p", "3"]], ids=lambda argv: argv[0])
def test_tau_commands_leave_out_steenrod(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (f"import sys, qdp.cli; code = qdp.cli.main({argv!r}); "
            "print(code, 'qdp.steenrod' in sys.modules, 'qdp.fixrank' in sys.modules, "
            "file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr.strip().splitlines()[-1] == "0 False False", proc.stderr


@pytest.mark.parametrize("argv", [["borel-smith", *TAU_FILES], ["realize", *TAU_FILES],
                                  ["theorem-b", "--p", "3"]], ids=lambda argv: argv[0])
def test_certificates_leave_out_fractions_and_decimal(argv):
    # importing fractions (and decimal, which it can pull in) costs about
    # 2 ms per certificate; the exact solves keep to integers instead
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (f"import sys, qdp.cli; code = qdp.cli.main({argv!r}); "
            "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)), "
            "file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr.strip().splitlines()[-1] == "0 []", proc.stderr


RUNTIME = "qdp.cli, qdp.characters, qdp.dimfun, qdp.fixrank, qdp.steenrod"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [["theorem-b", "--p", "3"], ["theorem-c", "--p", "3"],
                                  ["prop-zeta", "--p", "3", "--k", "4"],
                                  ["steenrod-check", "--p", "3"]], ids=lambda argv: argv[0])
def test_certificates_leave_out_json(argv, fmt):
    # the json package costs a certificate about 1.7 ms of start-up; the
    # reports are written without it, and no runtime module imports it
    # at its top
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (f"import sys, {RUNTIME}; code = qdp.cli.main({[*argv, '--format', fmt]!r}); "
            "print(code, 'json' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr.strip().splitlines()[-1] == "0 False", proc.stderr


def test_reading_an_input_file_loads_json():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (f"import sys, qdp.cli; code = qdp.cli.main({['borel-smith', *TAU_FILES]!r}); "
            "print(code, 'json' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr.strip().splitlines()[-1] == "0 True", proc.stderr


@pytest.mark.parametrize("argv", [["prop-zeta", "--p", "3", "--k", "4"],
                                  ["steenrod-check", "--p", "3"],
                                  ["fix-rank", "--model", str(DATA / "model_rotation_p3.json")]],
                         ids=lambda argv: argv[0])
def test_group_free_certificates_leave_out_groups(argv):
    # importing qdp.groups costs about 0.9 ms; these certificates need only
    # `is_prime`, which lives in qdp.errors
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (f"import sys, qdp.cli; code = qdp.cli.main({argv!r}); "
            "print(code, 'qdp.groups' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr.strip().splitlines()[-1] == "0 False", proc.stderr


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_loads_no_subcommand_module(command):
    # help reads the flag table alone; a default that needs a subcommand
    # module would load it on every run of the command
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (f"import sys, qdp.cli; code = qdp.cli.main([{command!r}, '--help']); "
            "print(code, sorted({'qdp.steenrod', 'qdp.dimfun', 'qdp.characters', "
            "'qdp.fixrank', 'qdp.groups'} & set(sys.modules)), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr.strip().splitlines()[-1] == "0 []", proc.stderr


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# the benchmark imports `reports.canonical_json` to digest the reports
EXEMPT = {("reports.py", "canonical_json")}


def unreached_definitions(src: Path) -> list[str]:
    """The non-dunder definitions of the modules in `src` that no code in
    `src` refers to outside their own bodies, as "module:line name".

    A reference is a name read, an attribute or an imported name equal to
    the definition's name; a method (a def directly in a class body) is
    reached only through an attribute, so a local variable of the same
    name does not keep it.  References made inside an unreached definition
    do not count, so the search runs to a fixpoint: a helper used only by
    an unreached definition is unreached as well."""
    defs, refs = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, DEFINITIONS)}
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                if not (node.name.startswith("__") and node.name.endswith("__")) \
                        and (path.name, node.name) not in EXEMPT:
                    defs.append((path.name, node.name, node.lineno, node.end_lineno,
                                 id(node) in methods))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((path.name, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.lineno, node.attr, True))
            elif isinstance(node, ast.alias):
                refs += [(path.name, node.lineno, n, False)
                         for n in (node.name, node.asname) if n]

    def inside(ref, d):
        return ref[0] == d[0] and d[2] <= ref[1] <= d[3]

    def reaches(ref, d):
        return ref[2] == d[1] and (ref[3] or not d[4]) and not inside(ref, d)

    unreached: list[tuple] = []
    while True:
        live = [r for r in refs if not any(inside(r, d) for d in unreached)]
        found = [d for d in defs if d not in unreached
                 and not any(reaches(r, d) for r in live)]
        if not found:
            return [f"{m}:{line} {name}"
                    for m, name, line, *_ in sorted(unreached, key=lambda d: (d[0], d[2]))]
        unreached += found


def test_every_definition_is_used():
    unreached = unreached_definitions(SRC)
    assert unreached == [], f"defined but not reached from src/qdp: {unreached}"


def test_a_local_name_does_not_reach_a_method(tmp_path):
    # the local `reps` reads the name of the method, which nothing calls
    (tmp_path / "lattice.py").write_text(
        "class Classes:\n"
        "    def __init__(self):\n"
        "        self.items = [1, 2]\n"
        "\n"
        "    def reps(self):\n"
        "        return self.items\n")
    (tmp_path / "use.py").write_text(
        "from lattice import Classes\n"
        "\n"
        "def count(c):\n"
        "    reps = len(c.items)\n"
        "    return reps\n"
        "\n"
        "print(count(Classes()))\n")
    assert unreached_definitions(tmp_path) == ["lattice.py:5 reps"]


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned(path: Path, name: str) -> ast.expr:
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise LookupError(f"{path.name} assigns no {name}")


def _strings(node: ast.AST) -> list[str]:
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def bench_traced_names() -> list[str]:
    """The qdp names the benchmark traces or counts: the values of
    SPAN_TIMES, SPAN_CALLS and TARGET in run.py (their keys name metrics and
    workloads) and the members of COUNT_ONLY in trace_launch.py."""
    names = []
    for var in ("SPAN_TIMES", "SPAN_CALLS", "TARGET"):
        names += [s for v in _assigned(BENCH / "run.py", var).values for s in _strings(v)]
    return names + _strings(_assigned(BENCH / "trace_launch.py", "COUNT_ONLY"))


def test_bench_traced_names_resolve():
    # a name that no longer resolves would silently empty its metric
    names = bench_traced_names()
    assert "dimfun.generation_by_order_p" in names and "groups.p_part" in names
    unresolved = []
    for name in names:
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"qdp.{layer}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            unresolved.append(name)
    assert unresolved == [], f"traced by the benchmark but not in qdp: {unresolved}"


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_qdp_set_up_allocates_less_than_the_group():
    # |Qd(1009)| is about 10^15, and |SL2(1009)| about 10^9: a table of
    # matrices alone would take tens of GB
    G, peak = traced_peak(construct_qdp, 1009, max_order=10 ** 16)
    assert G.order == 1009 ** 3 * (1009 ** 2 - 1)
    assert peak < 2 ** 20, f"construct_qdp(1009) peaked at {peak / 2 ** 20:.2f} MB"


def test_theorem_b_allocates_less_than_the_sylow_subgroup():
    # at p = 61 a listing of P, or a set of its 226,981 members, alone
    # takes more than 4 MB
    cert, peak = traced_peak(qdp_obstruction_theorem_B, 61, max_order=61 ** 3 * (61 ** 2 - 1))
    assert cert.status == "unsat-certificate"
    assert peak < 4 * 2 ** 20, f"theorem-b at p = 61 peaked at {peak / 2 ** 20:.1f} MB"


def test_runtime_parses_as_the_least_python():
    # requires-python = ">=3.10": no module may use later syntax
    assert 'requires-python = ">=3.10"' in (SRC.parents[1] / "pyproject.toml").read_text()
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    later = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(later)
    with pytest.raises(SyntaxError):
        ast.parse(later, feature_version=(3, 10))


def _bench_record():
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_diff_reports_each_metric():
    def record(digest, batch, ratio):
        return {"workloads": {"zeta": {
            "canonical_sha256": digest, "commit": "c", "src_qdp_lines": 1,
            "result": {"metrics": {"batch_s": {"value": batch, "unit": "s"},
                                   "pass_ratio": {"value": ratio, "unit": "ratio"}}}}}}

    lines = _bench_record().diff(record("aa", 2.0, 1.0), record("aa", 1.5, 1.0))
    assert lines == [
        "fusion  not in both records",
        "zeta    batch_s          2.000000 ->     1.500000 s       -25.0%",
        "zeta    pass_ratio       1.000000 ->     1.000000 ratio    +0.0%",
        "corpus  not in both records"]
    lines = _bench_record().diff(record("aa", 0.0, 1.0), record("bb", 0.5, 1.0))
    assert lines[1] == "zeta    canonical_sha256 aa -> bb"
    assert lines[2].endswith("     n/a")
