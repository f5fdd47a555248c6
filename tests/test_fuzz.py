"""The CLI contract under mutated inputs.

Each example takes the shipped input files of one command, mutates one
of them (drops a key, swaps a value for a string, a negative number or a
list, or shortens a `mul` row) and runs the command in process.  The
integer-argument commands get random small integers instead, capped so
that no example starts a large computation.  Whatever the input, the
command must return an exit code 0-4, let no exception escape and write
at most one line to stderr.
"""

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdp.cli import main

INPUTS = {
    "borel-smith": {"--group": ["group_e9.json", "group_qd3.json"],
                    "--tau": ["tau_regular_e9.json", "tau_violating_e9.json"]},
    "realize": {"--group": ["group_e9.json"],
                "--tau": ["tau_regular_e9.json", "tau_violating_e9.json"]},
    "fix-rank": {"--model": ["model_lens_p3.json", "model_rotation_p3.json",
                             "model_trivial_p3_n4.json"]},
}

REPLACEMENTS = st.one_of(st.text(max_size=3), st.integers(-5, -1),
                         st.lists(st.integers(-1, 9), max_size=3))


def _load(name: str):
    return json.loads(resources.files("qdp").joinpath("data", name).read_text())


def _paths(obj, path=()):
    """Every (path, value) below the root of a JSON document."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


@st.composite
def mutate(draw, doc):
    paths = list(_paths(doc))
    rows = [p for p, v in paths if p[-2:-1] == ("mul",) and v]
    kinds = ["drop", "replace"] + (["shorten"] if rows else [])
    kind = draw(st.sampled_from(kinds))
    path = draw(st.sampled_from(rows if kind == "shorten" else [p for p, _ in paths]))
    *head, key = path
    parent = doc
    for step in head:
        parent = parent[step]
    if kind == "drop":
        del parent[key]
    elif kind == "replace":
        parent[key] = draw(REPLACEMENTS)
    else:
        parent[key] = parent[key][:-1]
    return doc


@st.composite
def invocation(draw, command):
    files = {flag: draw(st.sampled_from(names))
             for flag, names in INPUTS[command].items()}
    target = draw(st.sampled_from(sorted(files)))
    docs = {flag: _load(name) for flag, name in files.items()}
    docs[target] = draw(mutate(docs[target]))
    return docs


# caps: theorem-b's |Qd(p)| <= 20000 reaches p = 7 at most, and a degree
# budget of at most 200 keeps every zeta leg, and theorem-c's group, small
PRIME = st.integers(-3, 13)
INTEGER_ARGS = {
    "theorem-b": {"--p": PRIME, "--max-order": st.integers(-3, 20000)},
    "theorem-c": {"--p": PRIME, "--k-list": st.text("0123456789,-", max_size=6),
                  "--budget": st.integers(-3, 200)},
    "prop-zeta": {"--p": PRIME, "--k": st.integers(-3, 40),
                  "--budget": st.integers(-3, 200)},
    "steenrod-check": {"--p": PRIME, "--samples": st.integers(-3, 40),
                       "--seed": st.integers(-3, 1000)},
}
REQUIRED = {"--p", "--k"}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", "json"])
    assert code in range(5), (code, argv)
    assert err.getvalue().count("\n") <= 1, err.getvalue()


@st.composite
def integer_invocation(draw):
    command = draw(st.sampled_from(sorted(INTEGER_ARGS)))
    argv = [command]
    for flag, values in INTEGER_ARGS[command].items():
        if flag in REQUIRED or draw(st.booleans()):
            # --flag value reads a value such as -4,8 as a flag: a usage
            # error, which must still be one line
            value = draw(values)
            argv += draw(st.sampled_from([[f"{flag}={value}"], [flag, str(value)]]))
    return argv


@settings(max_examples=40, deadline=None)
@given(argv=integer_invocation())
def test_integer_arguments_keep_the_exit_contract(argv):
    _run(argv)


@pytest.mark.parametrize("command", sorted(INPUTS))
def test_mutated_inputs_keep_the_exit_contract(command):
    @settings(max_examples=50, deadline=None)
    @given(docs=invocation(command))
    def check(docs):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command]
            for flag, doc in docs.items():
                path = Path(tmp) / f"{flag[2:]}.json"
                path.write_text(json.dumps(doc))
                argv += [flag, str(path)]
            _run(argv)

    check()
