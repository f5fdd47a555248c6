"""Batch command-line frontend.

Every subcommand prints a single verification report (text by default,
`--format json` for machines) and exits 0 for a verified/unsat outcome or
4 when the check ran fine but refuted the claimed property.  Malformed
input (exit 1, usage errors included), a domain error (exit 2) and a budget
that cut the answer short (exit 3) print one line to stderr and no report.

Every certificate starts a fresh interpreter, so one table (COMMANDS) and a
short parser read the flags instead of argparse, whose import and parsers
cost more than many certificates, and a subcommand imports what it runs.
For the same reason the report is printed by `reports.json_dumps`, whose
text is json.dumps's with sorted keys, and `_load_json` reads an input
file with the C scanner under `json.loads`: the `json` package, whose
import compiles its regexes, loads only to word a malformed file's error.

The process entry `run` (the `qdp` script and `python -m qdp.cli`) runs
`main`, then the atexit handlers, flushes stdout and stderr and ends with
`os._exit`: interpreter teardown, which frees every module and object one
by one, would cost a certificate about a millisecond and the OS reclaims
it all anyway.  `main(argv)` returns its exit code to an in-process caller
and leaves the interpreter as it is.  A report that stdout refuses (a
closed pipe, a full disk) is one `error:` line and exit 2, whether `main`'s
print or `run`'s flush meets the error.
"""

from __future__ import annotations

import atexit
import os
import sys
import time
from types import SimpleNamespace

from . import __version__
from .errors import (
    DEFAULT_DEGREE_BUDGET,
    DEFAULT_MAX_ORDER,
    BudgetError,
    MalformedInput,
    QdpError,
    ascii_int,
    json_int,
)
from .reports import REFUTED, UNSAT, VERIFIED, VerificationReport, json_dumps

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_DOMAIN = 2
EXIT_BUDGET = 3
EXIT_REFUTED = 4

_STATUS_EXIT = {VERIFIED: EXIT_OK, UNSAT: EXIT_OK, REFUTED: EXIT_REFUTED}


def _load_json(path: str) -> dict:
    """A JSON input file read as UTF-8, with what `json.load` returns.

    The text is parsed by `_json.make_scanner`, the C scanner `json.loads`
    runs on, under `JSONDecoder.decode`'s rules: skip " \\t\\n\\r", scan one
    value, allow only " \\t\\n\\r" after it.  Importing the `json` package
    compiles its regexes, about 2 ms of a certificate's start-up, so it
    loads only when the scan fails: `json.loads` then raises its own error
    for the same text, and that wording is the one-line message.  A file
    that cannot be opened or decoded (ValueError covers UnicodeDecodeError
    and JSONDecodeError) or that nests past the recursion limit is
    malformed input.  Where `_json` is missing, `json.loads` reads every
    file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}")
    try:
        from _json import make_scanner
    except ImportError:
        pass
    else:
        constants = {"NaN": float("nan"), "Infinity": float("inf"),
                     "-Infinity": float("-inf")}
        scan = make_scanner(SimpleNamespace(
            strict=True, object_hook=None, object_pairs_hook=None,
            parse_float=float, parse_int=int, parse_constant=constants.__getitem__))
        space = " \t\n\r"
        # before Python 3.12 the scanner raises JSONDecodeError only when
        # json.decoder is already imported, and SystemError otherwise
        try:
            obj, end = scan(text, len(text) - len(text.lstrip(space)))
        except (StopIteration, ValueError, RecursionError, SystemError):
            pass
        else:
            if not text[end:].lstrip(space):
                return obj
    import json  # words the error, or reads the file where _json is missing
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}")


# ---------------------------------------------------------------------------

def _cmd_theorem_b(args) -> VerificationReport:
    from .dimfun import qdp_obstruction_theorem_B
    return qdp_obstruction_theorem_B(args.p, max_order=args.max_order)


def _cmd_theorem_c(args) -> VerificationReport:
    from .steenrod import theorem_C_driver
    k_list = None
    if args.k_list is not None:
        k_list = [ascii_int(x, "a --k-list item") for x in args.k_list.split(",")]
    return theorem_C_driver(args.p, k_list=k_list, degree_budget=args.budget)


def _load_tau(args):
    from .dimfun import superclassfunction_from_json
    from .groups import group_from_json, p_subgroups
    gobj = _load_json(args.group)
    tobj = _load_json(args.tau)
    group = group_from_json(gobj, max_order=args.max_order)
    try:
        prime = json_int(tobj["p"], "tau 'p'")
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"tau file needs a prime: {exc}")
    # a tau file may name its group; it must be the one it is checked on
    if "group" in tobj and tobj["group"] != group.to_json():
        raise QdpError(f"the tau file names another group than {args.group}")
    lattice = p_subgroups(group, prime, max_order=args.max_order)
    return superclassfunction_from_json(tobj, lattice=lattice), group


def _cmd_borel_smith(args) -> VerificationReport:
    from .dimfun import check_borel_smith
    tau, group = _load_tau(args)
    report = check_borel_smith(tau)
    status = VERIFIED if report.ok else REFUTED
    return VerificationReport(
        statement_name="borel-smith-conditions",
        claim="the given super class function satisfies the Borel-Smith "
              "conditions on all p-subgroups",
        status=status,
        witness={"group": group.to_json(), **report.to_json()})


def _cmd_realize(args) -> VerificationReport:
    from .characters import real_representation_basis
    from .dimfun import realize_as_representation
    tau, group = _load_tau(args)
    # characters need a p-group, which is its own Sylow subgroup
    basis = real_representation_basis(group, subgroups=tau.lattice.sylow_subgroups)
    sol, refutation = realize_as_representation(tau, basis)
    if sol is None:
        status = REFUTED
        witness = refutation
    else:
        status = VERIFIED
        witness = {"multiplicities": {str(k): v for k, v in sol.items()},
                   "basis": [{"index": i, "realness": e.realness,
                              "degree": e.real_degree}
                             for i, e in enumerate(basis)]}
    return VerificationReport(
        statement_name="representation-realization",
        claim="the function is the fixed-point dimension function of a real "
              "representation",
        status=status, witness=witness)


def _cmd_fix_rank(args) -> VerificationReport:
    from .fixrank import TwoRowModule, fix_rank
    model = TwoRowModule.from_json(_load_json(args.model))
    res = fix_rank(model)
    return VerificationReport(
        statement_name="localized-fixed-point-rank",
        claim="the localized fixed points of the model form the cohomology "
              f"of a sphere of rank {res.rank}",
        status=VERIFIED,
        witness={"model": model.to_json(), **res.to_json()})


def _cmd_steenrod_check(args) -> VerificationReport:
    import random

    from .steenrod import GradedElement, invariants, steenrod_power, uv_bockstein_identity
    p = args.p
    inv = invariants(p)
    ok_zeta = steenrod_power(1, inv.zeta).is_zero()
    ok_xi = steenrod_power(1, inv.xi) == inv.zeta ** (p - 1)
    rng = random.Random(args.seed)
    samples = [GradedElement(p, {(rng.randrange(6), rng.randrange(6), 0, 0):
                                 rng.randrange(1, p) for _ in range(3)})
               for _ in range(args.samples)]
    ok_bock, _ = uv_bockstein_identity(p, samples)
    status = VERIFIED if (ok_zeta and ok_xi and ok_bock) else REFUTED
    return VerificationReport(
        statement_name="invariant-operation-identities",
        claim="P^1 kills zeta, P^1 sends xi to zeta^(p-1), and the Bockstein "
              "of uv times a polynomial is (xv - uy) times it",
        status=status,
        witness={"p": p, "P1_zeta_zero": ok_zeta, "P1_xi_is_zeta_power": ok_xi,
                 "bockstein_samples": args.samples, "bockstein_ok": ok_bock,
                 "seed": args.seed})


def _cmd_prop_zeta(args) -> VerificationReport:
    from .steenrod import brute_force_zeta_proposition
    res = brute_force_zeta_proposition(args.p, args.k, degree_budget=args.budget)
    status = VERIFIED if res.matches else REFUTED
    return VerificationReport(
        statement_name="zeta-power-line",
        claim="the only Steenrod-closed invariant ideal generated in degree "
              f"{2 * args.k} is the line of the zeta power, and only when "
              f"{args.p + 1} divides {args.k}",
        status=status,
        witness=res.to_json())


# ---------------------------------------------------------------------------
# One table names each subcommand's handler, help line and flags.  A flag is
# (name, type, default, least, help): the type is int, str or a tuple of
# choices; the default is a value or _REQUIRED; least, if not None, bounds an
# integer below.

_REQUIRED = object()
_P = ("--p", int, _REQUIRED, None, "the prime p")
_MAX_ORDER = ("--max-order", int, DEFAULT_MAX_ORDER, 1, "largest group order to build")
_GROUP = ("--group", str, _REQUIRED, None, "group JSON file")
_TAU = ("--tau", str, _REQUIRED, None, "super class function JSON file")
_BUDGET = ("--budget", int, DEFAULT_DEGREE_BUDGET, 0, "degree budget for linear algebra")
_FORMAT = ("--format", ("text", "json"), "text", None, "report format")
_K_LIST = ("--k-list", str, None, None, "comma-separated distinct integers k >= 1, each "
           "checking n = 2k - 1, e.g. 4,8,12; an empty item (as in 4,,8) is malformed")

COMMANDS = {
    "theorem-b": (_cmd_theorem_b, "no p-effective spherical fibration over the "
                  "classifying space of Qd(p)", [_P, _MAX_ORDER, _FORMAT]),
    "theorem-c": (_cmd_theorem_c, "no free Qd(p) action on a product of two "
                  "equal-dimensional spheres", [_P, _K_LIST, _FORMAT, _BUDGET]),
    "borel-smith": (_cmd_borel_smith, "check the Borel-Smith conditions for a super "
                    "class function", [_GROUP, _TAU, _MAX_ORDER, _FORMAT]),
    "realize": (_cmd_realize, "write a monotone Borel-Smith function as a real "
                "representation", [_GROUP, _TAU, _MAX_ORDER, _FORMAT]),
    "fix-rank": (_cmd_fix_rank, "localized fixed-point rank of a two-row module model",
                 [("--model", str, _REQUIRED, None, "two-row model JSON file"), _FORMAT]),
    "steenrod-check": (_cmd_steenrod_check, "verify the invariant-pair operation "
                       "identities at p", [_P, ("--samples", int, 20, 1, "Bockstein "
                       "samples"), ("--seed", int, 0, None, "sample seed"), _FORMAT]),
    "prop-zeta": (_cmd_prop_zeta, "find the Steenrod-closed invariant ideals generated "
                  "in degree 2k as the greatest closed subspace",
                  [_P, ("--k", int, _REQUIRED, None, "half the degree"), _FORMAT, _BUDGET]),
}


def _help(command: str | None) -> str:
    if command is None:
        return "\n".join(
            ["usage: qdp COMMAND [--flag value | --flag=value ...]", "",
             "exact verification of dimension-function and Steenrod-algebra "
             "obstructions for Qd(p)", "", "commands (qdp COMMAND --help lists the flags):"]
            + [f"  {name:<16}{text}" for name, (_, text, _) in COMMANDS.items()])
    _, text, flags = COMMANDS[command]
    lines = [f"usage: qdp {command} [--flag value | --flag=value ...]", "", text, "",
             "flags (exact names only; the last of a repeated flag counts):"]
    for name, kind, default, least, helptext in flags:
        kind = "{" + ",".join(kind) + "}" if type(kind) is tuple else kind.__name__
        if least is not None:
            helptext += f", at least {least}"
        if default is not None:
            helptext += " (required)" if default is _REQUIRED else f" (default {default})"
        lines.append(f"  {name} {kind}  {helptext}")
    return "\n".join(lines)


def parse_args(argv: list[str]):
    """The handler and the flag values that `argv` names, or the help or
    version text it asks for.  A usage error raises MalformedInput."""
    if not argv:
        raise MalformedInput("the following arguments are required: command")
    if argv[0] in ("-h", "--help", "--version"):
        return __version__ if argv[0] == "--version" else _help(None)
    if argv[0] not in COMMANDS:
        raise MalformedInput(f"argument command: invalid choice: {argv[0]!r} "
                             f"(choose from {', '.join(map(repr, COMMANDS))})")
    handler, _, flags = COMMANDS[argv[0]]
    table = {flag[0]: flag for flag in flags}
    values = {flag[0]: flag[2] for flag in flags}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return _help(argv[0])
        name, eq, text = token.partition("=")
        if name not in table:
            raise MalformedInput(f"unrecognized arguments: {token}")
        if not eq:
            text = next(tokens, None)
            # as in argparse, a value starts with '-' only as a negative number
            if text is None or (text[:1] == "-" and not text[1:].isdigit()):
                raise MalformedInput(f"argument {name}: expected one argument")
        _, kind, _, least, _ = table[name]
        if kind is int:
            text = ascii_int(text, f"argument {name}")
            if least is not None and text < least:
                raise MalformedInput(f"{name} must be at least {least}, got {text}")
        elif kind is not str and text not in kind:
            raise MalformedInput(f"argument {name}: invalid choice: {text!r} "
                                 f"(choose from {', '.join(map(repr, kind))})")
        values[name] = text
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise MalformedInput(f"the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(**{name[2:].replace("-", "_"): value
                                       for name, value in values.items()})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parsed = parse_args(argv)
        if type(parsed) is str:
            return _write(parsed, EXIT_OK)
        handler, args = parsed
        t0 = time.monotonic()
        report = handler(args)
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except QdpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    report.command = argv
    report.timing_ms = (time.monotonic() - t0) * 1000.0
    text = json_dumps(report.to_json()) if args.format == "json" else report.to_text()
    return _write(text, _STATUS_EXIT.get(report.status, EXIT_DOMAIN))


def _write(text: str, code: int) -> int:
    """Print `text` and return `code`; if stdout refuses it, print one
    error line to stderr and return 2."""
    try:
        print(text)
    except OSError as exc:
        return _cannot_write(exc)
    return code


def _cannot_write(exc: OSError) -> int:
    print(f"error: cannot write the report: {exc}", file=sys.stderr)
    return EXIT_DOMAIN


def run() -> None:
    """Process entry: run `main` on sys.argv, then the atexit handlers, flush
    stdout and stderr and end the process with `os._exit` and `main`'s code,
    skipping interpreter teardown.  A flush that fails is a report that
    cannot be written (exit 2)."""
    code = main()
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = _cannot_write(exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
