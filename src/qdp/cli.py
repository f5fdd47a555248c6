"""Batch command-line frontend.

Every subcommand prints a single verification report (text by default,
`--format json` for machines) and exits 0 for a verified/unsat outcome or
4 when the check ran fine but refuted the claimed property.  Malformed
input (exit 1, usage errors included), a domain error (exit 2) and a budget
that cut the answer short (exit 3) print one line to stderr and no report.

Every certificate starts a fresh interpreter, so one table (COMMANDS) and a
short parser read the flags instead of argparse, whose import and parsers
cost more than many certificates, and a subcommand imports what it runs.

The process entry `run` (the `qdp` script and `python -m qdp.cli`) calls
`gc.freeze()` before `main`: what start-up, `site` and this module's
imports allocated moves to the permanent generation, which neither the
run's collections nor those at interpreter shutdown walk or free; the OS
reclaims it at exit.  `main(argv)` itself never freezes, so an in-process
caller's heap stays collectable.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from types import SimpleNamespace

from . import __version__
from .errors import (
    DEFAULT_DEGREE_BUDGET,
    BudgetError,
    MalformedInput,
    QdpError,
    ascii_int,
    json_int,
)
from .groups import DEFAULT_MAX_ORDER, group_from_json, p_subgroups
from .reports import REFUTED, UNSAT, VERIFIED, VerificationReport

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_DOMAIN = 2
EXIT_BUDGET = 3
EXIT_REFUTED = 4

_STATUS_EXIT = {VERIFIED: EXIT_OK, UNSAT: EXIT_OK, REFUTED: EXIT_REFUTED}


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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
    return theorem_C_driver(args.p, k_list=k_list, degree_budget=args.budget,
                            max_order=args.max_order)


def _load_tau(args):
    from .dimfun import superclassfunction_from_json
    gobj = _load_json(args.group)
    tobj = _load_json(args.tau)
    group = group_from_json(gobj, max_order=args.max_order)
    try:
        prime = json_int(tobj["p"], "tau 'p'")
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"tau file needs a prime: {exc}")
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
    sol = realize_as_representation(tau, basis)
    if sol is None:
        status = REFUTED
        witness = {"note": "complete bounded search found no nonnegative "
                           "combination"}
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
                  "equal-dimensional spheres", [_P, _K_LIST, _MAX_ORDER, _FORMAT, _BUDGET]),
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
    """The handler and the flag values that `argv` names, or None once help
    or the version is printed.  A usage error raises MalformedInput."""
    if not argv:
        raise MalformedInput("the following arguments are required: command")
    if argv[0] in ("-h", "--help", "--version"):
        print(__version__ if argv[0] == "--version" else _help(None))
        return None
    if argv[0] not in COMMANDS:
        raise MalformedInput(f"argument command: invalid choice: {argv[0]!r} "
                             f"(choose from {', '.join(map(repr, COMMANDS))})")
    handler, _, flags = COMMANDS[argv[0]]
    table = {flag[0]: flag for flag in flags}
    values = {flag[0]: flag[2] for flag in flags}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(_help(argv[0]))
            return None
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
        if parsed is None:
            return EXIT_OK
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
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report.to_text())
    return _STATUS_EXIT.get(report.status, EXIT_DOMAIN)


def run() -> None:
    """Process entry: freeze the start-up heap, run `main` on sys.argv and
    exit with its code.  Output, exit codes and atexit handlers are those
    of `main`."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    run()
