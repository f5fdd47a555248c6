"""Batch command-line frontend.

Every subcommand prints a single verification report (text by default,
`--format json` for machines) and exits 0 for a verified/unsat outcome or
4 when the check ran fine but refuted the claimed property.  Malformed
input (exit 1, usage errors included), a domain error (exit 2) and a budget
that cut the answer short (exit 3) print one line to stderr and no report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import __version__
from .errors import BudgetError, MalformedInput, QdpError, json_int
from .groups import DEFAULT_MAX_ORDER, group_from_json, p_subgroups
from .reports import REFUTED, UNSAT, VERIFIED, VerificationReport
from .steenrod import (
    DEFAULT_DEGREE_BUDGET,
    GradedElement,
    brute_force_zeta_proposition,
    invariants,
    steenrod_power,
    uv_bockstein_identity,
)

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_DOMAIN = 2
EXIT_BUDGET = 3
EXIT_REFUTED = 4

_STATUS_EXIT = {
    VERIFIED: EXIT_OK,
    UNSAT: EXIT_OK,
    REFUTED: EXIT_REFUTED,
}


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}")


def _budget(args) -> int:
    if args.budget < 0:
        raise MalformedInput(f"--budget must be at least 0, got {args.budget}")
    return args.budget


def _max_order(args) -> int:
    if args.max_order < 1:
        raise MalformedInput(f"--max-order must be at least 1, got {args.max_order}")
    return args.max_order


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: one `error:` line, no usage block."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.exit(EXIT_MALFORMED)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="qdp",
        description="exact verification of dimension-function and "
                    "Steenrod-algebra obstructions for Qd(p)")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    def budget(p):
        p.add_argument("--budget", type=int, default=DEFAULT_DEGREE_BUDGET,
                       help="degree budget for linear algebra "
                            f"(default {DEFAULT_DEGREE_BUDGET})")

    tb = sub.add_parser("theorem-b", help="no p-effective spherical fibration "
                                          "over the classifying space of Qd(p)")
    tb.add_argument("--p", type=int, required=True)
    tb.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    common(tb)

    tc = sub.add_parser("theorem-c", help="no free Qd(p) action on a product "
                                          "of two equal-dimensional spheres")
    tc.add_argument("--p", type=int, required=True)
    tc.add_argument("--k-list", type=str, default=None,
                    help="comma-separated distinct integers k >= 1, each "
                         "checking n = 2k - 1, e.g. 4,8,12; an empty item "
                         "(as in 4,,8) is malformed")
    tc.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    common(tc)
    budget(tc)

    bs = sub.add_parser("borel-smith", help="check the Borel-Smith conditions "
                                            "for a super class function")
    bs.add_argument("--group", required=True)
    bs.add_argument("--tau", required=True)
    bs.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    common(bs)

    rz = sub.add_parser("realize", help="write a monotone Borel-Smith function "
                                        "as a real representation")
    rz.add_argument("--group", required=True)
    rz.add_argument("--tau", required=True)
    rz.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    common(rz)

    fr = sub.add_parser("fix-rank", help="localized fixed-point rank of a "
                                         "two-row module model")
    fr.add_argument("--model", required=True)
    common(fr)

    sc = sub.add_parser("steenrod-check", help="verify the invariant-pair "
                                               "operation identities at p")
    sc.add_argument("--p", type=int, required=True)
    sc.add_argument("--samples", type=int, default=20)
    sc.add_argument("--seed", type=int, default=0)
    common(sc)

    pz = sub.add_parser("prop-zeta", help="find the Steenrod-closed invariant "
                                          "ideals generated in degree 2k as the "
                                          "greatest closed subspace")
    pz.add_argument("--p", type=int, required=True)
    pz.add_argument("--k", type=int, required=True)
    common(pz)
    budget(pz)
    return ap


# ---------------------------------------------------------------------------

def _cmd_theorem_b(args) -> VerificationReport:
    from .dimfun import qdp_obstruction_theorem_B
    return qdp_obstruction_theorem_B(args.p, max_order=_max_order(args))


def _cmd_theorem_c(args) -> VerificationReport:
    from .steenrod import theorem_C_driver
    max_order = _max_order(args)
    k_list = None
    if args.k_list is not None:
        try:
            k_list = [int(x) for x in args.k_list.split(",")]
        except ValueError:
            raise MalformedInput(f"bad --k-list {args.k_list!r}")
    return theorem_C_driver(args.p, k_list=k_list, degree_budget=_budget(args),
                            max_order=max_order)


def _load_tau(args):
    from .dimfun import superclassfunction_from_json
    max_order = _max_order(args)
    gobj = _load_json(args.group)
    tobj = _load_json(args.tau)
    group = group_from_json(gobj, max_order=max_order)
    try:
        prime = json_int(tobj["p"], "tau 'p'")
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"tau file needs a prime: {exc}")
    lattice = p_subgroups(group, prime, max_order=max_order)
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
    p = args.p
    if args.samples < 1:
        raise MalformedInput(f"--samples must be at least 1, got {args.samples}")
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
    res = brute_force_zeta_proposition(args.p, args.k, degree_budget=_budget(args))
    status = VERIFIED if res.matches else REFUTED
    return VerificationReport(
        statement_name="zeta-power-line",
        claim="the only Steenrod-closed invariant ideal generated in degree "
              f"{2 * args.k} is the line of the zeta power, and only when "
              f"{args.p + 1} divides {args.k}",
        status=status,
        witness=res.to_json())


_COMMANDS = {
    "theorem-b": _cmd_theorem_b,
    "theorem-c": _cmd_theorem_c,
    "borel-smith": _cmd_borel_smith,
    "realize": _cmd_realize,
    "fix-rank": _cmd_fix_rank,
    "steenrod-check": _cmd_steenrod_check,
    "prop-zeta": _cmd_prop_zeta,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_MALFORMED if exc.code not in (0,) else 0
    t0 = time.monotonic()
    try:
        report = _COMMANDS[args.command](args)
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
