"""Command-line frontend: reports, exit codes, bundled corpus."""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import qdp
from qdp.cli import (
    COMMANDS,
    EXIT_BUDGET,
    EXIT_DOMAIN,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_REFUTED,
    main,
)
from qdp.groups import p_subgroups
from qdp.reports import canonical_json
from qdp.steenrod import GradedElement
from fixtures import modular_p3


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def data_path(name: str) -> str:
    return str(resources.files("qdp").joinpath("data", name))


def test_corpus_checksums():
    base = resources.files("qdp").joinpath("data")
    sums = base.joinpath("SHA256SUMS").read_text().strip().splitlines()
    assert len(sums) == 7
    for line in sums:
        digest, name = line.split()
        blob = base.joinpath(name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest, name


def test_theorem_b_cli(capsys):
    code, report = run_json(capsys, "theorem-b", "--p", "3")
    assert code == EXIT_OK
    assert report["status"] == "unsat-certificate"
    assert report["schema"] == "2"
    leg_names = [l["name"] for l in report["legs"]]
    assert "fusion-witness" in leg_names


REPORT_KEYS = {"schema", "command", "statement", "status", "legs", "witness",
               "timing_ms"}


@pytest.mark.parametrize("argv", [
    ["theorem-b", "--p", "3"],
    ["theorem-c", "--p", "3", "--k-list", "4"],
    ["borel-smith", "--group", data_path("group_e9.json"),
     "--tau", data_path("tau_regular_e9.json")],
    ["realize", "--group", data_path("group_e9.json"),
     "--tau", data_path("tau_regular_e9.json")],
    ["fix-rank", "--model", data_path("model_rotation_p3.json")],
    ["steenrod-check", "--p", "3"],
    ["prop-zeta", "--p", "3", "--k", "4"],
], ids=lambda argv: argv[0])
def test_one_report_shape(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert set(report) == REPORT_KEYS and report["schema"] == "2"
    assert report["command"] == argv + ["--format", "json"]
    assert set(report["statement"]) == {"name", "claim"}
    assert bool(report["legs"]) == argv[0].startswith("theorem-")


def test_certificate_status_follows_legs():
    from qdp.reports import Certificate, Leg
    verified, assumed, refuted = (Leg("a", "verified"), Leg("b", "assumed"),
                                  Leg("c", "refuted"))
    assert Certificate("s", "c", [verified, assumed], {}).status == "unsat-certificate"
    assert Certificate("s", "c", [verified, refuted], {}).status == "refuted"
    assert Certificate("s", "c", [assumed], {}).status == "refuted"
    assert Certificate("s", "c", [], {}).status == "refuted"


def test_theorem_b_even_prime_exit(capsys):
    assert main(["theorem-b", "--p", "2"]) == EXIT_DOMAIN


def test_theorem_c_cli(capsys):
    code, report = run_json(capsys, "theorem-c", "--p", "3", "--k-list", "4,6")
    assert code == EXIT_OK
    assert report["status"] == "unsat-certificate"


def test_theorem_c_max_order(capsys):
    code, report = run_json(capsys, "theorem-c", "--p", "7",
                            "--max-order", "20000", "--k-list", "8")
    assert code == EXIT_OK
    assert report["status"] == "unsat-certificate"
    assert main(["theorem-c", "--p", "7", "--k-list", "8"]) == EXIT_DOMAIN


def test_theorem_b_failed_check_is_refuted(capsys, monkeypatch):
    monkeypatch.setattr("qdp.dimfun.is_conjugate", lambda G, H, K: None)
    code, report = run_json(capsys, "theorem-b", "--p", "3")
    assert code == EXIT_REFUTED
    assert report["status"] == "refuted"
    legs = {leg["name"]: leg["status"] for leg in report["legs"]}
    assert legs["fusion-witness"] == "refuted"


def test_theorem_b_without_asserts():
    # python -O strips assert statements; the certificate must not need them
    env = dict(os.environ,
               PYTHONPATH=str(Path(qdp.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qdp.cli", "theorem-b", "--p", "3",
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["status"] == "unsat-certificate"


def test_borel_smith_cli_verified_and_refuted(capsys):
    code, report = run_json(capsys, "borel-smith",
                            "--group", data_path("group_e9.json"),
                            "--tau", data_path("tau_regular_e9.json"))
    assert code == EXIT_OK and report["status"] == "verified"
    code, report = run_json(capsys, "borel-smith",
                            "--group", data_path("group_e9.json"),
                            "--tau", data_path("tau_violating_e9.json"))
    assert code == EXIT_REFUTED and report["status"] == "refuted"
    assert report["witness"]["violations"]


def test_realize_cli(capsys):
    code, report = run_json(capsys, "realize",
                            "--group", data_path("group_e9.json"),
                            "--tau", data_path("tau_regular_e9.json"))
    assert code == EXIT_OK and report["status"] == "verified"
    mults = report["witness"]["multiplicities"]
    assert sum(int(v) for v in mults.values()) >= 1


def test_fix_rank_cli(capsys):
    code, report = run_json(capsys, "fix-rank",
                            "--model", data_path("model_lens_p3.json"))
    assert code == EXIT_OK
    assert report["witness"]["rank"] == -1
    code, report = run_json(capsys, "fix-rank",
                            "--model", data_path("model_rotation_p3.json"))
    assert report["witness"]["rank"] == 0
    code, report = run_json(capsys, "fix-rank",
                            "--model", data_path("model_trivial_p3_n4.json"))
    assert report["witness"]["rank"] == 4


def test_steenrod_check_cli(capsys):
    code, report = run_json(capsys, "steenrod-check", "--p", "5")
    assert code == EXIT_OK
    assert report["witness"]["P1_zeta_zero"] and report["witness"]["P1_xi_is_zeta_power"]


def test_prop_zeta_cli(capsys):
    code, report = run_json(capsys, "prop-zeta", "--p", "3", "--k", "4")
    assert code == EXIT_OK and report["witness"]["matches"]
    code, report = run_json(capsys, "prop-zeta", "--p", "3", "--k", "6")
    assert code == EXIT_OK and report["witness"]["survivors"] == []


def test_prop_zeta_exhaustive_beyond_dimension_three(capsys):
    # dimension 4: 211 subspaces
    code, report = run_json(capsys, "prop-zeta", "--p", "3", "--k", "36",
                            "--budget", "216")
    assert code == EXIT_OK and report["status"] == "verified"
    assert report["witness"]["exhaustive_subspaces"] is True
    assert report["witness"]["ambient"] == [[0, 9], [2, 6], [4, 3], [6, 0]]
    assert report["witness"]["survivors"] == [[[1, 0, 0, 0]]]
    # dimension 6: 56,631 subspaces, decided by the greatest closed subspace
    code, report = run_json(capsys, "prop-zeta", "--p", "3", "--k", "60",
                            "--budget", "400")
    assert code == EXIT_OK and report["status"] == "verified"
    assert report["witness"]["exhaustive_subspaces"] is True
    assert report["witness"]["survivors"] == [[[1, 0, 0, 0, 0, 0]]]
    # dimension 11, about 8e14 subspaces: only the zeta^30 line is closed
    code, report = run_json(capsys, "prop-zeta", "--p", "3", "--k", "120",
                            "--budget", "800")
    assert code == EXIT_OK and report["status"] == "verified"
    assert report["witness"]["ambient"][0] == [0, 30]
    assert report["witness"]["survivors"] == [[[1] + [0] * 10]]


def test_prop_zeta_closed_space_is_refuted(capsys, monkeypatch):
    # with every operation zero the whole degree-24 space W is closed; a
    # closed subspace that is not a line refutes the claim, and its
    # subspaces are not listed
    import qdp.steenrod as steenrod
    monkeypatch.setattr(steenrod, "bockstein", lambda a: GradedElement.zero(a.p))
    monkeypatch.setattr(steenrod, "steenrod_power",
                        lambda i, a: GradedElement.zero(a.p))
    code, report = run_json(capsys, "prop-zeta", "--p", "3", "--k", "24")
    assert code == EXIT_REFUTED and report["status"] == "refuted"
    assert report["witness"]["exhaustive_subspaces"] is False
    assert report["witness"]["matches"] is False
    assert report["witness"]["survivors"] == [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["prop-zeta", "--p", "3", "--k", "-4"],
    ["prop-zeta", "--p", "3", "--k", "0"],
    ["theorem-c", "--p", "3", "--k-list", "0"],
    ["theorem-c", "--p", "3", "--k-list", "-4"],
])
def test_zeta_rejects_nonpositive_k(capsys, argv):
    assert main(argv) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("k_list", [",", "4,4", "4,,8", "4,", ""])
def test_theorem_c_rejects_k_list_without_distinct_k(capsys, k_list):
    # no k, a repeated k, or an empty item: exit 1 before any leg runs
    assert main(["theorem-c", "--p", "3", "--k-list", k_list]) == EXIT_MALFORMED
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_theorem_c_without_asserts():
    # python -O strips assert statements; the certificate must not need them
    env = dict(os.environ,
               PYTHONPATH=str(Path(qdp.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qdp.cli", "theorem-c", "--p", "3",
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["status"] == "unsat-certificate"


# sha256 of the canonical JSON of the Qd(p) certificates, retaken when the
# theorem-b join leg became an assumed input, the theorem-c Bockstein leg
# became one computed product and every assumed leg gained a reference;
# THEOREM_B_OTHER_LEGS_SHA256 holds the rest of the theorem-b certificates
# to what they were before
CANONICAL_SHA256 = {
    ("theorem-b", "--p", "3"):
        "02c2fc04c9b2195d16ef3bdcc9374835d4026760580c2843cce8a20f44030165",
    ("theorem-b", "--p", "5"):
        "4e818488f5ff2e327dc28b0e7c666b0d775cb5f6681aa857dcef13d3f665bd86",
    ("theorem-b", "--p", "7", "--max-order", "16464"):
        "e4fc24cf88619e7ff57d84bffc65c5bbdf3461bec3c14e2afc58295aae3468a1",
    ("theorem-b", "--p", "11", "--max-order", "159720"):
        "7c42f79eadcc5ff46de980688f6cf3313af85ca26dba8f7d40232baea3f1de10",
    ("theorem-b", "--p", "13", "--max-order", "369096"):
        "58263b98b74a5387c2972d7789ec31c04a5641f8ff2de5b5f770a1a46967887c",
    ("theorem-b", "--p", "19", "--max-order", "2469240"):
        "d0c87a9f1b0dc9439c64792ee5d561ffba934e310c865c316da27495a5e14faf",
    ("theorem-b", "--p", "31", "--max-order", "28599360"):
        "9d00e6fbbc2e232a09076ee52a2711f1e9b1d67a8757dda23566fb2542380a49",
    ("theorem-c", "--p", "3"):
        "4f5d95d4c0b79ce2eaea9f21d8ad836a0ae9d3d679524471e1bf45dcc2588fae",
    ("theorem-c", "--p", "5", "--k-list", "6,12"):
        "c754291c3fca66e6961718a82294a6396d7135c77797f1000be2e9a22cd3376b",
}


@pytest.mark.parametrize("argv", sorted(CANONICAL_SHA256), ids=" ".join)
def test_qdp_certificates_are_pinned(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == EXIT_OK
    digest = hashlib.sha256(canonical_json(report).encode()).hexdigest()
    assert digest == CANONICAL_SHA256[argv]


# sha256 of the canonical theorem-b JSON with the details of the
# effectiveness-constraints leg and the three legs after constraint-unsat
# removed, taken while the join leg still squared zeta: the status, the
# witness and every other leg must not move
THEOREM_B_OTHER_LEGS_SHA256 = {
    ("theorem-b", "--p", "3"):
        "68e6483d47a3e997c9d37a2a552245c7c6af987db5ebf3a82f8c22f72da860d7",
    ("theorem-b", "--p", "5"):
        "08b583cbd942340ac8870b55eaa78c1c72731bacdf1b2d365d928b974e8ed166",
    ("theorem-b", "--p", "7", "--max-order", "16464"):
        "7fa75a268a53adbfaac2a1c4070f1760cb7f908c5ae7b8c31c28e961c9ab2a68",
    ("theorem-b", "--p", "11", "--max-order", "159720"):
        "98627c6b9cdd18b3d01f4e7ba0a448a6a249010fe29a2a3c01de3fc2ead271d7",
}
THEOREM_B_INPUT_LEGS = {"main-theorem-input", "effectiveness-input",
                        "join-preserves-effectiveness"}


@pytest.mark.parametrize("argv", sorted(THEOREM_B_OTHER_LEGS_SHA256), ids=" ".join)
def test_theorem_b_outside_route_two_is_pinned(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == EXIT_OK
    report["legs"] = [l for l in report["legs"] if l["name"] not in THEOREM_B_INPUT_LEGS]
    (leg,) = [l for l in report["legs"] if l["name"] == "effectiveness-constraints"]
    del leg["details"]
    digest = hashlib.sha256(canonical_json(report).encode()).hexdigest()
    assert digest == THEOREM_B_OTHER_LEGS_SHA256[argv]



# sha256 of the canonical JSON of the other subcommands.  Each runs in the
# directory of its input files, so that the argv the report records names
# them the same way wherever the package is installed
SUBCOMMAND_SHA256 = {
    ("borel-smith", "--group", "group_e9.json", "--tau", "tau_regular_e9.json"):
        "fb97966160f45f02edc0ca616424dd891aa51f14b767f6e81c29507e7d178b45",
    ("borel-smith", "--group", "group_e9.json", "--tau", "tau_violating_e9.json"):
        "d675e41f5e7567fc864662176acdfe8f865d3233430827639f72e2a8079eccfb",
    ("realize", "--group", "group_e9.json", "--tau", "tau_regular_e9.json"):
        "9739440be94b0ec3346c8fd6ddd7352f36708f0a2249d29d86230f621a2edf3c",
    ("fix-rank", "--model", "model_lens_p3.json"):
        "cf9aa26379e8ad3ed0adcf62f63f6a0351cfd6bbdcf7d0f9e0424695252fa740",
    ("fix-rank", "--model", "model_rotation_p3.json"):
        "9dd8caeaa196b0c54afbcd6d765581a3748561fdf93253faaa4b91661007f767",
    ("fix-rank", "--model", "model_trivial_p3_n4.json"):
        "cd390af9b8ab584d72badc3f609ff6d36270dbe0a1504a9c85cc020cbbecdd8c",
    ("prop-zeta", "--p", "5", "--k", "36", "--budget", "400"):
        "787a71c4ad2a33740f5dd4ca17cb19be72b83b5d705de79865dab20744afb4a2",
    ("prop-zeta", "--p", "7", "--k", "56", "--budget", "800"):
        "7002a767fe8238b660095f1c74f2233cd7703effa5349b909f387a6ee5b6efc9",
    ("steenrod-check", "--p", "7", "--samples", "20", "--seed", "3"):
        "f19969286763addf86f003fc9cbaccbc4e83b6bd596f50831d7b81bdecadd328",
}


@pytest.mark.parametrize("argv", sorted(SUBCOMMAND_SHA256), ids=" ".join)
def test_subcommand_reports_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.chdir(data_path(""))
    _, report = run_json(capsys, *argv)  # the status is part of the digest
    digest = hashlib.sha256(canonical_json(report).encode()).hexdigest()
    assert digest == SUBCOMMAND_SHA256[argv]


def test_realize_exponent_nine_is_pinned(tmp_path, capsys, monkeypatch):
    # M(27) has exponent 9, so its characters take values in Z[zeta_9];
    # tau is the dimension function of the regular representation
    G = modular_p3(3)
    lat = p_subgroups(G, 3)
    (tmp_path / "group_m27.json").write_text(json.dumps(G.to_json()))
    (tmp_path / "tau_regular_m27.json").write_text(json.dumps({"p": 3, "values": [
        {"class_rep": list(cls[0].members), "value": G.order // cls[0].order}
        for cls in lat.classes]}))
    monkeypatch.chdir(tmp_path)
    code, report = run_json(capsys, "realize", "--group", "group_m27.json",
                            "--tau", "tau_regular_m27.json")
    assert code == EXIT_OK
    digest = hashlib.sha256(canonical_json(report).encode()).hexdigest()
    assert digest == "cf649cd5dcfcc9796a9b1bd8be093eeb963efd15ee928d630e79d9a9b9f9c588"


def test_eight_fold_rotation_join_is_pinned(tmp_path, capsys, monkeypatch):
    # the 8-fold fiber join of the p = 3 rotation model (n = 2, P^1 g_n =
    # t^2 g_n): P^i acts on g_n by C(8, i) t^(2i), and n = 23.  Checking
    # only P^1 would find rank 19; the full check proves rank 7
    ops = [{"op": f"P{i}", "g_n": [[f"t^{2 * i}", "g_n", c]]}
           for i, c in zip(range(1, 9), (2, 1, 2, 1, 2, 1, 2, 1))]
    (tmp_path / "model_rotation_join8.json").write_text(json.dumps(
        {"schema": "1", "p": 3, "n": 23, "differential": "zero", "steenrod": ops}))
    monkeypatch.chdir(tmp_path)
    code, report = run_json(capsys, "fix-rank", "--model", "model_rotation_join8.json")
    assert code == EXIT_OK
    assert report["witness"]["rank"] == 7 and report["witness"]["checked_ops"] == 358
    digest = hashlib.sha256(canonical_json(report).encode()).hexdigest()
    assert digest == "e4362478f221699b03433cb29ef1ceca7d1549111639f138185c85af7e74a78c"


# runs the CLI with the closure of <u+, u-> one member short
SHORT_SL2 = """
import sys
import qdp.groups as groups
closure = groups.subgroup_closure
def short(G, gens):
    members = closure(G, gens)
    return members[1:] if len(members) == G.p ** 3 - G.p else members
groups.subgroup_closure = short
from qdp.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("command, leg", [("theorem-b", "effectiveness-constraints"),
                                          ("theorem-c", "order-p-generation")])
def test_failed_generation_is_refuted(flags, command, leg):
    env = dict(os.environ,
               PYTHONPATH=str(Path(qdp.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SHORT_SL2, command, "--p", "3",
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_REFUTED, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "refuted"
    legs = {l["name"]: l["status"] for l in report["legs"]}
    assert legs[leg] == "refuted"
    assert all(status != "refuted" for name, status in legs.items() if name != leg)


def test_theorem_c_failed_leg_is_refuted(capsys, monkeypatch):
    import qdp.steenrod as steenrod
    real = steenrod.brute_force_zeta_proposition

    def no_survivors(*args, **kwargs):
        res = real(*args, **kwargs)
        res.survivors = []
        return res

    monkeypatch.setattr(steenrod, "brute_force_zeta_proposition", no_survivors)
    code, report = run_json(capsys, "theorem-c", "--p", "3", "--k-list", "4")
    assert code == EXIT_REFUTED
    assert report["status"] == "refuted"
    legs = {leg["name"]: leg["status"] for leg in report["legs"]}
    assert legs["zeta-line-k4"] == "refuted"
    assert "Traceback" not in capsys.readouterr().err


def test_invariant_check_failure_is_domain_error(capsys, monkeypatch):
    import qdp.steenrod as steenrod
    forms = steenrod._invariant_forms
    monkeypatch.setattr(steenrod, "_invariant_forms",
                        lambda p: (forms(p)[0], forms(p)[1] * 2))
    assert main(["steenrod-check", "--p", "3"]) == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("error: zeta != x y^3 - x^3 y")


def test_theorem_c_bockstein_leg_is_checked(capsys, monkeypatch):
    monkeypatch.setattr("qdp.steenrod.bockstein", lambda a: GradedElement.zero(a.p))
    code, report = run_json(capsys, "theorem-c", "--p", "3", "--k-list", "4")
    assert code == EXIT_REFUTED
    assert report["status"] == "refuted"
    refuted = [leg["name"] for leg in report["legs"] if leg["status"] == "refuted"]
    assert refuted == ["integral-k-invariants"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["steenrod-check", "--p", "3", "--samples", "-1"],
    ["steenrod-check", "--p", "3", "--samples", "0"],
    ["prop-zeta", "--p", "3", "--k", "4", "--budget", "-5"],
], ids=["samples-negative", "samples-zero", "budget-negative"])
def test_out_of_range_integers_are_malformed(capsys, argv):
    assert main(argv) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag,value", [
    ("--op-bound", "0"), ("--op-bound", "-3"), ("--op-bound", "1"),
    ("--pole-bound", "-3"), ("--pole-bound", "0"),
], ids=["op-bound-zero", "op-bound-negative", "op-bound-one",
        "pole-bound-negative", "pole-bound-zero"])
def test_fix_rank_takes_no_bound_flags(capsys, flag, value):
    # fix-rank works its one operation bound out from the model: a smaller
    # one would drop equations and could certify too large a rank
    argv = ["fix-rank", "--model", data_path("model_rotation_p3.json"), flag, value]
    assert main(argv) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("argv,value", [
    (["theorem-b", "--p", "3"], "-1"),
    (["theorem-c", "--p", "3"], "0"),
    (["borel-smith", "--group", data_path("group_e9.json"),
      "--tau", data_path("tau_regular_e9.json")], "0"),
    (["realize", "--group", data_path("group_e9.json"),
      "--tau", data_path("tau_regular_e9.json")], "-5"),
], ids=["theorem-b", "theorem-c", "borel-smith", "realize"])
def test_max_order_below_one_is_malformed(capsys, argv, value):
    assert main([*argv, "--max-order", value]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err == f"error: --max-order must be at least 1, got {value}\n"


@pytest.mark.parametrize("argv", [
    ["theorem-b", "--p", "x"],
    ["theorem-c", "--p", "3", "--k-list", "-4,8"],
    [],
], ids=["int-not-integer", "value-read-as-flag", "no-subcommand"])
def test_usage_error_is_one_line(capsys, argv):
    assert main(argv) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(capsys, flag):
    assert main([flag]) == EXIT_OK
    out = capsys.readouterr()
    assert out.out and not out.err
    assert (qdp.__version__ in out.out) == (flag == "--version")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_subcommand_help_names_its_flags(capsys, command, flag):
    assert main([command, flag]) == EXIT_OK
    out = capsys.readouterr()
    assert not out.err
    _, _, flags = COMMANDS[command]
    assert [name for name, *_ in flags if name not in out.out] == []


@pytest.mark.parametrize("spaced", [
    ["theorem-b", "--p", "3"],
    ["theorem-c", "--p", "3", "--k-list", "4,6", "--budget", "200"],
    ["fix-rank", "--model", data_path("model_rotation_p3.json")],
    ["prop-zeta", "--p", "3", "--k", "4"],
], ids=lambda argv: argv[0])
def test_flag_equals_value_is_flag_space_value(capsys, spaced):
    # the reports differ only in the argv they record
    joined = [spaced[0]] + [f"{flag}={value}" for flag, value in zip(spaced[1::2], spaced[2::2])]
    code, report = run_json(capsys, *spaced)
    assert code == EXIT_OK and report["command"][:len(spaced)] == spaced
    code, joined_report = run_json(capsys, *joined)
    assert code == EXIT_OK and joined_report["command"][:len(joined)] == joined
    assert canonical_json({**report, "command": None}) == \
        canonical_json({**joined_report, "command": None})


def test_repeated_flag_keeps_its_last_value(capsys):
    code, report = run_json(capsys, "theorem-b", "--p", "5", "--p", "3")
    assert code == EXIT_OK
    _, once = run_json(capsys, "theorem-b", "--p", "3")
    assert canonical_json({**report, "command": None}) == canonical_json({**once, "command": None})
    # degree 8 is beyond a budget of 5
    assert main(["prop-zeta", "--p", "3", "--k", "4", "--budget", "5"]) == EXIT_BUDGET
    assert main(["prop-zeta", "--p", "3", "--k", "4", "--budget", "5", "--budget", "200"]) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["theorem-b", "--p", "3", "--max", "20000"],
    ["theorem-b", "--p", "3", "--form", "json"],
    ["theorem-b", "--p", "3", "--budget", "5"],
    ["fix-rank", "--model", data_path("model_rotation_p3.json"), "--p", "3"],
], ids=["prefix-of-max-order", "prefix-of-format", "budget-at-theorem-b", "p-at-fix-rank"])
def test_flags_match_by_exact_name_and_subcommand(capsys, argv):
    # argparse took a unique prefix, so a report could record a spelling
    # that no documentation names
    assert main(argv) == EXIT_MALFORMED
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: unrecognized arguments: {argv[-2]}")


@pytest.mark.parametrize("argv", [
    ["theorem-b", "--p", "0_3"],
    ["theorem-b", "--p", "٣"],
    ["theorem-b", "--p", "+3"],
    ["theorem-b", "--p=3 "],
    ["theorem-c", "--p", "3", "--k-list", " 4,+8"],
    ["theorem-c", "--p", "3", "--k-list", "4,٨"],
    ["steenrod-check", "--p", "3", "--seed", "1_0"],
], ids=["underscore", "arabic-indic-digit", "plus-sign", "trailing-space", "k-list-space-plus",
        "k-list-arabic-indic", "seed-underscore"])
def test_integers_are_spelled_in_ascii_digits(capsys, argv):
    # int() reads all of these, and the report would echo the spelling
    assert main(argv) == EXIT_MALFORMED
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_not_monotone_message_is_deterministic(tmp_path, capsys):
    tau = json.loads(Path(data_path("tau_regular_e9.json")).read_text())
    for entry in tau["values"]:
        entry["value"] = 0 if entry["class_rep"] == [0] else 1
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(tau))
    errs = []
    for _ in range(2):
        code = main(["realize", "--group", data_path("group_e9.json"),
                     "--tau", str(path)])
        assert code == EXIT_DOMAIN
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == \
        "error: not monotone: [0] lies in [0, 1, 2] but tau = 0 < 1\n"


def _model(term, op="P1", **fields):
    return {"p": 3, "n": 2, "differential": "zero",
            "steenrod": [{"op": op, "g_n": [term]}], **fields}


@pytest.mark.parametrize("obj", [
    _model(["t^x", "g_n", 1]),
    _model(["t^2", "g_n", "a"]),
    _model(["t^2", "g_n", 1], op="Px"),
    _model(["t^2", "g_n"]),
    _model(["t^2", "g_n", 1.5]),
    _model(["t^2", "g_n", True]),
    {"p": 3, "n": 4.7, "differential": "zero", "steenrod": []},
    {"p": 3.0, "n": 4, "differential": "zero", "steenrod": []},
    {"p": 3, "n": 5, "differential": {"lambda": 1, "a": 3.5}, "steenrod": []},
    _model(["t^2", "g_n", 1], op="Sq1"),
    {"p": 2, "n": 2, "differential": "zero",
     "steenrod": [{"op": "P1", "g_n": [["t", "g_n", 1]]}]},
    {"p": 3, "n": 2, "differential": "zero",
     "steenrod": [{"op": "P1", "g_n": [["t^2", "g_n", c]]} for c in (1, 2)]},
    _model(["t^2", "g_n", 1], op="P+0_1"),
    _model(["t^2", "g_n", 1], op="P\u0661"),
    _model(["t^+0_2", "g_n", 1]),
    _model(["t ^ 2", "g_n", 1]),
    {"p": 3, "n": 3, "differential": "zero",
     "steenrod": [{"op": "b", "g_n": [["t^2", "g0", 1]]},
                  {"op": "P1", "g_n": [["t^3*s*s", "g0", 1]]}]},
], ids=["monomial-exponent", "coefficient", "operation-index", "two-element-term",
        "coefficient-float", "coefficient-bool", "n-float", "p-float", "differential-float",
        "sq-at-odd-p", "p-at-p2", "operation-twice", "operation-index-signed",
        "operation-index-non-ascii", "monomial-exponent-signed", "monomial-spaces",
        "monomial-s-twice"])
def test_malformed_model_is_malformed(tmp_path, capsys, obj):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    assert main(["fix-rank", "--model", str(model)]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _with_values(change):
    return lambda tau: {**tau, "values": change(tau["values"])}


@pytest.mark.parametrize("mutate", [
    _with_values(lambda vals: [{"class_rep": vals[0]["class_rep"]}] + vals[1:]),
    _with_values(lambda vals: 5),
    _with_values(lambda vals: [{**vals[0], "class_rep": [[]]}] + vals[1:]),
    _with_values(lambda vals: [{**vals[0], "value": vals[0]["value"] + 0.5}] + vals[1:]),
    _with_values(lambda vals: [{**vals[0], "value": True}] + vals[1:]),
    _with_values(lambda vals: [{**vals[0], "class_rep": [False]}] + vals[1:]),
    lambda tau: {**tau, "scale": 1.9},
    lambda tau: {**tau, "p": "3"},
    lambda tau: {**tau, "p": 3.0},
    _with_values(lambda vals: vals + [{**vals[-1], "value": vals[-1]["value"] + 1}]),
], ids=["entry-without-value", "values-not-a-list", "class-rep-not-integers",
        "value-float", "value-bool", "class-rep-bool", "scale-float", "p-string",
        "p-float", "class-with-two-values"])
def test_malformed_tau_is_malformed(tmp_path, capsys, mutate):
    tau = mutate(json.loads(Path(data_path("tau_regular_e9.json")).read_text()))
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(tau))
    code = main(["borel-smith", "--group", data_path("group_e9.json"),
                 "--tau", str(path)])
    assert code == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tau_may_list_a_class_twice_with_one_value(tmp_path, capsys):
    # a class may be given through each of its members, as long as every
    # entry states the same value; a second value names both entries
    tau = json.loads(Path(data_path("tau_regular_e9.json")).read_text())
    last = tau["values"][-1]
    path = tmp_path / "tau.json"
    for extra, code in ((last, EXIT_OK), ({**last, "value": last["value"] + 1}, EXIT_MALFORMED)):
        path.write_text(json.dumps({**tau, "values": tau["values"] + [extra]}))
        assert main(["borel-smith", "--group", data_path("group_e9.json"),
                     "--tau", str(path)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"class_rep {last['class_rep']} has value {last['value']}," in err
    assert f"class_rep {last['class_rep']} has value {last['value'] + 1}" in err


@pytest.mark.parametrize("group", [
    {"kind": "qdp", "p": "x"},
    {"kind": "table", "n": 2, "mul": "x"},
    {"kind": "table", "mul": [[0, 1, 2], [1, 0, 0], [2, 0, 0]]},
    {"kind": "qdp", "p": 3.9},
    {"kind": "qdp", "p": "3"},
    {"kind": "table", "mul": [[0, True], [True, 0]]},
], ids=["qdp-prime-not-integer", "table-not-a-list", "table-not-associative",
        "qdp-prime-float", "qdp-prime-string", "table-entry-bool"])
def test_malformed_group_is_malformed(tmp_path, capsys, group):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group))
    code = main(["borel-smith", "--group", str(path),
                 "--tau", data_path("tau_regular_e9.json")])
    assert code == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["fix-rank", "--model", data_path("model_rotation_p3.json")],
    ["theorem-b", "--p", "3"],
], ids=["fix-rank", "theorem-b"])
def test_budget_flag_only_where_read(capsys, argv):
    assert main(argv + ["--budget", "-5"]) == EXIT_MALFORMED
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_fix_rank_failed_witness_check_is_domain_error(capsys, monkeypatch):
    # every operation image is the same nonzero element, so a line is found
    # at the top degree but the witness check must then fail
    import qdp.fixrank as fixrank
    from qdp.steenrod import RankOneElement

    def constant_image(i, x):
        p = x.module.p
        return fixrank.TwoRowLocalElement(x.module, RankOneElement.one(p),
                                          RankOneElement.zero(p))

    monkeypatch.setattr(fixrank, "module_power", constant_image)
    code = main(["fix-rank", "--model", data_path("model_rotation_p3.json")])
    assert code == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fix_rank_without_asserts():
    # python -O strips assert statements; the rank must not depend on them
    env = dict(os.environ,
               PYTHONPATH=str(Path(qdp.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qdp.cli", "fix-rank",
         "--model", data_path("model_rotation_p3.json"), "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "verified" and report["witness"]["rank"] == 0


@pytest.mark.parametrize("command", ["borel-smith", "realize"])
def test_tau_commands_without_asserts(capsys, command):
    # python -O strips assert statements; the checks must not need them
    argv = [command, "--group", data_path("group_e9.json"),
            "--tau", data_path("tau_regular_e9.json"), "--format", "json"]
    env = dict(os.environ,
               PYTHONPATH=str(Path(qdp.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-m", "qdp.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main(argv) == EXIT_OK
    plain = json.loads(capsys.readouterr().out)
    assert canonical_json(json.loads(proc.stdout)) == canonical_json(plain)


@pytest.mark.parametrize("command, names", [
    ("theorem-b", THEOREM_B_INPUT_LEGS),
    ("theorem-c", {"invariant-subring-input", "orbit-space-finiteness-input"}),
], ids=["theorem-b", "theorem-c"])
def test_assumed_legs_are_named_inputs(capsys, command, names):
    # a leg the driver does not compute names the fact it stands for and its source
    code, report = run_json(capsys, command, "--p", "3")
    assert code == EXIT_OK
    assumed = {leg["name"]: leg["details"] for leg in report["legs"]
               if leg["status"] == "assumed"}
    assert set(assumed) == names
    for details in assumed.values():
        assert details["statement"] and details["reference"]


def test_budget_exit_code(capsys):
    assert main(["prop-zeta", "--p", "3", "--k", "12", "--budget", "20"]) == EXIT_BUDGET


def test_malformed_input_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["fix-rank", "--model", str(bad)]) == EXIT_MALFORMED
    missing = tmp_path / "missing.json"
    assert main(["fix-rank", "--model", str(missing)]) == EXIT_MALFORMED


def test_reports_reproducible(capsys):
    _, r1 = run_json(capsys, "steenrod-check", "--p", "3", "--seed", "7")
    _, r2 = run_json(capsys, "steenrod-check", "--p", "3", "--seed", "7")
    assert canonical_json(r1) == canonical_json(r2)
    _, c1 = run_json(capsys, "theorem-b", "--p", "3")
    _, c2 = run_json(capsys, "theorem-b", "--p", "3")
    assert canonical_json(c1) == canonical_json(c2)


def test_text_format_default(capsys):
    code, out = run(capsys, "prop-zeta", "--p", "3", "--k", "4")
    assert code == EXIT_OK
    assert "status    : verified" in out
    assert "leg       :" not in out
    code, out = run(capsys, "theorem-b", "--p", "3")
    assert code == EXIT_OK
    assert "leg       : verified fusion-witness" in out.splitlines()


def test_theorem_c_even_prime_exit(capsys):
    assert main(["theorem-c", "--p", "2"]) == EXIT_DOMAIN


@pytest.mark.parametrize("p", ["9", "1"])
@pytest.mark.parametrize("argv", [
    ["theorem-b"], ["theorem-c"], ["prop-zeta", "--k", "12"], ["steenrod-check"],
], ids=lambda argv: argv[0])
def test_non_prime_p_is_one_domain_error(capsys, argv, p):
    # at p = 9, prop-zeta's k = 12 is beyond the default budget: the prime
    # is checked first
    assert main(argv + ["--p", p]) == EXIT_DOMAIN
    assert capsys.readouterr().err == f"error: {p} is not prime\n"
