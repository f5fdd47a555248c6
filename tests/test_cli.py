"""Command-line frontend: reports, exit codes, bundled corpus."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdp
from qdp.cli import (
    COMMANDS,
    EXIT_BUDGET,
    EXIT_DOMAIN,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_REFUTED,
    _load_json,
    main,
)
from qdp.errors import MalformedInput
from qdp.groups import TableGroup, construct_qdp, p_subgroups
from qdp.reports import canonical_json, json_dumps
from qdp.steenrod import GradedElement
from fixtures import heisenberg, modular_p3


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


ONE_PER_SUBCOMMAND = [
    ["theorem-b", "--p", "3"],
    ["theorem-c", "--p", "3", "--k-list", "4"],
    ["borel-smith", "--group", data_path("group_e9.json"),
     "--tau", data_path("tau_regular_e9.json")],
    ["realize", "--group", data_path("group_e9.json"),
     "--tau", data_path("tau_regular_e9.json")],
    ["fix-rank", "--model", data_path("model_rotation_p3.json")],
    ["steenrod-check", "--p", "3"],
    ["prop-zeta", "--p", "3", "--k", "4"],
]


@pytest.mark.parametrize("argv", ONE_PER_SUBCOMMAND, ids=lambda argv: argv[0])
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
    # the degree budget alone bounds theorem-c: p = 7 runs with the default
    # flags, as its default k up to 24 reach degree 2(24 + 7 * 6) = 132;
    # p = 11's default k up to 36 reach 2(36 + 11 * 10) = 292, over the
    # default budget; and --max-order is not one of its flags
    code, report = run_json(capsys, "theorem-c", "--p", "7")
    assert code == EXIT_OK
    assert report["status"] == "unsat-certificate"
    assert report["witness"]["k_values"] == [8, 16, 24]
    assert main(["theorem-c", "--p", "11"]) == EXIT_BUDGET
    assert capsys.readouterr().err == "budget: closure tests reach degree 292 > budget 200\n"
    assert main(["theorem-c", "--p", "7", "--k-list", "8", "--max-order", "20000"]) \
        == EXIT_MALFORMED
    assert capsys.readouterr().err == "error: unrecognized arguments: --max-order\n"


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


def test_refuted_realize_names_its_reason(tmp_path, capsys, monkeypatch):
    # the Borel-Smith gate would refuse tau = (1, 3) on Z/3, so it is lifted
    # to reach the solver's refutation: the faithful pair's coordinate is -1,
    # and the pair follows the trivial entry in the basis
    import qdp.dimfun
    from qdp.dimfun import BorelSmithReport
    monkeypatch.setattr(qdp.dimfun, "check_borel_smith",
                        lambda tau: BorelSmithReport(monotone=True))
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    (tmp_path / "z3.json").write_text(json.dumps({"kind": "table", "n": 3, "mul": table}))
    (tmp_path / "tau.json").write_text(json.dumps({"p": 3, "values": [
        {"class_rep": [0], "value": 1}, {"class_rep": [0, 1, 2], "value": 3}]}))
    monkeypatch.chdir(tmp_path)
    code, report = run_json(capsys, "realize", "--group", "z3.json", "--tau", "tau.json")
    assert code == EXIT_REFUTED and report["status"] == "refuted"
    assert report["witness"] == {"reason": "failing coordinates", "coordinates": [{
        "basis_index": 1, "negative": True, "fractional": False,
        "numerator": -1, "denominator": 1}]}


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


def test_prop_zeta_at_scale_on_the_least_budget():
    # closure is tested on P^1, P^13 and P^169 only, so the highest test is
    # at degree 2(1400 + 169 * 12) = 6856; testing every P^i up to P^1400
    # took about 40 s and 700 MB
    proc = subprocess.run([sys.executable, "-m", "qdp.cli", "prop-zeta", "--p", "13",
                           "--k", "1400", "--budget", "6856", "--format", "json"],
                          capture_output=True, text=True, env=_child_env(), timeout=20)
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "verified"
    assert report["witness"]["ambient"] == [[0, 100], [7, 22]]
    assert report["witness"]["survivors"] == [[[1, 0]]] == report["witness"]["predicted"]


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
# became one computed product and every assumed leg gained a reference,
# and for theorem-c again when its generation leg named the generators it
# checked in place of a count of order-p elements;
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
    ("theorem-b", "--p", "43", "--max-order", "146928936"):
        "7e0068610a5a331a98e6c4526c3322af941794a95c83ba011c31bf8fde967561",
    ("theorem-b", "--p", "61", "--max-order", "844369320"):
        "8c6dc5fec1071ebc37a1996e1fe0bff615d65338419d63763b657adc4c219358",
    ("theorem-b", "--p", "101", "--max-order", "10509070200"):
        "bf85a7940050fe137bc9de1e2b5a5ece61083ee5b76511c32a054e53c52fcb79",
    ("theorem-c", "--p", "3"):
        "94c50d36b583bc92f893bf9b53409ee1c88410e2f61583e7e1cfcad2afb62d25",
    ("theorem-c", "--p", "5", "--k-list", "6,12"):
        "97b8b214ae2d9734fe7edad82760e1b938a18a4b33bf228e8d70f853869c2995",
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
        "26b6354cea5ff3fdb2386cc4cb250cc6edbf90b1da0696efe3ceb2029140a63b",
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


@pytest.mark.parametrize("argv", sorted(CANONICAL_SHA256) + sorted(SUBCOMMAND_SHA256),
                         ids=" ".join)
def test_stdout_is_the_json_module_text(capsys, monkeypatch, argv):
    # the pins hash canonical_json, which is the report writer itself; the
    # bytes printed must be what json.dumps writes for the same report
    monkeypatch.chdir(data_path(""))
    _, out = run(capsys, *argv, "--format", "json")
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


# every value a report can hold: dicts with str keys, lists and tuples over
# str of any code point (lone surrogates included), ints past 64 bits,
# bools, None and floats, NaN and the infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
    | st.floats() | st.text(st.characters(exclude_categories=()))
    | st.lists(st.integers()),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(st.characters(exclude_categories=())), inner),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_writer_is_json_dumps_with_sorted_keys(value):
    assert json_dumps(value) == json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("value", [{1: "a"}, {None: 0}, {"a": {2, 3}}, [b"x"], object()],
                         ids=["int-key", "none-key", "set", "bytes", "object"])
def test_writer_refuses_what_a_report_cannot_hold(value):
    with pytest.raises(TypeError):
        json_dumps(value)


def test_realize_exponent_nine_is_pinned(tmp_path, capsys, monkeypatch):
    # M(27) has exponent 9, so some of its characters are traced over
    # Q(zeta_9); tau is the dimension function of the regular representation
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
    assert digest == "80483ecb902396df8c36c699213f68d50f79a73c809a339d9f55bbe7132c61a7"


@pytest.mark.parametrize("kind, digest", [
    ("regular", "f2b631411675fe37244001781a329e74f6a2c1baaf4947a66904aa2ea231e5c2"),
    ("seeded", "d150b9ff0568200600b27fdaa26071641e2a560a757f085bcc02b98e1775d245"),
], ids=["regular", "seeded"])
def test_borel_smith_on_qd3_is_pinned(tmp_path, capsys, monkeypatch, kind, digest):
    # borel-smith on the shipped Qd(3) file: tau is the dimension function
    # of the regular representation (verified) or seeded values (refuted).
    # The digests were taken while Qd(p) read its Sylow subgroup and
    # generating set off its structure; the generic lattice gives the same
    G = construct_qdp(3)
    lat = p_subgroups(G, 3)
    rng = random.Random(7)
    values = [G.order // cls[0].order if kind == "regular" else rng.randrange(8)
              for cls in lat.classes]
    (tmp_path / "group_qd3.json").write_bytes(Path(data_path("group_qd3.json")).read_bytes())
    (tmp_path / "tau_qd3.json").write_text(json.dumps({"p": 3, "values": [
        {"class_rep": list(cls[0].members), "value": v} for cls, v in zip(lat.classes, values)]}))
    monkeypatch.chdir(tmp_path)
    _, report = run_json(capsys, "borel-smith", "--group", "group_qd3.json",
                         "--tau", "tau_qd3.json")
    assert report["status"] == ("verified" if kind == "regular" else "refuted")
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() == digest


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


# each mutant patches qdp.groups, then runs the CLI on its arguments
MUTANT = """
import sys
import qdp.groups as groups
{}
from qdp.cli import main
sys.exit(main(sys.argv[1:]))
"""

# the orbit of e1 under <u+, u-> one member short
SHORT_ORBIT = MUTANT.format("""
orbit = groups.conjugacy_orbit
def short(G, S, gens):
    members = orbit(G, S, gens)
    return members[1:] if len(members) == G.p ** 2 - 1 else members
groups.conjugacy_orbit = short
""")

# u+ = [[1,1],[0,1]] replaced by [[0,1],[-1,2]]: still of order p, and with
# u- still generating SL2(p), so the orbit of e1 is whole, but it moves e1
MOVED_E1 = MUTANT.format("""
element = groups.QdpGroup.element
def moved(G, v, mat):
    return element(G, v, (0, 1, -1, 2) if tuple(mat) == (1, 1, 0, 1) else mat)
groups.QdpGroup.element = moved
""")

# the Sylow generators that (z, I) is checked to commute with, e2 replaced
# by u-, which moves z
NONCENTRAL = MUTANT.format("""
generators = groups.qdp_sylow_generators
def swapped(G):
    m0, e1, _ = generators(G)
    return [m0, e1, G.element((0, 0), (1, 0, 1, 1))]
groups.qdp_sylow_generators = swapped
""")


def run_mutant(flags, mutant, *argv):
    env = dict(os.environ,
               PYTHONPATH=str(Path(qdp.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", mutant, *argv, "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_REFUTED, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "refuted"
    return {l["name"]: l["status"] for l in report["legs"]}


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("command, leg", [("theorem-b", "effectiveness-constraints"),
                                          ("theorem-c", "order-p-generation")])
def test_failed_generation_is_refuted(flags, command, leg):
    for mutant in (SHORT_ORBIT, MOVED_E1):
        legs = run_mutant(flags, mutant, command, "--p", "3")
        assert legs[leg] == "refuted"
        assert all(status != "refuted" for name, status in legs.items() if name != leg)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_center_is_refuted(flags):
    legs = run_mutant(flags, NONCENTRAL, "theorem-b", "--p", "3")
    assert legs == {"sylow-center": "refuted"}


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
    (["borel-smith", "--group", data_path("group_e9.json"),
      "--tau", data_path("tau_regular_e9.json")], "0"),
    (["realize", "--group", data_path("group_e9.json"),
      "--tau", data_path("tau_regular_e9.json")], "-5"),
], ids=["theorem-b", "borel-smith", "realize"])
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


@pytest.mark.parametrize("scale", [2, 0, -1])
@pytest.mark.parametrize("command", ["borel-smith", "realize"])
def test_tau_scale_other_than_one_is_malformed(tmp_path, capsys, command, scale):
    # the values are the function: tau = (6, 4) on Z/3 is Borel-Smith and
    # realized, with or without a scale of 1.  A scale of 2 would state
    # (3, 2), which condition (ii) refutes, so no other scale is read
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    group, tau = tmp_path / "z3.json", tmp_path / "tau.json"
    group.write_text(json.dumps({"kind": "table", "n": 3, "mul": table}))
    values = [{"class_rep": [0], "value": 6}, {"class_rep": [0, 1, 2], "value": 4}]
    argv = [command, "--group", str(group), "--tau", str(tau)]
    for extra, code in (({}, EXIT_OK), ({"scale": 1}, EXIT_OK),
                        ({"scale": scale}, EXIT_MALFORMED)):
        tau.write_text(json.dumps({"p": 3, "values": values, **extra}))
        assert main(argv) == code
    assert capsys.readouterr().err == \
        f"error: super class function 'scale' must be 1, got {scale}\n"


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


@pytest.mark.parametrize("n, message", [
    (5, "table group 'n' is 5, but 'mul' has 9 rows"),
    (10, "table group 'n' is 10, but 'mul' has 9 rows"),
    (9.0, "table group 'n' must be an integer, got 9.0"),
    ("9", "table group 'n' must be an integer, got '9'"),
    (True, "table group 'n' must be an integer, got True"),
], ids=["fewer", "more", "float", "string", "bool"])
def test_table_n_must_be_the_row_count(tmp_path, capsys, n, message):
    # README gives "n" as the row count: the 9-row E(3^2) table stated as
    # n = 5 must not be checked and reported as a group of order 9.  A
    # table without "n" is read from its rows
    group = json.loads(Path(data_path("group_e9.json")).read_text())
    path = tmp_path / "group.json"
    argv = ["borel-smith", "--group", str(path), "--tau", data_path("tau_regular_e9.json")]
    path.write_text(json.dumps({**group, "n": n}))
    assert main(argv) == EXIT_MALFORMED
    assert capsys.readouterr().err == f"error: {message}\n"
    del group["n"]
    path.write_text(json.dumps(group))
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("mul", [modular_p3(3).to_json()["mul"], [[0]] * 27],
                         ids=["group", "not-square"])
def test_table_over_the_guard_is_refused_on_its_row_count(tmp_path, capsys,
                                                          monkeypatch, mul):
    # the guard reads the 27 rows before the table is built or checked, so a
    # malformed table over it is refused by the guard as well
    checked = []
    monkeypatch.setattr(TableGroup, "check_axioms", lambda self: checked.append(self))
    (tmp_path / "group.json").write_text(json.dumps({"kind": "table", "mul": mul}))
    (tmp_path / "tau.json").write_text(json.dumps({"p": 3, "values": []}))
    code = main(["borel-smith", "--group", str(tmp_path / "group.json"),
                 "--tau", str(tmp_path / "tau.json"), "--max-order", "10"])
    assert code == EXIT_DOMAIN
    assert capsys.readouterr().err == "error: |G| = 27 exceeds the guard 10\n"
    assert checked == []


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


UNREADABLE = {"not-utf-8": b"\xff\xfe{}", "deep": b"[" * 100000 + b"]" * 100000}


@pytest.mark.parametrize("contents", UNREADABLE.values(), ids=UNREADABLE.keys())
@pytest.mark.parametrize("command", ["fix-rank", "borel-smith"])
def test_undecodable_input_file_is_one_error_line(tmp_path, command, contents):
    # bytes that are not UTF-8, or nesting past the recursion limit, are
    # malformed input: exit 1 and one line, not a traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(contents)
    argv = (["fix-rank", "--model", str(bad)] if command == "fix-rank" else
            ["borel-smith", "--group", str(bad), "--tau", data_path("tau_regular_e9.json")])
    env = dict(os.environ,
               PYTHONPATH=str(Path(qdp.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qdp.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_MALFORMED, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: cannot read {bad}: ")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def _json_load_reading(path) -> tuple[str, str]:
    """What `json.load` makes of an input file: its value as json.dumps
    text (so that NaN equals NaN), or the one-line message of a file it
    cannot read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return "value", json.dumps(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:
        return "error", f"cannot read {path}: {exc}"


def _cli_reading(path) -> tuple[str, str]:
    try:
        return "value", json.dumps(_load_json(str(path)))
    except MalformedInput as exc:
        return "error", str(exc)


JSON_SPACE = st.text(st.sampled_from(" \t\n\r"), max_size=4)

# ints at the 4300-digit limit of int(), besides the writer test's values
READER_VALUES = st.recursive(
    JSON_VALUES | st.integers(10 ** 4299, 10 ** 4300 - 1)
    | st.integers(-10 ** 4300 + 1, -10 ** 4299),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(value=READER_VALUES, before=JSON_SPACE, after=JSON_SPACE,
       ensure_ascii=st.booleans(), indent=st.none() | st.integers(0, 2))
@example(value={"a": [float("nan"), float("inf"), float("-inf")]}, before=" \t\n",
         after="\r\n", ensure_ascii=True, indent=None)
def test_reader_returns_what_json_load_returns(value, before, after, ensure_ascii, indent):
    # with ensure_ascii the text carries \uXXXX escapes, surrogate pairs
    # included, and is valid: the scanner alone reads it, json.loads never
    # runs.  Without it a lone surrogate is written raw, which is not UTF-8,
    # and both readers must then refuse the file alike
    text = before + json.dumps(value, ensure_ascii=ensure_ascii, indent=indent) + after
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        expected = _json_load_reading(path)
        if not ensure_ascii:
            assert _cli_reading(path) == expected
            return
        assert expected[0] == "value"
        with mock.patch.object(json, "loads", side_effect=AssertionError("json.loads ran")):
            assert _cli_reading(path) == expected


MALFORMED_FILES = {
    "bom": b"\xef\xbb\xbf{}", "empty": b"", "space-only": b" \n", "truncated": b"[1,",
    "no-colon": b'{"a" 1}', "trailing-data": b'{"a": 1} x', "two-values": b"1 2",
    "deep": b"[" * 100000 + b"]" * 100000, "long-int": b"7" * 5000,
    "control-character": b'["a\x01b"]', "not-utf-8": b"\xff\xfe{}",
    "form-feed": b"\x0c{}", "nan-word": b"nan",
}


@pytest.mark.parametrize("contents", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
def test_reader_words_a_malformed_file_as_json_load_does(tmp_path, contents):
    path = tmp_path / "input.json"
    path.write_bytes(contents)
    expected = _json_load_reading(path)
    assert expected[0] == "error"
    assert _cli_reading(path) == expected


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
    ["theorem-b"], ["theorem-c"], ["prop-zeta", "--k", "40"], ["steenrod-check"],
], ids=lambda argv: argv[0])
def test_non_prime_p_is_one_domain_error(capsys, argv, p):
    # at p = 9, prop-zeta's k = 40 reaches degree 2(40 + 9 * 8) = 224,
    # beyond the default budget: the prime is checked first
    assert main(argv + ["--p", p]) == EXIT_DOMAIN
    assert capsys.readouterr().err == f"error: {p} is not prime\n"


@pytest.mark.parametrize("argv, degree", [(["prop-zeta", "--k", "5"], 10), (["theorem-c"], 12)],
                         ids=["prop-zeta", "theorem-c"])
def test_p_one_over_a_zero_budget_is_refused_on_the_budget(capsys, argv, degree):
    # p = 1 > budget 0 is not tested prime; every power of 1 is 1, and the
    # bound 2(k + q(p - 1)) is 2k at the largest k (theorem-c's default 6)
    assert main(argv + ["--p", "1", "--budget", "0"]) == EXIT_BUDGET
    assert capsys.readouterr().err == f"budget: closure tests reach degree {degree} > budget 0\n"


@pytest.mark.parametrize("command", ["theorem-b"])
def test_huge_prime_meets_the_size_guard_first(command):
    # 999999999999999989 is prime, and trial division up to its square root
    # would run for hours: |Qd(p)| > p^2 > the guard settles it first
    proc = subprocess.run([sys.executable, "-m", "qdp.cli", command, "--p", "999999999999999989"],
                          capture_output=True, text=True, env=_child_env(), timeout=20)
    assert proc.returncode == EXIT_DOMAIN
    assert proc.stderr.startswith("error: |Qd(999999999999999989)| = ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [["prop-zeta", "--k", "4"], ["theorem-c"]],
                         ids=lambda argv: argv[0])
def test_huge_prime_meets_the_budget_first(argv):
    # 999999999999999989 is prime, and trial division up to its square root
    # would run for hours; a p above the degree budget is over it at any k
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "qdp.cli", *argv,
                           "--p", "999999999999999989"],
                          capture_output=True, text=True, env=_child_env(), timeout=20)
    assert time.monotonic() - start < 2
    assert proc.returncode == EXIT_BUDGET
    assert proc.stderr.startswith("budget: closure tests reach degree ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["borel-smith", "realize"])
def test_tau_naming_another_group_is_a_domain_error(tmp_path, capsys, command):
    # the shipped E(3^2) tau names its group; naming Qd(3) instead, it no
    # longer states a function on the --group table.  Without the field it
    # is still read
    tau = json.loads(Path(data_path("tau_regular_e9.json")).read_text())
    tau["group"] = {"kind": "qdp", "p": 3}
    (tmp_path / "tau.json").write_text(json.dumps(tau))
    argv = [command, "--group", data_path("group_e9.json"), "--tau", str(tmp_path / "tau.json")]
    assert main(argv) == EXIT_DOMAIN
    assert capsys.readouterr().err == \
        f"error: the tau file names another group than {data_path('group_e9.json')}\n"
    del tau["group"]
    (tmp_path / "tau.json").write_text(json.dumps(tau))
    assert main(argv) == EXIT_OK


def test_tau_prime_is_checked_against_the_group_first(tmp_path):
    # 999999999999999989 is prime, and trial division up to its square root
    # would run for hours; it does not divide |Z/3|, which settles it first
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    group, tau = tmp_path / "z3.json", tmp_path / "tau.json"
    group.write_text(json.dumps({"kind": "table", "n": 3, "mul": table}))
    tau.write_text(json.dumps({"p": 999999999999999989, "values": [2, 2]}))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "qdp.cli", "borel-smith",
                           "--group", str(group), "--tau", str(tau)],
                          capture_output=True, text=True, env=_child_env(), timeout=20)
    assert time.monotonic() - start < 2
    assert proc.returncode == EXIT_DOMAIN
    assert proc.stderr == "error: 999999999999999989 does not divide |G| = 3\n"


def test_differential_exponent_message_is_an_integer(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"p": 7, "n": 5, "differential": {"lambda": 1, "a": 2}}))
    assert main(["fix-rank", "--model", str(model)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == "error: differential exponent must be 3\n"


# ---------------------------------------------------------------------------
# the process entry: `run` runs `main` and ends the process with os._exit

def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(qdp.__file__).resolve().parents[1]))


@pytest.mark.parametrize("argv", ONE_PER_SUBCOMMAND, ids=lambda argv: argv[0])
def test_process_entry_matches_main(capsys, argv):
    argv = argv + ["--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "qdp.cli", *argv], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    code, out = run(capsys, *argv)
    assert proc.returncode == code, proc.stderr
    child, here = json.loads(proc.stdout), json.loads(out)
    del child["timing_ms"], here["timing_ms"]
    assert json.dumps(child, sort_keys=True) == json.dumps(here, sort_keys=True)


UNBUFFERED = pytest.mark.parametrize("unbuffered", [False, True],
                                     ids=["buffered", "unbuffered"])


def _entry_env(unbuffered: bool) -> dict:
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@UNBUFFERED
@pytest.mark.parametrize("argv, code", [(["--version"], EXIT_OK),
                                        (["theorem-b", "--p", "x"], EXIT_MALFORMED)],
                         ids=["version", "malformed"])
def test_process_entry_runs_atexit_and_exits_with_mains_code(argv, code, unbuffered):
    # `run` ends the process with os._exit, after the atexit handlers and a
    # flush: what main and a handler print arrives, with main's exit code
    script = ("import atexit, sys\n"
              "import qdp.cli\n"
              "atexit.register(print, 'atexit')\n"
              f"sys.argv = ['qdp', *{argv!r}]\n"
              "qdp.cli.run()\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_entry_env(unbuffered), timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines() == ([qdp.__version__] if code == EXIT_OK else []) + ["atexit"]


def _borel_smith_h125(directory: Path) -> list[str]:
    """borel-smith on H(5) with the regular representation's function: a
    report of some 65 KB, eight times the stdout buffer and about what a
    pipe holds."""
    G = heisenberg(5)
    lat = p_subgroups(G, 5)
    (directory / "group.json").write_text(json.dumps(G.to_json()))
    (directory / "tau.json").write_text(json.dumps({"p": 5, "values": [
        {"class_rep": list(cls[0].members), "value": G.order // cls[0].order}
        for cls in lat.classes]}))
    return ["borel-smith", "--group", str(directory / "group.json"),
            "--tau", str(directory / "tau.json"), "--format", "json"]


@UNBUFFERED
def test_process_entry_writes_a_large_report_whole(tmp_path, capsys, unbuffered):
    argv = _borel_smith_h125(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "qdp.cli", *argv], capture_output=True,
                          text=True, env=_entry_env(unbuffered), timeout=120)
    code, out = run(capsys, *argv)
    assert proc.returncode == code == EXIT_OK and proc.stderr == ""
    assert len(proc.stdout) > 60_000
    assert canonical_json(json.loads(proc.stdout)) == canonical_json(json.loads(out))


PROP_ZETA = ["prop-zeta", "--p", "3", "--k", "4", "--format", "json"]


@UNBUFFERED
def test_process_entry_with_stdout_closed_exits_0(unbuffered):
    proc = subprocess.run([sys.executable, "-m", "qdp.cli", *PROP_ZETA],
                          stdout=None, stderr=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.close(1),
                          env=_entry_env(unbuffered), timeout=60)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


def _stdout_to(sink: str):
    """A stdout for the child that refuses writes: a pipe whose reader has
    closed (EPIPE) or /dev/full (ENOSPC)."""
    if sink == "pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        return write_end, "[Errno 32] Broken pipe"
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    return os.open("/dev/full", os.O_WRONLY), "[Errno 28] No space left on device"


@UNBUFFERED
@pytest.mark.parametrize("sink", ["pipe", "full"])
@pytest.mark.parametrize("output", ["report", "version", "large"])
def test_process_entry_that_cannot_write_exits_2(tmp_path, sink, output, unbuffered):
    # a short report waits in the buffer and fails in run's flush unless
    # PYTHONUNBUFFERED is set, when it fails in main's print; a large one
    # overflows the buffer and fails in main's print either way
    argv = {"report": PROP_ZETA, "version": ["--version"]}.get(output) \
        or _borel_smith_h125(tmp_path)
    fd, reason = _stdout_to(sink)
    try:
        proc = subprocess.run([sys.executable, "-m", "qdp.cli", *argv], stdout=fd,
                              stderr=subprocess.PIPE, text=True,
                              env=_entry_env(unbuffered), timeout=60)
    finally:
        os.close(fd)
    assert proc.returncode == EXIT_DOMAIN
    assert proc.stderr == f"error: cannot write the report: {reason}\n"


def test_main_that_cannot_write_exits_2(capsys, monkeypatch):
    class Refusing:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Refusing())
    assert main(PROP_ZETA) == EXIT_DOMAIN
    assert capsys.readouterr().err == "error: cannot write the report: [Errno 32] Broken pipe\n"


def test_script_is_the_main_block_entry():
    import ast
    tomllib = pytest.importorskip("tomllib")
    import qdp.cli
    tree = ast.parse(Path(qdp.cli.__file__).read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    (stmt,) = block.body
    called = stmt.value.func.id
    pyproject = Path(qdp.__file__).resolve().parents[2] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["qdp"] == f"qdp.cli:{called}"
    assert callable(getattr(qdp.cli, called)) and called != "main"
