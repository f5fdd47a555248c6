"""Borel-Smith checker, realization solver, joins, and the fibration
obstruction certificate."""

import functools
import json
import math
import random
import sys

import pytest

import qdp.dimfun as dimfun
from qdp.characters import real_representation_basis
from qdp.dimfun import (
    BorelSmithReport,
    SuperClassFunction,
    Violation,
    check_borel_smith,
    generation_by_order_p,
    is_monotone,
    lefschetz_number,
    qdp_obstruction_theorem_B,
    realize_as_representation,
    superclassfunction_from_json,
)
from qdp.errors import (
    DomainMismatch,
    EvenPrime,
    MalformedInput,
    NotBorelSmith,
    NotMonotone,
    QdpError,
    ShapeMismatch,
)
from qdp.groups import (
    QdpGroup,
    Subgroup,
    center,
    conjugacy_orbit,
    conjugate_subgroup,
    construct_qdp,
    greedy_generators,
    is_normal_in,
    p_subgroups,
    qdp_generators,
    subgroup_closure,
    subgroups_of_p_group,
    sylow_p_subgroup,
    whole_group,
)
from fixtures import (
    cyclic,
    cyclic_subgroups,
    dfs_realization,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_quaternion,
    generic_generation_by_order_p,
    heisenberg,
    modular_p3,
    quotient_group,
)


# ---------------------------------------------------------------------------
# reference: the Borel-Smith conditions by quotient tables

def quotient_kind(K, H, p):
    """The type of K/H (H normal in K) from its coset table: "cyclic_p",
    "elementary_abelian_rank2", "cyclic4", "generalized_quaternion" or
    "other"."""
    Q, _ = quotient_group(K, H)
    q = Q.order
    orders = [Q.element_order(a) for a in Q.elements()]
    if q == p:
        return "cyclic_p"
    if q == p * p:
        if max(orders) == p:
            return "elementary_abelian_rank2"
        return "cyclic4" if p == 2 else "other"
    if p == 2 and q >= 8:
        abelian = all(Q.mul(a, b) == Q.mul(b, a)
                      for a in Q.elements() for b in Q.elements())
        if orders.count(2) == 1 and not abelian:
            return "generalized_quaternion"
    return "other"


def reference_pairs(subs, p):
    """(H, K, kind) for every H normal in K, both in `subs`, whose index is
    p, p^2, or (p = 2) any 2-power of at least 8; K outer, H inner."""
    sets = [frozenset(S.members) for S in subs]
    return [(H, K, quotient_kind(K, H, p))
            for K, kset in zip(subs, sets) for H, hset in zip(subs, sets)
            if H.order < K.order and (p == 2 or K.order // H.order in (p, p * p))
            and hset <= kset and is_normal_in(H, K)]


def reference_borel_smith(tau):
    """The conditions of `check_borel_smith`, each pair classified by the
    element orders of its quotient table, the intermediate subgroups taken
    as preimages of the lines, resp. of the involution, of K/H."""
    lat = tau.lattice
    p = lat.prime

    def preimage(K, coset_of, cosets):
        return Subgroup(K.group, tuple(k for k in K.members if coset_of[k] in cosets))

    violations = []
    for H, K, kind in reference_pairs(lat.sylow_subgroups, p):
        if kind == "elementary_abelian_rank2":
            Q, coset_of = quotient_group(K, H)
            lines = {tuple(sorted(subgroup_closure(Q, [a]))) for a in Q.elements()
                     if Q.element_order(a) == p}
            assert len(lines) == p + 1
            tk = tau.value_of(K)
            lhs = tau.value_of(H) - tk
            rhs = sum(tau.value_of(preimage(K, coset_of, set(line))) - tk
                      for line in lines)
            if lhs != rhs:
                violations.append(Violation("i", (H, K), lhs, rhs))
        elif kind == "cyclic_p" and p > 2:
            d = tau.value_of(H) - tau.value_of(K)
            if d % 2:
                violations.append(Violation("ii", (H, K), d, 0))
        elif kind in ("cyclic4", "generalized_quaternion"):
            Q, coset_of = quotient_group(K, H)
            involutions = [a for a in Q.elements() if Q.element_order(a) == 2]
            assert len(involutions) == 1
            L = preimage(K, coset_of, {Q.identity, involutions[0]})
            d = tau.value_of(H) - tau.value_of(L)
            modulus = 2 if kind == "cyclic4" else 4
            if d % modulus:
                violations.append(Violation("iii", (H, L, K), d, modulus))
    mono, wit = is_monotone(tau)
    return BorelSmithReport(monotone=mono, violations=violations, monotone_witness=wit)


AGREEMENT_GROUPS = [
    (elementary_abelian(3, 2), 3), (elementary_abelian(5, 2), 5),
    (elementary_abelian(3, 3), 3), (heisenberg(3), 3), (modular_p3(3), 3),
    (heisenberg(5), 5), (generalized_quaternion(8), 2),
    (generalized_quaternion(16), 2), (dihedral(4), 2), (dihedral(8), 2),
    (cyclic(8), 2), (cyclic(9), 3), (direct_product(cyclic(4), cyclic(2)), 2),
    (direct_product(cyclic(4), cyclic(4)), 2), (elementary_abelian(2, 3), 2),
    (direct_product(generalized_quaternion(8), cyclic(2)), 2), (construct_qdp(3), 3),
]


def seeded_taus(G, p, count=30):
    """Random values, which fail (i) and the parity conditions at random,
    alternating with sums of class weights over the classes above (monotone,
    sometimes with doubled weights), which pass (i) more often and leave the
    parity conditions to decide."""
    lat = p_subgroups(G, p)
    reps = [frozenset(cls[0].members) for cls in lat.classes]
    above = [[any(K <= frozenset(T.members) for T in cls) for cls in lat.classes]
             for K in reps]
    rng = random.Random(f"agreement:{G.name}:{p}")
    for trial in range(count):
        if trial % 2:
            values = [rng.randrange(6) for _ in lat.classes]
        else:
            weights = [rng.randrange(3) * (1 + trial % 4 // 2) for _ in lat.classes]
            values = [sum(w for w, up in zip(weights, row) if up) for row in above]
        yield SuperClassFunction(lat, tuple(values))


def fresh_is_normal_in(H, K):
    """is_normal_in with both generating sets searched anew."""
    G = H.group
    hset = set(H.members)
    hgens = greedy_generators(G, H.members)[0]
    return all(G.mul(G.mul(k, h), G.inv(k)) in hset
               for k in greedy_generators(G, K.members)[0] for h in hgens)


def perturbed_twin(tau, rng):
    """tau with one class's value moved by +-1."""
    values = list(tau.values)
    values[rng.randrange(len(values))] += rng.choice((-1, 1))
    return SuperClassFunction(tau.lattice, tuple(values))


def checked_report(tau, monkeypatch):
    """check_borel_smith(tau), asserted equal to the quotient-table
    reference and to the checker with normality decided per pair by a
    fresh generator search on both subgroups."""
    report = check_borel_smith(tau)
    with monkeypatch.context() as m:
        m.setattr(dimfun, "is_normal_in", fresh_is_normal_in)
        per_pair = check_borel_smith(tau)
    for reference in (reference_borel_smith(tau), per_pair):
        assert report.to_json() == reference.to_json()
        assert report.monotone_witness == reference.monotone_witness
    return report


@pytest.mark.parametrize("G,p", AGREEMENT_GROUPS, ids=lambda x: getattr(x, "name", ""))
def test_lattice_checker_agrees_with_quotient_tables(G, p, monkeypatch):
    rng = random.Random(f"twin:{G.name}:{p}")
    violated = 0
    for tau in seeded_taus(G, p):
        checked_report(tau, monkeypatch)
        violated += bool(checked_report(perturbed_twin(tau, rng), monkeypatch).violations)
    assert violated >= 15


def corpus_inputs():
    """The benchmark corpus's group tables with each tau and its perturbed
    twin, as the CLI reads them."""
    import importlib.util
    from pathlib import Path

    from qdp.groups import group_from_json
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    files = {name: json.loads(text)
             for name, text in gen.generate("corpus", 7).files.items()}
    for name in sorted(files):
        if "_tau" not in name:
            continue
        group_name, tag = name.split("_tau")
        G = group_from_json(files[f"{group_name}_group.json"])
        lat = p_subgroups(G, files[name]["p"])
        yield name, [superclassfunction_from_json(files[f"{group_name}_{kind}{tag}"], lat)
                     for kind in ("tau", "bad")]


def test_lattice_checker_agrees_with_quotient_tables_on_the_corpus(monkeypatch):
    names = []
    for name, (tau, twin) in corpus_inputs():
        assert checked_report(tau, monkeypatch).ok
        assert checked_report(twin, monkeypatch).violations
        names.append(name)
    assert len(names) == 8  # six groups, two of them with a second tau


def test_borel_smith_searches_each_subgroups_generators_once(monkeypatch):
    import qdp.groups
    lat = p_subgroups(heisenberg(5), 5)
    calls = []
    real = qdp.groups.greedy_generators
    monkeypatch.setattr(qdp.groups, "greedy_generators",
                        lambda G, members: calls.append(1) or real(G, members))
    tau = SuperClassFunction(lat, tuple(range(lat.n_classes, 0, -1)))
    for _ in range(2):
        check_borel_smith(tau)
    assert 0 < len(calls) <= len(lat.sylow_subgroups)


def test_agreement_taus_violate_every_condition():
    kinds = {v.condition if v.condition != "iii" else f"iii mod {v.rhs}"
             for G, p in AGREEMENT_GROUPS for tau in seeded_taus(G, p)
             for v in check_borel_smith(tau).violations}
    assert kinds == {"i", "ii", "iii mod 2", "iii mod 4"}


def regular_tau(G, p):
    """Dimension function of the real regular representation via the
    orbit-count oracle: value |G| / |H| at each class."""
    lat = p_subgroups(G, p)
    return lat, SuperClassFunction(
        lat, tuple(G.order // cls[0].order for cls in lat.classes))


def test_regular_representation_is_borel_smith():
    lat, tau = regular_tau(elementary_abelian(3, 2), 3)
    report = check_borel_smith(tau)
    assert report.ok and report.monotone
    # condition (i) by hand: 9 - 1 = 4 * (3 - 1)
    assert tau.values[lat.class_of(Subgroup(lat.group, (0,)))] == 9


def test_constant_function_passes():
    lat = p_subgroups(heisenberg(3), 3)
    tau = SuperClassFunction(lat, (7,) * lat.n_classes)
    report = check_borel_smith(tau)
    assert report.ok and report.monotone


def test_condition_i_violation():
    lat = p_subgroups(elementary_abelian(3, 2), 3)
    values = [0] * lat.n_classes
    values[lat.class_of(Subgroup(lat.group, (0,)))] = 2
    report = check_borel_smith(SuperClassFunction(lat, tuple(values)))
    assert not report.ok
    v = report.violations[0]
    assert v.condition == "i" and v.lhs == 2 and v.rhs == 0


def test_condition_ii_violation():
    lat = p_subgroups(cyclic(3), 3)
    tau = SuperClassFunction(lat, tuple(
        1 if cls[0].order == 1 else 0 for cls in lat.classes))
    report = check_borel_smith(tau)
    assert [v.condition for v in report.violations] == ["ii"]


def test_condition_iii_quaternion():
    G = generalized_quaternion(8)
    lat = p_subgroups(G, 2)
    # tau = 2 at the trivial subgroup only: 2 - 0 is even but not divisible
    # by 4, so the quaternion condition fails while the cyclic-4 one passes
    values = [2 if cls[0].order == 1 else 0 for cls in lat.classes]
    report = check_borel_smith(SuperClassFunction(lat, tuple(values)))
    assert any(v.condition == "iii" and v.rhs == 4 for v in report.violations)
    # the quaternionic entry of the real basis passes with difference 4
    basis = real_representation_basis(G)
    quat = next(e for e in basis if e.realness == "quaternionic")
    tau = SuperClassFunction(lat, quat.fixed_dimension_vector(lat))
    assert tau.values[lat.class_of(Subgroup(G, (G.identity,)))] == 4
    assert check_borel_smith(tau).ok


def test_monotone_witness():
    lat = p_subgroups(cyclic(3), 3)
    tau = SuperClassFunction(lat, tuple(
        0 if cls[0].order == 1 else 1 for cls in lat.classes))
    mono, wit = is_monotone(tau)
    assert not mono and wit is not None
    assert is_monotone(SuperClassFunction(lat, (5, 5)))[0]


MONOTONE_GROUPS = [
    (elementary_abelian(3, 2), 3), (heisenberg(3), 3), (modular_p3(3), 3),
    (elementary_abelian(5, 2), 5), (elementary_abelian(3, 3), 3),
    (heisenberg(5), 5), (construct_qdp(3), 3), (construct_qdp(2), 2),
]


@pytest.mark.parametrize("G,p", MONOTONE_GROUPS, ids=lambda x: getattr(x, "name", ""))
def test_monotone_verdict_matches_per_representative_reference(G, p):
    # reference: every subgroup of every class representative, which need
    # not lie in the Sylow subgroup the checker reads
    lat = p_subgroups(G, p)
    rep_subgroups = [subgroups_of_p_group(cls[0]) for cls in lat.classes]

    def reference(tau):
        return all(tau.value_of(S) >= tau.value_of(K)
                   for (K, *_), subs in zip(lat.classes, rep_subgroups) for S in subs)

    # tau(K) = sum of the weights of the classes with a member above K is
    # monotone; moving one value a little may break that, and lifting a
    # nontrivial class above every value (class 0 is the trivial subgroup)
    # always does
    reps = [frozenset(cls[0].members) for cls in lat.classes]
    above = [[any(K <= frozenset(T.members) for T in cls) for cls in lat.classes]
             for K in reps]
    rng = random.Random(f"{G.name}:{p}")
    verdicts = set()
    for trial in range(12):
        weights = [rng.randrange(3) for _ in lat.classes]
        values = [sum(w for w, up in zip(weights, row) if up) for row in above]
        if trial % 3 == 1:
            values[rng.randrange(len(values))] += rng.choice((-2, -1, 1, 2))
        elif trial % 3 == 2:
            values[rng.randrange(1, len(values))] = max(values) + 1
        tau = SuperClassFunction(lat, tuple(values))
        mono, wit = is_monotone(tau)
        assert mono == reference(tau)
        if not mono:
            H, K = wit
            assert set(H.members) < set(K.members)
            assert tau.value_of(H) < tau.value_of(K)
        verdicts.add(mono)
    assert verdicts == {True, False}


def h5_constant_files(tmp_path):
    """--group and --tau arguments for the constant 2 on H(5)."""
    G = heisenberg(5)
    lat = p_subgroups(G, 5)
    group_path, tau_path = tmp_path / "group.json", tmp_path / "tau.json"
    group_path.write_text(json.dumps(G.to_json()))
    tau_path.write_text(json.dumps(SuperClassFunction(lat, (2,) * lat.n_classes).to_json()))
    return ["--group", str(group_path), "--tau", str(tau_path)]


@pytest.mark.parametrize("command", ["borel-smith", "realize"])
def test_one_sylow_lattice_per_certificate(tmp_path, monkeypatch, capsys, command):
    import qdp.characters
    import qdp.cli
    import qdp.dimfun
    import qdp.groups
    argv = [command, *h5_constant_files(tmp_path)]
    calls, enumerate_subgroups = [], qdp.groups.subgroups_of_p_group

    def counted(P):
        calls.append(P.order)
        return enumerate_subgroups(P)

    for module in (qdp.groups, qdp.characters, qdp.dimfun):
        if hasattr(module, "subgroups_of_p_group"):  # every name it is looked up by
            monkeypatch.setattr(module, "subgroups_of_p_group", counted)
    assert qdp.cli.main(argv) == 0
    assert calls == [125]


def test_one_monotonicity_run_per_realize(tmp_path, monkeypatch, capsys):
    import qdp.cli
    import qdp.dimfun
    calls, monotone = [], qdp.dimfun.is_monotone

    def counted(tau):
        calls.append(tau)
        return monotone(tau)

    monkeypatch.setattr(qdp.dimfun, "is_monotone", counted)
    assert qdp.cli.main(["realize", *h5_constant_files(tmp_path)]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# joins and the codimension-one sum rule, kept here as references

def join_dimension_function(tau, m):
    """Dimension function of the m-fold fiber join: values and scale both
    multiply by m (sphere ranks compose as r -> m(r+1) - 1)."""
    if m < 1:
        raise MalformedInput("join multiplicity must be >= 1")
    return SuperClassFunction(tau.lattice, tuple(m * v for v in tau.values),
                              tau.scale * m)


def smallest_join_multiplier(tau, limit=None):
    """Least m <= limit with m*tau passing all Borel-Smith conditions: scaling
    keeps each failure of (i) and turns a failing difference d of (ii) or (iii)
    (due divisible by 2 or 4) into m*d."""
    p = tau.lattice.prime
    if limit is None:
        limit = 2 * p * (p + 1)
    m = 1
    for v in check_borel_smith(tau).violations:
        if v.condition == "i":
            return None
        modulus = 2 if v.condition == "ii" else v.rhs
        m = math.lcm(m, modulus // math.gcd(v.lhs, modulus))
    return m if m <= limit else None


class EulerDatum:
    def __init__(self, degree, factor_degrees):
        self.degree = degree
        self.factor_degrees = factor_degrees


def check_codim_one_sum(tau, V):
    """On V of rank two: total drop equals the sum of the drops over the
    p+1 index-p subgroups.  Also records the factor degrees of the Euler
    class: each line W contributes tau(W) - tau(V)."""
    p = tau.lattice.prime
    if V.order != p * p or any(V.group.power(g, p) != V.group.identity
                               for g in V.members):
        raise MalformedInput("V must be elementary abelian of rank two")
    subs = subgroups_of_p_group(V)
    ones = [S for S in subs if S.order == 1][0]
    lines = [S for S in subs if S.order == p]
    if len(lines) != p + 1:
        raise ShapeMismatch(f"rank-two subgroup with {len(lines)} lines, not {p + 1}")
    tv = tau.value_of(V)
    lhs = tau.value_of(ones) - tv
    factors = {W.members: tau.value_of(W) - tv for W in lines}
    rhs = sum(factors.values())
    return lhs == rhs, EulerDatum(lhs, factors), lhs, rhs


def test_borel_smith_closed_under_addition_and_join():
    G = heisenberg(3)
    lat = p_subgroups(G, 3)
    basis = real_representation_basis(G)
    taus = [SuperClassFunction(lat, e.fixed_dimension_vector(lat)) for e in basis]
    rng = random.Random(11)
    for _ in range(10):
        a, b = rng.choice(taus), rng.choice(taus)
        total = tuple(x + y for x, y in zip(a.values, b.values))
        assert check_borel_smith(SuperClassFunction(lat, total)).ok
        assert check_borel_smith(join_dimension_function(a, 3)).ok


def test_join_dimension_function():
    lat = p_subgroups(cyclic(3), 3)
    tau = SuperClassFunction(lat, (2, 1))
    j = join_dimension_function(tau, 3)
    assert j.values == (6, 3) and j.scale == 3
    assert join_dimension_function(tau, 1).values == tau.values
    # rank bookkeeping: r = 1 means value 2; the double join gives value 4,
    # i.e. a rank-3 sphere
    r = 1
    tau2 = SuperClassFunction(lat, (r + 1, r + 1))
    assert join_dimension_function(tau2, 2).values[0] == 4


def test_join_is_multiplicative():
    lat = p_subgroups(elementary_abelian(3, 2), 3)
    tau = SuperClassFunction(lat, tuple(range(1, lat.n_classes + 1))[::-1])
    a = join_dimension_function(tau, 6)
    b = join_dimension_function(join_dimension_function(tau, 2), 3)
    assert a.values == b.values and a.scale == b.scale


def test_codim_one_sum_regular():
    G = elementary_abelian(3, 2)
    lat, tau = regular_tau(G, 3)
    ok, euler, lhs, rhs = check_codim_one_sum(tau, whole_group(G))
    assert ok and lhs == rhs == 8
    assert euler.degree == 8
    assert sorted(euler.factor_degrees.values()) == [2, 2, 2, 2]


def test_codim_one_sum_constant_and_violation():
    G = elementary_abelian(3, 2)
    lat = p_subgroups(G, 3)
    const = SuperClassFunction(lat, (3,) * lat.n_classes)
    ok, euler, lhs, rhs = check_codim_one_sum(const, whole_group(G))
    assert ok and lhs == rhs == 0
    values = [2] * lat.n_classes
    values[lat.class_of(Subgroup(G, (0,)))] = 4
    bad = SuperClassFunction(lat, tuple(values))
    ok, _, lhs, rhs = check_codim_one_sum(bad, whole_group(G))
    assert not ok and lhs == 2 and rhs == 0


def test_realize_regular_of_z3():
    G = cyclic(3)
    lat, tau = regular_tau(G, 3)
    basis = real_representation_basis(G)
    sol, _ = realize_as_representation(tau, basis)
    # one copy of the trivial entry and one of the realified faithful pair
    assert sol is not None and sorted(sol.values()) == [1, 1]
    degrees = sorted(basis[i].real_degree for i in sol)
    assert degrees == [1, 2]


def test_realize_zero_and_two_dimensional():
    G = cyclic(3)
    lat = p_subgroups(G, 3)
    basis = real_representation_basis(G)
    assert realize_as_representation(
        SuperClassFunction(lat, (0, 0)), basis) == ({}, None)
    tau = SuperClassFunction(lat, (2, 0))
    sol, _ = realize_as_representation(tau, basis)
    assert sol is not None
    (idx, mult), = sol.items()
    assert mult == 1 and basis[idx].realness == "complex_pair"


def test_realize_refuses_bad_inputs():
    G = cyclic(3)
    lat = p_subgroups(G, 3)
    basis = real_representation_basis(G)
    with pytest.raises(NotMonotone):
        realize_as_representation(SuperClassFunction(lat, (0, 1)), basis)
    with pytest.raises(NotBorelSmith):
        realize_as_representation(SuperClassFunction(lat, (1, 0)), basis)


def test_realization_round_trip_reproduces_tau():
    G = heisenberg(3)
    lat = p_subgroups(G, 3)
    basis = real_representation_basis(G)
    vecs = [e.fixed_dimension_vector(lat) for e in basis]
    rng = random.Random(3)
    for _ in range(5):
        coeffs = [rng.randrange(3) for _ in basis]
        coeffs[0] += 1
        tau = SuperClassFunction(lat, tuple(
            sum(c * v[i] for c, v in zip(coeffs, vecs))
            for i in range(lat.n_classes)))
        sol, _ = realize_as_representation(tau, basis)
        rebuilt = [0] * lat.n_classes
        for idx, mult in sol.items():
            rebuilt = [r + mult * v for r, v in zip(rebuilt, vecs[idx])]
        assert tuple(rebuilt) == tau.values


# ---------------------------------------------------------------------------
# realization by the exact solve, against the bounded search

SOLVE_GROUPS = {
    "E9": (lambda: elementary_abelian(3, 2), 3),
    "E25": (lambda: elementary_abelian(5, 2), 5),
    "E27": (lambda: elementary_abelian(3, 3), 3),
    "H27": (lambda: heisenberg(3), 3),
    "M27": (lambda: modular_p3(3), 3),
    "H125": (lambda: heisenberg(5), 5),
    "D8": (lambda: dihedral(4), 2),
    "Q8": (lambda: generalized_quaternion(8), 2),
    "D16": (lambda: dihedral(8), 2),
    "Q16": (lambda: generalized_quaternion(16), 2),
}


@functools.lru_cache(maxsize=None)
def lattice_and_basis(name):
    build, p = SOLVE_GROUPS[name]
    lat = p_subgroups(build(), p)
    return lat, real_representation_basis(lat.group, subgroups=lat.sylow_subgroups)


def permutation_tau(lat, Ks):
    """H -> sum over K of |H\\P/K|, the fixed dimensions of the permutation
    representations on the cosets of the maximal subgroups K.  K is normal
    of index p, so the H-orbits on P/K are the cosets of HK: p of them when
    H lies in K, else one."""
    p = lat.prime
    return SuperClassFunction(lat, tuple(
        sum(p if set(cls[0].members) <= set(K.members) else 1 for K in Ks)
        for cls in lat.classes))


def realize_or_error(tau, basis):
    try:
        return realize_as_representation(tau, basis)
    except QdpError as exc:
        return type(exc)


def lift_the_gate(monkeypatch):
    # realize refuses a tau that is not monotone or not Borel-Smith; lifting
    # that gate lets the solver's own checks meet any nonnegative tau
    monkeypatch.setattr(dimfun, "check_borel_smith",
                        lambda tau: BorelSmithReport(monotone=True))


@pytest.mark.parametrize("terms", (1, 2, 3))
@pytest.mark.parametrize("name", sorted(SOLVE_GROUPS))
def test_exact_solve_matches_the_search(name, terms):
    # tau and its perturbed twin, which differs by 1 on one class; the
    # search finishes within a second on each of these
    lat, basis = lattice_and_basis(name)
    maximal = [S for S in lat.sylow_subgroups if S.order * lat.prime == lat.group.order]
    for seed in range(2):
        rng = random.Random(seed)
        tau = permutation_tau(lat, [rng.choice(maximal) for _ in range(terms)])
        assert realize_as_representation(tau, basis) == (dfs_realization(tau, basis), None)
        values = list(tau.values)
        values[rng.randrange(len(values))] += rng.choice((-1, 1))
        twin = SuperClassFunction(lat, tuple(values))
        assert realize_or_error(twin, basis) in (NotMonotone, NotBorelSmith)
        assert dfs_realization(twin, basis) is None


@pytest.mark.parametrize("name", ["E9", "H27", "M27", "D8", "Q8", "D16"])
def test_exact_solve_matches_the_search_past_the_gate(monkeypatch, name):
    lift_the_gate(monkeypatch)
    lat, basis = lattice_and_basis(name)
    vectors = [entry.fixed_dimension_vector(lat) for entry in basis]
    rng = random.Random(name)
    realized = refuted = 0
    for _ in range(40):
        # a nonnegative combination of the basis vectors, a virtual one
        # clipped at 0, or a nonnegative one plus noise
        kind = rng.randrange(3)
        coeffs = [rng.randrange(-(kind == 1), 3) for _ in basis]
        values = [max(0, sum(c * v[k] for c, v in zip(coeffs, vectors)))
                  for k in range(lat.n_classes)]
        if kind == 2:
            values = [v + rng.randrange(2) for v in values]
        tau = SuperClassFunction(lat, tuple(values))
        sol, refutation = realize_as_representation(tau, basis)
        want = dfs_realization(tau, basis)
        assert sol == want
        assert (refutation is None) == (want is not None)
        realized += want is not None
        refuted += want is None
    assert realized >= 10 and refuted >= 10


def test_refutation_names_a_negative_coordinate(monkeypatch):
    # on Z/3 the trivial entry takes tau(Z/3) = 3 and the faithful pair
    # (tau(1) - tau(Z/3)) / 2 = -1
    lift_the_gate(monkeypatch)
    G = cyclic(3)
    lat = p_subgroups(G, 3)
    basis = real_representation_basis(G)
    pair = next(i for i, e in enumerate(basis) if e.realness == "complex_pair")
    assert realize_as_representation(SuperClassFunction(lat, (1, 3)), basis) == (None, {
        "reason": "negative coordinate", "basis_index": pair,
        "numerator": -1, "denominator": 1})


def test_refutation_names_a_fractional_coordinate(monkeypatch):
    lift_the_gate(monkeypatch)
    G = cyclic(3)
    lat = p_subgroups(G, 3)
    basis = real_representation_basis(G)
    pair = next(i for i, e in enumerate(basis) if e.realness == "complex_pair")
    assert realize_as_representation(SuperClassFunction(lat, (2, 1)), basis) == (None, {
        "reason": "fractional coordinate", "basis_index": pair,
        "numerator": 1, "denominator": 2})


def test_refutation_names_a_failing_non_cyclic_class(monkeypatch):
    # 1 on every cyclic subgroup of E(3^2) is the trivial representation,
    # which is 1 on the whole group as well, not 0
    lift_the_gate(monkeypatch)
    G = elementary_abelian(3, 2)
    lat = p_subgroups(G, 3)
    basis = real_representation_basis(G)
    values = tuple(0 if cls[0].order == 9 else 1 for cls in lat.classes)
    assert realize_as_representation(SuperClassFunction(lat, values), basis) == (None, {
        "reason": "non-cyclic class", "class_rep": list(range(9)), "lhs": 1, "rhs": 0})


def test_realize_refuses_a_basis_short_of_a_galois_class():
    lat, basis = lattice_and_basis("E9")
    tau = SuperClassFunction(lat, (1,) * lat.n_classes)
    with pytest.raises(QdpError, match="4 distinct fixed-dimension vectors for 5 classes"):
        realize_as_representation(tau, basis[:-1])


class StubEntry:
    def __init__(self, vector):
        self.vector = vector

    def fixed_dimension_vector(self, lattice):
        return self.vector


def test_realize_refuses_a_singular_system():
    lat = p_subgroups(cyclic(3), 3)
    with pytest.raises(QdpError, match="singular"):
        realize_as_representation(SuperClassFunction(lat, (2, 2)),
                                  [StubEntry((1, 1)), StubEntry((2, 2))])


def test_realize_checks_the_solve_against_its_system(monkeypatch):
    lat, basis = lattice_and_basis("E9")
    tau = permutation_tau(lat, lat.sylow_subgroups[-5:-1])
    assert realize_as_representation(tau, basis)[0]
    monkeypatch.setattr(dimfun, "_solve_exact", lambda matrix, rhs: (1, [0] * len(rhs)))
    with pytest.raises(QdpError, match="does not satisfy"):
        realize_as_representation(tau, basis)


def test_realize_on_h5_at_degree_25():
    # five permutation terms on H(5): the case where the search ran for
    # seconds; the witness is checked by its sum alone
    lat, basis = lattice_and_basis("H125")
    maximal = [S for S in lat.sylow_subgroups if S.order == 25]
    rng = random.Random(2)
    tau = permutation_tau(lat, [rng.choice(maximal) for _ in range(5)])
    assert tau.value_of(Subgroup(lat.group, (lat.group.identity,))) == 25
    sol, refutation = realize_as_representation(tau, basis)
    assert refutation is None and all(m > 0 for m in sol.values())
    vectors = [basis[i].fixed_dimension_vector(lat) for i in sol]
    assert tuple(sum(m * v[k] for m, v in zip(sol.values(), vectors))
                 for k in range(lat.n_classes)) == tau.values


def test_superclassfunction_json_round_trip():
    G = elementary_abelian(3, 2)
    lat, tau = regular_tau(G, 3)
    blob = tau.to_json()
    tau2 = superclassfunction_from_json(blob, lattice=lat)
    assert tau2.values == tau.values and tau2.scale == tau.scale
    blob["values"] = blob["values"][:-1]
    with pytest.raises(DomainMismatch):
        superclassfunction_from_json(blob, lattice=lat)


@pytest.mark.parametrize("values, scale", [
    ((2.9,) * 6, 1), ((True,) + (2,) * 5, 1), ((2,) * 6, 1.5),
], ids=["value-float", "value-bool", "scale-float"])
def test_superclassfunction_rejects_non_integers(values, scale):
    # int(2.9) would store 2 and a scale of 1.5 would be kept: both state a
    # function the caller never gave
    lat = p_subgroups(elementary_abelian(3, 2), 3)
    assert lat.n_classes == len(values)
    with pytest.raises(MalformedInput):
        SuperClassFunction(lat, values, scale)


def test_smallest_join_multiplier():
    lat = p_subgroups(cyclic(3), 3)
    odd = SuperClassFunction(lat, (1, 0))  # fails (ii) until doubled
    assert smallest_join_multiplier(odd) == 2
    even = SuperClassFunction(lat, (2, 0))
    assert smallest_join_multiplier(even) == 1
    # 1 at the trivial subgroup of Q8 only: the quaternion condition needs 4
    q8 = p_subgroups(generalized_quaternion(8), 2)
    one = SuperClassFunction(q8, tuple(int(cls[0].order == 1) for cls in q8.classes))
    assert smallest_join_multiplier(one) == 4
    assert smallest_join_multiplier(one, limit=3) is None


@pytest.mark.parametrize("G,p", [
    (cyclic(3), 3), (cyclic(9), 3), (elementary_abelian(3, 2), 3), (heisenberg(3), 3),
    (cyclic(4), 2), (elementary_abelian(2, 2), 2), (generalized_quaternion(8), 2),
    (generalized_quaternion(16), 2), (dihedral(4), 2),
], ids=lambda x: getattr(x, "name", ""))
def test_smallest_join_multiplier_matches_the_search(G, p):
    # reference: check the m-fold join for m = 1, 2, ... up to the limit
    def search(tau, limit):
        return next((m for m in range(1, limit + 1)
                     if check_borel_smith(join_dimension_function(tau, m)).ok), None)

    # random values mostly fail (i); half a combination of realified complex
    # and quaternionic entries (even everywhere) keeps (i) and may fail the
    # parity conditions
    lat = p_subgroups(G, p)
    doubled = [e.fixed_dimension_vector(lat) for e in real_representation_basis(G)
               if e.multiplier == 2]
    rng = random.Random(f"{G.name}:{p}")
    for trial in range(16):
        if trial % 2 and doubled:
            coeffs = [rng.randrange(3) for _ in doubled]
            values = [sum(c * v[i] for c, v in zip(coeffs, doubled)) // 2
                      for i in range(lat.n_classes)]
        else:
            values = [rng.randrange(9) for _ in lat.classes]
        tau = SuperClassFunction(lat, tuple(values))
        for limit in (3, 2 * p * (p + 1)):
            assert smallest_join_multiplier(tau, limit) == search(tau, limit)


def test_lefschetz_values():
    ident = [[1]]
    rot = [[0, -1], [1, -1]]
    assert lefschetz_number(ident, rot, ident, 1) == 3  # 2 - (-1)
    assert lefschetz_number(ident, rot, ident, 2) == 1  # 2 + (-1)
    assert lefschetz_number(ident, [[1, 0], [0, 1]], ident, 1) == 0
    with pytest.raises(ShapeMismatch):
        lefschetz_number(ident, ident, ident, 1)


def test_generation_by_order_p():
    G = construct_qdp(3)
    ok, wits = generation_by_order_p(G, 3)
    assert ok and len(wits) == 80
    assert (ok, wits) == generic_generation_by_order_p(G, 3)
    ok, wits = generation_by_order_p(construct_qdp(5), 5)
    assert ok and len(wits) == 624
    # the generic reference, on the groups the Qd(p) route does not take
    ok, _ = generic_generation_by_order_p(cyclic(4), 2)
    assert not ok
    ok, _ = generic_generation_by_order_p(cyclic(9), 3)
    assert not ok
    ok, _ = generic_generation_by_order_p(cyclic(5), 5)
    assert ok


def test_theorem_b_certificates():
    for p in (3, 5):
        cert = qdp_obstruction_theorem_B(p)
        assert cert.status == "unsat-certificate"
        names = [leg.name for leg in cert.legs]
        assert "fusion-witness" in names and "constraint-unsat" in names
        unsat = next(leg for leg in cert.legs if leg.name == "constraint-unsat")
        assert unsat.details["unsat"] and unsat.details["agrees_with_witness_route"]
        # verify the returned conjugator elementwise
        G = construct_qdp(p)
        g = cert.witness["conjugator"]
        Z = Subgroup(G, tuple(cert.witness["center"]))
        C = Subgroup(G, tuple(cert.witness["conjugate"]))
        assert conjugate_subgroup(G, g, Z) == C
        P = sylow_p_subgroup(G, p)
        assert Z == center(P) and C != Z
        assert set(C.members) <= set(P.members)


# (conjugator, center, conjugate): the conjugate is the first member of the
# center's G-orbit, in member order, that lies in the Sylow subgroup other
# than the center, and the conjugator is the first in index order
THEOREM_B_WITNESSES = {
    3: (12, [6, 102, 198], [6, 30, 54]),
    5: (40, [20, 740, 1460, 2180, 2900], [20, 140, 260, 380, 500]),
    7: (84, [42, 2730, 5418, 8106, 10794, 13482, 16170],
        [42, 378, 714, 1050, 1386, 1722, 2058]),
    11: (220, [110, 15950, 31790, 47630, 63470, 79310, 95150, 110990, 126830,
               142670, 158510],
         [110, 1430, 2750, 4070, 5390, 6710, 8030, 9350, 10670, 11990, 13310]),
    13: (312, [156, 30732, 61308, 91884, 122460, 153036, 183612, 214188, 244764,
               275340, 305916, 336492, 367068],
         [156, 2340, 4524, 6708, 8892, 11076, 13260, 15444, 17628, 19812, 21996,
          24180, 26364]),
}


def test_theorem_b_witness_triples():
    for p, (g, z, c) in THEOREM_B_WITNESSES.items():
        w = qdp_obstruction_theorem_B(p, max_order=p ** 3 * (p * p - 1)).witness
        assert (w["conjugator"], w["center"], w["conjugate"]) == (g, z, c)


def reference_constraint_classes(p):
    """The effectiveness constraints over the G-orbit of every class of
    nontrivial cyclic subgroups of the Sylow subgroup P, keyed by the least
    member tuple of each orbit: "= 0" at the center, ">= 1" elsewhere."""
    G = construct_qdp(p, max_order=p ** 3 * (p * p - 1))
    P = sylow_p_subgroup(G, p)
    Z = center(P)
    cycs = [C for C in cyclic_subgroups(P) if C.order > 1]
    gens, generated = qdp_generators(G)
    assert generated
    class_key = {}
    for C in cycs:
        if C.members not in class_key:
            orbit = conjugacy_orbit(G, C, gens)
            class_key.update((T.members, orbit[0].members) for T in orbit)
    constraints = {}
    for C in cycs:
        want = "= 0" if C.members == Z.members else ">= 1"
        constraints.setdefault(class_key[C.members], set()).add(want)
    return constraints


@pytest.mark.parametrize("p", [3, 5, 7])
def test_route_two_class_is_the_only_clash(p):
    constraints = reference_constraint_classes(p)
    clashes = [k for k, v in constraints.items() if len(v) > 1]
    assert len(clashes) == 1
    (key,) = clashes
    assert all(v == {">= 1"} for k, v in constraints.items() if k != key)
    cert = qdp_obstruction_theorem_B(p, max_order=p ** 3 * (p * p - 1))
    legs = {leg.name: leg for leg in cert.legs}
    assert legs["effectiveness-constraints"].details == {
        "variables": [list(key)],
        "constraints": {str(list(key)): ["= 0", ">= 1"]},
        "other_classes": [">= 1"],
    }
    assert legs["constraint-unsat"].details["clash_classes"] == [list(key)]


def test_theorem_b_takes_two_orbits(monkeypatch):
    # one for e1 in qdp_generators, one for the Sylow center
    import qdp.dimfun
    import qdp.groups
    real = qdp.groups.conjugacy_orbit
    calls = []

    def counted(G, S, gens):
        calls.append(S.members)
        return real(G, S, gens)

    monkeypatch.setattr(qdp.groups, "conjugacy_orbit", counted)
    monkeypatch.setattr(qdp.dimfun, "conjugacy_orbit", counted)
    for p in (3, 5, 7):
        calls.clear()
        cert = qdp_obstruction_theorem_B(p, max_order=p ** 3 * (p * p - 1))
        G = construct_qdp(p, max_order=p ** 3 * (p * p - 1))
        assert cert.status == "unsat-certificate"
        assert calls == [(p * G.nmat + G.identity,), tuple(cert.witness["center"])]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_theorem_b_failed_generation_is_refuted(monkeypatch, p):
    # the orbit under unproven generators may be smaller than Z's G-class,
    # so the certificate must not stand on it
    import qdp.dimfun
    real = qdp.dimfun.qdp_generators
    monkeypatch.setattr(qdp.dimfun, "qdp_generators", lambda G: (real(G)[0], False))
    cert = qdp_obstruction_theorem_B(p, max_order=p ** 3 * (p * p - 1))
    legs = {leg.name: leg for leg in cert.legs}
    assert cert.status == "refuted"
    assert legs["effectiveness-constraints"].status == "refuted"
    assert "not shown to generate" in legs["effectiveness-constraints"].details["reason"]


def test_theorem_b_mul_guard(monkeypatch):
    # route one tries only the center's orbit members inside P; listing the
    # cyclic subgroups of P or testing commutators over witness x P would
    # exceed the bound
    real = QdpGroup.mul
    calls = [0]

    def counted(self, a, b):
        calls[0] += 1
        return real(self, a, b)

    monkeypatch.setattr(QdpGroup, "mul", counted)
    cert = qdp_obstruction_theorem_B(19, max_order=19 ** 3 * 360)
    assert cert.status == "unsat-certificate"
    assert calls[0] < 50_000


def test_theorem_b_rejects_two():
    with pytest.raises(EvenPrime):
        qdp_obstruction_theorem_B(2)
