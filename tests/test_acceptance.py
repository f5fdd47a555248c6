"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

from qdp.characters import real_representation_basis
from qdp.dimfun import (
    SuperClassFunction,
    check_borel_smith,
    qdp_obstruction_theorem_B,
    realize_as_representation,
)
from qdp.fixrank import TwoRowModule, fix_rank
from qdp.groups import p_subgroups
from qdp.steenrod import (
    GradedElement,
    bockstein,
    brute_force_zeta_proposition,
    invariants,
    steenrod_power,
    theorem_C_driver,
)
from fixtures import (
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    euler_join,
    generalized_quaternion,
    heisenberg,
    m_fold_join_model,
    modular_p3,
    non_nilpotent,
    sl2_act,
)


def test_criterion_1_power_operation_identities():
    t0 = time.monotonic()
    for p in (3, 5):
        inv = invariants(p)
        assert steenrod_power(1, inv.zeta).is_zero()
        assert steenrod_power(1, inv.xi) == inv.zeta ** (p - 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: P^1(zeta) = 0 and P^1(xi) = zeta^(p-1) "
          f"for p in (3, 5), exact, {elapsed:.3f}s")


def test_criterion_2_bockstein_identity():
    p = 3
    rng = random.Random(2024)
    u = GradedElement.monomial(p, 0, 0, 1, 0)
    v = GradedElement.monomial(p, 0, 0, 0, 1)
    x = GradedElement.monomial(p, 1, 0)
    y = GradedElement.monomial(p, 0, 1)
    uv, xv_uy = u * v, x * v - u * y
    for _ in range(20):
        terms = {(rng.randrange(50), rng.randrange(50), 0, 0): rng.randrange(1, p)
                 for _ in range(rng.randrange(1, 6))}
        g = GradedElement(p, terms)
        assert bockstein(uv * g) == xv_uy * g
    print("\nACCEPTANCE 2 PASS: beta(uv*g) = (xv - uy)*g for 20 random "
          "polynomials g, exact")


def test_criterion_3_zeta_power_enumeration():
    t0 = time.monotonic()
    expected = {4: 1, 6: 0, 8: 1, 12: 1}
    for k, count in expected.items():
        res = brute_force_zeta_proposition(3, k)
        assert res.matches and len(res.survivors) == count
        if count:
            # the one survivor is the line of zeta^(k/4)
            zeta_line = tuple(int(ab == (0, k // 4)) for ab in res.ambient)
            assert res.survivors == [(zeta_line,)]
    res = brute_force_zeta_proposition(5, 6)
    assert res.matches and len(res.survivors) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS: survivors are zeta, none, zeta^2, zeta^3 "
          f"(p=3, k=4,6,8,12) and zeta (p=5, k=6), {elapsed:.3f}s")


def test_criterion_4_theorem_b_certificates():
    t3 = time.monotonic()
    cert3 = qdp_obstruction_theorem_B(3)
    t3 = time.monotonic() - t3
    t5 = time.monotonic()
    cert5 = qdp_obstruction_theorem_B(5)
    t5 = time.monotonic() - t5
    for cert in (cert3, cert5):
        assert cert.status == "unsat-certificate"
        unsat = next(l for l in cert.legs if l.name == "constraint-unsat")
        fusion = next(l for l in cert.legs if l.name == "fusion-witness")
        assert unsat.details["unsat"]
        assert fusion.details["non_central_in_sylow"]
        assert unsat.details["agrees_with_witness_route"]
    assert t5 < 60.0
    print(f"\nACCEPTANCE 4 PASS: fusion witness and UNSAT constraint system "
          f"agree for p=3 ({t3:.2f}s) and p=5 ({t5:.2f}s)")


def test_criterion_5_theorem_c_certificate():
    cert = theorem_C_driver(3)
    assert cert.status == "unsat-certificate"
    legs = {l.name: l for l in cert.legs}
    computational = [l for l in cert.legs if l.status != "assumed"]
    assert all(l.status == "verified" for l in computational)
    act = legs["action-triviality"].details
    assert act["lefschetz_nontrivial_odd"] == 3   # 2 - (-1)
    assert act["lefschetz_nontrivial_even"] == 1  # 2 + (-1)
    print("\nACCEPTANCE 5 PASS: product-of-spheres certificate for p=3, all "
          "computational legs verified, Lefschetz values 3 and 1 exact")


def test_criterion_6_borel_smith_contains_representations():
    corpus = [cyclic(2), cyclic(4), cyclic(8), elementary_abelian(2, 2),
              elementary_abelian(2, 3), direct_product(cyclic(4), cyclic(2)),
              dihedral(4), generalized_quaternion(8), generalized_quaternion(16),
              cyclic(3), cyclic(9), cyclic(27), elementary_abelian(3, 2),
              elementary_abelian(3, 3), direct_product(cyclic(9), cyclic(3)),
              heisenberg(3), modular_p3(3)]
    pairs = 0
    for G in corpus:
        p = 2 if G.order % 2 == 0 else 3
        lat = p_subgroups(G, p)
        for entry in real_representation_basis(G):
            tau = SuperClassFunction(lat, entry.fixed_dimension_vector(lat))
            report = check_borel_smith(tau)
            assert report.ok and report.monotone, (G.name, entry.realness)
            pairs += 1
    assert pairs >= 50
    print(f"\nACCEPTANCE 6 PASS: {pairs} (group, realified character) pairs "
          f"over {len(corpus)} p-groups all satisfy the Borel-Smith conditions")


def test_criterion_7_realization_round_trip():
    rng = random.Random(77)
    for G in (elementary_abelian(3, 2), heisenberg(3)):
        lat = p_subgroups(G, 3)
        basis = real_representation_basis(G)
        vecs = [e.fixed_dimension_vector(lat) for e in basis]
        for _ in range(20):
            coeffs = [rng.randrange(0, 4) for _ in basis]
            if not any(coeffs):
                coeffs[rng.randrange(len(coeffs))] = 1
            tau = SuperClassFunction(lat, tuple(
                sum(c * v[i] for c, v in zip(coeffs, vecs))
                for i in range(lat.n_classes)))
            sol, refutation = realize_as_representation(tau, basis)
            assert sol is not None and refutation is None
            rebuilt = [0] * lat.n_classes
            for idx, mult in sol.items():
                rebuilt = [r + mult * v for r, v in zip(rebuilt, vecs[idx])]
            assert tuple(rebuilt) == tau.values
    print("\nACCEPTANCE 7 PASS: 20 sampled cone functions per group on "
          "(Z/3)^2 and the extraspecial 3^3 realize and round-trip exactly")


def test_criterion_8_fix_rank_families():
    for p in (3, 5):
        for n in range(1, 11, 2):
            for lam in range(1, p):
                M = TwoRowModule(p=p, n=n, differential=(lam, (n + 1) // 2))
                assert fix_rank(M).rank == -1
    for n in range(0, 11):
        assert fix_rank(TwoRowModule(p=2, n=n, differential=(1, n + 1))).rank == -1
    for p in (2, 3, 5):
        for n in range(0, 21):
            assert fix_rank(TwoRowModule(p=p, n=n)).rank == n
    rotation = TwoRowModule(p=3, n=2, powers={1: (0, 1)})
    assert fix_rank(rotation).rank == 0
    base_rank = 0
    for m in (2, 3, 4):
        J = m_fold_join_model(rotation, m)
        assert fix_rank(J).rank == m * (base_rank + 1) - 1
    print("\nACCEPTANCE 8 PASS: nonsplit grid -> -1, trivial family -> n, "
          "rotation model -> 0, m-fold joins -> m(r+1)-1 for m <= 4")


def test_criterion_9_euler_multiplicativity():
    inv = invariants(3)
    for m in range(2, 5):
        joined = euler_join([inv.zeta] * m)
        assert joined == inv.zeta ** m
        assert non_nilpotent(joined)
    print("\nACCEPTANCE 9 PASS: e(join of m copies) = e^m for e = zeta at "
          "p=3, m <= 4, non-nilpotence certified exactly")


def test_criterion_10_randomized_property_suite():
    t0 = time.monotonic()
    p = 3
    rng = random.Random(1000)

    def rand_monomial(maxexp=8):
        return GradedElement(p, {(rng.randrange(maxexp), rng.randrange(maxexp),
                                  rng.randrange(2), rng.randrange(2)):
                                 rng.randrange(1, p)})

    def rand_element():
        e = GradedElement.zero(p)
        for _ in range(rng.randrange(1, 4)):
            e = e + rand_monomial()
        return e

    mats = [m for m in itertools.product(range(p), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % p == 1]

    for _ in range(1000):  # Cartan
        a, b, i = rand_monomial(), rand_monomial(), rng.randrange(0, 9)
        lhs = steenrod_power(i, a * b)
        rhs = GradedElement.zero(p)
        for j in range(i + 1):
            rhs = rhs + steenrod_power(j, a) * steenrod_power(i - j, b)
        assert lhs == rhs

    for _ in range(1000):  # instability and top power
        m = rand_monomial()
        d = m.degree()
        assert steenrod_power(d // 2 + 1 + rng.randrange(3), m).is_zero()
        if d % 2 == 0:
            assert steenrod_power(d // 2, m) == m ** p

    for _ in range(1000):  # beta^2 = 0
        assert bockstein(bockstein(rand_element())).is_zero()

    for _ in range(1000):  # sl2 homomorphism + commutation
        A = rng.choice(mats)
        B = rng.choice(mats)
        AB = (((A[0] * B[0] + A[1] * B[2]) % p, (A[0] * B[1] + A[1] * B[3]) % p),
              ((A[2] * B[0] + A[3] * B[2]) % p, (A[2] * B[1] + A[3] * B[3]) % p))
        A, B = (A[:2], A[2:]), (B[:2], B[2:])
        m = rand_monomial(5)
        assert sl2_act(A, sl2_act(B, m)) == sl2_act(AB, m)
        assert sl2_act(A, bockstein(m)) == bockstein(sl2_act(A, m))
        i = rng.randrange(0, 5)
        assert sl2_act(A, steenrod_power(i, m)) == steenrod_power(i, sl2_act(A, m))

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 10 PASS: 1000 randomized cases each for Cartan, "
          f"instability, beta^2, and the SL2 action, zero failures, {elapsed:.1f}s")
