"""Group core: construction, Sylow theory, lattices, conjugacy, quotients."""

import itertools
import random

import pytest

from qdp.dimfun import generation_by_order_p
from qdp.errors import MalformedInput, QdpError
from qdp.groups import (
    FiniteGroup,
    Subgroup,
    TableGroup,
    conjugacy_orbit,
    conjugate_subgroup,
    construct_qdp,
    generating_set,
    greedy_generators,
    group_from_json,
    is_conjugate,
    is_normal_in,
    p_subgroups,
    qdp_generators,
    qdp_sylow_center,
    qdp_sylow_matrices,
    subgroup_closure,
    subgroups_of_p_group,
    sylow_p_subgroup,
    whole_group,
)
from fixtures import (
    center,
    cyclic,
    cyclic_subgroups,
    dihedral,
    direct_product,
    elementary_abelian,
    from_elements,
    generalized_quaternion,
    generic_generation_by_order_p,
    heisenberg,
    modular_p3,
    quotient_group,
    relabelled,
)
from test_dimfun import reference_pairs


# ---------------------------------------------------------------------------
# independent oracles

def s4_permutation_group():
    perms = list(itertools.permutations(range(4)))
    compose = lambda a, b: tuple(a[b[i]] for i in range(4))
    return from_elements(perms, compose, name="S4")


def brute_force_p_subgroups(G, p):
    """Closures of all <=2-element sets of p-power-order elements, filtered
    to p-groups.  Complete for the groups used here: every p-subgroup of
    order up to p^3 with cyclic or rank-two Frattini quotient is
    2-generated."""
    pel = [a for a in G.elements() if _is_ppower(G.element_order(a), p)]
    found = {(G.identity,)}
    for g in pel:
        found.add(subgroup_closure(G, [g]))
    for g, h in itertools.combinations(pel, 2):
        cl = subgroup_closure(G, [g, h])
        if _is_ppower(len(cl), p):
            found.add(cl)
    return found


def saturation_generators(G, candidates):
    """The greedy generator loop with each closure re-saturated from the
    identity by right multiplication with the kept generators."""
    gens, closure = [], {G.identity}
    for a in candidates:
        if a in closure:
            continue
        gens.append(a)
        closure, frontier = {G.identity}, [G.identity]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = G.mul(x, g)
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        if len(closure) == G.order:
            break
    return gens, closure


def is_subgroup(G, members):
    s = set(members)
    if G.identity not in s:
        return False
    return all(G.mul(a, b) in s for a in s for b in s)


def _is_ppower(n, p):
    while n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------------------

def test_qdp_orders():
    assert construct_qdp(2).order == 24
    assert construct_qdp(3).order == 216  # 9 * |SL2(3)| = 9 * 24
    assert construct_qdp(5).order == 3000


def test_qdp_rejects_composite():
    with pytest.raises(QdpError, match="^1 is not prime$"):
        construct_qdp(1)
    with pytest.raises(QdpError, match="^4 is not prime$"):
        construct_qdp(4)


def test_qdp_size_guard():
    with pytest.raises(QdpError, match=r"^\|Qd\(7\)\| = 16464 exceeds the guard 5000; "):
        construct_qdp(7)  # order 16464
    assert construct_qdp(7, max_order=20000).order == 16464


def test_qd2_is_symmetric_group_s4():
    G = construct_qdp(2)
    s4 = s4_permutation_group()
    stats = lambda g: sorted(g.element_order(a) for a in g.elements())
    assert stats(G) == stats(s4)
    # a surjection from the (2,4,3) presentation of S4 pins the type:
    # find a, b with a^2 = b^4 = (ab)^3 = e generating G
    found = False
    for a in G.elements():
        if G.element_order(a) != 2:
            continue
        for b in G.elements():
            if G.element_order(b) != 4 or G.element_order(G.mul(a, b)) != 3:
                continue
            if len(subgroup_closure(G, [a, b])) == 24:
                found = True
                break
        if found:
            break
    assert found


def test_group_axioms_exhaustive():
    for G in (construct_qdp(2), cyclic(9), heisenberg(3), dihedral(4),
              generalized_quaternion(8)):
        G.check_axioms()


def test_group_axioms_reject_non_associative_table():
    # identity 0, every element its own inverse, but (1*1)*2 = 2 != 1 = 1*(1*2)
    G = TableGroup([[0, 1, 2], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(MalformedInput, match="associativity"):
        G.check_axioms()


def test_qdp_multiplication_rule():
    # (v, A)(w, B) = (v + Aw, AB)
    G = construct_qdp(3)
    a = G.element((1, 0), (1, 1, 0, 1))
    b = G.element((0, 1), (1, 0, 1, 1))
    v, m = G.parts(G.mul(a, b))
    # A w = [[1,1],[0,1]] (0,1) = (1,1); v + Aw = (2,1); AB = [[2,1],[1,1]]
    assert v == (2, 1)
    assert m == (2, 1, 1, 1)


def test_qdp_product_matches_explicit_formula():
    # (v, A)(w, B) = (v + Aw, AB) and (v, A)^-1 = (-A^-1 v, A^-1) on every
    # matrix pair at p = 3 (with seeded vectors), and on a seeded sample of
    # elements at p = 5, 7, 11 and 13
    rng = random.Random(11)
    for p in (3, 5, 7, 11, 13):
        G = construct_qdp(p, max_order=400000)
        n = G.nmat
        vec = lambda: rng.randrange(p * p) * n
        if p == 3:
            pairs = [(vec() + i, vec() + j)
                     for i, j in itertools.product(range(n), repeat=2)]
        else:
            pairs = [(rng.randrange(G.order), rng.randrange(G.order))
                     for _ in range(500)]
        for x, y in pairs:
            (v0, v1), (a, b, c, d) = G.parts(x)
            (w0, w1), (e, f, g, h) = G.parts(y)
            vec_part = ((v0 + a * w0 + b * w1) % p, (v1 + c * w0 + d * w1) % p)
            mat_part = ((a * e + b * g) % p, (a * f + b * h) % p,
                        (c * e + d * g) % p, (c * f + d * h) % p)
            assert G.parts(G.mul(x, y)) == (vec_part, mat_part)
            inv_vec = ((b * v1 - d * v0) % p, (c * v0 - a * v1) % p)
            inv_mat = (d, -b % p, -c % p, a)
            assert G.parts(G.inv(x)) == (inv_vec, inv_mat)
            assert G.mul(x, G.inv(x)) == G.identity


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_qdp_numbering_matches_sorted_filter(p):
    # the matrix numbering is every 4-tuple over Z/p with determinant 1, in
    # lexicographic order; `parts` decodes the index arithmetically
    mats = sorted(m for m in itertools.product(range(p), repeat=4)
                  if (m[0] * m[3] - m[1] * m[2]) % p == 1)
    G = construct_qdp(p, max_order=400000)
    assert [G.parts(m)[1] for m in range(G.nmat)] == mats and G.nmat == p ** 3 - p
    assert G.identity == mats.index((1, 0, 0, 1))
    rng = random.Random(p)
    for m, A in enumerate(mats):
        v = (rng.randrange(p), rng.randrange(p))
        a = G.element(v, A)
        assert a == (v[0] * p + v[1]) * G.nmat + m
        assert G.parts(a) == (v, A)
        assert G.describe(a) == f"({v[0]},{v[1]})|[{A[0]},{A[1]};{A[2]},{A[3]}]"
    with pytest.raises(QdpError, match=rf"^det \(1, 0, 0, {2 % p}\) != 1 mod {p}$"):
        G.element((0, 0), (1, 0, 0, 2 % p))


def test_json_round_trip():
    G = construct_qdp(3)
    assert group_from_json(G.to_json()).order == 216
    H = cyclic(6)
    K = group_from_json(H.to_json())
    assert K.order == 6 and K.mul(1, 5) == H.mul(1, 5)


@pytest.mark.parametrize("mul, message", [
    ([[0, 1], [1, 1.0]], "table entry must be an integer, got 1.0"),
    ([[0, True], [True, 0]], "table entry must be an integer, got True"),
    ([[0, 1], [1, "0"]], "table entry must be an integer, got '0'"),
    ([[0, 1, 2], [1, "x", 2.5], [2, 0, None]], "table entry must be an integer, got 'x'"),
    ([[0, 1], [1, 2]], "table entries must be indices 0..n-1"),
    ([[0, 1], [1, -1]], "table entries must be indices 0..n-1"),
    ([[0, 1], [1]], "multiplication table must be square"),
    ([], "table has no two-sided identity"),
    # 1 * 2 = 0 but 2 * 1 = 2: a right inverse only
    ([[0, 1, 2], [1, 1, 0], [2, 2, 2]], "element 1 has no two-sided inverse"),
    ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], "associativity fails at a = 1, g = 1"),
], ids=["float", "bool", "string", "first-offending-entry", "too-large", "negative",
        "not-square", "empty", "one-sided-inverse", "non-associative"])
def test_table_json_is_rejected_with_its_message(mul, message):
    with pytest.raises(MalformedInput) as info:
        group_from_json({"kind": "table", "mul": mul})
    assert str(info.value) == message


def test_table_inverse_is_the_first_two_sided_one():
    # 1 * 2 = 0 = 1 * 3, but only 3 * 1 = 0: the first right inverse of 1
    # is one-sided, and the scan finds the two-sided one after it
    rows = [[0, 1, 2, 3], [1, 2, 0, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    G = TableGroup(rows)
    assert [G.inv(a) for a in range(4)] == [
        next(b for b in range(4) if rows[a][b] == 0 and rows[b][a] == 0) for a in range(4)]
    assert G.inv(1) == 3
    with pytest.raises(MalformedInput, match="associativity"):
        G.check_axioms()


def test_table_axioms_read_the_stored_rows(monkeypatch):
    # past the generating set, Light's test and the identity and inverse
    # checks run on the table itself: no product goes through mul
    G = heisenberg(5)
    gens = generating_set(G)
    monkeypatch.setattr("qdp.groups.generating_set", lambda H: gens)
    monkeypatch.setattr(TableGroup, "mul", lambda self, a, b: pytest.fail("mul called"))
    G.check_axioms()


def test_coset_closure_matches_saturation_on_qdp():
    for p in (3, 5, 7):
        G = construct_qdp(p, max_order=20000)
        order_p = [a for a in G.elements() if G.element_order(a) == p]
        for candidates in (G.elements(), order_p):
            gens, closure = greedy_generators(G, candidates)
            assert (gens, closure) == saturation_generators(G, candidates)
            assert subgroup_closure(G, gens) == tuple(sorted(closure))
        assert subgroup_closure(G, generating_set(G)) == tuple(G.elements())


def test_coset_closure_matches_saturation_on_tables():
    rng = random.Random(5)
    for G in (elementary_abelian(3, 3), heisenberg(3), modular_p3(3),
              heisenberg(5), direct_product(cyclic(4), cyclic(3))):
        assert greedy_generators(G, G.elements()) == \
            saturation_generators(G, G.elements())
        # proper subgroups too: closures of seeded pairs and triples
        for size in (1, 2, 3):
            for _ in range(40):
                gens = [rng.randrange(G.order) for _ in range(size)]
                kept, closure = saturation_generators(G, gens)
                assert greedy_generators(G, gens) == (kept, closure)
                assert subgroup_closure(G, gens) == tuple(sorted(closure))


def test_cyclic_closure_costs_its_order():
    G = construct_qdp(5)
    calls = [0]
    mul = G.mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    G.mul = counted
    for g in random.Random(3).sample(range(G.order), 60):
        calls[0] = 0
        members = subgroup_closure(G, [g])
        assert calls[0] <= len(members) == G.element_order(g)


def test_sylow_subgroup_orders():
    assert sylow_p_subgroup(construct_qdp(3), 3).order == 27
    assert sylow_p_subgroup(construct_qdp(2), 2).order == 8
    G = cyclic(5)
    assert sylow_p_subgroup(G, 5).members == tuple(range(5))
    mixed = direct_product(cyclic(4), cyclic(3))
    assert sylow_p_subgroup(mixed, 2).order == 4
    assert sylow_p_subgroup(mixed, 3).order == 3


def test_sylow_is_a_subgroup():
    for p in (2, 3, 5):
        G = construct_qdp(p)
        P = sylow_p_subgroup(G, p)
        assert is_subgroup(G, P.members)


@pytest.mark.parametrize("swap", ["noncentral", "abelian"])
def test_qdp_sylow_center_checks_both_facts(monkeypatch, swap):
    # with u- among P's generators (z, I) does not commute with all three;
    # with e2 for m0 they all commute, and P is not shown to be nonabelian
    import qdp.groups
    real = qdp.groups.qdp_sylow_generators

    def swapped(G):
        m0, e1, e2 = real(G)
        um = G.element((0, 0), (1, 0, 1, 1))
        return [m0, e1, um] if swap == "noncentral" else [e2, e1, e2]

    monkeypatch.setattr(qdp.groups, "qdp_sylow_generators", swapped)
    for p in (3, 5, 7):
        G = construct_qdp(p, max_order=p ** 3 * (p * p - 1))
        assert qdp_sylow_center(G)[1] is False


@pytest.mark.parametrize("mat", [(1, 0, 0, 1), (0, 1, -1, 0)], ids=["identity", "order-4"])
def test_qdp_sylow_refuses_m0_not_of_order_p(monkeypatch, mat):
    # P is listed as vectors times powers of m0, which needs m0 of order p
    import qdp.groups
    real = qdp.groups.qdp_sylow_generators
    monkeypatch.setattr(qdp.groups, "qdp_sylow_generators",
                        lambda G: [G.element((0, 0), mat)] + real(G)[1:])
    with pytest.raises(QdpError, match="does not have order 3"):
        qdp_sylow_matrices(construct_qdp(3))


def test_center_of_sylow():
    for p in (3, 5):
        G = construct_qdp(p)
        P = sylow_p_subgroup(G, p)
        Z = center(P)
        assert Z.order == p
        # exhaustive commutation oracle
        manual = [z for z in P.members
                  if all(G.mul(z, x) == G.mul(x, z) for x in P.members)]
        assert tuple(manual) == Z.members


def test_structural_route_agrees_with_generic():
    # the structural Qd(p) facts against the generic code: V x| <m0>
    # against the index-order Sylow scan, the center over all members, the
    # greedy closure of the generators and the element_order listing of the
    # order-p elements
    for p in (3, 5, 7, 11):
        G = construct_qdp(p, max_order=p ** 3 * (p * p - 1))
        P = sylow_p_subgroup(G, p)
        n = G.nmat
        assert P.members == tuple(sorted(v * n + m for v in range(p * p)
                                         for m in qdp_sylow_matrices(G)))
        Z = center(P)
        assert Z.members == tuple(z for z in P.members
                                  if all(G.mul(z, x) == G.mul(x, z) for x in P.members))
        assert qdp_sylow_center(G) == (Z, True)
        gens, generated = qdp_generators(G)
        assert generated and [G.element_order(g) for g in gens] == [p] * 3
        assert len(subgroup_closure(G, gens)) == G.order
        assert generation_by_order_p(G) == (gens, True)
        assert generic_generation_by_order_p(G, p)[0]


def test_qdp_generators_check_every_order(monkeypatch):
    # -u- has order 2p, and with u+ it still moves e1 over all of V minus 0
    import qdp.groups
    element = qdp.groups.QdpGroup.element

    def negated(G, v, mat):
        return element(G, v, (-1, 0, -1, -1) if tuple(mat) == (1, 0, 1, 1) else mat)

    monkeypatch.setattr(qdp.groups.QdpGroup, "element", negated)
    for p in (3, 5, 7):
        G = construct_qdp(p, max_order=p ** 3 * (p * p - 1))
        gens, generated = qdp_generators(G)
        assert G.element_order(gens[2]) == 2 * p and not generated


def test_center_of_abelian_group_is_itself():
    G = elementary_abelian(3, 2)
    H = whole_group(G)
    assert center(H).members == H.members


def test_sylow_of_qdp_is_extraspecial():
    # order p^3, exponent p, center of order p
    for p in (3, 5):
        G = construct_qdp(p)
        P = sylow_p_subgroup(G, p)
        assert P.order == p ** 3
        assert all(G.power(g, p) == G.identity for g in P.members)
        assert center(P).order == p


def test_elementary_abelian_subgroup_count():
    G = elementary_abelian(3, 2)
    subs = subgroups_of_p_group(whole_group(G))
    by_order = sorted(s.order for s in subs)
    assert by_order == [1] + [3] * 4 + [9]  # 1 + (p+1) + 1


def test_heisenberg_subgroup_census():
    P = whole_group(heisenberg(3))
    subs = subgroups_of_p_group(P)
    counts = {}
    for s in subs:
        counts[s.order] = counts.get(s.order, 0) + 1
    # (p^3 - 1)/(p - 1) = 13 cyclic of order p, p+1 = 4 of order p^2
    assert counts == {1: 1, 3: 13, 9: 4, 27: 1}


def test_cyclic_subgroups():
    assert len(cyclic_subgroups(whole_group(cyclic(3)))) == 2
    assert len(cyclic_subgroups(whole_group(cyclic(1)))) == 1
    subs = cyclic_subgroups(whole_group(heisenberg(3)))
    assert len(subs) == 1 + 13


@pytest.mark.parametrize("P", [
    sylow_p_subgroup(construct_qdp(3), 3), sylow_p_subgroup(construct_qdp(5), 5),
    whole_group(heisenberg(3)), whole_group(modular_p3(3)),
], ids=["Qd3-sylow", "Qd5-sylow", "H27", "M27"])
def test_cyclic_subgroups_match_per_member_closure(P):
    # reference: close every member separately
    closures = {subgroup_closure(P.group, [g]) for g in P.members}
    want = sorted(closures, key=lambda t: (len(t), t))
    assert [C.members for C in cyclic_subgroups(P)] == want


def all_pairs_is_normal(H, K):
    """Reference: conjugate every member of H by every member of K."""
    G = H.group
    hset = set(H.members)
    return all(G.mul(G.mul(k, h), G.inv(k)) in hset for k in K.members for h in H.members)


@pytest.mark.parametrize("G, abelian", [
    (heisenberg(3), False), (modular_p3(3), False), (elementary_abelian(3, 3), True),
    (dihedral(8), False),
], ids=["H27", "M27", "E27", "D16"])
def test_is_normal_in_matches_all_pairs(G, abelian):
    # in D16 a non-normal Klein four-group needs two generators
    subs = subgroups_of_p_group(whole_group(G))
    verdicts = set()
    for H in subs:
        for K in subs:
            want = all_pairs_is_normal(H, K)
            assert is_normal_in(H, K) == want, (H.members, K.members)
            verdicts.add(want)
    assert verdicts == ({True} if abelian else {True, False})


def test_p_subgroups_against_brute_force():
    for G, p in ((elementary_abelian(3, 2), 3),
                 (construct_qdp(3), 3),
                 (construct_qdp(2), 2)):
        lat = p_subgroups(G, p)
        ours = {S.members for cls in lat.classes for S in cls}
        oracle = brute_force_p_subgroups(G, p)
        assert ours == oracle


def test_lattice_of_p_groups_against_brute_force():
    # the extension search tests normality against generators only and
    # skips elements of extensions already found; all of these groups have
    # a rank-two Frattini quotient, so the brute force is complete
    for G, p in ((heisenberg(3), 3), (modular_p3(3), 3), (heisenberg(5), 5),
                 (generalized_quaternion(16), 2), (dihedral(8), 2)):
        ours = {S.members for S in subgroups_of_p_group(whole_group(G))}
        assert ours == brute_force_p_subgroups(G, p), G.name


@pytest.mark.parametrize("G", [heisenberg(3), modular_p3(3), generalized_quaternion(16),
                               dihedral(8), direct_product(dihedral(4), cyclic(2))],
                         ids=lambda G: G.name)
def test_lattice_keeps_every_index_p_pair(G):
    # `maximal` holds exactly the listed subgroups of index p, each as the
    # listed object
    subs = subgroups_of_p_group(whole_group(G))
    p = min(q for q in (2, 3) if G.order % q == 0)
    listed = {id(S) for S in subs}
    for S in subs:
        want = {T.members for T in subs
                if T.order * p == S.order and T.member_set <= S.member_set}
        assert {T.members for T in S.maximal} == want and len(S.maximal) == len(want)
        assert all(id(T) in listed for T in S.maximal)


@pytest.mark.parametrize("G", [elementary_abelian(3, 2), heisenberg(3), modular_p3(3),
                               elementary_abelian(5, 2)], ids=lambda G: G.name)
def test_row_kernel_agrees_with_products(G):
    # TableGroup gathers translates and conjugates from its rows; on a
    # relabelled table they are the products the generic kernel forms
    copy, _ = relabelled(G, G.name)
    rng = random.Random(G.name)
    for _ in range(60):
        g, h = rng.randrange(copy.order), rng.randrange(copy.order)
        xs = [rng.randrange(copy.order) for _ in range(rng.randrange(2 * copy.order))]
        gi = copy.inv(g)
        assert copy.translate(g, xs) == FiniteGroup.translate(copy, g, xs) == \
            [copy.mul(g, x) for x in xs]
        assert copy.translate(g, xs, gi) == FiniteGroup.translate(copy, g, xs, gi) == \
            [copy.mul(copy.mul(g, x), gi) for x in xs]
        assert copy.translate(g, xs, h) == FiniteGroup.translate(copy, g, xs, h)


@pytest.mark.parametrize("order, p, message", [
    (3, 1, "1 is not prime"),
    (3, -3, "-3 is not prime"),
    (3, 9, "9 does not divide |G| = 3"),
    (9, 9, "9 is not prime"),
])
def test_sylow_checks_divisibility_before_primality(order, p, message):
    # a p that does not divide |G| needs no trial division, and one that
    # does is at most |G| (test_cli runs a huge prime under a timeout)
    with pytest.raises(QdpError) as info:
        sylow_p_subgroup(cyclic(order), p)
    assert str(info.value) == message


def test_subgroup_search_powers_each_member_once(monkeypatch):
    # g^p depends on g alone: one power per member of H(5), not one per
    # (frontier subgroup, member) pair
    G = heisenberg(5)
    calls, power = [], G.power

    def counted(a, k):
        calls.append((a, k))
        return power(a, k)

    monkeypatch.setattr(G, "power", counted)
    ours = {S.members for S in subgroups_of_p_group(whole_group(G))}
    assert sorted(calls) == [(a, 5) for a in G.elements()]
    assert ours == brute_force_p_subgroups(G, 5)


def test_p_subgroups_matches_s4_enumeration():
    lat = p_subgroups(construct_qdp(2), 2)
    s4 = s4_permutation_group()
    oracle = brute_force_p_subgroups(s4, 2)
    ours_sizes = sorted(S.order for cls in lat.classes for S in cls)
    oracle_sizes = sorted(len(t) for t in oracle)
    assert ours_sizes == oracle_sizes
    # class sizes as multisets must agree as well
    lat4 = p_subgroups(s4, 2)
    assert sorted(len(c) for c in lat.classes) == sorted(len(c) for c in lat4.classes)


def test_p_subgroups_closure_properties():
    G = construct_qdp(3)
    lat = p_subgroups(G, 3)
    all_members = {S.members for cls in lat.classes for S in cls}
    gens = [1, G.order // 2, G.order - 1]
    for cls in lat.classes:
        S = cls[0]
        for g in gens:
            assert conjugate_subgroup(G, g, S).members in all_members
        for T in subgroups_of_p_group(S):
            assert T.members in all_members


def test_is_conjugate_witness_and_symmetry():
    G = construct_qdp(3)
    P = sylow_p_subgroup(G, 3)
    Z = center(P)
    assert is_conjugate(G, Z, Z) == G.identity
    others = [C for C in cyclic_subgroups(P) if C.order == 3 and C != Z]
    hits = [(C, is_conjugate(G, Z, C)) for C in others]
    hits = [(C, g) for C, g in hits if g is not None]
    assert hits, "the Sylow center must fuse to a non-central cyclic subgroup"
    C, g = hits[0]
    assert conjugate_subgroup(G, g, Z) == C
    back = is_conjugate(G, C, Z)
    assert back is not None and conjugate_subgroup(G, back, C) == Z


def test_is_conjugate_orders_differ():
    G = cyclic(9)
    H = Subgroup(G, (0, 3, 6))
    K = whole_group(G)
    assert is_conjugate(G, H, K) is None


def tagged_pairs(P):
    """(H, K, kind of K/H) over the normal pairs the Borel-Smith conditions
    inspect, classified by the quotient tables of the test reference."""
    p = next(q for q in range(2, P.order + 1) if P.order % q == 0)
    return reference_pairs(subgroups_of_p_group(P), p)


def test_quotient_tags_elementary_and_cyclic():
    V = whole_group(elementary_abelian(3, 2))
    pairs = tagged_pairs(V)
    tags = {(h.order, k.order): kind for h, k, kind in pairs}
    assert tags[(1, 9)] == "elementary_abelian_rank2"
    assert tags[(1, 3)] == "cyclic_p"
    assert tags[(3, 9)] == "cyclic_p"

    Z9 = whole_group(cyclic(9))
    tags9 = {(h.order, k.order): kind for h, k, kind in tagged_pairs(Z9)}
    assert tags9[(1, 9)] == "other"  # cyclic of order p^2
    assert tags9[(1, 3)] == "cyclic_p"


def test_quotient_tag_quaternion():
    Q8 = whole_group(generalized_quaternion(8))
    pairs = tagged_pairs(Q8)
    kind = next(kind for h, k, kind in pairs if h.order == 1 and k.order == 8)
    assert kind == "generalized_quaternion"
    # oracle: exactly one involution
    G = generalized_quaternion(8)
    assert sum(1 for a in G.elements() if G.element_order(a) == 2) == 1

    Q16 = whole_group(generalized_quaternion(16))
    kinds = {kind for h, k, kind in tagged_pairs(Q16)
             if h.order == 1 and k.order == 16}
    assert kinds == {"generalized_quaternion"}

    D8 = whole_group(dihedral(4))
    kinds = {kind for h, k, kind in tagged_pairs(D8)
             if h.order == 1 and k.order == 8}
    assert kinds == {"other"}


def test_cyclic4_tag():
    Z4 = whole_group(cyclic(4))
    tags = {(h.order, k.order): kind for h, k, kind in tagged_pairs(Z4)}
    assert tags[(1, 4)] == "cyclic4"
    V4 = whole_group(elementary_abelian(2, 2))
    tags = {(h.order, k.order): kind for h, k, kind in tagged_pairs(V4)}
    assert tags[(1, 4)] == "elementary_abelian_rank2"


def test_conjugation_preserves_tags():
    G = construct_qdp(3)
    P = sylow_p_subgroup(G, 3)
    pairs = tagged_pairs(P)
    g = 17  # arbitrary element
    Pg = conjugate_subgroup(G, g, P)
    pairs_g = tagged_pairs(Pg)
    mine = sorted((h.order, k.order, kind) for h, k, kind in pairs)
    theirs = sorted((h.order, k.order, kind) for h, k, kind in pairs_g)
    assert mine == theirs


def test_quotient_group_of_heisenberg_center():
    G = heisenberg(3)
    P = whole_group(G)
    Z = center(P)
    Q, coset_of = quotient_group(P, Z)
    assert Q.order == 9
    assert all(Q.mul(a, b) == Q.mul(b, a) for a in Q.elements() for b in Q.elements())
    assert all(Q.element_order(a) in (1, 3) for a in Q.elements())


def test_modular_p3_has_exponent_p_squared():
    G = modular_p3(3)
    assert G.order == 27
    assert max(G.element_order(a) for a in G.elements()) == 9
    assert center(whole_group(G)).order == 3
