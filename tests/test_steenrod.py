"""Graded algebra, power operations, invariants, ideals, and the
product-of-spheres driver."""

import itertools
import json
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import qdp.steenrod as steenrod
from qdp.cli import EXIT_DOMAIN, main
from qdp.errors import BudgetError, MalformedInput, QdpError
from qdp.steenrod import (
    GradedElement,
    IdealHandle,
    RankOneElement,
    _lucas_range,
    binom_mod,
    bockstein,
    ZetaPropositionResult,
    brute_force_zeta_proposition,
    invariants,
    is_steenrod_closed,
    quotient_finite_dimensional,
    rank_one_bockstein,
    rank_one_monomial_from_string,
    rank_one_monomial_to_string,
    rank_one_power,
    steenrod_power,
    theorem_C_driver,
)
from fixtures import sl2_act

P = 3

x = GradedElement.monomial(P, 1, 0)
y = GradedElement.monomial(P, 0, 1)
u = GradedElement.monomial(P, 0, 0, 1, 0)
v = GradedElement.monomial(P, 0, 0, 0, 1)


def monomials(p=P, max_exp=6):
    return st.builds(
        lambda a, b, eu, ev, c: GradedElement(p, {(a, b, eu, ev): c}),
        st.integers(0, max_exp), st.integers(0, max_exp),
        st.integers(0, 1), st.integers(0, 1), st.integers(1, p - 1))


def elements(p=P):
    return st.lists(monomials(p), min_size=0, max_size=4).map(
        lambda ms: sum(ms, GradedElement.zero(p)))


def sl2_matrices(p=P):
    mats = [m for m in itertools.product(range(p), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % p == 1]
    return st.sampled_from([((m[0], m[1]), (m[2], m[3])) for m in mats])


# ---------------------------------------------------------------------------
# sympy oracle for the SL2 substitution action on the polynomial part

def sympy_substitute(elem, mat, p):
    xs, ys = sympy.symbols("xs ys")
    a, b = mat[0]
    c, d = mat[1]
    out = sympy.Integer(0)
    for (ea, eb, eu, ev), co in elem.terms.items():
        assert not eu and not ev
        out += co * (a * xs + c * ys) ** ea * (b * xs + d * ys) ** eb
    return sympy.Poly(sympy.expand(out), xs, ys).set_modulus(p)


def as_sympy(elem, p):
    xs, ys = sympy.symbols("xs ys")
    out = sympy.Integer(0)
    for (ea, eb, eu, ev), co in elem.terms.items():
        out += co * xs ** ea * ys ** eb
    return sympy.Poly(out, xs, ys).set_modulus(p)


# ---------------------------------------------------------------------------
# ring structure

def test_koszul_signs():
    uv = u * v
    assert v * u == -1 * uv
    assert (u * u).is_zero() and (v * v).is_zero()
    assert (x + y) * (x - y) == x * x - y * y


def test_degrees():
    assert (x * y * u).degree() == 5
    assert GradedElement.one(P).degree() == 0
    with pytest.raises(QdpError, match=r"^degrees \[1, 2\] present$"):
        (x + u).degree()


@given(monomials(), monomials())
def test_sign_rule_on_monomials(m1, m2):
    prod = m1 * m2
    swap = m2 * m1
    ((a1, b1, e1, f1),) = m1.terms.keys()
    ((a2, b2, e2, f2),) = m2.terms.keys()
    sign = (-1) ** ((e1 + f1) * (e2 + f2))
    assert swap == sign * prod or (prod.is_zero() and swap.is_zero())


@given(elements(), st.integers(0, 6))
@settings(max_examples=60)
def test_power_is_repeated_product(e, k):
    prod = GradedElement.one(P)
    for _ in range(k):
        prod = prod * e
    assert e ** k == prod


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_binomial_power_is_repeated_product(p):
    """Two-term polynomial bases take the binomial route, in both algebras;
    the rest (an exterior term, three terms) keep binary powering."""
    gx, gy = GradedElement.monomial(p, 1, 0), GradedElement.monomial(p, 0, 1)
    gu = GradedElement.monomial(p, 0, 0, 1, 0)
    t = RankOneElement.monomial(p, 0, 1)
    bases = [gx + gy, 2 * gx * gy ** p - gx ** p * gy, gx ** 3 + (p - 1) * gy ** 2,
             t + RankOneElement.monomial(p, 0, -2, 3), gx + gu, gx + gy + gx * gy]
    for base in bases:
        prod = base.one(p)
        for k in range(2 * p + 3):
            assert base ** k == prod, (base.terms, k)
            prod = prod * base


def test_negative_power_rejected():
    with pytest.raises(MalformedInput):
        x ** -1


# ---------------------------------------------------------------------------
# Bockstein

def test_bockstein_on_generators():
    assert bockstein(u) == x
    assert bockstein(v) == y
    assert bockstein(x).is_zero() and bockstein(y).is_zero()
    assert bockstein(u * x) == x * x
    assert bockstein(u * v) == x * v - u * y


@given(elements())
def test_bockstein_squared_is_zero(e):
    assert bockstein(bockstein(e)).is_zero()


@given(monomials(), elements())
def test_bockstein_leibniz(m, e):
    lhs = bockstein(m * e)
    sign = -1 if m.degree() % 2 else 1
    rhs = bockstein(m) * e + sign * (m * bockstein(e))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# power operations

def test_power_on_generators():
    assert steenrod_power(0, x) == x
    assert steenrod_power(1, x) == x ** P
    assert steenrod_power(2, x).is_zero()
    assert steenrod_power(1, u).is_zero()
    assert steenrod_power(1, v).is_zero()


def test_power_rejects_p2():
    with pytest.raises(QdpError, match="^power operations here are odd-primary; "):
        steenrod_power(1, GradedElement.monomial(2, 1, 0))


@given(monomials(), monomials(), st.integers(0, 8))
@settings(max_examples=150)
def test_cartan_formula(m1, m2, i):
    lhs = steenrod_power(i, m1 * m2)
    rhs = GradedElement.zero(P)
    for j in range(i + 1):
        rhs = rhs + steenrod_power(j, m1) * steenrod_power(i - j, m2)
    assert lhs == rhs


@given(monomials())
def test_instability(m):
    d = m.degree()
    assert steenrod_power(d // 2 + 1, m).is_zero()
    if d % 2 == 0:
        assert steenrod_power(d // 2, m) == m ** P


# ---------------------------------------------------------------------------
# SL2 action

def test_sl2_rejects_non_unimodular():
    with pytest.raises(QdpError, match=r"^det \(\(1, 0\), \(0, 2\)\) != 1 mod 3$"):
        sl2_act(((1, 0), (0, 2)), x)  # det = 2 != 1 mod 3


def test_sl2_identity_and_substitution_oracle():
    ident = ((1, 0), (0, 1))
    inv = invariants(P)
    assert sl2_act(ident, inv.zeta) == inv.zeta
    for mat in (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 2), (1, 0))):
        for elem in (inv.zeta, inv.xi, x * x + y * y):
            ours = sl2_act(mat, elem)
            assert as_sympy(ours, P) == sympy_substitute(elem, mat, P)


@given(sl2_matrices(), sl2_matrices(), monomials())
@settings(max_examples=100)
def test_sl2_homomorphism(A, B, m):
    AB = tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2)) % P
                     for j in range(2)) for i in range(2))
    assert sl2_act(A, sl2_act(B, m)) == sl2_act(AB, m)


@given(sl2_matrices(), monomials(), st.integers(0, 5))
@settings(max_examples=100)
def test_sl2_commutes_with_operations(A, m, i):
    assert sl2_act(A, bockstein(m)) == bockstein(sl2_act(A, m))
    assert sl2_act(A, steenrod_power(i, m)) == steenrod_power(i, sl2_act(A, m))


# ---------------------------------------------------------------------------
# invariants

def test_invariant_degrees():
    for p, dxi, dzeta in ((3, 12, 8), (5, 40, 12)):
        inv = invariants(p)
        assert inv.xi.degree() == dxi
        assert inv.zeta.degree() == dzeta


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_invariants_are_fixed_by_the_unipotent_generators(p):
    # the substitution check `invariants` ran before the Frobenius argument
    # replaced it; u+ and u- generate SL2(p)
    inv = invariants(p)
    for g in (((1, 1), (0, 1)), ((1, 0), (1, 1))):
        assert sl2_act(g, inv.xi) == inv.xi
        assert sl2_act(g, inv.zeta) == inv.zeta


@pytest.mark.parametrize("p", [3, 5, 7])
def test_corrupted_xi_is_a_domain_error(capsys, monkeypatch, p):
    forms = steenrod._invariant_forms
    for m in sorted(forms(p)[0].terms):
        def corrupted(q, m=m):
            xi, zeta = forms(q)
            return xi + GradedElement(q, {m: 1}), zeta

        monkeypatch.setattr(steenrod, "_invariant_forms", corrupted)
        with pytest.raises(QdpError, match="xi \\* zeta"):
            invariants(p)
        assert main(["steenrod-check", "--p", str(p)]) == EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error: ")


def test_p1_identities():
    for p in (3, 5):
        inv = invariants(p)
        assert steenrod_power(1, inv.zeta).is_zero()
        assert steenrod_power(1, inv.xi) == inv.zeta ** (p - 1)


# ---------------------------------------------------------------------------
# ideals

def test_ideal_membership_basics():
    inv = invariants(P)
    t1 = inv.zeta
    t2 = inv.xi
    ideal = IdealHandle([t1, t2])
    assert ideal.contains(t1)
    assert ideal.contains(t1 * x * y)
    assert IdealHandle([inv.zeta]).contains(inv.zeta ** 3)
    unit = IdealHandle([GradedElement.one(P)])
    assert unit.contains(GradedElement.one(P))
    assert not ideal.contains(GradedElement.one(P))
    with pytest.raises(QdpError, match=r"^degrees \[0, 2\] present$"):
        ideal.contains(x + GradedElement.one(P))


def test_ideal_membership_with_exterior_generators():
    # ideals live in F_p[x, y]: an exterior part is malformed input
    with pytest.raises(MalformedInput):
        IdealHandle([x * x, u * x - v * y])
    ideal = IdealHandle([x])
    with pytest.raises(MalformedInput):
        ideal.contains(u * x * y)
    assert ideal.contains(u * x - u * x)  # zero lies in every ideal


def test_steenrod_closure_zeta_powers():
    for p, powers in ((3, (1, 2, 3, 4, 5)), (5, (1, 2, 3))):
        inv = invariants(p)
        for s in powers:
            closed, witness = is_steenrod_closed(IdealHandle([inv.zeta ** s]))
            assert closed and witness is None


def test_steenrod_closure_xi_fails():
    for p in (3, 5):
        inv = invariants(p)
        closed, witness = is_steenrod_closed(IdealHandle([inv.xi]))
        assert not closed and witness == (0, "P1")
        closed, _ = is_steenrod_closed(IdealHandle([inv.xi * inv.zeta]))
        assert not closed


def test_steenrod_closure_fails_at_lowest_degree():
    # P^1 on every generator, then P^p, ...: xi^3 fails at P^1 before any
    # higher power of zeta^10 is tested
    inv = invariants(5)
    ideal = IdealHandle([inv.zeta ** 10, inv.xi ** 3])
    degrees = []
    contains = ideal.contains
    ideal.contains = lambda e: degrees.append(e.degree()) or contains(e)
    closed, witness = is_steenrod_closed(ideal)
    assert not closed and witness == (1, "P1")
    assert max(degrees) == 120 + 2 * (5 - 1)


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _polynomial_monomials(d):
    """The monomials x^a y^b of degree d = 2(a + b)."""
    return [(a, d // 2 - a, 0, 0) for a in range(d // 2, -1, -1)]


def _random_homogeneous(rng, p, d):
    return GradedElement(p, {m: rng.randrange(p) for m in _polynomial_monomials(d)
                             if rng.random() < 0.6})


def dense_contains(gens, elem):
    """Dense-rank oracle: elem lies in the ideal iff appending it to the
    rows monomial * generator of its degree leaves their rank unchanged."""
    p, d = elem.p, elem.degree()
    basis = _polynomial_monomials(d)
    col = {m: i for i, m in enumerate(basis)}

    def vec(e):
        out = [0] * len(basis)
        for m, c in e.terms.items():
            out[col[m]] = c
        return out

    rows = [vec(GradedElement.monomial(p, *m) * g) for g in gens
            if g.degree() <= d for m in _polynomial_monomials(d - g.degree())]
    return _rank_mod_p(rows, p) == _rank_mod_p(rows + [vec(elem)], p)


def test_ideal_contains_matches_dense_rank():
    rng = random.Random(20261018)
    seen = set()
    for trial in range(160):
        p = (3, 5)[trial % 2]
        ngens, gens = rng.randint(1, 3), []
        while len(gens) < ngens:
            g = _random_homogeneous(rng, p, rng.randint(1, 4) * 2)
            if not g.is_zero():
                gens.append(g)
        ideal = IdealHandle(gens)
        d = max(g.degree() for g in gens) + 2 * rng.randint(0, 3)
        if rng.random() < 0.5:
            elem = _random_homogeneous(rng, p, d)
        else:
            elem = GradedElement.zero(p)
            for g in gens:
                if g.degree() <= d:
                    elem = elem + g * _random_homogeneous(rng, p, d - g.degree())
        expected = elem.is_zero() or dense_contains(gens, elem)
        assert ideal.contains(elem) == expected, (p, gens, elem)
        seen.add((expected, elem.is_zero()))
    assert {(True, False), (False, False)} <= seen


def reference_echelon(rows, p):
    """Row echelon basis over F_p of the span of the rows, as (lead, row)
    pairs sorted by lead, each row monic at its lead; a row is reduced only
    against the pivot sharing its current lead."""
    pivots = {}
    for row in rows:
        row = [x % p for x in row]
        lead = next((i for i, x in enumerate(row) if x), None)
        while lead is not None and lead in pivots:
            f = row[lead]
            row = [(a - f * b) % p for a, b in zip(row, pivots[lead])]
            lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            pivots[lead] = [(x * inv) % p for x in row]
    return sorted(pivots.items())


# the dense degreewise basis, kept as a test-only reference for the
# windowed one: every shift x^j * g as a full row of m + 1 entries

def reference_poly_basis(gens, m, p):
    rows = []
    for g in gens:
        t = g.degree() // 2
        if t > m:
            continue
        for j in range(m - t + 1):
            vec = [0] * (m + 1)
            for (a, b, _, _), c in g.terms.items():
                vec[a + j] = (vec[a + j] + c) % p
            rows.append(vec)  # x^j * g, coefficient of x^(a+j) y^(m-a-j)
    return reference_echelon(rows, p)


def reference_reduce_vector(vec, basis, p):
    vec = [x % p for x in vec]
    for lead, row in basis:
        f = vec[lead]
        if f:
            vec[lead:] = [(a - f * b) % p for a, b in zip(vec[lead:], row[lead:])]
    return vec


def _random_ideal_generators(rng, p):
    """1-4 nonzero generators of mixed half-degrees 0..6, sometimes with a
    repeated generator or a multiple of another, so that shifts collide."""
    gens, n = [], rng.randint(1, 4)
    while len(gens) < n:
        kind = rng.random()
        if gens and kind < 0.2:
            g = rng.choice(gens)
        elif gens and kind < 0.4:
            g = rng.choice(gens) * _random_homogeneous(rng, p, 2 * rng.randint(0, 2))
        else:
            g = _random_homogeneous(rng, p, 2 * rng.randint(0, 6))
        if not g.is_zero():
            gens.append(g)
    return gens


def test_windowed_basis_matches_dense_reference():
    rng = random.Random(16)
    repeats = set()
    for trial in range(150):
        p = (3, 5, 7)[trial % 3]
        gens = _random_ideal_generators(rng, p)
        ideal = IdealHandle(gens)
        shapes = [(g.degree(), tuple(sorted(g.terms.items()))) for g in gens]
        repeats.add(len(set(shapes)) < len(shapes))
        low = min(g.degree() // 2 for g in gens)
        for m in range(low, max(g.degree() // 2 for g in gens) + 4):
            ref = reference_poly_basis(gens, m, p)
            assert [lead for lead, _ in ideal._poly_basis(m)] == [lead for lead, _ in ref]
            for _ in range(3):
                elem = _random_homogeneous(rng, p, 2 * m)
                vec = [0] * (m + 1)
                for (a, _, _, _), c in elem.terms.items():
                    vec[a] = c
                assert ideal.residue(elem, m) == reference_reduce_vector(vec, ref, p), \
                    (p, gens, m, elem)
    assert repeats == {True, False}  # some ideals repeat a generator


def test_steenrod_closure_whole_ring():
    closed, _ = is_steenrod_closed(IdealHandle([GradedElement.one(P)]))
    assert closed


def test_zeta_proposition_enumeration():
    expected = {4: ["zeta^1"], 6: [], 8: ["zeta^2"], 12: ["zeta^3"]}
    for k, labels in expected.items():
        res = brute_force_zeta_proposition(3, k)
        assert res.matches
        if labels:
            # the line of zeta^(k/4), the only ambient monomial without xi
            zeta_line = tuple(int(ab == (0, k // 4)) for ab in res.ambient)
            assert res.survivors == [(zeta_line,)]
        else:
            assert res.survivors == []
    res5 = brute_force_zeta_proposition(5, 6)
    assert res5.matches and len(res5.survivors) == 1


def test_zeta_proposition_pth_root_consistency():
    # closure is a property of the radical: the p-th power line survives
    # exactly when the root line does
    root = brute_force_zeta_proposition(3, 4)
    power = brute_force_zeta_proposition(3, 12)
    assert bool(root.survivors) == bool(power.survivors)


@pytest.mark.parametrize("p, k, ambient, survivor", [
    (3, 28, [(0, 7), (2, 4), (4, 1)], ((1, 0, 0),)),
    (5, 60, [(0, 10), (3, 0)], ((1, 0),)),
    (5, 120, [(0, 20), (3, 10), (6, 0)], ((1, 0, 0),)),
    (7, 400, [(0, 50), (4, 29), (8, 8)], ((1, 0, 0),)),
    (11, 360, [(0, 30)], ((1,),)),
])
def test_zeta_proposition_pinned_survivors(p, k, ambient, survivor):
    res = brute_force_zeta_proposition(p, k, degree_budget=closure_degree(p, k))
    assert res.ambient == ambient
    assert res.survivors == [survivor] and res.matches


def closure_degree(p, k):
    """The least budget for the zeta fixpoint in degree 2k: its highest
    membership test is P^q on a generator, q the largest power of p at
    most k, at degree 2k + 2q(p - 1)."""
    q = max(p ** j for j in range(k.bit_length()) if p ** j <= k)
    return 2 * k + 2 * q * (p - 1)


def test_zeta_proposition_budget():
    # 9 <= 12 < 27, so P^9 is the highest test: 2(12 + 9 * 2) = 60
    with pytest.raises(BudgetError, match="^closure tests reach degree 60 > budget 20$"):
        brute_force_zeta_proposition(3, 12, degree_budget=20)


# k and the largest power q of p at most k, on both sides of p and of p^2
K_AND_Q = {"p-1": lambda p: (p - 1, 1), "p": lambda p: (p, p),
           "p^2-1": lambda p: (p * p - 1, p), "p^2": lambda p: (p * p, p * p)}


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("which", list(K_AND_Q))
def test_zeta_proposition_budget_boundary(p, which):
    k, q = K_AND_Q[which](p)
    bound = 2 * (k + q * (p - 1))
    assert bound == closure_degree(p, k)
    res = brute_force_zeta_proposition(p, k, degree_budget=bound)
    assert res.matches
    with pytest.raises(BudgetError) as err:
        brute_force_zeta_proposition(p, k, degree_budget=bound - 1)
    assert str(err.value) == f"closure tests reach degree {bound} > budget {bound - 1}"


@pytest.mark.parametrize("p, k_list", [(3, [4, 8, 9]), (5, [24, 6]), (7, [8, 16, 24])])
def test_theorem_c_refuses_at_the_zeta_bound_of_its_largest_k(p, k_list):
    # theorem-c checks the budget once, up front, at max(k): the same degree
    # the zeta leg of that k would name
    budget = closure_degree(p, max(k_list)) - 1
    with pytest.raises(BudgetError) as zeta:
        brute_force_zeta_proposition(p, max(k_list), degree_budget=budget)
    with pytest.raises(BudgetError) as driver:
        theorem_C_driver(p, k_list=k_list, degree_budget=budget)
    assert str(driver.value) == str(zeta.value)
    cert = theorem_C_driver(p, k_list=k_list, degree_budget=budget + 1)
    assert cert.status == "unsat-certificate" and cert.witness["k_values"] == k_list


# the subspace enumeration, kept as a test-only reference for the fixpoint

def _all_subspaces(dim, p):
    """All nonzero subspaces of F_p^dim as reduced-echelon row tuples."""
    out = []
    for r in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), r):
            free_positions = [(i, c) for i in range(r) for c in range(dim)
                              if c > pivots[i] and c not in pivots]
            for vals in itertools.product(range(p), repeat=len(free_positions)):
                rows = [[0] * dim for _ in range(r)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, c), val in zip(free_positions, vals):
                    rows[i][c] = val
                out.append(tuple(tuple(row) for row in rows))
    return out


def reference_power(i, g):
    """P^i on a polynomial by the closed form of the module docstring, with
    the binomial coefficients from math.comb."""
    p, out = g.p, GradedElement.zero(g.p)
    for (a, b, _, _), c in g.terms.items():
        for j in range(i + 1):
            coef = math.comb(a, j) * math.comb(b, i - j)
            out = out + GradedElement.monomial(p, a + j * (p - 1),
                                               b + (i - j) * (p - 1), coeff=c * coef)
    return out


def dense_is_closed(gens):
    """Closure under every P^i on the generators, decided by reference_power
    and the dense-rank oracle, without IdealHandle or steenrod_power."""
    for i in range(1, max(g.degree() // 2 for g in gens) + 1):
        for g in gens:
            img = reference_power(i, g)
            if not img.is_zero() and not dense_contains(gens, img):
                return False
    return True


def reference_zeta_proposition(p, k, dense=False):
    """Test every nonzero subspace M of the degree-2k invariants for a
    Steenrod-closed ideal (M): one IdealHandle per subspace, or with
    dense=True by dense_is_closed."""
    inv = invariants(p)
    dxi, dzeta = p * (p - 1), p + 1
    ambient = sorted((a, (k - a * dxi) // dzeta) for a in range(k // dxi + 1)
                     if (k - a * dxi) % dzeta == 0)
    elems = [inv.xi ** a * inv.zeta ** b for a, b in ambient]
    survivors = []
    for rows in _all_subspaces(len(ambient), p):
        gens = []
        for row in rows:
            g = GradedElement.zero(p)
            for c, e in zip(row, elems):
                g = g + c * e
            gens.append(g)
        if (dense_is_closed(gens) if dense
                else is_steenrod_closed(IdealHandle(gens))[0]):
            survivors.append(rows)
    predicted = []
    if k % (p + 1) == 0:
        predicted.append((tuple(int(ab == (0, k // (p + 1))) for ab in ambient),))
    return ZetaPropositionResult(p, k, ambient, survivors, predicted)


# every (p, k) whose enumeration tests at most a few thousand subspaces
ZETA_GRID = ([(3, k) for k in range(1, 41)] + [(5, k) for k in range(1, 73)]
             + [(7, k) for k in range(1, 65)])


@pytest.mark.parametrize("p, k", ZETA_GRID, ids=[f"p{p}-k{k}" for p, k in ZETA_GRID])
def test_zeta_proposition_matches_enumeration(p, k):
    # against both closure deciders: IdealHandle, and the dense oracle that
    # shares no code with the fixpoint's membership path
    got = json.dumps(brute_force_zeta_proposition(p, k, degree_budget=2 * k * p).to_json(),
                     sort_keys=True)
    for dense in (False, True):
        want = reference_zeta_proposition(p, k, dense).to_json()
        assert got == json.dumps(want, sort_keys=True), dense


def test_binom_mod_matches_falling_factorial():
    # C(k, i) = k (k-1) ... (k-i+1) / i! for every integer k
    for p in (2, 3, 5, 7, 11, 101, 127):
        for k in range(-60, 140):
            for i in range(-2, 145):
                want = math.prod(range(k - i + 1, k + 1)) // math.factorial(i) % p \
                    if i >= 0 else 0
                assert binom_mod(k, i, p) == want, (k, i, p)


def all_i1_power(i, a):
    """P^i with a binomial for every i1 in range, the loop `steenrod_power`
    ran before it enumerated only the i1 that Lucas' theorem leaves."""
    p, out = a.p, {}
    for (x, y, eu, ev), c in a.terms.items():
        for i1 in range(max(0, i - y), min(i, x) + 1):
            coef = binom_mod(x, i1, p) * binom_mod(y, i - i1, p) % p
            if coef:
                m = (x + i1 * (p - 1), y + (i - i1) * (p - 1), eu, ev)
                out[m] = out.get(m, 0) + c * coef
    return GradedElement(p, out)


def test_steenrod_power_matches_all_i1_loop():
    rng = random.Random(17)
    for p in (3, 5, 7, 11):
        for _ in range(60):
            a = GradedElement(p, {(rng.randrange(401), rng.randrange(401),
                                   rng.randrange(2), rng.randrange(2)):
                                  rng.randrange(1, p) for _ in range(rng.randrange(1, 4))})
            i = rng.randrange(450)
            assert steenrod_power(i, a).terms == all_i1_power(i, a).terms, (p, i, a.terms)


def test_lucas_range_is_the_nonzero_binomials():
    rng = random.Random(5)
    for p in (2, 3, 5, 7, 11):
        for _ in range(200):
            k = rng.randrange(401)
            lo = rng.randrange(k + 1)
            hi = rng.randrange(lo - 1, k + 1)
            want = [(j, math.comb(k, j) % p) for j in range(lo, hi + 1)
                    if math.comb(k, j) % p]
            assert _lucas_range(k, lo, hi, p) == want, (k, lo, hi, p)


def lucas_exact(k, j, p):
    """C(k, j) mod p, k >= 0, by Lucas' theorem on exact digit binomials."""
    out = 1
    while j:
        out *= math.comb(k % p, j % p)  # zero once j's digit exceeds k's
        k //= p
        j //= p
    return out % p


@pytest.mark.parametrize("p", (2, 3, 5, 7, 83, 97, 101, 139, 4999))
def test_digit_binomials_agree_on_both_sides_of_the_exact_bound(p):
    # the digit binomials are read off factorial tables mod p at every p
    rng = random.Random(p)
    for _ in range(40):
        k = rng.randrange(3 * p * p)
        lo = rng.randrange(k + 1)
        hi = min(k, lo + rng.choice((0, 3, 2 * p if p < 1000 else 20)))
        want = [lucas_exact(k, j, p) for j in range(lo, hi + 1)]
        assert _lucas_range(k, lo, hi, p) == [
            (j, c) for j, c in zip(range(lo, hi + 1), want) if c], (k, lo, hi, p)
        assert [binom_mod(k, j, p) for j in range(lo, hi + 1)] == want, (k, lo, hi, p)
        # the reflection rule C(-k - 1, j) = (-1)^j C(k + j, j)
        assert binom_mod(-k - 1, lo, p) == (-1) ** lo * lucas_exact(k + lo, lo, p) % p
    # C(p - 1, j) = (-1)^j mod p
    assert _lucas_range(p - 1, 0, p - 1, p) == [
        (j, 1 if j % 2 == 0 else p - 1) for j in range(p)]


def test_steenrod_check_takes_no_large_exact_binomial(monkeypatch, capsys):
    # at p = 4999 zeta^(p-1) expands over C(p - 1, j); an exact C(a, b)
    # with b and a - b both large has thousands of bits
    real_comb = math.comb

    def small_comb(a, b):
        assert min(b, a - b) < 64, (a, b)
        return real_comb(a, b)

    monkeypatch.setattr(math, "comb", small_comb)
    assert main(["steenrod-check", "--p", "4999", "--samples", "3"]) == 0
    assert "verified" in capsys.readouterr().out


def test_quotient_finite_dimensional():
    inv = invariants(P)
    for s in (1, 2, 3):
        assert not quotient_finite_dimensional(inv.zeta ** s)
    assert not quotient_finite_dimensional(x * x)
    assert not quotient_finite_dimensional(GradedElement.zero(P))
    # a constant is both a pure x-power and a pure y-power: the unit ideal
    assert quotient_finite_dimensional(GradedElement.one(P))
    # only a generator in F_p[x, y] is decided
    for theta in (u, u * v, x + u):
        with pytest.raises(MalformedInput):
            quotient_finite_dimensional(theta)


def test_theorem_c_driver():
    cert = theorem_C_driver(3)
    assert cert.status == "unsat-certificate"
    by_name = {leg.name: leg for leg in cert.legs}
    assert by_name["action-triviality"].details["lefschetz_nontrivial_odd"] == 3
    assert by_name["action-triviality"].details["lefschetz_nontrivial_even"] == 1
    assert by_name["zeta-line-k4"].status == "verified"
    assert by_name["one-generator-contradiction-k4"].status == "verified"
    assumed = [leg.name for leg in cert.legs if leg.status == "assumed"]
    assert assumed == ["invariant-subring-input", "orbit-space-finiteness-input"]


@pytest.mark.parametrize("k_list", [[], [4, 4], [4, 8, 4]])
def test_theorem_c_driver_needs_distinct_k(k_list):
    with pytest.raises(MalformedInput, match="distinct"):
        theorem_C_driver(3, k_list=k_list)


def test_theorem_c_driver_k6_no_survivor():
    cert = theorem_C_driver(3, k_list=[6])
    leg = next(l for l in cert.legs if l.name == "zeta-line-k6")
    assert leg.status == "verified" and leg.details["survivors"] == []


def test_theorem_c_rejects_two():
    with pytest.raises(QdpError, match="^not covered here: the p = 2 case reduces "):
        theorem_C_driver(2)


# ---------------------------------------------------------------------------
# rank-one algebra with Laurent exponents

def test_rank_one_bockstein_and_powers():
    p = 3
    st_k = RankOneElement.monomial(p, 1, 2)  # s t^2
    assert rank_one_bockstein(st_k) == RankOneElement.monomial(p, 0, 3)
    tk = RankOneElement.monomial(p, 0, 4)
    assert rank_one_bockstein(tk).is_zero()
    assert rank_one_power(1, tk) == RankOneElement.monomial(p, 0, 6, binom_mod(4, 1, 3))
    assert rank_one_power(4, tk) == RankOneElement.monomial(p, 0, 12)  # C(4,4)=1, t^(4+8)


def test_rank_one_laurent_powers():
    p = 3
    tinv = RankOneElement.monomial(p, 0, -1)
    for i in range(1, 8):
        img = rank_one_power(i, tinv)
        coeff = binom_mod(-1, i, p)
        if coeff:
            assert img == RankOneElement.monomial(p, 0, -1 + i * (p - 1), coeff)
        else:
            assert img.is_zero()
    assert binom_mod(-1, 1, 3) == 2  # (-1)^1 mod 3
    assert binom_mod(-2, 2, 3) == 0  # C(-2,2) = 3


def test_rank_one_p2_squares():
    t = RankOneElement.monomial(2, 0, 1)
    assert rank_one_bockstein(t) == RankOneElement.monomial(2, 0, 2)  # Sq^1 t = t^2
    t2 = RankOneElement.monomial(2, 0, 2)
    assert rank_one_bockstein(t2).is_zero()
    assert rank_one_power(2, t2) == RankOneElement.monomial(2, 0, 4)


def test_rank_one_monomial_parse():
    p = 3
    assert rank_one_monomial_from_string(p, "t^2*s") == RankOneElement.monomial(p, 1, 2)
    assert rank_one_monomial_from_string(p, "s") == RankOneElement.monomial(p, 1, 0)
    assert rank_one_monomial_from_string(p, "1") == RankOneElement.monomial(p, 0, 0)
    assert rank_one_monomial_from_string(p, "t") == RankOneElement.monomial(p, 0, 1)


def test_theorem_c_driver_p5_single_leg():
    cert = theorem_C_driver(5, k_list=[6])
    leg = next(l for l in cert.legs if l.name == "zeta-line-k6")
    assert leg.status == "verified"
    assert len(leg.details["survivors"]) == 1
    contra = next(l for l in cert.legs if l.name == "one-generator-contradiction-k6")
    assert contra.status == "verified" and contra.details["generator"] == "zeta^1"


def test_rank_one_monomial_print_parse_round_trip():
    for p in (2, 3, 5):
        for eps in ((0,) if p == 2 else (0, 1)):
            for k in range(-3, 4):
                text = rank_one_monomial_to_string((eps, k))
                assert rank_one_monomial_from_string(p, text) == \
                    RankOneElement.monomial(p, eps, k)
    assert [rank_one_monomial_to_string(m) for m in
            ((1, 2), (1, 1), (1, 0), (0, 1), (0, 0), (0, -1))] == \
        ["t^2*s", "t^1*s", "s", "t", "1", "t^-1"]


@pytest.mark.parametrize("text", ["t^x", "t^", "t^2*q", 5, None, "t^+0_2", "t ^ 2",
                                  "t^-", "t^--2", "t^\u0662"])
def test_bad_rank_one_monomial_is_malformed(text):
    with pytest.raises(MalformedInput):
        rank_one_monomial_from_string(3, text)


def test_rank_one_ring_structure():
    p = 3
    s = RankOneElement.monomial(p, 1, 0)
    t = RankOneElement.monomial(p, 0, 1)
    tinv = RankOneElement.monomial(p, 0, -1)
    assert (s * s).is_zero()
    assert t * tinv == RankOneElement.one(p)
    assert (s + t) ** 3 == t ** 3 + 3 * s * t ** 2  # 3 = 0 mod 3
    assert (s * t - s * t).is_zero() and (-s).terms == {(1, 0): 2}
    assert (s * t ** 2).degree() == 5
    with pytest.raises(QdpError, match=r"^degrees \[1, 2\] present$"):
        (s + t).degree()
    with pytest.raises(MalformedInput):
        RankOneElement.monomial(2, 1, 0)  # no exterior generator at p = 2


@pytest.mark.parametrize("op", [
    lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
], ids=["add", "sub", "mul"])
def test_mixed_primes_raise(op):
    with pytest.raises(QdpError, match="^mixed primes 3 and 5$"):
        op(RankOneElement.monomial(3, 0, 1), RankOneElement.monomial(5, 0, 1))
    with pytest.raises(QdpError, match="^mixed primes 3 and 5$"):
        op(GradedElement.monomial(3, 1, 0), GradedElement.monomial(5, 1, 0))
