"""Character tables: certification, fixed dimensions, real forms."""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

import qdp.characters
from qdp.characters import (
    COMPLEX_PAIR,
    QUATERNIONIC,
    REAL,
    CyclotomicInteger,
    ElementClasses,
    _CycloContext,
    _check_orthogonal,
    _evaluation_rows,
    _inner_product_times_order,
    cyclotomic_polynomial,
    fixed_dimension,
    frobenius_schur,
    group_exponent,
    induced_values,
    irreducible_characters,
    linear_characters,
    real_representation_basis,
)
from qdp.errors import IncompleteInduction, NotPGroup
from qdp.groups import (
    Subgroup,
    subgroups_of_p_group,
    whole_group,
)
from fixtures import (
    all_pairs_derived_subgroup,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_quaternion,
    heisenberg,
    modular_p3,
    wreath_3_3,
)


# ---------------------------------------------------------------------------
# independent oracles

def orbit_count_fixed_dim(G, H_members):
    """dim of the H-fixed subspace of the regular representation = number of
    H-orbits on G under left translation = |G| / |H|."""
    seen = set()
    orbits = 0
    for g in G.elements():
        if g in seen:
            continue
        orbits += 1
        for h in H_members:
            seen.add(G.mul(h, g))
    return orbits


def rotation_fixed_rank_p3():
    """Fixed-space dimension of the order-3 integer rotation [[0,-1],[1,-1]]
    acting on Q^2, via exact kernel rank of (M - I)."""
    a, b = Fraction(0 - 1), Fraction(-1)
    c, d = Fraction(1), Fraction(-1 - 1)
    det = a * d - b * c
    return 0 if det != 0 else (1 if (a, b, c, d) != (0, 0, 0, 0) else 2)


def reference_irreducible_characters(G):
    """Induce every linear character of every subgroup, keep the results of
    norm one; returned as the sorted (degree, values) table."""
    classes = ElementClasses.compute(G)
    e = group_exponent(G)
    table = set()
    subs = subgroups_of_p_group(whole_group(G))
    for H in subs:
        for lam in linear_characters(H, subs):
            vals = induced_values(H, lam, classes, e)
            norm = CyclotomicInteger.zero(e)
            for ci, cls in enumerate(classes.classes):
                norm = norm + len(cls) * (vals[ci] * vals[classes.inv_class[ci]])
            if norm.as_rational_int() == G.order:
                degree = vals[classes.identity_class].as_rational_int()
                table.add((degree, tuple(v.coeffs for v in vals)))
    return sorted(table)


def reference_orthogonal(tables, classes):
    """Every pair of distinct value tuples has |G| <chi, psi> = 0, by exact
    cyclotomic inner products."""
    e = tables[0][0].order
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            ip = _inner_product_times_order(tables[i], tables[j], classes)
            if ip != CyclotomicInteger.zero(e):
                return False
    return True


def character_table_json(P):
    chars = irreducible_characters(P)
    classes = chars[0].classes
    return {
        "cyclotomic_order": group_exponent(P),
        "classes": [{"rep": cls[0], "size": len(cls)} for cls in classes.classes],
        "characters": [
            {"degree": chi.degree, "values": [list(v.coeffs) for v in chi.values]}
            for chi in chars
        ],
    }


# ---------------------------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(9) == [1, 0, 0, 1, 0, 0, 1]
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]


# e = 1 and every prime power up to 2^7, 3^5, 5^3, 7^2, 11^2 and 13
PRIME_POWER_EXPONENTS = [1] + [q ** k for q, top in ((2, 7), (3, 5), (5, 3), (7, 2),
                                                     (11, 2), (13, 1))
                               for k in range(1, top + 1)]


@pytest.mark.parametrize("e", PRIME_POWER_EXPONENTS)
def test_cyclotomic_polynomial_matches_sympy(e):
    x = sympy.Symbol("x")
    want = sympy.Poly(sympy.cyclotomic_poly(e, x), x).all_coeffs()[::-1]
    assert cyclotomic_polynomial(e) == [int(c) for c in want]


def test_cyclotomic_arithmetic():
    z = CyclotomicInteger.zeta_power
    # 1 + zeta_3 + zeta_3^2 = 0
    s = z(3, 0) + z(3, 1) + z(3, 2)
    assert s == CyclotomicInteger.zero(3)
    # zeta_9^3 is a primitive cube root inside Z[zeta_9]
    s9 = z(9, 3) * z(9, 3) * z(9, 3)
    assert s9.as_rational_int() == 1
    assert (z(8, 2) * z(8, 2)).as_rational_int() == -1


def test_character_counts():
    assert [c.degree for c in irreducible_characters(cyclic(1))] == [1]
    assert [c.degree for c in irreducible_characters(cyclic(3))] == [1, 1, 1]
    assert [c.degree for c in irreducible_characters(elementary_abelian(2, 2))] == [1] * 4
    degs = [c.degree for c in irreducible_characters(heisenberg(3))]
    assert degs == [1] * 9 + [3, 3]
    degs = [c.degree for c in irreducible_characters(generalized_quaternion(8))]
    assert degs == [1, 1, 1, 1, 2]


AGREEMENT_GROUPS = [
    cyclic(1), cyclic(3), cyclic(9), cyclic(27),
    elementary_abelian(2, 2), elementary_abelian(3, 2),
    elementary_abelian(3, 3), elementary_abelian(5, 2),
    heisenberg(3), modular_p3(3), heisenberg(5),
    generalized_quaternion(8), generalized_quaternion(16), dihedral(4),
]


@pytest.mark.parametrize("G", AGREEMENT_GROUPS, ids=lambda G: G.name)
def test_induction_stops_at_the_reference_table(G):
    # induction from the largest subgroups down, stopped at sum of squares
    # |G|, finds the table that inducing from every subgroup finds, also
    # when it is handed the subgroup list (in any order)
    reference = reference_irreducible_characters(G)
    assert [chi.sort_key() for chi in irreducible_characters(G)] == reference
    subs = subgroups_of_p_group(whole_group(G))[::-1]
    assert [chi.sort_key() for chi in irreducible_characters(G, subgroups=subs)] == reference


@pytest.mark.parametrize("G", AGREEMENT_GROUPS, ids=lambda G: G.name)
def test_orthogonality_in_f_ell_agrees_with_the_exact_reference(G):
    chars = irreducible_characters(G)
    tables = [chi.values for chi in chars]
    assert reference_orthogonal(tables, chars[0].classes)
    _check_orthogonal(tables, chars[0].classes, group_exponent(G), G.order)


@given(st.sampled_from([1, 2, 3, 4, 9]), st.data())
def test_check_orthogonal_agrees_with_the_reference_on_any_table(e, data):
    # tables that are not character tables: the verdict is still exact
    classes = ElementClasses.compute(cyclic(e))
    phi = len(cyclotomic_polynomial(e)) - 1
    value = st.lists(st.integers(-3, 3), min_size=phi, max_size=phi).map(
        lambda c: CyclotomicInteger(e, tuple(c)))
    tables = data.draw(st.lists(st.tuples(*[value] * e), min_size=2, max_size=3))
    try:
        _check_orthogonal(tables, classes, e, e)
        accepted = True
    except IncompleteInduction:
        accepted = False
    assert accepted == reference_orthogonal(tables, classes)


def test_real_basis_of_e5_cubed():
    basis = real_representation_basis(elementary_abelian(5, 3))
    assert len(basis) == 63
    assert sum(entry.real_degree for entry in basis) == 125


def _broken_tables(G):
    chars = [chi.values for chi in irreducible_characters(G)]
    e = group_exponent(G)
    chi, psi = chars[-1], chars[-2]
    twice = chars + [chi]
    summed = chars[:-1] + [tuple(a + b for a, b in zip(chi, psi))]
    # one value of chi times zeta: chi(1) = deg, so <chi', psi> has the
    # nonzero summand (zeta - 1) deg psi(1) for every other psi
    turned = list(chi)
    turned[0] = turned[0] * CyclotomicInteger.zeta_power(e, 1)
    return {"twice": twice, "chi+psi": summed, "zeta*value": chars[:-1] + [tuple(turned)]}


@pytest.mark.parametrize("G", [heisenberg(3), elementary_abelian(3, 2),
                               generalized_quaternion(8)], ids=lambda G: G.name)
@pytest.mark.parametrize("case", ["twice", "chi+psi", "zeta*value"])
def test_check_orthogonal_rejects_a_broken_table(G, case):
    classes = ElementClasses.compute(G)
    with pytest.raises(IncompleteInduction, match="not orthogonal"):
        _check_orthogonal(_broken_tables(G)[case], classes, group_exponent(G), G.order)


def test_check_orthogonal_on_every_small_table_of_c2():
    # |G| <chi, psi> = 10 b + c takes every value in [-110, 110].  The check
    # takes ell above 2 * M n A^2 = 400; a prime ell at or below 110 would
    # pass one nonzero inner product
    classes = ElementClasses.compute(cyclic(2))
    chi = (CyclotomicInteger(2, (10,)), CyclotomicInteger(2, (1,)))
    for b in range(-10, 11):
        for c in range(-10, 11):
            tables = [chi, (CyclotomicInteger(2, (b,)), CyclotomicInteger(2, (c,)))]
            if reference_orthogonal(tables, classes):
                _check_orthogonal(tables, classes, 2, 2)
            else:
                with pytest.raises(IncompleteInduction):
                    _check_orthogonal(tables, classes, 2, 2)


def _image(coeffs, ell, rows):
    return [sum(c * w for c, w in zip(coeffs, row)) % ell for row in rows]


def test_check_orthogonal_uses_every_embedding():
    # On C_25, |G| <1, psi> is the sum x of psi's values.  Pick x != 0 that
    # zeta -> omega sends to 0 mod ell, inside the bound the check takes:
    # only the other phi(25) - 1 embeddings can see it.
    e = n = 25
    a = 20  # the l1-norm bound A, reached by the value `big` below
    m = max(abs(c) for vec in _CycloContext.get(e).powers for c in vec)
    ell, rows = _evaluation_rows(e, m * n * a * a)
    seen = {}
    for u in itertools.product((-1, 0, 1), repeat=10):
        img = _image(u, ell, rows[:1])[0]
        if img in seen:
            x = tuple(s - t for s, t in zip(u, seen[img])) + (0,) * 10
            break
        seen[img] = u
    assert any(x) and _image(x, ell, rows)[0] == 0 and any(_image(x, ell, rows))
    big = CyclotomicInteger(e, (a,) + (0,) * 19)
    trivial = (CyclotomicInteger.zeta_power(e, 0),) * n
    psi = (CyclotomicInteger(e, x), big, big * -1) + (CyclotomicInteger.zero(e),) * (n - 3)
    with pytest.raises(IncompleteInduction, match="not orthogonal"):
        _check_orthogonal([trivial, psi], ElementClasses.compute(cyclic(e)), e, n)


@st.composite
def bounded_elements(draw):
    e = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 25, 27]))
    ell, rows = _evaluation_rows(e, draw(st.integers(0, 40)))
    half = (ell - 1) // 2
    phi = len(cyclotomic_polynomial(e)) - 1
    coeffs = draw(st.lists(st.integers(-half, half), min_size=phi, max_size=phi))
    return e, ell, rows, coeffs


@given(bounded_elements(), st.data())
def test_evaluation_is_injective_inside_the_bound(case, data):
    e, ell, rows, coeffs = case
    assert len(rows) == len(coeffs)
    image = _image(coeffs, ell, rows)
    assert (not any(image)) == (not any(coeffs))
    # each row is a ring map Z[zeta_e] -> F_ell
    other = data.draw(st.lists(st.integers(-3, 3), min_size=len(coeffs),
                               max_size=len(coeffs)))
    prod = CyclotomicInteger(e, tuple(coeffs)) * CyclotomicInteger(e, tuple(other))
    assert _image(prod.coeffs, ell, rows) == \
        [a * b % ell for a, b in zip(image, _image(other, ell, rows))]


def test_ell_times_one_maps_to_zero():
    # why the coefficient bound is needed: ell * Z[zeta_e] is the kernel
    for e in (1, 5, 9):
        ell, rows = _evaluation_rows(e, 10)
        assert ell > 20 and (ell - 1) % e == 0
        assert not any(_image([ell] + [0] * (len(rows[0]) - 1), ell, rows))


@pytest.mark.parametrize("G", [elementary_abelian(5, 2), heisenberg(5),
                               elementary_abelian(3, 3)], ids=lambda G: G.name)
def test_exact_products_grow_linearly_in_the_candidates(G, monkeypatch):
    counts = {"mul": 0, "induced": 0}
    real_mul, real_rmul = CyclotomicInteger.__mul__, CyclotomicInteger.__rmul__
    real_induced = qdp.characters.induced_values

    def counted_mul(self, other):
        counts["mul"] += 1
        return real_mul(self, other)

    def counted_rmul(self, other):
        counts["mul"] += 1
        return real_rmul(self, other)

    def counted_induced(*args):
        counts["induced"] += 1
        return real_induced(*args)

    monkeypatch.setattr(CyclotomicInteger, "__mul__", counted_mul)
    monkeypatch.setattr(CyclotomicInteger, "__rmul__", counted_rmul)
    monkeypatch.setattr(qdp.characters, "induced_values", counted_induced)
    irreducible_characters(G)
    classes = ElementClasses.compute(G)
    assert 0 < counts["mul"] <= 2 * counts["induced"] * len(classes.classes)


def test_non_p_group_rejected():
    for n in (6, 12):
        with pytest.raises(NotPGroup):
            irreducible_characters(cyclic(n))


def test_linear_characters_of_cyclic_are_roots_of_unity():
    G = cyclic(3)
    chars = irreducible_characters(G)
    vals = {tuple(v.coeffs for v in c.values) for c in chars}
    assert len(vals) == 3
    for c in chars:
        cube = c.value_at(1) * c.value_at(1) * c.value_at(1)
        assert cube.as_rational_int() == 1


@pytest.mark.parametrize("G", [
    elementary_abelian(3, 3), heisenberg(3), modular_p3(3), heisenberg(5), wreath_3_3(),
    generalized_quaternion(16), dihedral(8)],
    ids=["E27", "H27", "M27", "H125", "Z3wrZ3", "Q16", "D16"])
def test_linear_characters_are_the_homomorphisms_to_roots_of_unity(G):
    # for every subgroup H: pairwise distinct homomorphisms H -> Z/m, as
    # many as H has, |H : [H, H]|; in Z3 wr Z3 [H, H] is more than the
    # closure of the commutators of two generators
    subs = subgroups_of_p_group(whole_group(G))
    for H in subs:
        chars = linear_characters(H, subs)
        for lam in chars:
            exps, m = lam.exponents, lam.modulus
            assert sorted(exps) == list(H.members)
            assert all((exps[G.mul(a, b)] - exps[a] - exps[b]) % m == 0
                       for a in H.members for b in H.members), H.members
        values = {tuple(Fraction(lam.exponents[h], lam.modulus) % 1 for h in H.members)
                  for lam in chars}
        assert len(values) == len(chars) == H.order // all_pairs_derived_subgroup(H).order


def test_fixed_dimension_regular_character():
    # regular character of (Z/3)^2 restricted to any order-3 subgroup
    G = elementary_abelian(3, 2)
    chars = irreducible_characters(G)
    reg = None
    for H in subgroups_of_p_group(whole_group(G)):
        if H.order == 3:
            total = sum(fixed_dimension(c, H) * c.degree for c in chars)
            assert total == orbit_count_fixed_dim(G, H.members) == 3
    triv = Subgroup(G, (G.identity,))
    assert sum(fixed_dimension(c, triv) * c.degree for c in chars) == 9


def test_fixed_dimension_trivial_and_faithful():
    G = cyclic(5)
    chars = irreducible_characters(G)
    whole = whole_group(G)
    trivial = next(c for c in chars
                   if all(v.as_rational_int() == 1 for v in c.values))
    assert fixed_dimension(trivial, whole) == 1
    faithful = [c for c in chars if c is not trivial]
    assert all(fixed_dimension(c, whole) == 0 for c in faithful)


def test_realified_faithful_linear_of_z3_matches_rotation():
    G = cyclic(3)
    basis = real_representation_basis(G)
    pair = next(e for e in basis if e.realness == COMPLEX_PAIR)
    whole = whole_group(G)
    triv = Subgroup(G, (0,))
    assert 2 * fixed_dimension(pair.character, triv) == 2
    assert 2 * fixed_dimension(pair.character, whole) == 2 * rotation_fixed_rank_p3()


def test_frobenius_schur_indicators():
    q8 = irreducible_characters(generalized_quaternion(8))
    two_dim = next(c for c in q8 if c.degree == 2)
    assert frobenius_schur(two_dim) == -1
    d8 = irreducible_characters(dihedral(4))
    two_dim = next(c for c in d8 if c.degree == 2)
    assert frobenius_schur(two_dim) == 1
    z3 = irreducible_characters(cyclic(3))
    nontriv = [c for c in z3 if any(v.as_rational_int() != 1 for v in c.values)]
    assert all(frobenius_schur(c) == 0 for c in nontriv)


def test_q16_quaternionic_coverage():
    # of the three 2-dimensional irreducibles of Q16, the faithful ones are
    # quaternionic and the one through the dihedral quotient is real
    chars = irreducible_characters(generalized_quaternion(16))
    twos = [c for c in chars if c.degree == 2]
    assert len(twos) == 3
    inds = sorted(frobenius_schur(c) for c in twos)
    assert inds == [-1, -1, 1]
    basis = real_representation_basis(generalized_quaternion(16))
    assert sorted(e.realness for e in basis if e.character.degree == 2) == \
        [QUATERNIONIC, QUATERNIONIC, REAL]


def test_real_basis_consistency_across_corpus():
    corpus = [cyclic(2), cyclic(3), cyclic(4), cyclic(8), cyclic(9), cyclic(27),
              elementary_abelian(2, 2), elementary_abelian(2, 3),
              elementary_abelian(3, 2), elementary_abelian(3, 3),
              direct_product(cyclic(4), cyclic(2)),
              direct_product(cyclic(9), cyclic(3)),
              dihedral(4), generalized_quaternion(8),
              heisenberg(3), modular_p3(3)]
    for G in corpus:
        basis = real_representation_basis(G)
        total = sum((2 if e.realness == COMPLEX_PAIR else 1) * e.character.degree ** 2
                    for e in basis)
        assert total == G.order, G.name


def test_fixed_dimension_constant_on_conjugate_subgroups():
    G = heisenberg(3)
    chars = irreducible_characters(G)
    subs = [S for S in subgroups_of_p_group(whole_group(G)) if S.order == 3]
    for chi in chars:
        for S in subs:
            for g in (5, 11, 23):
                gi = G.inv(g)
                T = Subgroup(G, tuple(sorted(G.mul(G.mul(g, s), gi)
                                             for s in S.members)))
                assert fixed_dimension(chi, S) == fixed_dimension(chi, T)


def test_character_table_export():
    table = character_table_json(heisenberg(3))
    assert table["cyclotomic_order"] == 3
    assert len(table["classes"]) == 11
    assert sorted(c["degree"] for c in table["characters"]) == [1] * 9 + [3, 3]
    sizes = sum(c["size"] for c in table["classes"])
    assert sizes == 27


def test_column_orthogonality():
    # sum over irreducibles of chi(g) chi(h^-1) is |C_G(g)| when g ~ h, else 0
    G = heisenberg(3)
    chars = irreducible_characters(G)
    classes = chars[0].classes
    ncl = len(classes.classes)
    for i in range(ncl):
        for j in range(ncl):
            acc = None
            for chi in chars:
                term = chi.values[i] * chi.values[classes.inv_class[j]]
                acc = term if acc is None else acc + term
            val = acc.as_rational_int()
            if i == j:
                assert val == G.order // len(classes.classes[i])
            else:
                assert val == 0


def test_trivial_representation_dimension_function():
    from qdp.dimfun import SuperClassFunction
    from qdp.groups import p_subgroups
    G = cyclic(9)
    lat = p_subgroups(G, 3)
    basis = real_representation_basis(G)
    trivial = next(e for e in basis
                   if all(v.as_rational_int() == 1 for v in e.character.values))
    tau = SuperClassFunction(lat, trivial.fixed_dimension_vector(lat))
    assert set(tau.values) == {1}
