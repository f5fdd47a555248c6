"""Character tables: certification, fixed dimensions, real forms."""

from fractions import Fraction

import pytest

from qdp.characters import (
    COMPLEX_PAIR,
    QUATERNIONIC,
    REAL,
    CyclotomicInteger,
    ElementClasses,
    cyclotomic_polynomial,
    fixed_dimension,
    frobenius_schur,
    group_exponent,
    induced_values,
    irreducible_characters,
    linear_characters,
    real_representation_basis,
)
from qdp.errors import NotPGroup
from qdp.groups import (
    Subgroup,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_quaternion,
    heisenberg,
    modular_p3,
    subgroups_of_p_group,
    whole_group,
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
    for H in subgroups_of_p_group(whole_group(G)):
        for lam in linear_characters(H):
            vals = induced_values(H, lam, classes, e)
            norm = CyclotomicInteger.zero(e)
            for ci, cls in enumerate(classes.classes):
                norm = norm + len(cls) * (vals[ci] * vals[classes.inv_class[ci]])
            if norm.as_rational_int() == G.order:
                degree = vals[classes.identity_class].as_rational_int()
                table.add((degree, tuple(v.coeffs for v in vals)))
    return sorted(table)


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


def test_cyclotomic_arithmetic():
    z = CyclotomicInteger.zeta_power
    # 1 + zeta_3 + zeta_3^2 = 0
    s = z(3, 0) + z(3, 1) + z(3, 2)
    assert s.is_zero()
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
    from qdp.dimfun import real_dimension_function
    from qdp.groups import p_subgroups
    G = cyclic(9)
    lat = p_subgroups(G, 3)
    basis = real_representation_basis(G)
    trivial = next(e for e in basis
                   if all(v.as_rational_int() == 1 for v in e.character.values))
    tau = real_dimension_function(trivial, lat)
    assert set(tau.values) == {1}
