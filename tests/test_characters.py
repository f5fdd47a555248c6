"""Galois traces of irreducible characters: certification, fixed
dimensions, real forms, against the complex table of the fixtures."""

import math
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
    ElementClasses,
    GaloisTrace,
    _check_pairwise_orthogonal,
    fixed_dimension,
    frobenius_schur,
    induced_values,
    irreducible_characters,
    linear_characters,
    real_representation_basis,
)
from qdp.errors import QdpError
from qdp.groups import (
    Subgroup,
    _unique_prime,
    p_subgroups,
    subgroups_of_p_group,
    whole_group,
)
from fixtures import (
    all_pairs_derived_subgroup,
    bench_corpus_files,
    cyclic,
    cyclo_zero,
    cyclotomic_polynomial,
    dihedral,
    direct_product,
    elementary_abelian,
    galois_trace,
    generalized_quaternion,
    heisenberg,
    linear_exponents,
    modular_p3,
    object_fixed_dimension,
    object_frobenius_schur,
    object_induced_values,
    object_inner_product_times_order,
    reference_characters,
    reference_real_basis,
    relabelled,
    value_at,
    wreath_3_3,
    zeta_power,
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


def primitive(values):
    """The integer vector divided by the gcd of its entries: one key per
    Galois class, whatever field the trace was taken over."""
    g = math.gcd(*values)
    return tuple(v // g for v in values)


def reference_orthogonal(tables, classes):
    """Every pair of distinct value tuples has |G| <chi, psi> = 0, by exact
    cyclotomic inner products."""
    e = tables[0][0].order
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            ip = object_inner_product_times_order(tables[i], tables[j], classes)
            if ip != cyclo_zero(e):
                return False
    return True


def integer_orthogonal(tables, G):
    """sum over the elements g of c(g) d(g) is 0 for every two entries of
    `tables`, integer class functions of G."""
    classes = ElementClasses(G)
    return all(sum(c[classes.class_of[g]] * d[classes.class_of[g]] for g in G.elements()) == 0
               for i, c in enumerate(tables) for d in tables[i + 1:])


def basis_classes(basis, lat, subgroup_of=lambda S: S):
    """fixed-dimension vector -> (realness, real degree) of each entry, the
    vector taken at subgroup_of(rep) for each lattice class rep."""
    out = {tuple(e.multiplier * fixed_dimension(e.trace, subgroup_of(cls[0]))
                 for cls in lat.classes): (e.realness, e.real_degree) for e in basis}
    assert len(out) == len(basis)
    return out


# ---------------------------------------------------------------------------
# the reference route's cyclotomic integers

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
    z = zeta_power
    # 1 + zeta_3 + zeta_3^2 = 0
    s = z(3, 0) + z(3, 1) + z(3, 2)
    assert s == cyclo_zero(3)
    # zeta_9^3 is a primitive cube root inside Z[zeta_9]
    s9 = z(9, 3) * z(9, 3) * z(9, 3)
    assert s9.as_rational_int() == 1
    assert (z(8, 2) * z(8, 2)).as_rational_int() == -1
    # traces over Q(zeta_5) and Q(zeta_25)
    assert galois_trace([z(5, 1), z(5, 0)]) == (-1, 4)
    assert galois_trace([z(25, 1), z(25, 5)]) == (0, -5)


# ---------------------------------------------------------------------------
# the traces against the complex table

def test_character_counts():
    # one trace per Galois class: Z/3 has the trivial class and the two
    # faithful characters; H(3) four classes of two linear characters and
    # one of two characters of degree 3
    def degrees_and_orbits(G):
        return [(t.degree, t.orbit) for t in irreducible_characters(G)]

    assert degrees_and_orbits(cyclic(1)) == [(1, 1)]
    assert degrees_and_orbits(cyclic(3)) == [(1, 1), (1, 2)]
    assert degrees_and_orbits(elementary_abelian(2, 2)) == [(1, 1)] * 4
    assert degrees_and_orbits(heisenberg(3)) == [(1, 1)] + [(1, 2)] * 4 + [(3, 2)]
    assert degrees_and_orbits(generalized_quaternion(8)) == [(1, 1)] * 4 + [(2, 1)]


AGREEMENT_GROUPS = [
    cyclic(1), cyclic(3), cyclic(9), cyclic(27),
    elementary_abelian(2, 2), elementary_abelian(3, 2),
    elementary_abelian(3, 3), elementary_abelian(5, 2),
    heisenberg(3), modular_p3(3), heisenberg(5),
    generalized_quaternion(8), generalized_quaternion(16), dihedral(4),
]


@pytest.mark.parametrize("G", AGREEMENT_GROUPS, ids=lambda G: G.name)
def test_induction_stops_at_the_reference_table(G):
    # the traces, found from the largest subgroups down and stopped at the
    # completeness sum, are the Galois traces of the complex table, each
    # class once and with its size; handed the subgroup list in another
    # order, the route finds the same classes
    reference = reference_characters(G)
    orbits = {}
    for chi in reference:
        key = primitive(galois_trace(chi.values))
        orbits[key] = orbits.get(key, 0) + 1
    traces = irreducible_characters(G)
    assert {primitive(t.values): t.orbit for t in traces} == orbits
    subs = subgroups_of_p_group(whole_group(G))[::-1]
    assert [primitive(t.values) for t in irreducible_characters(G, subgroups=subs)] == \
        [primitive(t.values) for t in traces]


@pytest.mark.parametrize("G", AGREEMENT_GROUPS, ids=lambda G: G.name)
def test_trace_orthogonality_agrees_with_the_exact_reference(G):
    # the complex table is orthogonal by exact cyclotomic products, its
    # Galois traces by the integer check and by element-wise sums
    reference = reference_characters(G)
    classes = reference[0].classes
    assert reference_orthogonal([chi.values for chi in reference], classes)
    traces = sorted({primitive(galois_trace(chi.values)) for chi in reference})
    _check_pairwise_orthogonal(traces, classes)
    assert integer_orthogonal(traces, G)


@given(st.sampled_from([1, 2, 3, 4, 9]), st.data())
def test_check_orthogonal_agrees_with_the_reference_on_any_table(e, data):
    # tables that are not traces of characters: the verdict is still exact
    G = cyclic(e)
    classes = ElementClasses(G)
    value = st.integers(-3, 3)
    tables = data.draw(st.lists(st.tuples(*[value] * e), min_size=2, max_size=3))
    try:
        _check_pairwise_orthogonal(tables, classes)
        accepted = True
    except QdpError as exc:
        assert str(exc) == "distinct Galois traces not orthogonal"
        accepted = False
    assert accepted == integer_orthogonal(tables, G)


def test_real_basis_of_e5_cubed():
    # the trivial class and 31 classes of four faithful characters of
    # E(5^3)/K, K of order 25, each pair of complex conjugates realified
    basis = real_representation_basis(elementary_abelian(5, 3))
    assert len(basis) == 32
    assert sorted((e.realness, e.real_degree, e.trace.orbit) for e in basis) == \
        [(COMPLEX_PAIR, 2, 4)] * 31 + [(REAL, 1, 1)]
    assert sum(e.trace.orbit * e.trace.degree for e in basis) == 125


def _broken_tables(G):
    reference = reference_characters(G)
    classes = reference[0].classes
    traces = sorted({primitive(galois_trace(chi.values)) for chi in reference})
    chi, psi = traces[-1], traces[-2]
    twice = traces + [chi]
    summed = traces[:-1] + [tuple(a + b for a, b in zip(chi, psi))]
    # the trace of a character with its degree times zeta: the degree is
    # the only value that changes, so <chi', psi> gains a nonzero multiple
    # of deg psi(1) for every other psi
    top = next(c for c in reference if primitive(galois_trace(c.values)) == chi)
    turned = list(top.values)
    one = classes.identity_class
    turned[one] = turned[one] * zeta_power(turned[one].order, 1)
    return classes, {"twice": twice, "chi+psi": summed,
                     "zeta*value": traces[:-1] + [galois_trace(turned)]}


@pytest.mark.parametrize("G", [heisenberg(3), elementary_abelian(3, 2),
                               generalized_quaternion(8)], ids=lambda G: G.name)
@pytest.mark.parametrize("case", ["twice", "chi+psi", "zeta*value"])
def test_check_orthogonal_rejects_a_broken_table(G, case):
    classes, tables = _broken_tables(G)
    with pytest.raises(QdpError, match="^distinct Galois traces not orthogonal$"):
        _check_pairwise_orthogonal(tables[case], classes)


def test_check_orthogonal_on_every_small_table_of_c2():
    # |G| <chi, psi> = 10 b + c takes every value in [-110, 110]; in
    # integers it is zero only when it is
    classes = ElementClasses(cyclic(2))
    chi = (10, 1)
    for b in range(-10, 11):
        for c in range(-10, 11):
            tables = [chi, (b, c)]
            if 10 * b + c == 0:
                _check_pairwise_orthogonal(tables, classes)
            else:
                with pytest.raises(QdpError, match="^distinct Galois traces not orthogonal$"):
                    _check_pairwise_orthogonal(tables, classes)


# the integer kernels against the object-level ones of the fixtures
KERNEL_GROUPS = [elementary_abelian(5, 2), elementary_abelian(3, 3), heisenberg(3),
                 modular_p3(3), heisenberg(5), cyclic(9), dihedral(4),
                 generalized_quaternion(8), dihedral(8), generalized_quaternion(16)]


@pytest.mark.parametrize("G", KERNEL_GROUPS, ids=lambda G: G.name)
def test_kernels_match_the_object_level_oracle(G):
    # the trace of every section is the Galois trace of one of its induced
    # characters over Z[zeta_m]; the fixed dimensions and the indicator of
    # a trace are those of every character of its class
    classes = ElementClasses(G)
    subs = subgroups_of_p_group(whole_group(G))
    for H in subs:
        for lam in linear_characters(H):
            m = lam.modulus
            values = object_induced_values(H, linear_exponents(H, lam), m, classes, m)
            assert induced_values(lam, classes) == galois_trace(values)
    reference = reference_characters(G)
    for t in irreducible_characters(G):
        members = [chi for chi in reference
                   if primitive(galois_trace(chi.values)) == primitive(t.values)]
        assert len(members) == t.orbit
        for chi in members:
            assert chi.degree == t.degree
            assert frobenius_schur(t) == object_frobenius_schur(chi)
            for H in subs:
                assert fixed_dimension(t, H) == object_fixed_dimension(chi, H)


@pytest.mark.parametrize("mutate", ["degree", "zeta", "negative"])
def test_non_integer_subgroup_average_raises(mutate):
    # a value table that is no trace of a character: its average over a
    # subgroup is not a nonnegative integer
    G = cyclic(9)
    t = irreducible_characters(G)[-1]
    one = t.classes.identity_class
    values = list(t.values)
    H = whole_group(G)
    if mutate == "degree":  # sum over G of c, plus one
        values[one] += 1
    elif mutate == "zeta":  # the trace of chi with its degree times zeta_9
        chi = next(c for c in reference_characters(G)
                   if primitive(galois_trace(c.values)) == primitive(t.values))
        turned = list(chi.values)
        turned[one] = turned[one] * zeta_power(9, 1)
        values = galois_trace(turned)
    else:  # average -1 over the trivial subgroup
        values[one] = -t.phi
        H = Subgroup(G, (G.identity,))
    mutant = GaloisTrace(t.classes, tuple(values), t.phi, t.orbit)
    with pytest.raises(QdpError, match="^trace average over subgroup is "):
        fixed_dimension(mutant, H)


@pytest.mark.parametrize("scale", [2, 3])
def test_frobenius_schur_rejects_a_non_character(scale):
    # twice the trivial trace has indicator 2; three times it sums to
    # 3 |G| over g^2, but one more at the identity makes the sum fractional
    G = cyclic(9)
    trivial = irreducible_characters(G)[0]
    assert set(trivial.values) == {1}
    values = [v * scale for v in trivial.values]
    if scale == 3:
        values[trivial.classes.identity_class] += 1
    mutant = GaloisTrace(trivial.classes, tuple(values), 1, 1)
    with pytest.raises(QdpError, match="^Frobenius-Schur indicator "):
        frobenius_schur(mutant)


def test_non_p_group_rejected():
    for n in (6, 12):
        with pytest.raises(QdpError, match=rf"^\|G\| = {n} is not a prime power$"):
            irreducible_characters(cyclic(n))


def test_linear_characters_of_cyclic_are_roots_of_unity():
    # Z/3 has two classes of linear characters, the trivial one and the
    # faithful pair, and the three characters take cube roots of unity
    G = cyclic(3)
    whole = subgroups_of_p_group(whole_group(G))[-1]
    assert sorted(lam.modulus for lam in linear_characters(whole)) == [1, 3]
    chars = reference_characters(G)
    assert len({c.values for c in chars}) == 3
    for c in chars:
        cube = value_at(c, 1) * value_at(c, 1) * value_at(c, 1)
        assert cube.as_rational_int() == 1


@pytest.mark.parametrize("G", [
    elementary_abelian(3, 3), heisenberg(3), modular_p3(3), heisenberg(5), wreath_3_3(),
    generalized_quaternion(16), dihedral(8)],
    ids=["E27", "H27", "M27", "H125", "Z3wrZ3", "Q16", "D16"])
def test_linear_characters_are_the_homomorphisms_to_roots_of_unity(G):
    # for every subgroup H: each class is a homomorphism onto Z/m with
    # kernel K, its phi(m) members pairwise distinct, and the classes hold
    # as many as H has, |H : [H, H]|; in Z3 wr Z3 [H, H] is more than the
    # closure of the commutators of two generators
    subs = subgroups_of_p_group(whole_group(G))
    for H in subs:
        classes = linear_characters(H)
        values = set()
        for lam in classes:
            exps, m = linear_exponents(H, lam), lam.modulus
            assert sorted(exps) == list(H.members)
            assert all((exps[G.mul(a, b)] - exps[a] - exps[b]) % m == 0
                       for a in H.members for b in H.members), H.members
            assert {h for h, i in exps.items() if i == 0} == set(lam.K.members)
            if m > 1:
                assert {h for h, i in exps.items() if i % (m // _unique_prime(m)) == 0} == \
                    set(lam.above.members)
            values |= {tuple(Fraction(exps[h] * j, m) % 1 for h in H.members)
                       for j in range(m) if math.gcd(j, m) == 1}
        assert len(values) == sum(lam.modulus - lam.modulus // _unique_prime(lam.modulus)
                                  if lam.modulus > 1 else 1 for lam in classes)
        assert len(values) == H.order // all_pairs_derived_subgroup(H).order


@pytest.mark.parametrize("G", [heisenberg(3), wreath_3_3(), generalized_quaternion(16),
                               direct_product(dihedral(4), dihedral(4))],
                         ids=lambda G: G.name)
def test_derived_subgroup_is_generated_by_all_commutators(G):
    # the normal closure of the generators' commutators is [H, H]
    for H in subgroups_of_p_group(whole_group(G)):
        assert H.derived_subgroup() == all_pairs_derived_subgroup(H).member_set, H.members


def test_linear_characters_need_the_lattice_links():
    # a subgroup built outside subgroups_of_p_group has no maximal links
    G = heisenberg(3)
    with pytest.raises(QdpError, match=r"^subgroup \(0, .*\) has no recorded maximal subgroups$"):
        linear_characters(whole_group(G))


def test_fixed_dimension_regular_character():
    # the regular character of (Z/3)^2 is the sum of chi(1) chi, so its
    # fixed dimension at H sums |O| chi(1) dim V_chi^H over the classes
    G = elementary_abelian(3, 2)
    traces = irreducible_characters(G)
    for H in subgroups_of_p_group(whole_group(G)):
        if H.order == 3:
            total = sum(t.orbit * t.degree * fixed_dimension(t, H) for t in traces)
            assert total == orbit_count_fixed_dim(G, H.members) == 3
    triv = Subgroup(G, (G.identity,))
    assert sum(t.orbit * t.degree * fixed_dimension(t, triv) for t in traces) == 9


def test_fixed_dimension_trivial_and_faithful():
    G = cyclic(5)
    trivial, faithful = irreducible_characters(G)
    whole = whole_group(G)
    assert set(trivial.values) == {1} and fixed_dimension(trivial, whole) == 1
    assert faithful.orbit == 4 and fixed_dimension(faithful, whole) == 0
    assert fixed_dimension(faithful, Subgroup(G, (G.identity,))) == 1


def test_realified_faithful_linear_of_z3_matches_rotation():
    G = cyclic(3)
    basis = real_representation_basis(G)
    pair = next(e for e in basis if e.realness == COMPLEX_PAIR)
    whole = whole_group(G)
    triv = Subgroup(G, (0,))
    assert 2 * fixed_dimension(pair.trace, triv) == 2
    assert 2 * fixed_dimension(pair.trace, whole) == 2 * rotation_fixed_rank_p3()


@pytest.mark.parametrize("broken", ["partner missing", "own partner"])
def test_complex_character_needs_another_partner(monkeypatch, broken):
    # a complex character's conjugate lies in its Galois class, so a
    # complex class has even size; Z/3 has one, of the two faithful
    # characters
    G = cyclic(3)
    traces = irreducible_characters(G)
    if broken == "partner missing":  # the faithful class counted as one
        t = traces[-1]
        traces = traces[:-1] + [GaloisTrace(t.classes, t.values, t.phi, 1)]
        monkeypatch.setattr(qdp.characters, "irreducible_characters",
                            lambda P, subgroups: traces)
    else:  # the trivial character read as complex is its own conjugate
        monkeypatch.setattr(qdp.characters, "frobenius_schur", lambda chi: 0)
    with pytest.raises(QdpError, match="^complex character without conjugate partner$"):
        real_representation_basis(G)


def test_frobenius_schur_indicators():
    q8 = irreducible_characters(generalized_quaternion(8))
    two_dim = next(t for t in q8 if t.degree == 2)
    assert frobenius_schur(two_dim) == -1
    d8 = irreducible_characters(dihedral(4))
    two_dim = next(t for t in d8 if t.degree == 2)
    assert frobenius_schur(two_dim) == 1
    z3 = irreducible_characters(cyclic(3))
    nontrivial = [t for t in z3 if set(t.values) != {1}]
    assert nontrivial and all(frobenius_schur(t) == 0 for t in nontrivial)


def test_q16_quaternionic_coverage():
    # of the three 2-dimensional irreducibles of Q16, the two faithful ones
    # are one Galois class (values +-sqrt 2) and quaternionic, and the one
    # through the dihedral quotient is real
    traces = irreducible_characters(generalized_quaternion(16))
    twos = [t for t in traces if t.degree == 2]
    assert sorted(t.orbit for t in twos) == [1, 2]
    assert sorted((frobenius_schur(t), t.orbit) for t in twos) == [(-1, 2), (1, 1)]
    basis = real_representation_basis(generalized_quaternion(16))
    assert sorted(e.realness for e in basis if e.trace.degree == 2) == \
        [QUATERNIONIC, REAL]


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
        total = sum(e.trace.orbit * e.trace.degree ** 2 for e in basis)
        assert total == G.order, G.name
        assert sum(e.trace.orbit for e in basis) == len(reference_characters(G)), G.name


def test_fixed_dimension_constant_on_conjugate_subgroups():
    G = heisenberg(3)
    traces = irreducible_characters(G)
    subs = [S for S in subgroups_of_p_group(whole_group(G)) if S.order == 3]
    for t in traces:
        for S in subs:
            for g in (5, 11, 23):
                gi = G.inv(g)
                T = Subgroup(G, tuple(sorted(G.mul(G.mul(g, s), gi)
                                             for s in S.members)))
                assert fixed_dimension(t, S) == fixed_dimension(t, T)


def test_character_table_export():
    G = heisenberg(3)
    traces = irreducible_characters(G)
    classes = traces[0].classes
    table = {
        "classes": [{"rep": cls[0], "size": len(cls)} for cls in classes.classes],
        "traces": [{"degree": t.degree, "orbit": t.orbit, "values": list(t.values)}
                   for t in traces],
    }
    assert len(table["classes"]) == 11
    assert sum(c["size"] for c in table["classes"]) == 27
    assert sorted((t["degree"], t["orbit"]) for t in table["traces"]) == \
        [(1, 1)] + [(1, 2)] * 4 + [(3, 2)]
    assert sum(t["orbit"] * t["degree"] ** 2 for t in table["traces"]) == 27


def test_column_orthogonality():
    # the traces scaled to norm one are an orthonormal basis of the
    # rational class functions, so sum over classes of c(g) c(h) / <c, c>
    # is |G| / |R| when g and h lie in one rational class R (they generate
    # conjugate cyclic subgroups), else 0
    G = heisenberg(3)
    traces = irreducible_characters(G)
    classes = traces[0].classes
    sizes = [len(cls) for cls in classes.classes]
    norms = [Fraction(sum(s * v * v for s, v in zip(sizes, t.values)), G.order)
             for t in traces]

    def rational_class(g):
        order = G.element_order(g)
        return {classes.class_of[G.power(g, k)] for k in range(1, order + 1)
                if math.gcd(k, order) == 1}

    ncl = len(classes.classes)
    for i in range(ncl):
        r = rational_class(classes.classes[i][0])
        for j in range(ncl):
            val = sum(Fraction(t.values[i] * t.values[j]) / n for t, n in zip(traces, norms))
            want = Fraction(G.order, sum(sizes[c] for c in r)) if j in r else 0
            assert val == want


def test_trivial_representation_dimension_function():
    from qdp.dimfun import SuperClassFunction
    G = cyclic(9)
    lat = p_subgroups(G, 3)
    basis = real_representation_basis(G)
    trivial = next(e for e in basis if set(e.trace.values) == {1})
    tau = SuperClassFunction(lat, trivial.fixed_dimension_vector(lat))
    assert set(tau.values) == {1}


# ---------------------------------------------------------------------------
# the real basis against the reference route

BASIS_GROUPS = [
    cyclic(2), cyclic(4), cyclic(8), cyclic(16),
    elementary_abelian(2, 2), elementary_abelian(2, 3), elementary_abelian(2, 4),
    dihedral(4), dihedral(8), dihedral(16),
    generalized_quaternion(8), generalized_quaternion(16), generalized_quaternion(32),
    direct_product(cyclic(4), cyclic(2)), direct_product(cyclic(4), cyclic(4)),
    direct_product(generalized_quaternion(8), cyclic(2)),
    direct_product(dihedral(4), cyclic(2)), direct_product(dihedral(4), cyclic(4)),
    direct_product(generalized_quaternion(8), cyclic(4)),
    direct_product(dihedral(4), dihedral(4)),
    direct_product(generalized_quaternion(8), generalized_quaternion(8)),
    elementary_abelian(3, 2), elementary_abelian(5, 2), elementary_abelian(3, 3),
    elementary_abelian(5, 3), cyclic(9), cyclic(27), direct_product(cyclic(9), cyclic(3)),
    heisenberg(3), heisenberg(5), modular_p3(3), modular_p3(5), wreath_3_3(),
    direct_product(cyclic(25), cyclic(5)), direct_product(heisenberg(3), cyclic(3)),
    cyclic(7), elementary_abelian(7, 2),
]


@pytest.mark.parametrize("G", BASIS_GROUPS, ids=lambda G: G.name)
def test_real_basis_matches_the_reference_route(G):
    # per Galois class, the fixed-dimension vector, realness and real degree
    # are those of the complex table's real forms, also on a relabelled
    # copy, where the identity is not element 0 (the vector read at the
    # images of the original's lattice class reps)
    p = _unique_prime(G.order)
    lat = p_subgroups(G, p)
    want = reference_real_basis(G, lat)
    assert basis_classes(real_representation_basis(G), lat) == want
    copy, perm = relabelled(G, G.name)
    assert copy.identity != 0 or G.order == 1
    image = lambda S: Subgroup(copy, tuple(perm[x] for x in S.members))
    assert basis_classes(real_representation_basis(copy), lat, image) == want


def test_real_basis_matches_the_reference_route_on_the_corpus():
    from qdp.groups import group_from_json
    files = bench_corpus_files(7)
    names = sorted(name for name in files if name.endswith("_group.json"))
    assert len(names) == 6
    for name in names:
        G = group_from_json(files[name])
        lat = p_subgroups(G, _unique_prime(G.order))
        basis = real_representation_basis(G, subgroups=lat.sylow_subgroups)
        assert basis_classes(basis, lat) == reference_real_basis(G, lat), name


# ---------------------------------------------------------------------------
# Mackey's criterion

def test_mackey_rejects_the_center_of_q8():
    # induced from the center of Q8, the faithful character is twice the
    # 2-dimensional irreducible: its trace is orthogonal to the linear
    # characters and accounts for |O| chi(1)^2 = 4, so only Mackey's
    # criterion tells it from the irreducible's, whose vector it doubles
    G = generalized_quaternion(8)
    classes = ElementClasses(G)
    subs = subgroups_of_p_group(whole_group(G))
    (Z,) = [S for S in subs if S.order == 2]
    (lam,) = [lam for lam in linear_characters(Z) if lam.modulus == 2]
    values = induced_values(lam, classes)
    (two,) = [t for t in irreducible_characters(G) if t.degree == 2]
    assert primitive(values) == primitive(two.values)
    assert values[classes.identity_class] == 4
    commutators = qdp.characters._mackey_commutators(Z)
    assert any(lam.K.member_set.issuperset(s) for s in commutators)


def test_without_mackey_h27_is_incomplete(monkeypatch):
    # with every induced character taken for irreducible, sums of linear
    # characters of H(3) are kept as Galois classes
    monkeypatch.setattr(qdp.characters, "_mackey_commutators", lambda H: [])
    with pytest.raises(QdpError, match=r"^an induced character of degree 3 has \|O\| = 972/1458$"):
        irreducible_characters(heisenberg(3))


@pytest.mark.parametrize("G", [elementary_abelian(5, 2), heisenberg(5),
                               elementary_abelian(3, 3)], ids=lambda G: G.name)
def test_mackey_sets_once_per_subgroup(G, monkeypatch):
    # the commutator sets of a subgroup are built once, and only for a
    # subgroup that offers a trace not yet kept
    calls = []
    real = qdp.characters._mackey_commutators
    monkeypatch.setattr(qdp.characters, "_mackey_commutators",
                        lambda H: calls.append(H.members) or real(H))
    irreducible_characters(G)
    assert 0 < len(calls) == len(set(calls)) <= len(subgroups_of_p_group(whole_group(G)))
