"""Fixtures and references that only the tests use: named small groups as
Cayley tables, the paper's m-fold fiber-join models and their Euler
classes, the generic order-p generation check that the Qd(p) route is
compared against, the cyclic subgroups of a p-group that theorem-b's
center orbit is compared against, the center by a scan of the members
that theorem-b's structural center is compared against, the quotient
table that the Borel-Smith checker is compared against, the all-pairs
commutator subgroup that the count of linear characters is checked
against, the reference route for characters (the complex character table
over Z[zeta_e]: cyclotomic integers, object-level kernels with one
operation per coset term, group element or class product, Galois traces
and the table's real forms) that the integer Galois traces of
qdp.characters and their real basis are compared against, a relabelling
of a group table, the JSON form of a super class function, the
benchmark's corpus files, the element-level route
of fix_rank and the bounded search of realize that the scalar equations
and the exact solve are compared against, and the SL2(p) substitution
action that the invariants are checked against."""

import itertools
import math
import random

from qdp.errors import MalformedInput, QdpError
from qdp.fixrank import (
    FixResult,
    TwoRowLocalElement,
    TwoRowModule,
    _op_bound,
    module_bockstein,
    module_power,
)
from qdp.groups import FiniteGroup, Subgroup, TableGroup, greedy_generators, subgroup_closure
from qdp.steenrod import GradedElement, RankOneElement


# ---------------------------------------------------------------------------
# small groups as Cayley tables

def from_elements(elems: list, mul, name: str = "G") -> TableGroup:
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[mul(a, b)] for b in elems] for a in elems]
    return TableGroup(table, name=name)


def cyclic(n: int) -> TableGroup:
    return from_elements(list(range(n)), lambda a, b: (a + b) % n, name=f"Z{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup, name: str | None = None) -> TableGroup:
    elems = [(a, b) for a in g.elements() for b in h.elements()]
    return from_elements(elems, lambda x, y: (g.mul(x[0], y[0]), h.mul(x[1], y[1])),
                         name=name or f"{g.name}x{h.name}")


def elementary_abelian(p: int, rank: int) -> TableGroup:
    elems = list(itertools.product(range(p), repeat=rank))
    return from_elements(elems, lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
                         name=f"E{p}^{rank}")


def dihedral(n: int) -> TableGroup:
    """Dihedral group of order 2n: (i, j) with j a flip flag."""
    elems = [(i, j) for j in range(2) for i in range(n)]

    def mul(a, b):
        i, j = a
        k, l = b
        return ((i + (k if j == 0 else -k)) % n, (j + l) % 2)

    return from_elements(elems, mul, name=f"D{2 * n}")


def generalized_quaternion(order: int) -> TableGroup:
    """Q_{2^k}: <a, b | a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1>, order = 4m."""
    if order < 8 or order % 4:
        raise MalformedInput("generalized quaternion groups have order 4m >= 8")
    m = order // 4
    n = 2 * m
    elems = [(i, j) for j in range(2) for i in range(n)]

    def mul(a, b):
        i, j = a
        k, l = b
        base = (i + k) % n if j == 0 else (i - k) % n
        if j == 1 and l == 1:
            return ((base + m) % n, 0)
        return (base, (j + l) % 2)

    return from_elements(elems, mul, name=f"Q{order}")


def heisenberg(p: int) -> TableGroup:
    """Extraspecial group of order p^3 and exponent p (p odd)."""
    elems = list(itertools.product(range(p), repeat=3))

    def mul(x, y):
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p,
                (x[2] + y[2] + x[0] * y[1]) % p)

    return from_elements(elems, mul, name=f"H{p ** 3}")


def modular_p3(p: int) -> TableGroup:
    """Extraspecial-type group of order p^3 and exponent p^2: Z/p^2 x| Z/p."""
    pp = p * p
    elems = [(i, j) for j in range(p) for i in range(pp)]

    def mul(x, y):
        return ((x[0] + pow(1 + p, x[1], pp) * y[0]) % pp, (x[1] + y[1]) % p)

    return from_elements(elems, mul, name=f"M{p ** 3}")


def wreath_3_3() -> TableGroup:
    """Z/3 wr Z/3 = (Z/3)^3 x| Z/3, the generator of the top rotating the
    coordinates: of order 81, with a derived subgroup of order 9 that the
    commutator of its two generators alone does not generate."""
    elems = list(itertools.product(range(3), repeat=4))

    def mul(a, b):
        k = a[3]
        return tuple((a[i] + b[(i - k) % 3]) % 3 for i in range(3)) + ((k + b[3]) % 3,)

    return from_elements(elems, mul, name="Z3wrZ3")


# ---------------------------------------------------------------------------
# generation by order-p elements and cyclic subgroups, for any group

def generic_generation_by_order_p(G: FiniteGroup, p: int) -> tuple[bool, list[int]]:
    """Does the closure of the order-p elements give all of G?  Returns the
    verdict and the order-p elements, found by scanning all of G."""
    witnesses = [a for a in G.elements() if G.element_order(a) == p]
    _, closure = greedy_generators(G, witnesses)
    return len(closure) == G.order, witnesses


def center(H: Subgroup) -> Subgroup:
    """The members of H that commute with a (greedy) generating set of H."""
    G = H.group
    gens = greedy_generators(G, H.members)[0]
    out = [z for z in H.members if all(G.mul(z, g) == G.mul(g, z) for g in gens)]
    return Subgroup(G, tuple(out))


def cyclic_subgroups(P: Subgroup) -> list[Subgroup]:
    """The cyclic subgroups of P, sorted by (order, members).  <g> is the
    powers of g; its generators are the g^k with k prime to |g|, so those
    members are skipped once <g> is found."""
    G = P.group
    found = []
    generators: set[int] = set()
    for g in P.members:
        if g in generators:
            continue
        powers = [G.identity]
        x = g
        while x != G.identity:
            powers.append(x)
            x = G.mul(x, g)
        n = len(powers)
        generators.update(powers[k] for k in range(1, n) if math.gcd(k, n) == 1)
        found.append(tuple(sorted(powers)))
    return [Subgroup(G, k) for k in sorted(found, key=lambda t: (len(t), t))]


# ---------------------------------------------------------------------------
# quotients and commutators

def quotient_group(K: Subgroup, H: Subgroup) -> tuple[TableGroup, dict[int, int]]:
    """Coset table of K/H (H normal in K) and the member -> coset map."""
    G = K.group
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for k in K.members:
        if k in coset_of:
            continue
        ci = len(reps)
        reps.append(k)
        for h in H.members:
            coset_of[G.mul(k, h)] = ci
    table = [[coset_of[G.mul(a, b)] for b in reps] for a in reps]
    return TableGroup(table, name="quotient"), coset_of


def all_pairs_derived_subgroup(H: Subgroup) -> Subgroup:
    """[H, H], as the subgroup generated by every commutator a b a^-1 b^-1
    of H."""
    G = H.group
    return Subgroup(G, subgroup_closure(G, [
        G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b)))
        for a in H.members for b in H.members]))


# ---------------------------------------------------------------------------
# the reference route: the complex character table over Z[zeta_e]

def cyclotomic_polynomial(e: int) -> list[int]:
    """Coefficients of Phi_e, low degree first, for e = 1 or a prime power
    q^k, the exponents of p-groups: Phi_1 = x - 1 and
    Phi_{q^k}(x) = Phi_q(x^(q^(k-1))) = sum_{i<q} x^(i q^(k-1))."""
    if e == 1:
        return [-1, 1]
    q = next(d for d in range(2, e + 1) if e % d == 0)
    step = e // q
    return [int(j % step == 0) for j in range(e - step + 1)]


class CycloContext:
    """The power table of Z[zeta_e]: row j is zeta_e^j in the power basis
    1, zeta, ..., zeta^(phi(e)-1), for j up to the degree of a product of
    two power-basis vectors and up to e - 1."""

    _cache: dict[int, "CycloContext"] = {}

    def __init__(self, e: int):
        phi_poly = cyclotomic_polynomial(e)
        self.phi = phi = len(phi_poly) - 1
        powers = [tuple(int(i == j) for i in range(phi)) for j in range(phi)]
        for _ in range(phi, max(e - 1, 2 * phi - 2) + 1):
            prev = powers[-1]
            carry = prev[-1]  # x^phi == -(low part of Phi_e)
            powers.append(tuple(a - carry * c for a, c in zip((0,) + prev[:-1], phi_poly)))
        self.powers = powers

    @classmethod
    def get(cls, e: int) -> "CycloContext":
        if e not in cls._cache:
            cls._cache[e] = CycloContext(e)
        return cls._cache[e]


class CyclotomicInteger:
    """Element of Z[zeta_e] in the power basis; equal and hashed by value."""

    def __init__(self, order: int, coeffs: tuple[int, ...]):
        self.order = order
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return (self.order, self.coeffs) == (other.order, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicInteger({self.order}, {self.coeffs})"

    def __add__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        return CyclotomicInteger(self.order, tuple(map(sum, zip(self.coeffs, other.coeffs))))

    def __mul__(self, other) -> "CyclotomicInteger":
        if isinstance(other, int):
            return CyclotomicInteger(self.order, tuple(a * other for a in self.coeffs))
        ctx = CycloContext.get(self.order)
        conv = [0] * (2 * ctx.phi - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                if a and b:
                    conv[i + j] += a * b
        out = conv[:ctx.phi]
        for j in range(ctx.phi, len(conv)):
            for k, v in enumerate(ctx.powers[j]):
                out[k] += conv[j] * v
        return CyclotomicInteger(self.order, tuple(out))

    __rmul__ = __mul__

    def as_rational_int(self) -> int | None:
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None


def cyclo_zero(e: int) -> CyclotomicInteger:
    """0 in Z[zeta_e]."""
    return CyclotomicInteger(e, (0,) * CycloContext.get(e).phi)


def zeta_power(e: int, k: int) -> CyclotomicInteger:
    """zeta_e^k in the power basis."""
    return CyclotomicInteger(e, CycloContext.get(e).powers[k % e])


class ReferenceCharacter:
    """An irreducible complex character: one value in Z[zeta_e] per class."""

    def __init__(self, classes, values: tuple[CyclotomicInteger, ...], degree: int):
        self.group = classes.group
        self.classes = classes
        self.values = values
        self.degree = degree

    def sort_key(self):
        return (self.degree, tuple(v.coeffs for v in self.values))


def value_at(chi, a: int) -> CyclotomicInteger:
    """chi at the group element a."""
    return chi.values[chi.classes.class_of[a]]


def linear_exponents(H, lam) -> dict[int, int]:
    """h -> i with h in g^i K, for a g whose coset generates H/K: the
    linear characters of H in lam's Galois class are h -> zeta_m^(i j), j
    prime to m = lam.modulus."""
    K = lam.K
    G = H.group
    for g in H.members:
        powers = [G.identity]
        while (x := G.mul(powers[-1], g)) not in K.member_set:
            powers.append(x)
        if len(powers) == lam.modulus:
            return {G.mul(x, k): i for i, x in enumerate(powers) for k in K.members}
    raise MalformedInput("H/K is not cyclic")


def object_induced_values(H, exponents: dict[int, int], modulus: int, classes,
                          e: int) -> tuple[CyclotomicInteger, ...]:
    """Ind_H^G of the linear character h -> zeta_modulus^exponents[h] at
    each class rep g, one CyclotomicInteger addition per coset
    representative x with x^-1 g x in H."""
    G = H.group
    hset = set(H.members)
    reps = []
    seen = set()
    for g in G.elements():
        if g not in seen:
            reps.append(g)
            seen.update(G.mul(g, h) for h in H.members)
    scale = e // modulus
    values = []
    for cls in classes.classes:
        g = cls[0]
        acc = cyclo_zero(e)
        for x in reps:
            y = G.mul(G.mul(G.inv(x), g), x)
            if y in hset:
                acc = acc + zeta_power(e, scale * exponents[y])
        values.append(acc)
    return tuple(values)


def object_inner_product_times_order(chi_vals, psi_vals, classes) -> CyclotomicInteger:
    """|G| * <chi, psi> = sum_g chi(g) psi(g^-1), one reduced product per
    class."""
    G = classes.group
    acc = cyclo_zero(chi_vals[0].order)
    for ci, cls in enumerate(classes.classes):
        inverse = classes.class_of[G.inv(cls[0])]
        acc = acc + len(cls) * (chi_vals[ci] * psi_vals[inverse])
    return acc


def group_exponent(G: FiniteGroup) -> int:
    return max(G.element_order(a) for a in G.elements())


def reference_characters(G: FiniteGroup, subgroups=None) -> list[ReferenceCharacter]:
    """The irreducible characters of the p-group G, sorted: the linear
    characters of the subgroups are induced, from the largest subgroup
    down, and the results of norm one are kept until their squared degrees
    sum to |G|."""
    from qdp.characters import ElementClasses, linear_characters
    from qdp.groups import subgroups_of_p_group, whole_group

    classes = ElementClasses(G)
    e = group_exponent(G)
    subgroups = subgroups or subgroups_of_p_group(whole_group(G))
    table = {}
    for H in sorted(subgroups, key=lambda S: -S.order):
        for lam in linear_characters(H, subgroups):
            exponents = linear_exponents(H, lam)
            m = lam.modulus
            for j in range(m):
                if math.gcd(j, m) == 1 and sum(c.degree ** 2 for c in table.values()) < G.order:
                    vals = object_induced_values(
                        H, {h: i * j % m for h, i in exponents.items()}, m, classes, e)
                    norm = object_inner_product_times_order(vals, vals, classes)
                    if norm.as_rational_int() == G.order:
                        degree = vals[classes.identity_class].as_rational_int()
                        table[vals] = ReferenceCharacter(classes, vals, degree)
    assert sum(c.degree ** 2 for c in table.values()) == G.order
    return sorted(table.values(), key=ReferenceCharacter.sort_key)


def object_fixed_dimension(chi, H) -> int:
    """<res_H chi, 1>, adding chi(h) for every member h of H."""
    acc = cyclo_zero(chi.values[0].order)
    for h in H.members:
        acc = acc + value_at(chi, h)
    r = acc.as_rational_int()
    if r is None or r % H.order or r < 0:
        raise QdpError(f"character average over subgroup is {acc}, not an integer")
    return r // H.order


def object_frobenius_schur(chi) -> int:
    """(1/|G|) sum_g chi(g^2), adding chi(g^2) for every g."""
    G = chi.group
    acc = cyclo_zero(chi.values[0].order)
    for g in G.elements():
        acc = acc + value_at(chi, G.mul(g, g))
    r = acc.as_rational_int()
    if r is None or r % G.order:
        raise QdpError("Frobenius-Schur sum is not an integer multiple of |G|")
    ind = r // G.order
    if ind not in (-1, 0, 1):
        raise QdpError(f"Frobenius-Schur indicator {ind} is not -1, 0 or 1")
    return ind


def galois_trace(values) -> tuple[int, ...]:
    """sum over k prime to e of sigma_k(v), zeta -> zeta^k, for each value v
    in Z[zeta_e]: the power-basis vector dotted with the traces of the
    powers of zeta."""
    e = values[0].order
    ks = [k for k in range(e) if math.gcd(k, e) == 1]
    traces = [sum((zeta_power(e, i * k) for k in ks), cyclo_zero(e)).as_rational_int()
              for i in range(len(values[0].coeffs))]
    return tuple(sum(c * t for c, t in zip(v.coeffs, traces)) for v in values)


def reference_real_basis(G: FiniteGroup, lattice) -> dict[tuple[int, ...], tuple[str, int]]:
    """fixed-dimension vector -> (realness, real degree) of each irreducible
    real representation of G, from the complex table: a character with
    Frobenius-Schur indicator 1 is real, -1 quaternionic and 0 one of a
    complex pair whose partner, its complex conjugate, is in the table; the
    last two are realified by doubling."""
    chars = reference_characters(G)
    by_values = {chi.values: chi for chi in chars}
    out = {}
    for chi in chars:
        ind = object_frobenius_schur(chi)
        if ind == 0:
            inverse = [chi.classes.class_of[G.inv(cls[0])] for cls in chi.classes.classes]
            partner = by_values.get(tuple(chi.values[c] for c in inverse))
            assert partner is not None and partner is not chi, "no conjugate partner"
        mult = 1 if ind == 1 else 2
        vector = tuple(mult * object_fixed_dimension(chi, cls[0]) for cls in lattice.classes)
        realness = {1: "real", 0: "complex_pair", -1: "quaternionic"}[ind]
        assert out.setdefault(vector, (realness, mult * chi.degree)) == \
            (realness, mult * chi.degree), f"two real types for the vector {vector}"
    return out


def relabelled(G: FiniteGroup, seed) -> tuple[TableGroup, list[int]]:
    """G with its elements renumbered by a seeded permutation, and the
    permutation: element a of G is element perm[a] of the copy, whose
    identity is not element 0 unless |G| = 1."""
    perm = list(G.elements())
    random.Random(seed).shuffle(perm)
    if perm[G.identity] == 0 and G.order > 1:
        other = (G.identity + 1) % G.order
        perm[G.identity], perm[other] = perm[other], perm[G.identity]
    table = [[0] * G.order for _ in G.elements()]
    for a in G.elements():
        for b in G.elements():
            table[perm[a]][perm[b]] = perm[G.mul(a, b)]
    return TableGroup(table, name=f"{G.name}~"), perm


def superclassfunction_to_json(tau) -> dict:
    """The tau file of a super class function: its group, its prime and
    one value per class, named by the class's least member tuple."""
    return {
        "schema": "1",
        "group": tau.lattice.group.to_json(),
        "p": tau.lattice.prime,
        "values": [{"class_rep": list(cls[0].members), "value": v}
                   for cls, v in zip(tau.lattice.classes, tau.values)],
    }


def bench_corpus_files(seed: int) -> dict:
    """The files of the benchmark's corpus workload at `seed`, parsed: the
    relabelled group tables, tau files and models."""
    import importlib.util
    import json
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    return {name: json.loads(text) for name, text in gen.generate("corpus", seed).files.items()}


# ---------------------------------------------------------------------------
# realization by bounded search

def dfs_realization(tau, basis) -> dict[int, int] | None:
    """Nonnegative multiplicities over `basis` with exact sum tau, or None,
    by a complete DFS: every fixed-dimension vector is nonnegative and has
    positive value at the trivial subgroup, so multiplicities are bounded
    and pointwise-nonnegative residuals prune exactly.  Entries are tried
    by decreasing degree, stably, and each with its largest multiplicity
    first."""
    lat = tau.lattice
    vectors = [entry.fixed_dimension_vector(lat) for entry in basis]
    triv = lat.class_of(Subgroup(lat.group, (lat.group.identity,)))
    order = sorted(range(len(basis)), key=lambda i: -vectors[i][triv])
    result: dict[int, int] = {}

    def dfs(k: int, residual: tuple[int, ...]) -> bool:
        if all(v == 0 for v in residual):
            return True
        if k == len(order):
            return False
        idx = order[k]
        vec = vectors[idx]
        for c in range(residual[triv] // vec[triv], -1, -1):
            nxt = tuple(r - c * vec[i] for i, r in enumerate(residual))
            if any(v < 0 for v in nxt):
                continue
            if c:
                result[idx] = c
            if dfs(k + 1, nxt):
                return True
            result.pop(idx, None)
        return False

    return dict(sorted(result.items())) if dfs(0, tau.values) else None


# ---------------------------------------------------------------------------
# join bookkeeping on ranks

def fix_join_rule(r1: int, r2: int) -> int:
    """Sphere rank of the join: r1 + r2 + 1; the empty sphere (-1) is the
    identity."""
    if r1 < -1 or r2 < -1:
        raise MalformedInput("ranks are >= -1")
    return r1 + r2 + 1


def join_model(M1: TwoRowModule, M2: TwoRowModule) -> TwoRowModule:
    """Model of the fiber join of two models over the same prime.

    Both nonzero differentials multiply (the join Euler class is the
    product); both zero differentials convolve the g_n structure constants
    (transporting operations through the boundary map kills every
    component except the one on the product of top generators).  Mixed
    split/nonsplit joins are not modeled.
    """
    if M1.p != M2.p:
        raise QdpError("join needs a common prime")
    M1.validate()
    M2.validate()
    p = M1.p
    n = M1.n + M2.n + 1
    if (M1.differential is None) != (M2.differential is None):
        raise QdpError("mixed split/nonsplit joins are not modeled; "
                       "use fix_join_rule on the ranks instead")
    if M1.differential is not None:
        lam = (M1.differential[0] * M2.differential[0]) % p
        a = M1.differential[1] + M2.differential[1]
        return TwoRowModule(p=p, n=n, differential=(lam, a))
    top = n if p == 2 else n // 2
    powers: dict[int, tuple[int, int]] = {}
    for i in range(1, top + 1):
        acc = 0
        for j in range(i + 1):
            q1 = 1 if j == 0 else M1.powers.get(j, (0, 0))[1]
            q2 = 1 if i - j == 0 else M2.powers.get(i - j, (0, 0))[1]
            acc += q1 * q2
        if acc % p:
            powers[i] = (0, acc % p)
    return TwoRowModule(p=p, n=n, differential=None, bockstein_g0=0,
                        powers=powers)


def m_fold_join_model(M: TwoRowModule, m: int) -> TwoRowModule:
    if m < 1:
        raise MalformedInput("need m >= 1")
    out = M
    for _ in range(m - 1):
        out = join_model(out, M)
    return out


# ---------------------------------------------------------------------------
# localized fixed-point ranks through element-level images

def _images(p: int, op_bound: int, f_alpha: TwoRowLocalElement,
            f_gamma: TwoRowLocalElement):
    """Images of the two basis elements under beta (odd p), then P^1 ..
    P^op_bound, computed one operation at a time."""
    if p != 2:
        yield module_bockstein(f_alpha), module_bockstein(f_gamma)
    for i in range(1, op_bound + 1):
        yield module_power(i, f_alpha), module_power(i, f_gamma)


def _annihilating_alpha(p: int, images) -> tuple[int | None, int] | None:
    """Solve for alpha with alpha * f_alpha + f_gamma annihilated.

    Each image pair is linear in (alpha, gamma); every nonzero slot gives an
    equation c_alpha * alpha + c_gamma = 0.  Returns None at the first
    contradiction; otherwise (alpha, or None when no equation pins it, and
    the number of images)."""
    alpha = None
    count = 0
    for count, (ia, ig) in enumerate(images, 1):
        for ta, tg in ((ia.c0.terms, ig.c0.terms), (ia.cn.terms, ig.cn.terms)):
            for s in set(ta) | set(tg):
                ca = ta.get(s, 0) % p
                cg = tg.get(s, 0) % p
                if ca:
                    val = (-cg * pow(ca, -1, p)) % p
                    if alpha is None:
                        alpha = val
                    elif alpha != val:
                        return None
                elif cg:
                    return None
    return alpha, count


def image_fix_rank(M: TwoRowModule) -> FixResult:
    """fix_rank with each degree's equations read off the images of the two
    basis elements under module_bockstein and module_power, slot by slot:
    the route the scalar equations of `fixrank` are compared against."""
    M.validate()
    p, n = M.p, M.n
    if M.differential is not None:
        return FixResult(-1, None, True, 0)
    op_bound = _op_bound(p, n)
    for r in range(n, -1, -1):
        mono_gn = RankOneElement.canonical(p, r - n)
        f_alpha = TwoRowLocalElement(M, RankOneElement.canonical(p, r),
                                     RankOneElement.zero(p))
        f_gamma = TwoRowLocalElement(M, RankOneElement.zero(p), mono_gn)
        solved = _annihilating_alpha(p, _images(p, op_bound, f_alpha, f_gamma))
        if solved is None:
            continue
        alpha, checked_ops = solved
        witness = TwoRowLocalElement(
            M, RankOneElement.canonical(p, r) * (alpha or 0), mono_gn)
        return FixResult(r, witness, alpha is not None or r == 0, checked_ops)
    raise QdpError("no annihilated line with g_n-component")


# ---------------------------------------------------------------------------
# Euler classes of joins

def euler_join(classes: list) -> GradedElement:
    """Product of Euler classes under fiber join: graded elements multiply
    (homogeneity required)."""
    if not classes:
        raise MalformedInput("need at least one Euler class")
    if not all(isinstance(c, GradedElement) for c in classes):
        raise MalformedInput("Euler classes must be graded elements")
    out = classes[0]
    out.degree()  # homogeneity check, raises QdpError
    for c in classes[1:]:
        c.degree()
        out = out * c
    return out


def non_nilpotent(e: GradedElement) -> bool:
    """Exact: an element is non-nilpotent iff its polynomial part is
    nonzero (the exterior ideal squares to zero sector by sector, while a
    nonzero polynomial part survives in every power because the polynomial
    subring is a domain)."""
    return any(m[2] == 0 and m[3] == 0 for m in e.terms)


# ---------------------------------------------------------------------------
# the SL2(p) action on F_p[x, y] (x) Lambda(u, v)

def sl2_act(A, a: GradedElement) -> GradedElement:
    """Ring automorphism from A in SL2(p): the substitution
    u -> A00 u + A10 v, v -> A01 u + A11 v and the same matrix on (x, y),
    so that beta and every P^i commute with the action and
    sl2_act(A) o sl2_act(B) = sl2_act(AB)."""
    p = a.p
    flat = [x % p for row in A for x in row]
    if len(flat) != 4:
        raise MalformedInput("need a 2x2 matrix")
    a00, a01, a10, a11 = flat
    if (a00 * a11 - a01 * a10) % p != 1:
        raise QdpError(f"det {A} != 1 mod {p}")

    x_img = GradedElement(p, {(1, 0, 0, 0): a00, (0, 1, 0, 0): a10})
    y_img = GradedElement(p, {(1, 0, 0, 0): a01, (0, 1, 0, 0): a11})
    u_img = GradedElement(p, {(0, 0, 1, 0): a00, (0, 0, 0, 1): a10})
    v_img = GradedElement(p, {(0, 0, 1, 0): a01, (0, 0, 0, 1): a11})

    # x_pows[j] and y_pows[j] are the images of x^j and y^j, each built once
    x_pows, y_pows = [GradedElement.one(p)], [GradedElement.one(p)]
    for m in a.terms:
        while len(x_pows) <= m[0]:
            x_pows.append(x_pows[-1] * x_img)
        while len(y_pows) <= m[1]:
            y_pows.append(y_pows[-1] * y_img)

    out: dict = {}
    for (x, y, eu, ev), c in a.terms.items():
        term = x_pows[x] * y_pows[y]
        if eu:
            term = term * u_img
        if ev:
            term = term * v_img
        for m, tc in term.terms.items():
            out[m] = out.get(m, 0) + c * tc
    return GradedElement(p, out)
