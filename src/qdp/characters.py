"""Irreducible characters of p-groups, exactly, and their real forms.

p-groups are monomial: every irreducible complex character is induced from
a linear character of some subgroup.  We induce the linear characters of
the subgroups from the largest down, keep the norm-one results (genuine
characters, so irreducible) until their squared degrees sum to |P|, which
makes them the whole table, and certify it by sum-of-squares and exact
pairwise orthogonality.  The linear characters of a subgroup H are the
faithful characters of its cyclic quotients H/K, K running over the same
subgroup list (`linear_characters`).  All values live in the ring of
cyclotomic integers Z[zeta_e], e = exp(P), represented as integer vectors
in the power basis of Z[x]/(Phi_e); no floating point anywhere.  The
pairwise check evaluates the table in F_ell^phi(e) for a prime
ell = 1 (mod e) above a bound on the inner products' coefficients, which
keeps it exact (`_check_orthogonal`).

The kernels add up on those integer vectors and make one
CyclotomicInteger per result: an induced value sums rows of the power
table; an inner product convolves the class-weighted products into one
unreduced coefficient list and reduces it by Phi_e once; a fixed
dimension and a Frobenius-Schur indicator weight each class value by a
member count (of H in the class, resp. of the g with g^2 in it) instead
of adding one value per group element.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import mul

from .errors import DomainMismatch, IncompleteInduction, NonIntegral, NotPGroup, SizeGuard
from .groups import (
    FiniteGroup,
    Subgroup,
    _unique_prime,
    element_conjugacy_classes,
    is_normal_in,
    is_prime,
    subgroups_of_p_group,
    whole_group,
)


# ---------------------------------------------------------------------------
# cyclotomic integers

def cyclotomic_polynomial(e: int) -> list[int]:
    """Coefficients of Phi_e, low degree first, for e = 1 or a prime power
    q^k, the exponents of p-groups: Phi_1 = x - 1 and
    Phi_{q^k}(x) = Phi_q(x^(q^(k-1))) = sum_{i<q} x^(i q^(k-1))."""
    if e == 1:
        return [-1, 1]
    step = e // _unique_prime(e)
    return [int(j % step == 0) for j in range(e - step + 1)]


class _CycloContext:
    _cache: dict[int, "_CycloContext"] = {}

    def __init__(self, e: int):
        phi_poly = cyclotomic_polynomial(e)
        self.e = e
        self.phi = len(phi_poly) - 1
        # x^phi == -(low part of Phi_e); extend the power table far enough
        # for degree-(2 phi - 2) products and for zeta_e^k, k < e.
        top = max(e - 1, 2 * self.phi - 2)
        powers: list[tuple[int, ...]] = []
        for j in range(self.phi):
            vec = [0] * self.phi
            vec[j] = 1
            powers.append(tuple(vec))
        for j in range(self.phi, top + 1):
            prev = powers[j - 1]
            shifted = [0] + list(prev[:-1])
            carry = prev[-1]
            if carry:
                for k in range(self.phi):
                    shifted[k] -= carry * phi_poly[k]
            powers.append(tuple(shifted))
        self.powers = powers

    @classmethod
    def get(cls, e: int) -> "_CycloContext":
        if e not in cls._cache:
            cls._cache[e] = _CycloContext(e)
        return cls._cache[e]


class CyclotomicInteger:
    """Element of Z[zeta_e] in the power basis 1, zeta, ..., zeta^(phi(e)-1);
    equal and hashed by value, never mutated."""

    def __init__(self, order: int, coeffs: tuple[int, ...]):
        self.order = order
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicInteger({self.order}, {self.coeffs})"

    def __add__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        if self.order != other.order:
            raise DomainMismatch(f"cyclotomic orders {self.order} and {other.order}")
        return CyclotomicInteger(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        if self.order != other.order:
            raise DomainMismatch(f"cyclotomic orders {self.order} and {other.order}")
        return CyclotomicInteger(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "CyclotomicInteger":
        if isinstance(other, int):
            return CyclotomicInteger(self.order, tuple(a * other for a in self.coeffs))
        if self.order != other.order:
            raise DomainMismatch(f"cyclotomic orders {self.order} and {other.order}")
        ctx = _CycloContext.get(self.order)
        conv = [0] * (2 * ctx.phi - 1)
        _add_product(conv, 1, self.coeffs, other.coeffs)
        return CyclotomicInteger(self.order, _reduced(ctx, conv))

    __rmul__ = __mul__

    def as_rational_int(self) -> int | None:
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None


# ---------------------------------------------------------------------------
# conjugacy classes of elements

class ElementClasses:
    def __init__(self, group: FiniteGroup, classes: tuple[tuple[int, ...], ...],
                 class_of: tuple[int, ...], inv_class: tuple[int, ...]):
        self.group = group
        self.classes = classes
        self.class_of = class_of
        self.inv_class = inv_class
        self._in_subgroup: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._squares: tuple[int, ...] | None = None

    @staticmethod
    def compute(G: FiniteGroup) -> "ElementClasses":
        classes = tuple(tuple(c) for c in element_conjugacy_classes(G))
        class_of = [0] * G.order
        for ci, cls in enumerate(classes):
            for a in cls:
                class_of[a] = ci
        inv_class = tuple(class_of[G.inv(cls[0])] for cls in classes)
        return ElementClasses(G, classes, tuple(class_of), inv_class)

    @property
    def identity_class(self) -> int:
        return self.class_of[self.group.identity]

    def count_in(self, H: Subgroup) -> tuple[int, ...]:
        """|H n C| for each class C, counted once per subgroup."""
        counts = self._in_subgroup.get(H.members)
        if counts is None:
            tally = [0] * len(self.classes)
            for h in H.members:
                tally[self.class_of[h]] += 1
            counts = self._in_subgroup[H.members] = tuple(tally)
        return counts

    def count_squares(self) -> tuple[int, ...]:
        """The number of g with g^2 in C for each class C, counted once."""
        if self._squares is None:
            G = self.group
            tally = [0] * len(self.classes)
            for g in G.elements():
                tally[self.class_of[G.mul(g, g)]] += 1
            self._squares = tuple(tally)
        return self._squares


# ---------------------------------------------------------------------------
# linear characters from the subgroup lattice

class LinearCharacter:
    """zeta_modulus^(exponent) valued homomorphism, stored by exponents."""

    def __init__(self, modulus: int, exponents: dict[int, int]):
        self.modulus = modulus
        self.exponents = exponents  # parent-group element -> exponent mod modulus


def linear_characters(H: Subgroup, subgroups: Sequence[Subgroup]) -> list[LinearCharacter]:
    """Every linear character of H, each once; `subgroups` must hold every
    normal subgroup of H, as the subgroup list of a p-group containing H does.

    The image of a linear character is a finite subgroup of C^x, so its
    kernel K is normal in H with H/K cyclic, and it is a faithful character
    of H/K; conversely every faithful character of a cyclic H/K is linear on
    H.  So each such K, with gK of order m = |H : K|, contributes
    g^i k -> zeta_m^(i j) for each j prime to m."""
    G = H.group
    hset = H.member_set
    out = []
    for K in subgroups:
        if not hset.issuperset(K.members) or not is_normal_in(K, H):
            continue
        m = H.order // K.order
        kset = K.member_set
        for g in H.members:
            powers = [G.identity]  # g^i for i below the order of gK
            while (x := G.mul(powers[-1], g)) not in kset:
                powers.append(x)
            if len(powers) == m:
                break
        else:
            continue  # H/K is not cyclic
        exponents = {G.mul(x, k): i for i, x in enumerate(powers) for k in K.members}
        out += [LinearCharacter(m, {h: i * j % m for h, i in exponents.items()})
                for j in range(m) if math.gcd(j, m) == 1]
    return out


# ---------------------------------------------------------------------------
# characters of the whole p-group

class Character:
    def __init__(self, group: FiniteGroup, classes: ElementClasses,
                 values: tuple[CyclotomicInteger, ...], degree: int):
        self.group = group
        self.classes = classes
        self.values = values
        self.degree = degree
        # power-basis coordinate k of every class value, for _class_sum
        self.columns = tuple(zip(*(v.coeffs for v in values)))

    def sort_key(self):
        return (self.degree, tuple(v.coeffs for v in self.values))


def _inner_product_times_order(chi_vals, psi_vals, classes: ElementClasses) -> CyclotomicInteger:
    """|G| * <chi, psi> = sum_g chi(g) psi(g^-1): one exact product per
    class, weighted by the class size, convolved into one coefficient list
    of degree below 2 phi(e) - 1 and reduced by Phi_e once."""
    e = chi_vals[0].order
    ctx = _CycloContext.get(e)
    conv = [0] * (2 * ctx.phi - 1)
    for ci, cls in enumerate(classes.classes):
        _add_product(conv, len(cls), chi_vals[ci].coeffs,
                     psi_vals[classes.inv_class[ci]].coeffs)
    return CyclotomicInteger(e, _reduced(ctx, conv))


def _add_product(conv: list[int], weight: int, a: Sequence[int], b: Sequence[int]) -> None:
    """conv += weight * a * b, the product of two power-basis vectors as an
    unreduced polynomial."""
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            x *= weight
            for j, y in terms:
                conv[i + j] += x * y


def _reduced(ctx: _CycloContext, conv: list[int]) -> tuple[int, ...]:
    """A polynomial of degree below 2 phi(e) - 1 in the power basis: each
    x^j with j >= phi(e) is replaced by its power-table row."""
    phi = ctx.phi
    out = conv[:phi]
    for j in range(phi, len(conv)):
        c = conv[j]
        if c:
            for k, v in enumerate(ctx.powers[j]):
                out[k] += c * v
    return tuple(out)


def _evaluation_rows(e: int, bound: int) -> tuple[int, list[list[int]]]:
    """The least prime ell = 1 (mod e) above 2 * bound, and for each k prime
    to e the row (omega^(k*i) mod ell), i < phi(e), with omega a primitive
    e-th root of unity mod ell.  Row k dotted with a power-basis vector is
    the vector's image under zeta -> omega^k.  e is 1 or a prime power."""
    ell = 2 * bound // e * e + 1
    while ell <= 2 * bound or not is_prime(ell):
        ell += e
    omega = 1
    if e > 1:
        # g^((ell-1)/e) is a primitive e-th root unless its (e/q)-th power,
        # g^((ell-1)/q), is 1
        q = _unique_prime(e)
        g = 2
        while pow(g, (ell - 1) // q, ell) == 1:
            g += 1
        omega = pow(g, (ell - 1) // e, ell)
    powers = [1] * e
    for j in range(1, e):
        powers[j] = powers[j - 1] * omega % ell
    phi = _CycloContext.get(e).phi
    rows = [[powers[k * i % e] for i in range(phi)]
            for k in range(e) if math.gcd(k, e) == 1]
    return ell, rows


def _check_orthogonal(chars: Sequence[Sequence[CyclotomicInteger]],
                      classes: ElementClasses, e: int, n: int) -> None:
    """Raise IncompleteInduction unless |G| * <chi, psi> = 0 for every pair
    of distinct entries of `chars`, value tuples (one per class) in
    Z[zeta_e] of a group of order n.

    The check is exact but computed in F_ell^phi(e).  Let M be the largest
    |entry| of the power table of Z[zeta_e] (at least 1: the table starts
    with the unit vectors) and A the largest l1-norm of a power-basis value
    in the table.  A product of two values has coefficients of size at most
    M * A^2, so |G| * <chi, psi>, a sum of n of them, has coefficients of
    size at most B = M * n * A^2.  Take a prime ell = 1 (mod e) above 2B and
    a primitive e-th root omega mod ell.  Then Phi_e splits mod ell into the
    distinct factors x - omega^k, k prime to e, so by the Chinese remainder
    theorem zeta -> (omega^k)_k maps Z[zeta_e] onto F_ell^phi(e) with kernel
    ell * Z[zeta_e].  An inner product with coefficients inside
    (-ell/2, ell/2) is in that kernel only if it is zero: it is zero exactly
    when all of its images are."""
    m = max(abs(c) for vec in _CycloContext.get(e).powers for c in vec)
    a = max((sum(map(abs, v.coeffs)) for vals in chars for v in vals), default=0)
    ell, rows = _evaluation_rows(e, m * n * a * a)
    sizes = [len(cls) for cls in classes.classes]
    # per character and per k: class-size-weighted images, and the images
    # at inverse classes, so a pair costs one dot product per k
    weighted = []
    at_inverse = []
    for vals in chars:
        images = [[sum(map(mul, v.coeffs, row)) % ell for v in vals] for row in rows]
        weighted.append([[s * x % ell for s, x in zip(sizes, img)] for img in images])
        at_inverse.append([[img[c] for c in classes.inv_class] for img in images])
    for i, chi in enumerate(weighted):
        for psi in at_inverse[i + 1:]:
            if any(sum(map(mul, w, c)) % ell for w, c in zip(chi, psi)):
                raise IncompleteInduction("distinct characters not orthogonal")


def group_exponent(G: FiniteGroup) -> int:
    return max(G.element_order(a) for a in G.elements())


def induced_values(H: Subgroup, lam: LinearCharacter, classes: ElementClasses,
                   e: int) -> tuple[CyclotomicInteger, ...]:
    """Ind_H^G lam at each class rep g: the sum of lam(x^-1 g x) over the
    left coset representatives x of H with x^-1 g x in H.  Each term is a
    root of unity zeta_e^k, the power-table row k; a class's rows are added
    up as integer vectors and make one CyclotomicInteger."""
    G = H.group
    mul = G.mul
    hset = H.member_set
    reps = []
    seen = set()
    for g in G.elements():
        if g not in seen:
            reps.append((G.inv(g), g))
            seen.update([mul(g, h) for h in H.members])
    scale = e // lam.modulus
    exponents = lam.exponents
    ctx = _CycloContext.get(e)
    powers = ctx.powers
    zero = (0,) * ctx.phi  # the sum of no rows
    values = []
    for cls in classes.classes:
        g = cls[0]
        rows = [powers[scale * exponents[y]] for xi, x in reps
                if (y := mul(mul(xi, g), x)) in hset]
        values.append(CyclotomicInteger(e, tuple(map(sum, zip(zero, *rows)))))
    return tuple(values)


def irreducible_characters(P: FiniteGroup,
                           subgroups: Sequence[Subgroup] = ()) -> list[Character]:
    """The full irreducible character list, certified complete.  The
    subgroups of P, enumerated here unless `subgroups` gives them, are both
    where characters are induced from and the kernels their linear
    characters are read off."""
    if P.order > 1:  # the trivial group counts as a p-group
        try:
            _unique_prime(P.order)
        except SizeGuard:
            raise NotPGroup(f"|G| = {P.order} is not a prime power")
    classes = ElementClasses.compute(P)
    e = group_exponent(P)
    n = P.order

    subgroups = subgroups or subgroups_of_p_group(whole_group(P))
    inductions = ((H, lam) for H in sorted(subgroups, key=lambda S: -S.order)
                  for lam in linear_characters(H, subgroups))
    seen: set[tuple] = set()
    irreducible = []
    squares = 0
    for H, lam in inductions:
        vals = induced_values(H, lam, classes, e)
        key = tuple(v.coeffs for v in vals)
        if key in seen:
            continue
        seen.add(key)
        norm = _inner_product_times_order(vals, vals, classes).as_rational_int()
        if norm == n:
            deg = vals[classes.identity_class].as_rational_int()
            if deg is None or deg < 1:
                raise NonIntegral(f"irreducible character of degree {deg}")
            irreducible.append(Character(P, classes, vals, deg))
            squares += deg * deg
            if squares >= n:
                break

    irreducible.sort(key=Character.sort_key)
    if sum(chi.degree ** 2 for chi in irreducible) != n:
        raise IncompleteInduction(
            f"induction found degrees {[c.degree for c in irreducible]} "
            f"with sum of squares != {n}")
    _check_orthogonal([chi.values for chi in irreducible], classes, e, n)
    return irreducible


def _class_sum(chi: Character, counts: Sequence[int]) -> CyclotomicInteger:
    """sum over classes c of counts[c] * chi(c): per power-basis
    coordinate, one integer dot product over the classes."""
    return CyclotomicInteger(chi.values[0].order, tuple(
        sum(map(mul, counts, column)) for column in chi.columns))


def fixed_dimension(chi: Character, H: Subgroup) -> int:
    """dim of the fixed subspace of H, i.e. <res_H chi, 1> exactly: the sum
    of n_c chi(c) over the classes c, n_c = |H n c|, divided by |H|."""
    acc = _class_sum(chi, chi.classes.count_in(H))
    r = acc.as_rational_int()
    if r is None or r % H.order or r < 0:
        raise NonIntegral(f"character average over subgroup is {acc}, not an integer")
    return r // H.order


def frobenius_schur(chi: Character) -> int:
    """(1/|G|) sum_g chi(g^2): the sum of n_c chi(c) over the classes c,
    n_c the number of g with g^2 in c."""
    G = chi.group
    acc = _class_sum(chi, chi.classes.count_squares())
    r = acc.as_rational_int()
    if r is None or r % G.order:
        raise NonIntegral("Frobenius-Schur sum is not an integer multiple of |G|")
    ind = r // G.order
    if ind not in (-1, 0, 1):
        raise NonIntegral(f"Frobenius-Schur indicator {ind} is not -1, 0 or 1")
    return ind


REAL = "real"
COMPLEX_PAIR = "complex_pair"
QUATERNIONIC = "quaternionic"


class RealBasisEntry:
    """An irreducible real representation: a complex irreducible plus its
    realness type; complex pairs and quaternionic types are realified by
    doubling."""

    def __init__(self, character: Character, realness: str):
        self.character = character
        self.realness = realness

    @property
    def real_degree(self) -> int:
        return self.character.degree * (1 if self.realness == REAL else 2)

    @property
    def multiplier(self) -> int:
        return 1 if self.realness == REAL else 2

    def fixed_dimension_vector(self, lattice) -> tuple[int, ...]:
        """Fixed-space dimensions of the realified representation, one per
        p-subgroup conjugacy class of the lattice."""
        return tuple(self.multiplier * fixed_dimension(self.character, cls[0])
                     for cls in lattice.classes)


def real_representation_basis(P: FiniteGroup,
                              subgroups: Sequence[Subgroup] = ()) -> list[RealBasisEntry]:
    chars = irreducible_characters(P, subgroups=subgroups)
    classes = chars[0].classes if chars else ElementClasses.compute(P)
    entries: list[RealBasisEntry] = []
    used = set()
    # the characters' value tuples are distinct (irreducible_characters
    # keeps each once), so a dict finds the conjugate's index
    index = {tuple(v.coeffs for v in chi.values): j for j, chi in enumerate(chars)}
    for i, chi in enumerate(chars):
        if i in used:
            continue
        nu = frobenius_schur(chi)
        if nu == 1:
            entries.append(RealBasisEntry(chi, REAL))
        elif nu == -1:
            entries.append(RealBasisEntry(chi, QUATERNIONIC))
        else:
            partner = index.get(tuple(chi.values[c].coeffs for c in classes.inv_class))
            if partner is None or partner == i or partner in used:
                raise IncompleteInduction("complex character without conjugate partner")
            used.add(partner)
            entries.append(RealBasisEntry(chi, COMPLEX_PAIR))
    total = sum((2 if e.realness == COMPLEX_PAIR else 1) * e.character.degree ** 2
                for e in entries)
    if total != P.order:
        raise IncompleteInduction("realified degrees inconsistent with |G|")
    return entries

