"""Irreducible characters of p-groups up to Galois conjugacy, as integer
class functions, and the real representations they give.

realize reads two things off an irreducible character chi: its fixed
dimensions dim V^L at the subgroups L and its Frobenius-Schur indicator.
Both are rational, so they are the same on chi's Galois class O, and the
class's trace over a cyclotomic field Q(zeta_e) holding chi's values,
c = (phi(e) / |O|) * (sum of O), carries them: c(1) = phi(e) chi(1),
dim V^L = <res_L c, 1> / phi(e) and FS(chi) = FS(c) / phi(e).

p-groups are monomial: each chi is Ind_H^P lam for a linear lam, that is
a faithful character of a cyclic H/K of order e (`linear_characters`).
The faithful characters of H/K sum to e 1_K - (e/p) 1_K', K'/K of order
p, so the trace of Ind lam is pi_{P/K} - pi_{P/K'} (pi_{P/H} when e = 1),
and pi_{P/K}(g) = |C_P(g)| |g^P n K| / |K| is read off class counts.  No
character value and no root of unity is ever formed.

Ind lam is irreducible iff for every x outside H some l in H n xHx^-1 has
l^-1 x^-1 l x outside K (Mackey's criterion; Serre, Linear Representations
of Finite Groups, 7.4): a test on K alone, with one x per coset xH.  The
sections are taken from the largest H down, one trace is kept per Galois
class (the traces of a class are proportional), and the search stops once
the sum of c(1)^2 / <c, c> = |O| chi(1)^2 reaches |P|; the kept traces are
checked pairwise orthogonal, in integers.  Neither check makes Mackey's
redundant: from the center of Q8 the faithful character induces 2 chi,
whose trace passes both while it doubles chi's vector.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import mul, sub

from .errors import QdpError
from .groups import (
    FiniteGroup,
    Subgroup,
    _is_p_power,
    _unique_prime,
    element_conjugacy_classes,
    is_normal_in,
    subgroups_of_p_group,
    whole_group,
)


class ElementClasses:
    def __init__(self, group: FiniteGroup):
        self.group = group
        self.classes = tuple(tuple(c) for c in element_conjugacy_classes(group))
        class_of = [0] * group.order
        for ci, cls in enumerate(self.classes):
            for a in cls:
                class_of[a] = ci
        self.class_of = tuple(class_of)
        self._in_subgroup: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._squares: tuple[int, ...] | None = None

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
    """The Galois class of the linear characters with kernel K: the faithful
    characters of a cyclic quotient of order `modulus`.  `above` is the K'
    with K'/K of order p (None when the modulus is 1)."""

    def __init__(self, K: Subgroup, modulus: int, above: Subgroup | None):
        self.K = K
        self.modulus = modulus
        self.above = above


def linear_characters(H: Subgroup, subgroups: Sequence[Subgroup]) -> list[LinearCharacter]:
    """Every linear character of H up to Galois conjugacy, each class once;
    `subgroups` must hold every normal subgroup of H, as the subgroup list
    of a p-group containing H does.  A linear character is a faithful
    character of H/K, K its kernel, and H/K is cyclic; the faithful
    characters of a cyclic H/K are one Galois class.  So each such K, with
    gK of order m = |H : K|, gives a class, and K' is K times <g^(m/p)>."""
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
        above = None
        if m > 1:
            step = m // _unique_prime(m)
            above = Subgroup(G, tuple(G.mul(powers[i], k) for i in range(0, m, step)
                                      for k in K.members))
        out.append(LinearCharacter(K, m, above))
    return out


# ---------------------------------------------------------------------------
# Galois traces of the irreducible characters

class GaloisTrace:
    """The trace c of a Galois class O of irreducible characters, one
    integer per class of `classes`: c = (phi / |O|) * (sum of O), phi the
    degree of the field it was traced over; `orbit` is |O|."""

    def __init__(self, classes: ElementClasses, values: tuple[int, ...], phi: int,
                 orbit: int):
        self.classes = classes
        self.values = values
        self.phi = phi
        self.orbit = orbit
        self.degree = values[classes.identity_class] // phi


def _permutation_character(K: Subgroup, classes: ElementClasses) -> list[int]:
    """pi_{P/K} at each class C: |C_P(g)| |C n K| / |K| = |P| |C n K| / (|C| |K|)."""
    n = classes.group.order
    out = [divmod(n * a, len(cls) * K.order)
           for cls, a in zip(classes.classes, classes.count_in(K))]
    if any(rest for _, rest in out):
        raise QdpError(f"a permutation character of |P| = {n} takes a fraction")
    return [value for value, _ in out]


def induced_values(lam: LinearCharacter, classes: ElementClasses) -> tuple[int, ...]:
    """The trace of Ind_H^P lam over Q(zeta_m), m = lam.modulus, at each
    class: pi_{P/K} - pi_{P/K'}, or pi_{P/H} when m = 1."""
    values = _permutation_character(lam.K, classes)
    if lam.above is not None:
        values = map(sub, values, _permutation_character(lam.above, classes))
    return tuple(values)


def _mackey_commutators(H: Subgroup) -> list[set[int]]:
    """For each left coset xH other than H, the commutators l^-1 x^-1 l x
    of the l in H n xHx^-1.  Ind_H^P lam is irreducible iff every set has a
    member outside ker lam."""
    G = H.group
    mul_, hset = G.mul, H.member_set
    inverses = [(l, G.inv(l)) for l in H.members]
    out = []
    seen = set(H.members)
    for x in G.elements():
        if x in seen:
            continue
        seen.update([mul_(x, h) for h in H.members])
        xi = G.inv(x)
        out.append({mul_(li, y) for l, li in inverses
                    if (y := mul_(mul_(xi, l), x)) in hset})
    return out


def _check_pairwise_orthogonal(traces: Sequence[Sequence[int]],
                               classes: ElementClasses) -> None:
    """Raise QdpError unless |P| <c, d>, the sum of |C| c(C) d(C)
    over the classes C (d is rational), is 0 for any two entries of `traces`."""
    sizes = [len(cls) for cls in classes.classes]
    weighted = [list(map(mul, sizes, c)) for c in traces]
    for i, c in enumerate(weighted):
        for d in traces[i + 1:]:
            if sum(map(mul, c, d)):
                raise QdpError("distinct Galois traces not orthogonal")


def irreducible_characters(P: FiniteGroup,
                           subgroups: Sequence[Subgroup] = ()) -> list[GaloisTrace]:
    """The Galois trace of every Galois class of irreducible characters,
    each once, certified complete.  The subgroups of P, enumerated here
    unless `subgroups` gives them, are both where characters are induced
    from and the kernels their linear characters are read off."""
    n = P.order
    # the trivial group counts as a p-group; the least divisor q > 1 of n is prime
    if n > 1 and not _is_p_power(n, next(q for q in range(2, n + 1) if n % q == 0)):
        raise QdpError(f"|G| = {n} is not a prime power")
    classes = ElementClasses(P)
    sizes = [len(cls) for cls in classes.classes]
    one = classes.identity_class

    subgroups = subgroups or subgroups_of_p_group(whole_group(P))
    inductions = ((H, lam) for H in sorted(subgroups, key=lambda S: -S.order)
                  for lam in linear_characters(H, subgroups))
    commutators: dict[tuple[int, ...], list[set[int]]] = {}
    kept: dict[tuple[int, ...], GaloisTrace] = {}  # by primitive trace
    total = 0
    for H, lam in inductions:
        values = induced_values(lam, classes)
        g = math.gcd(*values)  # values[one] > 0
        key = tuple(v // g for v in values)
        if key in kept:
            continue
        if H.members not in commutators:
            commutators[H.members] = _mackey_commutators(H)
        if any(lam.K.member_set.issuperset(s) for s in commutators[H.members]):
            continue  # Ind lam is reducible
        # chi(1) = |P : H|, c(1) = phi chi(1) and c(1)^2 / <c, c> = |O| chi(1)^2
        degree = n // H.order
        norm = sum(s * v * v for s, v in zip(sizes, values))  # |P| <c, c>
        orbit, rest = divmod(values[one] ** 2 * n, norm * degree ** 2)
        if rest:
            raise QdpError(f"an induced character of degree {degree} has "
                           f"|O| = {values[one] ** 2 * n}/{norm * degree ** 2}")
        kept[key] = GaloisTrace(classes, values, values[one] // degree, orbit)
        total += orbit * degree ** 2
        if total >= n:
            break

    traces = [kept[key] for key in sorted(kept, key=lambda k: (kept[k].degree, k))]
    if total != n:
        raise QdpError(f"induction found {len(traces)} Galois classes with "
                       f"sum of |O| chi(1)^2 = {total} != {n}")
    _check_pairwise_orthogonal([t.values for t in traces], classes)
    return traces


def fixed_dimension(chi: GaloisTrace, H: Subgroup) -> int:
    """dim V^H for each V in chi's class, <res_H c, 1> / phi exactly: the
    sum of |H n C| c(C) over the classes C, divided by |H| phi."""
    acc = sum(map(mul, chi.classes.count_in(H), chi.values))
    dim, rest = divmod(acc, H.order * chi.phi)
    if rest or dim < 0:
        raise QdpError(f"trace average over subgroup is {acc}/{H.order * chi.phi}, "
                       f"not a nonnegative integer")
    return dim


def frobenius_schur(chi: GaloisTrace) -> int:
    """FS(c) / phi = (1/|G| phi) sum_g c(g^2): the sum of n_C c(C) over the
    classes C, n_C = #{g : g^2 in C}, divided by |G| phi."""
    acc = sum(map(mul, chi.classes.count_squares(), chi.values))
    ind, rest = divmod(acc, chi.classes.group.order * chi.phi)
    if rest or ind not in (-1, 0, 1):
        raise QdpError(f"Frobenius-Schur indicator {acc}/"
                       f"{chi.classes.group.order * chi.phi} is not -1, 0 or 1")
    return ind


REAL = "real"
COMPLEX_PAIR = "complex_pair"
QUATERNIONIC = "quaternionic"
_REALNESS = {1: REAL, 0: COMPLEX_PAIR, -1: QUATERNIONIC}


class RealBasisEntry:
    """The real irreducibles from one Galois class, all with one vector: its
    real characters, or its complex pairs or quaternionic ones realified."""

    def __init__(self, trace: GaloisTrace, realness: str):
        self.trace = trace
        self.realness = realness

    @property
    def multiplier(self) -> int:
        return 1 if self.realness == REAL else 2

    @property
    def real_degree(self) -> int:
        return self.trace.degree * self.multiplier

    def fixed_dimension_vector(self, lattice) -> tuple[int, ...]:
        """Fixed-space dimensions of the real representation, one per
        p-subgroup conjugacy class of the lattice."""
        return tuple(self.multiplier * fixed_dimension(self.trace, cls[0])
                     for cls in lattice.classes)


def real_representation_basis(P: FiniteGroup,
                              subgroups: Sequence[Subgroup] = ()) -> list[RealBasisEntry]:
    """One entry per Galois class.  A complex character's conjugate is a
    Galois conjugate, so a complex class has even size."""
    entries = []
    for chi in irreducible_characters(P, subgroups=subgroups):
        realness = _REALNESS[frobenius_schur(chi)]
        if realness == COMPLEX_PAIR and chi.orbit % 2:
            raise QdpError("complex character without conjugate partner")
        entries.append(RealBasisEntry(chi, realness))
    return entries
