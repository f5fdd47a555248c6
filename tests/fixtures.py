"""Fixtures and references that only the tests use: named small groups as
Cayley tables, the paper's m-fold fiber-join models and their Euler
classes, the generic order-p generation check that the Qd(p) route is
compared against, the cyclic subgroups of a p-group that theorem-b's
center orbit is compared against, and the SL2(p) substitution action that
the invariants are checked against."""

import itertools
import math

from qdp.errors import InvalidModel, MalformedInput, NotUnimodular
from qdp.fixrank import TwoRowModule
from qdp.groups import FiniteGroup, Subgroup, TableGroup, greedy_generators
from qdp.steenrod import GradedElement


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


# ---------------------------------------------------------------------------
# generation by order-p elements and cyclic subgroups, for any group

def generic_generation_by_order_p(G: FiniteGroup, p: int) -> tuple[bool, list[int]]:
    """Does the closure of the order-p elements give all of G?  Returns the
    verdict and the order-p elements, found by scanning all of G."""
    witnesses = [a for a in G.elements() if G.element_order(a) == p]
    _, closure = greedy_generators(G, witnesses)
    return len(closure) == G.order, witnesses


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
        raise InvalidModel("join needs a common prime")
    M1.validate()
    M2.validate()
    p = M1.p
    n = M1.n + M2.n + 1
    if (M1.differential is None) != (M2.differential is None):
        raise InvalidModel("mixed split/nonsplit joins are not modeled; "
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
# Euler classes of joins

def euler_join(classes: list) -> GradedElement:
    """Product of Euler classes under fiber join: graded elements multiply
    (homogeneity required)."""
    if not classes:
        raise MalformedInput("need at least one Euler class")
    if not all(isinstance(c, GradedElement) for c in classes):
        raise MalformedInput("Euler classes must be graded elements")
    out = classes[0]
    out.degree()  # homogeneity check, raises Inhomogeneous
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
        raise NotUnimodular(f"det {A} != 1 mod {p}")

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
