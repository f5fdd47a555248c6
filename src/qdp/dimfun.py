"""Super class functions on p-subgroups and the Borel-Smith machinery.

A super class function assigns an integer to every conjugacy class of
p-subgroups.  The checker tests the three Borel-Smith conditions on the
normal pairs of a Sylow subgroup (checking inside one Sylow covers every
pair of p-subgroups up to conjugacy, and the values are class functions).
The realization solver writes a monotone Borel-Smith function as a
nonnegative integer combination of fixed-point dimension functions of
real irreducible representations, by one exact integer solve on the
classes of cyclic subgroups, or names every coordinate, or the class,
that rules every such combination out.

This module also holds the group-theoretic non-existence driver for
Qd(p): p-effectiveness forces the dimension function to vanish exactly at
the center of a Sylow p-subgroup among cyclic subgroups, while fusion in
the full group makes that vanishing pattern impossible.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .errors import MalformedInput, QdpError, json_int
from .groups import (
    DEFAULT_MAX_ORDER,
    PSubgroupClasses,
    QdpGroup,
    Subgroup,
    conjugacy_orbit,
    conjugate_subgroup,
    construct_qdp,
    is_conjugate,
    is_normal_in,
    qdp_generators,
    qdp_sylow_center,
    qdp_sylow_matrices,
)
from .reports import ASSUMED, REFUTED, VERIFIED, Certificate, Leg


class SuperClassFunction:
    """Integer values per p-subgroup class."""

    def __init__(self, lattice: PSubgroupClasses, values: tuple[int, ...]):
        if len(values) != lattice.n_classes:
            raise QdpError(f"{len(values)} values for {lattice.n_classes} classes")
        self.lattice = lattice
        self.values = tuple(json_int(v, "super class function value") for v in values)

    def value_of(self, H: Subgroup) -> int:
        return self.values[self.lattice.class_of(H)]


def superclassfunction_from_json(obj: dict,
                                 lattice: PSubgroupClasses) -> SuperClassFunction:
    try:
        p = json_int(obj["p"], "super class function 'p'")
        # the values are the function itself: a scale, if given, is 1
        if json_int(obj.get("scale", 1), "super class function 'scale'") != 1:
            raise MalformedInput(f"super class function 'scale' must be 1, "
                                 f"got {obj['scale']}")
        entries = obj["values"]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad super class function JSON: {exc}")
    if not isinstance(entries, list):
        raise MalformedInput(f"super class function values must be a list: {entries!r}")
    values = [None] * lattice.n_classes
    reps = [None] * lattice.n_classes
    for ent in entries:
        try:
            rep = ent["class_rep"]
            if not isinstance(rep, list):
                raise TypeError("class_rep must be a list of integers")
            H = Subgroup(lattice.group, tuple(json_int(x, "class_rep member") for x in rep))
            value = json_int(ent["value"], f"value of {ent!r}")
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"bad super class function entry {ent!r}: {exc!r}")
        i = lattice.class_of(H)
        # a class may be listed through several of its members, but never
        # with two values: that would not state one function
        if values[i] is not None and values[i] != value:
            raise MalformedInput(
                f"two values for one p-subgroup class: class_rep {reps[i]} has "
                f"value {values[i]}, class_rep {rep} has value {value}")
        values[i], reps[i] = value, rep
    if any(v is None for v in values):
        raise QdpError("input does not cover every p-subgroup class")
    return SuperClassFunction(lattice, tuple(values))


# ---------------------------------------------------------------------------
# Borel-Smith conditions

class Violation:
    def __init__(self, condition: str, pair: tuple, lhs: int, rhs: int):
        self.condition = condition  # "i" | "ii" | "iii"
        self.pair = pair
        self.lhs = lhs
        self.rhs = rhs

    def to_json(self) -> dict:
        return {"condition": self.condition,
                "pair": [list(s.members) for s in self.pair],
                "lhs": self.lhs, "rhs": self.rhs}


class BorelSmithReport:
    def __init__(self, monotone: bool, violations: list[Violation] | None = None,
                 monotone_witness: tuple | None = None):
        self.monotone = monotone
        self.violations = [] if violations is None else violations
        self.monotone_witness = monotone_witness

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"monotone": self.monotone,
                "violations": [v.to_json() for v in self.violations]}


def check_borel_smith(tau: SuperClassFunction) -> BorelSmithReport:
    """Conditions on the normal pairs H < K inside the Sylow subgroup:

    (i)   K/H elementary abelian of rank two: the differences over the p+1
          intermediate subgroups sum to the total difference;
    (ii)  K/H of order p, p odd: the difference is even;
    (iii) K/H cyclic of order 4 or generalized quaternion, L/H the order-2
          subgroup: the H-to-L difference is even, resp. divisible by 4.

    The subgroups of K/H are the lattice members between H and K, so the
    type of K/H is read off them.  A quotient of order p^2 is elementary
    abelian iff it has p+1 subgroups of order p.  A 2-group with a single
    involution is cyclic or generalized quaternion, and it is cyclic iff
    it has a single subgroup of index 2.

    Normality is `is_normal_in`, on generators each lattice subgroup finds
    once (Subgroup.generators), not once per pair.
    """
    lat = tau.lattice
    p = lat.prime
    # (subgroup, member set, order, tau value) of each lattice subgroup
    nodes = [(S, S.member_set, S.order, tau.value_of(S)) for S in lat.sylow_subgroups]
    violations: list[Violation] = []
    for K, kset, k_order, tk in nodes:
        for H, hset, h_order, th in nodes:
            index = k_order // h_order
            if (p > 2 and index not in (p, p * p)) or not hset < kset \
                    or not is_normal_in(H, K):
                continue
            d = th - tk
            if index == p:
                if p > 2 and d % 2:
                    violations.append(Violation("ii", (H, K), d, 0))
                continue
            between = [node for node in nodes if hset < node[1] < kset]
            lines = [node for node in between if node[2] == p * h_order]
            if index == p * p and len(lines) == p + 1:
                rhs = sum(node[3] - tk for node in lines)
                if d != rhs:
                    violations.append(Violation("i", (H, K), d, rhs))
            elif p == 2 and len(lines) == 1:
                if index == 4:
                    modulus = 2
                elif sum(2 * node[2] == k_order for node in between) > 1:
                    modulus = 4
                else:
                    continue  # cyclic of order 8 or more: no condition
                L, _, _, tl = lines[0]
                d = th - tl
                if d % modulus:
                    violations.append(Violation("iii", (H, L, K), d, modulus))
    mono, wit = is_monotone(tau)
    return BorelSmithReport(monotone=mono, violations=violations,
                            monotone_witness=wit)


def is_monotone(tau: SuperClassFunction) -> tuple[bool, tuple | None]:
    """tau(K) <= tau(H) whenever H <= K, decided inside the Sylow lattice (every
    such pair is conjugate into it); returns a violating pair if any."""
    subs = tau.lattice.sylow_subgroups
    values = [tau.value_of(S) for S in subs]
    for K, tk in zip(subs, values):
        for H, th in zip(subs, values):
            if th < tk and H.member_set <= K.member_set:
                return False, (H, K)
    return True, None


# ---------------------------------------------------------------------------
# realization by real representations

def realize_as_representation(tau: SuperClassFunction, basis: Sequence
                              ) -> tuple[dict[int, int] | None, dict | None]:
    """Nonnegative multiplicities over `basis`, the entries that
    characters.real_representation_basis lists, with exact sum tau, or the
    reason there are none: (multiplicities, None) or (None, reason).  The
    reason lists every coordinate of the solution that is negative or
    fractional, in basis order, or else names a non-cyclic class it misses.

    Refuses inputs outside the theorem's hypotheses.  Each basis entry is
    one Galois class of irreducibles, so its fixed-dimension vector is that
    of a rational character, and a rational character is determined by its
    fixed dimensions at the cyclic subgroups (Moebius inversion over the
    subgroups of each); the rational irreducibles are as many as the
    classes of cyclic subgroups (Artin).  So the entries, restricted to the
    cyclic classes, give a square invertible integer system with one
    rational solution, and tau is realized exactly when that solution is a
    nonnegative integer vector that also meets tau on the non-cyclic
    classes.  The solve is checked against its own system, and every other
    row is checked directly.
    """
    lat = tau.lattice
    report = check_borel_smith(tau)
    if not report.monotone:
        H, K = report.monotone_witness
        raise QdpError(f"not monotone: {list(H.members)} lies in {list(K.members)} "
                       f"but tau = {tau.value_of(H)} < {tau.value_of(K)}")
    if any(v < 0 for v in tau.values):
        raise QdpError("dimension functions of representations are nonnegative")
    if not report.ok:
        raise QdpError(f"{len(report.violations)} violations")

    vectors = [entry.fixed_dimension_vector(lat) for entry in basis]
    G, p = lat.group, lat.prime
    # a p-group H is cyclic iff some member has order |H|, i.e. x^(|H|/p) != 1
    cyclic = [c for c, (H, *_) in enumerate(lat.classes) if H.order == 1 or any(
        G.power(x, H.order // p) != G.identity for x in H.members)]
    if len(cyclic) != len(basis):
        raise QdpError(f"{len(basis)} basis entries for "
                       f"{len(cyclic)} classes of cyclic subgroups")
    matrix = [[vec[c] for vec in vectors] for c in cyclic]
    rhs = [tau.values[c] for c in cyclic]
    solved = _solve_exact(matrix, rhs)
    if solved is None:
        raise QdpError("the fixed-dimension vectors are singular on the cyclic classes")
    det, nums = solved
    if any(sum(a * y for a, y in zip(row, nums)) != det * t for row, t in zip(matrix, rhs)):
        raise QdpError("the exact solve does not satisfy its system")
    failing = [{"basis_index": j, "negative": num < 0, "fractional": num % det != 0,
                "numerator": num // gcd(num, det), "denominator": det // gcd(num, det)}
               for j, num in enumerate(nums) if num < 0 or num % det]
    if failing:
        return None, {"reason": "failing coordinates", "coordinates": failing}
    mult = {j: num // det for j, num in enumerate(nums) if num}
    for c in sorted(set(range(lat.n_classes)) - set(cyclic)):
        lhs = sum(m * vectors[j][c] for j, m in mult.items())
        if lhs != tau.values[c]:
            return None, {"reason": "non-cyclic class",
                          "class_rep": list(lat.classes[c][0].members),
                          "lhs": lhs, "rhs": tau.values[c]}
    return mult, None


def _solve_exact(matrix: list[list[int]], rhs: list[int]) -> tuple[int, list[int]] | None:
    """The solution x of matrix x = rhs for a square integer matrix, as
    (d, y) with d > 0 and x = y / d, or None if the matrix is singular.

    Fraction-free (Bareiss) elimination keeps every entry an integer minor,
    so the last pivot is the determinant up to sign; by Cramer's rule
    det * x is an integer vector, and back substitution finds it with
    exact divisions."""
    n = len(matrix)
    rows = [row + [t] for row, t in zip(matrix, rhs)]
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        akk = top[k]
        for row in rows[k + 1:]:
            aik = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (akk * row[j] - aik * top[j]) // prev
        prev = akk
    det = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        y[i] = (det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return (det, y) if det > 0 else (-det, [-v for v in y])


# ---------------------------------------------------------------------------
# Lefschetz numbers and generation by order-p elements

def lefschetz_number(h0: list[list[int]], hn: list[list[int]],
                     h2n: list[list[int]], n: int) -> int:
    """Alternating trace sum for a self-map of a space with cohomology in
    degrees 0, n, 2n of ranks 1, 2, 1."""
    shapes = (len(h0), len(hn), len(h2n))
    if shapes != (1, 2, 1) or any(len(r) != len(m) for m in (h0, hn, h2n) for r in m):
        raise QdpError(f"expected square blocks of sizes (1, 2, 1), got {shapes}")
    tr = lambda m: sum(m[i][i] for i in range(len(m)))
    sign = -1 if n % 2 else 1
    return tr(h0) + sign * tr(hn) + tr(h2n)


def generation_by_order_p(G: QdpGroup) -> tuple[list[int], bool]:
    """Is G = Qd(p) generated by elements of order p?  `qdp_generators`
    unchanged: [e1, u+, u-] and whether each has order p and they generate
    G, which the orbit of e1 under <u+, u-> shows by orbit-stabilizer.
    False means that check failed, not that G is shown not to be
    generated."""
    return qdp_generators(G)


# ---------------------------------------------------------------------------
# the Qd(p) spherical-fibration obstruction

def qdp_obstruction_theorem_B(p: int,
                              max_order: int = DEFAULT_MAX_ORDER) -> Certificate:
    """Certificate that no dimension function compatible with a p-effective
    Euler class exists on Qd(p), p odd.

    Route two encodes the effectiveness constraints (value 0 exactly at the
    center among nontrivial cyclic subgroups of the Sylow): only the
    center's G-class holds a subgroup constrained to 0, so the clash is
    another cyclic subgroup of the Sylow in the center's G-orbit.  Route
    one confirms it: a fusion witness g, found by a scan of G that does not
    use the generators, conjugates the center onto the first such subgroup
    and is checked.  The facts the chain rests on are `assumed` legs that
    name their source.  No subgroup is closed: Z(P) has order p as P is
    nonabelian of order p^3, and e1, u+, u- generate G by orbit-stabilizer.
    """
    if p == 2:
        raise QdpError("the obstruction needs p > 2")

    name = "qdp-spherical-fibration-obstruction"
    claim = (f"no mod-{p} spherical fibration over the classifying space of "
             f"Qd({p}) has a p-effective Euler class")

    G = construct_qdp(p, max_order=max_order)
    sylow_mats = set(qdp_sylow_matrices(G))  # the matrix parts of P's members
    Z, central = qdp_sylow_center(G)
    legs = [Leg("sylow-center", VERIFIED if central else REFUTED, {
        "sylow_order": p * p * len(sylow_mats), "center": list(Z.members),
        "center_order": Z.order})]
    if not central:
        return Certificate(name, claim, legs, {})

    # Z is the only subgroup constrained to 0, so its class is the only one
    # that can carry both constraints; it is Z's G-class only if the
    # generators are shown to generate G.  Conjugates of Z are cyclic of
    # order p, so the cyclic subgroups of P in that class are the orbit
    # members other than Z that lie in P: Z's mates, in member order
    gens, generated = qdp_generators(G)
    orbit = conjugacy_orbit(G, Z, gens)
    zkey = orbit[0].members
    mates = [T for T in orbit if T.members != Z.members
             and all(x % G.nmat in sylow_mats for x in T.members)]
    unsat = bool(mates)
    classes = {
        "variables": [list(zkey)],
        "constraints": {str(list(zkey)): ["= 0", ">= 1"] if unsat else ["= 0"]},
        "other_classes": [">= 1"],
    }
    if not generated:
        classes["reason"] = "e1, u+ and u- were not shown to generate G, so the " \
                            "class may be smaller than a G-conjugacy class"
    legs.append(Leg("effectiveness-constraints", VERIFIED if generated else REFUTED,
                    classes))

    # route one confirms a mate: is_conjugate scans G without the generators,
    # and conjugate_subgroup checks the conjugator it returns
    witness_g = None
    witness_c = None
    for C in mates:
        g = is_conjugate(G, Z, C)
        if g is not None:
            witness_g, witness_c = g, C
            break
    checked = (witness_g is not None and
               conjugate_subgroup(G, witness_g, Z).members == witness_c.members)
    if not checked:
        legs.append(Leg("fusion-witness", REFUTED, {
            "witness": witness_g,
            "reason": "no conjugator of the Sylow center onto another cyclic "
                      "subgroup of the Sylow was found and checked",
        }))
        return Certificate(name, claim, legs, {})
    legs.append(Leg("fusion-witness", VERIFIED, {
        "witness": witness_g,
        "witness_description": G.describe(witness_g),
        "conjugate_subgroup": list(witness_c.members),
        # Z is the center of P, so a subgroup of P outside it is not central
        "non_central_in_sylow": not set(witness_c.members) <= set(Z.members),
    }))

    # witness_c is one of route two's mates, so the checked conjugator is
    # the two routes' agreement on the clash
    legs.append(Leg("constraint-unsat", VERIFIED, {
        "unsat": unsat,
        "clash_classes": [list(zkey)],
        "forced_equal_values": [list(Z.members), list(witness_c.members)],
        "agrees_with_witness_route": True,
    }))

    # the facts the chain rests on, which this driver does not compute
    paper = "arXiv 1710.07315"
    legs.append(Leg("main-theorem-input", ASSUMED, {
        "statement": "for m large the m-fold fiber join has a dimension function "
                     "that exists, is constant on G-conjugacy classes of "
                     "p-subgroups and satisfies the Borel-Smith conditions",
        "reference": f"{paper}, main theorem"}))
    legs.append(Leg("effectiveness-input", ASSUMED, {
        "statement": "a p-effective Euler class makes that dimension function 0 "
                     "at the Sylow center and at no other nontrivial cyclic "
                     "subgroup of the Sylow",
        "reference": f"{paper}, effectiveness lemma"}))
    legs.append(Leg("join-preserves-effectiveness", ASSUMED, {
        "statement": "the m-fold fiber join of a fibration with p-effective "
                     "Euler class has p-effective Euler class",
        "argument": "the Euler class of a fiber join is the product of the "
                    "Euler classes, and taking the polynomial part is a ring map "
                    "onto the domain F_p[x, y], so a product of classes with "
                    "nonzero polynomial parts keeps a nonzero polynomial part",
        "reference": f"{paper}, fiber joins"}))

    return Certificate(name, claim, legs, {
        "conjugator": witness_g,
        "center": list(Z.members),
        "conjugate": list(witness_c.members),
    })
