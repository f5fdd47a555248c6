"""Super class functions on p-subgroups and the Borel-Smith machinery.

A super class function assigns an integer to every conjugacy class of
p-subgroups.  The checker tests the three Borel-Smith conditions on the
normal pairs of a Sylow subgroup (checking inside one Sylow covers every
pair of p-subgroups up to conjugacy, and the values are class functions).
The realization solver writes a monotone Borel-Smith function as a
nonnegative integer combination of fixed-point dimension functions of
real irreducible representations, by bounded exhaustive search.

This module also holds the group-theoretic non-existence driver for
Qd(p): p-effectiveness forces the dimension function to vanish exactly at
the center of a Sylow p-subgroup among cyclic subgroups, while fusion in
the full group makes that vanishing pattern impossible.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import (
    DomainMismatch,
    EvenPrime,
    MalformedInput,
    NotBorelSmith,
    NotMonotone,
    ShapeMismatch,
    json_int,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    PSubgroupClasses,
    QdpGroup,
    Subgroup,
    center,
    conjugacy_orbit,
    conjugate_subgroup,
    construct_qdp,
    is_conjugate,
    is_normal_in,
    qdp_generators,
    qdp_order_p_elements,
    sylow_p_subgroup,
)
from .reports import ASSUMED, REFUTED, VERIFIED, Certificate, Leg


class SuperClassFunction:
    """Integer values per p-subgroup class; `scale` makes rationals exact.

    The function of record is values[i] / scale; all arithmetic stays in
    integers.  scale == 1 for ordinary integer-valued functions.
    """

    def __init__(self, lattice: PSubgroupClasses, values: tuple[int, ...],
                 scale: int = 1):
        if len(values) != lattice.n_classes:
            raise DomainMismatch(
                f"{len(values)} values for {lattice.n_classes} classes")
        if json_int(scale, "super class function scale") < 1:
            raise MalformedInput("scale must be a positive integer")
        self.lattice = lattice
        self.values = tuple(json_int(v, "super class function value") for v in values)
        self.scale = scale

    def value_of(self, H: Subgroup) -> int:
        return self.values[self.lattice.class_of(H)]

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "group": self.lattice.group.to_json(),
            "p": self.lattice.prime,
            "scale": self.scale,
            "values": [
                {"class_rep": list(cls[0].members), "value": v}
                for cls, v in zip(self.lattice.classes, self.values)
            ],
        }


def superclassfunction_from_json(obj: dict,
                                 lattice: PSubgroupClasses) -> SuperClassFunction:
    try:
        p = json_int(obj["p"], "super class function 'p'")
        scale = json_int(obj.get("scale", 1), "super class function 'scale'")
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
        raise DomainMismatch("input does not cover every p-subgroup class")
    return SuperClassFunction(lattice, tuple(values), scale)


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
    """
    lat = tau.lattice
    p = lat.prime
    subs = lat.sylow_subgroups
    sets = [frozenset(S.members) for S in subs]
    violations: list[Violation] = []
    for K, kset in zip(subs, sets):
        for H, hset in zip(subs, sets):
            index = K.order // H.order
            if (p > 2 and index not in (p, p * p)) or not hset < kset \
                    or not is_normal_in(H, K):
                continue
            d = tau.value_of(H) - tau.value_of(K)
            if index == p:
                if p > 2 and d % 2:
                    violations.append(Violation("ii", (H, K), d, 0))
                continue
            between = [M for M, mset in zip(subs, sets) if hset < mset < kset]
            lines = [M for M in between if M.order == p * H.order]
            if index == p * p and len(lines) == p + 1:
                tk = tau.value_of(K)
                rhs = sum(tau.value_of(M) - tk for M in lines)
                if d != rhs:
                    violations.append(Violation("i", (H, K), d, rhs))
            elif p == 2 and len(lines) == 1:
                if index == 4:
                    modulus = 2
                elif sum(2 * M.order == K.order for M in between) > 1:
                    modulus = 4
                else:
                    continue  # cyclic of order 8 or more: no condition
                L = lines[0]
                d = tau.value_of(H) - tau.value_of(L)
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
            if th < tk and set(H.members).issubset(K.members):
                return False, (H, K)
    return True, None


# ---------------------------------------------------------------------------
# realization by real representations

def realize_as_representation(tau: SuperClassFunction,
                              basis: Sequence) -> dict[int, int] | None:
    """Nonnegative multiplicities over `basis`, the entries that
    characters.real_representation_basis lists, with exact sum tau, or None.

    Refuses inputs outside the theorem's hypotheses.  The search is a
    complete DFS: every dimension-function vector is nonnegative and has
    positive value at the trivial subgroup, so multiplicities are bounded
    and pointwise-nonnegative residuals prune exactly.
    """
    if tau.scale != 1:
        raise MalformedInput("realization needs an integer-valued function")
    lat = tau.lattice
    report = check_borel_smith(tau)
    if not report.monotone:
        H, K = report.monotone_witness
        raise NotMonotone(f"not monotone: {list(H.members)} lies in {list(K.members)} "
                          f"but tau = {tau.value_of(H)} < {tau.value_of(K)}")
    if any(v < 0 for v in tau.values):
        raise NotMonotone("dimension functions of representations are nonnegative")
    if not report.ok:
        raise NotBorelSmith(f"{len(report.violations)} violations")

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
        cap = residual[triv] // vec[triv]
        for c in range(cap, -1, -1):
            nxt = tuple(r - c * vec[i] for i, r in enumerate(residual))
            if any(v < 0 for v in nxt):
                continue
            if c:
                result[idx] = c
            if dfs(k + 1, nxt):
                return True
            result.pop(idx, None)
        return False

    if dfs(0, tau.values):
        return dict(sorted(result.items()))
    return None


# ---------------------------------------------------------------------------
# Lefschetz numbers and generation by order-p elements

def lefschetz_number(h0: list[list[int]], hn: list[list[int]],
                     h2n: list[list[int]], n: int) -> int:
    """Alternating trace sum for a self-map of a space with cohomology in
    degrees 0, n, 2n of ranks 1, 2, 1."""
    shapes = (len(h0), len(hn), len(h2n))
    if shapes != (1, 2, 1) or any(len(r) != len(m) for m in (h0, hn, h2n) for r in m):
        raise ShapeMismatch(f"expected square blocks of sizes (1, 2, 1), got {shapes}")
    tr = lambda m: sum(m[i][i] for i in range(len(m)))
    sign = -1 if n % 2 else 1
    return tr(h0) + sign * tr(hn) + tr(h2n)


def generation_by_order_p(G: QdpGroup, p: int) -> tuple[bool, list[int]]:
    """Does the closure of the order-p elements give all of G = Qd(p)?
    Returns the verdict and the order-p elements.

    The verdict is the structural certificate of `qdp_generators`: e1, u+
    and u- have order p and generate G.  False then means that certificate
    failed, not that G is shown not to be generated."""
    gens, generated = qdp_generators(G)
    return (generated and all(G.element_order(g) == p for g in gens),
            qdp_order_p_elements(G))


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
    name their source.
    """
    if p == 2:
        raise EvenPrime("the obstruction needs p > 2")

    name = "qdp-spherical-fibration-obstruction"
    claim = (f"no mod-{p} spherical fibration over the classifying space of "
             f"Qd({p}) has a p-effective Euler class")

    G = construct_qdp(p, max_order=max_order)
    P = sylow_p_subgroup(G, p)
    Z = center(P)
    legs = [Leg("sylow-center", VERIFIED if Z.order == p else REFUTED, {
        "sylow_order": P.order,
        "center": list(Z.members),
        "center_order": Z.order,
    })]
    if Z.order != p:
        return Certificate(name, claim, legs, {})

    # Z is the only subgroup constrained to 0, so its class is the only one
    # that can carry both constraints; it is Z's G-class only if the
    # generators are shown to generate G.  Conjugates of Z are cyclic of
    # order p, so the cyclic subgroups of P in that class are the orbit
    # members other than Z that lie in P: Z's mates, in member order
    gens, generated = qdp_generators(G)
    orbit = conjugacy_orbit(G, Z, gens)
    zkey = orbit[0].members
    pset = set(P.members)
    mates = [T for T in orbit if T.members != Z.members and pset.issuperset(T.members)]
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
