"""Finite groups given by explicit multiplication, and their p-subgroup lattices.

A group is a set of indexed elements 0..n-1 with a total multiplication.
Groups read from JSON tables are stored as Cayley tables (the named small
groups live with the tests); Qd(p) = (Z/p)^2 x| SL2(Z/p) is index
arithmetic: an element's index encodes its vector and its matrix, a
product decodes both matrices, multiplies them and encodes the result, and
the one table is the p inverses mod p, so set-up is O(p) and Qd(1009), of
order 10^15, costs some 40 KB.

Subgroups are sorted index tuples.  Enumeration is restricted to
p-subgroups: every p-subgroup of G is conjugate into a fixed Sylow
p-subgroup P, so we enumerate the subgroups of P (by index-p normal
extensions, which reach everything inside a p-group) and close up under
G-conjugation.  The Sylow subgroup is grown by p-elements and the
generating set is greedy on every group, Qd(p) included; the Qd(p)
certificates instead read the Sylow subgroup's matrix parts, its center
and a generating set of G off the semidirect structure
(`qdp_sylow_matrices`, `qdp_sylow_center`, `qdp_generators`), with no scan
of G and no closure of order p^3.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

from .errors import DEFAULT_MAX_ORDER, MalformedInput, QdpError, is_prime, json_int


def p_part(n: int, p: int) -> int:
    q = 1
    while n % (q * p) == 0:
        q *= p
    return q


class FiniteGroup:
    """Base interface: elements are 0..order-1, `mul` is total."""

    order: int
    identity: int
    name: str

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.order)

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        r = self.identity
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def element_order(self, a: int) -> int:
        n = 1
        x = a
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n

    def to_json(self) -> dict:
        raise NotImplementedError

    def rows(self) -> Sequence[tuple[int, ...]]:
        """The multiplication table: row a holds a b for b = 0..n-1."""
        n = self.order
        return [tuple(map(self.mul, [a] * n, range(n))) for a in range(n)]

    def translate(self, g: int, xs: Sequence[int], h: int | None = None) -> list[int]:
        """[g x h for x in xs], or [g x for x in xs] when h is None: the left
        translate of xs by g, or with h = g^-1 its conjugate by g."""
        mul = self.mul
        if h is None:
            return [mul(g, x) for x in xs]
        return [mul(mul(g, x), h) for x in xs]

    def check_axioms(self) -> None:
        """Identity and inverses at every element, then associativity
        (`_check_associative`)."""
        n, e = self.order, self.identity
        rows = self.rows()
        for a in range(n):
            if rows[a][e] != a or rows[e][a] != a:
                raise MalformedInput(f"identity fails at {a}")
            b = self.inv(a)
            if rows[a][b] != e or rows[b][a] != e:
                raise MalformedInput(f"inverse fails at {a}")
        self._check_associative(rows)

    def _check_associative(self, rows: Sequence[tuple[int, ...]]) -> None:
        """Light's test on the table `rows`: (a g) b = a (g b) for all a, b
        and every g of a generating set, one table row per (g, a).  The
        elements for which that holds are closed under products, so it
        holds for all of G."""
        for g in generating_set(self):
            # row -> a (g b) over all b, one C-level gather per row; n >= 2
            # here, since a generating set of the trivial group is empty
            times_g = itemgetter(*rows[g])
            for a, row in enumerate(rows):
                if rows[row[g]] != times_g(row):
                    raise MalformedInput(f"associativity fails at a = {a}, g = {g}")

    def witness_json(self) -> dict:
        """The JSON that names the group in a report: `to_json`, unless a
        subclass names the group more briefly."""
        return self.to_json()


class TableGroup(FiniteGroup):
    """A group stored as its Cayley table: row a holds a b for b = 0..n-1.
    `translate` reads g x off row g and g x h off row g x, by indexing
    alone, with no call per product."""

    def __init__(self, table: list[list[int]], name: str = "G"):
        n = len(table)
        if any(len(row) != n for row in table):
            raise MalformedInput("multiplication table must be square")
        indices = range(n)
        members = frozenset(indices)
        ints = {int}
        for row in table:
            # one pass over the entry types and one over the entries per
            # row; a row with another type than int names its first
            # offending entry
            if not ints.issuperset(map(type, row)):
                for v in row:
                    json_int(v, "table entry")
            if not members.issuperset(row):
                raise MalformedInput("table entries must be indices 0..n-1")
        self.table = rows = tuple(map(tuple, table))
        self.order = n
        self.name = name
        ident = None
        indices = tuple(indices)
        for e in indices:
            if rows[e] == indices and all(row[e] == a for a, row in enumerate(rows)):
                ident = e
                break
        if ident is None:
            raise MalformedInput("table has no two-sided identity")
        self.identity = ident
        # the first right inverse of each element, one C-level scan of its
        # row; in a group it is the only one, and two-sided.  Otherwise
        # scan for the first two-sided one
        try:
            inv = [row.index(ident) for row in rows]
        except ValueError:
            inv = [row.index(ident) if ident in row else -1 for row in rows]
        for a, b in enumerate(inv):
            if b < 0 or rows[b][a] != ident:
                row = rows[a]
                b = next((b for b in range(n) if row[b] == ident and rows[b][a] == ident), -1)
                if b < 0:
                    raise MalformedInput(f"element {a} has no two-sided inverse")
                inv[a] = b
        self._inv = inv

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def translate(self, g: int, xs: Sequence[int], h: int | None = None) -> list[int]:
        rows = self.table
        row = rows[g]
        if h is None:
            return [row[x] for x in xs]
        return [rows[row[x]][h] for x in xs]

    def check_axioms(self) -> None:
        """Associativity alone: `__init__` has found a two-sided identity
        and a two-sided inverse of every element."""
        self._check_associative(self.table)

    def to_json(self) -> dict:
        return {"kind": "table", "n": self.order, "mul": [list(r) for r in self.table]}

    def witness_json(self) -> dict:
        """The order alone: a report names the table's file in its command,
        and a copy of the |G|^2 entries would be most of its bytes."""
        return {"kind": "table", "n": self.order}


class QdpGroup(FiniteGroup):
    """(Z/p)^2 x| SL2(Z/p), elements (v, A), (v,A)(w,B) = (v + Aw, AB).

    Element v*n + m, with n = p^3 - p and v = x*p + y, is ((x, y), A), A
    the m-th matrix of SL2(p) in lexicographic order of (a, b, c, d).
    That order is arithmetic: `_mat_index` reads m off the entries and
    `_matrix` the entries off m, so no matrix is stored; the only table
    holds the p inverses mod p."""

    def __init__(self, p: int, max_order: int = DEFAULT_MAX_ORDER):
        order = p ** 3 * (p * p - 1)
        # `is_prime` divides up to sqrt(p); a p >= 2 with p^2 above the
        # guard is refused by the guard without it, as |Qd(p)| > p^2
        if (p < 2 or p * p <= max_order) and not is_prime(p):
            raise QdpError(f"{p} is not prime")
        if order > max_order:
            raise QdpError(
                f"|Qd({p})| = {order} exceeds the guard {max_order}; "
                "pass a larger max_order to opt in")
        self.p = p
        self.order = order
        self.name = f"Qd({p})"
        self._inverse = [0] + [pow(x, -1, p) for x in range(1, p)]
        self.nmat = p ** 3 - p
        self._base = p * (p - 1)  # index of the first matrix with a != 0
        self.identity = self._mat_index(1, 0, 0, 1)  # v = 0 packs to 0

    def _mat_index(self, a: int, b: int, c: int, d: int) -> int:
        """Index of [[a, b], [c, d]] in SL2(p), entries in 0..p-1: b and d
        fix it when a = 0, and a, b and c fix it otherwise."""
        p = self.p
        if a:
            return self._base + ((a - 1) * p + b) * p + c
        return (b - 1) * p + d

    def _matrix(self, m: int) -> tuple[int, int, int, int]:
        """The matrix of index m, the inverse of `_mat_index`: ad - bc = 1
        forces c = -1/b when a = 0, and d = (1 + bc)/a otherwise."""
        p = self.p
        if m < self._base:
            b, d = divmod(m, p)
            return 0, b + 1, -self._inverse[b + 1] % p, d
        ab, c = divmod(m - self._base, p)
        a, b = divmod(ab, p)
        return a + 1, b, c, (1 + b * c) * self._inverse[a + 1] % p

    def mul(self, a: int, b: int) -> int:
        p, n = self.p, self.nmat
        a0, a1, a2, a3 = self._matrix(a % n)
        b0, b1, b2, b3 = self._matrix(b % n)
        v = a // n
        w = b // n
        w0 = w // p
        # v + Aw: v and w are x*p + y packed, and are congruent to their
        # second coordinates y mod p, so they stand in for them
        v = (v // p + a0 * w0 + a1 * w) % p * p + (v + a2 * w0 + a3 * w) % p
        e = (a0 * b0 + a1 * b2) % p
        if e:  # `_mat_index` of AB, inlined
            return v * n + self._base + ((e - 1) * p + (a0 * b1 + a1 * b3) % p) * p \
                + (a2 * b0 + a3 * b2) % p
        return v * n + ((a0 * b1 + a1 * b3) % p - 1) * p + (a2 * b1 + a3 * b3) % p

    def inv(self, a: int) -> int:
        p, n = self.p, self.nmat
        va, ma = divmod(a, n)
        a0, a1, a2, a3 = self._matrix(ma)
        x, y = divmod(va, p)
        # (v, A)^-1 = (-A^-1 v, A^-1), A^-1 = [[d, -b], [-c, a]]
        v = (a1 * y - a3 * x) % p * p + (a2 * x - a0 * y) % p
        return v * n + self._mat_index(a3, -a1 % p, -a2 % p, a0)

    def element(self, v: tuple[int, int], mat: tuple[int, int, int, int]) -> int:
        p = self.p
        a, b, c, d = (x % p for x in mat)
        if (a * d - b * c) % p != 1:
            raise QdpError(f"det {tuple(mat)} != 1 mod {p}")
        return ((v[0] % p) * p + v[1] % p) * self.nmat + self._mat_index(a, b, c, d)

    def parts(self, a: int) -> tuple[tuple[int, int], tuple[int, int, int, int]]:
        v, m = divmod(a, self.nmat)
        return (v // self.p, v % self.p), self._matrix(m)

    def describe(self, a: int) -> str:
        v, m = self.parts(a)
        return f"({v[0]},{v[1]})|[{m[0]},{m[1]};{m[2]},{m[3]}]"

    def to_json(self) -> dict:
        return {"kind": "qdp", "p": self.p}


def construct_qdp(p: int, max_order: int = DEFAULT_MAX_ORDER) -> QdpGroup:
    return QdpGroup(p, max_order=max_order)


def group_from_json(obj: dict, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MalformedInput("group JSON needs a 'kind' field")
    if obj["kind"] == "qdp":
        if "p" not in obj:
            raise MalformedInput("qdp group JSON needs an integer 'p'")
        return construct_qdp(json_int(obj["p"], "qdp group 'p'"), max_order=max_order)
    if obj["kind"] == "table":
        mul = obj.get("mul")
        if not isinstance(mul, list) or not all(isinstance(row, list) for row in mul):
            raise MalformedInput("table group JSON needs 'mul', a list of integer rows")
        # the guard reads the row count, before any check that costs |G|^2
        # or more; p_subgroups would refuse the group with the same line
        if len(mul) > max_order:
            raise QdpError(f"|G| = {len(mul)} exceeds the guard {max_order}")
        # "n" is optional, but one that is there must be the row count
        if "n" in obj and json_int(obj["n"], "table group 'n'") != len(mul):
            raise MalformedInput(f"table group 'n' is {obj['n']}, but 'mul' has "
                                 f"{len(mul)} rows")
        group = TableGroup(mul)
        group.check_axioms()
        return group
    raise MalformedInput(f"unknown group kind {obj['kind']!r}")


# ---------------------------------------------------------------------------
# subgroups

class Subgroup:
    """Sorted members of a subgroup, never mutated; its member set and a
    generating set are found on first use and kept (`member_set`,
    `generators`), so the pair scans of a lattice build neither per pair.
    A subgroup that `subgroups_of_p_group` lists also has `maximal`, its
    subgroups of index p in that list; elsewhere it is None."""

    def __init__(self, group: FiniteGroup, members: tuple[int, ...]):
        self.group = group
        self.members = tuple(sorted(members))
        self.order = len(self.members)
        self.maximal: tuple[Subgroup, ...] | None = None
        self._member_set: frozenset[int] | None = None
        self._generators: list[tuple[int, int]] | None = None
        self._cyclic_quotients: list[tuple[Subgroup, Subgroup | None]] | None = None

    @property
    def member_set(self) -> frozenset[int]:
        if self._member_set is None:
            self._member_set = frozenset(self.members)
        return self._member_set

    def generators(self) -> list[tuple[int, int]]:
        """(g, g^-1) for each g that greedy_generators keeps from the members."""
        if self._generators is None:
            G = self.group
            self._generators = [(g, G.inv(g)) for g in greedy_generators(G, self.members)[0]]
        return self._generators

    def cyclic_quotients(self) -> list[tuple[Subgroup, Subgroup | None]]:
        """Every K normal in this p-group H with H/K cyclic, as (K, K'),
        K'/K the subgroup of order p of H/K (None for K = H), in lattice
        order (by |K|, then members).  Found once, from the `maximal` links,
        so H must come from `subgroups_of_p_group`.

        H/K is abelian, so K contains the derived subgroup D (and then is
        normal).  A p-group is cyclic iff it has one maximal subgroup, and
        those of H/K are the M/K with K <= M maximal in H: the M that
        contain K F, F the intersection of all maximal M (the Frattini
        subgroup), as H/KF is elementary abelian.  So K qualifies iff
        D <= K and K F is one maximal M, that is |K| = |M : F| |K n F|.
        Both conditions pass from a subgroup to no smaller one once they
        fail, so the search descends from each M along `maximal` through
        qualifying K alone; it reaches K from K', the one subgroup of H/K of
        order p, as every qualifying subgroup between K and H is of that
        chain."""
        if self._cyclic_quotients is None:
            if self.maximal is None:
                raise QdpError(f"subgroup {self.members} has no recorded maximal subgroups")
            out: list[tuple[Subgroup, Subgroup | None]] = [(self, None)]
            if self.maximal:
                frattini = frozenset.intersection(*[M.member_set for M in self.maximal])
                index = self.maximal[0].order // len(frattini)
                derived = self.derived_subgroup()
                seen = set()
                stack = [(M, self) for M in self.maximal]
                while stack:
                    K, above = stack.pop()
                    out.append((K, above))
                    for L in K.maximal:
                        lset = L.member_set
                        if L.members not in seen and derived <= lset \
                                and L.order == index * len(lset & frattini):
                            seen.add(L.members)
                            stack.append((L, K))
            self._cyclic_quotients = sorted(out, key=lambda q: (q[0].order, q[0].members))
        return self._cyclic_quotients

    def derived_subgroup(self) -> frozenset[int]:
        """The members of [H, H]: the normal closure of the commutators
        [a, b] = (b a)^-1 a b of the generators, grown until the generators
        of H conjugate it into itself (one `translate` each)."""
        G = self.group
        gens = self.generators()
        commutators = [G.mul(G.inv(G.mul(b, a)), G.mul(a, b)) for a, _ in gens for b, _ in gens]
        members = greedy_generators(G, commutators)[1]
        while True:
            listed = list(members)
            outside = [y for g, gi in gens for y in G.translate(g, listed, gi) if y not in members]
            if not outside:
                return frozenset(members)
            members = greedy_generators(G, listed + outside)[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)


def subgroup_closure(G: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    """Members of <gens>, sorted."""
    return tuple(sorted(greedy_generators(G, gens)[1]))


def whole_group(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def greedy_generators(G: FiniteGroup,
                      candidates: Iterable[int]) -> tuple[list[int], set[int]]:
    """Candidates in order, each kept when it lies outside the closure of
    those kept so far, stopping once that closure is all of G; returns the
    kept candidates and their closure.

    The closure grows by right cosets of the closure H so far (Dimino's
    algorithm; Butler, LNCS 559, 1991): a kept a adds H a, then each
    product r s of a coset representative and a kept generator that falls
    outside adds H r s as a new coset.  The first kept generator adds its
    powers."""
    mul = G.mul
    gens: list[int] = []
    closure = {G.identity}
    for a in candidates:
        if a in closure:
            continue
        gens.append(a)
        if len(gens) == 1:
            x = a
            while x not in closure:
                closure.add(x)
                x = mul(x, a)
        else:
            H = list(closure)
            reps = [a]
            closure.update(mul(h, a) for h in H)
            for r in reps:
                for s in gens:
                    y = mul(r, s)
                    if y not in closure:
                        reps.append(y)
                        closure.update(mul(h, y) for h in H)
        if len(closure) == G.order:
            break
    return gens, closure


def generating_set(G: FiniteGroup) -> list[int]:
    """Small deterministic generating set: greedy over the elements in
    index order."""
    return greedy_generators(G, G.elements())[0]


def qdp_generators(G: QdpGroup) -> tuple[list[int], bool]:
    """[e1, u+, u-], with e1 = ((1,0), I), u+ = [[1,1],[0,1]] and
    u- = [[1,0],[1,1]], and whether they have order p and generate G.

    H = <u+, u-> lies in the complement SL2(p), as u+ and u- have vector
    part 0.  Conjugation by H moves e1 over all p^2 - 1 elements of V minus
    0, and u+, of order p, fixes e1, so |H| >= p (p^2 - 1) = |SL2(p)| by
    orbit-stabilizer.  A subgroup containing V and SL2(p) is G."""
    p, n = G.p, G.nmat
    e1 = p * n + G.identity
    up = G.element((0, 0), (1, 1, 0, 1))
    um = G.element((0, 0), (1, 0, 1, 1))
    orbit = conjugacy_orbit(G, Subgroup(G, (e1,)), [up, um])
    generated = (max(up, um) < n and len(orbit) == p * p - 1
                 and all(T.members[0] % n == G.identity for T in orbit)
                 and G.mul(up, e1) == G.mul(e1, up)
                 and all(G.element_order(g) == p for g in (e1, up, um)))
    return [e1, up, um], generated


def conjugate_subgroup(G: FiniteGroup, g: int, H: Subgroup) -> Subgroup:
    gi = G.inv(g)
    return Subgroup(G, tuple(sorted(G.mul(G.mul(g, x), gi) for x in H.members)))


def sylow_p_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """Grow a p-subgroup by p-elements of its normalizer until full p-part.

    If H is a p-group normalized by a p-element g then <H, g> is again a
    p-group, and inside any Sylow subgroup containing H such a g exists
    whenever H is not yet Sylow, so the loop always completes.
    """
    # divisibility first: a p that does not divide |G| is refused without
    # the trial division of is_prime, which a huge p would make endless;
    # after it p <= |G|
    if p < 2:
        raise QdpError(f"{p} is not prime")
    if G.order % p:
        raise QdpError(f"{p} does not divide |G| = {G.order}")
    if not is_prime(p):
        raise QdpError(f"{p} is not prime")
    target = p_part(G.order, p)
    # p-elements in index order, found only as far as the growth needs them
    pelems: list[int] = []
    fresh = (a for a in G.elements() if _is_p_power(G.element_order(a), p))

    def scan():
        yield from pelems
        for a in fresh:
            pelems.append(a)
            yield a

    hgens: list[int] = []
    members = {G.identity}
    while len(members) < target:
        for g in scan():
            if g in members:
                continue
            gi = G.inv(g)
            if all(G.mul(G.mul(g, x), gi) in members for x in members):
                hgens.append(g)
                members = set(subgroup_closure(G, hgens))
                break
        else:  # impossible in a group (Sylow); a non-associative table gets here
            raise QdpError("sylow growth stalled")
    return Subgroup(G, tuple(sorted(members)))


def qdp_sylow_generators(G: QdpGroup) -> list[int]:
    """[m0, e1, e2], generating V x| <m0>: m0 = (0, [[0, 1], [-1, 2]]), the
    first unipotent matrix other than I in index order, and e1, e2 in V."""
    n = G.nmat
    return [G.element((0, 0), (0, 1, -1, 2)), G.p * n + G.identity, n + G.identity]


def qdp_sylow_matrices(G: QdpGroup) -> list[int]:
    """The p powers of m0 (`qdp_sylow_generators`), once m0 != I is checked
    to have m0^p = I.  They are the matrix parts of P = V x| <m0>: as V is
    normal and meets <m0> trivially, x lies in P exactly when its matrix
    part x % |SL2(p)| is one of them."""
    m0 = qdp_sylow_generators(G)[0]
    powers = [G.identity]
    while len(powers) < G.p:
        powers.append(G.mul(powers[-1], m0))
    if m0 == G.identity or G.mul(powers[-1], m0) != G.identity:
        raise QdpError(f"{G.describe(m0)} does not have order {G.p}")
    return powers


def qdp_sylow_center(G: QdpGroup) -> tuple[Subgroup, bool]:
    """<(z, I)>, z = (1, 1) fixed by m0, and whether it is Z(P), P = V x| <m0>:
    it is when (z, I) commutes with m0, e1 and e2 but m0 and e1 do not, as
    P, of order p^3, is then nonabelian and |Z(P)| = p."""
    m0, e1, e2 = qdp_sylow_generators(G)
    zg = G.element((1, 1), (1, 0, 0, 1))
    central = (all(G.mul(zg, g) == G.mul(g, zg) for g in (m0, e1, e2))
               and G.mul(m0, e1) != G.mul(e1, m0))
    return Subgroup(G, tuple(G.power(zg, t) for t in range(G.p))), central


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def subgroups_of_p_group(P: Subgroup) -> list[Subgroup]:
    """All subgroups of a p-group, via normal index-p extensions.

    In a p-group every proper subgroup H sits inside some K with H normal
    of index p in K, so upward BFS by such extensions reaches everything.
    K = <H, g> keeps the generators of H plus g, which is all a normalizer
    test against K needs.  Each H meets every such K, as every g in K
    outside H extends H to K; and a subgroup of index p in a p-group is
    normal, so those pairs are the index-p pairs, kept as `maximal`.
    """
    G = P.group
    mul, translate = G.mul, G.translate
    n = P.order
    if n == 1:
        P.maximal = ()
        return [P]
    p = _unique_prime(n)
    # g^p depends on g alone, so it is computed once per member
    triples = [(g, G.inv(g), G.power(g, p)) for g in P.members]
    start = (G.identity,)
    below: dict[tuple[int, ...], list[tuple[int, ...]]] = {start: []}
    frontier = [(start, [])]
    while frontier:
        h, hgens = frontier.pop()
        hset = set(h)
        covered = set(h)  # members of the extensions of h found so far
        for g, gi, gp in triples:
            if g in covered or gp not in hset:
                continue
            # h has few generators, and most g fail on the first: one
            # product at a time costs less here than a `translate` call
            for x in hgens:
                if mul(mul(g, x), gi) not in hset:
                    break
            else:  # g normalizes h
                cosets = set(h)
                x = g
                for _ in range(p - 1):
                    cosets.update(translate(x, h))
                    x = mul(x, g)
                covered |= cosets
                key = tuple(sorted(cosets))
                if key not in below:
                    below[key] = []
                    frontier.append((key, hgens + [g]))
                below[key].append(h)
    subgroups = {k: Subgroup(G, k) for k in below}
    for k, S in subgroups.items():
        S.maximal = tuple(subgroups[h] for h in below[k])
    return [subgroups[k] for k in sorted(below, key=lambda t: (len(t), t))]


def _unique_prime(n: int) -> int:
    for p in range(2, n + 1):
        if n % p == 0:
            if not _is_p_power(n, p):
                raise QdpError(f"order {n} is not a prime power")
            return p
    raise QdpError("trivial group has no prime")


def is_conjugate(G: FiniteGroup, H: Subgroup, K: Subgroup) -> int | None:
    """A witness g with g H g^-1 = K, or None."""
    if H.order != K.order:
        return None
    if H.members == K.members:
        return G.identity
    kset = set(K.members)
    moved = [x for x in H.members if x != G.identity]  # g 1 g^-1 = 1 is in K
    for g in G.elements():
        gi = G.inv(g)
        if all(G.mul(G.mul(g, x), gi) in kset for x in moved):
            return g
    return None


# ---------------------------------------------------------------------------
# conjugacy classes of p-subgroups

class PSubgroupClasses:
    """All p-subgroups of G, partitioned into G-conjugacy classes.

    Classes are sorted by (order, smallest member tuple); `index` maps a
    subgroup's member tuple to its class number.  `sylow_subgroups` is
    `subgroups_of_p_group(sylow)`, computed once for every consumer.
    """

    def __init__(self, group: FiniteGroup, prime: int, sylow: Subgroup,
                 sylow_subgroups: tuple[Subgroup, ...],
                 classes: tuple[tuple[Subgroup, ...], ...],
                 index: dict[tuple[int, ...], int]):
        self.group = group
        self.prime = prime
        self.sylow = sylow
        self.sylow_subgroups = sylow_subgroups
        self.classes = classes
        self.index = index

    def class_of(self, H: Subgroup) -> int:
        try:
            return self.index[H.members]
        except KeyError:
            raise QdpError(
                f"subgroup {H.members} is not in the computed lattice")

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def conjugacy_orbit(G: FiniteGroup, S: Subgroup, gens: list[int]) -> list[Subgroup]:
    translate = G.translate
    pairs = [(g, G.inv(g)) for g in gens]
    seen = {S.members}
    frontier = [S.members]
    while frontier:
        t = frontier.pop()
        for g, gi in pairs:
            u = tuple(sorted(translate(g, t, gi)))
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return [Subgroup(G, t) for t in sorted(seen)]


def p_subgroups(G: FiniteGroup, p: int,
                max_order: int = DEFAULT_MAX_ORDER) -> PSubgroupClasses:
    if G.order > max_order:
        raise QdpError(f"|G| = {G.order} exceeds the guard {max_order}")
    P = sylow_p_subgroup(G, p)
    subs = tuple(subgroups_of_p_group(P))
    gens = generating_set(G)
    classes: list[tuple[Subgroup, ...]] = []
    assigned: dict[tuple[int, ...], int] = {}
    for S in subs:
        if S.members in assigned:
            continue
        orbit = conjugacy_orbit(G, S, gens)
        ci = len(classes)
        classes.append(tuple(orbit))
        for T in orbit:
            assigned[T.members] = ci
    order = sorted(range(len(classes)),
                   key=lambda i: (classes[i][0].order, classes[i][0].members))
    classes = [classes[i] for i in order]
    index = {}
    for ci, cls in enumerate(classes):
        for T in cls:
            index[T.members] = ci
    return PSubgroupClasses(group=G, prime=p, sylow=P, sylow_subgroups=subs,
                            classes=tuple(classes), index=index)


# ---------------------------------------------------------------------------
# normality

def is_normal_in(H: Subgroup, K: Subgroup) -> bool:
    """Whether every k in K has k H k^-1 = H, that is k H k^-1 <= H, as
    conjugation by k is one-to-one.  The k that normalize H form a group,
    so the generators K keeps (Subgroup.generators) suffice, and each
    conjugates all of H in one `translate`."""
    translate = H.group.translate
    hset, members = H.member_set, H.members
    return all(hset.issuperset(translate(k, members, ki)) for k, ki in K.generators())


def element_conjugacy_classes(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Sorted conjugacy classes, ordered by their least element: the orbits
    of conjugation by a generating set, each generator's action on G taken
    once, as a list indexed by the element (one `translate` of G)."""
    everything = G.elements()
    actions = [G.translate(g, everything, G.inv(g)) for g in generating_set(G)]
    seen = [False] * G.order
    classes = []
    for a in everything:
        if seen[a]:
            continue
        seen[a] = True
        orbit = [a]
        for x in orbit:  # grows while it is read
            for action in actions:
                y = action[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        classes.append(tuple(sorted(orbit)))
    return classes
