"""Exact graded-commutative algebra F_p[x, y] (x) Lambda(u, v) with the
Bockstein and the odd-primary power operations, SL2(p) invariants, and
Steenrod-closure tests for ideals of F_p[x, y].

Degrees: |u| = |v| = 1, |x| = |y| = 2, beta(u) = x, beta(v) = y.
P^1(x) = x^p, higher powers vanish on generators, everything extends by
the Cartan formula; on a monomial this collapses to the closed form
P^k(x^a y^b w) = sum_{i+j=k} C(a,i) C(b,j) x^{a+i(p-1)} y^{b+j(p-1)} w.

The rank-one variant F_p[t] (x) Lambda(s) (t = beta s; for p = 2 just
F_2[t] with Sq^i) shares the sparse element core, with Laurent powers of t
allowed so the localized two-row computations can reuse it.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .errors import (
    DEFAULT_DEGREE_BUDGET,
    BudgetError,
    MalformedInput,
    QdpError,
    ascii_int,
    is_prime,
)

Mono = tuple[int, int, int, int]  # (a, b, eu, ev): x^a y^b u^eu v^ev


class _SparseElement:
    """Sparse F_p combination of monomials, `terms` mapping a monomial to a
    nonzero coefficient in 1..p-1.  A subclass names its unit monomial
    `_ONE` and the slots `_EXTERIOR` of a monomial that hold exterior
    exponents, and supplies `_valid(p, m)`, the degree `_degree_of(m)` of one
    monomial and the coefficient dict `_product(other)` of a product."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict | None = None):
        self.p = p
        clean = {}
        if terms:
            valid = self._valid
            for m, c in terms.items():
                c %= p
                if c:
                    if not valid(p, m):
                        raise MalformedInput(f"bad monomial {m}")
                    clean[m] = c
        self.terms = clean

    @classmethod
    def zero(cls, p: int):
        return cls(p)

    @classmethod
    def one(cls, p: int):
        return cls(p, {cls._ONE: 1})

    def _check(self, other) -> None:
        if self.p != other.p:
            raise QdpError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return type(self)(self.p, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return type(self)(self.p, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)(self.p, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        return type(self)(self.p, self._product(other))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """Binary powering, except that a base of two polynomial terms
        A + B expands by the binomial theorem: they commute, so
        (A + B)^k = sum_i C(k, i) A^i B^(k-i), and a monomial power scales
        its exponents."""
        if k < 0:
            raise MalformedInput(f"negative exponent {k}")
        p = self.p
        if len(self.terms) == 2 and self.is_polynomial():
            (ma, ca), (mb, cb) = self.terms.items()
            return type(self)(p, {
                tuple(ea * i + eb * (k - i) for ea, eb in zip(ma, mb)):
                    coef * pow(ca, i, p) * pow(cb, k - i, p)
                for i, coef in _lucas_range(k, 0, k, p)})
        out, base = self.one(p), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.p == other.p
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.p, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        """No monomial has an exterior factor (the `_EXTERIOR` slots)."""
        return not any(m[j] for m in self.terms for j in self._EXTERIOR)

    def degree(self) -> int:
        """Degree of a homogeneous element (0 for the zero element)."""
        if not self.terms:
            return 0
        degs = {self._degree_of(m) for m in self.terms}
        if len(degs) > 1:
            raise QdpError(f"degrees {sorted(degs)} present")
        return degs.pop()


class GradedElement(_SparseElement):
    """Sparse sum of monomials x^a y^b u^e v^d with coefficients in F_p."""

    __slots__ = ()
    _ONE = (0, 0, 0, 0)
    _EXTERIOR = (2, 3)

    @staticmethod
    def _valid(p: int, m: Mono) -> bool:
        return m[0] >= 0 and m[1] >= 0 and m[2] in (0, 1) and m[3] in (0, 1)

    def _degree_of(self, m: Mono) -> int:
        return 2 * (m[0] + m[1]) + m[2] + m[3]

    def _product(self, other: "GradedElement") -> dict[Mono, int]:
        out: dict[Mono, int] = {}
        for (a1, b1, u1, v1), c1 in self.terms.items():
            for (a2, b2, u2, v2), c2 in other.terms.items():
                if (u1 and u2) or (v1 and v2):
                    continue  # exterior square
                sign = -1 if (v1 and u2) else 1  # move v past u
                m = (a1 + a2, b1 + b2, u1 + u2, v1 + v2)
                out[m] = out.get(m, 0) + sign * c1 * c2
        return out

    @staticmethod
    def monomial(p: int, a: int, b: int, eu: int = 0, ev: int = 0,
                 coeff: int = 1) -> "GradedElement":
        return GradedElement(p, {(a, b, eu, ev): coeff})


def bockstein(a: GradedElement) -> GradedElement:
    """The degree-one derivation with beta(u) = x, beta(v) = y and
    beta = 0 on the polynomial part; Koszul-signed Leibniz rule."""
    out: dict[Mono, int] = {}
    for (x, y, eu, ev), c in a.terms.items():
        if eu and ev:
            # beta(uv) = x v - u y
            m1 = (x + 1, y, 0, 1)
            m2 = (x, y + 1, 1, 0)
            out[m1] = out.get(m1, 0) + c
            out[m2] = out.get(m2, 0) - c
        elif eu:
            m = (x + 1, y, 0, 0)
            out[m] = out.get(m, 0) + c
        elif ev:
            m = (x, y + 1, 0, 0)
            out[m] = out.get(m, 0) + c
    return GradedElement(a.p, out)


def steenrod_power(i: int, a: GradedElement) -> GradedElement:
    """P^i, extended from the generators by the Cartan formula."""
    if a.p == 2:
        raise QdpError("power operations here are odd-primary; "
                       "the rank-two p = 2 theory is out of scope")
    if i < 0:
        raise MalformedInput("P^i needs i >= 0")
    p = a.p
    out: dict[Mono, int] = {}
    for (x, y, eu, ev), c in a.terms.items():
        for i1, coef in _lucas_range(x, max(0, i - y), min(i, x), p):
            i2 = i - i1
            coef = coef * binom_mod(y, i2, p) % p
            if coef:
                m = (x + i1 * (p - 1), y + i2 * (p - 1), eu, ev)
                out[m] = out.get(m, 0) + c * coef
    return GradedElement(p, out)


def _lucas_range(k: int, lo: int, hi: int, p: int) -> list[tuple[int, int]]:
    """The pairs (j, C(k, j) mod p), k >= 0, for the j in [lo, hi] with
    C(k, j) != 0 mod p, in increasing j.  By Lucas' theorem those are the
    j whose base-p digits are each at most the matching digit of k, and
    C(k, j) is the product of the digit binomials C(k_d, j_d) mod p.  A j
    whose highest offending digit sits at p^d is skipped, with every j
    after it that keeps its digits from p^(d+1) up, to the next multiple
    of p^(d+1)."""
    fact, inv = _factorials(p)
    out = []
    j = lo
    while j <= hi:
        coef, kk, t, w, skip = 1, k, j, 1, 0
        while t:
            kd, td = kk % p, t % p
            w *= p
            if td > kd:
                skip = w
            else:
                coef *= fact[kd] * inv[td] * inv[kd - td]
            kk //= p
            t //= p
        if skip:
            j = (j // skip + 1) * skip
        else:
            out.append((j, coef % p))
            j += 1
    return out


@functools.lru_cache(maxsize=8)
def _factorials(p: int) -> tuple[list[int], list[int]]:
    """The tables of n! mod p and of its inverse, 0 <= n < p, p prime,
    built once per p: C(a, b) = a! / (b! (a - b)!) for 0 <= b <= a < p is
    fact[a] * inv[b] * inv[a - b] up to a multiple of p."""
    fact = [1] * p
    for n in range(2, p):
        fact[n] = fact[n - 1] * n % p
    inv = [1] * p
    inv[-1] = pow(fact[-1], -1, p)
    for n in range(p - 1, 1, -1):
        inv[n - 1] = inv[n] * n % p
    return fact, inv


# ---------------------------------------------------------------------------
# SL2(p) invariants

class InvariantPair:
    """The two generating invariants of F_p[x, y]^{SL2(p)}: xi of degree
    2p(p-1) and zeta of degree 2(p+1), certified invariant by `invariants`."""

    def __init__(self, p: int, xi: GradedElement, zeta: GradedElement):
        self.p = p
        self.xi = xi
        self.zeta = zeta


def _check_odd_prime(p: int) -> None:
    if p == 2:
        raise QdpError("invariant pair needs an odd prime, got 2")
    if not is_prime(p):
        raise QdpError(f"{p} is not prime")


def _invariant_forms(p: int) -> tuple[GradedElement, GradedElement]:
    """xi = sum_i x^{(p-i)(p-1)} y^{i(p-1)} and zeta = x y^p - x^p y,
    before any check."""
    xi = GradedElement(p, {((p - i) * (p - 1), i * (p - 1), 0, 0): 1
                           for i in range(p + 1)})
    zeta = GradedElement(p, {(1, p, 0, 0): 1, (p, 1, 0, 0): -1})
    return xi, zeta


def invariants(p: int) -> InvariantPair:
    """xi and zeta, with their SL2(p)-invariance certified by a Frobenius
    argument and the Dickson relation xi * zeta = L_{p^2} (Wilkerson, "A
    primer on the Dickson invariants", Contemp. Math. 19, 1983).

    L_q = det[[x, y], [x^q, y^q]] = x y^q - x^q y.  A in SL2(p) sends the
    row (x, y) to (x, y) A.  For q a power of p, Frobenius is additive and
    fixes F_p, so it sends the row (x^q, y^q) to (x^q, y^q) A as well, and
    L_q to det(A) L_q = L_q.  So zeta = L_p is invariant, and F_p[x, y] is
    a domain with zeta != 0, so xi = L_{p^2} / zeta is invariant too.
    Computed here: the degrees, zeta = L_p, (x + y)^p = x^p + y^p, and the
    one product xi * zeta = L_{p^2}."""
    _check_odd_prime(p)
    xi, zeta = _invariant_forms(p)
    if xi.degree() != 2 * p * (p - 1) or zeta.degree() != 2 * (p + 1):
        raise QdpError(f"invariant degrees {xi.degree()}, {zeta.degree()} "
                       f"are wrong at p = {p}")

    def L(q: int) -> GradedElement:
        return GradedElement(p, {(1, q, 0, 0): 1, (q, 1, 0, 0): -1})

    if zeta != L(p):
        raise QdpError(f"zeta != x y^{p} - x^{p} y at p = {p}")
    x = GradedElement.monomial(p, 1, 0)
    y = GradedElement.monomial(p, 0, 1)
    if (x + y) ** p != x ** p + y ** p:
        raise QdpError(f"Frobenius is not additive at p = {p}")
    if xi * zeta != L(p * p):
        raise QdpError(f"xi * zeta != x y^{p * p} - x^{p * p} y at p = {p}")
    return InvariantPair(p, xi, zeta)


# ---------------------------------------------------------------------------
# degreewise linear algebra and ideals

def _lead(row: list[int], start: int = 0) -> int | None:
    return next((i for i in range(start, len(row)) if row[i]), None)


def _add_window(pivots: dict[int, list[int]], lead: int, row: list[int],
                p: int) -> None:
    """Reduce the vector that is zero below `lead`, reads `row` from `lead`
    on and is zero past it, against the windowed pivots (lead -> monic
    window) sharing its current lead, and add what is left, if nonzero, as
    a new pivot trimmed to its nonzero span.  `row` is consumed."""
    start = lead  # row[i] is the entry at start + i
    while lead in pivots:
        piv = pivots[lead]
        off = lead - start
        end = off + len(piv)
        if end > len(row):
            row.extend([0] * (end - len(row)))
        f = row[off]
        row[off:end] = [(a - f * b) % p for a, b in zip(row[off:end], piv)]
        off = _lead(row, off + 1)
        if off is None:
            return
        lead = start + off
    off = lead - start
    end = len(row)
    while not row[end - 1]:
        end -= 1
    inv = pow(row[off], -1, p)
    pivots[lead] = [(c * inv) % p for c in row[off:end]]


class IdealHandle:
    """Homogeneous ideal of the polynomial ring F_p[x, y] with lazily
    computed degreewise bases.

    A homogeneous polynomial of half-degree m is its vector of
    coefficients of x^a y^(m-a), a = 0..m, so membership is bivariate
    linear algebra.  The degree-m piece I_m, spanned by the shifts x^j g
    of the generators, is kept as an echelon basis of windowed rows: a
    pivot (lead, window) is the vector that is zero below lead, reads the
    monic window from lead on and is zero past it.  Each generator g of
    half-degree t is made monic once, as the window of its coefficients
    from its lowest x-exponent l on (at most t + 1 entries); the shift
    x^j g is the pivot (l + j, that same window) whenever its lead is
    free.  Only a shift whose lead is taken is eliminated, and each
    subtraction, like each step of `residue`, touches only the pivot's
    window, never all m + 1 entries.

    Why any echelon basis gives the same answers: the residue of a vector
    modulo a subspace S is the unique vector in its coset that is zero at
    every pivot lead (two such differ by a member of S that is zero at
    every lead, and a nonzero member of S has its least nonzero position
    among the leads).  The lead set is that set of least positions, so it
    depends on S alone, not on the elimination order or the rows kept.
    Hence `residue`, and the kernel step of the zeta fixpoint built on it,
    see the same vectors whatever basis of I_m is stored.

    Generators and elements with an exterior part are rejected.
    """

    def __init__(self, generators: Sequence[GradedElement]):
        gens = [g for g in generators if not g.is_zero()]
        if not gens:
            raise MalformedInput("ideal needs at least one nonzero generator")
        p = gens[0].p
        for g in gens:
            if g.p != p:
                raise QdpError("generators over different primes")
            if not g.is_polynomial():
                raise MalformedInput("ideal generators must lie in F_p[x, y]")
            g.degree()  # raises QdpError if g is not homogeneous
        self.p = p
        self.generators = list(gens)
        # (t, l, window) per generator: its half-degree, its lowest
        # x-exponent l and its monic coefficients of x^a y^(t-a) for a >= l
        self._windows: list[tuple[int, int, list[int]]] = []
        for g in gens:
            exps = [a for a, _, _, _ in g.terms]
            low = min(exps)
            win = [0] * (max(exps) - low + 1)
            for (a, _, _, _), c in g.terms.items():
                win[a - low] = c
            inv = pow(win[0], -1, p)
            self._windows.append((g.degree() // 2, low, [(c * inv) % p for c in win]))
        self._poly_bases: dict[int, list[tuple[int, list[int]]]] = {}

    def _poly_basis(self, m: int) -> list[tuple[int, list[int]]]:
        """Echelon basis of I_m as (lead, window) pairs sorted by lead."""
        if m not in self._poly_bases:
            p = self.p
            pivots: dict[int, list[int]] = {}
            for t, low, win in self._windows:
                for lead in range(low, low + m - t + 1):  # x^j * g, j = 0..m-t
                    if lead not in pivots:
                        pivots[lead] = win
                    else:
                        _add_window(pivots, lead, list(win), p)
            self._poly_bases[m] = sorted(pivots.items())
        return self._poly_bases[m]

    def residue(self, elem: GradedElement, m: int) -> list[int]:
        """The x-exponent vector of elem, a polynomial of half-degree m (or
        zero), reduced modulo the degree-2m piece of the ideal: m + 1
        entries, all zero exactly when elem lies in the ideal."""
        p = self.p
        vec = [0] * (m + 1)
        for (a, _, _, _), c in elem.terms.items():
            vec[a] = c
        for lead, win in self._poly_basis(m):
            f = vec[lead]
            if f:
                end = lead + len(win)
                vec[lead:end] = [(a - f * b) % p for a, b in zip(vec[lead:end], win)]
        return vec

    def contains(self, elem: GradedElement) -> bool:
        if elem.is_zero():
            return True
        if elem.p != self.p:
            raise QdpError("element over a different prime")
        if not elem.is_polynomial():
            raise MalformedInput("ideal membership is tested only in F_p[x, y]")
        return not any(self.residue(elem, elem.degree() // 2))


def is_steenrod_closed(ideal: IdealHandle) -> tuple[bool, tuple[int, str] | None]:
    """Closure under every P^i, tested by the algebra generators P^(p^j)
    on the generators of the ideal I; returns a (generator index,
    operation) witness on failure.

    The P^(p^j) suffice (Steenrod and Epstein, Cohomology Operations,
    1962; Milnor, "The Steenrod algebra and its dual", Ann. Math. 67,
    1958).  Suppose P^c g lies in I for every generator g and every c < i.
    By the Cartan formula P^c(I) lies in I for every c < i.  Unless i is a
    power of p, the Adem relations write P^i as a sum of P^a P^b with
    0 < a, b < i, so P^i g lies in I too.  So by induction on i the lowest
    failing P^i, if any, is a P^(p^j), and so is the witness.

    Closure under beta needs no test: the generators lie in F_p[x, y]
    (IdealHandle rejects any other), and beta is zero there.  The tests
    run in degree order, P^1, P^p, P^(p^2), ... on every generator, so a
    non-closed ideal fails where the degreewise bases are smallest.  P^i
    vanishes on a generator of degree below 2i (instability)."""
    gens = ideal.generators
    top = max(g.degree() // 2 for g in gens)
    i = 1
    while i <= top:
        for gi, g in enumerate(gens):
            if i > g.degree() // 2:
                continue
            img = steenrod_power(i, g)
            if not img.is_zero() and not ideal.contains(img):
                return False, (gi, f"P{i}")
        i *= ideal.p
    return True, None


def _check_degree_budget(p: int, k: int, degree_budget: int) -> None:
    """Refuse closure tests on generators of degree 2k past the budget:
    they apply P^(p^j) with p^j <= k, so the highest reaches degree
    2(k + q(p - 1)), q the largest power of p at most k."""
    if p <= degree_budget:  # a larger p is over budget (>= 2p) at any k: no O(sqrt p) test
        _check_odd_prime(p)
    q = 1
    while 1 < p and q * p <= k:
        q *= p
    degree = 2 * (k + q * (p - 1))
    if degree > degree_budget:
        raise BudgetError(f"closure tests reach degree {degree} > budget {degree_budget}")


# ---------------------------------------------------------------------------
# the zeta-power proposition as a greatest closed subspace

class ZetaPropositionResult:
    def __init__(self, p: int, k: int, ambient: list[tuple[int, int]],
                 survivors: list[tuple[tuple[int, ...], ...]],
                 predicted: list[tuple[tuple[int, ...], ...]],
                 exhaustive: bool = True):
        self.p = p
        self.k = k
        self.ambient = ambient  # (xi exponent, zeta exponent) basis
        self.survivors = survivors
        self.predicted = predicted
        # False when the greatest closed subspace, listed alone, is not a line
        self.exhaustive = exhaustive

    @property
    def matches(self) -> bool:
        return self.exhaustive and sorted(self.survivors) == sorted(self.predicted)

    def to_json(self) -> dict:
        return {
            "p": self.p, "k": self.k,
            "ambient": [list(ab) for ab in self.ambient],
            "exhaustive_subspaces": self.exhaustive,
            "survivors": [[list(r) for r in rows] for rows in self.survivors],
            "predicted": [[list(r) for r in rows] for rows in self.predicted],
            "matches": self.matches,
        }


def brute_force_zeta_proposition(p: int, k: int,
                                 degree_budget: int = DEFAULT_DEGREE_BUDGET
                                 ) -> ZetaPropositionResult:
    """The invariant subspaces M of degree 2k whose ideal is closed under
    the operations; the predicted survivor is the zeta-power line when
    (p+1) | k and nothing otherwise.

    Operations are linear, so the degree-2k invariants W have a greatest
    closed subspace V*, the sum of all closed ones.  Start from V = W;
    while some P^i, i = p^j, fails on the ideal (V), cut V to the kernel
    of v -> P^i v mod (V), which keeps every closed U inside V, as P^i U
    lies in (U); the V left is closed under every P^i, so it is V*.  If
    dim V* <= 1 the closed subspaces are V* or none; a larger V* is a
    closed subspace that is not a line and refutes the claim.

    The name predates the fixpoint; the CLI, theorem_C_driver and the
    benchmark's steenrod.zeta_prop_s span look the function up by it."""
    if k < 1:
        raise MalformedInput(f"k must be at least 1, got {k}")
    # membership tests are at degree 2(k + p^j (p - 1)), p^j <= k: one check
    _check_degree_budget(p, k, degree_budget)
    inv = invariants(p)
    dxi = p * (p - 1)  # polynomial half-degrees
    dzeta = p + 1
    ambient = [(a, (k - a * dxi) // dzeta) for a in range(k // dxi + 1)
               if (k - a * dxi) % dzeta == 0]
    ambient.sort()
    dim = len(ambient)
    elems = [inv.xi ** a * inv.zeta ** b for a, b in ambient]

    # a basis of V in ambient coordinates, monic at increasing leads
    basis = [[int(i == j) for j in range(dim)] for i in range(dim)]
    while basis:
        gens = [sum((c * e for c, e in zip(row, elems) if c), GradedElement.zero(p))
                for row in basis]
        ideal = IdealHandle(gens)
        closed, witness = is_steenrod_closed(ideal)
        if closed:
            break
        # beta vanishes on polynomials, so a power P^i, i = p^j, failed; the
        # kernel of v -> P^i v mod (V) is read off the echelon rows [residue | v]
        # whose lead lies in the v part, rebuilt from their windows
        i = int(witness[1][1:])
        m = k + i * (p - 1)  # polynomial half-degree of P^i v
        pivots: dict[int, list[int]] = {}
        for g, row in zip(gens, basis):
            vec = ideal.residue(steenrod_power(i, g), m) + row
            lead = _lead(vec)
            if lead is not None:
                _add_window(pivots, lead, vec[lead:], p)
        basis = [[0] * (lead - m - 1) + win + [0] * (m + 1 + dim - lead - len(win))
                 for lead, win in sorted(pivots.items()) if lead > m]
    # V* as its echelon rows; a line is one monic row, as in the enumeration
    survivors = [tuple(map(tuple, basis))] if basis else []

    predicted = []
    if k % (p + 1) == 0:
        target = (0, k // (p + 1))
        row = tuple(1 if ab == target else 0 for ab in ambient)
        predicted.append((row,))
    return ZetaPropositionResult(p, k, ambient, survivors, predicted,
                                 exhaustive=len(basis) <= 1)


# ---------------------------------------------------------------------------
# finite-dimensionality of quotients

def quotient_finite_dimensional(theta: GradedElement) -> bool:
    """Is F_p[x, y] / (theta) finite-dimensional, i.e. are some x^N and y^N
    multiples of theta?

    The polynomial ring is a domain: x^N is a multiple of theta only when
    theta is a scalar times a power of x, and likewise for y.  A constant is
    both, so the unit ideal comes out finite, and (0) comes out infinite.
    A theta with an exterior part is rejected.
    """
    if not theta.is_polynomial():
        raise MalformedInput("finite-dimensionality is decided only for a "
                             "generator in F_p[x, y]")
    monos = list(theta.terms)
    pure_x = len(monos) == 1 and monos[0][1] == 0
    pure_y = len(monos) == 1 and monos[0][0] == 0
    return pure_x and pure_y


# ---------------------------------------------------------------------------
# the product-of-spheres obstruction driver

def uv_bockstein_identity(p: int, samples: Sequence[GradedElement]) -> tuple[bool, bool]:
    """Whether beta(uv g) = (xv - uy) g, with x = beta(u) and y = beta(v),
    for every sample g; and whether (xv - uy) g vanishes only for g = 0."""
    x = GradedElement.monomial(p, 1, 0)
    y = GradedElement.monomial(p, 0, 1)
    u = GradedElement.monomial(p, 0, 0, 1, 0)
    v = GradedElement.monomial(p, 0, 0, 0, 1)
    uv, xv_minus_uy = u * v, x * v - u * y
    images = [(g, xv_minus_uy * g) for g in samples]
    return (all(bockstein(uv * g) == image for g, image in images),
            all(image.is_zero() == g.is_zero() for g, image in images))


def theorem_C_driver(p: int, k_list: Sequence[int] | None = None,
                     degree_budget: int = DEFAULT_DEGREE_BUDGET):
    """Certificate that Qd(p), p odd, admits no finite free CW-complex with
    the homotopy type of S^n x S^n, for the sphere dimensions n = 2k - 1
    with k in k_list; the claim names exactly those n.

    Chains: generation by order-p elements forces a trivial action on
    cohomology and odd sphere dimension (Lefschetz leg); integrality kills
    the exterior summand of the k-invariants (Bockstein leg); a
    Steenrod-closed invariant ideal generated in degree 2k = n + 1 must be
    the line of a zeta power (one zeta-line leg per k, decided by the
    greatest closed subspace); and the quotient by a principal such ideal
    is never finite-dimensional (final contradiction).

    The degree budget alone bounds the run: the zeta legs need
    2(k + q(p - 1)) <= degree_budget, q the largest power of p at most k,
    which is at least 2p, so p <= degree_budget / 2, and the group work is
    one orbit of p^2 - 1 elements.  Both are checked, at the largest k,
    before Qd(p) is built; as in `brute_force_zeta_proposition`, p is
    tested prime only when p <= degree_budget, after the k are read.
    """
    from .reports import ASSUMED, REFUTED, VERIFIED, Certificate, Leg

    if p == 2:
        raise QdpError(
            "not covered here: the p = 2 case reduces to the known "
            "non-existence of free A4-actions on products of two equal "
            "dimensional spheres")
    if k_list is None:
        k_list = [p + 1, 2 * (p + 1), 3 * (p + 1)]
    if not k_list or len(set(k_list)) < len(k_list) or min(k_list) < 1:
        raise MalformedInput(f"k_list must name distinct k >= 1, got {list(k_list)}")
    _check_degree_budget(p, max(k_list), degree_budget)
    from .dimfun import generation_by_order_p, lefschetz_number
    from .groups import construct_qdp

    G = construct_qdp(p, max_order=p ** 3 * (p * p - 1))

    legs = []
    gens, generated = generation_by_order_p(G)
    legs.append(Leg("order-p-generation", VERIFIED if generated else REFUTED, {
        "group_order": G.order, "generators": [G.describe(g) for g in gens]}))

    ident = [[1]]
    rot = [[0, -1], [1, -1]]  # the only rank-two integral action of order 3
    l_odd = lefschetz_number(ident, rot, ident, 1)
    l_even = lefschetz_number(ident, rot, ident, 2)
    l_triv_even = lefschetz_number(ident, [[1, 0], [0, 1]], ident, 2)
    lef_ok = l_odd == 3 and l_even == 1 and l_triv_even == 4
    legs.append(Leg("action-triviality", VERIFIED if lef_ok else REFUTED, {
        "indecomposable_module_ranks": [1, p - 1, p],
        "rank_two_action_possible": (p - 1) == 2,
        "lefschetz_nontrivial_odd": l_odd,
        "lefschetz_nontrivial_even": l_even,
        "lefschetz_trivial_even": l_triv_even,
        "conclusion": "all values nonzero: the action is trivial and n is odd",
    }))

    inv = invariants(p)
    bock_ok, inj_ok = uv_bockstein_identity(p, [GradedElement.one(p)])
    legs.append(Leg("integral-k-invariants", VERIFIED if bock_ok and inj_ok else REFUTED, {
        "identity": "beta(uv*g) = (xv - uy)*g",
        "computed": "beta(uv) = xv - uy",
        "argument": "beta is a derivation that vanishes on F_p[x, y], so "
                    "beta(uv*g) = beta(uv)*g for every polynomial g; the v- and "
                    "u-components of (xv - uy)*g are xg and -yg, so it vanishes "
                    "only for g = 0",
        "kills_exterior_summand": inj_ok,
    }))

    legs.append(Leg("invariant-subring-input", ASSUMED, {
        "statement": "the restricted k-invariants are invariant under SL2(p) "
                     "(stable-element argument, consumed as input)",
        "reference": "Cartan and Eilenberg, Homological Algebra (1956), XII.10"}))
    legs.append(Leg("orbit-space-finiteness-input", ASSUMED, {
        "statement": "for a finite free action the quotient of the rank-two "
                     "cohomology by the k-invariant ideal is finite "
                     "dimensional and Steenrod-closed (consumed as input)",
        "reference": "Unlu, Constructions of free group actions on products "
                     "of spheres, PhD thesis, Wisconsin (2004)"}))

    for k in k_list:
        res = brute_force_zeta_proposition(p, k, degree_budget)
        legs.append(Leg(f"zeta-line-k{k}", VERIFIED if res.matches else REFUTED,
                        res.to_json()))
        if res.matches and k % (p + 1) == 0:
            s = k // (p + 1)
            finite = quotient_finite_dimensional(inv.zeta ** s)
            legs.append(Leg(f"one-generator-contradiction-k{k}",
                            REFUTED if finite else VERIFIED, {
                                "generator": f"zeta^{s}",
                                "finite_dimensional": finite,
                                "conclusion": "the only admissible ideal has an "
                                              "infinite-dimensional quotient",
                            }))

    return Certificate(
        "qdp-product-of-spheres-obstruction",
        f"no finite free Qd({p})-CW-complex is homotopy equivalent to "
        f"S^n x S^n for n = {', '.join(str(2 * k - 1) for k in k_list)}, "
        "the dimensions n = 2k - 1 of the checked "
        f"k = {', '.join(map(str, k_list))}",
        legs, {"k_values": list(k_list)})


# ---------------------------------------------------------------------------
# rank one: F_p[t^{+-1}] (x) Lambda(s), and F_2[t^{+-1}]

def binom_mod(k: int, i: int, p: int) -> int:
    """C(k, i) mod p, p prime, for any integer k (negative via the
    reflection rule C(k, i) = (-1)^i C(i - k - 1, i)), digit by digit in
    base p by Lucas' theorem: C(k, i) = prod C(k_d, i_d) mod p, and zero
    once some digit i_d exceeds k_d (so also whenever i > k >= 0).  The
    digit binomials are read off tables mod p (`_factorials`)."""
    if i < 0:
        return 0
    out = 1
    if k < 0:
        k, out = i - k - 1, (-1) ** i
    fact, inv = _factorials(p)
    while i:
        kd, id_ = k % p, i % p
        if id_ > kd:
            return 0
        out *= fact[kd] * inv[id_] * inv[kd - id_]
        k //= p
        i //= p
    return out % p


class RankOneElement(_SparseElement):
    """Sparse element of the localized rank-one algebra: terms s^eps t^k
    with k any integer (p odd; for p = 2 there is no s and |t| = 1)."""

    __slots__ = ()
    _ONE = (0, 0)
    _EXTERIOR = (0,)

    @staticmethod
    def _valid(p: int, m: tuple[int, int]) -> bool:
        return m[0] == 0 or (m[0] == 1 and p != 2)

    def _degree_of(self, m: tuple[int, int]) -> int:
        return m[1] if self.p == 2 else 2 * m[1] + m[0]

    def _product(self, other: "RankOneElement") -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (e1, k1), c1 in self.terms.items():
            for (e2, k2), c2 in other.terms.items():
                if e1 and e2:
                    continue
                m = (e1 + e2, k1 + k2)
                out[m] = out.get(m, 0) + c1 * c2
        return out

    @staticmethod
    def monomial(p: int, eps: int, k: int, coeff: int = 1) -> "RankOneElement":
        return RankOneElement(p, {(eps, k): coeff})

    @staticmethod
    def canonical(p: int, degree: int) -> "RankOneElement":
        """The canonical basis monomial of the given degree."""
        return RankOneElement(p, {rank_one_canonical_monomial(p, degree): 1})


def rank_one_canonical_monomial(p: int, degree: int) -> tuple[int, int]:
    """(eps, k) of the degree-d basis monomial: t^d at p = 2, else t^(d/2)
    or s t^((d-1)/2)."""
    if p == 2:
        return (0, degree)
    eps = degree & 1
    return (eps, (degree - eps) // 2)


def rank_one_monomial_to_string(mono: tuple[int, int]) -> str:
    """(eps, k) as read by rank_one_monomial_from_string: 't^2*s', 's', 't', '1'."""
    eps, k = mono
    if eps:
        return f"t^{k}*s" if k else "s"
    return "t" if k == 1 else f"t^{k}" if k else "1"


def rank_one_monomial_from_string(p: int, s: str) -> RankOneElement:
    """Parse 't^2*s', 's', 't', '1' style monomials.  s appears at most
    once, since s*s = 0."""
    if not isinstance(s, str):
        raise MalformedInput(f"bad rank-one monomial {s!r}")
    eps, k = 0, 0
    if s in ("", "1"):
        return RankOneElement.monomial(p, 0, 0)
    for part in s.split("*"):
        if part == "s" and not eps:
            eps = 1
        elif part == "t":
            k += 1
        elif part.startswith("t^"):
            k += ascii_int(part[2:], f"the exponent in rank-one monomial {s!r}")
        elif part == "1":
            continue
        else:
            raise MalformedInput(f"bad rank-one monomial {s!r}")
    if p == 2 and eps:
        raise MalformedInput("no exterior generator at p = 2")
    return RankOneElement.monomial(p, eps, k)


def rank_one_bockstein(a: RankOneElement) -> RankOneElement:
    p = a.p
    out: dict[tuple[int, int], int] = {}
    if p == 2:
        # beta = Sq^1
        for (_, k), c in a.terms.items():
            coef = binom_mod(k, 1, 2)
            if coef:
                out[(0, k + 1)] = out.get((0, k + 1), 0) + c * coef
    else:
        for (eps, k), c in a.terms.items():
            if eps:
                out[(0, k + 1)] = out.get((0, k + 1), 0) + c
    return RankOneElement(p, out)


def rank_one_power(i: int, a: RankOneElement) -> RankOneElement:
    """P^i for odd p (Sq^i at p = 2), Laurent exponents allowed."""
    p = a.p
    if i == 0:
        return a
    out: dict[tuple[int, int], int] = {}
    shift = i if p == 2 else i * (p - 1)
    for (eps, k), c in a.terms.items():
        coef = binom_mod(k, i, p)
        if coef:
            m = (eps, k + shift)
            out[m] = out.get(m, 0) + c * coef
    return RankOneElement(p, out)
