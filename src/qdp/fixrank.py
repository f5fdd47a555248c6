"""Two-row algebraic models of sphere-fiber cohomology over the classifying
space of Z/p, and their localized fixed-point ranks.

A model is the rank-one cohomology ring H = F_p[t] (x) Lambda(s) acting on
two generators g_0 (degree 0) and g_n (degree n), together with
  * the single differential datum: zero, or lambda t^a with 2a = n + 1
    (a = n + 1 at p = 2) killing the top row, and
  * the operation structure constants on g_n: beta(g_n) and P^i(g_n)
    (Sq^i at p = 2) as H-combinations of g_0 and g_n.

A nonzero differential makes t nilpotent, so the localization vanishes and
the rank is -1.  Otherwise the module is free; after inverting t each
degree is spanned by one Laurent monomial per generator, and the rank-r
line is detected as the largest r carrying an element with nonzero
g_n-component annihilated by beta and by every P^i with i <= (5n + 4)p.
Each operation gives that line two scalar equations, read off Lucas
binomials and the structure constants; the witness they select is then
checked through the Cartan formula of module_bockstein and module_power.

The models of m-fold joins are test fixtures.
"""

from __future__ import annotations

from .errors import (
    Inhomogeneous,
    InvalidModel,
    MalformedInput,
    NoWitnessFound,
    QdpError,
    ascii_int,
    json_int,
)
from .groups import is_prime
from .steenrod import (
    RankOneElement,
    binom_mod,
    rank_one_bockstein,
    rank_one_canonical_monomial,
    rank_one_monomial_from_string,
    rank_one_monomial_to_string,
    rank_one_power,
)

G0 = "g0"
GN = "g_n"


class TwoRowModule:
    """Model datum; `powers[i] = (c0, cn)` means
    P^i(g_n) = c0 * m(n + 2i(p-1)) * g_0 + cn * t^(i(p-1)) * g_n
    (at p = 2 read Sq^i and t-degree shifts i), and `bockstein_g0` is the
    coefficient of the canonical degree-(n+1) monomial in beta(g_n)."""

    def __init__(self, p: int, n: int,
                 differential: tuple[int, int] | None = None,
                 bockstein_g0: int = 0,
                 powers: dict[int, tuple[int, int]] | None = None):
        self.p = p
        self.n = n
        self.differential = differential  # (lambda, a)
        self.bockstein_g0 = bockstein_g0
        self.powers = {} if powers is None else powers

    def validate(self) -> None:
        p, n = self.p, self.n
        if not is_prime(p):
            raise InvalidModel(f"{p} is not prime")
        if n < 0:
            raise InvalidModel("fiber degree must be >= 0")
        if self.differential is not None:
            lam, a = self.differential
            if lam % p == 0:
                raise InvalidModel("differential coefficient must be a unit")
            want = n + 1 if p == 2 else (n + 1) // 2
            if p != 2 and (n + 1) % 2:
                raise InvalidModel(
                    "no polynomial-part target in odd degree: for odd p a "
                    "nonzero differential needs odd fiber degree")
            if a != want:
                raise InvalidModel(f"differential exponent must be {want}")
        top = self.n if p == 2 else n // 2
        for i, (c0, cn) in self.powers.items():
            if i < 1 or i > top:
                if (c0 % p) or (cn % p):
                    raise InvalidModel(f"operation index {i} violates instability")
        if p == 2 and self.bockstein_g0 % 2:
            raise InvalidModel("at p = 2 the Bockstein is Sq^1; use powers[1]")
        if p != 2 and n % 2 == 0 and self.bockstein_g0 % p:
            # beta^2(g_n) = bockstein_g0 * beta(s t^(n/2)) g_0 must vanish
            raise InvalidModel("beta(g_n) must vanish for even fiber degree")

    # -- serialization (schema: {"p":3,"n":5,"differential":{...}|"zero",
    #    "steenrod":[{"op":"P1","g_n":[["t^2*s","g0",c],["t","g_n",c]]}]})

    def to_json(self) -> dict:
        diff = "zero" if self.differential is None else \
            {"lambda": self.differential[0], "a": self.differential[1]}

        def mono(degree: int) -> str:
            return rank_one_monomial_to_string(rank_one_canonical_monomial(self.p, degree))

        prefix = "Sq" if self.p == 2 else "P"
        ops = []
        for key, c0, cn in [("b", self.bockstein_g0, 0)] + [
                (i, *self.powers[i]) for i in sorted(self.powers)]:
            entry = [[mono(_component_degree(self.p, self.n, key, gen)), gen, c % self.p]
                     for gen, c in ((G0, c0), (GN, cn)) if c % self.p]
            if entry:
                ops.append({"op": key if key == "b" else f"{prefix}{key}", "g_n": entry})
        return {"schema": "1", "p": self.p, "n": self.n,
                "differential": diff, "steenrod": ops}

    @staticmethod
    def from_json(obj: dict) -> "TwoRowModule":
        try:
            p = json_int(obj["p"], "model 'p'")
            n = json_int(obj["n"], "model 'n'")
            diff_obj = obj.get("differential", "zero")
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"bad model JSON: {exc}")
        if not is_prime(p):  # the entries below are reduced mod p
            raise InvalidModel(f"{p} is not prime")
        diff = None
        if diff_obj != "zero":
            try:
                diff = (json_int(diff_obj["lambda"], "differential 'lambda'"),
                        json_int(diff_obj["a"], "differential 'a'"))
            except (KeyError, TypeError) as exc:
                raise MalformedInput(f"bad differential: {exc}")
        bock = 0
        powers: dict[int, tuple[int, int]] = {}
        prefix = "Sq" if p == 2 else "P"
        seen = set()
        try:
            for entry in obj.get("steenrod", []):
                op = entry.get("op")
                if op == "b":
                    key = op
                elif isinstance(op, str) and op.startswith(prefix) and "-" not in op:
                    key = ascii_int(op[len(prefix):], f"the index of operation {op!r}")
                else:
                    raise MalformedInput(
                        f"unknown operation {op!r}: at p = {p} an operation is "
                        f"b or {prefix}<i>")
                # a second entry would silently replace the first
                if key in seen:
                    raise MalformedInput(f"operation {op!r} is listed twice")
                seen.add(key)
                comps = {G0: 0, GN: 0}
                for mono_str, gen, c in entry.get("g_n", []):
                    if gen not in comps:
                        raise MalformedInput(f"unknown generator {gen!r}")
                    mono = rank_one_monomial_from_string(p, mono_str)
                    comps[gen] = (comps[gen] + json_int(c, "coefficient")) % p
                    # degree consistency of the stated monomial
                    want = _component_degree(p, n, key, gen)
                    if mono.degree() != want:
                        raise InvalidModel(
                            f"{op} component on {gen} must be in degree {want}, "
                            f"got {mono.degree()}")
                if key == "b":
                    bock = comps[G0]
                    if comps[GN]:
                        raise InvalidModel("beta(g_n) cannot have a g_n component "
                                           "(beta squared would not vanish)")
                else:
                    powers[key] = (comps[G0], comps[GN])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # a non-integer field, or an entry or term of the wrong shape
            raise MalformedInput(f"bad steenrod entry: {exc}")
        model = TwoRowModule(p=p, n=n, differential=diff,
                             bockstein_g0=bock, powers=powers)
        model.validate()
        return model


def _component_degree(p: int, n: int, key: str | int, gen: str) -> int:
    """Degree of the `gen` component of an operation on g_n: `key` is "b"
    for the Bockstein, else the index i of P^i (Sq^i at p = 2)."""
    base = n if gen == G0 else 0
    if key == "b":
        return base + 1
    return base + (key if p == 2 else 2 * key * (p - 1))


# ---------------------------------------------------------------------------
# localized elements over the two generators

class TwoRowLocalElement:
    """c0 * g_0 + cn * g_n with rank-one Laurent coefficients, never
    mutated; the P^h(cn) computed so far are kept with it (`cn_power`)."""

    def __init__(self, module: TwoRowModule, c0: RankOneElement, cn: RankOneElement):
        self.module = module
        self.c0 = c0
        self.cn = cn
        self._cn_powers: dict[int, RankOneElement] = {}

    def cn_power(self, h: int) -> RankOneElement:
        """P^h (Sq^h at p = 2) of the g_n coefficient, computed once per h."""
        out = self._cn_powers.get(h)
        if out is None:
            out = self._cn_powers[h] = rank_one_power(h, self.cn)
        return out

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.cn.is_zero()

    def degree(self) -> int:
        degs = set()
        if not self.c0.is_zero():
            degs.add(self.c0.degree())
        if not self.cn.is_zero():
            degs.add(self.cn.degree() + self.module.n)
        if len(degs) > 1:
            raise Inhomogeneous(f"degrees {sorted(degs)} present")
        return degs.pop() if degs else 0

    def to_terms(self) -> list[list]:
        return [[rank_one_monomial_to_string(m), gen, c]
                for coeffs, gen in ((self.c0, G0), (self.cn, GN))
                for m, c in sorted(coeffs.terms.items())]


def module_bockstein(x: TwoRowLocalElement) -> TwoRowLocalElement:
    M = x.module
    p = M.p
    c0 = rank_one_bockstein(x.c0)
    cn = rank_one_bockstein(x.cn)
    if M.bockstein_g0 % p and not x.cn.is_zero():
        # Koszul sign: beta(h g_n) = beta(h) g_n + (-1)^|h| h beta(g_n)
        sign = -1 if x.cn.degree() % 2 else 1
        mono = RankOneElement.canonical(p, _component_degree(p, M.n, "b", G0))
        c0 = c0 + x.cn * mono * (sign * M.bockstein_g0)
    return TwoRowLocalElement(M, c0, cn)


def module_power(i: int, x: TwoRowLocalElement) -> TwoRowLocalElement:
    """P^i (Sq^i at p = 2) through the Cartan formula and the model data.

    Each Cartan term P^(i-l)(x.cn) P^l(g_n) takes P^(i-l)(x.cn) from
    x.cn_power, so checking one witness against P^1 .. P^N powers its g_n
    coefficient once per index h <= N, not once per (i, l)."""
    M = x.module
    p = M.p
    c0 = rank_one_power(i, x.c0)
    cn = x.cn_power(i)
    if x.cn.is_zero():
        return TwoRowLocalElement(M, c0, cn)
    for l, (d0, dn) in M.powers.items():  # P^l falls on g_n, P^(i-l) on x.cn
        d0, dn = d0 % p, dn % p
        if not 1 <= l <= i or not (d0 or dn):
            continue
        hj = x.cn_power(i - l)
        if hj.is_zero():
            continue
        if d0:
            mono = RankOneElement.canonical(p, _component_degree(p, M.n, l, G0))
            c0 = c0 + hj * mono * d0
        if dn:
            mono = RankOneElement.canonical(p, _component_degree(p, M.n, l, GN))
            cn = cn + hj * mono * dn
    return TwoRowLocalElement(M, c0, cn)


class FixResult:
    def __init__(self, rank: int, witness: TwoRowLocalElement | None,
                 unique_line: bool, checked_ops: int):
        self.rank = rank
        self.witness = witness
        self.unique_line = unique_line
        self.checked_ops = checked_ops

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "witness": self.witness.to_terms() if self.witness else None,
            "unique_line": self.unique_line,
            "checked_ops": self.checked_ops,
        }


def _op_bound(p: int, n: int) -> int:
    """How many P^i fix_rank checks: (5n + 4)p, past (p + 1)n, the last
    index that can give a new equation.

    The candidate line in degree r is alpha m(r) g_0 + m(r - n) g_n.  Its
    g_0 exponent lies in [0, n], and every structure constant sits at an
    index <= n (instability, see `validate`).  So past index n the
    equations of P^i are sums over l of C(-m, i - l) times a constant,
    where -m >= -n is the g_n exponent.  As C(-m, j) = (-1)^j
    C(m - 1 + j, m - 1), Lucas' theorem makes them repeat up to sign with
    period p^s <= pn.  A larger bound adds only repeats; a smaller one
    drops equations and can certify a rank that is too large."""
    return (5 * n + 4) * p


def _line_equations(M: TwoRowModule, r: int, op_bound: int):
    """The scalar equations of the degree-r line alpha m(r) g_0 + m(r - n) g_n,
    one triple (a0, g0, gn) per operation: beta at odd p, then P^1 ..
    P^op_bound, each computed only when it is reached.

    In degree d the rank-one algebra has one monomial, the canonical m(d),
    so an operation sends each basis element to a multiple of the single
    monomial of each slot: m(r) g_0 to a0 times the g_0 slot's, and
    m(r - n) g_n to g0 times the g_0 slot's plus gn times the g_n slot's.
    With m(r) = s^e t^k (t^r at p = 2), P^i(m(r)) = C(k, i) m(r + 2i(p-1)),
    and the Cartan formula puts P^(i-l) on the coefficient of g_n and P^l
    on g_n itself."""
    p, n = M.p, M.n
    if p == 2:
        k, j = r, r - n
    else:
        e, k = rank_one_canonical_monomial(p, r)
        f, j = rank_one_canonical_monomial(p, r - n)
        # beta(s^f t^j g_n) = f t^(j+1) g_n + (-1)^f s^f t^j beta(g_n), and a
        # nonzero bockstein_g0 needs odd n (validate), so beta(g_n) is
        # bockstein_g0 times the g_0 slot's monomial t^((n+1)/2)
        yield e, (-1) ** f * M.bockstein_g0 % p, f
        if f:
            return  # gn = 1: no line in this degree
    # from here m(r - n) = t^j, so no product below carries s twice
    ops = [(l, d0 % p, dn % p) for l, (d0, dn) in sorted(M.powers.items())
           if l >= 1 and (d0 % p or dn % p)]
    c = [1]  # c[h] = C(j, h), the coefficient of P^h(t^j)
    for i in range(1, op_bound + 1):
        c.append(binom_mod(j, i, p))
        g0, gn = 0, c[i]
        for l, d0, dn in ops:
            if l > i:
                break
            g0 += d0 * c[i - l]
            gn += dn * c[i - l]
        yield binom_mod(k, i, p), g0 % p, gn % p


def _solve_line(M: TwoRowModule, r: int,
                op_bound: int) -> tuple[int | None, int] | None:
    """Solve for alpha with alpha m(r) g_0 + m(r - n) g_n annihilated.

    Each operation gives a0 alpha + g0 = 0 in the g_0 slot and gn = 0 in
    the g_n slot.  Returns None at the first contradiction, leaving the
    remaining operations uncomputed; otherwise (alpha, or None when no
    equation pins it, and the number of operations)."""
    p = M.p
    alpha = None
    count = 0
    for count, (a0, g0, gn) in enumerate(_line_equations(M, r, op_bound), 1):
        if gn:
            return None
        if a0:
            val = (-g0 * pow(a0, -1, p)) % p
            if alpha is None:
                alpha = val
            elif alpha != val:
                return None
        elif g0:
            return None
    return alpha, count


def fix_rank(M: TwoRowModule) -> FixResult:
    """Rank r with the localized fixed-point module isomorphic to a rank-r
    sphere's cohomology: -1 when the differential is nonzero, else the top
    degree carrying a beta- and P-annihilated line with g_n-component.

    Each degree is decided by the scalar equations of `_line_equations`,
    stopping at the first contradiction; the witness of the degree found
    is then checked independently, by applying beta and every P^i to it
    through module_bockstein and module_power.  The P^i calls share one
    witness, which keeps each P^h of its g_n coefficient once
    (TwoRowLocalElement.cn_power), so the check powers that coefficient
    op_bound times rather than once per structure constant and index."""
    M.validate()
    p, n = M.p, M.n
    if M.differential is not None:
        return FixResult(-1, None, True, 0)
    op_bound = _op_bound(p, n)
    for r in range(n, -1, -1):
        solved = _solve_line(M, r, op_bound)
        if solved is None:
            continue
        alpha, checked_ops = solved
        witness = TwoRowLocalElement(
            M, RankOneElement.canonical(p, r) * (alpha or 0),
            RankOneElement.canonical(p, r - n))
        # the witness must really be annihilated: the Cartan route of
        # module_bockstein and module_power checks the scalar equations
        if (p != 2 and not module_bockstein(witness).is_zero()) or any(
                not module_power(i, witness).is_zero() for i in range(1, op_bound + 1)):
            raise QdpError(f"rank {r} witness is not annihilated by the operations")
        # the line is unique iff alpha was pinned or the g_0 slot is inert
        # (r = 0: adding the unit keeps all operations zero)
        unique = alpha is not None or r == 0
        return FixResult(r, witness, unique, checked_ops)
    raise NoWitnessFound(
        "no annihilated line with g_n-component found above degree 0; "
        "the model is inconsistent")
