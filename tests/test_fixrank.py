"""Two-row models: presentations, localized ranks, joins, Euler classes."""

import json
import random
from importlib import resources

import pytest

import qdp.fixrank as fixrank
from qdp.errors import InvalidModel, MalformedInput, NoWitnessFound
from qdp.fixrank import (
    FixResult,
    TwoRowModule,
    fix_rank,
    module_bockstein,
    module_power,
    TwoRowLocalElement,
)
from qdp.steenrod import (
    GradedElement,
    RankOneElement,
    binom_mod,
    invariants,
    rank_one_power,
)
from fixtures import (
    euler_join,
    fix_join_rule,
    join_model,
    m_fold_join_model,
    non_nilpotent,
)


# ---------------------------------------------------------------------------
# independent oracles

def truncation_dims(p, a, top):
    """Graded dimensions of (rank-one cohomology)/(t^a): at odd p one class
    per degree d while floor(d/2) < a; at p = 2 one class for d < a."""
    out = []
    for d in range(top + 1):
        if p == 2:
            out.append(1 if d < a else 0)
        else:
            out.append(1 if (d - (d & 1)) // 2 < a else 0)
    return out


def witness_equations_hold(model, witness, op_bound):
    """Re-derive the annihilation conditions of a witness through explicit
    binomial-coefficient formulas, independently of the module-operation
    code path used by the solver."""
    p, n = model.p, model.n
    shift = 1 if p == 2 else p - 1
    alpha = dict(witness.c0.terms)
    gamma = dict(witness.cn.terms)
    assert len(gamma) == 1
    ((g_eps, g_k),) = gamma.keys()
    gc = gamma[(g_eps, g_k)]

    if p != 2:
        # Bockstein: g_n coefficient s^eps t^k contributes t^(k+1) g_n when
        # eps = 1, and +- c * (canonical monomial) g_0 through beta(g_n)
        if g_eps:
            return False if gc % p else True
        # collect the g_0 component of beta(witness) in each slot
        slots = {}
        for (eps, k), c in alpha.items():
            if eps:
                slots[(0, k + 1)] = slots.get((0, k + 1), 0) + c
        if model.bockstein_g0 % p:
            sign = -1 if (2 * g_k + g_eps) % 2 else 1
            m = RankOneElement.canonical(p, n + 1)
            ((me, mk),) = m.terms.keys()
            if not (g_eps and me):
                slot = (g_eps + me, g_k + mk)
                slots[slot] = slots.get(slot, 0) + sign * gc * model.bockstein_g0
        if any(val % p for val in slots.values()):
            return False

    for i in range(1, op_bound + 1):
        # g_n component: C(g_k, i) + sum_{j<i} C(g_k, j) * q_(i-j)
        acc = binom_mod(g_k, i, p) * 1
        for j in range(i):
            q = model.powers.get(i - j, (0, 0))[1]
            if q:
                acc += binom_mod(g_k, j, p) * q
        if (acc * gc) % p:
            return False
        # g_0 component: alpha part plus transported structure constants
        slots = {}
        for (eps, k), c in alpha.items():
            co = binom_mod(k, i, p)
            if co:
                slot = (eps, k + i * shift)
                slots[slot] = slots.get(slot, 0) + c * co
        for j in range(i):
            q0 = model.powers.get(i - j, (0, 0))[0]
            if not q0:
                continue
            m = RankOneElement.canonical(
                p, n + ((i - j) if p == 2 else 2 * (i - j) * shift))
            ((me, mk),) = m.terms.keys()
            if g_eps and me:
                continue
            co = binom_mod(g_k, j, p)
            if co:
                slot = (g_eps + me, g_k + j * shift + mk)
                slots[slot] = slots.get(slot, 0) + gc * co * q0
        if any(val % p for val in slots.values()):
            return False
    return True


def reference_module_power(i, x):
    """P^i through the Cartan formula summed over every split j + l = i,
    looking up the model datum of each l in turn."""
    M = x.module
    p = M.p
    shift = 1 if p == 2 else p - 1
    c0 = rank_one_power(i, x.c0)
    cn = rank_one_power(i, x.cn)
    for j in range(i):
        l = i - j
        d0, dn = M.powers.get(l, (0, 0))
        if not (d0 % p or dn % p):
            continue
        hj = rank_one_power(j, x.cn)
        if d0 % p:
            mono = RankOneElement.canonical(
                p, M.n + (l if p == 2 else 2 * l * shift))
            c0 = c0 + hj * mono * d0
        if dn % p:
            cn = cn + hj * RankOneElement.monomial(p, 0, l if p == 2 else l * shift) * dn
    return TwoRowLocalElement(M, c0, cn)


def shipped_model(name):
    blob = resources.files("qdp").joinpath("data", name).read_text()
    return TwoRowModule.from_json(json.loads(blob))


ROTATION = TwoRowModule(p=3, n=2, powers={1: (0, 1)})
SHIPPED = ("model_lens_p3.json", "model_rotation_p3.json", "model_trivial_p3_n4.json")


# ---------------------------------------------------------------------------
# validation

def test_model_validation():
    with pytest.raises(InvalidModel):
        TwoRowModule(p=4, n=3).validate()
    with pytest.raises(InvalidModel):
        TwoRowModule(p=3, n=4, differential=(1, 2)).validate()  # even fiber
    with pytest.raises(InvalidModel):
        TwoRowModule(p=3, n=5, differential=(3, 3)).validate()  # non-unit
    with pytest.raises(InvalidModel):
        TwoRowModule(p=3, n=5, differential=(1, 2)).validate()  # wrong exponent
    with pytest.raises(InvalidModel):
        TwoRowModule(p=3, n=2, bockstein_g0=1).validate()  # beta^2 != 0
    with pytest.raises(InvalidModel):
        TwoRowModule(p=3, n=2, powers={4: (0, 1)}).validate()  # instability
    TwoRowModule(p=3, n=5, differential=(1, 3)).validate()
    TwoRowModule(p=2, n=1, differential=(1, 2)).validate()


# ---------------------------------------------------------------------------
# graded presentation of the total cohomology

class Presentation:
    def __init__(self, kind: str, description: str, dims: list[int]):
        self.kind = kind  # "free" | "truncated"
        self.description = description
        self.dims = dims  # dimensions in degrees 0..len-1


def he_presentation(M, through_degree=None):
    M.validate()
    p, n = M.p, M.n
    top = through_degree if through_degree is not None else 2 * n + 4
    if M.differential is None:
        dims = [1 + (1 if d >= n else 0) for d in range(top + 1)]
        return Presentation("free", "free on one degree-0 and one degree-"
                            f"{n} generator over the rank-one cohomology", dims)
    lam, a = M.differential
    # surviving row: rank-one cohomology truncated above t^(a-1)
    dims = []
    for d in range(top + 1):
        if p == 2:
            dims.append(1 if d < a else 0)
        else:
            k = (d - (d & 1)) // 2
            dims.append(1 if k < a else 0)
    desc = (f"truncated polynomial algebra on t with t^{a} = 0"
            if p == 2 else
            f"truncation: exterior generator times polynomial algebra with t^{a} = 0")
    return Presentation("truncated", desc, dims)


def test_presentation_lens_space():
    M = TwoRowModule(p=3, n=5, differential=(1, 3))
    pres = he_presentation(M, through_degree=8)
    assert pres.kind == "truncated"
    assert pres.dims == truncation_dims(3, 3, 8)
    assert pres.dims[:6] == [1] * 6 and pres.dims[6] == 0


def test_presentation_free():
    M = TwoRowModule(p=3, n=4)
    pres = he_presentation(M, through_degree=6)
    assert pres.kind == "free"
    assert pres.dims == [1, 1, 1, 1, 2, 2, 2]


def test_presentation_p2():
    M = TwoRowModule(p=2, n=1, differential=(1, 2))
    pres = he_presentation(M, through_degree=4)
    assert pres.dims == truncation_dims(2, 2, 4) == [1, 1, 0, 0, 0]


# ---------------------------------------------------------------------------
# ranks

def test_nonsplit_family_rank_minus_one():
    for p in (3, 5):
        for n in range(1, 11, 2):
            for lam in range(1, p):
                M = TwoRowModule(p=p, n=n, differential=(lam, (n + 1) // 2))
                assert fix_rank(M).rank == -1
    for n in range(0, 11):
        M = TwoRowModule(p=2, n=n, differential=(1, n + 1))
        assert fix_rank(M).rank == -1


def test_trivial_family_rank_n():
    for p in (2, 3, 5):
        for n in range(0, 21):
            res = fix_rank(TwoRowModule(p=p, n=n))
            assert res.rank == n
            assert res.witness.cn.terms == {(0, 0): 1}


def test_rotation_model_rank_zero():
    # sphere of a trivial-plus-free-plane representation: fixed points are
    # two poles, so the localized rank is 0; the top operation datum is
    # P^1(g_2) = t^(p-1) g_2 (frozen from the section/suspension analysis)
    for p in (3, 5):
        M = TwoRowModule(p=p, n=2, powers={1: (0, 1)})
        res = fix_rank(M)
        assert res.rank == 0
        assert res.witness.to_terms() == [["t^-1", "g_n", 1]]


def test_witnesses_reverify_independently():
    cases = [TwoRowModule(p=3, n=2, powers={1: (0, 1)}),
             TwoRowModule(p=3, n=4),
             TwoRowModule(p=5, n=2, powers={1: (0, 1)}),
             TwoRowModule(p=2, n=3),
             m_fold_join_model(TwoRowModule(p=3, n=2, powers={1: (0, 1)}), 2)]
    for M in cases:
        res = fix_rank(M)
        assert witness_equations_hold(M, res.witness, res.checked_ops)


def test_spurious_witness_is_rejected():
    # the doubled rotation model must not accept a line at rank 3 even
    # though the naive g_n-only count vanishes there for even shifts
    M = m_fold_join_model(TwoRowModule(p=3, n=2, powers={1: (0, 1)}), 2)
    assert M.n == 5
    res = fix_rank(M)
    assert res.rank == 1
    bad = TwoRowLocalElement(M, RankOneElement.zero(3),
                             RankOneElement.monomial(3, 0, -1))
    assert not all(module_power(i, bad).is_zero() for i in (1, 2))


def test_fix_rank_unique_line_flags():
    res = fix_rank(TwoRowModule(p=3, n=4))
    assert res.unique_line


def test_rank_is_basis_invariant():
    # the trivial degree-5 model rewritten in the basis g' = g_n + s t^2 g_0:
    # beta(g') = t^3 g_0, P^1(g') = C(2,1) s t^4 g_0, P^2(g') = C(2,2) s t^6 g_0
    M = TwoRowModule(p=3, n=5, bockstein_g0=1, powers={1: (2, 0), 2: (1, 0)})
    res = fix_rank(M)
    assert res.rank == 5
    # witness is g' - s t^2 g_0, i.e. the original top generator
    assert res.witness.to_terms() == [["t^2*s", "g0", 2], ["1", "g_n", 1]]
    assert witness_equations_hold(M, res.witness, res.checked_ops)


def test_three_sphere_rotation_model_any_normalization():
    # sphere of (trivial plane) + (free plane): fixed points S^1, rank 1;
    # the Bockstein datum depends on the choice of top generator and must
    # not change the rank
    for b0 in (0, 1, 2):
        M = TwoRowModule(p=3, n=3, bockstein_g0=b0, powers={1: (0, 1)})
        res = fix_rank(M)
        assert res.rank == 1
        if b0:
            assert res.witness.c0.terms == {(1, 0): (-b0) % 3}
        assert witness_equations_hold(M, res.witness, res.checked_ops)


def test_join_model_consistency():
    for p in (3, 5):
        base = TwoRowModule(p=p, n=2, powers={1: (0, 1)})
        r = fix_rank(base).rank
        for m in (2, 3, 4):
            J = m_fold_join_model(base, m)
            assert J.n == m * 3 - 1
            assert fix_rank(J).rank == m * (r + 1) - 1


def test_join_model_nonsplit():
    M = TwoRowModule(p=3, n=5, differential=(2, 3))
    J = join_model(M, M)
    assert J.differential == (1, 6) and J.n == 11  # 2*2 = 4 = 1 mod 3
    assert fix_rank(J).rank == -1
    with pytest.raises(InvalidModel):
        join_model(M, TwoRowModule(p=3, n=4))


def test_module_operations_on_elements():
    M = TwoRowModule(p=3, n=2, powers={1: (0, 1)})
    g_n = TwoRowLocalElement(M, RankOneElement.zero(3),
                             RankOneElement.monomial(3, 0, 0))
    img = module_power(1, g_n)
    assert img.cn == RankOneElement.monomial(3, 0, 2)
    s_g0 = TwoRowLocalElement(M, RankOneElement.monomial(3, 1, 0),
                              RankOneElement.zero(3))
    assert module_bockstein(s_g0).c0 == RankOneElement.monomial(3, 0, 1)


# ---------------------------------------------------------------------------
# rank arithmetic and Euler classes

def fix_tensor_rule(r1, r2):
    """Degrees of the tensor product of two sphere cohomologies (empty when
    either factor is the empty sphere)."""
    if r1 < -1 or r2 < -1:
        raise MalformedInput("ranks are >= -1")
    if r1 == -1 or r2 == -1:
        return []
    return sorted([0, r1, r2, r1 + r2])


def test_tensor_rule():
    assert fix_tensor_rule(0, 0) == [0, 0, 0, 0]
    assert fix_tensor_rule(-1, 5) == []
    assert fix_tensor_rule(2, 3) == [0, 2, 3, 5]


def test_join_rule():
    assert fix_join_rule(1, 1) == 3
    assert fix_join_rule(-1, 7) == 7
    assert fix_join_rule(-1, -1) == -1
    # associativity with -1 as identity
    for a in (-1, 0, 2):
        for b in (-1, 1, 3):
            for c in (-1, 0, 4):
                assert fix_join_rule(fix_join_rule(a, b), c) == \
                    fix_join_rule(a, fix_join_rule(b, c))
    # iterated m-fold join: m(r+1) - 1
    r, m = 2, 4
    acc = r
    for _ in range(m - 1):
        acc = fix_join_rule(acc, r)
    assert acc == m * (r + 1) - 1


def test_euler_join_degrees_and_classes():
    inv = invariants(3)
    sq = euler_join([inv.zeta, inv.zeta])
    assert sq == inv.zeta ** 2
    assert non_nilpotent(sq)
    # Euler classes are graded elements; a bare degree is not one
    for classes in ([], [4, 6], [4, inv.zeta]):
        with pytest.raises(MalformedInput):
            euler_join(classes)


def test_non_nilpotence_criterion():
    inv = invariants(3)
    assert non_nilpotent(inv.zeta)
    x = GradedElement.monomial(3, 1, 0)
    u = GradedElement.monomial(3, 0, 0, 1, 0)
    v = GradedElement.monomial(3, 0, 0, 0, 1)
    e = x * u + x * x * v  # exterior only: cube is zero
    assert not non_nilpotent(e)
    assert (e * e * e).is_zero()
    assert non_nilpotent(x * x + x * u)


def test_model_json_round_trip():
    models = [TwoRowModule(p=3, n=5, differential=(1, 3)),
              TwoRowModule(p=3, n=2, powers={1: (0, 1)}),
              TwoRowModule(p=3, n=5, bockstein_g0=2, powers={1: (1, 2), 2: (0, 1)}),
              TwoRowModule(p=2, n=3, powers={1: (0, 1), 2: (1, 0)})]
    for M in models:
        blob = M.to_json()
        M2 = TwoRowModule.from_json(blob)
        assert M2.p == M.p and M2.n == M.n and M2.differential == M.differential
        assert M2.bockstein_g0 % M.p == M.bockstein_g0 % M.p
        assert {i: (a % M.p, b % M.p) for i, (a, b) in M2.powers.items() if (a, b) != (0, 0)} == \
               {i: (a % M.p, b % M.p) for i, (a, b) in M.powers.items() if (a, b) != (0, 0)}


def test_model_json_degree_validation():
    blob = {"p": 3, "n": 2, "differential": "zero",
            "steenrod": [{"op": "P1", "g_n": [["t", "g_n", 1]]}]}
    with pytest.raises(InvalidModel):
        TwoRowModule.from_json(blob)  # t has degree 2, P1 shifts by 4


def test_model_json_prime_checked_before_entries():
    blob = {"p": 0, "n": 2, "differential": "zero",
            "steenrod": [{"op": "P1", "g_n": [["t^2", "g_n", 1]]}]}
    with pytest.raises(InvalidModel):
        TwoRowModule.from_json(blob)  # reducing mod 0 would divide by zero


def test_fixresult_json():
    res = fix_rank(TwoRowModule(p=3, n=2, powers={1: (0, 1)}))
    blob = res.to_json()
    assert blob["rank"] == 0 and blob["witness"] == [["t^-1", "g_n", 1]]


# ---------------------------------------------------------------------------
# pinned ranks and the Cartan loop

ROTATION_JOIN_RESULTS = {
    m: {"rank": m - 1, "witness": [[f"t^-{m}", "g_n", 1]], "unique_line": True,
        "checked_ops": ops}
    for m, ops in zip(range(1, 9), (43, 88, 133, 178, 223, 268, 313, 358))
}

SHIPPED_JOIN_RESULTS = {
    "model_lens_p3.json":
        {"rank": -1, "witness": None, "unique_line": True, "checked_ops": 0},
    "model_rotation_p3.json":
        {"rank": 1, "witness": [["t^-2", "g_n", 1]], "unique_line": True,
         "checked_ops": 88},
    "model_trivial_p3_n4.json":
        {"rank": 9, "witness": [["1", "g_n", 1]], "unique_line": True,
         "checked_ops": 148},
}


@pytest.mark.parametrize("m", sorted(ROTATION_JOIN_RESULTS))
def test_rotation_join_results_pinned(m):
    res = fix_rank(m_fold_join_model(ROTATION, m))
    assert res.to_json() == ROTATION_JOIN_RESULTS[m]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_two_fold_join_results_pinned(name):
    res = fix_rank(m_fold_join_model(shipped_model(name), 2))
    assert res.to_json() == SHIPPED_JOIN_RESULTS[name]


def _cartan_models():
    models = [m_fold_join_model(ROTATION, m) for m in range(1, 9)]
    models += [m_fold_join_model(shipped_model(name), 2) for name in SHIPPED]
    models += [
        # entries that are zero mod p, in and out of the unstable range
        TwoRowModule(p=3, n=5, bockstein_g0=1,
                     powers={0: (3, 3), 1: (2, 3), 2: (1, 0), 9: (0, 6)}),
        TwoRowModule(p=5, n=4, powers={1: (2, 5), 2: (0, 3)}),
        TwoRowModule(p=2, n=3, powers={1: (0, 1), 2: (1, 0), 3: (2, 4)}),
    ]
    return models


@pytest.mark.parametrize("M", _cartan_models(),
                         ids=lambda M: f"p{M.p}-n{M.n}-{len(M.powers)}ops")
def test_module_power_matches_full_cartan_sum(M):
    p = M.p
    eps = 0 if p == 2 else 1
    mixed = TwoRowLocalElement(
        M, RankOneElement(p, {(eps, -1): 1, (0, 2): p - 1}),
        RankOneElement(p, {(0, -M.n - 1): 1, (eps, 3): 1, (0, 5): 2}))
    top_line = TwoRowLocalElement(M, RankOneElement.zero(p),
                                  RankOneElement.canonical(p, -M.n))
    op_bound = fixrank._op_bound(p, M.n)
    for x in (mixed, top_line):
        for i in range(1, op_bound + 1):
            got, want = module_power(i, x), reference_module_power(i, x)
            assert (got.c0, got.cn) == (want.c0, want.cn), i


def test_zero_mod_p_operations_do_not_change_the_rank():
    M = TwoRowModule(p=3, n=5, bockstein_g0=1,
                     powers={0: (3, 3), 1: (2, 3), 2: (1, 0), 9: (0, 6)})
    bare = TwoRowModule(p=3, n=5, bockstein_g0=1, powers={1: (2, 0), 2: (1, 0)})
    res = fix_rank(M)
    assert res.rank == 5
    assert res.to_json() == fix_rank(bare).to_json()


def _random_model(rng):
    """A zero-differential model at p in {2, 3, 5}, n <= 9, with random
    structure constants on about half the indices instability allows."""
    p = rng.choice((2, 3, 5))
    n = rng.randrange(10)
    top = n if p == 2 else n // 2
    bock = rng.randrange(p) if p != 2 and n % 2 else 0
    powers = {i: (rng.randrange(p) * rng.randrange(2), rng.randrange(p))
              for i in range(1, top + 1) if rng.randrange(2)}
    return TwoRowModule(p=p, n=n, bockstein_g0=bock, powers=powers)


def _line(M):
    try:
        res = fix_rank(M)
    except NoWitnessFound:
        return None
    return res.rank, res.witness.to_terms(), res.unique_line


@pytest.mark.parametrize("seed", range(3))
def test_tripled_op_bound_finds_the_same_line(monkeypatch, seed):
    # past (p + 1)n the equations of P^i only repeat, so checking three
    # times as many operations must not move the rank, witness or line
    rng = random.Random(seed)
    models = [_random_model(rng) for _ in range(100)]
    lines = [_line(M) for M in models]
    assert sum(line is not None and line[0] > 0 for line in lines) >= 20
    bound = fixrank._op_bound
    monkeypatch.setattr(fixrank, "_op_bound", lambda p, n: 3 * bound(p, n))
    assert [_line(M) for M in models] == lines
