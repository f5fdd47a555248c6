"""Seeded inputs for the certificate benchmark, built without importing qdp.

Everything the benchmark feeds to `qdp` comes from here: multiplication
tables, super class functions (tau files), two-row model files, and the
per-workload list of certificate commands with the answer each must give.
Because none of it is computed by qdp, a change to qdp cannot change what
is measured.

A tau is a seeded nonnegative sum of permutation-representation dimension
functions, H -> |H\\P/K|, counted from the table; it is therefore the
fixed-point dimension function of a real representation, so it is
realizable and satisfies the Borel-Smith conditions by construction.  Each
tau also gets a perturbed twin that differs by an odd amount (+-1) on one
conjugacy class of subgroups; for odd p every class takes part in some
index-p normal pair, so the twin must violate condition (ii).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("fusion", "zeta", "corpus")


@dataclass
class Op:
    """One certificate: CLI arguments (JSON format is added by the runner),
    the exit code it must give, and what the oracle checks."""

    kind: str
    args: list[str]
    expect_exit: int
    expect: dict = field(default_factory=dict)
    size: str = ""  # cost class, used only to label rows

    def label(self) -> str:
        return " ".join(self.args)


@dataclass
class Workload:
    ops: list[Op]
    files: dict[str, str]  # relative path -> file content


# ---------------------------------------------------------------------------
# small finite groups as Cayley tables

def _table(elems: list, mul) -> list[list[int]]:
    index = {e: i for i, e in enumerate(elems)}
    return [[index[mul(a, b)] for b in elems] for a in elems]


def elementary_abelian(p: int, rank: int) -> list[list[int]]:
    elems = list(itertools.product(range(p), repeat=rank))
    return _table(elems, lambda a, b: tuple((x + y) % p for x, y in zip(a, b)))


def heisenberg(p: int) -> list[list[int]]:
    elems = list(itertools.product(range(p), repeat=3))
    return _table(elems, lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % p,
                                       (x[2] + y[2] + x[0] * y[1]) % p))


def modular(p: int) -> list[list[int]]:
    """Z/p^2 x| Z/p with the generator of Z/p acting by 1 + p."""
    pp = p * p
    elems = [(i, j) for j in range(p) for i in range(pp)]
    return _table(elems, lambda x, y: ((x[0] + pow(1 + p, x[1], pp) * y[0]) % pp,
                                       (x[1] + y[1]) % p))


CORPUS_GROUPS = {
    "e9": (3, lambda: elementary_abelian(3, 2)),
    "e25": (5, lambda: elementary_abelian(5, 2)),
    "e27": (3, lambda: elementary_abelian(3, 3)),
    "h27": (3, lambda: heisenberg(3)),
    "m27": (3, lambda: modular(3)),
    "h125": (5, lambda: heisenberg(5)),
}


def relabel(table: list[list[int]], rng: random.Random) -> list[list[int]]:
    """The same group with its elements renumbered by a seeded permutation."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)  # old index i is called perm[i]
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


class TableGroup:
    def __init__(self, table: list[list[int]]):
        self.t = table
        self.n = len(table)
        self.e = next(a for a in range(self.n)
                      if all(table[a][x] == x for x in range(self.n)))
        self.inv = [next(b for b in range(self.n) if table[a][b] == self.e)
                    for a in range(self.n)]
        self._subgroups = None

    def closure(self, gens) -> frozenset:
        seen = {self.e}
        frontier = [self.e]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.t[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def subgroups(self) -> list[frozenset]:
        """Every subgroup, as joins of cyclic subgroups."""
        if self._subgroups is None:
            self._subgroups = self._all_subgroups()
        return self._subgroups

    def _all_subgroups(self) -> list[frozenset]:
        cyclic = {self.closure([a]) for a in range(self.n)}
        found = set(cyclic)
        frontier = list(cyclic)
        while frontier:
            nxt = []
            for S in frontier:
                for C in cyclic:
                    if C <= S:
                        continue
                    J = self.closure(list(S | C))
                    if J not in found:
                        found.add(J)
                        nxt.append(J)
            frontier = nxt
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def conjugacy_classes(self, subs: list[frozenset]) -> list[list[frozenset]]:
        seen: dict[frozenset, int] = {}
        classes: list[list[frozenset]] = []
        for S in subs:
            if S in seen:
                continue
            orbit = {frozenset(self.t[self.t[g][x]][self.inv[g]] for x in S)
                     for g in range(self.n)}
            for T in orbit:
                seen[T] = len(classes)
            classes.append(sorted(orbit, key=sorted))
        return classes

    def double_cosets(self, H: frozenset, K: frozenset) -> int:
        """|H\\G/K|: the H-orbits on the left cosets gK."""
        coset_of = {}
        cosets = []
        for g in range(self.n):
            if g not in coset_of:
                c = frozenset(self.t[g][k] for k in K)
                for x in c:
                    coset_of[x] = len(cosets)
                cosets.append(c)
        seen = set()
        orbits = 0
        for ci, c in enumerate(cosets):
            if ci in seen:
                continue
            orbits += 1
            g = next(iter(c))
            seen.update(coset_of[self.t[h][g]] for h in H)
        return orbits


def make_tau(G: TableGroup, p: int, rng: random.Random, terms: int):
    """A realizable Borel-Smith tau and its perturbed twin, as JSON objects,
    plus tau at the trivial subgroup.

    The terms are permutation representations on P/K for K of index p.
    Larger terms make the realization search of `qdp realize` erratic
    (seconds to minutes on Heisenberg(5) and E(3^3)), which no fixed-length
    run can measure steadily."""
    subs = G.subgroups()
    classes = G.conjugacy_classes(subs)
    index_p = [c[0] for c in classes if len(c[0]) * p == G.n]
    Ks = [rng.choice(index_p) for _ in range(terms)]
    value = {S: sum(G.double_cosets(S, K) for K in Ks) for S in subs}
    bad_class = rng.randrange(len(classes))
    delta = rng.choice((-1, 1))
    bad = dict(value)
    for S in classes[bad_class]:
        bad[S] += delta
    group = {"kind": "table", "n": G.n, "mul": G.t}

    def tau_json(vals):
        return {"schema": "1", "group": group, "p": p, "scale": 1,
                "values": [{"class_rep": sorted(S), "value": vals[S]}
                           for S in subs]}

    return tau_json(value), tau_json(bad), value[frozenset([G.e])]


# ---------------------------------------------------------------------------
# two-row models with ranks known in advance

def _t_power(k: int) -> str:
    return "t" if k == 1 else f"t^{k}"


def trivial_model(p: int, n: int) -> dict:
    return {"schema": "1", "p": p, "n": n, "differential": "zero", "steenrod": []}


def nonsplit_model(p: int, n: int, lam: int) -> dict:
    return {"schema": "1", "p": p, "n": n,
            "differential": {"lambda": lam, "a": (n + 1) // 2}, "steenrod": []}


def rotation_join_model(m: int) -> dict:
    """m-fold fiber join of the p = 3 rotation model (n = 2, P^1 g_n =
    t^2 g_n).  Joins convolve the g_n structure constants, so P^i acts on
    the top generator by C(m, i) t^(2i); the fiber degree is 3m - 1."""
    p = 3
    n = 3 * m - 1
    ops = []
    for i in range(1, n // 2 + 1):
        c = math.comb(m, i) % p
        if c:
            ops.append({"op": f"P{i}", "g_n": [[_t_power(i * (p - 1)), "g_n", c]]})
    return {"schema": "1", "p": p, "n": n, "differential": "zero", "steenrod": ops}


# ---------------------------------------------------------------------------
# zeta-power ambient bases, for the oracle's own prediction

def zeta_ambient(p: int, k: int) -> list[tuple[int, int]]:
    """(xi exponent, zeta exponent) pairs of invariant monomials in degree 2k:
    |xi| = 2p(p-1), |zeta| = 2(p+1)."""
    dxi, dzeta = p * (p - 1), p + 1
    return sorted((a, (k - a * dxi) // dzeta) for a in range(k // dxi + 1)
                  if (k - a * dxi) % dzeta == 0)


def zeta_prediction(p: int, k: int) -> list:
    """Survivors of the enumeration: the zeta-power line iff (p+1) | k."""
    if k % (p + 1):
        return []
    target = (0, k // (p + 1))
    return [[[1 if ab == target else 0 for ab in zeta_ambient(p, k)]]]


# ---------------------------------------------------------------------------
# workload lists.  Each list is a fixed multiset of cost classes; the seed
# picks parameters inside a class (values of near-equal cost), relabels the
# groups and shuffles the order.  Class counts are chosen so that the
# median and the tail percentile of the per-certificate times fall inside a
# class, not on the boundary between two, so they repeat from run to run.

# zeta degrees of negligible enumeration cost (under 25 ms), for theorem-c
_CHEAP_K = {3: (4, 6, 8, 10, 12, 14, 18, 22, 26, 30),
            5: (6, 12, 18, 20)}
# prop-zeta (p, k): the seed draws the light ones; the medium and heavy
# multisets are fixed, because their costs differ by up to 40% from one
# (p, k) to the next and a seeded mix would move the tail with the seed
_ZETA_LIGHT = ((3, 4), (3, 8), (3, 12), (3, 14), (3, 18), (5, 6), (5, 12),
               (5, 20), (5, 26), (7, 8), (7, 42), (7, 50))
_ZETA_MEDIUM = ((3, 24), (5, 36), (7, 56)) * 2
# the tail percentile falls among the six (3, 28); (5, 60) costs 35% more
_ZETA_HEAVY = ((3, 28),) * 6 + ((5, 60),) * 2


def _theorem_b(p: int, rng: random.Random, size: str) -> Op:
    args = ["theorem-b", "--p", str(p)]
    if p >= 7:
        order = p ** 3 * (p * p - 1)
        args += ["--max-order", str(order + rng.randrange(0, 100000))]
    return Op("theorem-b", args, 0, {}, size)


def _theorem_c(p: int, rng: random.Random, size: str) -> Op:
    ks = sorted(rng.sample(_CHEAP_K[p], 2))
    return Op("theorem-c", ["theorem-c", "--p", str(p),
                            "--k-list", ",".join(map(str, ks))], 0, {}, size)


def _prop_zeta(p: int, k: int, rng: random.Random, size: str) -> Op:
    budget = 2 * k * p + rng.randrange(0, 50)
    return Op("prop-zeta", ["prop-zeta", "--p", str(p), "--k", str(k),
                            "--budget", str(budget)], 0,
              {"survivors": zeta_prediction(p, k)}, size)


def _steenrod_check(rng: random.Random) -> Op:
    p = rng.choice((5, 7))
    return Op("steenrod-check", ["steenrod-check", "--p", str(p),
                                 "--samples", str(rng.randint(10, 40)),
                                 "--seed", str(rng.randrange(10 ** 6))],
              0, {}, "light")


def fusion_ops(rng: random.Random, files: dict) -> list[Op]:
    ops = [_theorem_b(3, rng, "small"), _theorem_b(3, rng, "small"),
           _theorem_b(5, rng, "small"), _theorem_b(5, rng, "small"),
           _theorem_c(3, rng, "small")]
    ops += [_theorem_b(7, rng, "p7") for _ in range(5)]
    ops += [_theorem_c(5, rng, "theorem-c-p5") for _ in range(5)]
    ops += [_theorem_b(11, rng, "p11")]
    return ops


def zeta_ops(rng: random.Random, files: dict) -> list[Op]:
    ops = [_steenrod_check(rng) for _ in range(8)]
    ops += [_prop_zeta(*rng.choice(_ZETA_LIGHT), rng, "light") for _ in range(12)]
    ops += [_prop_zeta(p, k, rng, "medium") for p, k in _ZETA_MEDIUM]
    ops += [_prop_zeta(p, k, rng, "heavy") for p, k in _ZETA_HEAVY]
    return ops


def corpus_ops(rng: random.Random, files: dict) -> list[Op]:
    groups = {}
    for name, (p, build) in CORPUS_GROUPS.items():
        G = TableGroup(relabel(build(), rng))
        groups[name] = (G, p)
        files[f"{name}_group.json"] = _dump({"kind": "table", "n": G.n, "mul": G.t})

    def tau_ops(name: str, tag: str, kinds: tuple, size: str) -> list[Op]:
        G, p = groups[name]
        tau, bad, at_trivial = make_tau(G, p, rng, terms=2)
        files[f"{name}_tau{tag}.json"] = _dump(tau)
        files[f"{name}_bad{tag}.json"] = _dump(bad)
        good = ["--group", f"{name}_group.json", "--tau", f"{name}_tau{tag}.json"]
        out = []
        if "borel-smith" in kinds:
            out.append(Op("borel-smith", ["borel-smith", *good], 0, {}, size))
            out.append(Op("borel-smith-bad", ["borel-smith", "--group", f"{name}_group.json",
                                              "--tau", f"{name}_bad{tag}.json"], 4, {}, size))
        if "realize" in kinds:
            out.append(Op("realize", ["realize", *good], 0,
                          {"tau_trivial": at_trivial}, size))
        return out

    both = ("borel-smith", "realize")
    models = []  # (model, known rank or None for "its fiber degree", size)
    ops = []
    # light: startup-dominated certificates
    for name in ("e9", "h27", "m27"):
        ops += tau_ops(name, "", both, "light")
    ops += tau_ops("e25", "", ("borel-smith",), "light")
    for _ in range(2):
        models.append((trivial_model(rng.choice((3, 5, 7)), rng.randint(0, 9)), None, "light"))
        p = rng.choice((3, 5, 7))
        models.append((nonsplit_model(p, 2 * rng.randint(0, 5) + 1, rng.randint(1, p - 1)),
                       -1, "light"))
    m = rng.randint(2, 3)
    models.append((rotation_join_model(m), m - 1, "light"))
    # medium: the order-27 and order-125 lattices, mid-size joins
    ops += tau_ops("e25", "r", ("realize",), "medium")
    ops += tau_ops("e27", "", both, "medium")
    ops += tau_ops("h125", "", ("borel-smith",), "medium")
    m = rng.randint(5, 6)
    models.append((rotation_join_model(m), m - 1, "medium"))
    # heavy: the 8-fold join; top: the Heisenberg(5) real basis
    for _ in range(4):
        models.append((rotation_join_model(8), 7, "heavy"))
    ops += tau_ops("h125", "r", ("realize",), "top")
    for i, (model, rank, size) in enumerate(models):
        path = f"model{i}.json"
        files[path] = _dump(model)
        ops.append(Op("fix-rank", ["fix-rank", "--model", path], 0,
                      {"rank": model["n"] if rank is None else rank}, size))
    return ops


_OP_LISTS = {"fusion": fusion_ops, "zeta": zeta_ops, "corpus": corpus_ops}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def generate(workload: str, seed: int) -> Workload:
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    ops = _OP_LISTS[workload](rng, files)
    rng.shuffle(ops)
    return Workload(ops, files)


def write(wl: Workload, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for rel, text in wl.files.items():
        with open(os.path.join(directory, rel), "w") as fh:
            fh.write(text)


def fingerprint(wl: Workload) -> str:
    """Everything the generator produced, as one string, for the
    determinism check."""
    return _dump({"ops": [[o.kind, o.args, o.expect_exit, o.expect]
                          for o in wl.ops],
                  "files": wl.files})
