"""Seeded generators for the four workloads and the checks of their answers.

A workload is a list of distinct queries built from ``random.Random`` seeded
with the workload name and the seed, so the same seed gives the same inputs.
Its size grows with the run length: ``rounds(seconds)`` rounds of a fixed
template, each round drawing fresh algebras, forms and parameters, so no
query repeats inside a run.

The worker receives only the generated inputs (algebra documents, change of
basis matrices, forms as rational strings). Expectations stay here and come
from the closed forms in ``algebras``, never from the package under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

from algebras import (
    Algebra, abelian, change_basis, d_w, diag, fr, heisenberg, invert, pullback,
    rotation, sol3a,
)

# Template rounds per second of run length, tuned so one run of a workload
# takes about ``seconds`` on a 2-core x86 VM at the first baseline.
ROUNDS_PER_SECOND = {
    "betti_sweep": 0.38,
    "reps_dense": 0.33,
    "scan_solvable": 0.62,
    "cli_batch": 0.75,
}

WHY = {
    "betti_sweep": "exterior assembly and linalg.rank on sparse small-integer matrices in "
                   "standard bases; no weights and no representatives",
    "reps_dense": "representatives and coboundary solves after a random integer change of "
                  "basis: dense matrices, Bareiss bit growth, no diagonal derivations",
    "scan_solvable": "adapted_basis, exceptional set, r0 spectrum and repeated Betti "
                     "evaluations of one algebra along a line; sol3 near k=10^6 in the tail",
    "cli_batch": "one liecohom process per query, including documented rejections: "
                 "interpreter start, import, argparse, JSON parsing and output formatting",
}

WORKLOADS = tuple(ROUNDS_PER_SECOND)


def rounds(name: str, seconds: float) -> int:
    return max(1, round(ROUNDS_PER_SECOND[name] * seconds))


def vec(xs) -> list[str]:
    return [fr(x) for x in xs]


def form_terms(form: dict) -> list:
    return [[list(idx), fr(c)] for idx, c in sorted(form.items())]


def terms_form(terms) -> dict:
    return {tuple(idx): Fraction(c) for idx, c in terms}


@dataclass
class Instance:
    """An algebra as the worker sees it, with the benchmark's own data."""

    alg: Algebra
    change: list | None = None     # columns are the new basis vectors
    consts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.change is None:
            self.consts = self.alg.consts
        else:
            self.consts = change_basis(self.alg.consts, self.alg.dim, self.change)

    def to_std(self, w) -> tuple:
        """A one-form given in this instance's basis, in standard coordinates."""
        if self.change is None:
            return tuple(Fraction(x) for x in w)
        return pullback(w, invert(self.change))

    def from_std(self, w) -> tuple:
        if self.change is None:
            return tuple(Fraction(x) for x in w)
        return pullback(w, self.change)

    def wire(self) -> dict:
        out = {"doc": json.dumps(self.alg.doc(), sort_keys=True)}
        if self.change is not None:
            out["change"] = [vec(row) for row in self.change]
        return out


@dataclass
class Workload:
    name: str
    seed: int
    instances: dict = field(default_factory=dict)   # id -> Instance
    queries: list = field(default_factory=list)     # JSON-able, sent to the worker
    pairs: list = field(default_factory=list)       # duality pairs of query indices
    files: dict = field(default_factory=dict)       # cli_batch: file name -> text

    def add_instance(self, inst: Instance) -> str:
        key = f"a{len(self.instances)}"
        self.instances[key] = inst
        return key

    def add(self, query: dict) -> int:
        self.queries.append(query)
        return len(self.queries) - 1

    def wire(self) -> dict:
        return {"workload": self.name,
                "algebras": {k: inst.wire() for k, inst in self.instances.items()},
                "queries": self.queries}


def _zeros(n):
    return tuple(Fraction(0) for _ in range(n))


def _e1(n, c):
    return (Fraction(c),) + _zeros(n - 1)


def _critical(rng: random.Random, alg: Algebra) -> tuple:
    """A closed form with -w in the exceptional set (nonzero cohomology)."""
    n = alg.dim
    if alg.kind != "semidirect":
        return _zeros(n)
    subset = [lam for lam in alg.eig if rng.random() < 0.5]
    return _e1(n, sum(subset, Fraction(0)))


def _generic(rng: random.Random, alg: Algebra) -> tuple:
    """A closed form outside the exceptional set (all cohomology vanishes)."""
    n = alg.dim
    while True:
        if alg.kind == "abelian":
            w = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        elif alg.kind == "heisenberg":
            w = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n - 1)) + (Fraction(0),)
        else:
            w = list(_e1(n, Fraction(rng.randint(-12, 24), rng.choice([1, 1, 2, 3]))))
            for j in alg.central:
                w[j - 1] = Fraction(rng.choice([0, 0, 1, -1, 2]))
            w = tuple(w)
        if not alg.exceptional(w):
            return w


def _dense_change(rng: random.Random, n: int) -> list:
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if invert(m) is not None:
            return m


# -- betti_sweep -------------------------------------------------------------

# The template shapes the latency distribution so that both reported
# quantiles fall inside a dense cluster of similar costs, not between two
# families: dimensions 6 and 7 appear twice per round and sol3a 7 four times
# (the median), diag 8 twice (the 90th percentile), and one dimension-9
# algebra, ten times costlier than dimension 8, joins each round in turn.
BETTI_SLOTS = (
    ("abelian", 6), ("diag", 6), ("sol3a", 6),
    ("abelian", 7), ("heisenberg", 7), ("diag", 7), ("sol3a", 7),
) * 2 + (("sol3a", 7), ("abelian", 8), ("diag", 8), ("sol3a", 8), ("diag", 8), ("sol3a", 7))
BETTI_LARGE = (("abelian", 9), ("heisenberg", 9), ("diag", 9), ("sol3a", 9))


def _std_algebra(rng: random.Random, family: str, n: int, ks: set) -> Algebra:
    if family == "abelian":
        return abelian(n)
    if family == "heisenberg":
        return heisenberg((n - 1) // 2)
    if family == "diag":
        return diag(n)
    for _ in range(1000):
        k = rng.randint(1, 400)
        if (k, n) not in ks:
            ks.add((k, n))
            return sol3a(k, n - 3)
    raise RuntimeError("ran out of distinct sol3 parameters")


def betti_sweep(seed: int, seconds: float) -> Workload:
    """Betti numbers over distinct (algebra, closed form) pairs, standard bases.

    Forms come in duality pairs (w, theta - w); half the pairs are critical
    (cohomology survives), half generic (it vanishes).
    """
    wl = Workload("betti_sweep", seed)
    rng = random.Random(f"betti_sweep:{seed}")
    ids: dict[str, str] = {}
    seen: set = set()
    ks: set = set()
    for r in range(rounds(wl.name, seconds)):
        large = [BETTI_LARGE[r % len(BETTI_LARGE)]]
        for s, (family, n) in enumerate(BETTI_SLOTS + tuple(large)):
            alg = _std_algebra(rng, family, n, ks)
            if alg.name not in ids:
                ids[alg.name] = wl.add_instance(Instance(alg))
            aid = ids[alg.name]
            want_critical = (r + s) % 2 == 0
            for _ in range(100):
                w = _critical(rng, alg) if want_critical else _generic(rng, alg)
                dual = tuple(t - x for t, x in zip(alg.theta(), w))
                if (aid, w) not in seen and (aid, dual) not in seen:
                    break
                want_critical = False
            else:
                raise RuntimeError("could not draw a distinct form")
            first = wl.add({"kind": "betti", "alg": aid, "w": vec(w)})
            seen.add((aid, w))
            second = first
            if dual != w:
                second = wl.add({"kind": "betti", "alg": aid, "w": vec(dual)})
                seen.add((aid, dual))
            wl.pairs.append((first, second))
    return wl


# -- reps_dense --------------------------------------------------------------

# sol3a 5 twice: the median query falls inside the cluster of dimension-5
# cohomology queries rather than at its edge
REPS_SLOTS = (("heisenberg", 5), ("diag", 5), ("sol3a", 5), ("sol3a", 5), ("abelian", 5),
              ("diag", 6), ("sol3a", 6), ("abelian", 6))
REPS_LARGE = (("heisenberg", 7), ("diag", 7), ("sol3a", 7))


def reps_dense(seed: int, seconds: float) -> Workload:
    """Cohomology with representatives and coboundary solves, random bases.

    Each algebra gets its own dense integer change of basis; it is queried at
    critical dual pairs (w, theta - w) and on two exact forms d_w(eta).
    """
    wl = Workload("reps_dense", seed)
    rng = random.Random(f"reps_dense:{seed}")
    ks: set = set()
    for r in range(rounds(wl.name, seconds)):
        slots = list(REPS_SLOTS)
        if r % 2 == 1:
            slots.append(REPS_LARGE[(r // 2) % len(REPS_LARGE)])
        for family, n in slots:
            alg = _std_algebra(rng, family, n, ks)
            inst = Instance(alg, _dense_change(rng, n))
            aid = wl.add_instance(inst)
            # semidirect algebras have several critical forms: query two
            # distinct dual pairs of them
            seen: set = set()
            for _ in range(10 if alg.kind == "semidirect" else 1):
                w_std = _critical(rng, alg)
                dual_std = tuple(t - x for t, x in zip(alg.theta(), w_std))
                if w_std in seen or dual_std in seen:
                    continue
                seen |= {w_std, dual_std}
                w = inst.from_std(w_std)
                first = wl.add({"kind": "cohomology", "alg": aid, "w": vec(w)})
                second = first
                if dual_std != w_std:
                    second = wl.add({"kind": "cohomology", "alg": aid,
                                     "w": vec(inst.from_std(dual_std))})
                wl.pairs.append((first, second))
                if len(seen) >= 3:
                    break
            # one exact form at the critical w and one at a generic form; d_w
            # vanishes identically on an abelian algebra at w = 0
            for cw in ((w,) if alg.kind != "abelian" else ()) + (
                    inst.from_std(_generic(rng, alg)),):
                p, xi = _exact_form(rng, inst, cw)
                wl.add({"kind": "coboundary", "alg": aid, "w": vec(cw), "p": p,
                        "xi": form_terms(xi)})
    return wl


def _exact_form(rng: random.Random, inst: Instance, w) -> tuple[int, dict]:
    """A nonzero d_w(eta) for a random sparse eta; returns (degree, form)."""
    n = inst.alg.dim
    for _ in range(1000):
        p = rng.randint(1, n)
        eta = {}
        for _ in range(3):
            idx = tuple(sorted(rng.sample(range(1, n + 1), p - 1)))
            eta[idx] = Fraction(rng.choice([-2, -1, 1, 2, 3]))
        xi = d_w(inst.consts, w, eta)
        if xi:
            return p, xi
    raise RuntimeError("d_w vanished on every sampled form")


# -- scan_solvable -----------------------------------------------------------

def _scale(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.choice([1, 2, 3]))


def scan_solvable(seed: int, seconds: float) -> Workload:
    """Scans, exceptional sets, r0 spectra and Novikov reports on solvable algebras.

    Each algebra receives a group of four queries (scan_line, omega_set,
    r0_spectrum, novikov_report), so work is shared across the queries of a
    group. Every other round adds a diag 7 group or a sol3 with k near 10^6.
    """
    wl = Workload("scan_solvable", seed)
    rng = random.Random(f"scan_solvable:{seed}")
    used: set = set()

    def fresh(make, draw):
        for _ in range(1000):
            alg = make(draw())
            if alg.name not in used:
                used.add(alg.name)
                return alg
        raise RuntimeError("ran out of distinct algebras")

    for r in range(rounds(wl.name, seconds)):
        algs = [fresh(lambda s: diag(5, s), lambda: _scale(rng)),
                fresh(lambda s: diag(6, s), lambda: _scale(rng))]
        # four cheap sol3 groups: the median query falls well inside their cluster
        algs += [fresh(sol3a, lambda: rng.randint(2, 2000)) for _ in range(4)]
        if r % 2 == 1:
            if (r // 2) % 2 == 0:
                algs.append(fresh(lambda s: diag(7, s), lambda: _scale(rng)))
            else:
                algs.append(fresh(sol3a, lambda: 10 ** 6 + rng.randint(0, 1000)))
        for alg in algs:
            n = alg.dim
            aid = wl.add_instance(Instance(alg))
            direction = _e1(n, rng.choice([1, -1, 2, -2, Fraction(1, 2), 3]))
            wl.add({"kind": "scan", "alg": aid, "w": vec(direction)})
            wl.add({"kind": "omega", "alg": aid})
            w = _critical(rng, alg) if rng.random() < 0.5 else _generic(rng, alg)
            wl.add({"kind": "r0", "alg": aid, "w": vec(w), "p": rng.randint(0, n)})
            w = _critical(rng, alg) if rng.random() < 0.5 else _generic(rng, alg)
            lam = Fraction(rng.randint(-3, 3) or 1, rng.choice([1, 1, 2]))
            wl.add({"kind": "novikov", "alg": aid, "w": vec(w), "lam": fr(lam),
                    "morse": [rng.randint(0, 3) for _ in range(n + 1)]})
    return wl


# -- cli_batch ---------------------------------------------------------------

def cli_batch(seed: int, seconds: float) -> Workload:
    """liecohom invocations over small algebras written as JSON files.

    Each round covers every subcommand plus three documented rejections:
    a non-closed --omega (exit 2), weights of a rotation algebra (exit 2) and
    a malformed JSON file (exit 1).
    """
    wl = Workload("cli_batch", seed)
    rng = random.Random(f"cli_batch:{seed}")
    used: set = set()

    def file_for(alg: Algebra) -> str:
        name = f"{alg.name.replace('/', '_')}.json"
        if name not in wl.files:
            wl.files[name] = json.dumps(alg.doc(), indent=2, sort_keys=True) + "\n"
            wl.add_instance(Instance(alg))
        return name

    def fresh_sol3():
        for _ in range(1000):
            k = rng.choice([Fraction(rng.randint(1, 500)), Fraction(rng.randint(1, 99), 2)])
            if ("sol3", k) not in used:
                used.add(("sol3", k))
                return sol3a(k)
        raise RuntimeError("ran out of distinct sol3 parameters")

    def one(xs):
        return ",".join(fr(x) for x in xs)

    def q(argv, rc, alg=None, **extra):
        wl.add({"argv": argv, "rc": rc, "alg": alg, **extra})

    small = [abelian(2), abelian(3), abelian(4), heisenberg(1), heisenberg(2)]
    for r in range(rounds(wl.name, seconds)):
        g = fresh_sol3()
        f = file_for(g)
        q(["validate", f], 0, kind="validate")
        w = rng.choice([_critical(rng, g), _generic(rng, g)])
        q(["cohomology", f, f"--omega={one(w)}", "--reps", "--json"], 0, g.name,
          kind="cohomology", w=vec(w))
        h = small[r % len(small)]
        w = _generic(rng, h) if r >= len(small) else _zeros(h.dim)
        q(["cohomology", file_for(h), f"--omega={one(w)}", "--reps", "--json"], 0, h.name,
          kind="cohomology", w=vec(w))
        d = diag(4, _scale(rng) * (r + 1))
        q(["weights", file_for(d), "--json"], 0, d.name, kind="weights")
        q(["omega-set", f], 0, g.name, kind="omega")
        d2 = diag(4, Fraction(rng.randint(1, 40), rng.choice([1, 3])) * (r + 1))
        direction = _e1(d2.dim, rng.choice([1, -1, 2, Fraction(1, 2)]))
        q(["scan", file_for(d2), f"--direction={one(direction)}"], 0, d2.name,
          kind="scan", w=vec(direction))
        direction = _e1(3, rng.choice([1, -1, 2, 3]))
        q(["scan", f, f"--direction={one(direction)}"], 0, g.name, kind="scan", w=vec(direction))
        w = _critical(rng, g)
        lam = Fraction(rng.choice([1, 2, -1, 3]))
        morse = [rng.randint(0, 2) for _ in range(4)]
        q(["novikov", f, f"--omega={one(w)}", f"--lambda={fr(lam)}",
           f"--morse={','.join(map(str, morse))}"], 0, g.name,
          kind="novikov", w=vec(w), lam=fr(lam), morse=morse)
        out = f"emit_{r}.json"
        q(["example", "sol3", "--param", f"k={fr(g.eig[0])}", "--emit", out], 0, g.name,
          kind="example", out=out)
        bad = (Fraction(0), Fraction(1), Fraction(rng.randint(1, 5)))
        q(["cohomology", f, f"--omega={one(bad)}"], 2, kind="reject")
        rot = rotation(Fraction(rng.randint(1, 30), rng.choice([1, 2])) * (r + 1))
        if rot.name not in used:
            used.add(rot.name)
            q(["weights", file_for(rot)], 2, kind="reject")
        text = wl.files[f]
        broken = f"broken_{r}.json"
        wl.files[broken] = text[:rng.randint(1, len(text) - 2)]
        q(["validate", broken], 1, kind="reject")
    return wl


GENERATORS = {
    "betti_sweep": betti_sweep,
    "reps_dense": reps_dense,
    "scan_solvable": scan_solvable,
    "cli_batch": cli_batch,
}


# -- independent checks ------------------------------------------------------

def _chi_zero(betti) -> bool:
    return sum((-1) ** p * b for p, b in enumerate(betti)) == 0


def check_library(wl: Workload, qi: int, answer) -> str | None:
    """None when the answer to library query ``qi`` passes, else a reason."""
    q = wl.queries[qi]
    inst: Instance = wl.instances[q["alg"]]
    alg = inst.alg
    n = alg.dim
    kind = q["kind"]
    if kind in ("betti", "cohomology"):
        w = tuple(Fraction(x) for x in q["w"])
        betti = answer if kind == "betti" else answer["betti"]
        expected = alg.betti(inst.to_std(w))
        if list(betti) != expected:
            return f"betti {betti} != closed form {expected}"
        if not _chi_zero(betti):
            return "euler characteristic is not zero"
        if kind == "cohomology":
            reps = answer["reps"]
            if [len(r) for r in reps] != expected:
                return "representative counts differ from the Betti numbers"
            for degree in reps:
                for rep in degree:
                    if d_w(inst.consts, w, terms_form(rep)):
                        return "a representative is not a cocycle"
        return None
    if kind == "coboundary":
        if answer is None:
            return "exact form reported as not exact"
        w = tuple(Fraction(x) for x in q["w"])
        if d_w(inst.consts, w, terms_form(answer)) != terms_form(q["xi"]):
            return "primitive does not satisfy d_w eta = xi"
        return None
    if kind == "scan":
        direction = tuple(Fraction(x) for x in q["w"])
        c = direction[0]
        expected = sorted({Fraction(0)} | {s / c for s in _subset_sums(alg)})
        if [Fraction(x) for x in answer["critical"]] != expected:
            return "critical multipliers differ from the weight subset sums"
        for lam, betti in answer["rows"]:
            if betti != alg.betti([Fraction(lam) * x for x in direction]):
                return f"scan row at {lam} differs from the closed form"
        lam, betti = answer["generic"]
        if any(betti) or alg.exceptional([Fraction(lam) * x for x in direction]):
            return "generic scan row is not zero"
        return None
    if kind == "omega":
        expected = {tuple(fr(x) for x in (-s,) + (0,) * (n - 1)) for s in _subset_sums(alg)}
        if {tuple(x) for x in answer} != expected or len(answer) != len(expected):
            return "exceptional set differs from the weight subset sums"
        return None
    if kind == "r0":
        w = tuple(Fraction(x) for x in q["w"])
        p = q["p"]
        values = [Fraction(x) for x in answer]
        if len(values) != comb(n, p) or values != sorted(values) or min(values, default=0) < 0:
            return "r0 spectrum has the wrong shape"
        hit = any(sum(s, Fraction(0)) == -w[0]
                  for s in combinations([v[0] for v in alg.weights()], p))
        if values and (values[0] == 0) != hit:
            return "r0 spectrum minimum disagrees with the weight sums"
        return None
    if kind == "novikov":
        w = tuple(Fraction(x) for x in q["w"])
        lam = Fraction(q["lam"])
        scaled = [lam * x for x in w]
        betti = alg.betti(scaled)
        if answer["betti"] != betti:
            return "novikov Betti numbers differ from the closed form"
        if answer["holds"] != [m >= b for m, b in zip(q["morse"], betti)]:
            return "novikov inequality flags are wrong"
        if answer["lambda_critical"] != alg.exceptional(scaled):
            return "novikov critical flag is wrong"
        return None
    return f"unknown query kind {kind}"


def _subset_sums(alg: Algebra) -> set:
    return {sum(s, Fraction(0)) for q in range(len(alg.eig) + 1)
            for s in combinations(alg.eig, q)}


def check_duality(wl: Workload, answers: list) -> list[int]:
    """Queries whose pair breaks b^p_w = b^{n-p}_{theta-w}."""
    bad = []
    for a, b in wl.pairs:
        if answers[a] is None or answers[b] is None:
            continue
        ba = answers[a] if wl.queries[a]["kind"] == "betti" else answers[a]["betti"]
        bb = answers[b] if wl.queries[b]["kind"] == "betti" else answers[b]["betti"]
        if list(ba) != list(bb)[::-1]:
            bad += [a, b]
    return bad


def check_cli(wl: Workload, qi: int, rc: int, out: str, files: dict) -> str | None:
    """None when CLI query ``qi`` exited and printed as documented."""
    q = wl.queries[qi]
    if rc != q["rc"]:
        return f"exit code {rc}, expected {q['rc']}"
    kind = q["kind"]
    if kind == "reject":
        return None if out == "" else "rejected command printed to stdout"
    inst = next((i for i in wl.instances.values() if i.alg.name == q["alg"]), None)
    alg = inst.alg if inst else None
    if kind == "validate":
        return None if out == "OK\n" else "validate did not print OK"
    try:
        if kind == "cohomology":
            doc = json.loads(out)
            w = tuple(Fraction(x) for x in q["w"])
            expected = alg.betti(w)
            if doc["betti"] != expected or not _chi_zero(doc["betti"]):
                return "cohomology Betti numbers differ from the closed form"
            reps = doc["representatives"]
            if [len(r) for r in reps] != expected:
                return "representative counts differ from the Betti numbers"
            for degree in reps:
                for rep in degree:
                    form = {tuple(t["indices"]): Fraction(t["coeff"]) for t in rep}
                    if d_w(alg.consts, w, form):
                        return "a representative is not a cocycle"
            return None
        if kind == "weights":
            doc = json.loads(out)
            got = sorted(tuple(Fraction(x) for x in w) for w in doc["weights"])
            unimodular = sum(alg.eig, Fraction(0)) == 0
            if (got != sorted(alg.weights()) or doc["k"] != alg.dim - len(alg.eig)
                    or doc["weight_sum_zero"] != unimodular or doc["unimodular"] != unimodular):
                return "weights differ from the known eigenvalues"
            return None
        if kind == "omega":
            got = {tuple(Fraction(x) for x in line.strip("()").split(","))
                   for line in out.splitlines()}
            expected = {(-s,) + (Fraction(0),) * (alg.dim - 1) for s in _subset_sums(alg)}
            return None if got == expected else "omega-set differs from the weight sums"
        if kind == "scan":
            direction = tuple(Fraction(x) for x in q["w"])
            lines = out.splitlines()
            rows = [_scan_line(line) for line in lines[:-1]]
            expected = sorted({Fraction(0)} | {s / direction[0] for s in _subset_sums(alg)})
            if [lam for lam, _ in rows] != expected:
                return "scan multipliers differ from the weight subset sums"
            for lam, betti in rows:
                if betti != alg.betti([lam * x for x in direction]):
                    return "scan row differs from the closed form"
            lam, betti = _scan_line(lines[-1])
            if any(betti) or alg.exceptional([lam * x for x in direction]):
                return "generic scan row is not zero"
            return None
        if kind == "novikov":
            w = [Fraction(q["lam"]) * Fraction(x) for x in q["w"]]
            betti = alg.betti(w)
            lines = out.splitlines()
            for p, b in enumerate(betti):
                m = q["morse"][p]
                status = "holds" if m >= b else "VIOLATED"
                if lines[p] != f"degree {p}: m={m} b={b}  {status}":
                    return f"novikov degree {p} line is wrong"
            return None
        if kind == "example":
            if json.loads(files.get(q["out"], "null")) != alg.doc():
                return "emitted example differs from sol3(k)"
            return None
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc}"
    return f"unknown cli query kind {kind}"


def _scan_line(line: str):
    head, betti = line.split("betti =")
    lam = Fraction(head.split("=")[1].strip())
    return lam, json.loads(betti)
