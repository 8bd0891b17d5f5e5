"""Benchmark-side model of the algebra families, independent of liecohom.

Everything the benchmark checks answers against lives here: the structure
constants it generates, the closed-form twisted Betti numbers of each
family in its standard basis, the exceptional set, a change of basis, and a
small exterior calculus for verifying cocycles and primitives. None of it
imports the package under test.

Families (1-based indices, brackets not listed are zero):

* ``abelian n``: no brackets.
* ``heisenberg m`` (dimension 2m+1): [e_i, e_{m+i}] = e_{2m+1}.
* ``diag n, s``: [e_1, e_j] = s (j-1) e_j.
* ``sol3a k, m`` (dimension 3+m): [e_1, e_2] = k e_2, [e_1, e_3] = -k e_3,
  plus an abelian factor R^m; m = 0 is sol3(k).
* ``rotation a``: [e_1, e_2] = -a e_3, [e_1, e_3] = a e_2 (euclid3 up to
  scale; not rationally triangularizable).

diag and sol3a are R e_1 acting diagonally on an abelian ideal V. For such
an algebra and a closed form w = c e^1 + u (u supported on the central
coordinates), d_w(e^I) = (c - s_I) e^1 ^ e^I and d_w(e^1 ^ e^I) = 0 for
I inside the nonzero eigenvectors, where s_I sums the eigenvalues over I.
Hence b_p = N(p, c) + N(p-1, c), with N(q, c) the number of q-subsets of
eigenvalues summing to c, and the central factor contributes its binomials
by Kunneth when u = 0 and nothing otherwise.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

Form = dict  # sorted 1-based index tuple -> Fraction


def fr(q) -> str:
    """Exact rational as "p" or "p/q", the package's wire format."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Algebra:
    """Structure constants plus what the closed forms need to know.

    ``consts`` maps (i, j), 1 <= i < j <= dim, to a {k: coefficient} dict.
    ``kind`` is abelian, heisenberg, semidirect or rotation; semidirect
    algebras carry the nonzero eigenvalues ``eig`` of ad e_1 and the central
    coordinates ``central``.
    """

    def __init__(self, name: str, dim: int, consts: dict, kind: str,
                 eig: tuple = (), central: tuple = ()):
        self.name = name
        self.dim = dim
        self.consts = {key: {k: Fraction(c) for k, c in v.items() if c != 0}
                       for key, v in consts.items()}
        self.kind = kind
        self.eig = tuple(Fraction(x) for x in eig)
        self.central = tuple(central)
        sums = [Counter() for _ in range(len(self.eig) + 1)]
        for q in range(len(self.eig) + 1):
            for subset in combinations(self.eig, q):
                sums[q][sum(subset, Fraction(0))] += 1
        self._subset_sums = sums

    def doc(self) -> dict:
        """The package's JSON algebra document."""
        items = [{"i": i, "j": j, "coeffs": {str(k): fr(c) for k, c in sorted(v.items())}}
                 for (i, j), v in sorted(self.consts.items())]
        return {"dim": self.dim, "basis": [f"e{i}" for i in range(1, self.dim + 1)],
                "brackets": items}

    # -- closed forms in the standard basis ---------------------------------

    def is_closed(self, w) -> bool:
        return all(sum((w[k - 1] * c for k, c in v.items()), Fraction(0)) == 0
                   for v in self.consts.values())

    def theta(self) -> tuple:
        """The trace form tr ad, coordinates in the dual basis."""
        out = [Fraction(0)] * self.dim
        if self.kind == "semidirect":
            out[0] = sum(self.eig, Fraction(0))
        return tuple(out)

    def _split(self, w):
        c = Fraction(w[0])
        u = [Fraction(w[j - 1]) for j in self.central]
        return c, u

    def exceptional(self, w) -> bool:
        """Whether -w lies in the exceptional set of weight subset sums."""
        if self.kind in ("abelian", "heisenberg"):
            return all(x == 0 for x in w)
        if self.kind != "semidirect":
            raise ValueError(f"no weights for {self.kind}")
        c, u = self._split(w)
        return all(x == 0 for x in u) and any(c in s for s in self._subset_sums)

    def betti(self, w) -> list[int]:
        """Twisted Betti numbers at a closed form w of the standard basis."""
        n = self.dim
        w = [Fraction(x) for x in w]
        if not self.is_closed(w):
            raise ValueError("closed form required")
        zero = all(x == 0 for x in w)
        if self.kind == "abelian":
            return [comb(n, p) if zero else 0 for p in range(n + 1)]
        if self.kind == "heisenberg":
            if not zero:
                return [0] * (n + 1)
            m = (n - 1) // 2
            low = [comb(2 * m, p) - (comb(2 * m, p - 2) if p >= 2 else 0)
                   for p in range(m + 1)]
            return low + low[::-1]
        if self.kind != "semidirect":
            raise ValueError(f"no closed form for {self.kind}")
        c, u = self._split(w)
        r = len(self.eig)
        count = [self._subset_sums[q][c] for q in range(r + 1)] + [0]
        semi = [count[p] + (count[p - 1] if p else 0) for p in range(r + 2)]
        t = len(self.central)
        central = [comb(t, p) if all(x == 0 for x in u) else 0 for p in range(t + 1)]
        out = [0] * (n + 1)
        for a, x in enumerate(semi):
            for b, y in enumerate(central):
                out[a + b] += x * y
        return out

    def weights(self) -> list[tuple]:
        """Weight one-forms as a multiset (closed block first)."""
        n = self.dim
        zero = tuple(Fraction(0) for _ in range(n))
        if self.kind in ("abelian", "heisenberg"):
            return [zero] * n
        return [zero] * (n - len(self.eig)) + [
            tuple(-lam if i == 0 else Fraction(0) for i in range(n)) for lam in self.eig]


def abelian(n: int) -> Algebra:
    return Algebra(f"abelian{n}", n, {}, "abelian")


def heisenberg(m: int) -> Algebra:
    n = 2 * m + 1
    return Algebra(f"heisenberg{n}", n, {(i, m + i): {n: 1} for i in range(1, m + 1)},
                   "heisenberg")


def diag(n: int, s=1) -> Algebra:
    s = Fraction(s)
    return Algebra(f"diag{n}_s{fr(s)}", n, {(1, j): {j: s * (j - 1)} for j in range(2, n + 1)},
                   "semidirect", eig=[s * (j - 1) for j in range(2, n + 1)])


def sol3a(k, m: int = 0) -> Algebra:
    k = Fraction(k)
    return Algebra(f"sol3_k{fr(k)}_a{m}", 3 + m, {(1, 2): {2: k}, (1, 3): {3: -k}},
                   "semidirect", eig=[k, -k], central=tuple(range(4, 4 + m)))


def rotation(a) -> Algebra:
    a = Fraction(a)
    return Algebra(f"rotation_a{fr(a)}", 3, {(1, 2): {3: -a}, (1, 3): {2: a}}, "rotation")


# -- linear algebra for the change of basis ---------------------------------

def invert(m: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse over Q, or None when singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        p = a[c][c]
        a[c] = [x / p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def bracket(consts: dict, n: int, x, y) -> list[Fraction]:
    out = [Fraction(0)] * n
    for (i, j), v in consts.items():
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if c:
            for k, ck in v.items():
                out[k - 1] += c * ck
    return out


def change_basis(consts: dict, n: int, m: list[list[Fraction]]) -> dict:
    """Structure constants in the basis given by the columns of ``m``."""
    inv = invert(m)
    cols = [[m[r][c] for r in range(n)] for c in range(n)]
    out = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            old = bracket(consts, n, cols[a - 1], cols[b - 1])
            new = {k + 1: sum((inv[k][t] * old[t] for t in range(n)), Fraction(0))
                   for k in range(n)}
            new = {k: c for k, c in new.items() if c != 0}
            if new:
                out[(a, b)] = new
    return out


def pullback(w, m) -> tuple:
    """One-form coordinates in the new basis: m transposed applied to w."""
    n = len(m)
    return tuple(sum((m[r][c] * Fraction(w[r]) for r in range(n)), Fraction(0))
                 for c in range(n))


# -- exterior calculus -------------------------------------------------------

def _sorted_sign(seq: tuple) -> tuple[tuple, int] | None:
    if len(set(seq)) != len(seq):
        return None
    inversions = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
                     if seq[a] > seq[b])
    return tuple(sorted(seq)), (-1 if inversions % 2 else 1)


def d_w(consts: dict, w, form: Form) -> Form:
    """Twisted differential d + w ^ of a homogeneous form.

    On generators d e^k = - sum_{i<j} C_ij^k e^i ^ e^j, extended by the
    graded Leibniz rule.
    """
    gens: dict[int, dict] = {}
    for (i, j), v in consts.items():
        for k, c in v.items():
            gens.setdefault(k, {})[(i, j)] = -c
    out: dict[tuple, Fraction] = {}

    def add(seq, value):
        merged = _sorted_sign(seq)
        if merged is not None:
            idx, sign = merged
            out[idx] = out.get(idx, Fraction(0)) + sign * value

    for idx, c in form.items():
        for t, k in enumerate(idx):
            for (i, j), dc in gens.get(k, {}).items():
                add(idx[:t] + (i, j) + idx[t + 1:], (-1) ** t * c * dc)
        for m, wm in enumerate(w, start=1):
            if wm:
                add((m,) + idx, Fraction(wm) * c)
    return {idx: c for idx, c in out.items() if c != 0}
