"""Built-in model algebras with their known cohomology tables.

Four families: tori (abelian), the 3-dimensional Heisenberg algebra, the
completely solvable mapping-torus algebra sol3(k), and the Euclidean-motion
algebra euclid3 whose adjoint action rotates and therefore has no real
triangular form. euclid3 is stored with rational constants: the conventional
2*pi factor is absorbed into the first basis vector, a basis change that
leaves every computed dimension untouched.

sol3 accepts any nonzero rational k. At the group level k would have to
satisfy a lattice-existence condition (exp(k) + exp(-k) must be a positive
integer); at the algebra level all nonzero k behave alike, so the parameter
is unrestricted here and the condition is only documented.
"""

from __future__ import annotations

from .algebra import LieAlgebra, OneForm, _record
from .cohomology import _binomials
from .errors import StructureError
from .linalg import _exact
from .serialization import parse_decimal


@_record
class CatalogEntry:
    """A named algebra, its parameters, provenance and expected Betti tables.

    ``expected`` pairs a twisting one-form with the Betti vector it must
    produce; regression tests replay these through the engine.
    """

    name: str
    parameters: dict
    algebra: LieAlgebra
    provenance: str
    expected: tuple[tuple[OneForm, tuple[int, ...]], ...] = ()


def _abelian(n: int) -> CatalogEntry:
    if type(n) is not int or n < 1:
        raise StructureError("abelian requires an integer parameter n >= 1")
    g = LieAlgebra.from_brackets(n, {})
    expected = ((OneForm.zero(n), tuple(_binomials(n))),)
    return CatalogEntry(
        name="abelian",
        parameters={"n": n},
        algebra=g,
        provenance=f"abelian Lie algebra of the {n}-torus; all brackets vanish",
        expected=expected,
    )


def _heisenberg3() -> CatalogEntry:
    g = LieAlgebra.from_brackets(3, {(1, 2): (0, 0, 1)})
    zero = OneForm.zero(3)
    e1 = OneForm((1, 0, 0))
    expected = (
        (zero, (1, 2, 2, 1)),
        (e1, (0, 0, 0, 0)),
        (-e1, (0, 0, 0, 0)),
    )
    return CatalogEntry(
        name="heisenberg3",
        parameters={},
        algebra=g,
        provenance="3-dimensional Heisenberg algebra (upper triangular "
                   "unipotent 3x3 matrices); [e1,e2] = e3",
        expected=expected,
    )


def _sol3(k) -> CatalogEntry:
    try:
        k = _exact(k)
    except StructureError as exc:
        raise StructureError(f"parameter k: {exc}") from None
    if k == 0:
        raise StructureError("sol3 requires a nonzero rational parameter k")
    g = LieAlgebra.from_brackets(3, {(1, 2): (0, k, 0), (1, 3): (0, 0, -k)})
    zero = OneForm.zero(3)
    ke1 = OneForm((k, 0, 0))
    expected = (
        (zero, (1, 1, 1, 1)),
        (ke1, (0, 1, 1, 0)),
        (-ke1, (0, 1, 1, 0)),
        (ke1.scale(2), (0, 0, 0, 0)),
    )
    return CatalogEntry(
        name="sol3",
        parameters={"k": k},
        algebra=g,
        provenance="completely solvable algebra of the hyperbolic mapping "
                   "torus; [e1,e2] = k e2, [e1,e3] = -k e3 (a lattice exists "
                   "upstairs only when exp(k)+exp(-k) is a positive integer)",
        expected=expected,
    )


def _euclid3() -> CatalogEntry:
    g = LieAlgebra.from_brackets(3, {(1, 2): (0, 0, -1), (1, 3): (0, 1, 0)})
    expected = ((OneForm.zero(3), (1, 1, 1, 1)),)
    return CatalogEntry(
        name="euclid3",
        parameters={},
        algebra=g,
        provenance="algebra of orientation-preserving Euclidean plane "
                   "motions; [e1,e2] = -e3, [e1,e3] = e2 after absorbing the "
                   "2*pi rotation speed into e1 (dimension-preserving "
                   "rescaling); ad(e1) has eigenvalues 0, +-i",
        expected=expected,
    )


CATALOG_NAMES = ("abelian", "heisenberg3", "sol3", "euclid3")


def load_example(name: str, **params) -> CatalogEntry:
    """Build a catalog entry by name.

    abelian takes n >= 1, sol3 takes a nonzero rational k (default 1); the
    other entries take no parameters. Unknown names or bad parameters raise
    StructureError.
    """
    if name == "abelian":
        n = params.pop("n", 2)
        if isinstance(n, str):
            n = parse_decimal(n, "abelian parameter n must be an integer, got")
        entry = _abelian(n)
    elif name == "heisenberg3":
        entry = _heisenberg3()
    elif name == "sol3":
        entry = _sol3(params.pop("k", 1))
    elif name == "euclid3":
        entry = _euclid3()
    else:
        raise StructureError(
            f"unknown example {name!r}; available: {', '.join(CATALOG_NAMES)}")
    if params:
        raise StructureError(
            f"unexpected parameters for {name}: {', '.join(sorted(params))}")
    return entry
