import json
from fractions import Fraction

import pytest

from liecohom import (
    StructureError,
    betti_numbers,
    classify,
    load_example,
    parse_algebra,
)
from liecohom.catalog import CATALOG_NAMES
from liecohom.serialization import algebra_to_dict

from conftest import one_form


def test_all_entries_load_and_validate():
    for name in CATALOG_NAMES:
        entry = load_example(name)
        assert entry.algebra.dim >= 1
        assert entry.provenance


def test_expected_tables_are_reproduced():
    entries = [
        load_example("abelian", n=2),
        load_example("abelian", n=3),
        load_example("heisenberg3"),
        load_example("sol3", k=1),
        load_example("sol3", k=Fraction(1, 2)),
        load_example("euclid3"),
    ]
    for entry in entries:
        for omega, expected in entry.expected:
            assert tuple(betti_numbers(entry.algebra, omega)) == expected


def test_sol3_structure_relations():
    k = Fraction(5, 3)
    g = load_example("sol3", k=k).algebra
    assert g.bracket_basis(1, 2) == (0, k, 0)
    assert g.bracket_basis(1, 3) == (0, 0, -k)
    assert g.bracket_basis(2, 3) == (0, 0, 0)


def test_heisenberg_structure_relation():
    g = load_example("heisenberg3").algebra
    assert g.bracket_basis(1, 2) == (0, 0, 1)
    assert g.bracket_basis(1, 3) == (0, 0, 0)


def test_euclid3_structure_relations():
    g = load_example("euclid3").algebra
    assert g.bracket_basis(1, 2) == (0, 0, -1)
    assert g.bracket_basis(1, 3) == (0, 1, 0)
    assert "2*pi" in load_example("euclid3").provenance


def test_sol3_betti_independent_of_parameter():
    for k in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3)):
        g = load_example("sol3", k=k).algebra
        assert betti_numbers(g, one_form(k, 0, 0)) == [0, 1, 1, 0]
        assert betti_numbers(g, one_form(-k, 0, 0)) == [0, 1, 1, 0]
        assert betti_numbers(g, one_form(0, 0, 0)) == [1, 1, 1, 1]
        assert betti_numbers(g, one_form(2 * k, 0, 0)) == [0, 0, 0, 0]


def test_classification_labels_match():
    assert classify(load_example("heisenberg3").algebra).value == "nilpotent"
    assert classify(load_example("sol3", k=1).algebra).value == "solvable"
    assert classify(load_example("euclid3").algebra).value == "solvable"
    assert classify(load_example("abelian", n=3).algebra).value == "abelian"


def test_invalid_parameters():
    with pytest.raises(StructureError):
        load_example("sol3", k=0)
    with pytest.raises(StructureError):
        load_example("abelian", n=0)
    with pytest.raises(StructureError):
        load_example("no_such_algebra")
    with pytest.raises(StructureError):
        load_example("heisenberg3", k=1)


def test_floats_and_bools_are_not_coerced():
    for bad in (0.1, 2.0, True, False):
        with pytest.raises(StructureError):
            load_example("sol3", k=bad)
    for bad in (True, False, 2.0):
        with pytest.raises(StructureError):
            load_example("abelian", n=bad)
    # strings stay exact, as the command line passes them
    assert load_example("sol3", k="0.1").parameters["k"] == Fraction(1, 10)
    assert load_example("abelian", n="3").algebra.dim == 3


def test_entries_export_to_wire_format_and_back():
    for name, params in [("abelian", {"n": 3}), ("heisenberg3", {}),
                         ("sol3", {"k": Fraction(2, 3)}), ("euclid3", {})]:
        g = load_example(name, **params).algebra
        doc = json.dumps(algebra_to_dict(g))
        assert parse_algebra(doc) == g
