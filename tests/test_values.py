"""The value classes' contract: equality, hashing, repr, immutability, caches.

Each class lists its fields in order; equality and hashing read exactly
those, and the cached attributes a class stores in its ``__dict__`` stay out
of both.
"""

from __future__ import annotations

import pytest

from lpsurf.build import double_cover, initial_quasi_triangulation
from lpsurf.explorer import ExchangeGraph, LaurentReport, explore_flips, explore_seeds, verify_laurent
from lpsurf.lp_core import LPSeed
from lpsurf.poly import PolyError, Polynomial, VariableContext, parse_polynomial, release_cached
from lpsurf.quiver import Quiver
from lpsurf.surface import MarkedSurface, QuasiTriangulation

SQUARE = MarkedSurface(0, 0, (4,))
CTX = VariableContext(("a", "b"), ("t",))


def _seed() -> LPSeed:
    return LPSeed.initial(("x", "y"), (), ("1+y", "1+x"))


# class -> (a fresh instance, its field names in order)
VALUES = {
    "VariableContext": (lambda: VariableContext(("a", "b"), ("t",)), ("cluster", "frozen")),
    "Polynomial": (lambda: parse_polynomial("a*t + 1", CTX), ("ctx", "terms")),
    "LPSeed": (_seed, ("ctx", "polys", "names", "values")),
    "MarkedSurface": (lambda: MarkedSurface(0, 0, (4,)),
                      ("genus", "cross_caps", "boundary", "boundary_variables")),
    "QuasiTriangulation": (lambda: initial_quasi_triangulation(SQUARE),
                           ("surface", "regions", "boundary", "next_id")),
    "LiftedTriangulation": (lambda: double_cover(initial_quasi_triangulation(SQUARE)),
                            ("base", "triangles", "mutable_edges", "frozen_edges")),
    "ExchangeGraph": (lambda: explore_seeds(_seed()),
                      ("kind", "labels", "edges", "truncated", "payloads", "keys", "parents")),
    "LaurentReport": (lambda: verify_laurent(_seed(), [(0, 1, 0)]),
                      ("sequences_checked", "variables_checked", "violations")),
    "Quiver": (lambda: Quiver(1, ((0, 1), (-1, 0))), ("pairs", "b", "frozen")),
}
MUTABLE = {"ExchangeGraph", "LaurentReport"}
FROZEN = sorted(set(VALUES) - MUTABLE)


def _field_tuple(x, names):
    return tuple(getattr(x, name) for name in names)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equality_compares_the_fields_of_one_class(name):
    make, names = VALUES[name]
    x, y = make(), make()
    assert type(x).__name__ == name
    assert x is not y and x == y and not x != y and x == x
    assert x.__eq__(1) is NotImplemented and x != 1 and not x == 1
    assert x.__eq__(_field_tuple(x, names)) is NotImplemented
    assert type(x)(*_field_tuple(x, names)) == x
    assert type(x)(**dict(zip(names, _field_tuple(x, names)))) == x


def test_equality_sees_each_field():
    p = parse_polynomial("a*t + 1", CTX)
    assert Polynomial(p.ctx, p.terms[:1]) != p
    assert Polynomial(VariableContext(("a", "b", "c"), ("t",)), p.terms) != p
    assert Polynomial(p.ctx, p.terms) == p and not Polynomial(p.ctx, ()) == p
    assert MarkedSurface(0, 0, (4,), False) != SQUARE
    g = explore_seeds(_seed())
    h = explore_seeds(_seed())
    h.parents[1] = None
    assert g != h  # payloads, keys and parents compare, though repr leaves them out


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_hash_is_the_field_tuple_hash(name):
    make, names = VALUES[name]
    x = make()
    assert hash(x) == hash(_field_tuple(x, names)) == hash(make())
    assert {x: 1}[make()] == 1


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_classes_are_unhashable(name):
    x = VALUES[name][0]()
    assert type(x).__hash__ is None
    with pytest.raises(TypeError):
        hash(x)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields_refuse_assignment_and_deletion(name):
    make, names = VALUES[name]
    x = make()
    before = _field_tuple(x, names)
    for field in names:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(x, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(x, field)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        x.extra = 1
    assert _field_tuple(x, names) == before


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_fields_take_assignment(name):
    make, names = VALUES[name]
    x = make()
    setattr(x, names[0], 7)
    assert getattr(x, names[0]) == 7 and x != make()


def test_repr_strings():
    assert repr(SQUARE) == (
        "MarkedSurface(genus=0, cross_caps=0, boundary=(4,), boundary_variables=True)")
    assert repr(CTX) == "VariableContext(cluster=('a', 'b'), frozen=('t',))"
    assert repr(initial_quasi_triangulation(SQUARE)) == (
        "QuasiTriangulation(surface=MarkedSurface(genus=0, cross_caps=0, boundary=(4,), "
        "boundary_variables=True), regions=(('tri', ((0, 1), (1, 1), (4, -1))), "
        "('tri', ((4, 1), (2, 1), (3, 1)))), boundary=((0, 'b1'), (1, 'b2'), (2, 'b3'), "
        "(3, 'b4')), next_id=5)")
    assert repr(explore_seeds(_seed())) == (
        "ExchangeGraph(kind='seeds', labels=['x,y', \"x',y\", \"x,y'\", \"x',y'\", \"x',y'\"], "
        "edges={(0, 1): '0', (0, 2): '1', (1, 3): '1', (2, 4): '0', (3, 4): '0'}, "
        "truncated=False)")
    assert repr(explore_flips(initial_quasi_triangulation(SQUARE))) == (
        "ExchangeGraph(kind='flips', labels=['4', '5'], edges={(0, 1): '4'}, truncated=False)")
    assert repr(verify_laurent(_seed(), [(0, 1, 0)])) == (
        "LaurentReport(sequences_checked=1, variables_checked=6, violations=[])")
    assert repr(Quiver(1, ((0, 1), (-1, 0)))) == (
        "Quiver(pairs=1, b=((0, 1), (-1, 0)), frozen=frozenset())")
    assert repr(parse_polynomial("a + 1", CTX)) == "Polynomial('a + 1')"
    assert repr(_seed()) == "LPSeed([x,y] | y + 1; x + 1)"


def test_defaults_and_constructor_checks():
    assert SQUARE.boundary_variables is True
    assert VariableContext(["a"]) == VariableContext(("a",), ())
    assert VariableContext(["a"], ["t"]).frozen == ("t",)
    with pytest.raises(PolyError, match="disjoint"):
        VariableContext(("a", "a"))
    with pytest.raises(PolyError, match="bad variable name"):
        VariableContext(("a",), ("1t",))
    q = Quiver(1, [[0, 1], [-1, 0]], [0])
    assert q.b == ((0, 1), (-1, 0)) and q.frozen == frozenset({0})
    assert Quiver(1, ((0, 1), (-1, 0))).frozen == frozenset()
    with pytest.raises(PolyError, match="wrong shape"):
        Quiver(1, ((0,),))
    with pytest.raises(PolyError, match="out of range"):
        Quiver(1, ((0, 1), (-1, 0)), {1})
    g, h = ExchangeGraph("seeds", [], {}, False), ExchangeGraph("seeds", [], {}, False)
    for name in ("payloads", "keys", "parents"):
        assert getattr(g, name) == [] and getattr(g, name) is not getattr(h, name)
    assert LaurentReport(0, 0, []).ok


def test_with_values_builds_a_new_seed():
    seed = _seed()
    values = [v.neg() for v in seed.values]
    other = seed.with_values(values)
    assert other.values == tuple(values) and other.values != seed.values
    assert (other.ctx, other.polys, other.names) == (seed.ctx, seed.polys, seed.names)


@pytest.mark.parametrize("make, attribute", [
    (lambda: parse_polynomial("a*t + 1", CTX), "is_ordinary"),
    (_seed, "violations"),
    (lambda: initial_quasi_triangulation(SQUARE), "slots"),
])
def test_cached_attributes_stay_out_of_equality_and_hash(make, attribute):
    x, fresh = make(), make()
    x.__dict__.pop(attribute, None)
    value = getattr(x, attribute)
    assert x.__dict__[attribute] is value and getattr(x, attribute) is value
    assert x == fresh and hash(x) == hash(fresh)
    release_cached(x)
    assert attribute not in x.__dict__
    assert getattr(x, attribute) == value and attribute in x.__dict__


def test_a_flipped_state_is_a_plain_state():
    t = initial_quasi_triangulation(SQUARE)
    g = explore_flips(t)
    assert all(type(s) is QuasiTriangulation for s in g.payloads)
    assert g.payloads[0] == t and hash(g.payloads[0]) == hash(t)
