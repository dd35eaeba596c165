"""The value classes: immutable, most with the equality, hash and repr of frozen dataclasses.

Set and dict orders, and so the CLI's output, follow hash(field tuple); these
tests pin the field order of every class.  The package itself imports neither
dataclasses nor inspect, whose import is a large share of a fresh CLI process.
"""

import ast
import copy
import importlib
import pickle
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import morsegrass
from morsegrass import flows, polytopes, ring, symbols
from morsegrass.flows import GrassmannPoint, HeightSpectrum, TangentVector
from morsegrass.graphs import FlowGraph, LabeledEnds
from morsegrass.polynomials import IntPolynomial, MorseViolation
from morsegrass.polytopes import MomentPoint, VertexPolytope
from morsegrass.ring import CohomologyClass
from morsegrass.symbols import Frozen, GeneralizedSchubertSymbol, SchubertSymbol
from morsegrass.witten import HomologyResult, WittenComplex

# (class, constructor arguments, field names in order)
VALUES = [
    (SchubertSymbol, ((1, 3), 4), ("entries", "n")),
    (GeneralizedSchubertSymbol, ((1, 0), (2, 3)), ("counts", "blocks")),
    (MomentPoint, ((1.0, 0.0, 1.0, 0.0),), ("coords",)),
    (VertexPolytope, (((1, 0), (0, 1)), 1, 2), ("vertices", "k", "n")),
    (HeightSpectrum, ((2.0, 1.0),), ("a",)),
    (TangentVector, (np.zeros((2, 2), dtype=complex),), ("skew",)),
    (MorseViolation, ("remainder 1", 3), ("reason", "degree")),
    (FlowGraph, (frozenset({"v"}), (("v", None, "incoming"),)), ("vertices", "edges")),
    (LabeledEnds, ((2,), (), 4), ("incoming", "outgoing", "dim_m")),
    (WittenComplex, ({0: ["a"], 1: ["b"]}, {1: [[0]]}), ("generators", "boundaries")),
    (HomologyResult, ({0: 1, 1: 1}, {0: [], 1: []}, "integers"), ("ranks", "torsion", "mode")),
    (IntPolynomial, ((1, 0, 2),), ("coeffs",)),
    (CohomologyClass, (2, 4, {SchubertSymbol((1, 3), 4): 2}), ("k", "n", "coefficients")),
    (GrassmannPoint, (np.eye(3, 2),), ("matrix",)),
]


class ThreeFields(Frozen):  # Frozen's getter over three fields, on a class of its own
    __slots__ = ("parts", "k", "n")

    def __init__(self, parts, k, n):
        self._init(parts, k, n)


FIELD_GETTER_CASES = [  # 2, 1 and 3 fields
    *(v for v in VALUES if v[0] in (SchubertSymbol, MomentPoint)), (ThreeFields, ((2, 0), 2, 4), ("parts", "k", "n")),
]
# immutable like the others, with ==, hash and repr of their own: test_own_equality
OWN_EQUALITY = (IntPolynomial, CohomologyClass, GrassmannPoint)


@pytest.mark.parametrize("cls,args,fields", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_class_contract(cls, args, fields):
    x = cls(*args)
    assert isinstance(x, Frozen) and tuple(f for f in cls.__slots__ if not f.startswith("_")) == fields
    values = tuple(getattr(x, f) for f in fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"field '{name}' of a frozen {cls.__name__}"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match=f"field '{name}' of a frozen {cls.__name__}"):
            delattr(x, name)
    assert all(getattr(x, f) is v for f, v in zip(fields, values))
    if cls in OWN_EQUALITY:
        return
    assert repr(x) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected
        y = cls(*args)
        assert x == y and not x != y and x != values
        assert pickle.loads(pickle.dumps(x)) == x


def test_own_equality():
    # IntPolynomial: equal to ints, and a constant hashes like one
    p = IntPolynomial([1, 0, 2])
    assert repr(p) == "IntPolynomial([1, 0, 2])" and hash(p) == hash((1, 0, 2))
    assert IntPolynomial([3, 0]) == 3 and hash(IntPolynomial([3])) == hash(3) and IntPolynomial.zero == 0
    assert pickle.loads(pickle.dumps(p)) == p
    # CohomologyClass: == on (k, n, coefficients), hashed through a frozenset
    u = SchubertSymbol((1, 3), 4)
    z = CohomologyClass(2, 4, {u: 2})
    assert z == CohomologyClass(2, 4, {u: 2, SchubertSymbol((3, 4), 4): 0}) and z != CohomologyClass(2, 5, {})
    assert z != CohomologyClass(2, 4, {u: 1}) and z != {u: 2}
    assert hash(z) == hash(((2, 4), frozenset({(u, 2)})))
    assert pickle.loads(pickle.dumps(z)) == z
    # GrassmannPoint: identity, as two frames of one plane may differ
    V = GrassmannPoint(np.eye(3, 2))
    assert V == V and V != GrassmannPoint(np.eye(3, 2)) and hash(V) == object.__hash__(V)
    assert np.array_equal(pickle.loads(pickle.dumps(V)).matrix, V.matrix)


def test_cohomology_equality_ignores_insertion_order():
    u, v, w = SchubertSymbol((1, 4), 4), SchubertSymbol((2, 3), 4), SchubertSymbol((1, 3), 4)
    z, y = CohomologyClass(2, 4, {u: 1, v: -2, w: 3}), CohomologyClass(2, 4, {w: 3, v: -2, u: 1})
    assert list(z.coefficients) != list(y.coefficients)
    assert z == y and not z != y and hash(z) == hash(y) and len({z, y}) == 1
    assert z != CohomologyClass(2, 4, {u: 1, v: 2, w: 3}) and z != CohomologyClass(2, 4, {u: 1, v: -2})
    for twin in (copy.deepcopy(z), pickle.loads(pickle.dumps(z)), pickle.loads(pickle.dumps(y))):
        assert twin == z == y and hash(twin) == hash(z) and type(twin.coefficients) is type(z.coefficients)


@pytest.mark.parametrize("cls,args,fields", FIELD_GETTER_CASES,
                         ids=["SchubertSymbol", "MomentPoint", "ThreeFields"])
def test_equality_and_hash_read_the_fields_directly(cls, args, fields, monkeypatch):
    # __reduce__ serves copy and pickle only: == and hash read the field tuple through the class's getter
    x, y = cls(*args), cls(*args)
    values = tuple(getattr(x, f) for f in fields)
    monkeypatch.setattr(Frozen, "__reduce__", lambda self: pytest.fail("__reduce__ called"))
    assert x == y and not x != y and hash(x) == hash(y) == hash(values) and x != values
    assert cls._fields(x) == values


def test_shared_and_hashed_values_cannot_change():
    # the package-wide zero once printed t^2 after this assignment, and a class changed its hash
    with pytest.raises(AttributeError, match="frozen IntPolynomial"):
        IntPolynomial.zero.coeffs = (0, 0, 1)
    assert str(IntPolynomial.zero) == "0" and IntPolynomial.zero == 0
    z = CohomologyClass.unit(2, 4)
    with pytest.raises(AttributeError, match="frozen CohomologyClass"):
        z.k = 7
    V = GrassmannPoint(np.eye(3, 2))
    with pytest.raises(AttributeError, match="frozen GrassmannPoint"):
        V.matrix = "x"


def test_cohomology_coefficients_are_read_only():
    # an in-place write once changed hash(z), so a set holding z no longer found it;
    # WittenComplex and HomologyResult hold dicts too but refuse hash (test_value_class_contract)
    z = CohomologyClass.unit(2, 4)
    s, h = {z}, hash(z)
    with pytest.raises(TypeError):
        z.coefficients[SchubertSymbol((1, 2), 4)] = 0
    with pytest.raises(TypeError):
        del z.coefficients[SchubertSymbol((3, 4), 4)]
    assert hash(z) == h and z in s and str(z) == "z(3,4)" and z.to_json() == {"(3,4)": 1}
    for twin in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
        assert twin == z and hash(twin) == h and twin.coefficients == {SchubertSymbol((3, 4), 4): 1}


def test_every_slots_class_is_frozen():
    # a class with __slots__ in the package is a value class, and those all derive from Frozen
    frozen, loose = set(), []
    for info in pkgutil.iter_modules(morsegrass.__path__):
        module = importlib.import_module(f"morsegrass.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and "__slots__" in vars(obj):
                if issubclass(obj, Frozen):
                    frozen.add(obj)
                else:
                    loose.append(obj.__qualname__)
    assert loose == []
    assert frozen >= {cls for cls, _, _ in VALUES}


def test_no_value_class_converts_with_int():
    # int() truncates 2.5 and Fraction(5, 2) and reads "2"; integer fields go through symbols.integers
    found = []
    for info in pkgutil.iter_modules(morsegrass.__path__):
        module = importlib.import_module(f"morsegrass.{info.name}")
        for cls in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if not (isinstance(cls, ast.ClassDef) and issubclass(getattr(module, cls.name), Frozen)):
                continue
            for init in (f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"):
                calls = (c for c in ast.walk(init) if isinstance(c, ast.Call))
                found += [(info.name, cls.name, c.lineno) for c in calls
                          if any(isinstance(a, ast.Name) and a.id == "int" for a in (c.func, *c.args))]
    assert found == []


def test_equality_is_defined_only_where_it_differs():
    # the other value classes take == and hash from Frozen's field tuple; a class with an __eq__ or
    # __hash__ of its own (a def or an assignment) must be one of these
    found = set()
    for path in sorted(Path(morsegrass.__file__).parent.glob("*.py")):
        for cls in (c for c in ast.walk(ast.parse(path.read_text())) if isinstance(c, ast.ClassDef)):
            for node in cls.body:
                targets = node.targets if isinstance(node, ast.Assign) else []
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                if isinstance(node, ast.FunctionDef):
                    names.add(node.name)
                if names & {"__eq__", "__hash__"}:
                    found.add(cls.name)
    assert found == {"Frozen", *(cls.__name__ for cls in OWN_EQUALITY)}


def test_only_frozen_builds_around_init():
    # a value built from parts already checked goes through Frozen._of, and its slots through Frozen._init:
    # outside Frozen no code in the package calls __new__ or object.__setattr__
    found = []
    for path in sorted(Path(morsegrass.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        frozen = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "Frozen"]
        inside = {id(n) for c in frozen for n in ast.walk(c)}
        found += [(path.name, node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and id(node) not in inside
                  and (node.attr == "__new__" or node.attr == "__setattr__" and ast.unparse(node.value) == "object")]
    assert found == []


def test_underscore_slots_are_not_fields():
    # VertexPolytope keeps its prefix bounds in _bounds: outside ==, hash, repr and pickle, rebuilt by __init__
    P, Q = VertexPolytope(((1, 0), (0, 1)), 1, 2), polytopes.grassmannian_polytope(1, 2)
    assert P._bounds == Q._bounds == [0, 1] and P == Q and hash(P) == hash(Q)
    assert repr(Q) == "VertexPolytope(vertices=((1, 0), (0, 1)), k=1, n=2)"
    assert pickle.loads(pickle.dumps(Q))._bounds == [0, 1] and VertexPolytope._names == ("vertices", "k", "n")


def test_repr_is_the_dataclass_repr():
    assert repr(SchubertSymbol((1, 3), 4)) == "SchubertSymbol(entries=(1, 3), n=4)"


def test_equality_needs_the_same_class():
    assert MomentPoint((2.0, 1.0)) != HeightSpectrum((2.0, 1.0))  # equal field tuples


def test_package_imports_neither_dataclasses_nor_inspect():
    # importing dataclasses loads inspect, ast, dis and tokenize into every CLI process
    found = []
    for path in sorted(Path(morsegrass.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            found += [(path.name, node.lineno, m) for m in names if m.split(".")[0] in ("dataclasses", "inspect")]
    assert found == []


V36 = flows.random_point(3, 6, rng=3)
A6 = HeightSpectrum((6.0, 5.0, 4.0, 3.0, 2.0, 1.0))
U36 = SchubertSymbol((1, 3, 6), 6)
C33 = GeneralizedSchubertSymbol((1, 2), (3, 3))
# every value the package derives from parts already checked: (the call, the input rules it applies, by what)
DERIVED = {
    "flow": (lambda: [flows.flow(V36, A6, 0.5)], ["flow time"]),
    "integrate_flow": (lambda: [flows.integrate_flow(V36, A6, 0.5, 4)], ["step count", "flow time"]),
    "coordinate_plane": (lambda: [GrassmannPoint.coordinate_plane(U36)], []),
    "limit_symbol": (lambda: [flows.limit_symbol(V36, "up")], ["tolerance"]),
    "enumerate_symbols": (lambda: symbols.enumerate_symbols(3, 6), []),
    "morse_refinements": (lambda: symbols.morse_refinements(C33), []),
    "complement": (lambda: [symbols.complement(U36)], []),
    "special_symbol": (lambda: [ring.special_symbol(3, 6, 2)], ["special class index i"]),
    "moment_map": (lambda: [polytopes.moment_map(V36)], []),
    "flow_moment_trace": (lambda: polytopes.flow_moment_trace(V36, A6, [0.0, 0.5, 2.0]), ["flow time"]),
}


@pytest.mark.parametrize("site", DERIVED)
def test_derived_values_skip_the_input_rules(site, monkeypatch):
    # a derived value is built through Frozen._of: no constructor runs, and the rules for integer, real and
    # complex input judge only what the call was given, never the parts of its result
    call, inputs = DERIVED[site]
    judged, built = [], []
    for module in (symbols, flows, ring, polytopes):
        for name in ("integers", "reals", "_complex_array"):
            if hasattr(module, name):
                rule = getattr(module, name)
                counted = lambda x, what, *a, rule=rule: judged.append(what) or rule(x, what, *a)  # noqa: E731
                monkeypatch.setattr(module, name, counted)
    for cls in (SchubertSymbol, GrassmannPoint, MomentPoint):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, cls=cls, init=init: built.append(cls) or init(self, *a))
    values = call()
    assert values and (judged, built) == (inputs, [])
    monkeypatch.undo()
    for x in values:
        twin = type(x)(*type(x)._fields(x))  # the checked construction
        assert repr(twin) == repr(x)
        if type(x) is GrassmannPoint:
            assert np.array_equal(twin.matrix, x.matrix) and x.matrix.dtype == complex
            assert not x.matrix.flags.writeable
        else:
            assert twin == x and hash(twin) == hash(x)
