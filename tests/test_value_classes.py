"""The value classes: immutable, with the equality, hash and repr of frozen dataclasses.

Set and dict orders, and so the CLI's output, follow hash(field tuple); these
tests pin the field order of every class.  The package itself imports neither
dataclasses nor inspect, whose import is a large share of a fresh CLI process.
"""

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest

import morsegrass
from morsegrass.flows import HeightSpectrum, TangentVector
from morsegrass.graphs import FlowGraph, LabeledEnds
from morsegrass.polynomials import MorseViolation
from morsegrass.polytopes import MomentPoint, VertexPolytope
from morsegrass.ring import PartitionShape
from morsegrass.symbols import Frozen, GeneralizedSchubertSymbol, SchubertSymbol
from morsegrass.witten import HomologyResult, WittenComplex

# (class, constructor arguments, field names in order)
VALUES = [
    (SchubertSymbol, ((1, 3), 4), ("entries", "n")),
    (GeneralizedSchubertSymbol, ((1, 0), (2, 3)), ("counts", "blocks")),
    (PartitionShape, ((2, 0), 2, 4), ("parts", "k", "n")),
    (MomentPoint, ((1.0, 0.0, 1.0, 0.0),), ("coords",)),
    (VertexPolytope, (((1, 0), (0, 1)), 1, 2), ("vertices", "k", "n")),
    (HeightSpectrum, ((2.0, 1.0),), ("a",)),
    (TangentVector, (np.zeros((2, 2), dtype=complex),), ("skew",)),
    (MorseViolation, ("remainder 1", 3), ("reason", "degree")),
    (FlowGraph, (frozenset({"v"}), (("v", None, "incoming"),)), ("vertices", "edges")),
    (LabeledEnds, ((2,), (), 4), ("incoming", "outgoing", "dim_m")),
    (WittenComplex, ({0: ["a"], 1: ["b"]}, {1: [[0]]}), ("generators", "boundaries")),
    (HomologyResult, ({0: 1, 1: 1}, {0: [], 1: []}, "integers"), ("ranks", "torsion", "mode")),
]


@pytest.mark.parametrize("cls,args,fields", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_class_contract(cls, args, fields):
    x = cls(*args)
    assert isinstance(x, Frozen) and cls.__slots__ == fields
    values = tuple(getattr(x, f) for f in fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"field '{name}' of a frozen {cls.__name__}"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match=f"field '{name}' of a frozen {cls.__name__}"):
            delattr(x, name)
    assert tuple(getattr(x, f) for f in fields) == values
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
