"""Dimension bookkeeping for moduli of graph flows.

A FlowGraph is a finite connected graph whose edges are flow lines: incoming
edges arrive from infinity at a vertex, outgoing edges leave to infinity,
internal edges join two vertices.  The moduli space of such graph flows with
prescribed limiting critical points has expected dimension

    sum(incoming indices) - sum(outgoing indices)
        - dim M * (b_1(graph) + n_incoming - 1)

and the Y-graph cup product checks only that this dimension is 0 before it
takes the number from the Schubert calculus engine.
"""

from __future__ import annotations

from collections import Counter

from .ring import triple_product
from .symbols import Frozen, SchubertSymbol, _check_same_ambient, critical_index, integers

INCOMING = "incoming"
INTERNAL = "internal"
OUTGOING = "outgoing"


class FlowGraph(Frozen):
    """Vertices plus edges tagged incoming / internal / outgoing.

    Incoming and outgoing edges have a single attached vertex (their other
    end is at infinity); internal edges join two vertices.  Edge entries are
    (vertex, vertex_or_None, kind).
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: frozenset, edges: tuple):
        self._init(frozenset(vertices), tuple(tuple(e) for e in edges))
        for a, b, kind in self.edges:
            if kind not in (INCOMING, INTERNAL, OUTGOING):
                raise ValueError(f"unknown edge kind {kind!r}")
            if a not in self.vertices:
                raise ValueError(f"edge endpoint {a!r} is not a vertex")
            if kind == INTERNAL:
                if b not in self.vertices:
                    raise ValueError(f"internal edge endpoint {b!r} is not a vertex")
            elif b is not None:
                raise ValueError(f"{kind} edges have one free end; got second endpoint {b!r}")

    @property
    def n_incoming(self) -> int:
        return sum(1 for e in self.edges if e[2] == INCOMING)

    @property
    def n_internal(self) -> int:
        return sum(1 for e in self.edges if e[2] == INTERNAL)

    @property
    def n_outgoing(self) -> int:
        return sum(1 for e in self.edges if e[2] == OUTGOING)

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        adj = {v: set() for v in self.vertices}
        for a, b, kind in self.edges:
            if kind == INTERNAL:
                adj[a].add(b)
                adj[b].add(a)
        seen = set()
        stack = [next(iter(self.vertices))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v] - seen)
        return seen == self.vertices

    def to_json(self) -> dict:
        return {
            "vertices": sorted(self.vertices, key=str),  # names as they are, so edges still name them
            "edges": [[a, b, kind] for a, b, kind in self.edges],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FlowGraph":
        """Graph from {"vertices": [...], "edges": [[a, b, kind], ...]}; ValueError on any other shape.

        A vertex named twice is refused, since the vertex set would merge the two.
        """
        try:
            if not isinstance(data["vertices"], list):  # a string would be read as its characters
                raise ValueError(f"graph JSON 'vertices' must be a list, got {data['vertices']!r}")
            repeated = [v for v, n in Counter(data["vertices"]).items() if n > 1]
            if repeated:
                raise ValueError(f"graph JSON names vertex {repeated[0]!r} more than once")
            return cls(frozenset(data["vertices"]), tuple((a, b, kind) for a, b, kind in data["edges"]))
        except TypeError as exc:
            raise ValueError(f"graph JSON needs 'vertices' and 'edges' lists ({exc})") from None


class LabeledEnds(Frozen):
    """Morse indices attached to the free ends, each in 0..dim_m, plus the ambient dimension dim_m >= 0."""

    __slots__ = ("incoming", "outgoing", "dim_m")

    def __init__(self, incoming: tuple[int, ...], outgoing: tuple[int, ...], dim_m: int):
        ends = integers(incoming, "Morse index"), integers(outgoing, "Morse index")  # types first, then dim_m
        (dim_m,) = integers([dim_m], "dim_m", 0)
        self._init(*(integers(e, "Morse index", 0, dim_m) for e in ends), dim_m)

    @classmethod
    def from_json(cls, data: dict) -> "LabeledEnds":
        """Labels from the "incoming_indices", "outgoing_indices" and "dim_m" keys of a graph file."""
        try:
            return cls(data.get("incoming_indices", []), data.get("outgoing_indices", []), data["dim_m"])
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"end labels need integer lists and an integer 'dim_m' ({exc})") from None


def graph_first_betti(g: FlowGraph) -> int:
    """b_1 of the internal skeleton; free ends are contractible whiskers."""
    if not g.is_connected():
        raise ValueError("graph must be connected")
    return g.n_internal - len(g.vertices) + 1


def moduli_dimension(g: FlowGraph, ends: LabeledEnds) -> int:
    """Expected dimension of the moduli of graph flows with these end labels.

    May be negative, in which case the moduli space is expected empty.
    """
    if len(ends.incoming) != g.n_incoming or len(ends.outgoing) != g.n_outgoing:
        raise ValueError(
            f"labels ({len(ends.incoming)} in, {len(ends.outgoing)} out) do not "
            f"match graph ends ({g.n_incoming} in, {g.n_outgoing} out)"
        )
    b1 = graph_first_betti(g)
    return (
        sum(ends.incoming)
        - sum(ends.outgoing)
        - ends.dim_m * (b1 + g.n_incoming - 1)
    )


def interval_graph() -> FlowGraph:
    """One vertex, one incoming and one outgoing end: a single broken line."""
    return FlowGraph({"v"}, (("v", None, INCOMING), ("v", None, OUTGOING)))


def y_graph(n_in: int = 3) -> FlowGraph:
    """Single vertex with n_in >= 0 incoming ends (cup-product shape for n_in = 3)."""
    (n_in,) = integers([n_in], "count of incoming ends", 0)
    return FlowGraph({"v"}, tuple(("v", None, INCOMING) for _ in range(n_in)))


def two_in_one_out_tree() -> FlowGraph:
    """Two incoming ends and one outgoing end on a single vertex."""
    return FlowGraph(
        {"v"},
        (("v", None, INCOMING), ("v", None, INCOMING), ("v", None, OUTGOING)),
    )


def cup_product_instance(u: SchubertSymbol, v: SchubertSymbol, w: SchubertSymbol) -> int:
    """triple_product(u, v, w), once the Y-graph moduli space with these ends has expected dimension 0.

    The incoming ends carry the Morse indices of u, v, w as critical points of -f (z_u sits in cohomological
    degree dim M - index).  No flow graph is counted: the number is the Schubert calculus engine's.  ValueError
    when the dimension is not 0.
    """
    _check_same_ambient(u.ambient, v.ambient, w.ambient)
    k, n = u.ambient
    dim_m = 2 * k * (n - k)
    labels = LabeledEnds(
        tuple(critical_index(s, "for_minus_f") for s in (u, v, w)), (), dim_m
    )
    expected = moduli_dimension(y_graph(3), labels)
    if expected != 0:
        raise ValueError(
            f"moduli dimension {expected} != 0; labels do not cut out a number"
        )
    return triple_product(u, v, w)
