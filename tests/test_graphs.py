import itertools
import json

import pytest

from morsegrass.graphs import (
    FlowGraph,
    LabeledEnds,
    cup_product_instance,
    graph_first_betti,
    interval_graph,
    moduli_dimension,
    two_in_one_out_tree,
    y_graph,
)
from morsegrass.ring import degree, triple_product
from morsegrass.symbols import AmbientMismatchError, SchubertSymbol, critical_index, enumerate_symbols


class TestFlowGraph:
    def test_interval(self):
        g = interval_graph()
        assert (g.n_incoming, g.n_internal, g.n_outgoing) == (1, 0, 1)
        assert graph_first_betti(g) == 0

    def test_y_graph(self):
        g = y_graph(3)
        assert g.n_incoming == 3 and g.n_outgoing == 0
        assert graph_first_betti(g) == 0

    def test_theta_graph_betti(self):
        g = FlowGraph(
            {"a", "b"},
            (("a", "b", "internal"), ("a", "b", "internal"), ("a", "b", "internal")),
        )
        assert graph_first_betti(g) == 2

    def test_loop_with_whiskers(self):
        g = FlowGraph(
            {"a", "b"},
            (
                ("a", "b", "internal"),
                ("b", "a", "internal"),
                ("a", None, "incoming"),
                ("b", None, "outgoing"),
            ),
        )
        assert graph_first_betti(g) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowGraph({"a"}, (("a", None, "sideways"),))
        with pytest.raises(ValueError):
            FlowGraph({"a"}, (("b", None, "incoming"),))
        with pytest.raises(ValueError):
            FlowGraph({"a"}, (("a", "a", "incoming"),))
        with pytest.raises(ValueError):
            FlowGraph({"a"}, (("a", "b", "internal"),))

    def test_disconnected_rejected(self):
        g = FlowGraph({"a", "b"}, (("a", None, "incoming"),))
        with pytest.raises(ValueError):
            graph_first_betti(g)

    def test_json_round_trip(self):
        for g in (
            two_in_one_out_tree(),
            FlowGraph({1, 2}, ((1, 2, "internal"), (1, None, "incoming"))),  # integer names, as the edges give them
            FlowGraph({1, "a"}, ((1, "a", "internal"),)),  # mixed names still sort
        ):
            g2 = FlowGraph.from_json(json.loads(json.dumps(g.to_json())))
            assert g2.vertices == g.vertices
            assert g2.edges == g.edges


class TestLabeledEnds:
    def test_range_check(self):
        with pytest.raises(ValueError):
            LabeledEnds((9,), (), 8)
        with pytest.raises(ValueError):
            LabeledEnds((), (-1,), 8)


class TestModuliDimension:
    def test_interval_formula(self):
        # single flow line from index-i to index-j point: dimension i - j
        g = interval_graph()
        for i, j in itertools.product(range(5), repeat=2):
            assert moduli_dimension(g, LabeledEnds((i,), (j,), 4)) == i - j

    def test_y_graph_formula(self):
        g = y_graph(3)
        ends = LabeledEnds((4, 2, 2), (), 4)
        assert moduli_dimension(g, ends) == 4 + 2 + 2 - 4 * 2

    def test_betti_penalty(self):
        loop = FlowGraph(
            {"a", "b"},
            (
                ("a", "b", "internal"),
                ("b", "a", "internal"),
                ("a", None, "incoming"),
            ),
        )
        tree = FlowGraph(
            {"a", "b"},
            (("a", "b", "internal"), ("a", None, "incoming")),
        )
        ends = LabeledEnds((3,), (), 4)
        assert moduli_dimension(loop, ends) == moduli_dimension(tree, ends) - 4

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            moduli_dimension(interval_graph(), LabeledEnds((1, 2), (0,), 4))


class TestCupProductInstance:
    def test_matches_triple_product_on_admissible_triples(self):
        dim_m = 8
        syms = enumerate_symbols(2, 4)
        checked = 0
        for u, v, w in itertools.product(syms, repeat=3):
            if degree(u) + degree(v) + degree(w) != dim_m:
                with pytest.raises(ValueError):
                    cup_product_instance(u, v, w)
                continue
            assert cup_product_instance(u, v, w) == triple_product(u, v, w)
            checked += 1
        assert checked > 0

    def test_zero_dimension_condition_is_index_sum(self):
        u = SchubertSymbol((2, 4), 4)
        s = sum(critical_index(x, "for_minus_f") for x in (u, u, u))
        # indices 6 + 6 + 6 = 18 != 16: not zero dimensional
        assert s != 16
        with pytest.raises(ValueError):
            cup_product_instance(u, u, u)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            cup_product_instance(
                SchubertSymbol((2, 4), 4),
                SchubertSymbol((2, 4), 5),
                SchubertSymbol((2, 4), 5),
            )


class TestJsonShapes:
    @pytest.mark.parametrize("data", [
        [], "abc", {"vertices": 5, "edges": []}, {"vertices": [[1]], "edges": []},
        {"vertices": ["v"], "edges": [5]}, {"vertices": ["v"], "edges": [[["v"], None, "incoming"]]},
        {"vertices": ["v", "w", "v"], "edges": []},
    ])
    def test_graph_wrong_shape_is_value_error(self, data):
        with pytest.raises(ValueError):
            FlowGraph.from_json(data)

    @pytest.mark.parametrize("data", [
        [], {"dim_m": None}, {"dim_m": [3]}, {"dim_m": 3, "incoming_indices": 5},
        {"dim_m": 3, "incoming_indices": [[1]]}, {"dim_m": float("inf")},
    ])
    def test_labels_wrong_shape_is_value_error(self, data):
        with pytest.raises(ValueError):
            LabeledEnds.from_json(data)

    @pytest.mark.parametrize("data,value", [
        ({"incoming_indices": [2.5, 2.9, 0.7], "dim_m": 4}, "a Morse index of type float"),
        ({"incoming_indices": [2], "dim_m": 4.9}, "a dim_m of type float"),
        ({"outgoing_indices": [True], "dim_m": 4}, "a Morse index of type bool"),
        ({"incoming_indices": ["3"], "dim_m": 4}, "a Morse index of type str"),
    ], ids=["data0-2.5", "data1-4.9", "data2-True", "data3-'3'"])
    def test_labels_keep_their_numbers(self, data, value):
        # int() used to truncate them: 2.5, 2.9, 0.7 with dim_m 4.9 gave dimension -4
        with pytest.raises(ValueError, match=f"{value} is not an integer"):
            LabeledEnds.from_json(data)

    def test_vertices_must_be_a_list(self):
        # a string used to be read as the set of its characters
        with pytest.raises(ValueError, match="'vertices' must be a list, got 'vw'"):
            FlowGraph.from_json({"vertices": "vw", "edges": [["v", "w", "internal"]]})

    def test_labels_from_json(self):
        ends = LabeledEnds.from_json({"incoming_indices": [5], "outgoing_indices": [2], "dim_m": 8})
        assert ends == LabeledEnds((5,), (2,), 8)
        assert LabeledEnds.from_json({"dim_m": 4}) == LabeledEnds((), (), 4)
