import ast
import itertools
import math
import re
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import morsegrass.symbols as symbols_module
from morsegrass.flows import (
    GrassmannPoint,
    HeightSpectrum,
    flow,
    integrate_flow,
    limit_symbol,
    plucker_weights,
    projective_distance,
    random_point,
)
from morsegrass.graphs import LabeledEnds, y_graph
from morsegrass.polynomials import (
    IntPolynomial,
    gaussian_generating,
    poincare_closed,
    poincare_recurrence,
)
from morsegrass.polytopes import (
    MomentPoint, VertexPolytope, flow_moment_trace, grassmannian_polytope, membership, moment_height,
)
from morsegrass.ring import CohomologyClass, lr_coefficient, pieri_product, special_symbol
from morsegrass.witten import (
    ComplexValidationError,
    WittenComplex,
    circle_complex,
    elementary_divisors,
    rp_complex,
    smith_normal_form,
)
from morsegrass.symbols import (
    MAX_SYMBOLS,
    AmbientMismatchError,
    CapacityError,
    GeneralizedSchubertSymbol,
    SchubertSymbol,
    bruhat_leq,
    cell_count,
    cell_dimension,
    check_ambient,
    check_budget,
    complement,
    critical_index,
    enumerate_generalized_symbols,
    enumerate_symbols,
    flow_line_exists,
    generalized_index,
    morse_refinements,
    ndcm_dimension,
    schubert_conditions,
    tolerance,
)


def sym(entries, n):
    return SchubertSymbol(tuple(entries), n)


class TestSchubertSymbol:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            sym((2, 2), 4)
        with pytest.raises(ValueError):
            sym((0, 1), 4)
        with pytest.raises(ValueError):
            sym((1, 5), 4)
        with pytest.raises(ValueError):
            sym((1, 2, 3), 2)

    def test_enumeration_gr24(self):
        syms = enumerate_symbols(2, 4)
        assert [s.entries for s in syms] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
        ]

    def test_enumeration_trivial_and_counts(self):
        assert len(enumerate_symbols(0, 3)) == 1
        assert enumerate_symbols(0, 3)[0].entries == ()
        assert len(enumerate_symbols(3, 6)) == 20

    def test_enumeration_domain_errors(self):
        with pytest.raises(ValueError):
            enumerate_symbols(5, 3)
        with pytest.raises(ValueError):
            enumerate_symbols(-1, 3)


class TestCellData:
    def test_dimensions_gr24(self):
        # Example table for Gr_2(C^4)
        dims = {s.entries: cell_dimension(s) for s in enumerate_symbols(2, 4)}
        assert dims == {(1, 2): 0, (1, 3): 1, (1, 4): 2, (2, 3): 2, (2, 4): 3, (3, 4): 4}

    def test_minimal_symbol_dimension_zero(self):
        assert cell_dimension(sym(range(1, 4), 6)) == 0

    def test_critical_index(self):
        assert critical_index(sym((1, 2), 4), "for_minus_f") == 0
        assert critical_index(sym((3, 4), 4), "for_f") == 0
        assert critical_index(sym((2, 4), 4), "for_minus_f") == 6

    def test_indices_even_and_bounded(self):
        for u in enumerate_symbols(2, 5):
            for sign in ("for_f", "for_minus_f"):
                idx = critical_index(u, sign)
                assert idx % 2 == 0
                assert 0 <= idx <= 2 * 2 * 3

    def test_schubert_conditions(self):
        assert schubert_conditions(sym((2, 4), 4)) == (0, 1, 1, 2)
        assert schubert_conditions(sym((3, 4), 4)) == (0, 0, 1, 2)
        assert schubert_conditions(sym((1, 2), 5)) == (1, 2, 2, 2, 2)

    def test_conditions_jump_exactly_at_entries(self):
        for u in enumerate_symbols(3, 6):
            v = schubert_conditions(u)
            prev = 0
            for i, vi in enumerate(v, start=1):
                jump = vi - prev
                assert jump == (1 if i in u.entries else 0)
                prev = vi
            assert v[-1] == u.k

    def test_conditions_match_the_count_per_entry(self):
        # one pass of prefix sums in place of a scan of u per entry; ints, as cells --json prints them, not bools
        for n in range(9):
            for k in range(n + 1):
                for u in enumerate_symbols(k, n):
                    v = schubert_conditions(u)
                    assert v == tuple(sum(1 for e in u.entries if e <= i) for i in range(1, n + 1)), u
                    assert {int}.issuperset(map(type, v)), u


class TestComplement:
    def test_examples(self):
        assert complement(sym((2, 4), 4)).entries == (1, 3)
        assert complement(sym((1, 2), 5)).entries == (4, 5)
        assert complement(sym((1, 4), 4)).entries == (1, 4)

    def test_involution_and_dimension_pairing(self):
        for k, n in [(2, 4), (2, 5), (3, 6)]:
            for u in enumerate_symbols(k, n):
                uc = complement(u)
                assert complement(uc) == u
                assert cell_dimension(u) + cell_dimension(uc) == k * (n - k)


class TestBruhatOrder:
    def test_examples(self):
        assert bruhat_leq(sym((3, 4), 4), sym((1, 2), 4))
        assert not bruhat_leq(sym((2, 3), 4), sym((1, 4), 4))
        assert not bruhat_leq(sym((1, 4), 4), sym((2, 3), 4))

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError, match=r"different Grassmannians: \(2, 4\) vs \(2, 5\)"):
            bruhat_leq(sym((1, 2), 4), sym((1, 2), 5))
        with pytest.raises(AmbientMismatchError):
            flow_line_exists(sym((1, 2), 4), sym((1,), 4))

    def test_partial_order_axioms(self):
        syms = enumerate_symbols(2, 4)
        for u in syms:
            assert bruhat_leq(u, u)
        for u, v in itertools.product(syms, repeat=2):
            if bruhat_leq(u, v) and bruhat_leq(v, u):
                assert u == v
        for u, v, w in itertools.product(syms, repeat=3):
            if bruhat_leq(u, v) and bruhat_leq(v, w):
                assert bruhat_leq(u, w)

    def test_flow_lines(self):
        assert flow_line_exists(sym((2, 4), 4), sym((1, 3), 4))
        assert not flow_line_exists(sym((2, 4), 4), sym((2, 4), 4))
        assert not flow_line_exists(sym((1, 3), 4), sym((2, 4), 4))

    def test_flow_line_decreases_index(self):
        for u1, u2 in itertools.product(enumerate_symbols(2, 5), repeat=2):
            if flow_line_exists(u1, u2):
                assert critical_index(u1, "for_minus_f") > critical_index(u2, "for_minus_f")


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n), min_size=0, max_size=n))
    )
)
def test_complement_involution_property(data):
    n, entries = data
    u = SchubertSymbol(tuple(sorted(entries)), n)
    assert complement(complement(u)) == u
    assert cell_dimension(u) + cell_dimension(complement(u)) == u.k * (n - u.k)


class TestGeneralizedSymbols:
    def test_two_block_case(self):
        out = enumerate_generalized_symbols((1, 4), 2)
        assert {c.counts for c in out} == {(1, 1), (0, 2)}

    def test_cp6_blocks(self):
        out = enumerate_generalized_symbols((2, 3, 2), 1)
        assert {c.counts for c in out} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_morse_case_counts(self):
        out = enumerate_generalized_symbols((1,) * 5, 2)
        assert len(out) == 10
        assert all(set(c.counts) <= {0, 1} for c in out)

    def test_invalid_blocks(self):
        with pytest.raises(ValueError):
            enumerate_generalized_symbols((0, 3), 1)
        with pytest.raises(ValueError):
            enumerate_generalized_symbols((2, 2), 5)

    def test_indices_cp6(self):
        by_counts = {
            c.counts: generalized_index(c)
            for c in enumerate_generalized_symbols((2, 3, 2), 1)
        }
        assert by_counts == {(1, 0, 0): 0, (0, 1, 0): 4, (0, 0, 1): 10}

    def test_index_matches_morse_case(self):
        for c in enumerate_generalized_symbols((1,) * 6, 3):
            (u,) = morse_refinements(c)
            assert generalized_index(c) == critical_index(u, "for_minus_f")

    def test_index_refinement_oracle_small(self):
        # oracle: minimum Morse index over compatible refinements
        for blocks in [(2, 2), (1, 3), (3, 1, 2), (2, 3, 2)]:
            n = sum(blocks)
            for k in range(n + 1):
                for c in enumerate_generalized_symbols(blocks, k):
                    oracle = min(
                        critical_index(u, "for_minus_f") for u in morse_refinements(c)
                    )
                    assert generalized_index(c) == oracle

    def test_ndcm_dimension(self):
        c = GeneralizedSchubertSymbol((2, 1), (4, 4))
        assert ndcm_dimension(c) == 2 * 2 + 1 * 3
        c2 = GeneralizedSchubertSymbol((0, 1, 0), (2, 3, 2))
        assert ndcm_dimension(c2) == 2
        for c3 in enumerate_generalized_symbols((1,) * 4, 2):
            assert ndcm_dimension(c3) == 0


def test_serialization_round_trip():
    u = sym((2, 4), 4)
    data = u.to_json()
    assert data == {"entries": [2, 4], "k": 2, "n": 4}
    assert SchubertSymbol(tuple(data["entries"]), data["n"]) == u
    c = GeneralizedSchubertSymbol((0, 1, 0), (2, 3, 2))
    assert c.to_json() == {"blocks": [2, 3, 2], "counts": [0, 1, 0]}


class TestAmbientCheck:
    @pytest.mark.parametrize("k,n", [(-1, 3), (4, 3), (0, -1), (-2, -1)])
    def test_rejects(self, k, n):
        with pytest.raises(ValueError, match="need 0 <= k <= n"):
            check_ambient(k, n)

    @pytest.mark.parametrize("k,n", [(0, 0), (0, 3), (3, 3), (2, 5)])
    def test_accepts(self, k, n):
        assert check_ambient(k, n) == (k, n)

    def test_generalized_symbols_use_it(self):
        with pytest.raises(ValueError, match="need 0 <= k <= n"):
            enumerate_generalized_symbols([1, 2], 4)

    def test_symbols_use_it(self):
        with pytest.raises(ValueError, match=r"need 0 <= k <= n, got k=3, n=2"):
            sym((1, 2, 3), 2)
        with pytest.raises(ValueError, match=r"need 0 <= k <= n, got k=0, n=-1"):
            sym((), -1)


class TestSymbolCapacity:
    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(symbols_module, "MAX_SYMBOLS", 6)
        assert len(enumerate_symbols(2, 4)) == 6
        with pytest.raises(CapacityError, match="MAX_SYMBOLS"):
            enumerate_symbols(2, 5)

    @pytest.mark.parametrize("k,n", [(300, 600), (10, 20), (10 ** 9, 2 * 10 ** 9), (20, 10 ** 12), (21, 10 ** 12)])
    def test_refused_without_enumerating(self, k, n):
        with pytest.raises(CapacityError):
            enumerate_symbols(k, n)

    def test_entries_priced(self):
        # 1500 symbols of 1499 entries each are few cells but about 2.2 million entries
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"C\(1500,1499\)\*\(1\+1499//16\): 141000 exceeds"):
            enumerate_symbols(1499, 1500)
        assert time.perf_counter() - start < 0.1
        assert len(enumerate_symbols(99, 100)) == 100

    def test_one_error_class(self):
        from morsegrass import CapacityError as exported

        assert exported is CapacityError
        assert issubclass(CapacityError, ValueError)
        assert MAX_SYMBOLS == 100_000


class TestMorseBottPrices:
    @pytest.fixture
    def no_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a symbol was built before the price was checked")

        monkeypatch.setattr(symbols_module, "GeneralizedSchubertSymbol", refuse)
        monkeypatch.setattr(symbols_module, "SchubertSymbol", refuse)

    @pytest.mark.parametrize("blocks,k", [((1,) * 22, 11), ((10 ** 9, 10 ** 9), 10 ** 9), ((1,) * 300, 2)])
    def test_occupancy_vectors_priced_before_building(self, no_building, blocks, k):
        # (1,)*22 with k = 11 built 705 432 symbols in 17 s
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="occupancy vectors"):
            enumerate_generalized_symbols(blocks, k)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("blocks,k", [((2, 3, 2, 4), 5), ((10, 10), 10), ((1,) * 17, 3), ((3,), 2), ((), 0)])
    def test_occupancy_count_is_exact(self, monkeypatch, blocks, k):
        # (10, 10) with k = 10 has 11 vectors: a price of its 11 partial sums alone must not refuse it
        vectors = [c for c in itertools.product(*(range(m + 1) for m in blocks)) if sum(c) == k]
        price = len(vectors) * (1 + len(blocks) // 16)
        monkeypatch.setattr(symbols_module, "MAX_SYMBOLS", price)
        assert [c.counts for c in enumerate_generalized_symbols(blocks, k)] == vectors
        monkeypatch.setattr(symbols_module, "MAX_SYMBOLS", price - 1)
        with pytest.raises(CapacityError, match=f": {price} exceeds"):
            enumerate_generalized_symbols(blocks, k)

    @pytest.mark.parametrize("blocks,k", [((1,) * 100, 2), ((2, 3, 2, 4), 5), ((3,), 2), ((), 0)])
    def test_blocks_checked_once_per_enumeration(self, monkeypatch, blocks, k):
        # a check per vector cost more than the rest of the enumeration on (1,)*100 with k = 2
        whats, check = [], symbols_module.integers
        monkeypatch.setattr(symbols_module, "integers", lambda v, what, *lh: whats.append(what) or check(v, what, *lh))
        out = enumerate_generalized_symbols(blocks, k)
        assert whats.count("block size") == 1
        assert out == [GeneralizedSchubertSymbol(c.counts, list(blocks)) for c in out]
        assert all(type(c.counts) is tuple and c.blocks == blocks for c in out)

    def test_stepping_lists_the_prefix_builder_order(self):
        # every pattern of up to 5 blocks of sizes 1..3 and every k, plus long runs
        # of 1s, where the builder's O(l) prefix copies per vector dominated
        cases = [(blocks, k) for l in range(6) for blocks in itertools.product((1, 2, 3), repeat=l)
                 for k in range(sum(blocks) + 1)]
        cases += [((1,) * 40, 2), ((1,) * 12, 6), ((4, 1, 3, 1, 2), 6), ((1,) * 300, 1)]
        for blocks, k in cases:
            assert [c.counts for c in enumerate_generalized_symbols(blocks, k)] == prefix_built(blocks, k), blocks

    def test_refinements_priced_before_building(self, no_building):
        # C(10, 5)^3, about 1.6e7 symbols, ran for more than a minute
        with pytest.raises(CapacityError, match="Morse refinements"):
            morse_refinements(GeneralizedSchubertSymbol((5, 5, 5), (10, 10, 10)))

    def test_refinement_count_is_exact(self, monkeypatch):
        c = GeneralizedSchubertSymbol((2, 1, 0), (4, 3, 2))
        monkeypatch.setattr(symbols_module, "MAX_SYMBOLS", 18)  # C(4, 2) * C(3, 1) * C(2, 0)
        assert len(morse_refinements(c)) == 18
        monkeypatch.setattr(symbols_module, "MAX_SYMBOLS", 17)
        with pytest.raises(CapacityError, match=": 18 exceeds"):
            morse_refinements(c)


def prefix_built(blocks, k):
    """The occupancy vectors as first listed: every prefix extended block by block, k - sum(v) left at each level."""
    tails = list(itertools.accumulate(reversed(blocks), initial=0))[::-1]
    vectors = [()]
    for m, tail in zip(blocks, tails[1:]):
        vectors = [v + (c,) for v in vectors for r in [k - sum(v)] for c in range(max(0, r - tail), min(m, r) + 1)]
    return vectors


def _raises(node, where):
    """(enclosing function, exception name, message source) of each ``raise`` below node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else where
        if isinstance(child, ast.Raise) and child.exc is not None:
            call = child.exc if isinstance(child.exc, ast.Call) else None
            exc = call.func if call else child.exc
            message = ast.unparse(call.args[0]) if call and call.args else ""
            yield where, getattr(exc, "id", getattr(exc, "attr", None)), message
        yield from _raises(child, inner)


def _raise_sites(exc_name=None, text=""):
    """(file, enclosing function) of each raise in the package of exc_name with text in its message."""
    package = Path(symbols_module.__file__).parent
    return [
        (path.name, where)
        for path in sorted(package.glob("*.py"))
        for where, exc, message in _raises(ast.parse(path.read_text()), None)
        if exc_name in (None, exc) and text in message
    ]


class TestOneBudget:
    def test_limit_is_inclusive(self):
        check_budget(MAX_SYMBOLS, "steps")
        with pytest.raises(CapacityError, match=r"^steps: 100001 exceeds the budget MAX_SYMBOLS = 100000$"):
            check_budget(MAX_SYMBOLS + 1, "steps")

    def test_huge_cost_shown_as_a_power_of_two(self):
        with pytest.raises(CapacityError, match=r"steps: 2\^4000 or more exceeds the budget MAX_SYMBOLS"):
            check_budget(2**4000 + 1, "steps")

    def test_the_only_raise_site(self):
        # every size refusal in the package goes through check_budget
        assert _raise_sites("CapacityError") == [("symbols.py", "check_budget")]


class TestCellCount:
    @pytest.mark.parametrize("k,n,text", [
        (10, 20, "Schubert cells of Gr(10,20), C(20,10): 184756"),
        (30, 60, f"Schubert cells of Gr(30,60), at least C(60,21): {math.comb(60, 21)}"),
    ])
    def test_refusal_text(self, k, n, text):
        with pytest.raises(CapacityError, match=f"^{re.escape(text)} exceeds the budget MAX_SYMBOLS = 100000$"):
            cell_count(k, n)

    def test_no_message_within_the_budget(self, monkeypatch):
        # the refusal text was formatted on every call: 0.75 us against 0.05 us for math.comb(9, 4)
        monkeypatch.setattr(symbols_module, "check_budget", lambda cost, what: pytest.fail("message built"))
        assert cell_count(4, 9) == 126 and cell_count(0, 0) == 1 and cell_count(9, 18) == 48620


class TestOneRulePerInput:
    def test_one_mixing_error(self):
        # every "objects from different Grassmannians" refusal goes through _check_same_ambient
        assert _raise_sites("AmbientMismatchError") == [("symbols.py", "_check_same_ambient")]
        assert _raise_sites(text="different Grassmannians") == [("symbols.py", "_check_same_ambient")]

    @pytest.mark.parametrize("text,site", [
        ("need 0 <= k <= n", ("symbols.py", "check_ambient")),
        ("spectrum length does not match ambient dimension", ("flows.py", "_check_flow_input")),
        ("{what} must be finite", ("symbols.py", "reals")),
        ("is not an integer", ("symbols.py", "integers")),
        ("must be {span}", ("symbols.py", "integers")),
        ("is not a real number", ("symbols.py", "reals")),
        ("entry of type {t.__name__} is not a number", ("flows.py", "_complex_array")),
        ("-d array, got a", ("flows.py", "_complex_array")),
        ("too large to be a complex float", ("flows.py", "_complex_array")),
        ("entry must be finite and of modulus", ("flows.py", "_complex_array")),
        ("must have rows of one length", ("flows.py", "_complex_array")),
    ])
    def test_each_message_from_one_function(self, text, site):
        assert _raise_sites(text=text) == [site]

    @pytest.mark.parametrize("call,what", [
        (lambda: GrassmannPoint([[1, 0], [0]]), "frame"),
        (lambda: GrassmannPoint.from_json([[[1, 0]], [[0, 1], [1, 1]]]), "frame"),
        (lambda: projective_distance([1, [2, 3]], [1, 2]), "vector"),
    ], ids=["GrassmannPoint", "from_json", "projective_distance"])
    def test_ragged_input_refused_by_the_complex_rule(self, call, what):
        # each raised numpy's "setting an array element with a sequence"
        with pytest.raises(ValueError, match=f"^a {what} must have rows of one length$"):
            call()

    def test_a_frame_keeps_only_its_rank_floor(self):
        # GrassmannPoint judges no entry type or finiteness of its own: _complex_array does
        tree = ast.parse(Path(symbols_module.__file__).with_name("flows.py").read_text())
        cls = next(c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "GrassmannPoint")
        init = next(f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__init__")
        assert [exc for _, exc, _ in _raises(init, None)] == ["DegenerateInputError"]
        finite = [site for site in _raise_sites(text="finite") if site[0] == "flows.py"]
        assert finite == [("flows.py", "_complex_array")]

    @pytest.mark.parametrize("text", [
        "must be an integer >= 1", "needs p >= 1", "d must be nonnegative", "k and cap must be nonnegative",
        "need 1 <= i <= k", "need at least one maximum", "need n >= 1", "outside 0..dim M", "must be positive",
    ])
    def test_integer_ranges_judged_only_by_integers(self, text):
        # the hand-written range checks that integers(values, what, lo, hi) replaced
        assert _raise_sites(text=text) == []


U24 = SchubertSymbol((1, 2), 4)


def _rk4_frame(steps):
    V = GrassmannPoint([[1, 0], [1, 1], [0, 1], [1, 2]])
    return integrate_flow(V, HeightSpectrum((3.0, 2.0, 1.0, 0.0)), 0.5, steps=steps).matrix.tobytes()


# every place an integer enters: (the field the refusal names, a call that puts x there, valid at x = 2,
# returning what is stored or computed from it)
INTEGER_INPUTS = [
    pytest.param("symbol entry", lambda x: SchubertSymbol((1, x), 3).entries[1], id="SchubertSymbol-entries"),
    pytest.param("dimension n", lambda x: SchubertSymbol((1, 2), x).n, id="SchubertSymbol-n"),
    pytest.param("count", lambda x: GeneralizedSchubertSymbol((x, 0), (2, 1)).counts[0], id="Generalized-counts"),
    pytest.param("block size", lambda x: GeneralizedSchubertSymbol((1, 0), (x, 1)).blocks[0],
                 id="Generalized-blocks"),
    pytest.param("block size", lambda x: enumerate_generalized_symbols((x, 1), 1)[0].blocks[0],
                 id="enumerate_generalized_symbols-blocks"),
    pytest.param("dimension k", lambda x: enumerate_generalized_symbols((2, 1), x)[-1].counts[0],
                 id="enumerate_generalized_symbols-k"),
    pytest.param("coefficient", lambda x: CohomologyClass(2, 4, {U24: x}).coefficients[U24],
                 id="CohomologyClass-coefficients"),
    pytest.param("dimension k", lambda x: CohomologyClass(x, 4).k, id="CohomologyClass-k"),
    pytest.param("dimension n", lambda x: CohomologyClass(2, x).n, id="CohomologyClass-n"),
    # unit read k and n through range: a float or a string escaped as TypeError
    pytest.param("dimension k", lambda x: CohomologyClass.unit(x, 4).k, id="CohomologyClass.unit-k"),
    pytest.param("dimension n", lambda x: CohomologyClass.unit(2, x).n, id="CohomologyClass.unit-n"),
    pytest.param("dimension k", lambda x: check_ambient(x, 4)[0], id="check_ambient-k"),
    pytest.param("dimension n", lambda x: check_ambient(2, x)[1], id="check_ambient-n"),
    pytest.param("dimension k", lambda x: cell_count(x, 4), id="cell_count"),
    pytest.param("dimension k", lambda x: special_symbol(x, 4, 1).entries, id="special_symbol"),
    pytest.param("dimension k", lambda x: gaussian_generating(x, 3).coeffs, id="gaussian_generating"),
    pytest.param("dimension k", lambda x: poincare_closed(x, 4).coeffs, id="poincare_closed"),
    pytest.param("dimension k", lambda x: poincare_recurrence(x, 4).coeffs, id="poincare_recurrence"),
    # the t^d coefficient of gaussian_generating(k, k + cap) is the count of partitions of d in a k x cap box
    pytest.param("dimension n", lambda x: gaussian_generating(1, x).coeffs, id="gaussian_generating-n"),
    pytest.param("dimension n", lambda x: poincare_closed(1, x).coeffs, id="poincare_closed-n"),
    pytest.param("dimension n", lambda x: poincare_recurrence(1, x).coeffs, id="poincare_recurrence-n"),
    pytest.param("dimension n", lambda x: cell_count(1, x), id="cell_count-n"),
    pytest.param("dimension n", lambda x: special_symbol(1, x, 1).entries, id="special_symbol-n"),
    pytest.param("dimension k", lambda x: grassmannian_polytope(x, 3).vertices, id="grassmannian_polytope-k"),
    pytest.param("dimension n", lambda x: grassmannian_polytope(1, x).vertices, id="grassmannian_polytope-n"),
    pytest.param("coefficient", lambda x: IntPolynomial([1, x]).coeffs[1], id="IntPolynomial"),
    pytest.param("degree", lambda x: [*WittenComplex({x: ["a"]}).generators][0], id="WittenComplex-degree"),
    pytest.param("boundary entry", lambda x: WittenComplex({0: ["a"], 1: ["b"]}, {1: [[x]]}).boundaries[1][0][0],
                 id="WittenComplex-entry"),
    pytest.param("matrix entry", lambda x: elementary_divisors([[x, 0], [0, 4]])[0], id="elementary_divisors"),
    pytest.param("Morse index", lambda x: LabeledEnds((x,), (), 4).incoming[0], id="LabeledEnds-incoming"),
    pytest.param("Morse index", lambda x: LabeledEnds((), (x,), 4).outgoing[0], id="LabeledEnds-outgoing"),
    pytest.param("dim_m", lambda x: LabeledEnds((), (), x).dim_m, id="LabeledEnds-dim_m"),
    pytest.param("step count", _rk4_frame, id="integrate_flow-steps"),
    # each of these took True as 1; where they refused a float it was with a TypeError from deep inside
    pytest.param("special class index i", lambda x: special_symbol(2, 4, x).entries, id="special_symbol-i"),
    pytest.param("special class index i", lambda x: pieri_product(CohomologyClass.unit(2, 4), x),
                 id="pieri_product"),
    pytest.param("scale factor", lambda x: CohomologyClass.basis(U24).scale(x).coefficients[U24],
                 id="CohomologyClass-scale"),
    pytest.param("dimension n", lambda x: len(rp_complex(x).generators), id="rp_complex"),
    pytest.param("maximum count m", lambda x: len(circle_complex(x).generators[0]), id="circle_complex"),
    pytest.param("dimension k", lambda x: VertexPolytope(((1, 1, 0),), x, 3).k, id="VertexPolytope-k"),
    pytest.param("dimension n", lambda x: VertexPolytope(((1, 0),), 1, x).n, id="VertexPolytope-n"),
    pytest.param("part of lam", lambda x: lr_coefficient((x, 1), (1,), (1, 1)), id="lr_coefficient-lam"),
    pytest.param("part of mu", lambda x: lr_coefficient((3, 1), (x,), (1, 1)), id="lr_coefficient-mu"),
    pytest.param("part of nu", lambda x: lr_coefficient((3, 1), (1, 1), (x,)), id="lr_coefficient-nu"),
    # each of these raised TypeError from inside numpy, itertools or range
    pytest.param("dimension k", lambda x: plucker_weights(HeightSpectrum((3.0, 2.0, 1.0, 0.0)), x),
                 id="plucker_weights-k"),
    pytest.param("dimension k", lambda x: random_point(x, 4, 1).k, id="random_point-k"),
    pytest.param("dimension n", lambda x: random_point(2, x, 1).n, id="random_point-n"),
    pytest.param("count of incoming ends", lambda x: y_graph(x).n_incoming, id="y_graph"),
    # monomial(-2) was 1, monomial(True) t; substitute_power(0) gave 2 for 1 + 2t; smith_normal_form kept 1.5 and True
    pytest.param("monomial degree", lambda x: IntPolynomial.monomial(x).coeffs, id="IntPolynomial-monomial"),
    pytest.param("power p", lambda x: IntPolynomial([1, 2]).substitute_power(x).coeffs, id="substitute_power"),
    pytest.param("matrix entry", lambda x: smith_normal_form([[x, 0], [0, 4]])[0][0][0], id="smith_normal_form"),
]

# calls that truncated, stored or passed on a value that is not an integer; what each gave before
REPROS = [
    pytest.param(lambda: SchubertSymbol((Fraction(5, 2), 3), 3), "a symbol entry of type Fraction",
                 id="SchubertSymbol-Fraction"),  # (2,3)
    pytest.param(lambda: SchubertSymbol(("1", "2"), 3), "a symbol entry of type str", id="SchubertSymbol-str"),
    pytest.param(lambda: SchubertSymbol((1, 2), 3.5), "a dimension n of type float", id="SchubertSymbol-n"),  # n=3.5
    pytest.param(lambda: GeneralizedSchubertSymbol((0.9, 1), (1, 1)), "a count of type float",
                 id="Generalized-counts"),  # (0, 1)
    pytest.param(lambda: IntPolynomial([1.5, 2]), "a coefficient of type float", id="IntPolynomial-float"),  # 1 + 2t
    pytest.param(lambda: IntPolynomial([Fraction(3, 2)]), "a coefficient of type Fraction",
                 id="IntPolynomial-Fraction"),  # 1
    pytest.param(lambda: CohomologyClass(2, 4, {U24: 1.5}), "a coefficient of type float",
                 id="CohomologyClass-coefficient"),  # z(2,4)
    pytest.param(lambda: CohomologyClass.basis(U24).scale(0.5), "a scale factor of type float",
                 id="CohomologyClass-scale"),  # a stored zero: 0z(2,4), is_zero() False
    pytest.param(lambda: CohomologyClass(2.5, 5, {}), "a dimension k of type float", id="CohomologyClass-k"),
    pytest.param(lambda: gaussian_generating(True, 3), "a dimension k of type bool",
                 id="gaussian_generating-bool"),  # 1 + t + t^2
    pytest.param(lambda: poincare_closed(2.0, 4), "a dimension k of type float",
                 id="poincare_closed-float"),  # a TypeError from deep inside
]

# every integer input with a range: (the field the refusal names, a call that puts x there, the least and the
# greatest value allowed, None for no greatest); the call is valid at each value in the range
INTEGER_RANGES = [
    pytest.param("step count", _rk4_frame, 1, None, id="integrate_flow-steps"),
    pytest.param("power p", lambda x: IntPolynomial([1, 2]).substitute_power(x).coeffs, 1, None, id="substitute_power"),
    pytest.param("special class index i", lambda x: special_symbol(2, 4, x).entries, 1, 2, id="special_symbol-i"),
    pytest.param("special class index i", lambda x: pieri_product(CohomologyClass.unit(2, 4), x), 1, 2,
                 id="pieri_product"),
    pytest.param("maximum count m", lambda x: len(circle_complex(x).generators[0]), 1, None, id="circle_complex"),
    pytest.param("dimension n", lambda x: len(rp_complex(x).generators), 1, None, id="rp_complex"),
    pytest.param("Morse index", lambda x: LabeledEnds((x,), (), 4).incoming[0], 0, 4, id="LabeledEnds-incoming"),
    pytest.param("Morse index", lambda x: LabeledEnds((), (x,), 4).outgoing[0], 0, 4, id="LabeledEnds-outgoing"),
    pytest.param("block size", lambda x: GeneralizedSchubertSymbol((0, 0), (x, 1)).blocks[0], 1, None,
                 id="Generalized-blocks"),
    pytest.param("block size", lambda x: enumerate_generalized_symbols((x, 1), 1)[0].blocks[0], 1, None,
                 id="enumerate_generalized_symbols-blocks"),
    # these two took any integer: y_graph(-1) was a graph with no ends and dim_m = -4 a moduli dimension of -4
    pytest.param("dim_m", lambda x: LabeledEnds((), (), x).dim_m, 0, None, id="LabeledEnds-dim_m"),
    pytest.param("count of incoming ends", lambda x: y_graph(x).n_incoming, 0, None, id="y_graph"),
]


class TestIntegerRanges:
    @pytest.mark.parametrize("field,build,lo,hi", INTEGER_RANGES)
    def test_refused_outside_and_kept_inside(self, field, build, lo, hi):
        span = f"at least {lo}" if hi is None else f"from {lo} to {hi}"
        for x in (lo - 1, *([hi + 1] if hi is not None else [])):
            with pytest.raises(ValueError, match=f"^a {field} must be {span}, got {x}$"):
                build(x)
        for x in (lo, lo + 1, *([hi - 1, hi] if hi is not None else [])):
            assert build(x) == build(np.int64(x))

    @pytest.mark.parametrize("field,build,lo,hi", INTEGER_RANGES)
    def test_type_judged_before_range(self, field, build, lo, hi):
        for bad in (float(lo - 1), True, False):
            with pytest.raises(ValueError, match=f"^a {field} of type {type(bad).__name__} is not an integer$"):
                build(bad)

    def test_every_type_judged_before_any_bound(self):
        # judging each value's range before the next value's type named the 0 here, not the float
        with pytest.raises(ValueError, match=r"^a block size of type float is not an integer$"):
            symbols_module.integers((0, 2.5), "block size", 1)
        with pytest.raises(ValueError, match=r"^a block size of type float is not an integer$"):
            GeneralizedSchubertSymbol((0, 0), (0, 2.5))

    def test_bounds_may_be_given_alone(self):
        assert symbols_module.integers((0, 5), "value", hi=5) == (0, 5)
        with pytest.raises(ValueError, match=r"^a value must be at most 5, got 6$"):
            symbols_module.integers((0, 6), "value", hi=5)
        with pytest.raises(ValueError, match=r"^a value must be from -1 to 1, got -2$"):
            symbols_module.integers(iter([np.int8(-2)]), "value", -1, 1)


class TestIntegerRule:
    @pytest.mark.parametrize("bad", [2.5, 2.0, Fraction(2), "2", True], ids=repr)
    @pytest.mark.parametrize("field,build", INTEGER_INPUTS)
    def test_non_integers_refused(self, field, build, bad):
        error = ComplexValidationError if field in ("degree", "boundary entry") else ValueError
        with pytest.raises(error, match=f"^a {field} of type {type(bad).__name__} is not an integer$") as info:
            build(bad)
        assert type(info.value) is error

    @pytest.mark.parametrize("field,build", INTEGER_INPUTS)
    def test_numpy_integers_stored_as_int(self, field, build):
        got, want = build(np.int64(2)), build(2)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("call,message", REPROS)
    def test_repros_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
            call()

    def test_all_int_input_is_returned_as_it_is(self):
        values = (1, -2, 2**70)
        assert symbols_module.integers(values, "value") is values
        assert symbols_module.integers(iter([np.uint8(255), np.int64(2**62)]), "value") == (255, 2**62)


A4 = HeightSpectrum((3.0, 2.0, 1.0, 0.0))
V4 = GrassmannPoint([[1, 0], [1, 1], [0, 1], [1, 2]])
P12 = grassmannian_polytope(1, 2)
V_EMPTY = GrassmannPoint(np.zeros((4, 0)))  # no pivot to find, so any valid tolerance gives ()

# every place a real number enters: (the field the refusal names, a call that puts x there, valid at x = 1
# and x = 1/2, returning what is stored or computed from it)
REAL_INPUTS = [
    pytest.param("height", lambda x: HeightSpectrum((2, x, 0)).a, id="HeightSpectrum"),
    pytest.param("flow time", lambda x: flow(V4, A4, x).matrix.tobytes(), id="flow"),
    pytest.param("flow time", lambda x: integrate_flow(V4, A4, x, steps=4).matrix.tobytes(), id="integrate_flow"),
    pytest.param("flow time", lambda x: [mu.coords for mu in flow_moment_trace(V4, A4, [0.0, x])],
                 id="flow_moment_trace"),
    pytest.param("point coordinate", lambda x: MomentPoint((x, 0)).coords, id="MomentPoint"),
    pytest.param("point coordinate", lambda x: membership((x, 0), P12), id="membership-coords"),
    pytest.param("tolerance", tolerance, id="tolerance"),
    pytest.param("tolerance", lambda x: membership((0.5, 0.5), P12, tol=x), id="membership-tol"),
    pytest.param("tolerance", lambda x: str(limit_symbol(V_EMPTY, tol=x)), id="limit_symbol-tol"),
]


class TestRealRule:
    @pytest.mark.parametrize("bad", ["1.5", True, None, 1 + 0j, Decimal("1.5")], ids=repr)
    @pytest.mark.parametrize("field,build", REAL_INPUTS)
    def test_non_reals_refused(self, field, build, bad):
        if field == "tolerance" and isinstance(bad, str):
            # the text of --tol and MORSEGRASS_TOL is parsed with float(); no other real input is
            assert build(bad) == build(float(bad))
            return
        with pytest.raises(ValueError, match=f"^a {field} of type {type(bad).__name__} is not a real number$"):
            build(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float32("nan")], ids=repr)
    @pytest.mark.parametrize("field,build", REAL_INPUTS)
    def test_non_finite_refused(self, field, build, bad):
        with pytest.raises(ValueError, match=f"^a {field} must be finite, got "):
            build(bad)

    @pytest.mark.parametrize("good", [1, Fraction(1, 2), np.float64(0.5), np.int64(1)], ids=repr)
    @pytest.mark.parametrize("field,build", REAL_INPUTS)
    def test_exact_and_numpy_reals_used_as_floats_of_their_value(self, field, build, good):
        assert build(good) == build(float(good))

    @pytest.mark.parametrize("huge", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "-int", "Fraction"])
    @pytest.mark.parametrize("field,build", [
        ("height", lambda x: HeightSpectrum((x, 0))),
        ("flow time", lambda x: flow(V4, A4, x)),
        ("flow time", lambda x: integrate_flow(V4, A4, x, steps=4)),
        ("flow time", lambda x: flow_moment_trace(V4, A4, [0.0, x])),
        ("tolerance", tolerance),
        ("tolerance", lambda x: limit_symbol(V_EMPTY, tol=x)),
        ("point coordinate", lambda x: membership((x, 0.5), grassmannian_polytope(1, 2))),
        ("point coordinate", lambda x: moment_height(MomentPoint((x, 0)), HeightSpectrum((1.0, 0.0)))),
        ("point coordinate", lambda x: MomentPoint((x, 0)).to_json()),
    ], ids=["HeightSpectrum", "flow", "integrate_flow", "flow_moment_trace", "tolerance", "limit_symbol-tol",
            "membership", "moment_height", "MomentPoint.to_json"])
    def test_too_large_for_a_float_refused(self, field, build, huge):
        # float(10**400) raised OverflowError where the floats were made
        with pytest.raises(ValueError, match=f"^a {field} is too large to be a float$"):
            build(huge)

    def test_values_pass_as_they_are(self):
        # exact values are never converted: math.isfinite(10**400) raises OverflowError
        values = (10**400, Fraction(1, 3), np.int64(2), np.float64(0.5), np.float32(0.25), -3, 2.5)
        got = symbols_module.reals(values, "value")
        assert got is values and [*map(type, got)] == [*map(type, values)]
        assert MomentPoint((Fraction(1, 2), np.int64(0))).coords == (Fraction(1, 2), 0)
        assert type(MomentPoint((Fraction(1, 2), np.int64(0))).coords[1]) is np.int64
        assert symbols_module.reals(iter([1.5, 2]), "value") == (1.5, 2)
