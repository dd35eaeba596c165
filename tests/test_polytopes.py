import math
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

from morsegrass import polytopes, symbols
from morsegrass.flows import GrassmannPoint, HeightSpectrum, flow, height_value, random_point
from morsegrass.polytopes import (
    MomentPoint,
    VertexPolytope,
    face_counts,
    flow_moment_trace,
    grassmannian_polytope,
    membership,
    moment_height,
    moment_map,
    schubert_polytope,
    symbol_vertex,
)
from morsegrass.symbols import (
    CapacityError,
    SchubertSymbol,
    bruhat_leq,
    check_budget,
    enumerate_symbols,
    schubert_conditions,
)


def sym(entries, n):
    return SchubertSymbol(tuple(entries), n)


def coordinate_point(u):
    return GrassmannPoint.coordinate_plane(u)


class TestMomentMap:
    def test_vertices_are_indicator_vectors(self):
        for k, n in [(1, 3), (2, 4), (2, 5), (3, 6)]:
            for u in enumerate_symbols(k, n):
                mu = moment_map(coordinate_point(u))
                assert np.allclose(mu.coords, symbol_vertex(u), atol=1e-12)

    def test_coordinates_sum_to_k(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            V = random_point(2, 5, rng)
            mu = moment_map(V)
            assert abs(sum(mu.coords) - 2) < 1e-10
            assert all(-1e-12 <= x <= 1 + 1e-12 for x in mu.coords)

    def test_pairing_equals_height(self):
        rng = np.random.default_rng(4)
        a = HeightSpectrum((5.0, 3.0, 2.0, 1.0, 0.0))
        for _ in range(20):
            V = random_point(2, 5, rng)
            assert abs(moment_height(moment_map(V), a) - height_value(V, a)) < 1e-12

    @pytest.mark.parametrize("coords", [(1, 0, 0), (1,)])
    def test_height_refuses_other_lengths(self, coords):
        # zip once dropped the extra coordinates or heights and both points read 2.0
        with pytest.raises(ValueError, match="spectrum length does not match ambient dimension"):
            moment_height(MomentPoint(coords), HeightSpectrum((2.0, 1.0)))

    def test_projector_diagonal_oracle(self):
        # mu and f were read off the diagonal of the n x n projector; now squared row norms of the frame
        rng = np.random.default_rng(5)
        a = HeightSpectrum((9.0, 7.0, 4.0, 3.0, 2.5, 1.0, 0.0))
        for _ in range(200):
            V = random_point(3, 7, rng)
            diagonal = polytopes.projector(V).diagonal().real
            np.testing.assert_allclose(moment_map(V).coords, diagonal, rtol=0, atol=1e-15)
            assert abs(height_value(V, a) - float(np.dot(a.a, diagonal))) < 1e-13


class TestPolytopes:
    def test_hypersimplex_vertex_count(self):
        import math

        for k, n in [(1, 4), (2, 4), (2, 5)]:
            P = grassmannian_polytope(k, n)
            assert len(P.vertices) == math.comb(n, k)

    def test_octahedron_f_vector(self):
        f = face_counts(grassmannian_polytope(2, 4))
        assert f == (6, 12, 8, 1)

    def test_simplex_f_vector(self):
        # Delta(1, 4) is a 3-simplex
        assert face_counts(grassmannian_polytope(1, 4)) == (4, 6, 4, 1)

    def test_segment_and_point(self):
        # X_(1,3) of Gr(2,4) is a segment and X_(1) of Gr(1,2) a point; the
        # facet closure answers both, with no shortcut for two vertices or fewer
        seg = VertexPolytope(((1, 1, 0, 0), (1, 0, 1, 0)), 2, 4)
        assert seg == schubert_polytope(sym((1, 3), 4))
        assert face_counts(seg) == (2, 1)
        pt = VertexPolytope(((1, 0),), 1, 2)
        assert face_counts(pt) == (1,)
        # the diagonal segment of the unit square is no Schubert matroid polytope
        with pytest.raises(ValueError, match="Schubert matroid"):
            VertexPolytope(((0, 0), (1, 1)), 1, 2)

    def test_at_most_two_vertices_by_the_closure_alone(self):
        cases = [schubert_polytope(u) for n in range(9) for k in range(n + 1) for u in enumerate_symbols(k, n)]
        small = [P for P in cases if len(P.vertices) <= 2]
        assert len(small) == 73  # Gr(0, 0) and Gr(n, n) included
        assert all(face_counts(P) == ((1,) if len(P.vertices) == 1 else (2, 1)) for P in small)

    def test_point_with_no_coordinates(self):
        # Gr(0, 0) is a point whose vertex is the empty tuple
        assert face_counts(grassmannian_polytope(0, 0)) == (1,)
        assert membership((), grassmannian_polytope(0, 0))

    def test_schubert_polytope_dense_cell_is_full(self):
        dense = sym((3, 4), 4)
        assert set(schubert_polytope(dense).vertices) == \
            set(grassmannian_polytope(2, 4).vertices)

    def test_schubert_polytope_point_cell_is_vertex(self):
        point = sym((1, 2), 4)
        P = schubert_polytope(point)
        assert P.vertices == (symbol_vertex(point),)

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            VertexPolytope(((0, 1), (0, 1)), 1, 2)
        with pytest.raises(ValueError, match="at least one vertex"):
            VertexPolytope((), 1, 2)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            face_counts(grassmannian_polytope(3, 9))

    def test_collinear_points(self):
        # a segment through (1, 1): once answered as a polytope of Gr(1,2), and
        # membership([3/2, 3/2], .) was True; no 0/1 point set, so refused where it is built
        with pytest.raises(ValueError, match=r"Schubert matroid polytope of Gr\(1,2\)"):
            VertexPolytope(((0, 0), (1, 1), (2, 2)), 1, 2)

    def test_non_matroid_vertex_set_rejected(self):
        # 0/1 points with constant sum, but not all the 0/1 points of their
        # prefix-bound system (which holds all six points of Delta(2, 4))
        with pytest.raises(ValueError, match="Schubert matroid"):
            VertexPolytope(((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)), 2, 4)
        # vertex sums differ: a triangle in R^3
        with pytest.raises(ValueError, match="Schubert matroid"):
            VertexPolytope(((0, 0, 0), (1, 0, 0), (0, 1, 0)), 1, 3)
        # e_2 alone: its system 0 <= x <= 1, x_1 >= 0, x_1 + x_2 = 1 also holds e_1
        with pytest.raises(ValueError, match="Schubert matroid"):
            VertexPolytope(((0, 1),), 1, 2)

    def test_wrong_k_or_n_rejected(self):
        # the zero vector of R^3 was once accepted as a polytope of Gr(2,3)
        with pytest.raises(ValueError, match=r"Schubert matroid polytope of Gr\(2,3\)"):
            VertexPolytope(((0, 0, 0),), 2, 3)
        for k, n in [(2, 2), (0, 2), (1, 3), (1, 1)]:  # Delta(1, 2) under another (k, n)
            with pytest.raises(ValueError, match="Schubert matroid"):
                VertexPolytope(((1, 0), (0, 1)), k, n)
        assert VertexPolytope(((1, 0), (0, 1)), 1, 2) == grassmannian_polytope(1, 2)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_brute_force_on_schubert_polytopes(self, n):
        for k in range(1, n):
            for u in enumerate_symbols(k, n):
                P = schubert_polytope(u)
                if len(P.vertices) <= 10:
                    assert face_counts(P) == brute_force_face_counts(P.vertices), u

    def test_hypersimplex_closed_form(self):
        for n in range(2, 9):
            for k in range(1, n):
                assert face_counts(grassmannian_polytope(k, n)) == hypersimplex_f_vector(k, n)

    def test_vertices_are_the_points_of_the_prefix_system(self):
        for k, n in [(2, 5), (3, 6), (2, 7)]:
            for u in enumerate_symbols(k, n):
                c = schubert_conditions(u)
                points = {
                    v for v in map(symbol_vertex, enumerate_symbols(k, n))
                    if all(sum(v[:i + 1]) >= c[i] for i in range(n))
                }
                assert points == set(schubert_polytope(u).vertices)


def refused(engine, P):
    try:
        engine(P)
    except CapacityError:
        return True
    return False


class TestExactStructure:
    """Vertices listed from the Bruhat interval and face dimensions read off covers,
    checked against the Bruhat filter and the per-face rank they replaced."""

    def test_symbol_vertex_matches_old_definition(self):
        for n in range(9):
            for k in range(n + 1):
                for u in enumerate_symbols(k, n):
                    assert symbol_vertex(u) == old_symbol_vertex(u), u

    @pytest.mark.parametrize("n", range(9))
    def test_vertices_match_bruhat_filter(self, n):
        for k in range(n + 1):
            for u in enumerate_symbols(k, n):
                assert schubert_polytope(u).vertices == filtered_vertices(u), u
            top = SchubertSymbol(tuple(range(n - k + 1, n + 1)), n)
            assert grassmannian_polytope(k, n).vertices == filtered_vertices(top)

    @pytest.mark.parametrize("n", range(9))
    def test_face_counts_match_rank_binning(self, n):
        # every polytope with n <= 8 fits the budget
        for k in range(n + 1):
            assert face_counts(grassmannian_polytope(k, n)) == binned_face_counts(
                grassmannian_polytope(k, n))
            for u in enumerate_symbols(k, n):
                P = schubert_polytope(u)
                assert face_counts(P) == binned_face_counts(P), u

    def test_refusals_match_rank_binning(self):
        # every hypersimplex with n <= 11, and every 41st Schubert polytope of
        # each Gr(k, n) with 9 <= n <= 11, where refusals begin
        cases = [grassmannian_polytope(k, n) for n in range(12) for k in range(n + 1)]
        cases += [schubert_polytope(u) for n in range(9, 12) for k in range(n + 1)
                  for u in enumerate_symbols(k, n)[::41]]
        verdicts = set()
        for P in cases:
            verdict = refused(closed_faces, P)
            assert refused(face_counts, P) == verdict, P.vertices
            verdicts.add(verdict)
        assert verdicts == {False, True}

    @pytest.mark.parametrize("n", range(9))
    def test_maximal_candidates_are_the_ranked_facets(self, n):
        # face_counts takes the candidates no other contains; the rank rule it
        # replaced takes those whose vertices span dimension d - 1
        for k in range(n + 1):
            cases = [grassmannian_polytope(k, n)] + [schubert_polytope(u) for u in enumerate_symbols(k, n)]
            for P in cases:
                verts = P.vertices
                d = _affine_rank(verts)
                if d < 2:
                    continue
                candidates = facet_candidates(P)
                maximal = {f for f in candidates if not any(f < g for g in candidates)}
                ranked = {f for f in candidates if _affine_rank([verts[j] for j in f]) == d - 1}
                assert maximal == ranked, verts
                assert face_counts(P)[d - 1] == len(ranked), verts

    # every Schubert polytope with n <= 11 whose candidate ranks (the third
    # stage of closed_faces) exceed the budget while its closure fits it
    CANDIDATE_RANKS_OVER_BUDGET = [
        (2, 5, 7, 9), (2, 6, 7, 9), (4, 5, 6, 9),
        (1, 3, 6, 8, 10), (1, 3, 7, 8, 10), (1, 5, 6, 7, 10), (2, 3, 7, 8, 9),
        (2, 4, 6, 7, 9), (2, 5, 6, 7, 9),
        (1, 2, 4, 7, 9, 11), (1, 2, 4, 8, 9, 11), (1, 2, 6, 7, 8, 11),
        (1, 3, 4, 8, 9, 10), (1, 3, 5, 7, 8, 10), (1, 3, 6, 7, 8, 10),
        (1, 2, 4, 5, 9, 10, 11), (1, 2, 4, 6, 8, 9, 11), (1, 2, 4, 7, 8, 9, 11),
    ]

    @pytest.mark.parametrize("entries", CANDIDATE_RANKS_OVER_BUDGET)
    def test_answered_without_candidate_ranks(self, entries):
        P = schubert_polytope(sym(entries, 11))
        with pytest.raises(CapacityError, match="candidate ranks"):
            closed_faces(P)
        f = face_counts(P)
        d = _affine_rank(P.vertices)
        assert f[0] == len(P.vertices)
        assert len(f) == d + 1
        assert sum((-1) ** i * fi for i, fi in enumerate(f)) == 1  # Euler's relation, with f_d = 1

    def test_answered_f_vectors_match_rank_binning(self, monkeypatch):
        # one polytope per vertex count (75, 76, 80); the oracle needs a larger budget
        cases = [schubert_polytope(sym(entries, 11)) for entries in self.CANDIDATE_RANKS_OVER_BUDGET[:3]]
        answers = [face_counts(P) for P in cases]
        monkeypatch.setattr(symbols, "MAX_SYMBOLS", 10**6)
        assert answers == [binned_face_counts(P) for P in cases]

    def test_face_counts_makes_no_rank_call(self):
        # d comes from the pinned prefix sums, so no rank routine and no rank
        # budget stage are left: Delta(5, 12), whose 792 * 12^2 rank updates the
        # former first stage refused, is now refused by the closure
        assert not hasattr(polytopes, "_affine_rank")
        with pytest.raises(CapacityError, match="facet intersections to close the face lattice"):
            face_counts(grassmannian_polytope(5, 12))

    def test_dimension_is_n_minus_the_pinned_prefix_sums(self):
        # Bonin-de Mier: the bounding lattice paths meet where c_i = min(i, k)
        # (n = 0 leaves no prefix sums)
        cases = [schubert_polytope(u) for n in range(1, 10) for k in range(n + 1) for u in enumerate_symbols(k, n)]
        cases += [grassmannian_polytope(k, n) for n in range(1, 12) for k in range(n + 1)]
        for P in cases:
            pins = sum(c == min(i, P.k) for i, c in enumerate(P._bounds, 1))
            assert P.n - pins == _affine_rank(P.vertices), P.vertices
            # the bounds read from the symbol are those the checked constructor finds
            Q = VertexPolytope(P.vertices, P.k, P.n)
            assert Q == P and hash(Q) == hash(P) and Q._bounds == P._bounds, P.vertices

    def test_vertices_skip_bruhat_filter(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the vertices are stepped through, not filtered, and the bounds read off the symbol")

        for name in ("bruhat_leq", "enumerate_symbols"):
            monkeypatch.setattr(symbols, name, forbidden)
            monkeypatch.setattr(polytopes, name, forbidden, raising=False)
        monkeypatch.setattr(polytopes, "_prefix_bounds", forbidden)
        assert len(schubert_polytope(sym((3, 5, 8), 8)).vertices) == 37
        assert len(grassmannian_polytope(4, 8).vertices) == 70
        assert grassmannian_polytope(0, 0).vertices == ((),)
        assert grassmannian_polytope(3, 3).vertices == ((1, 1, 1),)

    @pytest.mark.parametrize("n", range(9))
    def test_lattice_paths_count_the_vertices(self, n):
        for k in range(n + 1):
            for u in enumerate_symbols(k, n):
                bounds = list(accumulate(symbol_vertex(u)))
                assert polytopes._lattice_paths(bounds, k) == len(schubert_polytope(u).vertices), u

    def test_vertex_coordinates_priced_before_listing(self):
        # Gr(2, 447) has 99 681 cells, within the budget, but listing them took
        # 99 681 * 447 coordinates before face_counts refused the polytope
        with pytest.raises(CapacityError, match=r"Schubert polytope vertex coordinates in Gr\(2,447\), 99681\*447"):
            grassmannian_polytope(2, 447)
        with pytest.raises(CapacityError, match=r"coordinates of a vertex of Gr\(0,3000000\)"):
            grassmannian_polytope(0, 3_000_000)
        # a small interval of a large Grassmannian is priced by its own vertices
        assert len(schubert_polytope(sym((1, 200), 447)).vertices) == 199
        assert len(schubert_polytope(sym(range(1, 10), 18)).vertices) == 1

    def test_cell_budget_still_prices_the_grassmannian(self):
        # the cell (1, ..., 20) of Gr(20, 40) is a single vertex, but Gr(20, 40)
        # has more than MAX_SYMBOLS cells, so it is refused as before
        with pytest.raises(CapacityError, match="Schubert cells of Gr"):
            schubert_polytope(sym(range(1, 21), 40))
        with pytest.raises(CapacityError, match="Schubert cells of Gr"):
            grassmannian_polytope(20, 40)
        with pytest.raises(ValueError, match="need 0 <= k <= n"):
            grassmannian_polytope(-1, 3)
        # refused before the symbol of n - k entries is built
        with pytest.raises(CapacityError, match="Schubert cells of Gr"):
            grassmannian_polytope(10**9, 2 * 10**9)


class TestMembership:
    def test_exact_center(self):
        P = grassmannian_polytope(2, 4)
        c = [Fraction(1, 2)] * 4
        assert membership(c, P)

    def test_exact_outside(self):
        P = grassmannian_polytope(2, 4)
        assert not membership([Fraction(2), 0, 0, 0], P)
        assert not membership([Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)], P)

    def test_exact_vertices_and_edges(self):
        P = grassmannian_polytope(2, 4)
        for v in P.vertices:
            assert membership(v, P)
        mid = [Fraction(a + b, 2) for a, b in zip(P.vertices[0], P.vertices[1])]
        assert membership(mid, P)

    def test_float_route(self):
        P = grassmannian_polytope(2, 4)
        assert membership([0.5, 0.5, 0.5, 0.5], P)
        assert not membership([0.9, 0.9, 0.9, 0.9], P)
        assert not membership([0.5, 0.5, 0.5, 0.55], P, tol=1e-9)

    def test_moment_images_inside(self):
        rng = np.random.default_rng(11)
        P = grassmannian_polytope(2, 5)
        for _ in range(10):
            assert membership(moment_map(random_point(2, 5, rng)), P, tol=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            membership([0.5, 0.5], grassmannian_polytope(2, 4))

    def test_tolerance_and_coordinates_checked(self):
        P = grassmannian_polytope(2, 4)
        for tol in (0.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance"):
                membership([0.5] * 4, P, tol=tol)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                membership([bad, 0.5, 0.5, 0.5], P)

    @pytest.mark.parametrize("coords, kind", [
        (("1", "0"), "str"),
        ((None, 1), "NoneType"),
        ((1 + 0j, 0), "complex"),
        ((Decimal(1), Decimal(0)), "Decimal"),
        ((True, False), "bool"),
        ((1, np.bool_(False)), np.bool_.__name__),
        ((np.int64(1), np.int64(0)), None),
        ((np.float64(0.5), np.float32(0.5)), None),
        ((np.int32(1), Fraction(0)), None),
    ])
    def test_coordinates_must_be_real_numbers(self, coords, kind):
        # these raised TypeError from float() or +, and (True, False) was taken as the point (1, 0)
        P = grassmannian_polytope(1, 2)
        if kind is None:
            assert membership(coords, P)
            assert membership(MomentPoint(coords), P)
        else:
            for build in (tuple, MomentPoint):  # a MomentPoint refuses them where it is built
                with pytest.raises(ValueError, match=f"a point coordinate of type {kind} is not a real number"):
                    membership(build(coords), P)

    def test_lower_dimensional_schubert_polytope(self):
        # X_(2,4) in Gr(2,4): vertices e_v with v <= (2,4), so x_1 + x_2 >= 1
        P = schubert_polytope(sym((2, 4), 4))
        assert membership([Fraction(1, 2)] * 4, P)
        assert not membership([0, 0, 1, 1], P)
        assert not membership([0.0, 0.0, 1.0, 1.0], P)
        # X_(1,3): x_1 = 1 on every vertex
        Q = schubert_polytope(sym((1, 3), 4))
        assert membership([1, Fraction(1, 2), Fraction(1, 2), 0], Q)
        assert not membership([Fraction(9, 10), Fraction(11, 20), Fraction(11, 20), 0], Q)

    def test_fraction_coordinates_count_as_0_1(self):
        # Fraction(1) bounds once reached the lattice-path count and raised TypeError
        P = grassmannian_polytope(2, 4)
        Q = VertexPolytope(tuple(tuple(map(Fraction, v)) for v in P.vertices), 2, 4)
        assert face_counts(Q) == face_counts(P)
        assert membership([Fraction(1, 2)] * 4, Q) and not membership([1, 1, 1, 0], Q)
        pt = VertexPolytope(((Fraction(1), Fraction(0)),), 1, 2)
        assert face_counts(pt) == (1,)
        assert membership([1, 0], pt) and not membership([0, 1], pt)

    def test_segment_and_point(self):
        # X_(1,3) of Gr(2,4): the segment from (1,1,0,0) to (1,0,1,0)
        seg = VertexPolytope(((1, 1, 0, 0), (1, 0, 1, 0)), 2, 4)
        assert membership([1, Fraction(1, 3), Fraction(2, 3), 0], seg)
        assert not membership([1, Fraction(1, 3), Fraction(1, 2), 0], seg)
        assert not membership([1, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)], seg)
        assert not membership([1, -1, 2, 0], seg)  # on the line, past (1,0,1,0)
        assert membership([1.0, 0.25, 0.75 + 1e-12, 0.0], seg)
        assert not membership([1.0, 1.5, -0.5, 0.0], seg)  # on the line, past (1,1,0,0)
        pt = VertexPolytope(((1, 0),), 1, 2)
        assert membership([1, 0], pt) and not membership([0, 1], pt)


class TestFlowTrace:
    def test_trace_stays_in_schubert_polytope(self):
        # a coordinate-plane perturbation flows within the hypersimplex
        rng = np.random.default_rng(5)
        a = HeightSpectrum((4.0, 3.0, 2.0, 1.0))
        P = grassmannian_polytope(2, 4)
        for _ in range(5):
            V = random_point(2, 4, rng)
            trace = flow_moment_trace(V, a, [0.0, 0.5, 1.0, 2.0, 4.0])
            for p in trace:
                assert membership(p, P, tol=1e-7)

    def test_stacked_trace_matches_moment_map_per_time(self):
        # the former trace, one flow and one moment_map per time, kept as the oracle;
        # t = 1e6 clamps the exponent
        rng = np.random.default_rng(7)
        ts = [0.0, 0.25, 1.0, 3.0, 40.0, 1e6]
        for k, n in [(0, 3), (1, 3), (2, 4), (2, 5), (3, 7), (4, 8)]:
            a = HeightSpectrum(tuple(float(x) for x in range(n, 0, -1)))
            V = random_point(k, n, rng) if k else GrassmannPoint(np.zeros((n, 0)))
            trace = flow_moment_trace(V, a, ts)
            assert len(trace) == len(ts)
            for p, t in zip(trace, ts):
                np.testing.assert_allclose(p.coords, moment_map(flow(V, a, t)).coords, rtol=0, atol=1e-12)
        assert flow_moment_trace(V, a, []) == []

    def test_non_finite_time_refused(self):
        V = random_point(2, 4, np.random.default_rng(8))
        with pytest.raises(ValueError, match="flow time must be finite"):
            flow_moment_trace(V, HeightSpectrum((4.0, 3.0, 2.0, 1.0)), [0.0, float("nan")])

    def test_height_monotone_along_downward_flow(self):
        rng = np.random.default_rng(6)
        a = HeightSpectrum((4.0, 3.0, 2.0, 1.0))
        V = random_point(2, 4, rng)
        heights = [moment_height(p, a) for p in flow_moment_trace(V, a, [0.0, 1.0, 2.0, 3.0])]
        assert all(h2 <= h1 + 1e-10 for h1, h2 in zip(heights, heights[1:]))


def test_moment_point_json():
    p = MomentPoint((0.5, 0.25, 0.25))
    assert p.to_json() == [0.5, 0.25, 0.25]
    assert p.n == 3


# ----------------------------------------------------------------- oracles
# The exact phase-1 simplex, the slack LP and the brute-force facet search
# that decided membership and faces before the inequality description, and
# the affine rank that gave the dimension before the pinned prefix sums; kept
# here as independent checks.


def _affine_rank(points) -> int:
    """Dimension of the affine hull of rational points, by fraction-free elimination."""
    base = points[0]
    rows: list[tuple[int, list]] = []  # (pivot column, row), reduced against earlier pivots
    for p in points[1:]:
        r = [a - b for a, b in zip(p, base)]
        for col, row in rows:
            if r[col]:
                f, g = r[col], row[col]
                r = [g * a - f * b for a, b in zip(r, row)]
        col = next((i for i, a in enumerate(r) if a), None)
        if col is not None:
            rows.append((col, r))
    return len(rows)


def _affine_basis(verts):
    """Coordinates of each vertex in a row-reduced basis of span{v - v0}."""
    v0 = verts[0]
    basis, pivots = [], []
    for v in verts[1:]:
        d = [x - y for x, y in zip(v, v0)]
        for b, p in zip(basis, pivots):
            if d[p] != 0:
                f = d[p]
                d = [x - f * y for x, y in zip(d, b)]
        p = next((i for i, x in enumerate(d) if x != 0), None)
        if p is not None:
            basis.append([x / d[p] for x in d])
            pivots.append(p)
    coords = []
    for v in verts:
        d = [x - y for x, y in zip(v, v0)]
        cs = []
        for b, p in zip(basis, pivots):
            c = d[p]
            cs.append(c)
            d = [x - c * y for x, y in zip(d, b)]
        coords.append(cs)
    return coords


def _nullspace_vector(mat, d):
    """A nonzero kernel vector of the (d-1) x d matrix, or None if rank < d-1."""
    reduced, pivots = [], []
    for r in mat:
        for b, p in zip(reduced, pivots):
            if r[p] != 0:
                f = r[p]
                r = [x - f * y for x, y in zip(r, b)]
        p = next((i for i, x in enumerate(r) if x != 0), None)
        if p is None:
            return None
        reduced.append([x / r[p] for x in r])
        pivots.append(p)
    free = next(i for i in range(d) if i not in pivots)
    vec = [Fraction(0)] * d
    vec[free] = Fraction(1)
    for b, p in zip(reversed(reduced), reversed(pivots)):
        vec[p] = -sum(b[j] * vec[j] for j in range(d) if j != p)
    return vec


def brute_force_face_counts(vertices):
    """f-vector from supporting hyperplanes through every d-subset of vertices."""
    verts = [[Fraction(x) for x in v] for v in vertices]
    nv = len(verts)
    coords = _affine_basis(verts)
    d = len(coords[0])
    if d == 0:
        return (1,)
    facets = set()
    for subset in combinations(range(nv), d):
        base = coords[subset[0]]
        mat = [[coords[i][j] - base[j] for j in range(d)] for i in subset[1:]]
        normal = _nullspace_vector(mat, d)
        if normal is None:
            continue
        offset = sum(a * b for a, b in zip(normal, base))
        signs = [sum(a * c for a, c in zip(normal, coords[i])) - offset for i in range(nv)]
        if all(s >= 0 for s in signs) or all(s <= 0 for s in signs):
            facets.add(frozenset(i for i, s in enumerate(signs) if s == 0))
    faces, frontier = set(facets), set(facets)
    while frontier:
        frontier = {f & g for f in frontier for g in facets if f & g} - faces
        faces |= frontier
    counts = [0] * (d + 1)
    counts[d] = 1
    for f in faces:
        counts[len(_affine_basis([verts[i] for i in sorted(f)])[0])] += 1
    return tuple(counts)


def old_symbol_vertex(u):
    """e_u as first written, testing membership in a fresh set per coordinate."""
    return tuple(1 if i in set(u.entries) else 0 for i in range(1, u.n + 1))


def filtered_vertices(u):
    """The vertices of X_u as the Bruhat filter over every symbol of Gr(k, n) lists them."""
    return tuple(old_symbol_vertex(v) for v in enumerate_symbols(u.k, u.n) if bruhat_leq(u, v))


def facet_candidates(P):
    """Tight vertex sets of x_i >= 0, x_i <= 1 and the prefix bounds, neither empty nor all."""
    verts, bounds = P.vertices, P._bounds
    sums = [list(accumulate(v)) for v in verts]
    tight = []
    for i, c in enumerate(bounds):
        tight.append(frozenset(j for j, v in enumerate(verts) if v[i] == 0))
        tight.append(frozenset(j for j, v in enumerate(verts) if v[i] == 1))
        tight.append(frozenset(j for j, p in enumerate(sums) if p[i] == c))
    return {t for t in tight if 0 < len(t) < len(verts)}


def closed_faces(P):
    """Dimension d and the proper faces, as vertex index sets, of a polytope of
    dimension d >= 2: the facets closed under intersection, with the three
    priced stages of face_counts."""
    verts, nv, n = P.vertices, len(P.vertices), P.n
    check_budget(nv * n**2, "vertex rank")
    d = _affine_rank(verts)
    if d <= 1:
        return d, set()
    candidates = facet_candidates(P)
    check_budget(sum(map(len, candidates)) * n**2, "candidate ranks")
    facets = [f for f in candidates if _affine_rank([verts[j] for j in f]) == d - 1]
    faces, frontier, intersections = set(facets), set(facets), 0
    while frontier:
        intersections += len(frontier) * len(facets)
        check_budget(intersections, "facet intersections")
        frontier = {f & g for f in frontier for g in facets if f & g} - faces
        faces |= frontier
    return d, faces


def binned_face_counts(P):
    """face_counts before covers: the rank of every closed face, binned."""
    d, faces = closed_faces(P)
    if d <= 1:
        return (1,) if d == 0 else (2, 1)
    counts = [0] * (d + 1)
    counts[d] = 1
    for f in faces:
        counts[_affine_rank([P.vertices[i] for i in sorted(f)])] += 1
    return tuple(counts)


def hypersimplex_f_vector(k, n):
    """Faces of Delta(k, n) fix some coordinates to 0 or 1: a j-face (j >= 1)
    is a Delta(k', j + 1) with 0 < k' < j + 1 on the free coordinates."""
    f = [math.comb(n, k)]
    for j in range(1, n):
        m = j + 1
        f.append(sum(
            math.comb(n, m) * math.comb(n - m, k - kk)
            for kk in range(1, m)
            if 0 <= k - kk <= n - m
        ))
    return tuple(f)


def exact_feasible(vertices, x):
    """Whether x is a convex combination of the vertices (phase-1 simplex, Bland's rule)."""
    m = len(x) + 1
    rows = [[Fraction(v[i]) for v in vertices] for i in range(len(x))]
    rows.append([Fraction(1)] * len(vertices))
    rhs = [Fraction(c) for c in x] + [Fraction(1)]
    for i in range(m):
        if rhs[i] < 0:
            rows[i], rhs[i] = [-a for a in rows[i]], -rhs[i]
    cols = len(vertices)
    total = cols + m
    t = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [cols + i for i in range(m)]
    obj = [Fraction(0)] * (total + 1)
    for i in range(m):
        obj = [o - a for o, a in zip(obj, t[i])]
        obj[cols + i] += 1
    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        ratios = [(t[i][total] / t[i][enter], basis[i], i) for i in range(m) if t[i][enter] > 0]
        if not ratios:
            break
        leave = min(ratios)[2]
        piv = t[leave][enter]
        t[leave] = [a / piv for a in t[leave]]
        for i in range(m):
            if i != leave and t[i][enter] != 0:
                f = t[i][enter]
                t[i] = [a - f * b for a, b in zip(t[i], t[leave])]
        f = obj[enter]
        obj = [a - f * b for a, b in zip(obj, t[leave])]
        basis[leave] = enter
    return obj[total] == 0


def lp_member(vertices, x, tol=1e-9):
    """Whether the l1 defect of the best convex combination is below the slack."""
    n, nv = len(x), len(vertices)
    vt = np.array(vertices, dtype=float).T
    a_eq = np.vstack([
        np.hstack([vt, np.eye(n), -np.eye(n)]),
        np.hstack([np.ones(nv), np.zeros(2 * n)]),
    ])
    b_eq = np.concatenate([np.array(x, dtype=float), [1.0]])
    c = np.concatenate([np.zeros(nv), np.ones(2 * n)])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return bool(res.success) and float(res.fun) <= tol * (1.0 + float(np.abs(b_eq).sum()))


@st.composite
def schubert_polytopes(draw):
    n = draw(st.integers(2, 6))
    entries = draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))
    return schubert_polytope(SchubertSymbol(tuple(sorted(entries)), n))


@st.composite
def polytope_and_point(draw, exact):
    """A Schubert polytope and a point: a convex combination of its vertices,
    optionally moved by a random displacement, or an arbitrary point."""
    P = draw(schubert_polytopes())
    nv, n = len(P.vertices), P.n
    if exact:
        weight = st.integers(0, 4).map(Fraction)
        shift = st.integers(-3, 3).map(lambda a: Fraction(a, 4))
    else:
        weight = st.floats(0, 1)
        shift = st.floats(-0.5, 0.5)
    if draw(st.booleans()):
        w = draw(st.lists(weight, min_size=nv, max_size=nv).filter(lambda w: sum(w) > 0.01))
        x = [sum(wi * v[i] for wi, v in zip(w, P.vertices)) / sum(w) for i in range(n)]
        if draw(st.booleans()):
            x = [a + b for a, b in zip(x, draw(st.lists(shift, min_size=n, max_size=n)))]
    else:
        x = draw(st.lists(shift.map(lambda a: a + (Fraction(1, 2) if exact else 0.5)),
                          min_size=n, max_size=n))
    return P, x


@settings(deadline=None)
@given(polytope_and_point(exact=True))
def test_exact_membership_matches_simplex(case):
    P, x = case
    assert membership(x, P) == exact_feasible(P.vertices, x)


@settings(deadline=None)
@given(polytope_and_point(exact=False))
def test_float_membership_matches_linprog(case):
    P, x = case
    # compare only away from the boundary: every constraint value is either
    # rounding noise around 0 or at least 1e-6 from it
    prefix = np.cumsum(x)
    values = [prefix[-1] - P.k, *x, *(1 - a for a in x)]
    values += [p - min(sum(v[:i + 1]) for v in P.vertices) for i, p in enumerate(prefix)]
    assume(all(abs(g) < 1e-12 or abs(g) >= 1e-6 for g in values))
    assert membership(x, P) == lp_member(P.vertices, x)
