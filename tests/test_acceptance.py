"""Acceptance gate: one test per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines are
echoed in the terminal summary (and immediately with ``-s``).
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from morsegrass import (
    CohomologyClass,
    GrassmannPoint,
    HeightSpectrum,
    IntPolynomial,
    LabeledEnds,
    cup_product,
    cup_product_instance,
    duality_pairing,
    enumerate_generalized_symbols,
    enumerate_symbols,
    flow,
    generalized_index,
    integrate_flow,
    interval_graph,
    limit_symbol,
    mb_polynomial,
    moduli_dimension,
    morse_polynomial_by_cells,
    plucker_embed,
    plucker_weights,
    poincare_closed,
    poincare_recurrence,
    projective_distance,
    random_point,
    span_distance,
    triple_product,
    two_in_one_out_tree,
    y_graph,
)

from conftest import acceptance_report


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        line = f"[FAIL] criterion {num}: {label}"
        acceptance_report.append(line)
        print(line, flush=True)
        raise
    line = f"[PASS] criterion {num}: {label}"
    acceptance_report.append(line)
    print(line, flush=True)


RNG = np.random.default_rng(20260824)


def sym(entries, n):
    from morsegrass import SchubertSymbol

    return SchubertSymbol(tuple(entries), n)


def test_criterion_1_poincare_three_way():
    with criterion(1, "Poincare three-way agreement, n <= 9, under 5 s"):
        t0 = time.monotonic()
        for n in range(10):
            for k in range(n + 1):
                cells = morse_polynomial_by_cells(k, n)
                assert cells == poincare_recurrence(k, n)
                assert cells == poincare_closed(k, n)
        assert poincare_closed(2, 4) == IntPolynomial([1, 0, 1, 0, 2, 0, 1, 0, 1])
        assert time.monotonic() - t0 < 5.0


def test_criterion_2_gr24_cell_table():
    with criterion(2, "Gr(2,4) cell table: dimensions and condition sequences"):
        from morsegrass import cell_dimension, schubert_conditions

        table = {
            (3, 4): ((0, 0, 1, 2), 4),
            (2, 4): ((0, 1, 1, 2), 3),
            (1, 4): ((1, 1, 1, 2), 2),
            (2, 3): ((0, 1, 2, 2), 2),
            (1, 3): ((1, 1, 2, 2), 1),
            (1, 2): ((1, 2, 2, 2), 0),
        }
        syms = enumerate_symbols(2, 4)
        assert len(syms) == 6
        for u in syms:
            conditions, dim = table[u.entries]
            assert tuple(schubert_conditions(u)) == conditions
            assert cell_dimension(u) == dim


def test_criterion_3_morse_bott_fixtures():
    with criterion(3, "Morse-Bott indices, MB polynomial, refinement oracle n <= 7"):
        t0 = time.monotonic()
        from morsegrass import critical_index, morse_refinements

        cs = enumerate_generalized_symbols((2, 3, 2), 1)
        assert sorted(generalized_index(c) for c in cs) == [0, 4, 10]
        t2 = IntPolynomial.monomial(2)
        want = (
            IntPolynomial([1, 0, 1])
            + IntPolynomial.monomial(4) * IntPolynomial([1, 0, 1, 0, 1])
            + IntPolynomial.monomial(10) * IntPolynomial([1, 0, 1])
        )
        assert mb_polynomial(cs) == want
        assert mb_polynomial(cs) == poincare_closed(1, 7)
        # oracle: generalized index is the least Morse index among refinements
        for n in range(1, 8):
            for blocks in _compositions(n):
                for k in range(n + 1):
                    for c in enumerate_generalized_symbols(blocks, k):
                        oracle = min(
                            critical_index(u, "for_minus_f")
                            for u in morse_refinements(c)
                        )
                        assert generalized_index(c) == oracle
        assert time.monotonic() - t0 < 10.0


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_criterion_4_flow_vs_rk4():
    with criterion(4, "closed-form flow vs RK4 within 1e-6; order-4 convergence"):
        for k, n in [(2, 4), (2, 5)]:
            a = HeightSpectrum(tuple(float(x) for x in range(n, 0, -1)))
            for _ in range(50):
                V = random_point(k, n, RNG)
                t = float(RNG.uniform(0.0, 3.0))
                err = span_distance(integrate_flow(V, a, t, steps=400), flow(V, a, t))
                assert err < 1e-6
        a4 = HeightSpectrum((3.0, 2.0, 1.0, 0.0))
        V = random_point(2, 4, RNG)
        target = flow(V, a4, 1.0)
        errs = [
            span_distance(integrate_flow(V, a4, 1.0, steps=s), target)
            for s in (8, 16, 32)
        ]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(12.0 < r < 20.0 for r in ratios)


def test_criterion_5_plucker_equivariance():
    with criterion(5, "Plucker equivariance below 1e-9 on 100 samples, n <= 5"):
        configs = [(k, n) for n in range(2, 6) for k in range(1, n)]
        for k, n in configs:
            a = HeightSpectrum(tuple(float(x) for x in range(n, 0, -1)))
            w = np.array(plucker_weights(a, k))
            for _ in range(10):
                V = random_point(k, n, RNG)
                t = float(RNG.uniform(0.0, 3.0))
                lhs = plucker_embed(flow(V, a, t))
                rhs = np.exp(-t * (w - w.min())) * plucker_embed(V)
                assert projective_distance(lhs, rhs) < 1e-9


def test_criterion_6_limit_classification():
    with criterion(6, "limit classification: generic points and all 6 echelon cells"):
        for _ in range(100):
            V = random_point(2, 4, RNG)
            assert limit_symbol(V, "down").entries == (3, 4)
            assert limit_symbol(V, "up").entries == (1, 2)
        for u in enumerate_symbols(2, 4):
            m = np.zeros((4, 2), dtype=complex)
            for col, row in enumerate(u.entries):
                m[row - 1, col] = 1.0
                for r in range(row - 1):
                    if r + 1 not in u.entries[: col + 1]:
                        m[r, col] = 0.3 + 0.2j * (col + 1)
            assert limit_symbol(GrassmannPoint(m), "down") == u


def test_criterion_7_moment_polytope():
    with criterion(7, "octahedron f-vector, mu(V_u) = e_u, pairing = f, traces inside"):
        from morsegrass import (
            face_counts,
            flow_moment_trace,
            grassmannian_polytope,
            height_value,
            membership,
            moment_height,
            moment_map,
            symbol_vertex,
        )

        assert face_counts(grassmannian_polytope(2, 4)) == (6, 12, 8, 1)
        for n in range(1, 7):
            for k in range(n + 1):
                for u in enumerate_symbols(k, n):
                    mu = moment_map(GrassmannPoint.coordinate_plane(u))
                    assert np.allclose(mu.coords, symbol_vertex(u), atol=1e-12)
        a5 = HeightSpectrum((5.0, 4.0, 2.0, 1.0, 0.0))
        for _ in range(25):
            V = random_point(2, 5, RNG)
            assert abs(moment_height(moment_map(V), a5) - height_value(V, a5)) < 1e-12
        a4 = HeightSpectrum((4.0, 3.0, 2.0, 1.0))
        P = grassmannian_polytope(2, 4)
        for _ in range(10):
            V = random_point(2, 4, RNG)
            for p in flow_moment_trace(V, a4, [0.0, 0.5, 1.0, 2.0, 4.0]):
                assert membership(p, P, tol=1e-7)


def test_criterion_8_witten_homology():
    with criterion(8, "circle and RP^n homology, mod-2 perfection, dd = 0, Q >= 0"):
        from morsegrass import (
            ComplexValidationError,
            WittenComplex,
            circle_complex,
            grassmannian_complex,
            homology,
            morse_inequalities,
            rp_complex,
            torus_complex,
        )

        for m in range(1, 7):
            h = homology(circle_complex(m))
            assert (h.ranks[0], h.ranks[1]) == (1, 1)
            assert not h.torsion[0] and not h.torsion[1]
        for n in range(1, 9):
            h = homology(rp_complex(n))
            assert h.ranks[0] == 1 and not h.torsion[0]
            for i in range(1, n):
                expect_torsion = [2] if i % 2 == 1 else []
                assert h.ranks[i] == 0 and h.torsion[i] == expect_torsion
            assert h.ranks[n] == (1 if n % 2 == 1 else 0)
            assert not h.torsion[n]
            h2 = homology(rp_complex(n), "mod2")
            assert all(h2.ranks[i] == 1 for i in range(n + 1))
        builtins = (
            [circle_complex(m) for m in range(1, 7)]
            + [rp_complex(n) for n in range(1, 9)]
            + [torus_complex(), grassmannian_complex(2, 4)]
        )
        for c in builtins:
            # built, so shapes and dd = 0 were checked; a copy with a row too many in d_1 is refused
            assert isinstance(c, WittenComplex) and WittenComplex(c.generators, c.boundaries) == c
            with pytest.raises(ComplexValidationError, match="boundary d_1 has shape"):
                WittenComplex(c.generators, {**c.boundaries, 1: c.boundary(1) + [[0] * c.rank(1)]})
            q = morse_inequalities(
                c.morse_polynomial(), homology(c).poincare_polynomial()
            )
            assert isinstance(q, IntPolynomial)
            assert all(x >= 0 for x in q.coeffs)


def test_criterion_9_cohomology_ring():
    with criterion(9, "ring table, LR vs Pieri for k(n-k) <= 9, Chern check, < 30 s"):
        t0 = time.monotonic()
        from morsegrass import chern_presentation_check
        from morsegrass.ring import _parts
        from test_ring import jacobi_trudi_product

        z24 = CohomologyClass.basis(sym((2, 4), 4))
        z14 = CohomologyClass.basis(sym((1, 4), 4))
        z23 = CohomologyClass.basis(sym((2, 3), 4))
        z13 = CohomologyClass.basis(sym((1, 3), 4))
        assert cup_product(z24, z24) == z23 + z14
        assert cup_product(z14, z24) == z13
        assert cup_product(z23, z24) == z13
        assert duality_pairing(sym((2, 4), 4), sym((1, 3), 4)) == 1
        assert duality_pairing(sym((1, 4), 4), sym((1, 4), 4)) == 1
        assert duality_pairing(sym((2, 3), 4), sym((2, 3), 4)) == 1
        assert duality_pairing(sym((1, 4), 4), sym((2, 3), 4)) == 0
        assert triple_product(sym((1, 4), 4), sym((2, 4), 4), sym((2, 4), 4)) == 1
        assert triple_product(sym((2, 3), 4), sym((2, 4), 4), sym((2, 4), 4)) == 1
        configs = [
            (k, n)
            for n in range(2, 11)
            for k in range(1, n)
            if k * (n - k) <= 9
        ]
        for k, n in configs:
            for u, v in itertools.product(enumerate_symbols(k, n), repeat=2):
                zu = CohomologyClass.basis(u)
                nu = [p for p in _parts(v) if p]
                want = cup_product(zu, CohomologyClass.basis(v))
                assert jacobi_trudi_product(zu, nu, k, n) == want
        for k, n in [(1, 2), (2, 4), (2, 5)]:
            assert chern_presentation_check(k, n)
        assert time.monotonic() - t0 < 30.0


def test_criterion_10_moduli_dimensions():
    with criterion(10, "moduli dimension formulas and Y-graph cup product"):
        from morsegrass import critical_index, degree

        dim_m = 8
        for l1, l2 in itertools.product(range(0, dim_m + 1, 2), repeat=2):
            ends = LabeledEnds((l1,), (l2,), dim_m)
            assert moduli_dimension(interval_graph(), ends) == l1 - l2
        for l1, l2, l3 in itertools.product(range(0, dim_m + 1, 2), repeat=3):
            ends = LabeledEnds((l1, l2), (l3,), dim_m)
            assert moduli_dimension(two_in_one_out_tree(), ends) == l1 + l2 - l3 - dim_m
        syms = enumerate_symbols(2, 4)
        for u, v, w in itertools.product(syms, repeat=3):
            labels = tuple(critical_index(s, "for_minus_f") for s in (u, v, w))
            dim = moduli_dimension(y_graph(3), LabeledEnds(labels, (), dim_m))
            admissible = sum(dim_m - l for l in labels) == dim_m
            assert (dim == 0) == admissible
            assert admissible == (degree(u) + degree(v) + degree(w) == dim_m)
            if admissible:
                assert cup_product_instance(u, v, w) == triple_product(u, v, w)
