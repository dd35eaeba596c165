"""Refusal branches that the module tests do not reach: each input here must raise, with its own message."""

import json
import time

import pytest

from morsegrass import polynomials, witten
from morsegrass.cli import EXIT_CONSISTENCY, main
from morsegrass.flows import GrassmannPoint, limit_symbol, random_point
from morsegrass.polynomials import IntPolynomial, mb_polynomial
from morsegrass.ring import CohomologyClass, special_symbol
from morsegrass.symbols import CapacityError, GeneralizedSchubertSymbol, SchubertSymbol, critical_index


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_cli_exit_3_when_the_poincare_routes_disagree(capsys, monkeypatch, flags):
    # the only documented exit code that no other test reaches: one route made to answer wrong
    monkeypatch.setattr(polynomials, "poincare_recurrence", lambda k, n: IntPolynomial([1, 1]))
    assert main([*flags, "poincare", "2", "4"]) == EXIT_CONSISTENCY
    message = ("the three Poincare polynomial routes disagree: "
               "cells: 1 + t^2 + 2t^4 + t^6 + t^8; recurrence: 1 + t; closed: 1 + t^2 + 2t^4 + t^6 + t^8")
    out, err = capsys.readouterr()
    if flags:
        document = {"status": "error", "code": "consistency", "diagnostics": message}
        assert (out, err) == (json.dumps(document, indent=2) + "\n", "")
    else:
        assert (out, err) == ("", f"error (consistency): {message}\n")


def test_limit_symbol_refusals():
    V = GrassmannPoint([[1, 0], [1, 1], [0, 1], [1, 2]])
    with pytest.raises(ValueError, match="direction must be 'down' or 'up', got 'left'"):
        limit_symbol(V, "left")
    with pytest.raises(ValueError, match="could not locate pivots for every column"):
        limit_symbol(V, tol=100)  # every candidate pivot counts as noise


def test_critical_index_sign():
    with pytest.raises(ValueError, match="sign must be 'for_f' or 'for_minus_f', got 'up'"):
        critical_index(SchubertSymbol((1, 3), 4), "up")


@pytest.mark.parametrize("counts,blocks,message", [
    ((1,), (2, 1), "counts and blocks must have equal length"),
    ((3, 0), (2, 1), r"counts \(3, 0\) out of range for blocks \(2, 1\)"),
    ((-1, 1), (2, 1), r"counts \(-1, 1\) out of range"),
])
def test_generalized_symbol_length_and_range(counts, blocks, message):
    with pytest.raises(ValueError, match=message):
        GeneralizedSchubertSymbol(counts, blocks)


def test_homology_mode_and_rp_size():
    with pytest.raises(ValueError, match="mode must be 'integers' or 'mod2', got 'rationals'"):
        witten.homology(witten.torus_complex(), "rationals")
    with pytest.raises(ValueError, match="^a dimension n must be at least 1, got 0$"):
        witten.rp_complex(0)


@pytest.mark.parametrize("text,message", [
    ("degrees: 0 1\ngens 0: a b\ngens 1: c\nd 1:\n1\n", "line 5: boundary d 1: expected 2 rows"),
    ("degrees: 0 1\ngens 0: a\ngens 1: c\nd 1:\n1.5\n", "line 5: boundary rows must be integers"),
])
def test_load_complex_boundary_rows(text, message):
    with pytest.raises(witten.ComplexValidationError, match=f"^{message}$"):
        witten.load_complex(text)


@pytest.mark.parametrize("k,n,message", [
    (-1, 2, "need 0 <= k <= n, got k=-1, n=2"),
    (2, -1, "need 0 <= k <= n, got k=2, n=-1"),
    (3, 2, "need 0 <= k <= n, got k=3, n=2"),
])
def test_gaussian_generating_box_refused(k, n, message):
    # a box of k parts, each at most n - k: no negative count and no negative bound
    with pytest.raises(ValueError, match=f"^{message}$"):
        polynomials.gaussian_generating(k, n)


@pytest.mark.parametrize("build,message", [
    (lambda: CohomologyClass.unit(2 * 10**6, 4 * 10**6),
     r"^a Schubert symbol of Gr\(2000000,4000000\) with its entries, 1\+2000000//16: 125001 exceeds"),
    (lambda: special_symbol(2 * 10**6, 4 * 10**6, 1),
     r"^a Schubert symbol of Gr\(2000000,4000000\) with its entries, 1\+2000000//16: 125001 exceeds"),
    (lambda: random_point(1600, 3200, 1), r"^Gaussian frame entries of Gr\(1600,3200\), 3200\*1600: 5120000 exceeds"),
], ids=["unit", "special_symbol", "random_point"])
def test_built_from_k_and_n_priced_first(build, message):
    # each was unpriced: unit(10**6, 2 * 10**6) took 0.115 s, special_symbol the same 0.034 s, and
    # random_point(1600, 3200) 3.0 s, its rank SVD growing as n * k**2
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=message):
        build()
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("i", [0, 3])
def test_special_symbol_index_range(i):
    with pytest.raises(ValueError, match=f"^a special class index i must be from 1 to 2, got {i}$"):
        special_symbol(2, 4, i)


def test_mb_polynomial_of_no_manifold_is_zero():
    assert mb_polynomial([]) is IntPolynomial.zero
