import copy
import itertools
import pickle
import random
import time
from types import MappingProxyType

import pytest

import morsegrass.ring as ring_module
import morsegrass.symbols as symbols_module
from morsegrass.ring import (
    CohomologyClass,
    chern_presentation_check,
    cup_product,
    degree,
    duality_pairing,
    lr_coefficient,
    pieri_product,
    special_symbol,
    triple_product,
)
from morsegrass.symbols import (
    AmbientMismatchError,
    CapacityError,
    SchubertSymbol,
    complement,
    enumerate_symbols,
)


def sym(entries, n):
    return SchubertSymbol(tuple(entries), n)


def basis(entries, n):
    return CohomologyClass.basis(sym(entries, n))


def parts(u):
    """u's codimension partition, lambda_j = (n - k) + j - u_j."""
    return tuple(u.n - u.k + j - e for j, e in enumerate(u.entries, 1))


def lr_filler(lam, mu, nu):
    """c^lam_{mu, nu} by backtracking: the oracle of the ring's strip-growing engine.

    Counts skew semistandard fillings of lam/mu with content nu whose reverse
    reading word is a lattice word, filling cells row by row, right to left.
    """
    lam = tuple(lam)
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    if sum(lam) != sum(mu) + sum(nu) or any(l < m for l, m in zip(lam, mu)):
        return 0
    nu = tuple(nu)
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r] - 1, mu[r] - 1, -1)]
    filling = {}
    placed = [0] * len(nu)  # entries of each value placed so far
    count = 0

    def ok(r, c, val):
        right = filling.get((r, c + 1))  # rows weakly increase
        above = filling.get((r - 1, c))  # columns strictly increase
        return ((right is None or val <= right) and (above is None or val > above)
                and (val == 0 or placed[val] < placed[val - 1]) and placed[val] < nu[val])

    def rec(i):
        nonlocal count
        if i == len(cells):
            count += 1
            return
        r, c = cells[i]
        for val in range(len(nu)):
            if ok(r, c, val):
                filling[(r, c)] = val
                placed[val] += 1
                rec(i + 1)
                placed[val] -= 1
                del filling[(r, c)]

    rec(0)
    return count


def filler_product(u, v):
    """z_u z_v by the filler over every shape of the right weight in the box, in lexicographic symbol order."""
    k, n = u.ambient
    mu, nu = parts(u), parts(v)
    out = {}
    for w in enumerate_symbols(k, n):
        lam = parts(w)
        c = sum(lam) == sum(mu) + sum(nu) and lr_filler(lam, mu, nu)
        if c:
            out[w] = c
    return out


def per_pair_product(z1, z2):
    """z1 z2 as the ring once summed it, the oracle of the partition-dict product: one engine run per pair of terms
    (z1's outer, z2's inner), its shapes turned into checked symbols in lexicographic order, accumulated per symbol;
    the nonzero coefficients, in order of first appearance."""
    k, n = z1.k, z1.n
    out = {}
    for u1, c1 in z1.coefficients.items():
        for u2, c2 in z2.coefficients.items():
            terms = ring_module._lr_terms(parts(u1), parts(u2), k, n - k)
            pair = {sym((n - k + j - p for j, p in enumerate(lam, 1)), n): c for lam, c in terms.items()}
            for u in sorted(pair, key=lambda u: u.entries):
                out[u] = out.get(u, 0) + c1 * c2 * pair[u]
    return {u: c for u, c in out.items() if c}


def random_class(rng, k, n, terms):
    syms = enumerate_symbols(k, n)
    return CohomologyClass(k, n, {rng.choice(syms): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(terms)})


class TestDegreeAndPartitions:
    def test_degrees_gr24(self):
        degs = {s.entries: degree(s) for s in enumerate_symbols(2, 4)}
        assert degs == {(3, 4): 0, (2, 4): 2, (1, 4): 4, (2, 3): 4, (1, 3): 6, (1, 2): 8}

    def test_partition_translation(self):
        assert ring_module._parts(sym((3, 4), 4)) == (0, 0)
        assert ring_module._parts(sym((2, 4), 4)) == (1, 0)
        assert ring_module._parts(sym((1, 2), 4)) == (2, 2)

    def test_partition_round_trip_and_degree(self):
        for k, n in [(2, 4), (2, 5), (3, 6)]:
            for u in enumerate_symbols(k, n):
                lam = ring_module._parts(u)
                assert lam == parts(u) and ring_module._entries(lam, n) == u.entries
                assert 2 * sum(lam) == degree(u)


class TestDuality:
    def test_paper_values(self):
        assert duality_pairing(sym((2, 4), 4), sym((1, 3), 4)) == 1
        assert duality_pairing(sym((1, 4), 4), sym((1, 4), 4)) == 1
        assert duality_pairing(sym((2, 3), 4), sym((2, 3), 4)) == 1
        assert duality_pairing(sym((1, 4), 4), sym((2, 3), 4)) == 0

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            duality_pairing(sym((2, 4), 4), sym((2, 4), 4))

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            duality_pairing(sym((2, 4), 4), sym((1, 3), 5))


class TestLRCoefficients:
    def test_pieri_shape(self):
        # multiplying by a single box
        assert lr_coefficient((2, 1), (1, 1), (1,)) == 1
        assert lr_coefficient((1, 1, 1), (1, 1), (1,)) == 1

    def test_classical_value(self):
        # s_{21} * s_{21} contains s_{321} with multiplicity 2
        assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2

    def test_zero_cases(self):
        assert lr_coefficient((1,), (1,), (1,)) == 0
        assert lr_coefficient((2,), (1, 1), (1,)) == 0

    def test_matches_the_filler_without_a_column_bound(self):
        # lam grows from mu by |nu| boxes at random corners, so about half the triples are nonzero;
        # lam[0] can pass any box, the case quantum products need
        rng = random.Random(21)
        nonzero = 0
        for _ in range(600):
            mu, nu = (sorted((rng.randint(0, 5) for _ in range(rng.randint(0, 4))), reverse=True) for _ in "mn")
            lam = mu + [0] * 4
            for _ in range(sum(nu)):
                r = rng.choice([r for r in range(len(lam)) if r == 0 or lam[r] < lam[r - 1]])
                lam[r] += 1
            lam = tuple(p for p in lam if p)
            want = lr_filler(lam, mu, nu)
            assert lr_coefficient(lam, mu, nu) == want, (lam, mu, nu)
            nonzero += want > 0
        assert nonzero > 200

    @pytest.mark.parametrize("box,mu", [(12, (6, 5, 4, 3, 2, 1)), (16, (8, 7, 6, 5, 4, 3, 2, 1))])
    def test_engine_priced_as_it_runs(self, box, mu):
        # the 12x12 box took 2.95 s and the 16x16 box ran for more than a minute
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=rf"built by the Littlewood-Richardson rule in a {box}x{box} box"):
            lr_coefficient((box,) * box, mu, mu)
        assert time.perf_counter() - start < 1.0

    def test_engine_answers_below_the_budget(self):
        # the same product with lam = mu + mu, a box of 6 rows: fewer strips, answered as before
        assert lr_coefficient((12, 10, 8, 6, 4, 2), (6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1)) == 1
        assert lr_coefficient((8,) * 8, (4, 3, 2, 1), (4, 3, 2, 1)) == 0

    @pytest.mark.parametrize("lam,mu,nu,want", [
        ((1,) * 10**4, (1,), (1,), 0),  # one box over 9999 empty rows
        ((1,) * 3001, (1,) * 3000, (1,), 1),  # 3000 full rows over the one with room
    ])
    def test_rows_without_room_build_no_prefix(self, monkeypatch, lam, mu, nu, want):
        # every row extended every prefix, so tall boxes cost the square of their rows: with 10**5 rows
        # the first took 35 s and was then refused at 199 999 prefixes; only rows with room build them now
        monkeypatch.setattr(ring_module, "MAX_SYMBOLS", 10)
        monkeypatch.setattr(symbols_module, "MAX_SYMBOLS", 10)
        assert lr_coefficient(lam, mu, nu) == want

    def test_tall_box_grows_its_conjugates(self):
        # every strip walked every row of the box: 0.92 s with 4000 rows and 4.4 s with 8000
        start = time.perf_counter()
        assert lr_coefficient((1,) * 8000, (1,) * 4000, (1,) * 4000) == 1
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("lam,mu,nu,what", [
        ((1,), (-1,), (2,), "mu"),  # counted as 1 by the filler
        ((2, 1), (1,), (-1, -1), "nu"),
        ((1, 2), (1,), (2,), "lam"),
        ((2, 1), (1, 2), (0,), "mu"),
    ])
    def test_parts_must_form_a_partition(self, lam, mu, nu, what):
        with pytest.raises(ValueError, match=rf"^{what} = .* is not a partition"):
            lr_coefficient(lam, mu, nu)


def box_shapes(rows, cols):
    """Every partition of at most rows parts, each at most cols, as a tuple of rows parts."""
    return [tuple(cols - c + j for j, c in enumerate(top)) for top in itertools.combinations(range(rows + cols), rows)]


class TestEngine:
    CASES = [((), (), 0, 0), ((), (), 2, 3), ((0, 0), (0,), 2, 2), ((2, 1), (), 2, 3), ((), (1, 0, 0), 2, 2),
             ((3, 0), (1,), 2, 2), ((1,), (3,), 2, 2), ((1, 1, 1), (1,), 2, 4), ((1,), (1, 1, 1), 2, 4),
             ((2, 1, 0), (2, 1), 3, 3), ((1, 0), (2, 2, 1), 3, 3)]

    @staticmethod
    def seeded_cases():
        rng = random.Random(22)
        for _ in range(400):
            rows, cols = rng.randint(0, 4), rng.randint(0, 5)
            mu, nu = (tuple(sorted((rng.randint(0, cols + 1) for _ in range(rng.randint(0, rows + 1))), reverse=True))
                      for _ in "mn")
            yield mu, nu, rows, cols
        for _ in range(200):  # boxes up to 9 x 5 with more rows than columns, grown on the conjugates
            cols = rng.randint(1, 5)
            rows = rng.randint(cols + 1, 9)
            mu, nu = (tuple(sorted((rng.randint(0, cols) for _ in range(rng.randint(0, rows))), reverse=True))
                      for _ in "mn")
            yield mu, nu, rows, cols

    def test_symmetric_and_matches_the_filler(self):
        # the engine grows the larger operand by strips of the smaller; either order, zero parts, empty
        # partitions and operands outside the rows x cols box give the filler's terms over every shape in it
        seen = {"zero part": 0, "outside": 0, "nonzero": 0, "mu larger": 0, "nu larger": 0, "tall nonzero": 0}
        for mu, nu, rows, cols in [*self.CASES, *self.seeded_cases()]:
            want = {lam: c for lam in box_shapes(rows, cols) if (c := lr_filler(lam, mu, nu))}
            got = ring_module._lr_terms(mu, nu, rows, cols)
            assert got == want == ring_module._lr_terms(nu, mu, rows, cols), (mu, nu, rows, cols)
            seen["zero part"] += 0 in mu + nu
            seen["outside"] += any(len([p for p in x if p]) > rows or x and x[0] > cols for x in (mu, nu))
            seen["nonzero"] += bool(want)
            seen["tall nonzero"] += rows > cols and bool(want)
            seen["mu larger" if sum(mu) > sum(nu) else "nu larger"] += sum(mu) != sum(nu)
        assert min(seen.values()) > 50, seen


class TestCupProduct:
    @pytest.mark.parametrize("k,n,stride", [(1, 3, 1), (2, 4, 1), (2, 5, 1), (3, 5, 1), (2, 6, 1), (3, 6, 1),
                                            (4, 6, 1), (2, 7, 1), (3, 7, 1), (4, 7, 1), (4, 8, 7)])
    def test_matches_the_filler(self, k, n, stride):
        # every ordered pair through Gr(3,7), and every 7th of Gr(4,8); keys in the filler's order too,
        # as to_json writes them
        pairs = list(itertools.product(enumerate_symbols(k, n), repeat=2))[::stride]
        for u, v in pairs:
            want = filler_product(u, v)
            got = cup_product(CohomologyClass.basis(u), CohomologyClass.basis(v))
            assert list(got.coefficients.items()) == list(want.items()), (u, v)
            mu, nu = parts(u), parts(v)
            assert all(lr_coefficient(parts(w), mu, nu) == c for w, c in want.items())

    @pytest.mark.parametrize("k,n", [(0, 0), (0, 5), (5, 5), (1, 4), (2, 5), (3, 6), (4, 7), (6, 8), (2, 8),
                                     (4, 8), (3, 9), (5, 10)])
    def test_matches_the_per_pair_oracle(self, k, n):
        # random mixed-sign classes of up to four terms, and (z_a + z_b)(z_b - z_a), whose z_a z_b terms come
        # first and cancel: equal in value and in the order of the coefficients
        rng = random.Random(k * 100 + n)
        cases = [(random_class(rng, k, n, rng.randint(1, 4)), random_class(rng, k, n, rng.randint(1, 4)))
                 for _ in range(6)]
        syms = enumerate_symbols(k, n)
        a, b = (CohomologyClass.basis(u) for u in (rng.sample(syms, 2) if len(syms) > 1 else syms * 2))
        cases.append((a + b, b - a))
        for z1, z2 in cases:
            got = cup_product(z1, z2)
            assert list(got.coefficients.items()) == list(per_pair_product(z1, z2).items()), (z1, z2)
        assert cup_product(a + b, b - a) == cup_product(b, b) - cup_product(a, a)

    def test_builds_one_symbol_per_output_term(self, monkeypatch):
        # the product derives one symbol per term it returns and one class, none through a checking constructor
        rng = random.Random(5)
        cases = [(random_class(rng, 3, 7, 4), random_class(rng, 3, 7, 3)) for _ in range(5)]
        a, b = basis((2, 5, 7), 7), basis((3, 6, 7), 7)
        cases.append((a + b, b - a))
        counts = {}
        for cls in (CohomologyClass, SchubertSymbol):
            of = cls._of
            monkeypatch.setattr(cls, "__init__", lambda self, *a: pytest.fail("checking constructor"))
            monkeypatch.setattr(cls, "_of", classmethod(
                lambda c, *v, of=of: counts.__setitem__(c, counts.get(c, 0) + 1) or of(*v)))
        for z1, z2 in cases:
            counts.clear()
            out = cup_product(z1, z2)
            assert counts == {SchubertSymbol: len(out.coefficients), CohomologyClass: 1}, (z1, z2)

    @pytest.mark.parametrize("first", [True, False], ids=["left", "right"])
    @pytest.mark.parametrize("other", [1, None, "(2,4)", SchubertSymbol((2, 4), 4)],
                             ids=lambda x: type(x).__name__)
    def test_operands_judged_alike(self, other, first):
        # a non-class on the left used to escape as AttributeError: 'int' object has no attribute '_check'
        z = basis((2, 4), 4)
        with pytest.raises(ValueError, match=rf"^expected a CohomologyClass, got {type(other).__name__}$"):
            cup_product(*((other, z) if first else (z, other)))

    def test_no_shape_is_searched(self, monkeypatch):
        # the product grows strips onto one partition: no symbol list, no coefficient per candidate shape
        monkeypatch.setattr(ring_module, "enumerate_symbols", lambda *a: pytest.fail("symbols enumerated"))
        monkeypatch.setattr(ring_module, "lr_coefficient", lambda *a: pytest.fail("candidate shape tested"))
        z = cup_product(basis((2, 4, 6, 8), 8), basis((1, 4, 6, 8), 8))
        assert list(z.to_json().items()) == [("(1,2,3,7)", 1), ("(1,2,4,6)", 2), ("(1,3,4,5)", 1)]

    def test_example_table(self):
        z24 = basis((2, 4), 4)
        assert cup_product(z24, z24) == basis((2, 3), 4) + basis((1, 4), 4)
        assert cup_product(basis((1, 4), 4), z24) == basis((1, 3), 4)
        assert cup_product(basis((2, 3), 4), z24) == basis((1, 3), 4)

    def test_unit(self):
        unit = CohomologyClass.unit(2, 4)
        for u in enumerate_symbols(2, 4):
            assert cup_product(unit, basis(u.entries, 4)) == basis(u.entries, 4)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            cup_product(basis((2, 4), 4), basis((2, 4), 5))
        with pytest.raises(AmbientMismatchError):
            basis((2, 4), 4) + basis((2, 4), 5)
        with pytest.raises(AmbientMismatchError, match=r"different Grassmannians: \(2, 4\) vs \(2, 5\)"):
            CohomologyClass(2, 4, {sym((2, 4), 5): 1})

    @pytest.mark.parametrize("keys,name", [([(1, 3)], "tuple"), (["x"], "str"), ([(2, 4), "x"], "tuple"),
                                           ([SchubertSymbol((2, 4), 4), None], "NoneType")])
    def test_keys_must_be_symbols(self, keys, name):
        # a tuple or a string key used to escape as AttributeError: 'tuple' object has no attribute 'ambient'
        with pytest.raises(ValueError, match=rf"^a key of type {name} is not a SchubertSymbol$"):
            CohomologyClass(2, 4, dict.fromkeys(keys, 1))

    def test_impossible_grassmannian_refused(self):
        with pytest.raises(ValueError, match=r"need 0 <= k <= n, got k=5, n=3"):
            CohomologyClass.zero(5, 3)
        with pytest.raises(ValueError, match=r"need 0 <= k <= n, got k=-1, n=2"):
            CohomologyClass(-1, 2)

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
    def test_commutative(self, k, n):
        syms = enumerate_symbols(k, n)
        for u, v in itertools.combinations(syms, 2):
            a = CohomologyClass.basis(u)
            b = CohomologyClass.basis(v)
            assert cup_product(a, b) == cup_product(b, a)

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5)])
    def test_associative(self, k, n):
        syms = enumerate_symbols(k, n)
        for u, v, w in itertools.combinations_with_replacement(syms, 3):
            a, b, c = (CohomologyClass.basis(s) for s in (u, v, w))
            lhs = cup_product(cup_product(a, b), c)
            rhs = cup_product(a, cup_product(b, c))
            assert lhs == rhs

    def test_associative_gr36_sample(self):
        syms = enumerate_symbols(3, 6)[::4]
        for u, v, w in itertools.combinations(syms, 3):
            a, b, c = (CohomologyClass.basis(s) for s in (u, v, w))
            assert cup_product(cup_product(a, b), c) == cup_product(a, cup_product(b, c))

    def test_degree_additive_and_positive(self):
        for k, n in [(2, 4), (2, 5)]:
            for u, v in itertools.product(enumerate_symbols(k, n), repeat=2):
                prod = cup_product(CohomologyClass.basis(u), CohomologyClass.basis(v))
                assert all(c > 0 for c in prod.coefficients.values())
                d = prod.homogeneous_degree()
                if d is not None:
                    assert d == degree(u) + degree(v)
                else:
                    assert prod.is_zero()

    def test_top_degree_reduces_to_duality(self):
        for u in enumerate_symbols(2, 4):
            for v in enumerate_symbols(2, 4):
                if degree(u) + degree(v) != 8:
                    continue
                prod = cup_product(CohomologyClass.basis(u), CohomologyClass.basis(v))
                top = SchubertSymbol((1, 2), 4)
                assert prod.coefficient(top) == duality_pairing(u, v)

    def test_products_build_one_class(self, monkeypatch):
        # sums of mixed signs, whose terms cancel, against the per-term sum the products once
        # made (out = out + ..., a class per term); each product now builds one class
        syms = enumerate_symbols(2, 5)
        a = CohomologyClass(2, 5, {u: (-1) ** j * (j % 3 + 1) for j, u in enumerate(syms[::2])})
        b = CohomologyClass(2, 5, {u: 2 - j for j, u in enumerate(syms[1::3])})
        want = CohomologyClass.zero(2, 5)
        for u, c in a.coefficients.items():
            for v, d in b.coefficients.items():
                want = want + cup_product(basis(u.entries, 5), basis(v.entries, 5)).scale(c * d)
        pieri_want = [sum((pieri_product(basis(u.entries, 5), i).scale(c) for u, c in a.coefficients.items()),
                          CohomologyClass.zero(2, 5)) for i in (1, 2)]
        built = []  # classes built through the checking __init__ or, for derived ones, through _of
        init, of = CohomologyClass.__init__, CohomologyClass._of
        monkeypatch.setattr(CohomologyClass, "__init__", lambda self, *args: built.append(1) or init(self, *args))
        monkeypatch.setattr(CohomologyClass, "_of", classmethod(lambda cls, *values: built.append(1) or of(*values)))
        assert cup_product(a, b) == want and len(built) == 1
        assert cup_product(a, a - a).is_zero()
        built.clear()
        assert [pieri_product(a, i) for i in (1, 2)] == pieri_want and len(built) == 2
        # a product of basis classes derives its symbols and its class from checked ones: no constructor re-checks
        x, y = basis((2, 4), 5), basis((3, 5), 5)
        monkeypatch.setattr(SchubertSymbol, "__init__", lambda self, *args: pytest.fail("symbol re-checked"))
        monkeypatch.setattr(CohomologyClass, "__init__", lambda self, *args: pytest.fail("class re-checked"))
        assert cup_product(x, y).to_json() == {"(1,4)": 1, "(2,3)": 1}


def assert_checked_form(z):
    """z is a class the checking constructor would build from z's own terms, in the same order: symbols of z's
    Grassmannian as keys, nonzero ints as values, a read-only mapping, and pickle and copy round-trip."""
    again = CohomologyClass(z.k, z.n, dict(z.coefficients))
    assert again == z and list(again.coefficients.items()) == list(z.coefficients.items())
    assert type(z.coefficients) is MappingProxyType
    for u, c in z.coefficients.items():
        assert type(u) is SchubertSymbol and type(u.entries) is tuple and u.ambient == (z.k, z.n)
        assert {int} == set(map(type, u.entries)) and 1 <= u.entries[0] and u.entries[-1] <= z.n
        assert all(a < b for a, b in zip(u.entries, u.entries[1:]))
        assert type(c) is int and c != 0
    with pytest.raises(TypeError):
        z.coefficients[SchubertSymbol(tuple(range(1, z.k + 1)), z.n)] = 1
    for twin in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z)):
        assert twin == z and list(twin.coefficients.items()) == list(z.coefficients.items())


class TestDerivedClasses:
    """Sums, multiples and products are built unchecked; each must be what the checking constructor builds."""

    @staticmethod
    def pairs():
        for k, n in [(2, 5), (2, 6), (3, 6)]:
            yield from itertools.product(enumerate_symbols(k, n), repeat=2)
        rng = random.Random(29)
        for k, n in [(4, 9), (5, 10)]:
            syms = enumerate_symbols(k, n)
            yield from ((rng.choice(syms), rng.choice(syms)) for _ in range(200))

    def test_products_sums_and_multiples(self):
        prev = None
        for u, v in self.pairs():
            z = cup_product(CohomologyClass.basis(u), CohomologyClass.basis(v))
            assert_checked_form(z)
            if prev is not None and prev.k == z.k and prev.n == z.n:
                for w in (z + prev, z - prev, z + prev.scale(-2), cup_product(z + prev, z - prev.scale(3))):
                    assert_checked_form(w)
            prev = z

    def test_zero_results_are_empty(self):
        a = basis((2, 4), 5) + basis((1, 5), 5).scale(-3) + basis((3, 5), 5)
        point, top = basis((1, 2), 5), basis((4, 5), 5)
        for z in (a - a, a.scale(0), cup_product(point, a), cup_product(a - a, a), a + a.scale(-1)):
            assert z.coefficients == {} and z == CohomologyClass.zero(2, 5)
            assert_checked_form(z)
        assert cup_product(top, a) == a and list(cup_product(a, top).coefficients) == list(a.coefficients)
        assert_checked_form(cup_product(a, a))


class TestTripleProduct:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_complement_route(self, n):
        # every top-degree triple through Gr(3, 7): w^c's partition read from w's against the symbol complement(w)
        for k in range(min(n, 3) + 1):
            by_weight = {}
            for w in enumerate_symbols(k, n):
                by_weight.setdefault(sum(parts(w)), []).append(w)
            for u, v in itertools.product(enumerate_symbols(k, n), repeat=2):
                rest = k * (n - k) - sum(parts(u)) - sum(parts(v))
                for w in by_weight.get(rest, ()):
                    want = lr_coefficient(parts(complement(w)), parts(u), parts(v))
                    assert triple_product(u, v, w) == want, (u, v, w)

    def test_paper_values(self):
        assert triple_product(sym((1, 4), 4), sym((2, 4), 4), sym((2, 4), 4)) == 1
        assert triple_product(sym((2, 3), 4), sym((2, 4), 4), sym((2, 4), 4)) == 1

    def test_unit_reduces_to_duality(self):
        top = sym((3, 4), 4)
        for u in enumerate_symbols(2, 4):
            assert triple_product(top, u, complement(u)) == 1

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            triple_product(sym((2, 4), 4), sym((2, 4), 4), sym((2, 4), 4))

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            triple_product(sym((2, 4), 4), sym((2, 4), 4), sym((2, 4), 5))

    def test_fixture_intersection_point(self):
        # regression fixtures mirroring the explicit flag computation: the
        # three perturbed Schubert varieties meet exactly in V_3 + V_4, with
        # multiplicity one, for both degree-4 companions of z24^2
        assert triple_product(sym((1, 4), 4), sym((2, 4), 4), sym((2, 4), 4)) == 1
        assert triple_product(sym((2, 3), 4), sym((2, 4), 4), sym((2, 4), 4)) == 1
        # and the cross terms pair to zero
        assert cup_product(basis((1, 4), 4), basis((2, 3), 4)).is_zero()


class TestPieri:
    def test_special_symbols(self):
        assert special_symbol(2, 4, 1).entries == (2, 4)
        assert special_symbol(2, 4, 2).entries == (1, 2) or special_symbol(2, 4, 2).entries == (2, 3)

    def test_special_class_squared(self):
        z = basis(special_symbol(2, 4, 1).entries, 4)
        assert pieri_product(z, 1) == basis((2, 3), 4) + basis((1, 4), 4)

    def test_on_unit(self):
        for i in (1, 2):
            out = pieri_product(CohomologyClass.unit(2, 4), i)
            assert out == CohomologyClass.basis(special_symbol(2, 4, i))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pieri_product(CohomologyClass.unit(2, 4), 3)

    def test_priced_on_its_row_sets(self):
        # one term of Gr(20,21) walked all C(20,10) row sets (0.42 s); i = 6, C(20,6) = 38 760 row sets, answers
        z = CohomologyClass.basis(SchubertSymbol(tuple(range(2, 22)), 21))
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"Pieri row sets, C\(20,10\) per term of 1: 184756"):
            pieri_product(z, 10)
        assert time.perf_counter() - start < 1.0
        assert pieri_product(z, 6) == cup_product(z, CohomologyClass.basis(special_symbol(20, 21, 6)))

    @pytest.mark.parametrize("k,i", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_no_special_classes_on_a_point(self, k, i):
        # Gr(2,2) used to blame "entries (0, 2) out of range 1..2", a symbol the caller never gave
        with pytest.raises(ValueError, match=rf"Gr\({k},{k}\) is a point and has no special classes: need k < n"):
            special_symbol(k, k, i)

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (2, 5), (3, 6), (3, 5)])
    def test_agrees_with_lr_engine(self, k, n):
        for u in enumerate_symbols(k, n):
            z = CohomologyClass.basis(u)
            for i in range(1, k + 1):
                want = cup_product(z, CohomologyClass.basis(special_symbol(k, n, i)))
                assert pieri_product(z, i) == want


def jacobi_trudi_product(z, nu_parts, k, n):
    """Multiply z by s_nu using only Pieri steps: dual Jacobi-Trudi expansion
    s_nu = det(e_{nu'_i - i + j}), an oracle independent of the LR engine.

    The determinant is expanded row by row over column subsets (the Pieri
    multiplications commute, so the order inside a term does not matter);
    a plain sum over permutations blows up for single-column shapes.
    """
    conj = [sum(1 for p in nu_parts if p >= c) for c in range(1, max(nu_parts or [0]) + 1)]
    m = len(conj)
    if m == 0:
        return z
    memo = {}

    def expand(i, used):
        # sum over assignments of columns (not in used) to rows i..m-1
        if i == m:
            return z
        key = (i, used)
        if key in memo:
            return memo[key]
        total = CohomologyClass.zero(k, n)
        pos = 0  # parity from the position of the chosen column among the free ones
        for j in range(m):
            if used & (1 << j):
                continue
            e_idx = conj[i] - (i + 1) + (j + 1)
            if 0 <= e_idx <= k:
                rest = expand(i + 1, used | (1 << j))
                term = rest if e_idx == 0 else pieri_product(rest, e_idx)
                total = total + term.scale(1 if pos % 2 == 0 else -1)
            pos += 1
        memo[key] = total
        return total

    return expand(0, 0)


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (1, 5), (3, 6)])
def test_pieri_chains_reproduce_cup_product(k, n):
    for u, v in itertools.product(enumerate_symbols(k, n), repeat=2):
        zu = CohomologyClass.basis(u)
        nu = parts(v)
        want = cup_product(zu, CohomologyClass.basis(v))
        assert jacobi_trudi_product(zu, [p for p in nu if p], k, n) == want


class TestChernPresentation:
    def test_small_cases(self):
        assert chern_presentation_check(1, 2)
        assert chern_presentation_check(2, 4)
        assert chern_presentation_check(2, 5)

    def test_more_cases(self):
        assert chern_presentation_check(1, 5)
        assert chern_presentation_check(3, 6)

    def test_capacity(self, monkeypatch):
        # priced by the one budget: Gr(4, 8) answers, Gr(7, 14) is refused before any engine run
        assert chern_presentation_check(4, 8)
        monkeypatch.setattr(ring_module, "_lr_terms", lambda *args: pytest.fail("engine run"))
        with pytest.raises(CapacityError, match=r"product terms for the Chern check of Gr\(7,14\), 49\*3432"):
            chern_presentation_check(7, 14)

    def test_every_grassmannian_through_n_8_builds_no_class(self, monkeypatch):
        # the check works on partition dicts: neither the checking constructors nor _of build a class or a symbol
        built = []
        for cls in (CohomologyClass, SchubertSymbol):
            init, of = cls.__init__, cls._of
            monkeypatch.setattr(cls, "__init__", lambda self, *a, init=init: built.append(a) or init(self, *a))
            monkeypatch.setattr(cls, "_of", classmethod(lambda c, *v, of=of: built.append(v) or of(*v)))
        for n in range(9):
            for k in range(n + 1):
                assert chern_presentation_check(k, n)
                assert built == [], (k, n)

    def test_one_basis_product_per_pair(self, monkeypatch):
        # each c_i is one Schubert class up to sign, so c_i d_j is one engine run
        calls = []
        engine = ring_module._lr_terms
        monkeypatch.setattr(ring_module, "_lr_terms", lambda *args: calls.append(1) or engine(*args))
        for n in range(1, 9):
            for k in range(n + 1):
                calls.clear()
                assert chern_presentation_check(k, n)
                assert len(calls) == k * (n - k), (k, n)

    def test_detects_a_wrong_product(self, monkeypatch):
        # with every product zero, degree n-k+1 <= k keeps d_{n-k+1} and cannot close
        monkeypatch.setattr(ring_module, "_lr_terms", lambda *args: {})
        assert not chern_presentation_check(2, 3)
        assert not chern_presentation_check(3, 5)

    def test_detects_coefficients_off_by_one(self, monkeypatch):
        # an engine that adds 1 to every coefficient it returns
        engine = ring_module._lr_terms
        monkeypatch.setattr(ring_module, "_lr_terms", lambda *args: {lam: c + 1 for lam, c in engine(*args).items()})
        for n in range(3, 9):
            for k in range(2, n):
                assert not chern_presentation_check(k, n), (k, n)


def test_class_serialization():
    z = basis((2, 3), 4) + basis((1, 4), 4)
    assert z.to_json() == {"(1,4)": 1, "(2,3)": 1}
    assert str(z) == "z(1,4) + z(2,3)"
