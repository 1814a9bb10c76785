"""Ring arithmetic, canonical reduction, the cosine-basis oracle and ranks."""

import cmath
import doctest
import importlib
import math
import pkgutil
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import circhad
from circhad import cyclotomic
from circhad.cyclotomic import (
    CycloElement,
    RealBasisVector,
    _integer_rank,
    cyclotomic_polynomial,
    from_integer,
    real_basis_rank,
)
from oracles import reduce_to_real_basis, root_power, to_cyclo_element

orders = st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9, 12, 16))
quad_orders = st.sampled_from((4, 8, 12, 16, 20, 24, 36))


def elements(n, lo=-9, hi=9):
    return st.tuples(*([st.integers(lo, hi)] * n)).map(lambda c: CycloElement(n, c))


def approx_complex(a: CycloElement) -> complex:
    w = cmath.exp(2j * cmath.pi / a.n)
    return sum(c * w**e for e, c in enumerate(a.coeffs))


# ---------------------------------------------------------------------------
# construction, conjugation, basic identities

def test_root_power_examples():
    assert root_power(4, 0) == from_integer(4, 1)
    assert root_power(4, 6) == root_power(4, 2)
    assert (root_power(16, 8) + root_power(16, 0)).is_zero()  # half turn is -1


def test_ring_examples():
    assert (root_power(4, 1) * root_power(4, 3) - from_integer(4, 1)).is_zero()
    assert root_power(16, 3).power_map(-1) == root_power(16, 13)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        root_power(4, 1) + root_power(8, 1)
    with pytest.raises(ValueError):
        root_power(4, 1) * root_power(8, 1)


@given(st.sampled_from((2, 4, 6, 8, 10, 12, 16)), st.integers(0, 30))
def test_half_turn_cancellation(n, j):
    assert (root_power(n, j) + root_power(n, j + n // 2)).is_zero()


@given(st.integers(2, 30))
def test_full_root_sum_vanishes(n):
    total = from_integer(n, 0)
    for e in range(n):
        total = total + root_power(n, e)
    assert total.is_zero()


def test_is_zero_examples():
    assert (root_power(4, 0) + root_power(4, 2)).is_zero()
    assert not (root_power(16, 0) + root_power(16, 1)).is_zero()


# ---------------------------------------------------------------------------
# ring laws under canonical equality

@given(orders.flatmap(lambda n: st.tuples(elements(n), elements(n), elements(n))))
@settings(max_examples=60)
def test_ring_laws(triple):
    a, b, c = triple
    assert (a + b - (b + a)).is_zero()
    assert (a * b - b * a).is_zero()
    assert ((a + b) + c - (a + (b + c))).is_zero()
    assert ((a * b) * c - a * (b * c)).is_zero()
    assert (a * (b + c) - (a * b + a * c)).is_zero()


@given(orders.flatmap(lambda n: st.tuples(elements(n), elements(n))))
@settings(max_examples=60)
def test_conjugation_is_a_ring_map(pair):
    a, b = pair
    assert ((a + b).power_map(-1) - (a.power_map(-1) + b.power_map(-1))).is_zero()
    assert ((a * b).power_map(-1) - a.power_map(-1) * b.power_map(-1)).is_zero()
    assert a.power_map(-1).power_map(-1) == a


@given(orders.flatmap(elements))
def test_conjugate_sends_each_root_power_to_its_negative(a):
    n = a.n
    expected = [0] * n
    for e, c in enumerate(a.coeffs):
        expected[-e % n] += c
    assert a.power_map(-1) == CycloElement(n, tuple(expected))


# ---------------------------------------------------------------------------
# power maps and one zero test per divisor

def subgroup_sum(n, m):
    """Sum of the m-th roots of unity inside order n; power map k kills it iff m does not divide k."""
    total = from_integer(n, 0)
    for j in range(m):
        total = total + root_power(n, j * (n // m))
    return total


def sometimes_vanishing(n):
    # A random element times a subgroup sum: zero under some power maps, not others.
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    return st.tuples(elements(n, -3, 3), st.sampled_from(divisors)).map(
        lambda pair: pair[0] * subgroup_sum(n, pair[1])
    )


def power_map_cases(n):
    return st.tuples(st.one_of(elements(n), sometimes_vanishing(n)), st.integers(-40, 40))


@given(orders.flatmap(lambda n: st.tuples(elements(n), elements(n), st.integers(-40, 40))))
@settings(max_examples=60)
def test_power_map_is_a_ring_map(case):
    a, b, k = case
    assert (a * b).power_map(k) == a.power_map(k) * b.power_map(k)
    assert (a + b).power_map(k) == a.power_map(k) + b.power_map(k)
    assert (-a).power_map(k) == -a.power_map(k) == (a * -1).power_map(k)


@given(orders.flatmap(power_map_cases))
@settings(max_examples=120)
def test_power_map_zero_test_depends_only_on_the_gcd(case):
    a, k = case
    assert a.power_map(k).is_zero() == a.power_map(math.gcd(k, a.n)).is_zero()


def test_power_map_examples():
    assert root_power(12, 5).power_map(7) == root_power(12, 35)
    assert root_power(12, 5).power_map(-1) == root_power(12, 7)
    assert (root_power(16, 3) * 2).power_map(0) == from_integer(16, 2)
    a = subgroup_sum(12, 3)
    assert [a.fold(12 // math.gcd(k, 12)).is_zero() for k in range(12)] == [k % 3 != 0 for k in range(12)]


@given(orders.flatmap(elements))
def test_fold_is_the_power_map_read_in_the_subfield(a):
    # power_map(g) puts coefficient e at g*(e mod n/g): only multiples of g are hit.
    n = a.n
    for g in (d for d in range(1, n + 1) if n % d == 0):
        image = a.power_map(g).coeffs
        assert a.fold(n // g).coeffs == image[::g]
        assert not any(c for e, c in enumerate(image) if e % g)


def test_fold_needs_a_divisor_of_the_order():
    for m in (0, -3, 5, 24):
        with pytest.raises(ValueError):
            root_power(12, 1).fold(m)


def stretched(n, poly, g):
    """The polynomial poly(x^g) as an order-n element (x^n = 1)."""
    coeffs = [0] * n
    for e, c in enumerate(poly):
        coeffs[e * g % n] += c
    return CycloElement(n, tuple(coeffs))


def constructed_zeros(n, rng):
    """Elements that vanish under the power maps of chosen divisor classes.

    A multiple of the cyclotomic polynomial of order n/g taken at x^g
    vanishes under power map k whenever k is prime to n/g; an integer
    combination of the cosets of the subgroup of order s vanishes under
    power map k whenever s does not divide k.
    """
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    g, s = rng.choice(divisors), rng.choice(divisors)
    multiplier = CycloElement(n, tuple(rng.randint(-2, 2) for _ in range(n)))
    yield multiplier * stretched(n, cyclotomic_polynomial(n // g), g)
    step = n // s
    weights = [rng.randint(-3, 3) for _ in range(step)]
    yield CycloElement(n, tuple(weights[e % step] for e in range(n)))


def test_fold_zero_test_on_constructed_zeros_at_every_order_up_to_150():
    # Random elements are almost never zero under any power map; these
    # are, and so is each with one coefficient changed, only elsewhere.
    vanishing = 0
    for n in range(1, 151):
        rng = random.Random(n)
        for a in constructed_zeros(n, rng):
            bumped = list(a.coeffs)
            bumped[rng.randrange(n)] += rng.choice((-1, 1))
            for b in (a, CycloElement(n, tuple(bumped))):
                expected = [b.power_map(k).is_zero() for k in range(n)]
                assert [b.fold(n // math.gcd(k, n)).is_zero() for k in range(n)] == expected, (n, b)
                vanishing += sum(expected)
    assert vanishing > 10_000


# ---------------------------------------------------------------------------
# cyclotomic polynomials

def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(16) == (1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert cyclotomic_polynomial(36) == (1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1)


def test_cyclotomic_polynomial_against_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 61):
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs], n


def test_cyclotomic_degree_is_totient():
    for n in range(1, 200):
        assert len(cyclotomic_polynomial(n)) - 1 == int(sympy.totient(n)), n


def test_product_over_divisors_recovers_power_minus_one():
    # multiplying the cyclotomic polynomials of all divisors of n gives x^n - 1
    for n in (1, 2, 6, 12, 16, 36):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi_d = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi_d) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi_d):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_residue_matches_numeric_evaluation():
    # the canonical residue and the original element evaluate to the same
    # complex number (approximate diagnostic, exact arithmetic inside)
    for n in (4, 9, 12, 16, 36):
        a = CycloElement(n, tuple((i * 7 - 3) % 11 - 5 for i in range(n)))
        res = a.residue()
        w = cmath.exp(2j * cmath.pi / n)
        lhs = approx_complex(a)
        rhs = sum(c * w**e for e, c in enumerate(res))
        assert abs(lhs - rhs) < 1e-8


def test_residue_is_sympys_remainder_modulo_the_cyclotomic_polynomial():
    x = sympy.Symbol("x")
    rng = random.Random(1)
    for n in [*range(1, 61), 64, 100, 144]:
        phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        for _ in range(3):
            coeffs = tuple(rng.randint(-9, 9) for _ in range(n))
            rem = sympy.Poly(coeffs[::-1], x).rem(phi).all_coeffs()[::-1]
            expected = tuple(int(c) for c in rem) + (0,) * (phi.degree() - len(rem))
            assert CycloElement(n, coeffs).residue() == expected, (n, coeffs)


# ---------------------------------------------------------------------------
# the cosine-basis fold of tests/oracles.py, which basis_coefficients is checked against

def test_fold_examples():
    assert reduce_to_real_basis(root_power(16, 0) + root_power(16, 8)).coeffs == (0, 0, 0, 0)
    assert reduce_to_real_basis(from_integer(16, 16)).coeffs == (16, 0, 0, 0)
    assert reduce_to_real_basis(root_power(16, 4) + root_power(16, 12)).coeffs == (0, 0, 0, 0)


def symmetric_elements(n):
    half = n // 2
    free = st.tuples(*([st.integers(-8, 8)] * (half + 1)))

    def build(vals):
        coeffs = [0] * n
        coeffs[0] = vals[0]
        coeffs[half] = vals[half]
        for e in range(1, half):
            coeffs[e] = coeffs[n - e] = vals[e]
        return CycloElement(n, tuple(coeffs))

    return free.map(build)


@given(quad_orders.flatmap(symmetric_elements))
@settings(max_examples=80)
def test_fold_round_trip_is_canonical_identity(a):
    folded = reduce_to_real_basis(a)
    assert (to_cyclo_element(folded) - a).is_zero()


@given(quad_orders.flatmap(symmetric_elements))
@settings(max_examples=40)
def test_fold_preserves_numeric_value(a):
    folded = reduce_to_real_basis(a)
    numeric = folded.coeffs[0] + sum(
        c * 2 * math.cos(2 * math.pi * l / a.n) for l, c in enumerate(folded.coeffs) if l
    )
    assert abs(approx_complex(a) - numeric) < 1e-8


def test_real_basis_vector_validation():
    with pytest.raises(ValueError):
        RealBasisVector(6, (1,))
    with pytest.raises(ValueError):
        RealBasisVector(16, (1, 2))


# ---------------------------------------------------------------------------
# rank diagnostics

def test_rank_examples():
    assert real_basis_rank(4) == real_basis_rank(4).__class__(
        n=4, basis_size=1, rank=1, euler_half=1, independent=True
    )
    r16 = real_basis_rank(16)
    assert (r16.rank, r16.basis_size, r16.euler_half, r16.independent) == (4, 4, 4, True)
    r36 = real_basis_rank(36)
    assert (r36.rank, r36.basis_size, r36.euler_half, r36.independent) == (6, 9, 6, False)


def test_rank_never_exceeds_subfield_degree():
    for n in range(4, 65, 4):
        rep = real_basis_rank(n)
        assert rep.rank <= rep.euler_half
        assert rep.independent == (rep.rank == rep.basis_size)
        if rep.basis_size > rep.euler_half:
            assert not rep.independent


@st.composite
def integer_matrices(draw):
    """Up to 8 x 8 entries in -3..3, some rows combinations of others."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    rows: list[tuple[int, ...]] = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            mult = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append(tuple(sum(m * r[c] for m, r in zip(mult, rows)) for c in range(ncols)))
        else:
            rows.append(tuple(draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))))
    return ncols, draw(st.permutations(rows))


@given(integer_matrices())
@settings(max_examples=300)
def test_integer_rank_matches_sympy(matrix):
    ncols, rows = matrix
    expected = sympy.Matrix(len(rows), ncols, [a for r in rows for a in r]).rank()
    assert _integer_rank(rows) == expected


def test_basis_rows_are_the_cosine_residues(monkeypatch):
    seen = []
    monkeypatch.setattr(cyclotomic, "_integer_rank", lambda rows: seen.append(rows) or 0)
    for n in range(4, 201, 4):
        real_basis_rank(n)
        expected = [root_power(n, 0).residue()]
        expected += [(root_power(n, l) + root_power(n, n - l)).residue() for l in range(1, n // 4)]
        assert seen.pop() == expected


def test_rank_is_the_real_subfield_degree():
    # The first-quadrant cosines span the real subfield, of degree phi(n)/2.
    for n in (*range(4, 401, 4), 1000):
        rep = real_basis_rank(n)
        assert rep.rank == rep.euler_half == int(sympy.totient(n)) // 2, n
    assert rep.independent is False  # 250 cosines at n = 1000, rank 200


def test_rank_rejects_bad_orders():
    with pytest.raises(ValueError):
        real_basis_rank(6)


def test_module_doctests():
    # Every module of the package, so an example added anywhere runs; today
    # the two examples are this module's.
    attempted = 0
    for module in (circhad, *(importlib.import_module(m.name)
                              for m in pkgutil.iter_modules(circhad.__path__, "circhad."))):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted >= 2
