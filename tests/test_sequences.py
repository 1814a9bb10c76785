"""Sequence-level checks: autocorrelation, Hadamard tests, exact eigenvalues."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circhad.cyclotomic import CycloElement, from_integer
from circhad.sequences import (
    IndexSet,
    Sequence,
    autocorrelation,
    even_order_check,
    expected_minus_counts,
    has_flat_spectrum,
    has_orthogonal_rows,
    is_circulant_hadamard,
    minus_indices,
    square_weight_check,
)
from oracles import build_circulant, eigen_identity_exact, eigenvalue, root_power


def seq(text: str) -> Sequence:
    return Sequence.from_string(text)


def naive_autocorrelation(entries, t):
    n = len(entries)
    return sum(entries[i] * entries[(i + t) % n] for i in range(n))

sequences_st = st.integers(1, 24).flatmap(
    lambda n: st.tuples(*([st.sampled_from((-1, 1))] * n)).map(Sequence)
)


# ---------------------------------------------------------------------------
# construction and text form

def test_from_string_round_trip():
    assert seq("-+++").entries == (-1, 1, 1, 1)
    assert seq("-+++").to_string() == "-+++"


def test_rejects_bad_characters_and_entries():
    with pytest.raises(ValueError):
        Sequence.from_string("+0+")
    with pytest.raises(ValueError):
        Sequence(())
    with pytest.raises(ValueError):
        Sequence((1, 2, 1))


@given(sequences_st)
def test_text_round_trip(s):
    assert Sequence.from_string(s.to_string()) == s


# ---------------------------------------------------------------------------
# autocorrelation

def test_autocorrelation_examples():
    assert autocorrelation(seq("-+++")) == (4, 0, 0, 0)
    assert autocorrelation(seq("++++")) == (4, 4, 4, 4)
    assert autocorrelation(seq("++-+")) == (4, 0, 0, 0)


@given(sequences_st)
def test_autocorrelation_invariants(s):
    r = autocorrelation(s)
    n = s.n
    assert r[0] == n
    for t in range(1, n):
        assert r[t] == r[n - t]
        assert abs(r[t]) <= n
        assert (r[t] - n) % 2 == 0  # every r[t] has the parity of n
    assert sum(r) == sum(s.entries) ** 2


@given(sequences_st)
def test_autocorrelation_matches_naive_sum(s):
    r = autocorrelation(s)
    for t in range(s.n):
        assert r[t] == naive_autocorrelation(s.entries, t)


# ---------------------------------------------------------------------------
# Hadamard checks, dual route

def test_hadamard_examples():
    assert is_circulant_hadamard(seq("-+++"))
    assert not is_circulant_hadamard(seq("++++"))
    assert not is_circulant_hadamard(seq("+-"))
    assert autocorrelation(seq("+-"))[1] == -2


def test_matrix_layout_examples():
    assert build_circulant(seq("-+++")) == (
        (-1, 1, 1, 1),
        (1, -1, 1, 1),
        (1, 1, -1, 1),
        (1, 1, 1, -1),
    )
    assert build_circulant(seq("+")) == ((1,),)
    a, b = -1, 1
    assert build_circulant(Sequence((a, b))) == ((a, b), (b, a))


def test_matrix_layout_is_the_index_formula():
    rng = random.Random(64)
    for n in range(1, 65):
        h = tuple(rng.choice((-1, 1)) for _ in range(n))
        assert build_circulant(Sequence(h)) == tuple(
            tuple(h[(j - i) % n] for j in range(n)) for i in range(n)
        )


def test_hadamard_equals_matrix_oracle_exhaustively_small():
    # Every sequence up to order 12: the autocorrelation test and the
    # exact matrix product must give the same verdict.
    for n in range(1, 13):
        for bits in range(1 << n):
            s = Sequence(tuple(-1 if (bits >> i) & 1 else 1 for i in range(n)))
            assert is_circulant_hadamard(s) == has_orthogonal_rows(s)


def test_hadamard_equals_matrix_oracle_randomized_larger():
    rng = random.Random(2026)
    for _ in range(150):
        n = rng.randint(13, 32)
        s = Sequence(tuple(rng.choice((-1, 1)) for _ in range(n)))
        assert is_circulant_hadamard(s) == has_orthogonal_rows(s)


def test_matrix_oracle_builds_rows_only_as_it_needs_them():
    # The n x n matrix at n = 3000 would take about 72 MB.
    rng = random.Random(3000)
    s = Sequence(tuple(rng.choice((-1, 1)) for _ in range(3000)))
    tracemalloc.start()
    try:
        verdict = has_orthogonal_rows(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict is False and peak < 1 << 20


# ---------------------------------------------------------------------------
# exact eigenvalues

def test_eigenvalue_examples():
    assert (eigenvalue(seq("-+++"), 0) - from_integer(4, 2)).is_zero()
    assert eigenvalue(seq("++++"), 1).is_zero()
    assert (eigenvalue(seq("++-+"), 1) - from_integer(4, 2)).is_zero()


@given(sequences_st)
@settings(max_examples=60)
def test_mag_sq_equals_eigenvalue_times_conjugate(s):
    # |eigenvalue_k|^2 is the power map k of the autocorrelation element.
    r = CycloElement(s.n, autocorrelation(s))
    for k in range(s.n):
        lam = eigenvalue(s, k)
        assert (r.power_map(k) - lam * lam.power_map(-1)).is_zero()


@given(sequences_st)
@settings(max_examples=60)
def test_parseval_sum_is_order_squared(s):
    n = s.n
    r = CycloElement(n, autocorrelation(s))
    total = from_integer(n, 0)
    for k in range(n):
        total = total + r.power_map(k)
    assert (total - from_integer(n, n * n)).is_zero()


def fourier_vector(n, k):
    return [root_power(n, (j * k) % n) for j in range(n)]


def eigen_identity_holds(s):
    """Matrix times Fourier vector equals eigenvalue times the vector, all modes."""
    n = s.n
    rows = build_circulant(s)
    for k in range(n):
        lam = eigenvalue(s, k)
        vec = fourier_vector(n, k)
        for i in range(n):
            lhs = from_integer(n, 0)
            for j in range(n):
                lhs = lhs + vec[j] * rows[i][j]
            if not (lhs - lam * vec[i]).is_zero():
                return False
    return True


def test_eigen_identity_small_random():
    rng = random.Random(11)
    for n in (1, 2, 3, 4, 6, 8, 12):
        for _ in range(5):
            s = Sequence(tuple(rng.choice((-1, 1)) for _ in range(n)))
            assert eigen_identity_holds(s)


def test_eigen_identity_larger_random():
    # same identity at a spread of orders up to 32, assembled directly as
    # coefficient vectors to keep the sweep quick
    rng = random.Random(13)
    for n in (15, 20, 25, 32):
        for _ in range(2):
            s = Sequence(tuple(rng.choice((-1, 1)) for _ in range(n)))
            assert eigen_identity_exact(s)


def test_flat_spectrum_matches_per_mode_calls():
    rng = random.Random(5)
    rows = [Sequence(tuple(rng.choice((-1, 1)) for _ in range(rng.randint(1, 16)))) for _ in range(40)]
    # Rows of admissible -1 count pass the m = 1 subfield, so the walk goes on to larger ones.
    for n in (36, 64):
        for minus in expected_minus_counts(n):
            for _ in range(3):
                members = set(rng.sample(range(n), minus))
                rows.append(Sequence(tuple(-1 if i in members else 1 for i in range(n))))
    for s in rows:
        n = s.n
        r = CycloElement(n, autocorrelation(s))
        per_mode = all((r.power_map(k) - from_integer(n, n)).is_zero() for k in range(n))
        assert has_flat_spectrum(s) == per_mode


def test_flat_spectrum_equals_hadamard_small():
    for n in (4, 8):
        for bits in range(1 << n):
            s = Sequence(tuple(-1 if (bits >> i) & 1 else 1 for i in range(n)))
            assert has_flat_spectrum(s) == is_circulant_hadamard(s)


# ---------------------------------------------------------------------------
# index set and order checks

def test_minus_indices_examples():
    assert minus_indices(seq("-+++")).members == (0,)
    assert minus_indices(seq("++++")).members == ()
    assert minus_indices(seq("++-+")).members == (2,)


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet(4, (2, 1))
    with pytest.raises(ValueError):
        IndexSet(4, (4,))
    with pytest.raises(ValueError, match="order must be positive"):
        IndexSet(0, ())


def test_even_order_check():
    assert even_order_check(4).passed
    assert not even_order_check(9).passed
    v1 = even_order_check(1)
    assert not v1.passed and v1.trivial_exception
    with pytest.raises(ValueError, match="order must be positive"):
        even_order_check(0)
    assert is_circulant_hadamard(seq("+"))  # the 1x1 exception really is Hadamard


def test_odd_orders_beyond_one_are_never_hadamard():
    for n in (3, 5, 7, 9):
        for bits in range(1 << n):
            s = Sequence(tuple(-1 if (bits >> i) & 1 else 1 for i in range(n)))
            assert not is_circulant_hadamard(s)


def test_square_weight_check_examples():
    v = square_weight_check(seq("-+++"))
    assert v.passed and v.case == "minus" and v.minus_count == 1
    assert not square_weight_check(seq("----+++-")).passed  # 8 is not a square
    sixteen = "-" * 6 + "+" * 10
    v16 = square_weight_check(seq(sixteen))
    assert v16.passed and v16.minus_count == 6 and v16.expected == (6, 10)


def test_expected_minus_counts():
    assert expected_minus_counts(4) == (1, 3)
    assert expected_minus_counts(16) == (6, 10)
    assert expected_minus_counts(8) is None
    assert expected_minus_counts(1) == (0, 1)
