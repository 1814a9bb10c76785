"""Difference tables, cosine coefficients, index map, spectral verdicts."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circhad import spectra
from circhad.cli import main
from circhad.cyclotomic import CycloElement, RealBasisVector, from_integer
from circhad.sequences import (
    IndexSet,
    Sequence,
    autocorrelation,
    is_circulant_hadamard,
    minus_indices,
)
from circhad.spectra import (
    DifferenceCounts,
    ModeVerdict,
    SpectralVerdict,
    basis_coefficients,
    constant_term_check,
    difference_counts,
    index_map_check,
    mode_verdict,
    spectral_verdict,
)
from oracles import analyze_payload, reduce_to_real_basis

J16 = IndexSet(16, tuple(range(6)))

index_sets = st.tuples(
    st.sampled_from((4, 8, 12, 16, 20)),
    st.data(),
)


def random_index_set(rng, n, size=None):
    size = rng.randint(0, n) if size is None else size
    return IndexSet(n, tuple(sorted(rng.sample(range(n), size))))


# ---------------------------------------------------------------------------
# difference tables

def reference_difference_counts(index_set, k):
    """Reference: the table counted one ordered pair (s, t) at a time."""
    n = index_set.n
    counts = [0] * n
    for s in index_set.members:
        for t in index_set.members:
            counts[(k * (s - t)) % n] += 1
    return DifferenceCounts(n=n, k=k, counts=tuple(counts))


@pytest.mark.parametrize("n", range(1, 13))
def test_table_matches_pair_count_on_every_subset(n):
    for bits in range(1 << n):
        J = IndexSet(n, tuple(i for i in range(n) if bits >> i & 1))
        for k in range(n):
            assert difference_counts(J, k) == reference_difference_counts(J, k)


@pytest.mark.parametrize("n", (16, 20, 36, 64, 100, 144))
def test_table_matches_pair_count_on_seeded_sets(n):
    rng = random.Random(n)
    root = math.isqrt(n)
    sizes = (0, 1, (n - root) // 2, (n + root) // 2, n - 1, n, rng.randint(0, n))
    for J in (random_index_set(rng, n, size) for size in sizes):
        for k in range(n):
            assert difference_counts(J, k) == reference_difference_counts(J, k)


def test_singleton_table():
    t = difference_counts(IndexSet(4, (2,)), 1)
    assert t.counts == (1, 0, 0, 0)


def test_contiguous_block_table_mode_one():
    t = difference_counts(J16, 1)
    expected = [0] * 16
    expected[0] = 6
    for d in range(1, 6):
        expected[d] = expected[16 - d] = 6 - d
    assert t.counts == tuple(expected)
    assert sum(t.counts) == 36


def test_contiguous_block_table_mode_two():
    t = difference_counts(J16, 2)
    assert t.counts == (6, 0, 5, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 5, 0)
    assert t.counts[0] == 6


def test_mode_range_enforced():
    with pytest.raises(ValueError):
        difference_counts(J16, 16)
    with pytest.raises(ValueError):
        difference_counts(J16, -1)


@given(st.integers(2, 20), st.integers(0, 10**6), st.integers(0, 19))
@settings(max_examples=120)
def test_table_invariants(n, pick, k):
    rng = random.Random(pick)
    k = k % n
    members = rng.sample(range(n), rng.randint(0, n))
    J = IndexSet(n, tuple(sorted(members)))
    t = difference_counts(J, k)
    assert sum(t.counts) == len(J) ** 2
    assert t.counts[0] >= len(J)
    for l in range(n):
        assert t.counts[l] == t.counts[(n - l) % n]
    if math.gcd(k, n) == 1:
        assert t.counts[0] == len(J)


# ---------------------------------------------------------------------------
# cosine coefficients

def test_coefficient_examples():
    assert basis_coefficients(difference_counts(IndexSet(4, (2,)), 1)).coeffs == (1,)
    assert basis_coefficients(difference_counts(J16, 1)).coeffs == (6, 5, 4, 2)
    # mode 0 sends every difference to class 0
    t0 = difference_counts(J16, 0)
    assert basis_coefficients(t0).coeffs == (36, 0, 0, 0)


def test_coefficients_need_quad_order():
    with pytest.raises(ValueError):
        basis_coefficients(difference_counts(IndexSet(6, (0, 1)), 1))


@given(st.integers(0, 10**6), st.sampled_from((4, 8, 12, 16, 20, 24)))
@settings(max_examples=120)
def test_coefficients_agree_with_canonical_reduction(pick, n):
    # the fold of the pair-sum element must reproduce the count differences
    rng = random.Random(pick)
    J = random_index_set(rng, n)
    for k in range(n):
        t = difference_counts(J, k)
        direct = basis_coefficients(t)
        reduced = reduce_to_real_basis(CycloElement(n, t.counts))
        assert direct == reduced


# ---------------------------------------------------------------------------
# index map

def test_index_map_identity_mode():
    assert index_map_check(J16, 1).passed


def test_index_map_examples():
    v2 = index_map_check(J16, 2)
    assert v2.passed
    base = difference_counts(J16, 1).counts
    assert difference_counts(J16, 2).counts[2] == base[1] + base[9] == 5
    v8 = index_map_check(J16, 8)
    assert v8.passed
    assert difference_counts(J16, 8).counts[0] == sum(base[d] for d in range(0, 16, 2)) == 18


def test_index_map_mode_range():
    with pytest.raises(ValueError):
        index_map_check(J16, 0)


def test_index_map_catches_a_wrong_power_map(monkeypatch):
    # The mode-k table is the power map of the mode-1 table; the check counts pairs.
    real_map = CycloElement.power_map

    def shifted_map(element, k):
        coeffs = real_map(element, k).coeffs
        return CycloElement(element.n, coeffs[1:] + coeffs[:1])

    monkeypatch.setattr(CycloElement, "power_map", shifted_map)
    v = index_map_check(J16, 3)
    assert not v.passed and v.mismatches
    assert all(direct != remapped for _, direct, remapped in v.mismatches)


def test_index_map_catches_a_wrong_remap(monkeypatch):
    # The verdicts read the remap rows; the recount reads the power map.
    real_index = spectra._mode_index

    def shifted_index(n, k):
        index = real_index(n, k)
        return index[1:] + index[:1]

    real_index.cache_clear()
    monkeypatch.setattr(spectra, "_mode_index", shifted_index)
    assert mode_verdict(J16, 3) != recount_verdict(J16).per_mode[3]


def test_one_mode_reads_build_only_their_row():
    # One row at n = 1000, not the order's 501: the row mode 7 and mode 993
    # share.  A table reads no row; a full verdict holds 501 rows of n/4.
    J = random_index_set(random.Random(1000), 1000, 484)
    spectra._mode_index.cache_clear()
    table = difference_counts(J, 5)
    assert spectra._mode_index.cache_info().currsize == 0
    assert table.counts == CycloElement(1000, difference_counts(J, 1).counts).power_map(5).coeffs
    reads = {}
    for k in (7, 993):
        spectra._mode_index.cache_clear()
        reads[k] = mode_verdict(J, k)
        assert spectra._mode_index.cache_info().currsize == 1
    spectra._mode_index.cache_clear()
    per_mode = spectral_verdict(J).per_mode
    assert all(reads[k] == per_mode[k] for k in reads)
    assert spectra._mode_index.cache_info().currsize == 501
    assert {len(spectra._mode_index(1000, k)) for k in range(501)} == {250}


@given(st.integers(0, 10**6), st.integers(2, 24))
@settings(max_examples=120)
def test_index_map_holds_everywhere(pick, n):
    rng = random.Random(pick)
    J = random_index_set(rng, n)
    for k in range(1, n):
        assert index_map_check(J, k).passed


# ---------------------------------------------------------------------------
# constant-coordinate law

def test_constant_term_examples():
    ok = constant_term_check(IndexSet(4, (2,)), 1)
    assert ok.passed and ok.lhs == 4
    bad = constant_term_check(J16, 1)
    assert not bad.passed and bad.lhs == 24
    assert bad.required_half_count == Fraction(2)
    zero_mode = constant_term_check(J16, 0)
    assert not zero_mode.passed and zero_mode.lhs == 4 * 36
    with pytest.raises(ValueError, match="divisible by 4"):
        constant_term_check(IndexSet(6, (0, 1)), 1)


def test_constant_term_fractional_requirement():
    # |J| = 3 at n = 4: counts[0] = 3, required half count (12-4)/4 = 2
    v = constant_term_check(IndexSet(4, (1, 2, 3)), 1)
    assert v.required_half_count == Fraction(2)
    v2 = constant_term_check(IndexSet(12, (0, 1, 4)), 1)
    assert v2.required_half_count == Fraction(0)


# ---------------------------------------------------------------------------
# full spectral verdict

def test_spectral_verdict_examples():
    v = spectral_verdict(IndexSet(4, (2,)))
    assert v.overall
    assert [m.mag_sq_equals_order for m in v.per_mode] == [True] * 4

    v16 = spectral_verdict(J16)
    assert not v16.overall
    assert not v16.per_mode[1].mag_sq_equals_order

    empty = spectral_verdict(IndexSet(16, ()))
    assert not empty.overall


def test_spectral_verdict_needs_quad_order():
    with pytest.raises(ValueError):
        spectral_verdict(IndexSet(6, (0,)))


def test_spectral_verdict_matches_hadamard_at_order_four():
    # exhaustively over the canonical weight (n - sqrt(n))/2 = 1
    for j in range(4):
        J = IndexSet(4, (j,))
        entries = [1] * 4
        entries[j] = -1
        s = Sequence(tuple(entries))
        assert spectral_verdict(J).overall == is_circulant_hadamard(s) == True  # noqa: E712


def test_spectral_verdict_matches_hadamard_at_order_sixteen_sampled():
    rng = random.Random(99)
    for _ in range(60):
        members = rng.sample(range(16), 6)
        J = IndexSet(16, tuple(sorted(members)))
        entries = [1] * 16
        for j in members:
            entries[j] = -1
        s = Sequence(tuple(entries))
        # no order-16 rows exist, so both sides must be false
        assert spectral_verdict(J).overall is False
        assert is_circulant_hadamard(s) is False


def test_verdict_exposes_constant_term_and_coefficients():
    v = spectral_verdict(J16)
    m1 = v.per_mode[1]
    assert m1.coefficients.coeffs == (6, 5, 4, 2)
    assert not m1.constant_term_ok
    assert minus_indices(Sequence.from_string("-" * 6 + "+" * 10)).members == tuple(range(6))


# ---------------------------------------------------------------------------
# the remap and the per-divisor zero test against a per-mode recount

def recount_verdict(index_set):
    """Reference: every mode's table by the power map of the mode-1 table, its
    coordinates read off that table, and a full zero test per mode; no fold,
    remap or cosine vector of ``circhad.spectra``."""
    n = index_set.n
    target = from_integer(n, n)
    base = CycloElement(n, difference_counts(index_set, 1).counts)
    modes = []
    for k in range(n):
        table = base.power_map(k)
        counts = table.coeffs
        modes.append(
            ModeVerdict(
                k=k,
                constant_term_ok=4 * (counts[0] - counts[n // 2]) == n,
                coefficients=RealBasisVector(n, tuple(counts[l] - counts[n // 2 - l] for l in range(n // 4))),
                mag_sq_equals_order=(table * 4 - target).is_zero(),
            )
        )
    return SpectralVerdict(
        n=n,
        index_set=index_set,
        per_mode=tuple(modes),
        overall=all(m.mag_sq_equals_order for m in modes),
    )


@pytest.mark.parametrize("n", (4, 8, 12))
def test_spectral_verdict_matches_recount_on_every_subset(n):
    for bits in range(1 << n):
        J = IndexSet(n, tuple(i for i in range(n) if bits >> i & 1))
        verdict = spectral_verdict(J)
        assert verdict == recount_verdict(J)
        assert tuple(mode_verdict(J, k) for k in range(n)) == verdict.per_mode


@pytest.mark.parametrize("n", (16, 36, 64, 100, 144))
def test_spectral_verdict_matches_recount_on_seeded_sets(n):
    rng = random.Random(n)
    root = math.isqrt(n)
    # Mode k of the subgroup of order root/2 is flat exactly when that order divides k.
    m = root // 2
    sets = [IndexSet(n, tuple(range(0, n, n // m)))]
    sets += [random_index_set(rng, n, size) for size in ((n - root) // 2, (n + root) // 2, m)]
    sets.append(random_index_set(rng, n))
    for J in sets:
        verdict = spectral_verdict(J)
        assert verdict == recount_verdict(J)
        assert tuple(mode_verdict(J, k) for k in range(n)) == verdict.per_mode
        # constant_term_check reads the table, not the remap: an oracle for c0pass.
        assert [constant_term_check(J, k).passed for k in range(n)] == [
            m.constant_term_ok for m in verdict.per_mode
        ]
    flat = [mode.mag_sq_equals_order for mode in spectral_verdict(sets[0]).per_mode]
    assert flat == [k % m == 0 for k in range(n)]


@pytest.mark.parametrize("n", (60, 120))
def test_verdict_and_analyze_match_recount_at_a_fold_order_with_two_odd_primes(n, capsys):
    # Modes with gcd(k, n) = n/15 fold mod 15 = 3 * 5; every odd fold
    # order of the other tests' orders is a prime power (3, 9, 5, 25, 125).
    rng = random.Random(n)
    sets = [random_index_set(rng, n, size) for size in ((n - math.isqrt(n)) // 2, n // 2, 15)]
    sets.append(IndexSet(n, tuple(range(0, n, n // 15))))
    for J in sets:
        reference = recount_verdict(J)
        assert spectral_verdict(J) == reference
        assert tuple(mode_verdict(J, k) for k in range(n)) == reference.per_mode
        row = "".join("-" if i in J.members else "+" for i in range(n))
        assert main(["analyze", "--seq", row]) == (0 if reference.overall else 1)
        assert capsys.readouterr().out == (
            json.dumps(analyze_payload(J, reference.per_mode, reference.overall), indent=2) + "\n"
        )


def count_spectral_calls(monkeypatch):
    """Record every table count (its mode), fold (its order), zero test and full verdict."""
    calls = {"tables": [], "folds": [], "zero_tests": 0, "verdicts": 0}
    real_counts = spectra.difference_counts
    real_fold = CycloElement.fold
    real_is_zero = CycloElement.is_zero
    real_verdict = spectra.spectral_verdict

    def counting_table(index_set, k):
        calls["tables"].append(k)
        return real_counts(index_set, k)

    def counting_fold(element, m):
        calls["folds"].append(m)
        return real_fold(element, m)

    def counting_zero_test(element):
        calls["zero_tests"] += 1
        return real_is_zero(element)

    def counting_verdict(index_set):
        calls["verdicts"] += 1
        return real_verdict(index_set)

    monkeypatch.setattr(spectra, "difference_counts", counting_table)
    monkeypatch.setattr(CycloElement, "fold", counting_fold)
    monkeypatch.setattr(CycloElement, "is_zero", counting_zero_test)
    monkeypatch.setattr(spectra, "spectral_verdict", counting_verdict)
    return calls


def test_spectral_verdict_counts_one_table_and_one_zero_test_per_divisor(monkeypatch):
    calls = count_spectral_calls(monkeypatch)
    spectral_verdict(IndexSet(36, tuple(range(15))))
    assert calls["tables"] == [1]
    # One fold and one zero test per divisor of 36.
    assert sorted(calls["folds"]) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert calls["zero_tests"] == 9


def count_constructions(monkeypatch, *classes):
    """Record how many instances of each class are built."""
    built = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return built


@pytest.mark.parametrize("n", (4, 36, 60, 144))
def test_full_analyze_counts_one_table_then_one_fold_and_one_zero_test_per_divisor(monkeypatch, capsys, n):
    J = random_index_set(random.Random(n), n, (n - math.isqrt(n)) // 2)
    row = "".join("-" if i in J.members else "+" for i in range(n))
    expected = spectral_verdict(J)
    calls = count_spectral_calls(monkeypatch)
    built = count_constructions(monkeypatch, ModeVerdict, RealBasisVector)
    assert main(["analyze", "--seq", row]) == (0 if expected.overall else 1)
    assert capsys.readouterr().out == (
        json.dumps(analyze_payload(J, expected.per_mode, expected.overall), indent=2) + "\n"
    )
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    # A fold mod n/g for every divisor g is a fold mod every divisor, once.
    calls["folds"].sort()
    assert calls == {"tables": [1], "folds": divisors, "zero_tests": len(divisors), "verdicts": 0}
    assert built == {"ModeVerdict": 0, "RealBasisVector": 0}
    # The counters see what a verdict builds: half + 1 vectors, n modes.
    spectral_verdict(J)
    assert built == {"ModeVerdict": n, "RealBasisVector": n // 2 + 1}


@pytest.mark.parametrize("n, k", [(4, 0), (4, 3), (36, 8), (144, 35), (144, 72), (1000, 8), (1000, 200),
                                  (1000, 500)])
def test_one_mode_counts_one_table_one_fold_and_one_zero_test(monkeypatch, capsys, n, k):
    rng = random.Random(n + k)
    J = random_index_set(rng, n, (n - math.isqrt(n)) // 2)
    expected = spectral_verdict(J).per_mode[k]
    row = "".join("-" if i in J.members else "+" for i in range(n))
    calls = count_spectral_calls(monkeypatch)
    assert mode_verdict(J, k) == expected
    assert main(["analyze", "--seq", row, "--k", str(k)]) == (0 if expected.mag_sq_equals_order else 1)
    assert json.loads(capsys.readouterr().out)["perK"][0]["cVector"] == list(expected.coefficients.coeffs)
    m = n // math.gcd(k, n)
    assert calls == {"tables": [1, 1], "folds": [m, m], "zero_tests": 2, "verdicts": 0}


def test_mode_verdict_checks_order_then_mode():
    with pytest.raises(ValueError, match="divisible by 4"):
        mode_verdict(IndexSet(6, (0,)), 6)
    for k in (-1, 16):
        with pytest.raises(ValueError, match=rf"k must lie in \[0, 15\], got {k}"):
            mode_verdict(J16, k)


@pytest.mark.parametrize("n", (36, 64, 100, 144))
def test_cli_output_at_benchmark_orders_matches_recount(n, capsys):
    # The orders and row weight of the benchmark's spectral workload:
    # analyze (every mode, then one mode of each gcd class) and verify
    # against json.dumps of payloads built from the per-mode recount.
    rng = random.Random(n)
    root = math.isqrt(n)
    members = sorted(rng.sample(range(n), (n - root) // 2))
    row = "".join("-" if i in members else "+" for i in range(n))
    index_set = IndexSet(n, tuple(members))
    reference = recount_verdict(index_set)

    def cli_run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def analyze_text(modes, overall):
        return json.dumps(analyze_payload(index_set, modes, overall), indent=2) + "\n"

    assert cli_run("analyze", "--seq", row) == (
        0 if reference.overall else 1,
        analyze_text(reference.per_mode, reference.overall),
    )
    for g in (d for d in range(1, n + 1) if n % d == 0):
        k = rng.choice([k for k in range(n) if math.gcd(k, n) == g])
        mode = reference.per_mode[k]
        assert cli_run("analyze", "--seq", row, "--k", str(k)) == (
            0 if mode.mag_sq_equals_order else 1,
            analyze_text([mode], mode.mag_sq_equals_order),
        )

    hadamard = not any(autocorrelation(Sequence.from_string(row))[1:])
    verify = {
        "sequence": row,
        "n": n,
        "even_order": {"passed": True, "trivial_exception": False},
        "square_weight": {
            "passed": True,
            "is_square": True,
            "minus_count": len(members),
            "expected": [(n - root) // 2, (n + root) // 2],
            "case": "minus",
        },
        "is_circulant_hadamard": hadamard,
        "matrix_identity": hadamard,
        "passed": hadamard,
    }
    assert cli_run("verify", "--seq", row, "--format", "json") == (
        0 if hadamard else 1,
        json.dumps(verify, indent=2) + "\n",
    )
