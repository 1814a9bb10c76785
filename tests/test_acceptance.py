"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 3 (the order-36 long run) is opt-in: set CHM_RUN_LONG=1.
All comparisons are exact; the only tolerances are the stated runtime
bounds.
"""

import math
import os
import random
import time

import pytest

from circhad.congruences import half_period_report, solve_linear_congruence
from circhad.cyclotomic import CycloElement, from_integer, real_basis_rank, reduce_to_real_basis
from circhad.search import (
    STRATEGY_DFS,
    STRATEGY_EXHAUSTIVE,
    STRATEGY_WEIGHT,
    run_search,
)
from circhad.sequences import (
    IndexSet,
    Sequence,
    build_circulant,
    eigenvalue,
    has_flat_spectrum,
    has_orthogonal_rows,
    is_circulant_hadamard,
)
from circhad.spectra import basis_coefficients, difference_counts


def _criterion(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def _bits_sequence(bits: int, n: int) -> Sequence:
    return Sequence(tuple(-1 if (bits >> i) & 1 else 1 for i in range(n)))


def test_criterion_1_order_four_ground_truth():
    report = run_search(4, STRATEGY_EXHAUSTIVE)
    ok = (
        report.raw_count == 8
        and report.canonical_count == 1
        and "-+++" in report.solutions
        and all(has_orthogonal_rows(Sequence.from_string(s)) for s in report.solutions)
        and report.elapsed_ms < 1000
    )
    _criterion(1, "order 4: 8 rows, 1 class, exact H*Ht = 4I, < 1 s", ok)


def test_criterion_2_order_sixteen_empty():
    exhaustive = run_search(16, STRATEGY_EXHAUSTIVE)
    weight = run_search(16, STRATEGY_WEIGHT)
    expected_nodes = math.comb(16, 6) + math.comb(16, 10)
    ok = (
        exhaustive.raw_count == 0
        and exhaustive.nodes_explored == 1 << 16
        and exhaustive.elapsed_ms < 5000
        and weight.raw_count == 0
        and weight.nodes_explored == expected_nodes
    )
    _criterion(2, "order 16: exhaustive and weight-constrained both empty, < 5 s", ok)


@pytest.mark.skipif(
    not os.environ.get("CHM_RUN_LONG"),
    reason="order-36 long run is opt-in; set CHM_RUN_LONG=1",
)
def test_criterion_3_order_thirty_six_empty(tmp_path):
    checkpoint = str(tmp_path / "search36.checkpoint")
    report = run_search(
        36,
        STRATEGY_DFS,
        jobs=os.cpu_count() or 1,
        weight_filter=True,
        checkpoint=checkpoint,
    )
    print(f"order-36 run: {report.nodes_explored} nodes in {report.elapsed_ms} ms")
    ok = report.raw_count == 0 and os.path.exists(checkpoint)
    _criterion(3, "order 36: pruned DFS + weight filter finds nothing (opt-in)", ok)


@pytest.mark.skipif(
    not os.environ.get("CHM_RUN_LONG"),
    reason="order-36 long run is opt-in; set CHM_RUN_LONG=1",
)
def test_criterion_3_order_thirty_six_weighted_walk(tmp_path):
    # The same order decided by the bit-sliced walker, which shares no
    # code with the DFS: every row with 15 or 21 entries -1, each tested.
    # Its 11135805120 rows are more than 2^24, so it writes a checkpoint.
    checkpoint = str(tmp_path / "walk36.checkpoint")
    before = os.times()
    report = run_search(36, STRATEGY_WEIGHT, jobs=os.cpu_count() or 1, checkpoint=checkpoint)
    cpu = sum(os.times()[:4]) - sum(before[:4])  # this process and its finished workers
    print(f"order-36 weighted walk: {report.nodes_explored} rows in {report.elapsed_ms} ms, {cpu:.1f} s CPU")
    ok = report.raw_count == 0 and report.nodes_explored == 2 * math.comb(36, 15) == 11135805120
    _criterion(3, "order 36: weighted bit-sliced walk finds nothing (opt-in)", ok)


def test_criterion_4_small_orders_lemma_sweep():
    start = time.monotonic()
    ok = True
    for n in (2, 6, 8, 10, 12, 14, 18, 20):  # even, non-square
        ok = ok and run_search(n, STRATEGY_EXHAUSTIVE).raw_count == 0
    for n in range(3, 16, 2):  # odd (order 1 is the trivial 1x1 exception)
        ok = ok and run_search(n, STRATEGY_EXHAUSTIVE).raw_count == 0
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    _criterion(4, f"no rows at non-square even n <= 20 or odd n <= 15 ({elapsed:.1f} s)", ok)


def test_criterion_5_congruence_oracle():
    ok = True
    for n in range(1, 65):
        for k in range(n):
            by_rhs: dict[int, list[int]] = {}
            for j in range(n):  # brute-force j-scan
                by_rhs.setdefault((k * j) % n, []).append(j)
            for c in range(n):
                sol = solve_linear_congruence(k, c, n)
                brute = by_rhs.get(c, [])
                if sol.solvable != bool(brute) or sol.solution_count != len(brute):
                    ok = False
                elif brute and (sol.j0 != brute[0] or list(sol.solutions()) != brute):
                    ok = False
    _criterion(5, "congruence solver equals brute force for all (n, k, c), n <= 64", ok)


def test_criterion_6_half_period_sweep():
    ok = True
    for t in range(3, 32, 2):
        n = 4 * t * t
        rep = half_period_report(n)
        ok = ok and (
            rep.k == n // 4 - 1
            and not rep.solvable
            and rep.gcd_chain == (4, 4)
            and not rep.n_over_8_integral
            and not rep.turyn_excluded
        )
    for t in range(2, 33, 2):
        ok = ok and half_period_report(4 * t * t).turyn_excluded
    _criterion(6, "half-period congruence: odd t unsolvable via gcd 4, even t turyn-flagged", ok)


def test_criterion_7_cross_module_exactness():
    rng = random.Random(160616)
    ok = True
    n = 16
    for _ in range(1000):
        J = IndexSet.from_iterable(n, rng.sample(range(n), 6))
        for k in range(n):
            table = difference_counts(J, k)
            direct = basis_coefficients(table)
            reduced = reduce_to_real_basis(CycloElement(n, table.counts))
            if direct.coeffs != reduced.coeffs:
                ok = False
    _criterion(7, "count differences match exact reduction for 1000 random J, all 16 modes", ok)


def test_criterion_8_basis_rank_diagnostics():
    r4, r16, r36 = real_basis_rank(4), real_basis_rank(16), real_basis_rank(36)
    ok = (
        (r4.rank, r4.basis_size, r4.independent) == (1, 1, True)
        and (r16.rank, r16.basis_size, r16.independent) == (4, 4, True)
        and (r36.rank, r36.basis_size, r36.independent) == (6, 9, False)
        and all(r.rank == r.euler_half for r in (r4, r16, r36))
    )
    _criterion(8, "cosine-basis ranks: 1/1, 4/4, 6/9, each equal to phi(n)/2", ok)


@pytest.mark.parametrize("n", (12, 16))
def test_criterion_9_spectral_equivalence(n):
    ok = True
    for bits in range(1 << n):
        s = _bits_sequence(bits, n)
        if is_circulant_hadamard(s) != has_flat_spectrum(s):
            ok = False
            break
    _criterion(9, f"order {n}: Hadamard iff flat exact spectrum, all 2^{n} rows", ok)


def _eigen_identity_exact(s: Sequence) -> bool:
    # Row i of the matrix against the mode-k Fourier vector, assembled as
    # one coefficient vector per pair; the eigenvalue side is the matching
    # monomial product.  All integer arithmetic.
    n = s.n
    rows = build_circulant(s)
    for k in range(n):
        lam = eigenvalue(s, k).coeffs
        for i in range(n):
            lhs = [0] * n
            row = rows[i]
            for j in range(n):
                lhs[(j * k) % n] += row[j]
            shift = (i * k) % n
            for e in range(n):
                lhs[(e + shift) % n] -= lam[e]
            if not CycloElement(n, tuple(lhs)).is_zero():
                return False
    return True


def test_criterion_10_eigen_identity():
    rng = random.Random(2468)
    ok = True
    for n in (4, 8, 12, 16, 36):
        for _ in range(40):
            s = Sequence(tuple(rng.choice((-1, 1)) for _ in range(n)))
            if not _eigen_identity_exact(s):
                ok = False
    _criterion(10, "matrix x Fourier vector = eigenvalue x vector, 200 random rows", ok)
