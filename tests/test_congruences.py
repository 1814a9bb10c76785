"""Linear congruences and the half-period analysis with its gcd chain."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circhad.congruences import half_period_report, solve_linear_congruence


def brute_solutions(k, c, n):
    return [j for j in range(n) if (k * j - c) % n == 0]


# ---------------------------------------------------------------------------
# linear congruences

def test_congruence_examples():
    unsat = solve_linear_congruence(8, 18, 36)
    assert (unsat.solvable, unsat.g, unsat.j0, unsat.solution_count) == (False, 4, None, 0)
    easy = solve_linear_congruence(1, 2, 4)
    assert easy.solvable and easy.j0 == 2
    tight = solve_linear_congruence(3, 8, 16)
    assert tight.solvable and tight.j0 == 8 and tight.solution_count == 1


def test_congruence_rejects_bad_modulus():
    with pytest.raises(ValueError):
        solve_linear_congruence(1, 0, 0)


def test_congruence_exhaustive_against_brute_force_small():
    for n in range(1, 25):
        for k in range(n):
            for c in range(n):
                sol = solve_linear_congruence(k, c, n)
                brute = brute_solutions(k, c, n)
                assert sol.solvable == bool(brute)
                assert sol.solution_count == len(brute)
                if brute:
                    assert [sol.j0 + t * (n // sol.g) for t in range(sol.g)] == brute


@given(st.integers(1, 500), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@settings(max_examples=200)
def test_congruence_solution_structure(n, k, c):
    sol = solve_linear_congruence(k, c, n)
    assert sol.g == math.gcd(k % n, n) or (k % n == 0 and sol.g == n)
    assert sol.solvable == (sol.c % sol.g == 0)
    if sol.solvable:
        assert (sol.k * sol.j0 - sol.c) % n == 0
        assert 0 <= sol.j0 < n
        solutions = [sol.j0 + t * (n // sol.g) for t in range(sol.g)]
        assert all((sol.k * j - sol.c) % n == 0 for j in solutions)
        assert len(set(solutions)) == sol.solution_count


# ---------------------------------------------------------------------------
# half-period analysis

def test_half_period_examples():
    r36 = half_period_report(36)
    assert (r36.t, r36.k, r36.gcd_chain[0], r36.solvable, r36.turyn_excluded) == (
        3, 8, 4, False, False,
    )
    r16 = half_period_report(16)
    assert (r16.t, r16.k, r16.gcd_chain[0], r16.solvable, r16.j0) == (2, 3, 1, True, 8)
    assert r16.turyn_excluded
    r4 = half_period_report(4)
    assert (r4.k, r4.solvable, r4.degenerate_multiplier) == (0, False, True)
    assert r4.gcd_chain == (4, 4)


def test_half_period_rejects_other_orders():
    for bad in (1, 2, 6, 8, 12, 18, 20, 35):
        with pytest.raises(ValueError):
            half_period_report(bad)


def test_half_period_odd_t_always_unsolvable():
    for t in range(1, 32, 2):
        rep = half_period_report(4 * t * t)
        assert rep.t_parity == "odd"
        assert not rep.solvable
        assert not rep.n_over_8_integral
        assert not rep.turyn_excluded
        if t > 1:
            assert rep.gcd_chain == (4, 4)
        # agreement with brute force
        n = 4 * t * t
        assert not brute_solutions(n // 4 - 1, n // 2, n)


def test_half_period_even_t_flags_turyn():
    for t in range(2, 33, 2):
        rep = half_period_report(4 * t * t)
        assert rep.turyn_excluded
        assert rep.t_parity == "even"


# ---------------------------------------------------------------------------
# gcd chain identity

def test_gcd_reduction_examples():
    assert math.gcd(8, 36) == 4 == math.gcd(4, 0)
    assert math.gcd(3, 16) == 1 == math.gcd(4, 3)
    assert math.gcd(0, 4) == 4
    # gcd(n/4 - 1, n) = gcd(4, (n/4 - 1) mod 4) for every n = 4t^2, t <= 64,
    # read from the chain check 3 reports.
    for t in range(1, 65):
        lhs, rhs = half_period_report(4 * t * t).gcd_chain
        assert lhs == rhs, t
