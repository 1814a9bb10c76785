"""Linear congruences and the half-period congruence analysis.

The reachability question behind the spectral constant-coordinate law is
a linear congruence: for which j does k*j hit the half-period class n/2
modulo n?  Solvability is classical (gcd(k, n) must divide n/2), and for
orders of the form n = 4t^2 the critical multiplier k = n/4 - 1 turns
out to be unsolvable exactly when t is odd.  Orders with even t are
already excluded by Turyn's classical result, which is recorded here as
a flag, not re-derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CongruenceSolution:
    """Full description of the solutions of k*j = c (mod n).

    Solvable iff g = gcd(k, n) divides c; then there are exactly g
    solutions in [0, n), namely j0 + t*(n/g) for t in [0, g).
    """

    n: int
    k: int
    c: int
    g: int
    solvable: bool
    j0: int | None
    solution_count: int


def solve_linear_congruence(k: int, c: int, n: int) -> CongruenceSolution:
    """Solve k*j = c (mod n) exactly; inputs are reduced mod n first."""
    if n < 1:
        raise ValueError("modulus must be positive")
    k %= n
    c %= n
    g = math.gcd(k, n)
    if c % g:
        return CongruenceSolution(n=n, k=k, c=c, g=g, solvable=False, j0=None, solution_count=0)
    step = n // g
    # k/g is a unit mod n/g; at k = 0, step is 1 and pow(0, -1, 1) is 0.
    j0 = pow(k // g, -1, step) * (c // g) % step
    return CongruenceSolution(n=n, k=k, c=c, g=g, solvable=True, j0=j0, solution_count=g)


@dataclass(frozen=True)
class HalfPeriodReport:
    """Solvability of k*j = n/2 (mod n) at the critical multiplier k = n/4 - 1.

    Only defined for n = 4t^2.  ``gcd_chain`` records gcd(k, n), read
    from the congruence solve, followed by its reduction gcd(4, k mod 4);
    the two agree for every t.  For
    odd t the congruence is unsolvable because the chain ends at 4 while
    n/8 = t^2/2 is not an integer.  ``turyn_excluded`` marks even t,
    where the order is ruled out by Turyn's classical result instead.
    ``degenerate_multiplier`` marks the k = 0 edge at n = 4, where the
    congruence 0*j = 2 (mod 4) has no solutions even though order 4
    does admit circulant Hadamard rows.
    """

    n: int
    t: int
    t_parity: str
    k: int
    gcd_chain: tuple[int, int]
    solvable: bool
    j0: int | None
    n_over_8_integral: bool
    turyn_excluded: bool
    degenerate_multiplier: bool


def half_period_report(n: int) -> HalfPeriodReport:
    """Analyze the half-period congruence for an order of the form 4t^2."""
    if n < 4 or n % 4:
        raise ValueError(f"order must be of the form 4*t^2, got {n}")
    t = math.isqrt(n // 4)
    if 4 * t * t != n:
        raise ValueError(f"order must be of the form 4*t^2, got {n}")
    k = n // 4 - 1
    sol = solve_linear_congruence(k, n // 2, n)
    return HalfPeriodReport(
        n=n,
        t=t,
        t_parity="even" if t % 2 == 0 else "odd",
        k=k,
        gcd_chain=(sol.g, math.gcd(4, k % 4)),
        solvable=sol.solvable,
        j0=sol.j0,
        n_over_8_integral=n % 8 == 0,
        turyn_excluded=t % 2 == 0,
        degenerate_multiplier=k == 0,
    )
