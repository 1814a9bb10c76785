"""Exact arithmetic with integer combinations of n-th roots of unity.

An element is stored as a dense integer coefficient vector, entry e
multiplying the e-th power of the primitive n-th root.  Equality and the
zero test are canonical: an element is zero exactly when its coefficient
polynomial reduces to zero modulo the n-th cyclotomic polynomial, which
is a decision procedure independent of any particular spanning set.
One monic long division does both jobs: it builds the cyclotomic
polynomial from x^n - 1 and the polynomials of the proper divisors of n,
and its remainder on an element is that element's canonical residue.

The power map g of an element, for g dividing n, lies in the subfield
generated by the primitive (n/g)-th root w_n^g.  ``fold`` gives it as an
order-n/g element (coefficients summed by residue mod n/g), so its zero
test is one division modulo the cyclotomic polynomial of order n/g, not
of order n; it decides the power map k for every k with gcd(k, n) = g.

The module also provides the first-quadrant cosine basis used for
spectral analysis: the real numbers 1, 2cos(2*pi/n), 2cos(4*pi/n), ...
up to index n/4 - 1.  Coordinates over it are ``RealBasisVector``s, and
an exact integer row echelon reports whether the basis members are
actually linearly independent for a given order (they are not for every
order divisible by 4, e.g. n = 36).

Coefficients are plain Python integers throughout, so nothing here can
overflow or round.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Integer polynomials, dense tuples with the constant term first.

def _poly_divmod(num: Sequence[int], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of integer polynomials by a monic divisor.

    Every divisor used here is a cyclotomic polynomial, hence monic, so
    every division step is exact over the integers.
    """
    assert den[-1] == 1
    deg_d = len(den) - 1
    work = list(num)
    # A numerator below the divisor's degree skips the loop: no quotient, itself the remainder.
    quot = [0] * (len(work) - deg_d)
    # Cyclotomic polynomials are sparse (x^48 - x^24 + 1 for order 144),
    # so each step subtracts only the divisor's nonzero terms.
    terms = [(j, d) for j, d in enumerate(den) if d]
    for i in range(len(work) - 1, deg_d - 1, -1):
        f = work[i]
        if f:
            quot[i - deg_d] = f
            for j, d in terms:
                work[i - deg_d + j] -= f * d
    return tuple(quot), tuple(work[:deg_d])


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of all
    proper divisors of n; every division is exact.

    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(16)
    (1, 0, 0, 0, 0, 0, 0, 0, 1)
    """
    if n < 1:
        raise ValueError("cyclotomic polynomials are indexed by positive integers")
    poly: tuple[int, ...] = tuple([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert not any(rem)
    return poly


# ---------------------------------------------------------------------------
# Ring elements.

@dataclass(frozen=True)
class CycloElement:
    """An integer combination of the n-th roots of unity.

    ``coeffs[e]`` multiplies the e-th root power.  Structural equality
    (``==``) compares coefficient vectors; value equality is
    ``(a - b).is_zero()``, which reduces modulo the cyclotomic
    polynomial and is the canonical test.
    """

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("root order must be positive")
        if len(self.coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(self.coeffs)}")

    def _check_order(self, other: CycloElement) -> None:
        if self.n != other.n:
            raise ValueError(f"root order mismatch: {self.n} vs {other.n}")

    def __add__(self, other: CycloElement) -> CycloElement:
        self._check_order(other)
        return CycloElement(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: CycloElement) -> CycloElement:
        self._check_order(other)
        return CycloElement(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> CycloElement:
        return CycloElement(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other: CycloElement | int) -> CycloElement:
        if isinstance(other, int):
            return CycloElement(self.n, tuple(a * other for a in self.coeffs))
        self._check_order(other)
        n = self.n
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        idx = i + j
                        if idx >= n:
                            idx -= n
                        out[idx] += a * b
        return CycloElement(n, tuple(out))

    __rmul__ = __mul__

    def power_map(self, k: int) -> CycloElement:
        """Ring map on coefficient vectors: root power e goes to k*e mod n.

        The Galois automorphism sigma_k when gcd(k, n) = 1; for other k the
        image depends on the coefficient vector, not only on its value.
        """
        n = self.n
        out = [0] * n
        for e, a in enumerate(self.coeffs):
            out[k * e % n] += a
        return CycloElement(n, tuple(out))

    def fold(self, m: int) -> CycloElement:
        """The power map n/m read as an order-m element, for m dividing n.

        Coefficient r sums the coefficients at every e = r (mod m): the
        root power n/m is a primitive m-th root, so
        sum_e a_e w_n^(e*n/m) = sum_r fold[r] w_m^r.  Built as one
        column sum over the n/m consecutive length-m slices.
        """
        n = self.n
        if m < 1 or n % m:
            raise ValueError(f"fold order {m} does not divide {n}")
        c = self.coeffs
        return CycloElement(m, tuple(map(sum, zip(*[c[i : i + m] for i in range(0, n, m)]))))

    def residue(self) -> tuple[int, ...]:
        """Canonical representative modulo the n-th cyclotomic polynomial.

        The remainder of the same long division that builds the polynomial.
        """
        return _poly_divmod(self.coeffs, cyclotomic_polynomial(self.n))[1]

    def is_zero(self) -> bool:
        """Canonical zero test: the residue vanishes identically."""
        return not any(self.residue())


def from_integer(n: int, value: int) -> CycloElement:
    """The rational integer ``value`` as an order-n element."""
    if n < 1:
        raise ValueError("root order must be positive")
    coeffs = [0] * n
    coeffs[0] = value
    return CycloElement(n, tuple(coeffs))


# ---------------------------------------------------------------------------
# The first-quadrant cosine basis of the real subfield.

@dataclass(frozen=True)
class RealBasisVector:
    """Integer coordinates over the cosine basis for an order divisible by 4.

    ``coeffs[0]`` multiplies 1 and ``coeffs[l]`` (l >= 1) multiplies
    2cos(2*pi*l/n), for l up to n/4 - 1.  The quarter-period cosine
    2cos(pi/2) = 0 is represented by nothing at all.
    """

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 4 or self.n % 4:
            raise ValueError("cosine-basis coordinates need an order divisible by 4")
        if len(self.coeffs) != self.n // 4:
            raise ValueError(f"expected {self.n // 4} coordinates, got {len(self.coeffs)}")


@dataclass(frozen=True)
class RankReport:
    """Exact rank of the cosine basis candidates over the rationals."""

    n: int
    basis_size: int
    rank: int
    euler_half: int
    independent: bool


def _integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by a content-reduced row echelon.

    A row with entry f at a pivot's column, p the pivot's own entry there,
    becomes p*row - f*pivot divided by the gcd of its entries.  A row still
    nonzero after every pivot so far is a new pivot at its first nonzero
    column.  It is zero at each earlier pivot's column, so the pivots are
    independent, and every row lies in their span.
    """
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        row = list(row)
        for col, prow in pivots:
            f = row[col]
            if f:
                p = prow[col]
                row = [p * a - f * b for a, b in zip(row, prow)]
                g = math.gcd(*row)
                if g > 1:
                    row = [a // g for a in row]
        lead = next((c for c, a in enumerate(row) if a), None)
        if lead is not None:
            pivots.append((lead, row))
    return len(pivots)


# The largest order the ``basis-rank`` command ranks: n/4 dense rows of
# length n cost about 4x time per doubling of n (0.51 s and 38 MB peak at
# n = 4000, CPython 3.11 on one core of a 2-core Xeon).
MAX_BASIS_RANK_ORDER = 4000


def real_basis_rank(n: int) -> RankReport:
    """Rank diagnostics for the cosine basis candidates of order n.

    Candidate l has a unit at root powers l and n - l (one unit at power
    0 for l = 0); the rank of the candidates' canonical residues is
    exact.  The degree of the real subfield is phi(n)/2, so the rank can
    never exceed that; whenever n/4 exceeds phi(n)/2 the candidates are
    necessarily dependent and the report says so.  phi(n) is read as the
    degree of the cyclotomic polynomial the residues are taken modulo.
    """
    if n < 4 or n % 4:
        raise ValueError("rank diagnostics need an order divisible by 4")
    cyclo = cyclotomic_polynomial(n)
    rows = []
    for l in range(n // 4):
        coeffs = [0] * n
        coeffs[l] = coeffs[-l] = 1  # -0 is 0: row 0 is the single unit
        rows.append(_poly_divmod(coeffs, cyclo)[1])
    rank = _integer_rank(rows)
    return RankReport(
        n=n,
        basis_size=n // 4,
        rank=rank,
        euler_half=(len(cyclo) - 1) // 2,
        independent=rank == n // 4,
    )
