"""Exact arithmetic with integer combinations of n-th roots of unity.

An element is stored as a dense integer coefficient vector, entry e
multiplying the e-th power of the primitive n-th root.  Equality and the
zero test are canonical: an element is zero exactly when its coefficient
polynomial reduces to zero modulo the n-th cyclotomic polynomial, which
is a decision procedure independent of any particular spanning set.
One monic long division does both jobs: it builds the cyclotomic
polynomial from x^n - 1 and the polynomials of the proper divisors of n,
and its remainder on an element is that element's canonical residue.

The module also provides the first-quadrant cosine basis used for
spectral analysis: the real numbers 1, 2cos(2*pi/n), 2cos(4*pi/n), ...
up to index n/4 - 1.  Real (conjugation-symmetric) elements fold onto
this basis through the sign identities of the cosine, and an exact
fraction-free rank computation reports whether the basis members are
actually linearly independent for a given order (they are not for every
order divisible by 4, e.g. n = 36).

Coefficients are plain Python integers throughout, so nothing here can
overflow or round.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass


def euler_phi(n: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if n < 1:
        raise ValueError("totient needs a positive argument")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


# ---------------------------------------------------------------------------
# Integer polynomials, dense tuples with the constant term first.

def _poly_divmod(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of integer polynomials by a monic divisor.

    Every divisor used here is a cyclotomic polynomial, hence monic, so
    every division step is exact over the integers.
    """
    assert den[-1] == 1
    deg_d = len(den) - 1
    work = list(num)
    if len(work) <= deg_d:
        return (), tuple(work)
    quot = [0] * (len(work) - deg_d)
    for i in range(len(work) - 1, deg_d - 1, -1):
        f = work[i]
        if f:
            quot[i - deg_d] = f
            for j, d in enumerate(den):
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

    @classmethod
    def zero(cls, n: int) -> CycloElement:
        return cls(n, (0,) * n)

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

    def zero_at_powers(self) -> Iterator[bool]:
        """Lazily yield, for k = 0..n-1, whether ``power_map(k)`` is zero.

        The root power k is a Galois conjugate of the root power gcd(k, n),
        so one canonical zero test per divisor of n decides every k.
        """
        by_divisor: dict[int, bool] = {}
        for k in range(self.n):
            g = math.gcd(k, self.n)
            if g not in by_divisor:
                by_divisor[g] = self.power_map(g).is_zero()
            yield by_divisor[g]

    def conjugate(self) -> CycloElement:
        """Complex conjugation: root power e maps to n - e."""
        return self.power_map(-1)

    def residue(self) -> tuple[int, ...]:
        """Canonical representative modulo the n-th cyclotomic polynomial.

        The remainder of the same long division that builds the polynomial.
        """
        return _poly_divmod(self.coeffs, cyclotomic_polynomial(self.n))[1]

    def is_zero(self) -> bool:
        """Canonical zero test: the residue vanishes identically."""
        return not any(self.residue())

    def equivalent(self, other: CycloElement) -> bool:
        """Value equality under canonical reduction."""
        return (self - other).is_zero()


def root_power(n: int, e: int) -> CycloElement:
    """The element carrying a single unit at root power e mod n."""
    if n < 1:
        raise ValueError("root order must be positive")
    coeffs = [0] * n
    coeffs[e % n] = 1
    return CycloElement(n, tuple(coeffs))


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

    def to_cyclo_element(self) -> CycloElement:
        """Re-expand onto root powers: coordinate l becomes the conjugate pair l, n-l."""
        n = self.n
        out = [0] * n
        out[0] = self.coeffs[0]
        for l in range(1, n // 4):
            c = self.coeffs[l]
            if c:
                out[l] += c
                out[n - l] += c
        return CycloElement(n, tuple(out))


def reduce_to_real_basis(a: CycloElement) -> RealBasisVector:
    """Fold a real element onto the first-quadrant cosine basis.

    The input must be conjugation-symmetric (coeffs[e] == coeffs[n-e]),
    i.e. a real number.  Conjugate pairs e, n-e carry weight on the
    cosine of index e; indices past the quarter fold back with a sign
    via 2cos(2*pi*(n/2 - e)/n) = -2cos(2*pi*e/n), the half-turn root is
    -1, and the quarter-turn cosine is zero.  Re-expanding the result
    always yields an element canonically equal to the input.
    """
    n = a.n
    if n % 4:
        raise ValueError("cosine-basis reduction needs an order divisible by 4")
    c = a.coeffs
    for e in range(1, n):
        if c[e] != c[n - e]:
            raise ValueError("element is not conjugation-symmetric, so not a real number")
    quarter, half = n // 4, n // 2
    out = [0] * quarter
    out[0] = c[0] - c[half]
    for e in range(1, half):
        w = c[e]
        if not w or e == quarter:
            continue
        if e < quarter:
            out[e] += w
        else:
            out[half - e] -= w
    return RealBasisVector(n, tuple(out))


@dataclass(frozen=True)
class RankReport:
    """Exact rank of the cosine basis candidates over the rationals."""

    n: int
    basis_size: int
    rank: int
    euler_half: int
    independent: bool


def _integer_rank(rows: list[tuple[int, ...]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivval = m[rank][col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            row = m[r]
            prow = m[rank]
            for c in range(col, ncols):
                num = pivval * row[c] - factor * prow[c]
                q, rem = divmod(num, prev)
                assert rem == 0
                row[c] = q
        prev = pivval
        rank += 1
        if rank == nrows:
            break
    return rank


def real_basis_rank(n: int) -> RankReport:
    """Rank diagnostics for the cosine basis candidates of order n.

    Each candidate is expressed as a root-power element, reduced to its
    canonical residue, and the resulting integer matrix is eliminated
    fraction-free.  The degree of the real subfield is phi(n)/2, so the
    rank can never exceed that; whenever n/4 exceeds phi(n)/2 the
    candidates are necessarily dependent and the report says so.
    """
    if n < 4 or n % 4:
        raise ValueError("rank diagnostics need an order divisible by 4")
    rows = [root_power(n, 0).residue()]
    for l in range(1, n // 4):
        rows.append((root_power(n, l) + root_power(n, n - l)).residue())
    rank = _integer_rank(rows)
    return RankReport(
        n=n,
        basis_size=n // 4,
        rank=rank,
        euler_half=euler_phi(n) // 2,
        independent=rank == n // 4,
    )
