"""Difference-count tables and exact spectral verdicts for index sets.

The index set J of a candidate row is the set of positions carrying -1
(a uniform shift of the set of surviving root powers, which changes
nothing below: every quantity here depends only on differences s - t).
For each Fourier mode k the table counts ordered pairs (s, t) in J x J
by the residue class of k*(s - t); the squared eigenvalue modulus of the
associated row is, up to the weight convention at k = 0, four times the
pair sum over those classes.

Only the mode-1 table is counted, by rotations of one bit mask.  Every
other quantity of mode k comes from one fold of it: with g = gcd(k, n),
the mode-1 table folded mod n/g.  The root power k is a Galois
conjugate of the root power g (both are primitive roots of order n/g),
so one canonical zero test of 4*fold - n in that subfield decides
flatness for every mode with that gcd.  The same fold gives mode k's
table in class order: with k = g*k' and u the inverse of k' mod n/g,
mode k counts fold[u*l/g mod n/g] in class l when g divides l, and
nothing otherwise.  One private helper reads that remap, one the cosine
coordinates counts[l] - counts[n/2 - l]; ``difference_counts`` (k != 1),
``basis_coefficients``, ``mode_verdict`` and ``spectral_verdict`` all go
through them, so a table is never recounted per mode.  ``spectral_verdict``
folds each divisor once; ``mode_verdict`` counts, folds and zero-tests
once for its one mode.

Mode k = 0 is deliberately evaluated with the same pair-sum form as
every other mode, so it passes only when 4*|J|^2 = n.  The k = 0
eigenvalue of an actual candidate row is governed by the balanced
weight count instead (condition 2 in the sequences module); the two
views agree on every order where candidates exist.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycloElement, RealBasisVector, from_integer
from .sequences import IndexSet


@dataclass(frozen=True)
class DifferenceCounts:
    """Ordered-pair counts by residue class: counts[l] = #{(s, t) : k(s-t) = l mod n}.

    Invariants: the counts sum to |J|^2, counts[l] = counts[n-l], and
    counts[0] >= |J| (the diagonal pairs).
    """

    n: int
    k: int
    counts: tuple[int, ...]


def difference_counts(index_set: IndexSet, k: int) -> DifferenceCounts:
    n = index_set.n
    if not 0 <= k < n:
        raise ValueError(f"mode index k must lie in [0, {n - 1}], got {k}")
    # The pairs (s, t) with s - t = d mod n are the members J shares with
    # J rotated by d: one AND of n-bit masks per d, not one step per pair.
    mask = sum(1 << s for s in index_set.members)
    doubled = mask | mask << n
    counts = [(mask & doubled >> d).bit_count() for d in range(n)]
    if k != 1:
        counts = _mode_table(CycloElement(n, tuple(counts)).fold(n // math.gcd(k, n)).coeffs, n, k, n)
    return DifferenceCounts(n=n, k=k, counts=tuple(counts))


def _mode_table(fold: tuple[int, ...], n: int, k: int, size: int) -> list[int]:
    """Mode k's counts in classes 0..size-1, from the mode-1 table folded mod n/gcd(k, n)."""
    m = len(fold)
    g = n // m
    u = pow(k // g, -1, m)
    table = [0] * size
    table[::g] = [fold[u * j % m] for j in range((size - 1) // g + 1)]
    return table


def _coordinates(counts, n: int) -> RealBasisVector:
    """Cosine-basis coordinates of a mode table: coordinate l is counts[l] - counts[n/2 - l]."""
    quarter, half = n // 4, n // 2
    return RealBasisVector(n, tuple(map(operator.sub, counts[:quarter], counts[half:quarter:-1])))


def basis_coefficients(table: DifferenceCounts) -> RealBasisVector:
    """Cosine-basis coordinates of the pair sum: coordinate l is counts[l] - counts[n/2 - l].

    Exactly agrees with reducing the pair-sum element through the
    cyclotomic module (the conjugate pair at l carries one cosine unit,
    and classes past the quarter fold back with a sign).  The order must
    be divisible by 4.
    """
    return _coordinates(table.counts, table.n)


@dataclass(frozen=True)
class IndexMapVerdict:
    """Result of checking the mode-k table against the remapped mode-1 table."""

    n: int
    k: int
    passed: bool
    mismatches: tuple[tuple[int, int, int], ...]  # (class, direct, remapped)


def index_map_check(index_set: IndexSet, k: int) -> IndexMapVerdict:
    """Verify that multiplying the mode merges difference classes d into k*d mod n.

    The mode-k count of class l must equal the sum of mode-1 counts over
    all classes d with k*d = l (mod n): the mode-k table, read from the
    fold of the mode-1 table as every verdict reads it, is checked
    against ``CycloElement.power_map(k)`` of the mode-1 table.
    """
    n = index_set.n
    if not 1 <= k < n:
        raise ValueError(f"mode index k must lie in [1, {n - 1}], got {k}")
    direct = difference_counts(index_set, k).counts
    remapped = CycloElement(n, difference_counts(index_set, 1).counts).power_map(k).coeffs
    mismatches = tuple(
        (l, direct[l], remapped[l]) for l in range(n) if direct[l] != remapped[l]
    )
    return IndexMapVerdict(n=n, k=k, passed=not mismatches, mismatches=mismatches)


@dataclass(frozen=True)
class ConstantTermVerdict:
    """The constant-coordinate law 4*(counts[0] - counts[n/2]) = n for one mode.

    ``required_half_count`` is the value counts[n/2] would need, namely
    (4*counts[0] - n)/4, kept as an exact fraction since it need not be
    integral.
    """

    n: int
    k: int
    passed: bool
    lhs: int
    required_half_count: Fraction


def constant_term_check(index_set: IndexSet, k: int) -> ConstantTermVerdict:
    n = index_set.n
    if n % 4:
        raise ValueError("the constant-coordinate law needs an order divisible by 4")
    table = difference_counts(index_set, k)
    lhs = 4 * basis_coefficients(table).coeffs[0]
    required = Fraction(4 * table.counts[0] - n, 4)
    return ConstantTermVerdict(
        n=n, k=k, passed=lhs == n, lhs=lhs, required_half_count=required
    )


@dataclass(frozen=True)
class ModeVerdict:
    """Per-mode spectral status for one k."""

    k: int
    constant_term_ok: bool
    coefficients: RealBasisVector
    mag_sq_equals_order: bool


@dataclass(frozen=True)
class SpectralVerdict:
    """Whether 4 * sum over J x J of the k(s-t) root powers equals n for every mode."""

    n: int
    index_set: IndexSet
    per_mode: tuple[ModeVerdict, ...]
    overall: bool


def _divisor_fold(pair_sum: CycloElement, g: int) -> tuple[tuple[int, ...], bool]:
    """The mode-1 table folded mod n/g, and whether 4*fold - n is zero in that subfield."""
    folded = pair_sum.fold(pair_sum.n // g)
    return folded.coeffs, (folded * 4 - from_integer(folded.n, pair_sum.n)).is_zero()


def _mode_verdict(n: int, k: int, fold: tuple[int, ...], flat: bool) -> ModeVerdict:
    """Mode k's verdict from its divisor's fold and that fold's zero test."""
    coeffs = _coordinates(_mode_table(fold, n, k, n // 2 + 1), n)
    return ModeVerdict(k, 4 * coeffs.coeffs[0] == n, coeffs, flat)


def mode_verdict(index_set: IndexSet, k: int) -> ModeVerdict:
    """One mode of ``spectral_verdict``: one table count, one fold and one zero test."""
    n = index_set.n
    if n % 4:
        raise ValueError("spectral verdicts need an order divisible by 4")
    if not 0 <= k < n:
        raise ValueError(f"k must lie in [0, {n - 1}], got {k!r:.60}")
    pair_sum = CycloElement(n, difference_counts(index_set, 1).counts)
    return _mode_verdict(n, k, *_divisor_fold(pair_sum, math.gcd(k, n)))


def spectral_verdict(index_set: IndexSet) -> SpectralVerdict:
    """Evaluate every mode of an index set in exact cyclotomic arithmetic.

    Mode k's pair sum is the power map k of mode 1's; 4 times it minus n
    is zero-tested once per divisor g of n, on the mode-1 table folded
    mod n/g.  The cosine coordinates and the constant-coordinate law of
    every mode with gcd(k, n) = g are read from that same fold (see the
    module docstring).  Mode 0 uses the same pair-sum form (see the
    module docstring for the weight convention this implies).
    """
    n = index_set.n
    if n % 4:
        raise ValueError("spectral verdicts need an order divisible by 4")
    half = n // 2
    pair_sum = CycloElement(n, difference_counts(index_set, 1).counts)
    folds = {g: _divisor_fold(pair_sum, g) for g in range(1, n + 1) if n % g == 0}
    modes = [_mode_verdict(n, k, *folds[math.gcd(k, n)]) for k in range(half + 1)]
    # Mode n-k has mode k's table, as the mode-1 counts are symmetric.
    modes += [ModeVerdict(n - m.k, m.constant_term_ok, m.coefficients, m.mag_sq_equals_order)
              for m in reversed(modes[1:half])]
    return SpectralVerdict(
        n=n,
        index_set=index_set,
        per_mode=tuple(modes),
        overall=all(m.mag_sq_equals_order for m in modes),
    )
