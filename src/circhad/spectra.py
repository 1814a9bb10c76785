"""Difference-count tables and exact spectral verdicts for index sets.

The index set J of a candidate row is the set of positions carrying -1
(a uniform shift of the set of surviving root powers, which changes
nothing below: every quantity here depends only on differences s - t).
For each Fourier mode k the table counts ordered pairs (s, t) in J x J
by the residue class of k*(s - t); the squared eigenvalue modulus of the
associated row is, up to the weight convention at k = 0, four times the
pair sum over those classes.

Only the mode-1 table is counted, by rotations of one bit mask.  Mode
k's table is its power map k, the classes d merged into k*d mod n; that
is what ``difference_counts`` (k != 1) returns, and ``index_map_check``
compares it with a direct count of the pairs.  The verdicts read every
mode from one fold of the mode-1 table: with g = gcd(k, n), the table
folded mod n/g.  The root power k is a Galois conjugate of the root
power g (both are primitive roots of order n/g), so one canonical zero
test of fold - n/4 in that subfield decides flatness for every mode
with that gcd.  The same fold gives mode k's cosine coordinates
counts[l] - counts[n/2 - l] for l < n/4: one gather, through a cached
row of n/4 positions per mode, of a cosine vector built once per
divisor from the fold.  ``_mode_verdict`` is the only reader of those
rows; ``basis_coefficients`` and ``constant_term_check`` read the whole
table they are given, so they check the verdicts without the remap.
``spectral_verdict`` folds each divisor once and holds n/2 + 1 rows,
(n/2 + 1)*n/4 positions; ``mode_verdict`` counts, folds and zero-tests
once and builds only its own row.

Mode k = 0 is deliberately evaluated with the same pair-sum form as
every other mode, so it passes only when 4*|J|^2 = n.  The k = 0
eigenvalue of an actual candidate row is governed by the balanced
weight count instead (condition 2 in the sequences module); the two
views agree on every order where candidates exist.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .cyclotomic import CycloElement, RealBasisVector
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
    counts = tuple((mask & doubled >> d).bit_count() for d in range(n))
    if k != 1:
        # Mode k merges the mode-1 classes d into k*d mod n.
        counts = CycloElement(n, counts).power_map(k).coeffs
    return DifferenceCounts(n=n, k=k, counts=counts)


@functools.cache
def _mode_index(n: int, k: int) -> tuple[int, ...]:
    """For mode k <= n/2 at n = 0 mod 4, the cosine-vector position it reads in each class l < n/4.

    With g = gcd(k, n), m = n/g and u the inverse of k/g mod m, mode k
    reads fold position u*l/g mod m in class l when g divides l.  With m
    odd, a class l whose mirror n/2 - l g divides instead reads
    m + u*(n/2 - l)/g mod m, which holds -fold (see ``_divisor_vector``).
    Every other class reads the sentinel -1, the zero at the end of the
    vector.
    """
    quarter, half = n // 4, n // 2
    g = math.gcd(k, n)
    m = n // g
    u = pow(k // g, -1, m)
    index = [-1] * quarter
    index[::g] = [u * (l // g) % m for l in range(0, quarter, g)]
    if m % 2:
        index[half % g :: g] = [m + u * ((half - l) // g) % m for l in range(half % g, quarter, g)]
    return tuple(index)


def _gather(vector: tuple[int, ...], index: tuple[int, ...]) -> tuple[int, ...]:
    """The entries of vector at the positions in index, in one ``itemgetter`` pass."""
    if len(index) == 1:  # itemgetter returns a bare entry for one position
        return (vector[index[0]],)
    return operator.itemgetter(*index)(vector)


def basis_coefficients(table: DifferenceCounts) -> RealBasisVector:
    """Cosine-basis coordinates of the pair sum: coordinate l is counts[l] - counts[n/2 - l].

    Exactly agrees with the tests' oracle in ``tests/oracles.py``, which
    folds the pair-sum element onto the cosine basis (the conjugate pair
    at l carries one cosine unit, and classes past the quarter fold back
    with a sign).  The order must be divisible by 4.  The table is given
    whole, so no remap is read.
    """
    counts, quarter, half = table.counts, table.n // 4, table.n // 2
    return RealBasisVector(table.n, tuple(map(operator.sub, counts[:quarter], counts[half:quarter:-1])))


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
    all classes d with k*d = l (mod n): the mode-k table, which is
    ``CycloElement.power_map(k)`` of the mode-1 table, is checked against
    a direct count of the pairs (s, t) in J x J by k*(s - t) mod n.
    """
    n = index_set.n
    if not 1 <= k < n:
        raise ValueError(f"mode index k must lie in [1, {n - 1}], got {k}")
    members = index_set.members
    direct = [0] * n
    for s in members:
        for t in members:
            direct[k * (s - t) % n] += 1
    remapped = difference_counts(index_set, k).counts
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
    from fractions import Fraction  # loaded only where the check runs

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


def _divisor_vector(pair_sum: CycloElement, g: int) -> tuple[tuple[int, ...], bool]:
    """Mode g's cosine vector, and whether fold - n/4 is zero, for the mode-1 table folded mod m = n/g.

    A mode with this gcd reads cosine coordinate l at its remap position
    of class l.  For even m, position x holds fold[x] - fold[m/2 - x]:
    coordinate l is counts[l] - counts[n/2 - l], and u*n/(2g) = m/2
    mod m as u is odd.  For odd m exactly one of l and n/2 - l is a
    multiple of g, so the vector is fold, then -fold.  A trailing 0
    serves the sentinel.
    """
    n = pair_sum.n
    fold = pair_sum.fold(n // g).coeffs
    flat = CycloElement(len(fold), (fold[0] - n // 4,) + fold[1:]).is_zero()
    half, odd = divmod(len(fold), 2)
    if odd:
        return fold + tuple(-c for c in fold) + (0,), flat
    return tuple(map(operator.sub, fold, fold[half::-1] + fold[:half:-1])) + (0,), flat


def _mode_verdict(n: int, k: int, vector: tuple[int, ...], flat: bool) -> ModeVerdict:
    """Mode k's verdict from its divisor's cosine vector and zero test, gathered through its remap row."""
    # Mode n-k has mode k's table.
    coeffs = RealBasisVector(n, _gather(vector, _mode_index(n, min(k, n - k))))
    return ModeVerdict(k, 4 * coeffs.coeffs[0] == n, coeffs, flat)


def mode_verdict(index_set: IndexSet, k: int) -> ModeVerdict:
    """One mode of ``spectral_verdict``: one table count, one fold and one zero test."""
    n = index_set.n
    if n % 4:
        raise ValueError("spectral verdicts need an order divisible by 4")
    if not 0 <= k < n:
        raise ValueError(f"k must lie in [0, {n - 1}], got {k!r:.60}")
    pair_sum = CycloElement(n, difference_counts(index_set, 1).counts)
    return _mode_verdict(n, k, *_divisor_vector(pair_sum, math.gcd(k, n)))


def spectral_verdict(index_set: IndexSet) -> SpectralVerdict:
    """Evaluate every mode of an index set in exact cyclotomic arithmetic.

    Mode k's pair sum is the power map k of mode 1's; 4 times it minus n
    is zero-tested once per divisor g of n, on the mode-1 table folded
    mod n/g.  The cosine coordinates and the constant-coordinate law of
    every mode with gcd(k, n) = g are one gather from that fold's cosine
    vector (see the module docstring).  Mode 0 uses the same pair-sum
    form (see the module docstring for the weight convention this
    implies).
    """
    n = index_set.n
    if n % 4:
        raise ValueError("spectral verdicts need an order divisible by 4")
    half = n // 2
    pair_sum = CycloElement(n, difference_counts(index_set, 1).counts)
    vectors = {g: _divisor_vector(pair_sum, g) for g in range(1, n + 1) if n % g == 0}
    modes = [_mode_verdict(n, k, *vectors[math.gcd(k, n)]) for k in range(half + 1)]
    # Mode n-k has mode k's table, as the mode-1 counts are symmetric.
    modes += [ModeVerdict(n - m.k, m.constant_term_ok, m.coefficients, m.mag_sq_equals_order)
              for m in reversed(modes[1:half])]
    return SpectralVerdict(
        n=n,
        index_set=index_set,
        per_mode=tuple(modes),
        overall=all(m.mag_sq_equals_order for m in modes),
    )
