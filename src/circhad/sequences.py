"""Binary sign sequences and exact circulant-Hadamard verification.

A length-n row of +1/-1 signs determines a circulant matrix whose i-th
row is the first row cyclically shifted i places.  The matrix satisfies
H Ht = n I exactly when every off-phase periodic autocorrelation of the
row vanishes.  Everything here is exact: autocorrelations are machine
integers bounded by n, and all eigenvalue work is routed through the
cyclotomic module instead of floating point.

Text form used by the CLI and report files: '+' for +1 and '-' for -1,
so "-+++" is the row (-1, 1, 1, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclotomic import CycloElement, from_integer

_SIGN_OF_CHAR = {"+": 1, "-": -1}


@dataclass(frozen=True)
class Sequence:
    """An immutable row of signs, each exactly +1 or -1."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a sequence needs at least one entry")
        for e in self.entries:
            if e != 1 and e != -1:
                raise ValueError(f"sequence entries must be +1 or -1, got {e!r}")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def from_string(cls, text: str) -> Sequence:
        """Parse the '+'/'-' text form."""
        entries = []
        for ch in text:
            sign = _SIGN_OF_CHAR.get(ch)
            if sign is None:
                raise ValueError(f"invalid sign character {ch!r} (expected '+' or '-')")
            entries.append(sign)
        return cls(tuple(entries))

    def to_string(self) -> str:
        return "".join("+" if e == 1 else "-" for e in self.entries)


@dataclass(frozen=True)
class IndexSet:
    """A sorted, duplicate-free subset of the residues [0, n)."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("order must be positive")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be sorted and distinct")
        if self.members and not (0 <= self.members[0] and self.members[-1] < self.n):
            raise ValueError("members must lie in [0, n)")

    def __len__(self) -> int:
        return len(self.members)


def autocorrelation(seq: Sequence) -> tuple[int, ...]:
    """Periodic autocorrelation r with r[t] = sum_i h_i * h_{(i+t) mod n}.

    Always r[0] = n, r[t] = r[n-t], and every r[t] has the parity of n.
    """
    h = seq.entries
    n = len(h)
    return tuple(sum(h[i] * h[(i + t) % n] for i in range(n)) for t in range(n))


def is_circulant_hadamard(seq: Sequence) -> bool:
    """True iff every off-phase autocorrelation is zero.

    Equivalent to the circulant matrix built from the row satisfying
    H Ht = n I exactly (see ``has_orthogonal_rows`` for the matrix-level
    check).  Shifts past n/2 are covered by the r[t] = r[n-t] symmetry.
    """
    h = seq.entries
    n = len(h)
    for t in range(1, n // 2 + 1):
        if sum(h[i] * h[(i + t) % n] for i in range(n)) != 0:
            return False
    return True


def has_orthogonal_rows(seq: Sequence) -> bool:
    """Exact matrix-level check that H Ht = n I for the circulant matrix.

    Deliberately computed as a full row-by-row inner product of the
    matrix rows, independent of the autocorrelation shortcut.  Row i is
    the first row cyclically shifted i places right, the rotation slice
    ``h[n-i:] + h[:n-i]``, built only when its product is taken, so
    memory stays O(n) and the first product that is off stops the check.
    """
    h = seq.entries
    n = len(h)
    for i in range(n):
        ri = h[n - i :] + h[: n - i]
        for j in range(i, n):
            dot = sum(a * b for a, b in zip(ri, h[n - j :] + h[: n - j]))
            if dot != (n if i == j else 0):
                return False
    return True


def has_flat_spectrum(seq: Sequence) -> bool:
    """True iff |eigenvalue_k|^2 - n reduces to zero for every k.

    Mode k's element is the power map k of mode 1's, a Galois conjugate of
    the power map g = gcd(k, n), so one canonical zero test per divisor g,
    on the element folded into the subfield of order m = n/g, decides every
    mode.  The smallest subfields come first; the walk stops at the first
    failure.
    """
    n = seq.n
    r = CycloElement(n, autocorrelation(seq)) - from_integer(n, n)
    return all(r.fold(m).is_zero() for m in range(1, n + 1) if n % m == 0)


def minus_indices(seq: Sequence) -> IndexSet:
    """The sorted set of positions holding -1."""
    return IndexSet(seq.n, tuple(i for i, e in enumerate(seq.entries) if e == -1))


def expected_minus_counts(n: int) -> tuple[int, int] | None:
    """The two -1 multiplicities an order-n candidate row may carry.

    An order-n circulant Hadamard row must have (n - sqrt(n))/2 or
    (n + sqrt(n))/2 entries equal to -1; returns None when n is not a
    perfect square (no candidate weight exists at all).
    """
    s = math.isqrt(n)
    if s * s != n:
        return None
    return ((n - s) // 2, (n + s) // 2)


@dataclass(frozen=True)
class EvenOrderVerdict:
    """Necessary condition 1: the order of a circulant Hadamard matrix is even.

    Order 1 fails the evenness check but is the trivial 1x1 exception,
    flagged separately so callers can report it rather than error.
    """

    n: int
    passed: bool
    trivial_exception: bool


def even_order_check(n: int) -> EvenOrderVerdict:
    if n < 1:
        raise ValueError("order must be positive")
    return EvenOrderVerdict(n=n, passed=n % 2 == 0, trivial_exception=n == 1)


@dataclass(frozen=True)
class SquareWeightVerdict:
    """Necessary condition 2: square order and the balanced -1 count.

    ``case`` records which of the two admissible counts matched:
    "minus" for (n - sqrt(n))/2, "plus" for (n + sqrt(n))/2.
    """

    n: int
    passed: bool
    is_square: bool
    minus_count: int
    expected: tuple[int, int] | None
    case: str | None


def square_weight_check(seq: Sequence) -> SquareWeightVerdict:
    n = seq.n
    count = sum(1 for e in seq.entries if e == -1)
    expected = expected_minus_counts(n)
    if expected is None:
        return SquareWeightVerdict(n, False, False, count, None, None)
    case = None
    if count == expected[0]:
        case = "minus"
    elif count == expected[1]:
        case = "plus"
    return SquareWeightVerdict(n, case is not None, True, count, expected, case)
