"""Brute-force and pruned enumeration of candidate rows.

This is the ground-truth oracle for everything else in the package: it
visits sign rows directly and keeps only those whose circulant matrix is
exactly Hadamard.  Three strategies are provided and must always agree
on what they find:

* ``exhaustive``        -- all 2^n rows (bit-sliced walk, exact counts);
* ``weight-constrained``-- only rows carrying one of the two admissible
                           -1 counts for a perfect-square order; the same
                           walker, row test and row order as
                           ``exhaustive``, restricted to those counts;
* ``pruned-dfs``        -- left-to-right sign assignment, backtracking as
                           soon as any partial autocorrelation provably
                           cannot reach zero (magnitude or parity).  All
                           n-1 partial sums live in one packed integer
                           and the assigned -1s in two registers that
                           never shift, so a node costs a few big-integer
                           operations and one guard-bit test, with nothing
                           to undo; parity is implied at even n and cut by
                           the per-depth bounds at odd n once h[1] is set.

Work is split into independent subtrees by fixing the first few entries
(2^P prefixes with 2^P >= 4*jobs up to 2^8; always 2^8, or 2^n below
order 8, with a checkpoint), so results merge
deterministically regardless of scheduling.  Negating a row keeps every
r_t and swaps the two admissible -1 counts, so shard p holds exactly
the negations of shard p ^ mask (mask = 2^P - 1, its mirror) and visits
as many nodes.  At even n, flipping the signs at odd positions sends
every r_t to (-1)^t r_t, for a row and for each partial sum the DFS
bounds, so the labels that take every -1 count (``exhaustive`` and
``pruned-dfs``) have an orbit of four: p, p ^ mask, p ^ alt and
p ^ mask ^ alt, alt the odd positions below P, the rows negated,
alternated or both.  Exactly one member of an orbit lies in the first
quarter, p < 2^(P-2); weighted labels and odd orders keep the pairs, one
member in the first half.  Only the shards there whose orbit has no
finished member run, and every other shard is filled in from a finished
member of its orbit, its rows flipped and put in the order its own
kernel would emit them in (the DFS +1 first, the walkers -1 first; a
mirror's rows are the other's reversed).  Pending shards run in
this process, in prefix order, until the run has taken 50 ms, a margin
over what a process pool costs to start and stop; only the shards left then
go to a pool, and only when at least two workers would run them.  The
pool takes its shards in batches, about 8 per worker; results still
come back, and are logged one line per shard, in prefix order, the
filled-in shards after the computed ones, so a fresh checkpoint lists
every shard in prefix order.  A checkpoint file
must read exactly as this run writes it: its header, then one line per
finished shard, each prefix once, run or filled in alike, and any two
listed members of one orbit each other's image; anything else is
refused.  Every shard
returns its node count and its rows, whatever the strategy; counts of
rows are always the length of a listing.  Every row a strategy emits is
re-verified with the exact integer autocorrelation, and a run's rows
must be closed under rotation and negation, before they are reported.

Rows are represented internally as bit masks (bit i set means entry i is
-1), and r[t] = n - 2*c_t with c_t the number of positions i where
h[i] != h[i+t mod n].  The full enumerations test rows bit-sliced, in
blocks of up to 2^16: a block fixes its first a entries and holds each
free position as an int ("plane"), bit j of a plane being that entry of
row j.  Every block of a shard on the same free positions and -1 counts
has the same planes, so for each shift t <= n/2 the pairs (i, i+t mod n)
split three ways.  Free pairs (both ends free) are summed once per shard
into a bit-sliced counter, which holds every row's count at once, and
reused by all those blocks.  Fixed pairs (both ends fixed) add one
constant, a popcount of the fixed bits against their rotation, taken
off the n/2 target.  Boundary pairs, at most 2t, add a free plane or its
complement, by the fixed entry.  Those whose fixed end lies in the shard
prefix join the shared counter; the rest depend on the block's entries
past the prefix.  The blocks on one (a, ks) run together, ordered by
their fixed entries read from position a - 1 down, so blocks that agree
on the entries a shift reads are adjacent: each shift keeps its last
tally of those boundary pairs, and the mask built from it for each
target, while that pattern repeats.
The rows whose total is the target are kept as a mask, and a block is
done when its mask is empty.  Each c_t is even, so r_t = n (mod 4), and
at any n > 1 not divisible by 4 no counter is built at all.  Rows found
are put back in block order.  Both full enumerations take their blocks
from one generator and their planes from one recursion, which split a
shard's rows, of every -1 count or of the admissible ones, alike: on the
first free position, a -1 there first.  So both walk a shard's rows in
one order, the weighted walk restricted to its counts.  Both count as
nodes the rows of the blocks walked, so a skipped block leaves its
shard short of the label's node rule, which a resume checks on every
shard line as it reads it and ``report`` on the total.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
import re
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .sequences import (
    Sequence,
    even_order_check,
    expected_minus_counts,
    has_orthogonal_rows,
    is_circulant_hadamard,
    minus_indices,
    square_weight_check,
)
from .spectra import spectral_verdict

SCHEMA_VERSION = 1
DEFAULT_LIST_CAP = 1024
MAX_ORDER = 36  # every label; the packed DFS fields are exact up to here
MAX_UNCHECKPOINTED_ROWS = 1 << 24  # a longer full enumeration must be resumable

STRATEGY_EXHAUSTIVE = "exhaustive"
STRATEGY_WEIGHT = "weight-constrained"
STRATEGY_DFS = "pruned-dfs"
STRATEGIES = (STRATEGY_EXHAUSTIVE, STRATEGY_WEIGHT, STRATEGY_DFS)
_SPLIT_BITS = 8  # shards fix at most this many leading entries
# A run starts a process pool only once it has taken this long, in
# nanoseconds, in its own process (the module docstring says why).  A
# 16-task map on a two-worker pool takes 10-40 ms to start and stop on a
# 2-core Xeon; the margin covers slower hosts and wider pools.  A clock,
# not a node count, as rows per second differ a thousandfold by label.
_POOL_BUDGET_NS = 50_000_000


class CapExceeded(RuntimeError):
    """A run was refused because it would exceed a resource cap."""


@dataclass(frozen=True)
class SearchReport:
    """Deterministic summary of one enumeration run.

    ``solutions`` lists the first min(raw_count, cap) rows (sorted text
    form); the counts are always exact even when the listing is cut.
    ``nodes_explored`` is comparable only within one strategy and prefix
    split; solution counts never depend on either.
    """

    schema_version: int
    n: int
    strategy: str
    raw_count: int
    canonical_count: int
    solutions: tuple[str, ...]
    nodes_explored: int
    elapsed_ms: int
    cap: int


_NEGATE = str.maketrans("+-", "-+")


def _orbit(row: str):
    """The n rotations of a row in sign text, then the n rotations of its negation."""
    n = len(row)
    for base in (row, row.translate(_NEGATE)):
        twice = base + base
        for r in range(n):
            yield twice[r : r + n]


def canonicalize(seq: Sequence) -> Sequence:
    """Distinguished representative of the rotation/negation class.

    Candidates are the n rotations of the row and of its negation; the
    representative minimizes (number of -1 entries, entries numerically)
    so the -1-minority form wins and -1 sorts before +1 within it.
    "-+++" is canonical for all eight order-4 solutions.
    """
    # Negation maps the orbit onto itself, and turns the order wanted (by
    # -1 count, then -1 before +1) into the order by +1 count, then text
    # ('+' sorts before '-'): so take the least image by the latter, negated.
    least = min((image.count("+"), image) for image in _orbit(seq.to_string()))
    return Sequence.from_string(least[1].translate(_NEGATE))


# ---------------------------------------------------------------------------
# Shard workers.  Each enumerates the rows whose first ``plen`` entries
# match ``prefix`` and returns (nodes visited, solution bit masks).
# Each label's record in ``_LABELS``, after the workers, holds its worker
# and its node rule: the nodes a shard visits, or a ceiling on them.
#
# The walker's blocks (see the module docstring) come from ``_blocks``
# and are (rows, a, ks, fixed): the rows agree with ``fixed`` before
# position a and run through the free planes of n - a positions (every
# sign, ks None, or a -1 count in ks) from it on, plane m bit j set when
# row j has -1 at position a + m.  rows is the block's row count, so its
# node count; every block on the same (a, ks) has as many.

_BLOCK_BITS = 16  # at most 2^16 rows per block: planes of 8 KiB each


def _rows(b: int, ks: tuple[int, ...] | None) -> int:
    """The rows of b free positions: 2^b (ks None), or C(b, k) over the -1 counts k in ks."""
    return 1 << b if ks is None else sum(math.comb(b, k) for k in ks)


def _split(b: int, ks: tuple[int, ...] | None) -> tuple:
    """The -1 counts the last b - 1 positions hold after a -1 at the first, and after a +1."""
    return (None, None) if ks is None else (tuple(k - 1 for k in ks if k), tuple(k for k in ks if k < b))


@functools.cache
def _planes(b: int, ks: tuple[int, ...] | None) -> tuple[int, ...]:
    """Planes of b free positions over their rows: every sign (ks None) or a -1 count in ks.

    The rows split on the first position, those with a -1 there first,
    and each half the same way on the rest, as ``_blocks`` splits: the
    order of every sign, restricted to the counts in ks (each in 0..b).
    """
    if not b:
        return ()
    first, rest = _split(b, ks)
    split = _rows(b - 1, first)
    return ((1 << split) - 1,) + tuple(w | o << split for w, o in zip(_planes(b - 1, first), _planes(b - 1, rest)))


def _blocks(n: int, a: int, ks: tuple[int, ...] | None, fixed: int):
    """(rows, a, ks, fixed) blocks of the rows fixed before position a, free from it on.

    A set too large for one block is split on position a as ``_planes``
    splits, so a shard's rows come in one order however many blocks hold them.
    """
    rows = _rows(n - a, ks)
    if rows > 1 << _BLOCK_BITS:
        first, rest = _split(n - a, ks)
        yield from _blocks(n, a + 1, first, fixed | 1 << a)
        yield from _blocks(n, a + 1, rest, fixed)
    elif rows:
        yield rows, a, ks, fixed


class _Pairs(NamedTuple):
    """The pairs (i, i+t mod n), i = 0..n-1, of one shift t, split at a fixed width and a prefix."""

    t: int
    fixed: int                              # bit i set when both ends are fixed
    shared: tuple[tuple[int, int], ...]     # (free plane, prefix position)
    boundary: tuple[tuple[int, int], ...]   # (free plane, fixed position past the prefix)
    reads: int                              # bit p set when a boundary pair reads position p
    free: tuple[tuple[int, int], ...]       # (free plane, free plane)


@functools.cache
def _pair_classes(n: int, a: int, plen: int) -> tuple[_Pairs, ...]:
    """The pairs of the shifts t = 1..n/2 at order n when positions below a, the first plen a prefix, are fixed."""
    classes = []
    for t in range(1, n // 2 + 1):
        fixed, shared, boundary, reads, free = 0, [], [], 0, []
        for i in range(n):
            j = (i + t) % n
            if i < a and j < a:
                fixed |= 1 << i
            elif i < a or j < a:
                m, p = (j - a, i) if i < a else (i - a, j)
                if p < plen:
                    shared.append((m, p))
                else:
                    boundary.append((m, p))
                    reads |= 1 << p
            else:
                free.append((i - a, j - a))
        classes.append(_Pairs(t, fixed, tuple(shared), tuple(boundary), reads, tuple(free)))
    return tuple(classes)


def _tally(planes: list[int], counter: list[int]) -> list[int]:
    """A bit-sliced counter plus the planes: level k holds bit k of every row's count.

    The sum must fit in len(counter) levels; ``planes`` is used up.
    Three planes of one weight become one of that weight and a carry
    into the next (a full adder, five big-integer operations), so m
    planes cost about 5m operations.
    """
    out = []
    column = planes
    for level in counter:
        if level:
            column.append(level)
        carries = []
        while len(column) > 2:
            x, y, z = column.pop(), column.pop(), column.pop()
            u = x ^ y
            column.append(u ^ z)
            carries.append(x & y | u & z)
        if len(column) == 2:
            x, y = column
            column = [x ^ y]
            carries.append(x & y)
        out.append(column[0] if column else 0)
        column = carries
    return out


def _shared_counter(n: int, pairs: _Pairs, prefix: int, free: tuple[int, ...], flipped: tuple[int, ...]) -> list[int]:
    """The counter of one shift's pairs that every block of a shard on these planes shares.

    Those are the pairs with both ends free and the boundary pairs whose
    fixed end lies in the prefix; ``flipped`` holds the complemented
    planes.  The counter has n.bit_length() levels, so no count of the at
    most n pairs overflows it.
    """
    planes = [free[i] ^ free[j] for i, j in pairs.free]
    planes += [(flipped if prefix >> p & 1 else free)[m] for m, p in pairs.shared]
    return _tally(planes, [0] * n.bit_length())


def _boundary_tally(pairs: _Pairs, fixed: int, free: tuple[int, ...], flipped: tuple[int, ...],
                    counter: list[int]) -> list[int]:
    """The shared counter plus the boundary pairs past the prefix, by the block's fixed entries there.

    Blocks that agree on ``fixed & pairs.reads`` get the same tally; with
    no such pair it is the shared counter itself.
    """
    if not pairs.boundary:
        return counter
    return _tally([(flipped if fixed >> p & 1 else free)[m] for m, p in pairs.boundary], counter)


def _shift_target(n: int, pairs: _Pairs, fixed: int) -> int:
    """The count of differing non-fixed pairs that makes r_t = 0 (n even): n/2 less the fixed pairs'."""
    t = pairs.t
    return (n >> 1) - ((fixed ^ (fixed >> t | fixed << (n - t))) & pairs.fixed).bit_count()


def _zero_shift_mask(levels: list[int], target: int, full: int) -> int:
    """The rows of a block whose count in ``levels`` is ``target``; none when it is negative."""
    if target < 0:
        return 0
    mask = full
    for k, level in enumerate(levels):
        mask &= level if target >> k & 1 else full ^ level
    return mask


def _free_counts(n: int, prefix: int, plen: int, weights: tuple[int, ...] | None) -> tuple[int, ...] | None:
    """The -1 counts ``_walk_shard`` places after the prefix; None for every count."""
    if weights is None:
        return None
    return tuple(k for w in weights if 0 <= (k := w - prefix.bit_count()) <= n - plen)


def _walk_shard(n: int, prefix: int, plen: int, weights: tuple[int, ...] | None) -> tuple[int, list[int]]:
    """Test every row on the prefix, or only those with an admissible -1 count.

    ``weights`` holds the admissible counts, each once; ``_blocks`` takes
    the shard's rows of all of them as one set.  The blocks on one (a, ks)
    run in the numeric order of their fixed entries, and share each shift's
    counter, tally and masks as the module docstring says.  Rows come back
    in ``_blocks`` order, ascending within a block.
    """
    blocks = list(_blocks(n, plen, _free_counts(n, prefix, plen, weights), prefix))
    nodes = sum(rows for rows, *_ in blocks)
    if n % 4 and n > 1:
        # r_t = n (mod 4) for every row, so no r_t is 0 and no counter is built.
        return nodes, []
    groups: dict[tuple, list[tuple[int, int]]] = {}  # (rows, a, ks) -> (fixed, block index)
    for index, (rows, a, ks, fixed) in enumerate(blocks):
        groups.setdefault((rows, a, ks), []).append((fixed, index))
    found = []  # (block index, row)
    for (rows, a, ks), members in groups.items():
        full = (1 << rows) - 1
        free = _planes(n - a, ks)
        flipped = tuple(plane ^ full for plane in free)
        counters: dict[int, list[int]] = {}  # t -> shared counter, for this group only
        memos: dict[int, tuple] = {}  # t -> (entries read, boundary tally, {target: zero mask})
        for fixed, index in sorted(members):
            alive = full
            # r[t] = r[n-t], so the shifts 0 < t <= n/2 decide the row.
            for pairs in _pair_classes(n, a, plen):
                t, pattern = pairs.t, fixed & pairs.reads
                if t not in memos or memos[t][0] != pattern:
                    if t not in counters:
                        counters[t] = _shared_counter(n, pairs, prefix, free, flipped)
                    memos[t] = (pattern, _boundary_tally(pairs, fixed, free, flipped, counters[t]), {})
                _, levels, masks = memos[t]
                target = _shift_target(n, pairs, fixed)
                if target not in masks:
                    masks[target] = _zero_shift_mask(levels, target, full)
                alive &= masks[target]
                if not alive:
                    break
            while alive:
                j = (alive & -alive).bit_length() - 1
                found.append((index, fixed | sum(1 << (a + m) for m, plane in enumerate(free) if plane >> j & 1)))
                alive &= alive - 1
    found.sort(key=lambda hit: hit[0])  # stable: ascending within a block
    return nodes, [row for _, row in found]


# The pruned DFS keeps each partial autocorrelation r_t (the running sum
# of h[i]*h[i+t mod n] over assigned pairs) in one integer P.  Field t
# (bits 16t..16t+15, t = 1..n-1) holds 64 + r_t in its high byte and
# 64 - r_t in its low one, so adding 255*v to it adds v to r_t.  The
# assigned -1s sit in two registers that never shift: D2 holds 2*255 at
# field j and R2 at field n-1-j when h[j] = -1.  At depth d,
# x = (R2 >> 16(n-1-d)) + (D2 << 16(n-d)) holds 2*255 at field t per -1
# among h[d-t] (t <= d) and h[d+t-n] (t >= n-d), the assigned partners of
# h[d] (both at t = n/2).  A partner adds its sign times h[d] to r_t,
# so with ``ones`` holding 255 per assigned partner the +1 child is
# P + ones - x and the -1 child P - ones + x; the latter sets field d of
# D2 and n-1-d of R2.  At the leaf, D2 is the row.
#
# The open terms u_t of r_t depend only on the depth, so |r_t| <= u_t for
# every t is one test: with lo holding 64 + u_t in both bytes of a field,
# every guard bit (bit 7 of a byte) of P + lo is set exactly when u_t + r_t
# and u_t - r_t are both >= 0 for every t.  P carries its depth's lo, so a
# child adds ``up`` - x or x - ``down`` (ones plus or minus the change in
# lo) and tests P & guard.  An untouched field holds r_t = 0 <= u_t = n and
# a touched one is touched at every later depth, so all fields can be
# tested.  The parity clause, r_t + u_t even, holds at even n and fails at
# odd n once h[1] is assigned: there lo is 0 from depth 1 on.

_FIELD = 16
_BIAS = 64
_GUARD = 128
_TWIN = 255  # 255*v in a field is v in its high byte, -v in its low; 257*v v in both


@functools.cache
def _packed_tables(n: int, wlo: int) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """(start state, guard mask, steps) of the packed DFS at order n and weight floor wlo.

    Step d, assigning h[d], is (up, down, near, wrap, dbit, rbit, floor):
    shifts 16(n-1-d) and 16(n-d), h[d] = -1 in D2 and in R2, and the
    least -1 count a +1 child may keep, wlo - (n-d-1).
    """
    # Bytes stay in [64 - n, 64 + n] and guard sums in [128 - n, 128 + 2n]:
    # [28, 100] and [92, 200] at the order cap, so no byte carries into or
    # borrows from its neighbour and every test is exact.
    assert 1 <= n <= MAX_ORDER and _BIAS + n < _GUARD and _GUARD + 2 * n < 2 * _GUARD
    shifts = range(1, n)

    def packed(values) -> int:
        return sum(v << (_FIELD * t) for t, v in zip(shifts, values))

    steps, last = [], 0
    for d in range(n):
        open_terms = [n - max(0, d - t + 1) - max(0, d - (n - t) + 1) for t in shifts]
        ones = _TWIN * packed((d >= t) + (d >= n - t) for t in shifts)
        lo = 0 if n & 1 and d else 257 * packed(_BIAS + u for u in open_terms)
        steps.append((ones + lo - last, ones - lo + last, _FIELD * (n - 1 - d), _FIELD * (n - d),
                      2 * _TWIN << _FIELD * d, 2 * _TWIN << _FIELD * (n - 1 - d), wlo - (n - d - 1)))
        last = lo
    return packed([257 * _BIAS] * (n - 1)), packed([257 * _GUARD] * (n - 1)), tuple(steps)


def _dfs_shard(n: int, prefix: int, plen: int, weights: tuple[int, int] | None) -> tuple[int, list[int]]:
    wlo, whi = weights or (0, n)
    start, guard, steps = _packed_tables(n, wlo)
    sols: list[int] = []

    # A node at depth d has a -1 count c, wlo - (n-d) <= c <= whi.  Its +1
    # child keeps c, so only the floor can cut it, and its -1 child only the
    # ceiling.  The +1 child is a call, the -1 child the loop's next turn.
    def walk(d, packed, d2, r2, minus):
        nodes = 0
        while d < n:
            up, down, near, wrap, dbit, rbit, floor = steps[d]
            x = (r2 >> near) + (d2 << wrap)
            if minus >= floor:
                nodes += 1
                child = packed - x + up
                if child & guard == guard:
                    nodes += walk(d + 1, child, d2, r2, minus)
            minus += 1
            if minus > whi:
                return nodes
            nodes += 1
            packed += x - down
            if packed & guard != guard:
                return nodes
            d, d2, r2 = d + 1, d2 | dbit, r2 | rbit
        # Every r_t is 0 here, so (sum h)^2 = sum_t r_t = n: the -1 count is admissible.
        sols.append(sum(1 << j for j in range(n) if d2 >> (_FIELD * j + 1) & 1))
        return nodes

    # The prefix takes the same bounds and test: an infeasible one costs
    # the nodes before the cut.
    packed, d2, r2, minus = start, 0, 0, 0
    for d in range(plen):
        up, down, near, wrap, dbit, rbit, floor = steps[d]
        x = (r2 >> near) + (d2 << wrap)
        if prefix >> d & 1:
            packed, d2, r2, minus = packed + x - down, d2 | dbit, r2 | rbit, minus + 1
        else:
            packed += up - x
        if not floor <= minus <= whi:
            return d, sols
        if packed & guard != guard:
            return d + 1, sols
    return plen + walk(plen, packed, d2, r2, minus), sols


def _walk_rows(n: int, prefix: int, plen: int, weights: tuple[int, ...] | None) -> int:
    """The rows ``_walk_shard`` tests on the prefix (see ``_rows``)."""
    return _rows(n - plen, _free_counts(n, prefix, plen, weights))


def _dfs_ceiling(n: int, prefix: int, plen: int, weights: tuple[int, ...] | None) -> int:
    """The most nodes ``_dfs_shard`` visits: the plen prefix nodes and the 2^(n-plen+1) - 2 below them."""
    return plen + (1 << (n - plen + 1)) - 2


class _Rules(NamedTuple):
    """What sets one report label apart; ``nodes(n, prefix, plen, weights)`` is its node rule.

    The rule gives the nodes the shard on ``prefix`` (its first ``plen``
    entries) visits when ``exact``, else a ceiling on them; at
    prefix = plen = 0 it is a whole run's.  A resume checks every shard
    line by it, ``report`` a run's total, and the 2^24-row checkpoint
    rule reads it at the empty prefix.
    """

    kernel: Callable[..., tuple[int, list[int]]]  # the shard worker, (n, prefix, plen, weights)
    weighted: bool  # takes only the admissible -1 counts (perfect-square orders)
    nodes: Callable[..., int]
    exact: bool
    # The kernel emits a shard's rows with -1 before +1 at the first
    # entry they differ in (the walkers), or +1 first (the DFS).
    minus_first: bool


def _label(strategy: str, weight_filter: bool) -> str:
    """The report label of a ``strategy`` run, with ``weight_filter`` or without."""
    return strategy + "+weight" if weight_filter else strategy


# Every report label's rules; no other code tests a label.
_LABELS = {
    STRATEGY_EXHAUSTIVE: _Rules(_walk_shard, False, _walk_rows, True, True),
    STRATEGY_WEIGHT: _Rules(_walk_shard, True, _walk_rows, True, True),
    STRATEGY_DFS: _Rules(_dfs_shard, False, _dfs_ceiling, False, False),
    _label(STRATEGY_DFS, True): _Rules(_dfs_shard, True, _dfs_ceiling, False, False),
}


def _symmetries(n: int, label: str) -> tuple[int, ...]:
    """The sign flips, bit i set to flip entry i, that map a ``label`` run's shards onto each other.

    Each keeps every test the run makes, so the shard on prefix p and
    the one on p ^ (flip & mask) visit as many nodes, and each one's
    rows are the other's flipped.  Negating a row keeps every r_t and
    swaps the two admissible -1 counts.  At even n, flipping the odd
    entries, or the even ones, sends r_t to (-1)^t r_t, for a whole row
    and for each partial sum the DFS bounds; it changes the -1 count, so
    a weighted label keeps negation alone.
    """
    full = (1 << n) - 1
    if n & 1 or _LABELS[label].weighted:
        return (full,)
    odd = full // 3 << 1  # entries 1, 3, ..., n - 1
    return full, odd, full ^ odd


def _bits_to_string(bits: int, n: int) -> str:
    return _bitstring(bits, n).translate(_BITS_SIGNS)


def _run_shard(task: tuple) -> tuple[int, int, tuple[str, ...], int]:
    """(prefix, nodes, solution strings, elapsed_ms) of one shard."""
    label, n, prefix, plen, weights = task
    start = time.monotonic_ns()
    nodes, sols = _LABELS[label].kernel(n, prefix, plen, weights)
    elapsed = (time.monotonic_ns() - start) // 1_000_000
    return prefix, nodes, tuple(_bits_to_string(b, n) for b in sols), elapsed


# ---------------------------------------------------------------------------
# Checkpoint files: the header below, then one line per completed shard.
# The mandated shard token is ``prefix=<bitstring>``; the remaining
# fields on the line carry the shard tallies so a resumed run can merge
# finished work without redoing it.  The reader wants the header this
# run writes, verbatim, and matches shard lines against the writer's
# format string, each field a capture group (no regex metacharacter in
# its literal text).

_HEADER = "# circhad search checkpoint v1\nn={n}\nstrategy={strategy}\nprefix_bits={prefix_bits}\n"
_SHARD = "prefix={} raw_count={} nodes_explored={} elapsed_ms={} solutions={}"
_SHARD_LINE = re.compile(_SHARD.format("([01]*)", "([0-9]+)", "([0-9]+)", "([0-9]+)", "([-+,]*)"))
_BITS_SIGNS = str.maketrans("01+-", "+-01")  # bits to signs and back


def _bitstring(prefix: int, plen: int) -> str:
    """The prefix as a checkpoint line names it: bit i of the prefix at position i."""
    return format(prefix, f"0{plen}b")[::-1]


def _shard_line(plen: int, result: tuple) -> str:
    prefix, nodes, sols, elapsed = result
    return _SHARD.format(_bitstring(prefix, plen), len(sols), nodes, elapsed, ",".join(sols)) + "\n"


def _mirror_rows(sols: tuple[str, ...]) -> tuple[str, ...]:
    """The rows of a shard's mirror, from its own: negated, in reverse order.

    Every kernel orders a shard's rows by their free entries, one sign
    first (the walkers -1, the DFS +1); negation swaps the signs, so this
    is the order the mirror's own kernel emits them in.
    """
    return tuple(s.translate(_NEGATE) for s in reversed(sols))


def _image_rows(sols: tuple[str, ...], flip: int, minus_first: bool) -> tuple[str, ...]:
    """The rows of the shard ``flip`` maps this one to, from its own, in the order its kernel emits them.

    A negation is ``_mirror_rows``.  Any other flip is one of an unweighted
    label, whose kernel orders a shard's rows as text, '+' (ASCII 43)
    before '-' (45) or, ``minus_first``, after it.
    """
    if not sols or flip == (1 << len(sols[0])) - 1:
        return _mirror_rows(sols)
    flipped = ("".join(c.translate(_NEGATE) if flip >> i & 1 else c for i, c in enumerate(s)) for s in sols)
    return tuple(sorted(flipped, reverse=minus_first))


def _parse_shard_line(path: str, line: str, n: int, label: str, plen: int,
                      weights: tuple[int, ...] | None) -> tuple:
    """One ``prefix=...`` line of a ``label`` run as a shard result; ValueError if it does not hold."""
    try:
        match = _SHARD_LINE.fullmatch(line)
        if match is None:
            raise ValueError
        bitstring, raw, nodes, elapsed, listing = match.groups()
        raw, nodes, elapsed = int(raw), int(nodes), int(elapsed)
    except ValueError:  # no match, or a count over sys.get_int_max_str_digits() digits
        raise ValueError(
            f"checkpoint {path}: line {line!r:.60} does not read prefix=<bits>"
            " raw_count=<count> nodes_explored=<count> elapsed_ms=<count> solutions=<rows>,"
            " each count a non-negative integer"
        ) from None
    if len(bitstring) != plen:
        raise ValueError(
            f"checkpoint {path}: prefix width {len(bitstring)} does not match its header ({plen})"
        )
    prefix = int(bitstring[::-1], 2)
    if fault := _node_fault(n, label, weights, nodes, prefix, plen):
        raise ValueError(f"checkpoint {path}: shard {bitstring}: {fault}")
    sols = tuple(listing.split(",")) if listing else ()
    if raw != len(sols):
        raise ValueError(
            f"checkpoint {path}: shard {bitstring}: raw_count {raw} but {len(sols)} rows listed"
        )
    if raw > 1 and len(set(sols)) != raw:
        raise ValueError(f"checkpoint {path}: shard {bitstring}: a row is listed twice")
    for text in sols:
        head = bitstring.translate(_BITS_SIGNS)
        if len(text) != n or not text.startswith(head):
            raise ValueError(
                f"checkpoint {path}: shard {bitstring}: row {text!r:.60} is not {n} signs starting {head!r}"
            )
        if not is_circulant_hadamard(Sequence.from_string(text)):
            raise ValueError(f"checkpoint {path}: shard {bitstring}: row {text} is not a Hadamard row")
    return prefix, nodes, sols, elapsed


def _load_checkpoint(path: str, n: int, label: str, plen: int,
                     weights: tuple[int, ...] | None) -> dict[int, tuple]:
    """Parse completed shard lines; create the file with a header if new.

    Returns the finished shards.  The file must read exactly as
    ``run_search`` writes it (see the module docstring) for order n,
    strategy ``label`` and width ``plen``, so a file from another run is
    never merged.  Every shard line is checked against the width, the
    label's node rule and its own listing, and every two listed members
    of one orbit (see ``_symmetries``) against each other, before any
    shard runs; anything that does not hold raises a ValueError naming
    the file and leaves the file as it was.

    A file that holds no more than the start of that header is begun
    afresh.  A crash mid-append leaves an unterminated last line: the
    file is cut back to its last newline, so that shard is redone and
    the next append starts on a line of its own.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        data = b""
    header = _HEADER.format(n=n, strategy=label, prefix_bits=plen).encode("ascii")
    if header.startswith(data):
        with open(path, "wb") as f:
            f.write(header)
        return {}
    if not data.startswith(header):
        raise ValueError(
            f"checkpoint {path} does not start with the header this run writes, {header.decode()!r}"
        )
    end = data.rfind(b"\n") + 1
    try:
        text = data[:end].decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"checkpoint {path}: byte {exc.start} is not ASCII") from None
    done = {}
    for line in text[len(header):].split("\n")[:-1]:
        shard = _parse_shard_line(path, line, n, label, plen, weights)
        if shard[0] in done:
            raise ValueError(f"checkpoint {path}: shard {line.split()[0]} is listed twice")
        done[shard[0]] = shard
    # A symmetry maps shard p onto shard p ^ (flip & mask): when both are
    # listed, each must read as the other's image.  Only a nonempty
    # listing is flipped, so the common empty pair costs two comparisons.
    mask, full = (1 << plen) - 1, (1 << n) - 1
    minus_first = _LABELS[label].minus_first
    images = [(flip, flip & mask) for flip in _symmetries(n, label)]
    for p, (_, nodes, sols, _) in done.items():
        for flip, move in images:
            q = p ^ move
            if q <= p or q not in done:
                continue
            _, image_nodes, image_sols, _ = done[q]
            if nodes != image_nodes or image_sols != (_image_rows(sols, flip, minus_first) if sols else ()):
                kind, how = ("mirrors", "negated, in reverse order") if flip == full else (
                    "alternates", f"negated at {'odd' if flip & 2 else 'even'} entries, in its kernel's order")
                raise ValueError(
                    f"checkpoint {path}: shards {_bitstring(p, plen)} and {_bitstring(q, plen)}"
                    f" are not {kind}: each must have the other's nodes_explored and its rows {how}"
                )
    if end < len(data):
        os.truncate(path, end)
    return done


# ---------------------------------------------------------------------------
# Orchestration.

def _admit(n: int, label: str) -> tuple[int, ...] | None:
    """The admissible -1 counts of a run labelled ``label`` at order n; None for every count.

    Raises what ``run_search`` refuses the run with, and ``revalidate_report``
    flags a report with, by the label's record in ``_LABELS``; any order
    above ``MAX_ORDER`` raises ``CapExceeded``.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if label not in _LABELS:
        raise ValueError(f"unknown strategy {label!r:.60}; expected one of {tuple(_LABELS)}")
    weighted = _LABELS[label].weighted
    if weighted and expected_minus_counts(n) is None:
        raise ValueError(f"weight-constrained enumeration needs a perfect-square order, got {n!r:.60}")
    if n > MAX_ORDER:
        raise CapExceeded(f"order {n!r:.60} exceeds the order cap {MAX_ORDER}")
    return expected_minus_counts(n) if weighted else None


def _node_fault(n: int, label: str, weights: tuple[int, ...] | None, nodes: int,
                prefix: int = 0, plen: int | None = None) -> str | None:
    """Why no admitted run labelled ``label`` at order n visits ``nodes`` nodes, or None.

    With ``plen`` the nodes are those of the shard on ``prefix``, held to
    the label's node rule there.  A whole run's exact count is the rule
    at the empty prefix; a ceiling grows with the split width, so the
    ceiling of the widest split, p = min(n, 8) entries, times its 2^p
    shards bounds every run.
    """
    rules = _LABELS[label]
    if plen is None:
        p = 0 if rules.exact else min(n, _SPLIT_BITS)
        bound, where = rules.nodes(n, 0, p, weights) << p, ""
    else:
        bound, where = rules.nodes(n, prefix, plen, weights), " on this shard"
    if nodes == bound or not rules.exact and nodes < bound:
        return None
    claim = "not the number of rows every" if rules.exact else f"more than the {bound} nodes any"
    return f"nodes_explored {nodes!r:.60} is {claim} {label} run of order {n!r:.60} visits{where}"


def run_search(
    n: int,
    strategy: str,
    jobs: int = 1,
    *,
    weight_filter: bool = False,
    list_cap: int = DEFAULT_LIST_CAP,
    checkpoint: str | None = None,
) -> SearchReport:
    """Enumerate all circulant Hadamard first rows of order n.

    The run is labelled ``strategy``, or ``strategy+weight`` with
    ``weight_filter``; ``_LABELS`` holds each label's rules.
    The order and label must pass the rules ``revalidate_report`` checks a
    report by (an order above 36 raises ``CapExceeded``); so must a full
    enumeration of more than 2^24 rows without a ``checkpoint``, which
    could not be cut and resumed.  The report lists the first
    min(raw_count, list_cap) rows in ascending order.
    """
    start = time.monotonic_ns()
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    label = _label(strategy, weight_filter)
    if label not in _LABELS:
        raise ValueError("weight_filter applies to the pruned-dfs strategy only")
    if list_cap < 0:
        raise ValueError("list cap must be non-negative")
    weights, rules = _admit(n, label), _LABELS[label]
    if checkpoint is None and rules.exact and (rows := rules.nodes(n, 0, 0, weights)) > MAX_UNCHECKPOINTED_ROWS:
        raise CapExceeded(
            f"{label} at order {n} walks {rows} rows; a walk of more than 2^24 rows needs a checkpoint"
        )

    # 2^P >= 4*jobs shards, capped at 2^8: the pool never has more
    # workers than CPUs, so a wider split only adds per-shard overhead.
    # A checkpointed run always splits at the cap, whatever --jobs.
    # plen >= 1, as n >= 1 and jobs >= 1, and plen >= 2 at even n.
    plen = min(n, _SPLIT_BITS, _SPLIT_BITS if checkpoint is not None else (4 * jobs - 1).bit_length())
    done = {} if checkpoint is None else _load_checkpoint(checkpoint, n, label, plen, weights)
    # The symmetries move a prefix within its orbit.  Negation flips all P
    # bits; each alternation flips one of the top two, as P >= 2.  So an
    # orbit has two or four prefixes, and exactly one of them lies below
    # 2^P / (orbit size).  Only the shards there whose orbit has no
    # finished member run; every other shard is filled in from a finished
    # member of its orbit.
    mask = (1 << plen) - 1
    images = [(flip, flip & mask) for flip in _symmetries(n, label)]  # (row flip, prefix move)
    moves = {0, *(move for _, move in images)}
    prefixes = range((mask + 1) // len(moves))
    for move in moves:
        prefixes = [prefix for prefix in prefixes if prefix ^ move not in done]
    pending = [(label, n, prefix, plen, weights) for prefix in prefixes]

    results = dict(done)
    # No more workers than the CPUs this process may run on; a one-worker
    # pool would only add its start-up and round trips.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with (
        open(checkpoint, "a", encoding="ascii") if checkpoint is not None
        else contextlib.nullcontext()
    ) as log:
        def record(res: tuple, flush: bool = True) -> None:
            results[res[0]] = res
            if log is not None:
                log.write(_shard_line(plen, res))
                if flush:
                    log.flush()

        # Shards run here until the run has used the pool's budget, or all
        # of them when no pool of two or more workers would take the rest.
        ran = 0
        while ran < len(pending) and (
            min(jobs, len(pending) - ran, cpus) < 2 or time.monotonic_ns() - start < _POOL_BUDGET_NS
        ):
            record(_run_shard(pending[ran]))
            ran += 1
        if rest := pending[ran:]:
            import concurrent.futures  # loaded only by a run that starts a pool

            # The pool takes the rest in batches, about 8 per worker: a
            # round trip through it costs more than a short shard.  Results
            # still come back in prefix order, and each shard gets its own line.
            workers = min(jobs, len(rest), cpus)
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                for res in pool.map(_run_shard, rest, chunksize=max(1, len(rest) // (8 * workers))):
                    record(res)
        for prefix in range(mask + 1):
            if prefix not in results:
                for flip, move in images:  # a finished member, the mirror if it is one
                    if prefix ^ move in results:
                        break
                _, nodes, sols, _ = results[prefix ^ move]
                record((prefix, nodes, _image_rows(sols, flip, rules.minus_first), 0), flush=False)

    all_solutions = sorted(s for r in results.values() for s in r[2])
    for text in all_solutions:
        if not is_circulant_hadamard(Sequence.from_string(text)):
            raise RuntimeError(f"internal error: emitted row {text} failed exact re-verification")
    if missing := {image for text in all_solutions for image in _orbit(text)} - set(all_solutions):
        fault, source = (ValueError, f"checkpoint {checkpoint}") if done else (RuntimeError, "internal error")
        raise fault(f"{source}: the rows are not closed under rotation and negation: {min(missing)} is missing")
    canonical = {canonicalize(Sequence.from_string(s)).to_string() for s in all_solutions}
    elapsed_ms = (time.monotonic_ns() - start) // 1_000_000
    return SearchReport(
        schema_version=SCHEMA_VERSION,
        n=n,
        strategy=label,
        raw_count=len(all_solutions),
        canonical_count=len(canonical),
        solutions=tuple(all_solutions[:list_cap]),
        nodes_explored=sum(r[1] for r in results.values()),
        elapsed_ms=elapsed_ms,
        cap=list_cap,
    )


# ---------------------------------------------------------------------------
# Report wire format.

_REPORT_KEYS = tuple(f.name for f in dataclasses.fields(SearchReport))


def report_to_dict(report: SearchReport) -> dict:
    data = {key: getattr(report, key) for key in _REPORT_KEYS}
    data["solutions"] = list(report.solutions)
    return data


# The JSON shape each SearchReport field type must arrive in: booleans
# and floats are not counts.
_JSON_KINDS = {
    "int": ("an integer", lambda v: type(v) is int),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[str, ...]": (
        "a list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)
    ),
}


def report_from_dict(data: dict) -> SearchReport:
    """Parse a report object; ValueError unless every field has its JSON type."""
    if not isinstance(data, dict):
        raise ValueError("report must be a JSON object")
    missing = [key for key in _REPORT_KEYS if key not in data]
    if missing:
        raise ValueError(f"report is missing required fields: {', '.join(missing)}")
    values = {}
    for field in dataclasses.fields(SearchReport):
        kind, accepts = _JSON_KINDS[field.type]
        value = data[field.name]
        if not accepts(value):
            raise ValueError(f"report field {field.name!r} must be {kind}, got {value!r:.60}")
        values[field.name] = tuple(value) if isinstance(value, list) else value
    return SearchReport(**values)


def revalidate_report(report: SearchReport) -> list[str]:
    """Re-verify a stored report; returns a list of problems (empty = good).

    The report must be one ``run_search`` could have written, by the
    rules it writes with: the order and label it admits (its refusal is
    the problem; the checkpoint rule bounds one run's work, not which
    reports are valid, and is not applied), the node count a full
    enumeration's order fixes, and a listing of exactly min(raw_count,
    cap) rows, strictly ascending.  ``canonical_count`` may not exceed
    ``raw_count``; no count is negative.  At an admitted order each
    listed row is re-checked with the exact autocorrelation test and the
    independent matrix product.  When nothing is cut, ``canonical_count``
    must match the listed classes, and the listing must be closed under
    rotation and negation: the first image of a listed row that is not
    listed is named.  A refused report gets only the checks linear in its
    size, as canonicalizing a row of length n builds 2n rotations.
    Quoted report values are cut at 60 characters.
    """
    problems = []
    if report.schema_version != SCHEMA_VERSION:
        problems.append(f"unsupported schema_version {report.schema_version!r:.60}")
    try:
        weights = _admit(report.n, report.strategy)
    except (ValueError, CapExceeded) as exc:
        problems.append(str(exc))
        admitted = False
    else:
        admitted = True
        fault = _node_fault(report.n, report.strategy, weights, report.nodes_explored)
        if fault:
            problems.append(fault)
    for key in ("raw_count", "canonical_count", "nodes_explored", "elapsed_ms", "cap"):
        if getattr(report, key) < 0:
            problems.append(f"{key} is negative")
    listed = min(report.raw_count, report.cap)
    if len(report.solutions) != listed:
        problems.append(f"{len(report.solutions)} rows listed, not min(raw_count, cap) = {listed!r:.60}")
    if any(a >= b for a, b in zip(report.solutions, report.solutions[1:])):
        problems.append("solutions are not strictly ascending (sorted and distinct)")
    if report.canonical_count > report.raw_count:
        problems.append(f"canonical_count {report.canonical_count!r:.60} is more than raw_count")
    if not admitted:
        return problems
    seen_canonical = set()
    whole = set(report.solutions) if report.raw_count <= report.cap else None
    for text in report.solutions:
        try:
            seq = Sequence.from_string(text)
        except ValueError as exc:
            problems.append(f"solution {text!r:.60}: {exc}")
            continue
        if seq.n != report.n:
            problems.append(f"solution {text!r:.60} has length {seq.n}, expected {report.n!r:.60}")
            continue
        if not is_circulant_hadamard(seq):
            problems.append(f"solution {text!r:.60} fails the exact autocorrelation test")
        if not has_orthogonal_rows(seq):
            problems.append(f"solution {text!r:.60} fails the exact matrix product test")
        seen_canonical.add(canonicalize(seq).to_string())
        if whole is not None:
            missing = next((image for image in _orbit(text) if image not in whole), None)
            if missing is not None:
                problems.append(
                    f"listing is not closed: {missing!r:.60}, a rotation or negation"
                    f" of {text!r:.60}, is not listed"
                )
                whole = None  # one missing image is named
    if report.raw_count <= report.cap and report.canonical_count != len(seen_canonical):
        problems.append(
            f"canonical_count {report.canonical_count!r:.60} disagrees with the listed rows"
            f" ({len(seen_canonical)} classes)"
        )
    return problems


# ---------------------------------------------------------------------------
# Strategy cross-validation.

@dataclass(frozen=True)
class CrossValidation:
    """Agreement report for all applicable strategies at one order."""

    n: int
    passed: bool
    raw_count: int
    canonical_count: int
    strategies: tuple[str, ...]
    problems: tuple[str, ...]


def cross_validate(n: int) -> CrossValidation:
    """Run every label in ``_LABELS`` and check they agree solution-for-solution.

    Weighted labels run at perfect-square orders only.  Each found row is
    also pushed through the exact matrix product, the order checks, and
    (for orders divisible by 4, on its -1-minority canonical form) the
    full spectral verdict.  Runs without a checkpoint, so ``run_search``
    refuses every order whose full enumeration walks more than 2^24 rows
    (``exhaustive`` from order 25 on).  Every label shares the symmetry
    fill, so the tests check it against each shard's own kernel run.
    """
    reports = [run_search(n, strategy, weight_filter=weight_filter)
               for strategy in STRATEGIES for weight_filter in (False, True)
               if (rules := _LABELS.get(_label(strategy, weight_filter)))
               and (not rules.weighted or expected_minus_counts(n) is not None)]

    problems = []
    baseline = reports[0]
    for rep in reports[1:]:
        if rep.solutions != baseline.solutions or rep.raw_count != baseline.raw_count:
            problems.append(
                f"strategy {rep.strategy} found {rep.raw_count} rows,"
                f" {baseline.strategy} found {baseline.raw_count}"
            )
    for text in baseline.solutions:
        seq = Sequence.from_string(text)
        if not has_orthogonal_rows(seq):
            problems.append(f"{text}: matrix product is not n*I")
        if n > 1 and not even_order_check(n).passed:
            problems.append(f"{text}: order parity check failed")
        if not square_weight_check(seq).passed:
            problems.append(f"{text}: weight check failed")
        if n % 4 == 0:
            canonical = canonicalize(seq)
            if not spectral_verdict(minus_indices(canonical)).overall:
                problems.append(f"{text}: spectral verdict failed on canonical form")
    return CrossValidation(
        n=n,
        passed=not problems,
        raw_count=baseline.raw_count,
        canonical_count=baseline.canonical_count,
        strategies=tuple(r.strategy for r in reports),
        problems=tuple(problems),
    )
