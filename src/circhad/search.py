"""Brute-force and pruned enumeration of candidate rows.

This is the ground-truth oracle for everything else in the package: it
visits sign rows directly and keeps only those whose circulant matrix is
exactly Hadamard.  Three strategies are provided and must always agree
on what they find:

* ``exhaustive``        -- all 2^n rows (bit-sliced walk, exact counts);
* ``weight-constrained``-- only rows carrying one of the two admissible
                           -1 counts for a perfect-square order; the same
                           walker and row test as ``exhaustive``, fed
                           the prefix with each admissible choice of -1
                           positions instead of every suffix;
* ``pruned-dfs``        -- left-to-right sign assignment, backtracking as
                           soon as any partial autocorrelation provably
                           cannot reach zero (magnitude or parity).  All
                           n-1 partial sums live in one packed integer,
                           the next entry's -1 partners in two more, so a
                           node costs a few big-integer operations and one
                           guard-bit test, with nothing to undo on the way
                           back; parity is implied at even n and cut by the
                           per-depth bounds at odd n once h[1] is set.

Work is split into independent subtrees by fixing the first few entries
(2^P prefixes with 2^P >= 4*jobs up to 2^8; always 2^8, or 2^n below
order 8, with a checkpoint), so results merge
deterministically regardless of scheduling.  A process pool, built only
when at least two workers would run, is sent the pending shards in
batches, about 8 per worker, so a split into many short shards does
not pay one pool round trip per shard; results still come back, and
are logged one line per shard, in prefix order.  A checkpoint file
must read exactly as this run writes it: its header, then one line per
finished shard, each prefix once; anything else is refused.  Every shard
returns its node count and its rows, whatever the strategy; counts of
rows are always the length of a listing.  Every row a strategy emits is
re-verified with the exact integer autocorrelation before it is reported.

Rows are represented internally as bit masks (bit i set means entry i is
-1), and r[t] = n - 2*c_t with c_t the number of positions i where
h[i] != h[i+t mod n].  The full enumerations test rows bit-sliced, in
blocks of up to 2^16: a block fixes its first a entries and holds each
free position as an int ("plane"), bit j of a plane being that entry of
row j.  Every block of a shard on the same free positions and -1 count
has the same planes, so for each shift t <= n/2 the pairs (i, i+t mod n)
split three ways.  Free pairs (both ends free) are summed once per shard
into a bit-sliced counter, which holds every row's count at once, and
reused by all those blocks.  Fixed pairs (both ends fixed) add one
constant, a popcount of the fixed bits against their rotation, taken
off the n/2 target.  Boundary pairs, at most 2t, add a free plane or its
complement, by the fixed entry; only these are added per block.  The
rows whose total is the target are kept as a mask, and a block is done
when its mask is empty.  At odd n every r_t is odd, so no counter is
built at all.  This is the same exact integer arithmetic, a few hundred
big-integer operations per block instead of a Python loop per row.  Both
full enumerations take their blocks from one generator and their planes
from one recursion, which split rows alike (on the first free position,
a -1 there first), so both walk a shard's rows in one order.  Both count
as nodes the rows of the blocks walked, so a skipped block leaves the
total short, which a resume and ``report`` check.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import functools
import math
import os
import re
import time
from dataclasses import dataclass
from typing import NamedTuple

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
# Each report label's rules, (runs the pruned DFS, takes only the admissible -1 counts);
# no other code tests a label.  "<strategy>+weight" is <strategy> run with weight_filter.
_REPORT_STRATEGIES = {
    STRATEGY_EXHAUSTIVE: (False, False),
    STRATEGY_WEIGHT: (False, True),
    STRATEGY_DFS: (True, False),
    STRATEGY_DFS + "+weight": (True, True),
}
STRATEGIES = tuple(label for label in _REPORT_STRATEGIES if "+" not in label)
_SPLIT_BITS = 8  # shards fix at most this many leading entries


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


def canonicalize(seq: Sequence) -> Sequence:
    """Distinguished representative of the rotation/negation class.

    Candidates are the n rotations of the row and of its negation; the
    representative minimizes (number of -1 entries, entries numerically)
    so the -1-minority form wins and -1 sorts before +1 within it.
    "-+++" is canonical for all eight order-4 solutions.
    """
    best = None
    for base in (seq.entries, tuple(-e for e in seq.entries)):
        weight = base.count(-1)
        for r in range(len(base)):
            cand = (weight, base[r:] + base[:r])
            if best is None or cand < best:
                best = cand
    return Sequence(best[1])


# ---------------------------------------------------------------------------
# Shard workers.  Each enumerates the rows whose first ``plen`` entries
# match ``prefix`` and returns (nodes visited, solution bit masks);
# ``_REPORT_STRATEGIES`` says whether a label runs ``_dfs_shard`` or
# ``_walk_shard``.
#
# The walker's blocks (see the module docstring) come from ``_blocks``
# and are (full, a, k, fixed): the rows agree with ``fixed`` before
# position a and run through the free planes of n - a positions (every
# sign, k None, or k -1s) from it on, plane m bit j set when row j has -1
# at position a + m.  full has one bit per row of the block, so its bit
# length is the block's node count.

_BLOCK_BITS = 16  # at most 2^16 rows per block: planes of 8 KiB each


@functools.cache
def _planes(b: int, k: int | None) -> tuple[int, ...]:
    """Planes of b free positions over their rows: every sign (k None) or k -1s.

    The rows split on the first position, those with a -1 there first,
    and each half the same way on the rest, as ``_blocks`` splits; with k
    -1s this is ``itertools.combinations(range(b), k)`` order.
    """
    if not b or k in (0, b):
        return (int(k == b),) * b
    split = 1 << (b - 1) if k is None else math.comb(b - 1, k - 1)
    with_first, without_first = _planes(b - 1, None if k is None else k - 1), _planes(b - 1, k)
    return ((1 << split) - 1,) + tuple(w | (o << split) for w, o in zip(with_first, without_first))


def _blocks(n: int, a: int, k: int | None, fixed: int):
    """(full, a, k, fixed) blocks of the rows fixed before position a, free from it on.

    The free positions take every sign (k None) or exactly k -1s.  A set
    too large for one block is split on position a, the rows with a -1
    there first, as ``_planes`` splits within a block, so a shard's rows
    come in one order however many blocks hold them.
    """
    rows = 1 << (n - a) if k is None else math.comb(n - a, k)
    if rows <= 1 << _BLOCK_BITS:
        yield (1 << rows) - 1, a, k, fixed
    else:
        yield from _blocks(n, a + 1, None if k is None else k - 1, fixed | 1 << a)
        yield from _blocks(n, a + 1, k, fixed)


class _Pairs(NamedTuple):
    """The pairs (i, i+t mod n), i = 0..n-1, of one shift t, split at a fixed width."""

    t: int
    fixed: int                              # bit i set when both ends are fixed
    boundary: tuple[tuple[int, int], ...]   # (free plane, fixed position)
    free: tuple[tuple[int, int], ...]       # (free plane, free plane)


@functools.cache
def _pair_classes(n: int, a: int) -> tuple[_Pairs, ...]:
    """The pairs of the shifts t = 1..n/2 at order n when positions below a are fixed."""
    classes = []
    for t in range(1, n // 2 + 1):
        fixed, boundary, free = 0, [], []
        for i in range(n):
            j = (i + t) % n
            if i < a and j < a:
                fixed |= 1 << i
            elif i < a:
                boundary.append((j - a, i))
            elif j < a:
                boundary.append((i - a, j))
            else:
                free.append((i - a, j - a))
        classes.append(_Pairs(t, fixed, tuple(boundary), tuple(free)))
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


def _free_counter(n: int, pairs: _Pairs, free: tuple[int, ...]) -> list[int]:
    """The counter of one shift's pairs with both ends free."""
    return _tally([free[i] ^ free[j] for i, j in pairs.free], [0] * n.bit_length())


def _zero_shift_mask(n: int, pairs: _Pairs, fixed: int, free: tuple[int, ...], full: int,
                     counter: list[int]) -> int:
    """The block rows with c_t = n/2, that is r_t = 0 (n even), given the shift's free counter.

    The counter has n.bit_length() levels, so no count of the at most n
    pairs overflows it.
    """
    t = pairs.t
    target = (n >> 1) - ((fixed ^ (fixed >> t | fixed << (n - t))) & pairs.fixed).bit_count()
    if target < 0:
        return 0
    boundary = [free[m] ^ full if fixed >> p & 1 else free[m] for m, p in pairs.boundary]
    mask = full
    for k, level in enumerate(_tally(boundary, counter)):
        mask &= level if target >> k & 1 else full ^ level
    return mask


def _walk_shard(n: int, prefix: int, plen: int, weights: tuple[int, ...] | None) -> tuple[int, list[int]]:
    """Test every row on the prefix, or only those with an admissible -1 count.

    The free counter of a shift is built for the first block on its
    planes (a, k) that reaches that shift, and reused by the others.
    """
    counts: list[int | None] = [None]
    if weights is not None:
        counts = [w - prefix.bit_count() for w in sorted(set(weights))]
        counts = [k for k in counts if 0 <= k <= n - plen]
    blocks = (block for k in counts for block in _blocks(n, plen, k, prefix))
    if n & 1 and n > 1:
        # Every r_t is odd, so no row qualifies and no counter is built.
        return sum(full.bit_length() for full, *_ in blocks), []
    nodes = 0
    sols = []
    shared: dict[tuple, list[int]] = {}  # (a, k, t) -> free counter, for this shard only
    for full, a, k, fixed in blocks:
        nodes += full.bit_length()
        free = _planes(n - a, k)
        alive = full
        # r[t] = r[n-t], so the shifts 0 < t <= n/2 decide the row.
        for pairs in _pair_classes(n, a):
            counter = shared.get((a, k, pairs.t))
            if counter is None:
                counter = shared[a, k, pairs.t] = _free_counter(n, pairs, free)
            alive &= _zero_shift_mask(n, pairs, fixed, free, full, counter)
            if not alive:
                break
        while alive:
            j = (alive & -alive).bit_length() - 1
            sols.append(fixed | sum(1 << (a + m) for m, plane in enumerate(free) if plane >> j & 1))
            alive &= alive - 1
    return nodes, sols


# The pruned DFS keeps every partial autocorrelation in one integer.
# Field t (bits 8t..8t+7, t = 1..n-1) holds 64 + r_t, the running sum of
# the products h[i]*h[i+t mod n] whose two entries are both assigned;
# bit 7 of each field is a guard bit.  At depth d the -1s among the
# assigned partners of h[d] are kept as two integers, one bit per field:
# ``near`` has field t set when h[d-t] = -1 (t <= d) and ``wrap`` has
# field t set when h[d+t-n] = -1 (t >= n-d).  Assigning h[d] = +1 adds
# to field t the products with both partners, each 1 - 2*[partner is
# -1], so the whole update is P + ones - 2*(near + wrap); at t = n/2 both
# terms land in one field, as they should.  Assigning -1 negates every
# product, so that child is P minus the same delta.  A child's partners
# are (near << 8, wrap >> 8), with h[d] itself added at field 1 of near
# and field n-1 of wrap when it is -1; at the leaf, wrap is the row.
#
# The number u_t of open terms of r_t depends only on the depth, so
# |r_t| <= u_t for every t is one test per node: with lo holding 64 + u_t
# and hi holding 192 + u_t in field t, the guard bits of P + lo and
# hi - P are all set exactly when r_t + u_t >= 0 and u_t - r_t >= 0 for
# every t.  Fields never touched hold r_t = 0 <= u_t = n, and a touched
# field is touched again at every later depth, so testing all fields is
# the same as testing the touched ones.  The parity clause, r_t + u_t
# even, holds at every node at even n and fails at odd n once h[1] is
# assigned; so at odd n lo is 0 from depth 1 on, P + lo is then a field
# in [64 - n, 64 + n] and no guard bit is set.

_FIELD = 8
_BIAS = 64
_GUARD = 128


class _Step(NamedTuple):
    """Per-depth constants of the packed DFS (depth d assigns h[d])."""

    ones: int  # number of terms each field gains
    lo: int    # 128 + u_t - 64 in field t, u_t counted after depth d; 0 at odd n from d = 1
    hi: int    # 128 + u_t + 64 in field t


@functools.cache
def _packed_tables(n: int) -> tuple[int, int, tuple[_Step, ...]]:
    """(start state, guard mask, per-depth steps) of the packed DFS at order n."""
    # Fields stay in [64 - n, 64 + n] and guard sums in [128 - n, 128 + 2n]:
    # [28, 100] and [92, 200] at the order cap, so no field carries into or
    # borrows from its neighbour and every test is exact.
    assert 1 <= n <= MAX_ORDER and _BIAS + n < _GUARD and _GUARD + 2 * n < 2 * _GUARD
    shifts = range(1, n)

    def packed(values) -> int:
        return sum(v << (_FIELD * t) for t, v in zip(shifts, values))

    steps = []
    for d in range(n):
        open_terms = [n - max(0, d - t + 1) - max(0, d - (n - t) + 1) for t in shifts]
        steps.append(_Step(
            ones=packed((d >= t) + (d >= n - t) for t in shifts),
            lo=0 if n & 1 and d else packed(_GUARD + u - _BIAS for u in open_terms),
            hi=packed(_GUARD + u + _BIAS for u in open_terms),
        ))
    return packed([_BIAS] * (n - 1)), packed([_GUARD] * (n - 1)), tuple(steps)


def _dfs_shard(n: int, prefix: int, plen: int, weights: tuple[int, ...] | None) -> tuple[int, list[int]]:
    start, guard, steps = _packed_tables(n)
    nodes = 0
    sols: list[int] = []
    wlo = min(weights) if weights else 0
    whi = max(weights) if weights else n
    wset = set(weights) if weights else range(n + 1)
    # Either child of depth d stays inside the weight bounds when its -1
    # count c has wlo - (n-d-1) <= c <= whi; a fixed prefix entry empties
    # the range of the other sign.  The prefix thus goes through the same
    # bound machinery, so an infeasible prefix costs exactly the nodes
    # visited before the cut.
    rows = []
    for d, step in enumerate(steps):
        fixed = d < plen
        minus_fixed = fixed and (prefix >> d) & 1
        rows.append(step + (
            wlo - (n - d - 1), -1 if minus_fixed else whi, -1 if fixed and not minus_fixed else whi,
        ))
    near_bit, wrap_bit = 1 << _FIELD, 1 << (_FIELD * (n - 1))

    def walk(d: int, packed: int, near: int, wrap: int, minus: int) -> None:
        nonlocal nodes
        if d == n:
            if minus in wset:
                sols.append(sum(1 << j for j in range(n) if (wrap >> (_FIELD * j)) & 1))
            return
        ones, lo, hi, reach, plus_hi, minus_hi = rows[d]
        delta = ones - 2 * (near + wrap)
        if reach <= minus <= plus_hi:
            nodes += 1
            child = packed + delta
            if ((child + lo) & (hi - child) & guard) == guard:
                walk(d + 1, child, near << _FIELD, wrap >> _FIELD, minus)
        minus += 1
        if reach <= minus <= minus_hi:
            nodes += 1
            child = packed - delta
            if ((child + lo) & (hi - child) & guard) == guard:
                walk(d + 1, child, near << _FIELD | near_bit, wrap >> _FIELD | wrap_bit, minus)

    walk(0, start, 0, 0, 0)
    return nodes, sols


def _bits_to_string(bits: int, n: int) -> str:
    return "".join("-" if (bits >> i) & 1 else "+" for i in range(n))


def _run_shard(task: tuple) -> tuple[int, int, tuple[str, ...], int]:
    """(prefix, nodes, solution strings, elapsed_ms) of one shard."""
    label, n, prefix, plen, weights = task
    start = time.monotonic()
    nodes, sols = (_dfs_shard if _REPORT_STRATEGIES[label][0] else _walk_shard)(n, prefix, plen, weights)
    elapsed = int((time.monotonic() - start) * 1000)
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


def _shard_line(plen: int, result: tuple) -> str:
    prefix, nodes, sols, elapsed = result
    bitstring = _bits_to_string(prefix, plen).translate(_BITS_SIGNS)
    return _SHARD.format(bitstring, len(sols), nodes, elapsed, ",".join(sols)) + "\n"


def _parse_shard_line(path: str, line: str, n: int, plen: int) -> tuple:
    """One ``prefix=...`` line as a shard result; ValueError if it does not hold."""
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
    sols = tuple(filter(None, listing.split(",")))
    if raw != len(sols):
        raise ValueError(
            f"checkpoint {path}: shard {bitstring}: raw_count {raw} but {len(sols)} rows listed"
        )
    head = bitstring.translate(_BITS_SIGNS)
    for text in sols:
        if len(text) != n or not text.startswith(head):
            raise ValueError(
                f"checkpoint {path}: shard {bitstring}: row {text!r:.60} is not {n} signs starting {head!r}"
            )
        if not is_circulant_hadamard(Sequence.from_string(text)):
            raise ValueError(f"checkpoint {path}: shard {bitstring}: row {text} is not a Hadamard row")
    prefix = int(bitstring[::-1], 2) if bitstring else 0
    return prefix, nodes, sols, elapsed


def _load_checkpoint(path: str, n: int, label: str, plen: int) -> dict[int, tuple]:
    """Parse completed shard lines; create the file with a header if new.

    Returns the finished shards.  The file must read exactly as
    ``run_search`` writes it: at offset 0 the header this run writes,
    for order n, strategy ``label`` and width ``plen``, then one shard
    line per finished prefix, each prefix once.  A header that differs
    in any field is refused, so a file from another run is never merged.
    Every shard line is checked against the width and its own listing;
    anything that does not hold raises a ValueError naming the file and
    leaves the file as it was.

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
        shard = _parse_shard_line(path, line, n, plen)
        if shard[0] in done:
            raise ValueError(f"checkpoint {path}: shard {line.split()[0]} is listed twice")
        done[shard[0]] = shard
    if end < len(data):
        os.truncate(path, end)
    return done


# ---------------------------------------------------------------------------
# Orchestration.

def _admit(n: int, label: str) -> tuple[int, ...] | None:
    """The admissible -1 counts of a run labelled ``label`` at order n; None for every count.

    Raises what ``run_search`` refuses the run with, and ``revalidate_report``
    flags a report with, by the label's ``_REPORT_STRATEGIES`` entry; any
    order above ``MAX_ORDER`` raises ``CapExceeded``.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if label not in _REPORT_STRATEGIES:
        raise ValueError(f"unknown strategy {label!r:.60}; expected one of {tuple(_REPORT_STRATEGIES)}")
    weighted = _REPORT_STRATEGIES[label][1]
    if weighted and expected_minus_counts(n) is None:
        raise ValueError(f"weight-constrained enumeration needs a perfect-square order, got {n!r:.60}")
    if n > MAX_ORDER:
        raise CapExceeded(f"order {n!r:.60} exceeds the order cap {MAX_ORDER}")
    return expected_minus_counts(n) if weighted else None


def _row_count(n: int, weights: tuple[int, ...] | None) -> int:
    """The rows a full enumeration of order n visits: 2^n, or C(n, w) over the weights w."""
    return 1 << n if weights is None else sum(math.comb(n, w) for w in set(weights))


def _node_fault(n: int, label: str, weights: tuple[int, ...] | None, nodes: int) -> str | None:
    """Why no admitted run labelled ``label`` at order n visits ``nodes`` nodes, or None.

    A full enumeration visits ``_row_count`` rows.  A DFS shard of a
    p-entry split visits at most p prefix nodes and 2^(n-p+1) - 2 below
    them, 2^(n+1) + 2^p (p - 2) in all; that grows with p, so the widest
    split bounds every run.
    """
    if _REPORT_STRATEGIES[label][0]:
        bound = 2 ** (n + 1) + 2 ** (p := min(n, _SPLIT_BITS)) * (p - 2)
        if nodes > bound:
            return f"nodes_explored {nodes!r:.60} is more than the {bound} nodes any {label} run of order {n} visits"
    elif nodes != _row_count(n, weights):
        return f"nodes_explored {nodes!r:.60} is not the number of rows every {label} run of order {n!r:.60} visits"
    return None


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
    ``weight_filter``; ``_REPORT_STRATEGIES`` holds each label's rules.
    The order and label must pass the rules ``revalidate_report`` checks a
    report by (an order above 36 raises ``CapExceeded``); so must a full
    enumeration of more than 2^24 rows without a ``checkpoint``, which
    could not be cut and resumed.  The report lists the first
    min(raw_count, list_cap) rows in ascending order.
    """
    start = time.monotonic()
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    label = strategy + "+weight" if weight_filter else strategy
    if label not in _REPORT_STRATEGIES:
        raise ValueError("weight_filter applies to the pruned-dfs strategy only")
    if list_cap < 0:
        raise ValueError("list cap must be non-negative")
    weights, (dfs, _) = _admit(n, label), _REPORT_STRATEGIES[label]
    if checkpoint is None and not dfs and (rows := _row_count(n, weights)) > MAX_UNCHECKPOINTED_ROWS:
        raise CapExceeded(
            f"{label} at order {n} walks {rows} rows; a walk of more than 2^24 rows needs a checkpoint"
        )

    # 2^P >= 4*jobs shards, capped at 2^8: the pool never has more
    # workers than CPUs, so a wider split only adds per-shard overhead.
    # A checkpointed run always splits at the cap, whatever --jobs.
    plen = min(n, _SPLIT_BITS, _SPLIT_BITS if checkpoint is not None else (4 * jobs - 1).bit_length())
    done = {} if checkpoint is None else _load_checkpoint(checkpoint, n, label, plen)
    pending = [
        (label, n, prefix, plen, weights)
        for prefix in range(1 << plen) if prefix not in done
    ]

    results = dict(done)
    # No more workers than the CPUs this process may run on; a one-worker
    # pool would only add its start-up and round trips.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(pending), cpus)
    parallel = workers > 1
    with (
        concurrent.futures.ProcessPoolExecutor(max_workers=workers) if parallel
        else contextlib.nullcontext()
    ) as pool, (
        open(checkpoint, "a", encoding="ascii") if checkpoint is not None
        else contextlib.nullcontext()
    ) as log:
        # The pool takes shards in batches, about 8 per worker: a round
        # trip through it costs more than a short shard.  Results still
        # come back in prefix order, and each shard gets its own line.
        shards = (
            pool.map(_run_shard, pending, chunksize=max(1, len(pending) // (8 * workers)))
            if parallel else map(_run_shard, pending)
        )
        for res in shards:
            results[res[0]] = res
            if log is not None:
                log.write(_shard_line(plen, res))
                log.flush()

    nodes = sum(r[1] for r in results.values())
    if done and (fault := _node_fault(n, label, weights, nodes)):
        raise ValueError(f"checkpoint {checkpoint}: {fault}")
    all_solutions = sorted(s for r in results.values() for s in r[2])
    for text in all_solutions:
        if not is_circulant_hadamard(Sequence.from_string(text)):
            raise RuntimeError(f"internal error: emitted row {text} failed exact re-verification")
    canonical = {canonicalize(Sequence.from_string(s)).to_string() for s in all_solutions}
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return SearchReport(
        schema_version=SCHEMA_VERSION,
        n=n,
        strategy=label,
        raw_count=len(all_solutions),
        canonical_count=len(canonical),
        solutions=tuple(all_solutions[:list_cap]),
        nodes_explored=nodes,
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
    cap) rows, strictly ascending, each re-checked with the exact
    autocorrelation test and the independent matrix product.
    ``canonical_count`` may not exceed ``raw_count`` and must match the
    listed classes when nothing is cut; no count is negative.  Quoted
    report values are cut at 60 characters.
    """
    problems = []
    if report.schema_version != SCHEMA_VERSION:
        problems.append(f"unsupported schema_version {report.schema_version!r:.60}")
    try:
        weights = _admit(report.n, report.strategy)
    except (ValueError, CapExceeded) as exc:
        problems.append(str(exc))
    else:
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
    seen_canonical = set()
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
    """Run every label in ``_REPORT_STRATEGIES`` and check they agree solution-for-solution.

    Weighted labels run at perfect-square orders only.  Each found row is
    also pushed through the exact matrix product, the order checks, and
    (for orders divisible by 4, on its -1-minority canonical form) the
    full spectral verdict.  Runs without a checkpoint, so ``run_search``
    refuses every order whose full enumeration walks more than 2^24 rows
    (``exhaustive`` from order 25 on).
    """
    reports = [run_search(n, label.partition("+")[0], weight_filter="+" in label)
               for label, (_, weighted) in _REPORT_STRATEGIES.items()
               if not weighted or expected_minus_counts(n) is not None]

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
