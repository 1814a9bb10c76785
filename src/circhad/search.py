"""Brute-force and pruned enumeration of candidate rows.

This is the ground-truth oracle for everything else in the package: it
visits sign rows directly and keeps only those whose circulant matrix is
exactly Hadamard.  Three strategies are provided and must always agree
on what they find:

* ``exhaustive``        -- all 2^n rows (bit-mask walk, exact popcount math);
* ``weight-constrained``-- only rows carrying one of the two admissible
                           -1 counts for a perfect-square order; the same
                           walker and row test as ``exhaustive``, fed
                           the prefix OR-ed with each admissible choice
                           of -1 positions instead of every suffix;
* ``pruned-dfs``        -- left-to-right sign assignment, backtracking as
                           soon as any partial autocorrelation provably
                           cannot reach zero (magnitude or parity).  All
                           n-1 partial sums live in one packed integer,
                           so a node costs a few big-integer operations
                           and one guard-bit test, with nothing to undo
                           on the way back; the parity clause is implied
                           at even n and cuts every odd order at depth 1.

Work is split into independent subtrees by fixing the first few entries
(2^P prefixes with 2^P >= 4*jobs; at least 2^8 for a new checkpoint,
and the header's P when resuming one), so results merge
deterministically regardless of scheduling.  Every shard returns its
node count and its rows, whatever the strategy; counts of rows are
always the length of a listing.  Every row a strategy emits is
re-verified with the exact integer autocorrelation before it is reported.

Rows are represented internally as bit masks (bit i set means entry i is
-1); r[t] = n - 2*popcount(b XOR rotate(b, t)), still exact integer
arithmetic, just cheaper than the sum form.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import functools
import itertools
import math
import os
import re
import time
from dataclasses import dataclass
from typing import NamedTuple

from .sequences import (
    Sequence,
    expected_minus_counts,
    is_circulant_hadamard,
)

SCHEMA_VERSION = 1
DEFAULT_LIST_CAP = 1024
DEFAULT_EXHAUSTIVE_CAP = 24
EXHAUSTIVE_CAP_ENV = "CHM_MAX_EXHAUSTIVE_N"
MAX_DFS_ORDER = 36

STRATEGY_EXHAUSTIVE = "exhaustive"
STRATEGY_WEIGHT = "weight-constrained"
STRATEGY_DFS = "pruned-dfs"
STRATEGIES = (STRATEGY_EXHAUSTIVE, STRATEGY_WEIGHT, STRATEGY_DFS)
_REPORT_STRATEGIES = STRATEGIES + (STRATEGY_DFS + "+weight",)


class CapExceeded(RuntimeError):
    """A run was refused because it would exceed a resource cap."""


@dataclass(frozen=True)
class SearchReport:
    """Deterministic summary of one enumeration run.

    ``solutions`` lists at most ``cap`` rows (sorted text form); the
    counts are always exact even when the listing is truncated.
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
# match ``prefix`` and returns (nodes visited, solution bit masks):
# ``_walk_shard`` for both full enumerations, ``_dfs_shard`` for the
# pruned DFS.

def _walk_shard(n: int, prefix: int, plen: int, weights: tuple[int, ...] | None) -> tuple[int, list[int]]:
    """Test every row on the prefix, or only those with an admissible -1 count."""
    if weights is None:
        rows = range(prefix, 1 << n, 1 << plen)
        nodes = len(rows)
    else:
        free = range(plen, n)
        needs = [w - prefix.bit_count() for w in sorted(set(weights))]
        needs = [k for k in needs if 0 <= k <= len(free)]
        rows = (
            prefix | sum(1 << i for i in combo)
            for k in needs for combo in itertools.combinations(free, k)
        )
        nodes = sum(math.comb(len(free), k) for k in needs)
    mask = (1 << n) - 1
    half = n // 2
    sols = []
    for bits in rows:
        # r[t] = r[n-t], so the shifts 0 < t <= n/2 decide the row.
        for t in range(1, half + 1):
            rot = ((bits >> t) | (bits << (n - t))) & mask
            if 2 * (bits ^ rot).bit_count() != n:
                break
        else:
            sols.append(bits)
    return nodes, sols


# The pruned DFS keeps every partial autocorrelation in one integer.
# Field t (bits 8t..8t+7, t = 1..n-1) holds 64 + r_t, the running sum of
# the products h[i]*h[i+t mod n] whose two entries are both assigned;
# bit 7 of each field is a guard bit.  The assigned prefix is kept twice
# as a "dilated" integer, one bit per field: forward (field j set when
# h[j] = -1) and reversed (field n-1-j set when h[j] = -1).  Assigning
# h[d] = +1 adds to field t the products with h[d-t] (t <= d) and with
# h[d+t-n] (t >= n-d), each 1 - 2*[that entry is -1], so the whole update
# is P + ones - 2*((fwd << 8(n-d)) + (rev >> 8(n-1-d))); at t = n/2 both
# terms land in one field, as they should.  Assigning -1 negates every
# product, so that child is P minus the same delta.
#
# The number u_t of open terms of r_t depends only on the depth, so
# |r_t| <= u_t for every t is one test per node: with lo holding 64 + u_t
# and hi holding 192 + u_t in field t, the guard bits of P + lo and
# hi - P are all set exactly when r_t + u_t >= 0 and u_t - r_t >= 0 for
# every t.  Fields never touched hold r_t = 0 <= u_t = n, and a touched
# field is touched again at every later depth, so testing all fields is
# the same as testing the touched ones.

_FIELD = 8
_BIAS = 64
_GUARD = 128


class _Step(NamedTuple):
    """Per-depth constants of the packed DFS (depth d assigns h[d])."""

    ones: int       # number of terms each field gains
    shift_fwd: int  # 8(n-d): forward prefix onto the wrapped shifts t >= n-d
    shift_rev: int  # 8(n-1-d): reversed prefix onto the shifts t <= d
    lo: int         # 128 + u_t - 64 in field t, u_t counted after depth d
    hi: int         # 128 + u_t + 64 in field t
    bit_fwd: int    # the dilated bits of entry d
    bit_rev: int


@functools.cache
def _packed_tables(n: int) -> tuple[int, int, tuple[_Step, ...]]:
    """(start state, guard mask, per-depth steps) of the packed DFS at order n."""
    # Fields stay in [64 - n, 64 + n] and guard sums in [128 - n, 128 + 2n]:
    # [28, 100] and [92, 200] at the DFS cap, so no field carries into or
    # borrows from its neighbour and every test is exact.
    assert 1 <= n <= MAX_DFS_ORDER and _BIAS + n < _GUARD and _GUARD + 2 * n < 2 * _GUARD
    shifts = range(1, n)

    def packed(values) -> int:
        return sum(v << (_FIELD * t) for t, v in zip(shifts, values))

    steps = []
    for d in range(n):
        open_terms = [n - max(0, d - t + 1) - max(0, d - (n - t) + 1) for t in shifts]
        steps.append(_Step(
            ones=packed((d >= t) + (d >= n - t) for t in shifts),
            shift_fwd=_FIELD * (n - d),
            shift_rev=_FIELD * (n - 1 - d),
            lo=packed(_GUARD + u - _BIAS for u in open_terms),
            hi=packed(_GUARD + u + _BIAS for u in open_terms),
            bit_fwd=1 << (_FIELD * d),
            bit_rev=1 << (_FIELD * (n - 1 - d)),
        ))
    return packed([_BIAS] * (n - 1)), packed([_GUARD] * (n - 1)), tuple(steps)


def _dfs_shard(n: int, prefix: int, plen: int, weights: tuple[int, ...] | None) -> tuple[int, list[int]]:
    start, guard, steps = _packed_tables(n)
    nodes = 0
    sols: list[int] = []
    wlo = min(weights) if weights else 0
    whi = max(weights) if weights else n
    wset = set(weights) if weights else range(n + 1)
    # Each depth gets the range of -1 counts so far from which its + and
    # its - child stay inside the weight bounds; a fixed prefix entry
    # empties the range of the other sign.  The prefix thus goes through
    # the same bound machinery, so an infeasible prefix costs exactly the
    # nodes visited before the cut.  r_t + u_t = n (mod 2) at every
    # node, so the parity clause never fires at even n and fails every
    # node below the root at odd n.
    rows = []
    for d, step in enumerate(steps):
        fixed = d < plen
        minus_fixed = fixed and (prefix >> d) & 1
        reach = wlo - (n - d - 1)
        rows.append(step + (
            reach, -1 if minus_fixed else whi,
            reach - 1, -1 if fixed and not minus_fixed else whi - 1,
            bool(n & 1 and d),
        ))

    def walk(d: int, packed: int, fwd: int, rev: int, minus: int) -> None:
        nonlocal nodes
        if d == n:
            if minus in wset:
                sols.append(sum(1 << j for j in range(n) if (fwd >> (_FIELD * j)) & 1))
            return
        (ones, shift_fwd, shift_rev, lo, hi, bit_fwd, bit_rev,
         plus_lo, plus_hi, minus_lo, minus_hi, parity_fails) = rows[d]
        delta = ones - 2 * ((fwd << shift_fwd) + (rev >> shift_rev))
        if plus_lo <= minus <= plus_hi:
            nodes += 1
            child = packed + delta
            if not parity_fails and ((child + lo) & (hi - child) & guard) == guard:
                walk(d + 1, child, fwd, rev, minus)
        if minus_lo <= minus <= minus_hi:
            nodes += 1
            child = packed - delta
            if not parity_fails and ((child + lo) & (hi - child) & guard) == guard:
                walk(d + 1, child, fwd | bit_fwd, rev | bit_rev, minus + 1)

    walk(0, start, 0, 0, 0)
    return nodes, sols


def _bits_to_string(bits: int, n: int) -> str:
    return "".join("-" if (bits >> i) & 1 else "+" for i in range(n))


def _run_shard(task: tuple) -> tuple[int, int, tuple[str, ...], int]:
    """(prefix, nodes, solution strings, elapsed_ms) of one shard."""
    strategy, n, prefix, plen, weights = task
    start = time.monotonic()
    nodes, sols = (_dfs_shard if strategy == STRATEGY_DFS else _walk_shard)(n, prefix, plen, weights)
    elapsed = int((time.monotonic() - start) * 1000)
    return prefix, nodes, tuple(_bits_to_string(b, n) for b in sols), elapsed


# ---------------------------------------------------------------------------
# Checkpoint files: a small header plus one line per completed shard.
# The mandated shard token is ``prefix=<bitstring>``; the remaining
# fields on the line carry the shard tallies so a resumed run can merge
# finished work without redoing it.

def _prefix_len(n: int, jobs: int, checkpointing: bool) -> int:
    plen = (4 * jobs - 1).bit_length()
    if checkpointing:
        plen = max(plen, 8)
    return min(plen, n)


_BITS_TO_SIGNS = str.maketrans("01", "+-")


def _prefix_bitstring(prefix: int, plen: int) -> str:
    return "".join("1" if (prefix >> i) & 1 else "0" for i in range(plen))


def _write_checkpoint_header(path: str, n: int, label: str, plen: int) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("# circhad search checkpoint v1\n")
        f.write(f"n={n}\n")
        f.write(f"strategy={label}\n")
        f.write(f"prefix_bits={plen}\n")


def _append_checkpoint_line(path: str, plen: int, result: tuple) -> None:
    prefix, nodes, sols, elapsed = result
    line = (
        f"prefix={_prefix_bitstring(prefix, plen)}"
        f" raw_count={len(sols)} nodes_explored={nodes} elapsed_ms={elapsed}"
        f" solutions={','.join(sols)}\n"
    )
    with open(path, "a", encoding="ascii") as f:
        f.write(line)


_SHARD_LINE = re.compile(
    r"prefix=([01]*) raw_count=([0-9]+) nodes_explored=([0-9]+)"
    r" elapsed_ms=([0-9]+) solutions=([-+,]*)"
)


def _parse_shard_line(line: str, n: int, plen: int) -> tuple:
    """One ``prefix=...`` line as a shard result; ValueError if it does not hold."""
    match = _SHARD_LINE.fullmatch(line)
    if match is None:
        raise ValueError(
            f"checkpoint line {line!r} does not read prefix=<bits> raw_count=<count>"
            " nodes_explored=<count> elapsed_ms=<count> solutions=<rows>,"
            " each count a non-negative integer"
        )
    bitstring, raw, nodes, elapsed, listing = match.groups()
    if len(bitstring) != plen:
        raise ValueError(
            f"checkpoint prefix width {len(bitstring)} does not match its header ({plen})"
        )
    raw, nodes, elapsed = int(raw), int(nodes), int(elapsed)
    sols = tuple(filter(None, listing.split(",")))
    if raw != len(sols):
        raise ValueError(f"checkpoint shard {bitstring}: raw_count {raw} but {len(sols)} rows listed")
    head = bitstring.translate(_BITS_TO_SIGNS)
    for text in sols:
        if len(text) != n or not text.startswith(head):
            raise ValueError(
                f"checkpoint shard {bitstring}: row {text!r} is not {n} signs starting {head!r}"
            )
        if not is_circulant_hadamard(Sequence.from_string(text)):
            raise ValueError(f"checkpoint shard {bitstring}: row {text} is not a Hadamard row")
    prefix = int(bitstring[::-1], 2) if bitstring else 0
    return prefix, nodes, sols, elapsed


def _load_checkpoint(path: str, n: int, label: str, plen: int) -> tuple[int, dict[int, tuple]]:
    """Parse completed shard lines; create the file with a header if new.

    Returns the prefix width and the finished shards.  A file with a
    header keeps the width written there, so a resume does not depend on
    ``--jobs``; a new file gets ``plen``.  Every shard line is checked
    against the header and its own listing; anything that does not hold
    raises ValueError.

    A crash mid-append leaves an unterminated last line.  The file is cut
    back to its last newline, so that shard is redone and the next append
    starts on a line of its own.
    """
    try:
        with open(path, "r+b") as f:
            data = f.read()
            end = data.rfind(b"\n") + 1
            if end < len(data):
                f.truncate(end)
    except FileNotFoundError:
        end = 0
    if end == 0:
        _write_checkpoint_header(path, n, label, plen)
        return plen, {}
    header: dict[str, str] = {}
    shard_lines = []
    for line in data[:end].decode("ascii").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("prefix="):
            shard_lines.append(line)
        else:
            key, _, value = line.partition("=")
            header[key] = value
    if int(header.get("n", -1)) != n or header.get("strategy") != label:
        raise ValueError(
            f"checkpoint was written for n={header.get('n')} strategy={header.get('strategy')}, "
            f"not n={n} strategy={label}"
        )
    width = header.get("prefix_bits", "")
    if not width.isdigit() or int(width) > n:
        raise ValueError(f"checkpoint prefix_bits {width!r} is not in 0..{n}; cannot resume")
    plen = int(width)
    done = {}
    for line in shard_lines:
        shard = _parse_shard_line(line, n, plen)
        done[shard[0]] = shard
    return plen, done


# ---------------------------------------------------------------------------
# Orchestration.

def _exhaustive_cap(override: int | None) -> int:
    if override is not None:
        return override
    value = os.environ.get(EXHAUSTIVE_CAP_ENV)
    if value is None:
        return DEFAULT_EXHAUSTIVE_CAP
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"{EXHAUSTIVE_CAP_ENV} must be a non-negative decimal integer, got {value!r}")
    return int(value)


def run_search(
    n: int,
    strategy: str,
    jobs: int = 1,
    *,
    weight_filter: bool = False,
    list_cap: int = DEFAULT_LIST_CAP,
    checkpoint: str | None = None,
    exhaustive_cap: int | None = None,
) -> SearchReport:
    """Enumerate all circulant Hadamard first rows of order n.

    ``weight_filter`` adds the admissible -1-count constraint to the
    pruned DFS (the long-run configuration for large square orders).
    Raises ``CapExceeded`` rather than starting a run past the caps:
    2^n enumerations are refused above the CHM_MAX_EXHAUSTIVE_N limit
    (default 24) and the DFS above order 36.
    """
    start = time.monotonic()
    if n < 1:
        raise ValueError("order must be positive")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if weight_filter and strategy != STRATEGY_DFS:
        raise ValueError("weight_filter applies to the pruned-dfs strategy only")
    if list_cap < 0:
        raise ValueError("list cap must be non-negative")

    weights: tuple[int, ...] | None = None
    if strategy == STRATEGY_WEIGHT or weight_filter:
        weights = expected_minus_counts(n)
        if weights is None:
            raise ValueError(
                f"weight-constrained enumeration needs a perfect-square order, got {n}"
            )

    if strategy in (STRATEGY_EXHAUSTIVE, STRATEGY_WEIGHT):
        cap = _exhaustive_cap(exhaustive_cap)
        if n > cap:
            raise CapExceeded(
                f"order {n} exceeds the full-enumeration cap {cap}"
                f" (set {EXHAUSTIVE_CAP_ENV} to raise it)"
            )
    elif n > MAX_DFS_ORDER:
        raise CapExceeded(f"order {n} exceeds the DFS cap {MAX_DFS_ORDER}")

    label = strategy + "+weight" if weight_filter else strategy
    plen = _prefix_len(n, jobs, checkpoint is not None)
    done: dict[int, tuple] = {}
    if checkpoint is not None:
        plen, done = _load_checkpoint(checkpoint, n, label, plen)
    pending = [
        (strategy, n, prefix, plen, weights)
        for prefix in range(1 << plen) if prefix not in done
    ]

    results = dict(done)
    parallel = jobs > 1 and bool(pending)
    workers = min(jobs, len(pending), os.cpu_count() or 1)
    with (
        concurrent.futures.ProcessPoolExecutor(max_workers=workers) if parallel
        else contextlib.nullcontext()
    ) as pool:
        for res in (pool.map if parallel else map)(_run_shard, pending):
            results[res[0]] = res
            if checkpoint is not None:
                _append_checkpoint_line(checkpoint, plen, res)

    nodes = sum(r[1] for r in results.values())
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

    Every listed row is re-checked with the exact autocorrelation test
    and the independent matrix product, and count consistency is checked
    against the listing cap.  The listing must be strictly ascending (as
    ``run_search`` writes it), the strategy label known and the counts
    non-negative.
    """
    from .sequences import has_orthogonal_rows  # local import to keep startup light

    problems = []
    if report.schema_version != SCHEMA_VERSION:
        problems.append(f"unsupported schema_version {report.schema_version}")
    if report.strategy not in _REPORT_STRATEGIES:
        problems.append(f"unknown strategy {report.strategy!r}")
    for key in ("raw_count", "canonical_count", "nodes_explored", "cap"):
        if getattr(report, key) < 0:
            problems.append(f"{key} is negative")
    if len(report.solutions) > report.cap:
        problems.append(f"{len(report.solutions)} rows listed, more than the cap {report.cap}")
    if any(a >= b for a, b in zip(report.solutions, report.solutions[1:])):
        problems.append("solutions are not strictly ascending (sorted and distinct)")
    if report.raw_count < len(report.solutions):
        problems.append("raw_count is smaller than the number of listed solutions")
    if report.raw_count <= report.cap and report.raw_count != len(report.solutions):
        problems.append("raw_count disagrees with the untruncated solution list")
    seen_canonical = set()
    for text in report.solutions:
        try:
            seq = Sequence.from_string(text)
        except ValueError as exc:
            problems.append(f"solution {text!r}: {exc}")
            continue
        if seq.n != report.n:
            problems.append(f"solution {text!r} has length {seq.n}, expected {report.n}")
            continue
        if not is_circulant_hadamard(seq):
            problems.append(f"solution {text!r} fails the exact autocorrelation test")
        if not has_orthogonal_rows(seq):
            problems.append(f"solution {text!r} fails the exact matrix product test")
        seen_canonical.add(canonicalize(seq).to_string())
    if report.raw_count <= report.cap and report.canonical_count != len(seen_canonical):
        problems.append(
            f"canonical_count {report.canonical_count} disagrees with the listed rows"
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


def cross_validate(n: int, jobs: int = 1, exhaustive_cap: int | None = None) -> CrossValidation:
    """Run every applicable strategy and check they agree solution-for-solution.

    Each found row is additionally pushed through the exact matrix
    product, the order checks, and (for orders divisible by 4, on its
    -1-minority canonical form) the full spectral verdict.  Refuses runs
    past the exhaustive cap rather than silently downgrading.
    """
    from .sequences import (
        even_order_check,
        has_orthogonal_rows,
        minus_indices,
        square_weight_check,
    )
    from .spectra import spectral_verdict

    reports = [run_search(n, STRATEGY_EXHAUSTIVE, jobs, exhaustive_cap=exhaustive_cap)]
    reports.append(run_search(n, STRATEGY_DFS, jobs))
    if expected_minus_counts(n) is not None:
        reports.append(run_search(n, STRATEGY_WEIGHT, jobs, exhaustive_cap=exhaustive_cap))

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
