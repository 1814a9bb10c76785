"""Enumeration strategies, canonical forms, checkpoints, cross-validation."""

import concurrent.futures
import dataclasses
import functools
import itertools
import math
import os
import random
import re
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circhad import search
from circhad.search import (
    CapExceeded,
    STRATEGY_DFS,
    STRATEGY_EXHAUSTIVE,
    STRATEGY_WEIGHT,
    canonicalize,
    cross_validate,
    report_from_dict,
    report_to_dict,
    revalidate_report,
    run_search,
)
from circhad.sequences import (
    Sequence,
    autocorrelation,
    expected_minus_counts,
    has_orthogonal_rows,
    is_circulant_hadamard,
)

sequences_st = st.integers(1, 16).flatmap(
    lambda n: st.tuples(*([st.sampled_from((-1, 1))] * n)).map(Sequence)
)


def naive_count(n):
    count = 0
    for bits in range(1 << n):
        s = Sequence(tuple(-1 if (bits >> i) & 1 else 1 for i in range(n)))
        if is_circulant_hadamard(s):
            count += 1
    return count


# Every report label as the (strategy, weight_filter) pair that runs it.
LABELS = [
    (strategy, weight_filter)
    for strategy in search.STRATEGIES for weight_filter in (False, True)
    if search._label(strategy, weight_filter) in search._LABELS
]


def patch_kernel(monkeypatch, kernel, replacement):
    """Run ``replacement`` instead of ``kernel`` for every label whose record holds it.

    The records hold the kernels themselves, so setting the module's
    ``_walk_shard`` or ``_dfs_shard`` would not reach a run.
    """
    for label, rules in search._LABELS.items():
        if rules.kernel is kernel:
            monkeypatch.setitem(search._LABELS, label, rules._replace(kernel=replacement))


# ---------------------------------------------------------------------------
# canonical forms

def test_canonicalize_examples():
    assert canonicalize(Sequence.from_string("+++-")).to_string() == "-+++"
    assert canonicalize(Sequence.from_string("-+++")).to_string() == "-+++"
    assert canonicalize(Sequence.from_string("+---")).to_string() == "-+++"


@given(sequences_st)
def test_canonicalize_constant_on_the_orbit(s):
    canon = canonicalize(s)
    for r in range(s.n):
        rotated = s.entries[r:] + s.entries[:r]
        assert canonicalize(Sequence(rotated)) == canon
        assert canonicalize(Sequence(tuple(-e for e in rotated))) == canon
    assert canonicalize(canon) == canon  # idempotent


@given(sequences_st)
def test_canonicalize_prefers_minus_minority(s):
    canon = canonicalize(s)
    minus = canon.entries.count(-1)
    assert minus <= s.n - minus


# ---------------------------------------------------------------------------
# strategies

def test_order_one_finds_both_signs():
    rep = run_search(1, STRATEGY_EXHAUSTIVE)
    assert rep.raw_count == 2
    assert rep.solutions == ("+", "-")


def test_order_four_ground_truth():
    rep = run_search(4, STRATEGY_EXHAUSTIVE)
    assert rep.raw_count == 8
    assert rep.canonical_count == 1
    assert "-+++" in rep.solutions
    assert set(rep.solutions) == {
        "-+++", "+-++", "++-+", "+++-", "+---", "-+--", "--+-", "---+",
    }
    # the single canonical class is represented by -+++ itself
    canon = {canonicalize(Sequence.from_string(s)).to_string() for s in rep.solutions}
    assert canon == {"-+++"}


def test_order_sixteen_is_empty():
    assert run_search(16, STRATEGY_EXHAUSTIVE).raw_count == 0


def test_exhaustive_matches_naive_loop_small():
    for n in range(1, 11):
        assert run_search(n, STRATEGY_EXHAUSTIVE).raw_count == naive_count(n)


@pytest.mark.parametrize("n", (1, 2, 4, 8, 9, 12, 16))
def test_strategies_agree(n):
    reports = [
        run_search(n, STRATEGY_EXHAUSTIVE),
        run_search(n, STRATEGY_DFS),
    ]
    if n in (1, 4, 9, 16):
        reports.append(run_search(n, STRATEGY_WEIGHT))
    counts = {r.raw_count for r in reports}
    sols = {r.solutions for r in reports}
    assert len(counts) == 1 and len(sols) == 1


def test_weight_strategy_needs_square_order():
    with pytest.raises(ValueError):
        run_search(8, STRATEGY_WEIGHT)
    with pytest.raises(ValueError):
        run_search(8, STRATEGY_DFS, weight_filter=True)
    with pytest.raises(ValueError):
        run_search(4, STRATEGY_EXHAUSTIVE, weight_filter=True)


def test_dfs_weight_filter_agrees_on_squares():
    for n in (4, 9, 16):
        plain = run_search(n, STRATEGY_DFS)
        filtered = run_search(n, STRATEGY_DFS, weight_filter=True)
        assert filtered.strategy == "pruned-dfs+weight"
        assert (filtered.raw_count, filtered.solutions) == (plain.raw_count, plain.solutions)


def test_solutions_are_sound():
    for text in run_search(4, STRATEGY_EXHAUSTIVE).solutions:
        s = Sequence.from_string(text)
        assert is_circulant_hadamard(s)
        assert has_orthogonal_rows(s)


def test_listing_cap_truncates_but_counts_stay_exact():
    rep = run_search(4, STRATEGY_EXHAUSTIVE, list_cap=3)
    assert rep.raw_count == 8
    assert len(rep.solutions) == 3
    assert rep.cap == 3
    assert rep.canonical_count == 1  # counted before truncation


# ---------------------------------------------------------------------------
# the packed pruned-dfs kernel against the assign/retract oracle

def reference_dfs_shard(n, prefix, plen, weights):
    """The pruned DFS written shift by shift, undoing each assignment on return."""
    h = [0] * n
    partial = [0] * n       # running r[t] over completed terms
    remaining = [n] * n     # terms of r[t] not yet determined
    low_taus = [range(1, d + 1) for d in range(n)]
    high_taus = [range(max(1, n - d), n) for d in range(n)]
    nodes = 0
    raw = 0
    sols = []
    wlo = min(weights) if weights else 0
    whi = max(weights) if weights else n
    wset = set(weights) if weights else None

    def assign(d, sign):
        nonlocal nodes
        nodes += 1
        h[d] = sign
        ok = True
        for t in low_taus[d]:
            s = partial[t] + h[d - t] * sign
            partial[t] = s
            u = remaining[t] - 1
            remaining[t] = u
            if (s if s >= 0 else -s) > u or (s + u) & 1:
                ok = False
        for t in high_taus[d]:
            s = partial[t] + sign * h[d + t - n]
            partial[t] = s
            u = remaining[t] - 1
            remaining[t] = u
            if (s if s >= 0 else -s) > u or (s + u) & 1:
                ok = False
        return ok

    def retract(d, sign):
        for t in low_taus[d]:
            partial[t] -= h[d - t] * sign
            remaining[t] += 1
        for t in high_taus[d]:
            partial[t] -= sign * h[d + t - n]
            remaining[t] += 1
        h[d] = 0

    def record():
        nonlocal raw
        bits = 0
        for i in range(n):
            if h[i] == -1:
                bits |= 1 << i
        raw += 1
        sols.append(bits)

    def walk(d, minus):
        if d == n:
            if wset is None or minus in wset:
                record()
            return
        left = n - d - 1
        for sign in (1, -1):
            m = minus + (sign == -1)
            if wset is not None and (m > whi or m + left < wlo):
                continue
            if assign(d, sign):
                walk(d + 1, m)
            retract(d, sign)

    minus = 0
    feasible = True
    for d in range(plen):
        sign = -1 if (prefix >> d) & 1 else 1
        m = minus + (sign == -1)
        left = n - d - 1
        if wset is not None and (m > whi or m + left < wlo):
            feasible = False
            break
        if not assign(d, sign):
            feasible = False
            break
        minus = m
    if feasible:
        walk(plen, minus)
    return raw, nodes, sols


@pytest.mark.parametrize("n", range(1, 17))
def test_dfs_kernel_matches_reference_on_every_prefix(n):
    weight_options = [None]
    if expected_minus_counts(n) is not None:
        weight_options.append(expected_minus_counts(n))
    for plen in sorted({min(2, n), min(8, n)}):
        for weights in weight_options:
            for prefix in range(1 << plen):
                nodes, rows = search._dfs_shard(n, prefix, plen, weights)
                assert (len(rows), nodes, rows) == reference_dfs_shard(
                    n, prefix, plen, weights
                ), (plen, weights, prefix)


@pytest.mark.parametrize("n", (17, 25))
def test_dfs_kernel_matches_reference_at_odd_orders(n):
    # Once h[1] is assigned every node fails the parity clause, which the
    # packed kernel reads from its table (lo = 0) rather than from a flag.
    rng = random.Random(n)
    weight_options = [None]
    if expected_minus_counts(n) is not None:
        weight_options.append(expected_minus_counts(n))
    for weights in weight_options:
        for prefix in rng.sample(range(1 << 8), 32):
            nodes, rows = search._dfs_shard(n, prefix, 8, weights)
            assert (len(rows), nodes, rows) == reference_dfs_shard(n, prefix, 8, weights), (weights, prefix)


def test_dfs_kernel_matches_reference_on_order_36_shards():
    weights = expected_minus_counts(36)
    rng = random.Random(0)
    for prefix in (rng.getrandbits(20), rng.getrandbits(20)):
        expected = reference_dfs_shard(36, prefix, 20, weights)
        assert expected[1] > 1000  # shards that get well past the prefix
        nodes, rows = search._dfs_shard(36, prefix, 20, weights)
        assert (len(rows), nodes, rows) == expected, prefix


# ---------------------------------------------------------------------------
# the bit-sliced full-enumeration walker against the per-row loop and a
# naive filter

def reference_walk_shard(n, prefix, plen, weights, shifts=None):
    """The full enumeration written row by row, one rotated-XOR popcount per shift.

    Rows come in the walker's order: those with a -1 at the first free
    position, then those without, each half in that order on the rest,
    and with ``weights`` only those with an admissible -1 count.  A row
    is kept when r_t = 0 at every shift in ``shifts``, by default 1..n/2.
    """
    rows = [prefix]
    for i in reversed(range(plen, n)):
        rows = [bits | 1 << i for bits in rows] + rows
    if weights is not None:
        rows = [bits for bits in rows if bits.bit_count() in weights]
    nodes = len(rows)
    mask = (1 << n) - 1
    sols = []
    for bits in rows:
        for t in shifts or range(1, n // 2 + 1):
            rot = ((bits >> t) | (bits << (n - t))) & mask
            if 2 * (bits ^ rot).bit_count() != n:
                break
        else:
            sols.append(bits)
    return nodes, sols


def _signs(bits, n):
    return Sequence(tuple(-1 if (bits >> i) & 1 else 1 for i in range(n)))


def _decode(planes, j):
    """Row j of a block as a bit mask over its free positions."""
    return sum((plane >> j & 1) << m for m, plane in enumerate(planes))


@pytest.mark.parametrize("b", range(11))
def test_planes_hold_each_row_once_in_split_order(b):
    # -1 (bit 1) at an earlier position first: itertools.product over
    # (1, 0) with the first position slowest, filtered by -1 count.  One
    # count, two in either order, three, none and all of them.
    every = [sum(bit << m for m, bit in enumerate(signs)) for signs in itertools.product((1, 0), repeat=b)]
    counts = [None, (), tuple(range(b + 1)), tuple(range(b, -1, -3))]
    counts += [combo for r in (1, 2) for combo in itertools.permutations(range(b + 1), r)]
    for ks in counts:
        expected = [row for row in every if ks is None or row.bit_count() in ks]
        planes = search._planes(b, ks)
        assert len(planes) == b
        assert all(plane >> len(expected) == 0 for plane in planes), ks
        assert [_decode(planes, j) for j in range(len(expected))] == expected, ks


def _shift_masks(n, a, plen, fixed, free, full):
    """The walker's zero-shift mask at each t = 1..n/2, the first plen entries a prefix.

    The shared counter and the boundary tally are built afresh, from the
    same functions the walker calls, so the masks hold whichever block
    of the shard the tally is reused for.
    """
    masks = {}
    flipped = tuple(plane ^ full for plane in free)
    for pairs in search._pair_classes(n, a, plen):
        counter = search._shared_counter(n, pairs, fixed & ((1 << plen) - 1), free, flipped)
        levels = search._boundary_tally(pairs, fixed, free, flipped, counter)
        masks[pairs.t] = search._zero_shift_mask(levels, search._shift_target(n, pairs, fixed), full)
    return masks


@pytest.mark.parametrize("n", range(1, 15))
def test_zero_shift_mask_matches_autocorrelation_on_every_row(n):
    correlations = [autocorrelation(_signs(bits, n)) for bits in range(1 << n)]
    if n & 1:
        # Every r_t of an odd order is odd, which is why the walker
        # builds no counter there.
        assert all(r[t] % 2 for r in correlations for t in range(1, n))
        return
    # Every fixed width, with the fixed entries all +1, all -1 and two
    # seeded mixtures, over every row of the free positions.
    rng = random.Random(n)
    for a in range(n + 1):
        free = search._planes(n - a, None)
        full = (1 << (1 << (n - a))) - 1
        for fixed in sorted({0, (1 << a) - 1, rng.getrandbits(a), rng.getrandbits(a)}):
            rows = [fixed | _decode(free, j) << a for j in range(1 << (n - a))]
            expected = {
                t: sum(1 << j for j, bits in enumerate(rows) if correlations[bits][t] == 0)
                for t in range(1, n // 2 + 1)
            }
            # The prefix empty, half the fixed entries, and all of them.
            for plen in sorted({0, a // 2, a}):
                assert _shift_masks(n, a, plen, fixed, free, full) == expected, (a, plen, fixed)


@pytest.mark.parametrize("n", range(16, 25))
def test_zero_shift_mask_matches_autocorrelation_on_random_blocks(n):
    rng = random.Random(n)
    lanes = 512
    full = (1 << lanes) - 1
    for a in (0, rng.randrange(1, n), n):
        fixed = rng.getrandbits(a)
        free = [rng.getrandbits(lanes) for _ in range(n - a)]
        correlations = [
            autocorrelation(_signs(fixed | sum((p >> j & 1) << (a + m) for m, p in enumerate(free)), n))
            for j in range(lanes)
        ]
        expected = {
            t: sum(1 << j for j, r in enumerate(correlations) if r[t] == 0) for t in range(1, n // 2 + 1)
        }
        # r_t = n (mod 4) at even n, so only n = 0 (mod 4) has zero shifts,
        # and no odd order has one; a block with free positions has some.
        assert any(expected.values()) == (n % 4 == 0) or a == n, a
        if n % 2 == 0:
            for plen in sorted({0, a // 2, a}):
                assert _shift_masks(n, a, plen, fixed, free, full) == expected, (a, plen)


@pytest.mark.parametrize("n", range(1, 17))
def test_walker_matches_reference_on_every_prefix(n):
    weight_options = [None]
    if expected_minus_counts(n) is not None:
        weight_options.append(expected_minus_counts(n))
    for plen in sorted({0, min(2, n), min(8, n)}):
        for weights in weight_options:
            for prefix in range(1 << plen):
                assert search._walk_shard(n, prefix, plen, weights) == reference_walk_shard(
                    n, prefix, plen, weights
                ), (plen, weights, prefix)


@pytest.mark.parametrize("n", range(1, 13))
def test_walker_matches_naive_filter_on_every_prefix(n):
    rows = [
        (bits, is_circulant_hadamard(Sequence(tuple(-1 if (bits >> i) & 1 else 1 for i in range(n)))))
        for bits in range(1 << n)
    ]
    weight_options = [None]
    if expected_minus_counts(n) is not None:
        weight_options.append(expected_minus_counts(n))
    for plen in sorted({min(2, n), min(8, n)}):
        low = (1 << plen) - 1
        for weights in weight_options:
            candidates = Counter()
            hadamard = {}
            for bits, perfect in rows:
                if weights is None or bits.bit_count() in weights:
                    candidates[bits & low] += 1
                    if perfect:
                        hadamard.setdefault(bits & low, []).append(bits)
            for prefix in range(1 << plen):
                nodes, found = search._walk_shard(n, prefix, plen, weights)
                assert nodes == candidates[prefix], (plen, weights, prefix)
                assert sorted(found) == hadamard.get(prefix, []), (plen, weights, prefix)


@pytest.mark.parametrize("n", (1, 4, 9, 16))
def test_walkers_visit_every_candidate_row_once(n, tmp_path):
    weights = expected_minus_counts(n)
    expected = {
        STRATEGY_EXHAUSTIVE: 1 << n,
        STRATEGY_WEIGHT: sum(math.comb(n, w) for w in set(weights)),
    }
    for strategy, nodes in expected.items():
        for kwargs in ({}, {"jobs": 2}, {"checkpoint": str(tmp_path / f"{strategy}.txt")}):
            assert run_search(n, strategy, **kwargs).nodes_explored == nodes, (strategy, kwargs)


@pytest.mark.parametrize("block_bits", (2, 3, 4))
@pytest.mark.parametrize("n", range(1, 17))
def test_split_blocks_walk_every_row_once(monkeypatch, n, block_bits):
    # Blocks of at most 4, 8 or 16 rows, so both the exhaustive and the
    # weighted side split on several positions, and one shard holds many
    # blocks on the same free planes (weighted: of several -1 counts and
    # free widths), each reusing the free counters the first one built.
    monkeypatch.setattr(search, "_BLOCK_BITS", block_bits)
    rng = random.Random(n * 10 + block_bits)
    weight_options = [None, tuple(sorted(rng.sample(range(n + 1), min(3, n + 1))))]
    if expected_minus_counts(n) is not None:
        weight_options.append(expected_minus_counts(n))
    for plen in sorted({0, min(2, n)}):
        for weights in weight_options:
            for prefix in range(1 << plen):
                assert search._walk_shard(n, prefix, plen, weights) == reference_walk_shard(
                    n, prefix, plen, weights
                ), (plen, weights, prefix)


@pytest.mark.parametrize(
    "n, plen, block_bits", [(36, 20, 16), (36, 18, 4), (36, 22, 2), (25, 12, 3), (27, 14, 16)]
)
def test_deep_weighted_shards_match_reference(monkeypatch, n, plen, block_bits):
    # Seeded shards of order 36 that get well past the prefix, with blocks
    # split and sharing free planes, and odd orders, where no row is tested.
    monkeypatch.setattr(search, "_BLOCK_BITS", block_bits)
    weights = expected_minus_counts(n) or (n // 2 - 1, n // 2 + 2)
    rng = random.Random(n * 100 + plen)
    for _ in range(2):
        prefix = rng.getrandbits(plen)
        expected = reference_walk_shard(n, prefix, plen, weights)
        assert expected[0] > 1000, prefix
        assert search._walk_shard(n, prefix, plen, weights) == expected, prefix


def test_free_counters_are_built_once_per_shard_and_never_at_odd_order(monkeypatch):
    monkeypatch.setattr(search, "_BLOCK_BITS", 3)
    real = search._shared_counter
    built = []

    def recording(n, pairs, prefix, free, flipped):
        built.append((n, pairs, free, flipped))
        return real(n, pairs, prefix, free, flipped)

    monkeypatch.setattr(search, "_shared_counter", recording)
    for n, plen, weights in ((16, 2, None), (16, 2, (6, 10)), (12, 0, (4, 5, 6))):
        for prefix in range(1 << plen):
            for _ in range(2):
                built.clear()
                assert search._walk_shard(n, prefix, plen, weights) == reference_walk_shard(
                    n, prefix, plen, weights
                )
                # Each (free planes, shift) once per call, built afresh by
                # the next call.  Two groups may share their planes and
                # differ in rows, the last row all +1 in one of them, so
                # the complemented planes tell them apart.
                assert built and len(set(built)) == len(built), (n, prefix, weights)
    built.clear()
    # No r_t is 0 at n = 2 (mod 4) either, as r_t = n (mod 4).
    for n, plen in ((3, 2), (9, 2), (15, 4), (25, 14), (6, 2), (10, 4), (22, 14)):
        for weights in (None, expected_minus_counts(n)):
            assert search._walk_shard(n, 1, plen, weights) == reference_walk_shard(n, 1, plen, weights)
    assert built == []


def test_blocks_reuse_each_shifts_boundary_tally_per_pattern(monkeypatch):
    # At n = 24 a shard of 2^22 rows holds 64 blocks on positions 8..23.
    # Shift 1 reads only entry 7 past the two-entry prefix (its other
    # boundary pair ends at entry 0), so its 64 blocks make 2 tallies, one
    # per sign there.
    real = search._boundary_tally
    tallies = Counter()

    def recording(pairs, *args):
        tallies[pairs.t] += 1
        return real(pairs, *args)

    monkeypatch.setattr(search, "_boundary_tally", recording)
    assert len(list(search._blocks(24, 2, None, 1))) == 64
    assert search._walk_shard(24, 1, 2, None) == (1 << 22, [])
    assert tallies[1] == 2
    # Blocks that read the same entries but differ on the others still
    # get the zero mask of their own target: at n = 16 the 2048 blocks of
    # 8 rows on a 2-entry prefix share 2 shift-1 tallies (entry 12), and
    # the rows match the per-row reference.
    monkeypatch.setattr(search, "_BLOCK_BITS", 3)
    for prefix in range(4):
        tallies.clear()
        assert search._walk_shard(16, prefix, 2, None) == reference_walk_shard(16, prefix, 2, None)
        assert tallies[1] == 2, prefix


def without_half_period(monkeypatch):
    """Drop the shift t = n/2 from the walker: its rows are then those with r_t = 0 for 0 < t < n/2."""
    real = search._pair_classes
    monkeypatch.setattr(
        search, "_pair_classes", lambda n, a, plen: tuple(p for p in real(n, a, plen) if p.t != n // 2)
    )


@pytest.mark.parametrize("block_bits", (3, 16))
def test_walker_finds_the_rows_of_every_shift_but_the_half_period(monkeypatch, block_bits):
    # A positive control above order 4: with t = n/2 left out, the walk
    # keeps the almost-perfect rows (Wolfmann 1992; Pott & Bradley 1995),
    # plus order 4's perfect ones, so rows are emitted, reused masks and
    # all, from shards that hold them.
    without_half_period(monkeypatch)
    monkeypatch.setattr(search, "_BLOCK_BITS", block_bits)
    expected = {4: 12, 8: 40, 12: 144, 16: 128, 20: 80}
    for n, count in expected.items():
        plen = min(n, 8)
        shifts = range(1, n // 2)
        shards = {prefix: search._walk_shard(n, prefix, plen, None) for prefix in range(1 << plen)}
        assert sum(len(rows) for _, rows in shards.values()) == count, n
        if n <= 16:
            for prefix, shard in shards.items():
                assert shard == reference_walk_shard(n, prefix, plen, None, shifts), (n, prefix)
        if n in (12, 16):
            mask = (1 << plen) - 1
            for prefix, (_, rows) in shards.items():
                own = tuple(search._bits_to_string(b, n) for b in rows)
                mirror = tuple(search._bits_to_string(b, n) for b in shards[mask - prefix][1])
                assert search._mirror_rows(own) == mirror, (n, prefix)


def test_skipped_block_is_flagged_by_revalidate(monkeypatch):
    real = search._blocks

    def drop_first_block(*args):
        # Put the real generator back first, so only the first block of
        # the first shard goes missing.
        monkeypatch.setattr(search, "_blocks", real)
        blocks = real(*args)
        next(blocks)
        yield from blocks

    monkeypatch.setattr(search, "_blocks", drop_first_block)
    report = run_search(20, STRATEGY_EXHAUSTIVE)
    # The other three shards of the first shard's orbit are filled in from
    # it, dropped block and all.
    assert report.nodes_explored == (1 << 20) - 4 * (1 << search._BLOCK_BITS)
    assert any("nodes_explored" in p for p in revalidate_report(report))


@pytest.mark.parametrize("jobs", (1, 2))
def test_weighted_walk_splits_blocks_past_the_default_cap(jobs):
    # C(25 - P, w - popcount), w = 10 or 15, exceeds one block for every prefix
    # width P used here, so this is the weighted split at full size.  Its
    # 6537520 rows are fewer than 2^24, so it needs no checkpoint.
    report = run_search(25, STRATEGY_WEIGHT, jobs=jobs)
    assert report.nodes_explored == 2 * math.comb(25, 10) == 6537520
    assert report.raw_count == 0
    assert revalidate_report(report) == []


def test_weighted_shard_walks_both_counts_as_one_block(monkeypatch):
    # At n = 16 on a two-entry prefix, C(14, 6 - c) + C(14, 10 - c) = 4004
    # rows for c = 0 or 1 prefix -1s: one block of both counts per shard.
    real_blocks, real_walk = search._blocks, search._walk_shard
    blocks, shards = [], []

    def recording_blocks(*args):
        for block in real_blocks(*args):
            blocks.append(block)
            yield block

    def recording_walk(*task):
        blocks.clear()
        result = real_walk(*task)
        shards.append(list(blocks))
        return result

    monkeypatch.setattr(search, "_blocks", recording_blocks)
    patch_kernel(monkeypatch, real_walk, recording_walk)
    report = run_search(16, STRATEGY_WEIGHT)
    assert (report.nodes_explored, report.raw_count) == (16016, 0)
    assert len(shards) == 2
    for shard in shards:
        assert [(rows, len(ks)) for rows, _, ks, _ in shard] == [(4004, 2)], shard


def test_packed_fields_decode_to_the_partial_autocorrelations():
    field, twin = search._FIELD, search._TWIN
    for n in (35, 36):  # at odd n the table fails every node once h[1] is assigned
        wlo = 15 if n == 36 else 0
        start, guard, steps = search._packed_tables(n, wlo)
        rng = random.Random(n)
        for _ in range(20):
            h = [rng.choice((1, -1)) for _ in range(n)]
            packed, d2, r2 = start, 0, 0
            for d, (up, down, near_shift, wrap_shift, dbit, rbit, floor) in enumerate(steps):
                assert floor == wlo - (n - d - 1)
                # Shifted to depth d, the fixed registers hold twice the -1s
                # among the assigned partners h[d-t] and h[d+t-n] of h[d].
                near = sum(1 << (field * t) for t in range(1, d + 1) if h[d - t] == -1)
                wrap = sum(1 << (field * t) for t in range(n - d, n) if h[d + t - n] == -1)
                x = (r2 >> near_shift) + (d2 << wrap_shift)
                assert x == twin * 2 * (near + wrap), d
                if h[d] == 1:
                    packed += up - x
                else:
                    packed += x - down
                    d2, r2 = d2 | dbit, r2 | rbit
                within = True
                for t in range(1, n):
                    pairs = [i for i in range(n) if i <= d and (i + t) % n <= d]
                    partial = sum(h[i] * h[(i + t) % n] for i in pairs)
                    open_terms = n - len(pairs)
                    lo = 0 if n & 1 and d else 64 + open_terms
                    # The twin bytes hold 64 + lo + r_t and 64 + lo - r_t.
                    high, low = packed >> (field * t + 8) & 0xFF, packed >> (field * t) & 0xFF
                    assert (high, low) == (64 + lo + partial, 64 + lo - partial), (d, t)
                    if pairs:  # the reference's magnitude and parity clauses, on the touched fields
                        within = within and abs(partial) <= open_terms and (partial + open_terms) % 2 == 0
                assert (packed & guard == guard) == within, d
            # At the leaf the row is read off D2, and R2 holds it reversed.
            assert d2 == sum(twin * 2 << (field * j) for j in range(n) if h[j] == -1)
            assert r2 == sum(twin * 2 << (field * (n - 1 - j)) for j in range(n) if h[j] == -1)
            assert [d2 >> (field * j + 1) & 1 for j in range(n)] == [int(e == -1) for e in h]


def test_benchmark_dfs_node_counts_are_pinned():
    # The counts of the benchmark's two DFS runs: any change to what the
    # kernel visits above order 16 shows here.
    assert run_search(20, STRATEGY_DFS).nodes_explored == 397936
    assert run_search(16, STRATEGY_DFS, weight_filter=True).nodes_explored == 35836


# ---------------------------------------------------------------------------
# caps

def test_order_cap_refuses_every_label_above_36(tmp_path):
    for strategy, weight_filter, n in ((STRATEGY_EXHAUSTIVE, False, 37), (STRATEGY_WEIGHT, False, 49),
                                       (STRATEGY_DFS, False, 37), (STRATEGY_DFS, True, 49)):
        cp = tmp_path / f"{strategy}-{weight_filter}.ckpt"
        with pytest.raises(CapExceeded, match=f"order {n} exceeds the order cap 36"):
            run_search(n, strategy, weight_filter=weight_filter, checkpoint=str(cp))
        assert not cp.exists()  # refused before the checkpoint is opened
    # The order cap comes first, so C(n, w) is never built for an order this large.
    cp = tmp_path / "huge.ckpt"
    with pytest.raises(CapExceeded, match="exceeds the order cap 36"):
        run_search(10**18, STRATEGY_WEIGHT, checkpoint=str(cp))
    assert not cp.exists()


def test_full_enumeration_past_2_24_rows_needs_a_checkpoint(tmp_path):
    with pytest.raises(CapExceeded, match="exhaustive at order 25 walks 33554432 rows"):
        run_search(25, STRATEGY_EXHAUSTIVE)
    # At odd order no row qualifies, so the walk only counts its rows.
    report = run_search(25, STRATEGY_EXHAUSTIVE, checkpoint=str(tmp_path / "e25.ckpt"))
    assert (report.nodes_explored, report.raw_count) == (1 << 25, 0)
    assert revalidate_report(report) == []
    # The DFS is bounded by the order cap alone.
    report = run_search(25, STRATEGY_DFS)
    assert report.raw_count == 0 and revalidate_report(report) == []
    # Exactly 2^24 rows need no checkpoint.
    report = run_search(24, STRATEGY_EXHAUSTIVE, jobs=2)
    assert (report.nodes_explored, report.raw_count) == (1 << 24, 0)


@pytest.mark.parametrize("n", (30, 34))
def test_exhaustive_walk_decides_orders_2_mod_4_by_parity(tmp_path, n):
    # r_t = n (mod 4) for every row, so at n = 2 (mod 4) the walker counts
    # its rows and builds no counter: 2^34 rows take well under a second.
    cp = tmp_path / "e.ckpt"
    report = run_search(n, STRATEGY_EXHAUSTIVE, checkpoint=str(cp))
    assert (report.nodes_explored, report.raw_count) == (1 << n, 0)
    assert revalidate_report(report) == []
    lines = cp.read_text().splitlines(True)
    head = [l for l in lines if not l.startswith("prefix=")]
    shards = [l for l in lines if l.startswith("prefix=")]
    cp.write_text("".join(head + shards[: len(shards) // 2]))
    assert same_but_elapsed(run_search(n, STRATEGY_EXHAUSTIVE, checkpoint=str(cp)), report)
    assert len(shard_lines(cp)) == 256


# ---------------------------------------------------------------------------
# determinism across jobs

@pytest.mark.parametrize("strategy", (STRATEGY_EXHAUSTIVE, STRATEGY_DFS))
def test_results_identical_across_job_counts(strategy):
    base = run_search(12, strategy, jobs=1)
    for jobs in (2, 8):
        rep = run_search(12, strategy, jobs=jobs)
        assert rep.raw_count == base.raw_count
        assert rep.solutions == base.solutions
        assert rep.canonical_count == base.canonical_count


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_resume_preserves_counts(tmp_path):
    cp = str(tmp_path / "cp.txt")
    first = run_search(12, STRATEGY_DFS, checkpoint=cp)
    assert sum(1 for line in open(cp) if line.startswith("prefix=")) == 256

    # full resume: nothing recomputed, identical report
    again = run_search(12, STRATEGY_DFS, checkpoint=cp)
    assert (again.raw_count, again.nodes_explored, again.solutions) == (
        first.raw_count, first.nodes_explored, first.solutions,
    )

    # partial resume: drop some completed shards, totals must come back
    lines = open(cp).read().splitlines(True)
    head = [l for l in lines if not l.startswith("prefix=")]
    shards = [l for l in lines if l.startswith("prefix=")]
    with open(cp, "w") as f:
        f.writelines(head + shards[:100])
    resumed = run_search(12, STRATEGY_DFS, checkpoint=cp)
    assert (resumed.raw_count, resumed.nodes_explored) == (
        first.raw_count, first.nodes_explored,
    )


def test_checkpoint_solutions_survive_resume(tmp_path):
    cp = str(tmp_path / "cp4.txt")
    first = run_search(4, STRATEGY_EXHAUSTIVE, checkpoint=cp)
    assert first.raw_count == 8
    again = run_search(4, STRATEGY_EXHAUSTIVE, checkpoint=cp)
    assert again.solutions == first.solutions
    assert again.canonical_count == 1


def test_checkpoint_header_mismatch_is_rejected(tmp_path):
    cp = str(tmp_path / "cp.txt")
    run_search(12, STRATEGY_DFS, checkpoint=cp)
    with pytest.raises(ValueError):
        run_search(16, STRATEGY_DFS, checkpoint=cp)
    with pytest.raises(ValueError):
        run_search(12, STRATEGY_EXHAUSTIVE, checkpoint=cp)


def same_but_elapsed(a, b):
    return dataclasses.replace(a, elapsed_ms=0) == dataclasses.replace(b, elapsed_ms=0)


def shard_lines(path):
    return [l for l in open(path).read().splitlines() if l.startswith("prefix=")]


def test_checkpoint_resume_split_does_not_depend_on_jobs(tmp_path):
    cp = str(tmp_path / "cp.txt")
    base = run_search(12, STRATEGY_DFS, checkpoint=cp)
    lines = open(cp).read().splitlines(True)
    with open(cp, "w") as f:
        f.writelines(lines[:-2])
    # Every checkpointed run splits at min(n, 8) prefix bits, whatever --jobs.
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, jobs=128, checkpoint=cp), base)
    assert "prefix_bits=8\n" in open(cp).read()
    assert len(shard_lines(cp)) == 256
    assert {len(l.split()[0]) for l in shard_lines(cp)} == {len("prefix=") + 8}


@pytest.mark.parametrize("width", ("13", "9", "7", "-1", "x", None))
def test_checkpoint_header_prefix_width_outside_the_order_is_rejected(tmp_path, width):
    # A checkpointed run writes and reads one width, min(n, 8): a wider or
    # a narrower header is another run's file.
    cp = tmp_path / "cp.txt"
    run_search(12, STRATEGY_DFS, checkpoint=str(cp))
    text = cp.read_text()
    replacement = "" if width is None else f"prefix_bits={width}\n"
    cp.write_text(text.replace("prefix_bits=8\n", replacement))
    with pytest.raises(ValueError, match="prefix_bits"):
        run_search(12, STRATEGY_DFS, checkpoint=str(cp))


@pytest.mark.parametrize("n, strategy", [(12, STRATEGY_DFS), (4, STRATEGY_EXHAUSTIVE)])
def test_checkpoint_shard_listed_twice_is_rejected(tmp_path, n, strategy):
    # A second line for a prefix would be merged over the first: at n = 12
    # the DFS, whose node count nothing can recount, would report it.
    cp = tmp_path / "cp.txt"
    run_search(n, strategy, checkpoint=str(cp))
    first = shard_lines(cp)[0]
    with open(cp, "a") as f:
        f.write(first + "\n")
    message = f"checkpoint {cp}: shard {first.split()[0]} is listed twice"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_search(n, strategy, checkpoint=str(cp))


def checkpoint_with_line(tmp_path, n, strategy, prefix, line):
    """A checkpoint of order n (at order 4 one row per shard) with one shard line replaced."""
    cp = tmp_path / "cp.txt"
    run_search(n, strategy, checkpoint=str(cp))
    lines = cp.read_text().splitlines()
    assert sum(l.startswith(f"prefix={prefix} ") for l in lines) == 1
    cp.write_text("".join(
        (line if l.startswith(f"prefix={prefix} ") else l) + "\n" for l in lines
    ))
    return str(cp)


@pytest.mark.parametrize(
    "n, strategy, prefix, line, problem",
    [
        (4, STRATEGY_EXHAUSTIVE, "0000", "prefix=0000 nodes_explored=3", "does not read"),
        (4, STRATEGY_EXHAUSTIVE, "0000",
         "prefix=0000 raw_count=0 nodes_explored=x elapsed_ms=0 solutions=",
         "does not read"),
        (4, STRATEGY_EXHAUSTIVE, "0000",
         "prefix=0000 raw_count=0 nodes_explored=1 solutions=", "does not read"),
        (4, STRATEGY_EXHAUSTIVE, "0000",
         "prefix=0000 raw_count=-5 nodes_explored=1 elapsed_ms=0 solutions=",
         "does not read"),
        (4, STRATEGY_EXHAUSTIVE, "0000",
         "prefix=0000 raw_count=0 nodes_explored=-1 elapsed_ms=0 solutions=",
         "does not read"),
        (4, STRATEGY_EXHAUSTIVE, "1000",
         "prefix=1000 raw_count=2 nodes_explored=1 elapsed_ms=0 solutions=-+++",
         "raw_count 2 but 1 rows listed"),
        (4, STRATEGY_EXHAUSTIVE, "1000",
         "prefix=1000 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=-++",
         "is not 4 signs"),
        (4, STRATEGY_EXHAUSTIVE, "1000",
         "prefix=1000 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=+-++",
         "starting '-+++'"),
        (4, STRATEGY_EXHAUSTIVE, "0000",
         "prefix=0000 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=++++",
         "not a Hadamard row"),
        (4, STRATEGY_EXHAUSTIVE, "1000",
         "prefix=1000 raw_count=2 nodes_explored=1 elapsed_ms=0 solutions=-+++,-+++",
         "shard 1000: a row is listed twice"),
        (4, STRATEGY_EXHAUSTIVE, "0000",
         "prefix=00x0 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=",
         "does not read"),
        (4, STRATEGY_EXHAUSTIVE, "0000",
         f"prefix=0000 raw_count=0 nodes_explored={'9' * 5000} elapsed_ms=0 solutions=",
         "does not read"),
        (4, STRATEGY_EXHAUSTIVE, "0000",
         "prefix=000 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=",
         "prefix width 3 does not match its header (4)"),
        (4, STRATEGY_EXHAUSTIVE, "0000",
         "prefix=00000 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=",
         "prefix width 5 does not match its header (4)"),
        # Each line's node count is held to the label's node rule as it is read.
        (4, STRATEGY_EXHAUSTIVE, "0100",
         "prefix=0100 raw_count=1 nodes_explored=2 elapsed_ms=0 solutions=+-++",
         "shard 0100: nodes_explored 2 is not the number of rows every exhaustive run of order 4 visits"
         " on this shard"),
        (4, STRATEGY_WEIGHT, "0000", "prefix=0000 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=",
         "shard 0000: nodes_explored 1 is not the number of rows every weight-constrained run of order 4"),
        (12, STRATEGY_DFS, "10000000",
         "prefix=10000000 raw_count=0 nodes_explored=4014 elapsed_ms=0 solutions=",
         "shard 10000000: nodes_explored 4014 is more than the 38 nodes any pruned-dfs run of order 12"
         " visits on this shard"),
        # A listing is empty or rows joined by commas: no item is empty.
        (4, STRATEGY_EXHAUSTIVE, "0000",
         "prefix=0000 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=,,,",
         "shard 0000: raw_count 0 but 4 rows listed"),
        (4, STRATEGY_EXHAUSTIVE, "1000",
         "prefix=1000 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=,-+++,",
         "shard 1000: raw_count 1 but 3 rows listed"),
        # Shard 0111 still lists +---, the negation of the row this line drops.
        (4, STRATEGY_EXHAUSTIVE, "1000",
         "prefix=1000 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=",
         "shards 1000 and 0111 are not mirrors"),
        # Under its ceiling, but not the count of shard 01111111.
        (12, STRATEGY_DFS, "10000000",
         "prefix=10000000 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=",
         "shards 10000000 and 01111111 are not mirrors"),
        # Shard 1000 still lists -+++, whose odd entries flipped give the
        # row --+- this line drops; its mirror 0010 is not checked first.
        (4, STRATEGY_EXHAUSTIVE, "1101",
         "prefix=1101 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=",
         "shards 1000 and 1101 are not alternates: each must have the other's nodes_explored and its"
         " rows negated at odd entries"),
        # Under its ceiling, but not the count of shard 00000000.  An exact
        # node rule refuses any other count first, so this case is a DFS's.
        (12, STRATEGY_DFS, "01010101",
         "prefix=01010101 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=",
         "shards 00000000 and 01010101 are not alternates"),
    ],
    ids=["missing_raw_count", "non_integer_nodes", "missing_elapsed", "negative_raw_count",
         "negative_nodes", "count_disagrees_with_rows", "row_not_n_signs",
         "row_off_prefix", "row_not_hadamard", "row_listed_twice", "prefix_not_bits",
         "nodes_past_int_digit_limit", "prefix_too_short", "prefix_too_long",
         "nodes_not_the_shard_rows", "nodes_off_the_shard_weights", "dfs_nodes_over_the_shard_ceiling",
         "empty_items", "empty_items_around_a_row", "mirror_rows_disagree", "mirror_nodes_disagree",
         "alternate_rows_disagree", "alternate_nodes_disagree"],
)
def test_checkpoint_shard_line_is_validated(tmp_path, n, strategy, prefix, line, problem):
    cp = checkpoint_with_line(tmp_path, n, strategy, prefix, line)
    before = open(cp, "rb").read()
    with pytest.raises(ValueError, match=re.escape(problem)):
        run_search(n, strategy, checkpoint=cp)
    assert open(cp, "rb").read() == before


@pytest.mark.parametrize("torn", ("prefix=01010000 raw_co", "prefix=01"))
def test_checkpoint_torn_last_line_is_dropped_on_resume(tmp_path, torn):
    cp = str(tmp_path / "cp.txt")
    full = run_search(12, STRATEGY_DFS, checkpoint=cp)
    lines = open(cp).read().splitlines(True)
    head = [l for l in lines if not l.startswith("prefix=")]
    shards = [l for l in lines if l.startswith("prefix=")]
    with open(cp, "w") as f:
        f.writelines(head + shards[:100] + [torn])  # a crash mid-append
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, checkpoint=cp), full)
    text = open(cp).read()
    assert torn + "\n" not in text and text.endswith("\n")
    assert sum(1 for l in text.splitlines() if l.startswith("prefix=")) == 256
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, checkpoint=cp), full)


def test_checkpoint_torn_header_starts_afresh(tmp_path):
    cp = tmp_path / "cp.txt"
    full = run_search(4, STRATEGY_EXHAUSTIVE)
    for torn in ("# circhad search chec", "# circhad search checkpoint v1\nn=4\nstrat"):
        cp.write_text(torn)
        assert same_but_elapsed(run_search(4, STRATEGY_EXHAUSTIVE, checkpoint=str(cp)), full)
        assert cp.read_text().startswith("# circhad search checkpoint v1\nn=4\n")


# The order-4 exhaustive checkpoint byte for byte (elapsed_ms masked):
# one row per shard, shards in ascending prefix order, bit i of the
# prefix at position i.
ORDER_FOUR_CHECKPOINT = """\
# circhad search checkpoint v1
n=4
strategy=exhaustive
prefix_bits=4
prefix=0000 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=
prefix=1000 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=-+++
prefix=0100 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=+-++
prefix=1100 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=
prefix=0010 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=++-+
prefix=1010 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=
prefix=0110 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=
prefix=1110 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=---+
prefix=0001 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=+++-
prefix=1001 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=
prefix=0101 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=
prefix=1101 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=--+-
prefix=0011 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=
prefix=1011 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=-+--
prefix=0111 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=+---
prefix=1111 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=
"""


def masked_bytes(path):
    return re.sub(rb"elapsed_ms=[0-9]+", b"elapsed_ms=0", path.read_bytes())


def test_checkpoint_bytes_are_pinned_fresh_and_after_a_resume(tmp_path):
    cp = tmp_path / "cp.txt"
    full = run_search(4, STRATEGY_EXHAUSTIVE, checkpoint=str(cp))
    assert masked_bytes(cp) == ORDER_FOUR_CHECKPOINT.encode("ascii")
    lines = cp.read_bytes().splitlines(True)
    cp.write_bytes(b"".join(lines[:11]) + lines[11][:20])  # cut mid-line
    assert same_but_elapsed(run_search(4, STRATEGY_EXHAUSTIVE, checkpoint=str(cp)), full)
    assert masked_bytes(cp) == ORDER_FOUR_CHECKPOINT.encode("ascii")


@pytest.mark.parametrize(
    "edit, strategy",
    [
        (lambda head, shards: [head[0], b"n=abc\n", *head[2:], *shards], STRATEGY_EXHAUSTIVE),
        (lambda head, shards: head + shards + [b"strategy=pruned-dfs\n"], STRATEGY_DFS),
        (lambda head, shards: head + shards + [b"n=4\n"], STRATEGY_EXHAUSTIVE),
        (lambda head, shards: head + shards[:8] + [b"\n"] + shards[8:], STRATEGY_EXHAUSTIVE),
        (lambda head, shards: head + shards[:8] + [b"# note\n"] + shards[8:], STRATEGY_EXHAUSTIVE),
        (lambda head, shards: head + shards[:8] + [b"# caf\xc3\xa9\n"] + shards[8:],
         STRATEGY_EXHAUSTIVE),
        (lambda head, shards: [b"my precious notes"], STRATEGY_EXHAUSTIVE),
        (lambda head, shards: [b"line one\n", b"line two no newline"], STRATEGY_EXHAUSTIVE),
    ],
    ids=["header_n_not_a_number", "strategy_line_appended", "n_line_appended",
         "blank_line", "comment_line", "non_ascii_byte", "foreign_file",
         "foreign_file_unterminated_last_line"],
)
def test_checkpoint_must_read_exactly_as_written(tmp_path, edit, strategy):
    # A refused file is left as it was: only a file that starts with the
    # header is cut back to its last newline, and none is overwritten.
    cp = tmp_path / "cp.txt"
    run_search(4, STRATEGY_EXHAUSTIVE, checkpoint=str(cp))
    lines = cp.read_bytes().splitlines(True)
    cp.write_bytes(b"".join(edit(lines[:4], lines[4:])))
    before = cp.read_bytes()
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {cp}")):
        run_search(4, strategy, checkpoint=str(cp))
    assert cp.read_bytes() == before


# ---------------------------------------------------------------------------
# bounded process pool

class RecordingPool:
    """Stands in for ProcessPoolExecutor: records size, tasks and batch size; maps serially."""

    def __init__(self, max_workers, sizes, tasks=None, chunksizes=None):
        sizes.append(max_workers)
        self.tasks = [] if tasks is None else tasks
        self.chunksizes = [] if chunksizes is None else chunksizes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        items = list(items)
        self.tasks.extend(items)
        self.chunksizes.append(chunksize)
        return map(fn, items)


def set_cpus(monkeypatch, count):
    """Let this process run on ``count`` CPUs, whatever the machine has."""
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def pool_at_once(monkeypatch):
    """Pin the pool's budget to 0: a run that two or more workers may share starts its pool before any shard."""
    monkeypatch.setattr(search, "_POOL_BUDGET_NS", 0)


def weighted_dfs16(**kwargs):
    """A pruned-dfs+weight run of order 16: only negation maps its shards onto each other, so half of them run."""
    return run_search(16, STRATEGY_DFS, weight_filter=True, **kwargs)


def set_clock(monkeypatch, clock):
    """Let ``run_search`` and ``_run_shard`` read ``clock()`` as their monotonic clock."""
    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic_ns=clock))


@pytest.mark.usefixtures("pool_at_once")
def test_pool_is_clamped_to_cores_and_pending_shards(monkeypatch, tmp_path):
    sizes = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes),
    )
    # jobs=64 and a checkpointed run both split into 2^8 shards, so even
    # nodes_explored must agree.  A weighted label runs half of them.
    cp = str(tmp_path / "cp.txt")
    base = weighted_dfs16(checkpoint=cp)
    set_cpus(monkeypatch, 3)
    assert same_but_elapsed(weighted_dfs16(jobs=64), base)
    # Without an affinity mask the CPU count decides; when it is unknown
    # there is one worker, and a one-worker pool is not built.
    monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert same_but_elapsed(weighted_dfs16(jobs=64), base)
    assert sizes == [3]

    # Two shards left to run: two workers, however many jobs and cores.
    # Without its last two lines the file would run nothing, as their
    # mirrors are done; so two mirror pairs go, prefixes 126 to 129.
    lines = open(cp).read().splitlines(True)
    with open(cp, "w") as f:
        f.writelines(lines[: 4 + 126] + lines[4 + 130:])
    set_cpus(monkeypatch, 16)
    assert same_but_elapsed(weighted_dfs16(jobs=8, checkpoint=cp), base)
    assert sizes == [3, 2]


def test_pool_counts_the_cpus_this_process_may_run_on(monkeypatch):
    sizes = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes),
    )
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    set_cpus(monkeypatch, 1)  # the affinity mask holds one of the four
    serial = run_search(16, STRATEGY_EXHAUSTIVE)
    assert same_but_elapsed(run_search(16, STRATEGY_EXHAUSTIVE, jobs=4), serial)
    assert sizes == []


def test_one_shard_resume_builds_no_pool(monkeypatch, tmp_path):
    sizes = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes),
    )
    set_cpus(monkeypatch, 2)
    full = tmp_path / "full.ckpt"
    base = run_search(16, STRATEGY_DFS, weight_filter=True, checkpoint=str(full))
    cut = full.read_bytes().splitlines(True)[:-1]
    resumed = {}
    for jobs in (1, 2):
        cp = tmp_path / f"jobs{jobs}.ckpt"
        cp.write_bytes(b"".join(cut))
        report = run_search(16, STRATEGY_DFS, jobs=jobs, weight_filter=True, checkpoint=str(cp))
        assert same_but_elapsed(report, base)
        resumed[jobs] = masked_bytes(cp)
    assert sizes == []
    assert resumed[2] == resumed[1] == masked_bytes(full)


@pytest.mark.usefixtures("pool_at_once")
def test_shard_split_is_bounded_whatever_jobs(monkeypatch):
    sizes, tasks = [], []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes, tasks),
    )
    base = run_search(16, STRATEGY_EXHAUSTIVE, jobs=1)
    assert same_but_elapsed(run_search(16, STRATEGY_EXHAUSTIVE, jobs=100000), base)
    assert len(sizes) == 1 and 0 < len(tasks) <= 256


@pytest.mark.usefixtures("pool_at_once")
def test_pool_takes_about_eight_batches_per_worker(monkeypatch, tmp_path):
    sizes, chunksizes = [], []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes, chunksizes=chunksizes),
    )
    set_cpus(monkeypatch, 2)
    # A weighted label runs the first half of the shards, so a batch is
    # max(1, (2^P / 2) // (8 * workers)) shards.
    cp = str(tmp_path / "cp.txt")
    base = weighted_dfs16(jobs=2, checkpoint=cp)  # a new file: 128 of 256 run, 128 // 16
    set_cpus(monkeypatch, 3)
    assert same_but_elapsed(weighted_dfs16(jobs=64), base)  # 128 of 256, 3 workers: 128 // 24
    serial = run_search(16, STRATEGY_WEIGHT)
    assert same_but_elapsed(run_search(16, STRATEGY_WEIGHT, jobs=2), serial)  # 4 of 8: 4 // 16 -> 1
    # An unweighted label at even order runs the first quarter.
    quarter = run_search(12, STRATEGY_DFS, checkpoint=str(tmp_path / "quarter.ckpt"))
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, jobs=64), quarter)  # 64 of 256, 3 workers: 64 // 24
    assert (sizes, chunksizes) == ([2, 3, 2, 3], [8, 5, 1, 2])

    # The header and the first half of the shards: every other shard is
    # their mirror, so nothing runs and no pool is built.
    lines = open(cp).read().splitlines(True)
    with open(cp, "w") as f:
        f.writelines(lines[: 4 + 128])
    assert same_but_elapsed(weighted_dfs16(jobs=2, checkpoint=cp), base)
    # A finished checkpoint leaves nothing to run either.
    assert same_but_elapsed(weighted_dfs16(jobs=2, checkpoint=cp), base)
    assert len(sizes) == 4


@pytest.mark.usefixtures("pool_at_once")
def test_real_pool_checkpoint_matches_serial_and_resumes_mid_batch(tmp_path):
    serial, pooled = tmp_path / "serial.ckpt", tmp_path / "pooled.ckpt"
    full = run_search(16, STRATEGY_DFS, weight_filter=True, checkpoint=str(serial))
    pooled_report = run_search(16, STRATEGY_DFS, jobs=2, weight_filter=True, checkpoint=str(pooled))
    assert same_but_elapsed(pooled_report, full)
    assert masked_bytes(pooled) == masked_bytes(serial)

    # Cut where no batch of 16 ends: the header, 37 shard lines and a torn line.
    lines = pooled.read_bytes().splitlines(True)
    pooled.write_bytes(b"".join(lines[: 4 + 37]) + lines[4 + 37][:30])
    resumed = run_search(16, STRATEGY_DFS, jobs=2, weight_filter=True, checkpoint=str(pooled))
    assert same_but_elapsed(resumed, full)
    assert masked_bytes(pooled) == masked_bytes(serial)


@pytest.mark.parametrize("done", (0, 40), ids=["fresh", "resumed"])
def test_pool_takes_the_shards_left_once_the_clock_passes_its_budget(monkeypatch, tmp_path, done):
    serial_cp, cp = tmp_path / "serial.ckpt", tmp_path / "cp.ckpt"
    serial = weighted_dfs16(checkpoint=str(serial_cp))
    cp.write_bytes(b"".join(serial_cp.read_bytes().splitlines(True)[: 4 + done]))
    sizes, tasks, chunksizes = [], [], []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes, tasks, chunksizes),
    )
    set_cpus(monkeypatch, 2)
    calls = counting_kernels(monkeypatch)
    # The clock stands at the run's start until k shards have run, then at the budget.
    k = 37
    set_clock(monkeypatch, lambda: search._POOL_BUDGET_NS if len(calls) >= k else 0)
    report = weighted_dfs16(jobs=2, checkpoint=str(cp))
    # The first k pending shards ran here, in prefix order; the pool got the rest, in order.
    label, weights = search._label(STRATEGY_DFS, True), expected_minus_counts(16)
    rest = [(label, 16, prefix, 8, weights) for prefix in range(done + k, 128)]
    assert [call[1] for call in calls[:k]] == list(range(done, done + k))
    assert (sizes, tasks, chunksizes) == ([2], rest, [len(rest) // 16])
    assert same_but_elapsed(report, serial)
    assert masked_bytes(cp) == masked_bytes(serial_cp)


def test_a_run_within_the_budget_builds_no_pool(monkeypatch, tmp_path):
    sizes = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes),
    )
    set_cpus(monkeypatch, 2)
    serial_cp, cp = tmp_path / "serial.ckpt", tmp_path / "cp.ckpt"
    serial = weighted_dfs16(checkpoint=str(serial_cp))
    calls = counting_kernels(monkeypatch)
    set_clock(monkeypatch, lambda: 0)  # the budget is never reached
    assert same_but_elapsed(weighted_dfs16(jobs=2, checkpoint=str(cp)), serial)
    assert len(calls) == 128 and sizes == []
    assert masked_bytes(cp) == masked_bytes(serial_cp)


# ---------------------------------------------------------------------------
# filled-in shards: a run fills in every shard whose orbit under negation
# (and, unweighted at even n, the two alternations) has a finished member

def masked_line(line):
    return re.sub(r"elapsed_ms=[0-9]+", "elapsed_ms=0", line)


@pytest.mark.parametrize("strategy, weight_filter", LABELS)
def test_mirrored_shards_match_their_own_kernel_run(monkeypatch, tmp_path, strategy, weight_filter):
    # Every label shares the fill, so cross_validate cannot see a fault
    # in it: each line, filled in or run, must read as the shard's own
    # kernel run writes it (nodes, rows, row order).  Every line must also
    # keep the label's node rule: its exact count, or at most its ceiling.
    label = search._label(strategy, weight_filter)
    rules = search._LABELS[label]
    compared = 0
    reached = set()  # the orders at which some shard visits its whole ceiling
    for n in range(1, 17):
        weights = expected_minus_counts(n) if rules.weighted else None
        if rules.weighted and weights is None:
            continue
        for width in sorted({min(n, w) for w in (1, 2, 3, 8)}):
            monkeypatch.setattr(search, "_SPLIT_BITS", width)
            cp = tmp_path / f"{label}-{n}-{width}.ckpt"
            run_search(n, strategy, weight_filter=weight_filter, checkpoint=str(cp))
            lines = shard_lines(cp)
            assert len(lines) == 1 << width
            for prefix in range(1 << width):
                own = search._shard_line(width, search._run_shard((label, n, prefix, width, weights)))
                assert masked_line(lines[prefix]) == masked_line(own.rstrip("\n")), (n, width, prefix)
                compared += 1
            for prefix, line in enumerate(lines):
                # Lines are in split order: bit i of the prefix is entry i.
                assert line.startswith(f"prefix={format(prefix, f'0{width}b')[::-1]} ")
                nodes = int(re.search(r"nodes_explored=([0-9]+)", line).group(1))
                rule = rules.nodes(n, prefix, width, weights)
                assert nodes == rule if rules.exact else nodes <= rule, (n, width, prefix)
                if nodes == rule and not rules.exact:
                    reached.add(n)
            if width == min(n, 8):
                # Summed over the widest split, the rule is the bound a report is held to.
                total = sum(rules.nodes(n, prefix, width, weights) for prefix in range(1 << width))
                fault = functools.partial(search._node_fault, n, label, weights)
                assert fault(total) is None and fault(total + 1) is not None, (n, total)
                assert rules.exact == (fault(total - 1) is not None), (n, total)
    # 2^width shards per (n, width): 2748 for a label that takes every
    # order, 572 for one that takes only the squares 1, 4, 9, 16.
    assert compared == (572 if rules.weighted else 2748)
    # The ceiling is reached, so it is no looser than it need be at small orders.
    if not rules.exact:
        assert reached >= ({1, 4} if rules.weighted else {1, 2, 4, 6, 8}), reached


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_alternated_shards_visit_as_many_nodes_and_hold_the_alternated_rows(monkeypatch, n):
    # At even n, flipping the odd entries sends r_t to (-1)^t r_t, for a
    # row and for every partial sum the DFS bounds.  So the shard on
    # prefix p ^ alt, alt the odd positions below the width, visits as
    # many nodes as the shard on p and holds its rows with the odd entries
    # flipped, in that kernel's own order: the DFS +1 first, the walker -1
    # first.  Without the half period the walker keeps the almost-perfect
    # rows (n = 8, 12, 16), a symmetric condition too, so the order is
    # tested on shards with many rows.
    odd = sum(1 << i for i in range(1, n, 2))
    runs = [(search._dfs_shard, False), (search._walk_shard, True)]
    control = [(search._walk_shard, True)]
    for condition in ("hadamard", "without_half_period"):
        if condition == "without_half_period":
            without_half_period(monkeypatch)
        for width in range(1, min(n, 8) + 1):
            alt = odd & ((1 << width) - 1)
            for kernel, minus_first in runs if condition == "hadamard" else control:
                shards = [kernel(n, prefix, width, None) for prefix in range(1 << width)]
                for prefix, (nodes, rows) in enumerate(shards):
                    expected = sorted((search._bits_to_string(row ^ odd, n) for row in rows), reverse=minus_first)
                    image_nodes, image_rows = shards[prefix ^ alt]
                    image = [search._bits_to_string(row, n) for row in image_rows]
                    assert (image_nodes, image) == (nodes, expected), (condition, n, width, prefix)


def counting_kernels(monkeypatch):
    """Wrap both kernels so every call is recorded; returns the list of calls."""
    calls = []
    for real in (search._walk_shard, search._dfs_shard):
        patch_kernel(monkeypatch, real, lambda *args, real=real: calls.append(args) or real(*args))
    return calls


@pytest.mark.usefixtures("pool_at_once")
@pytest.mark.parametrize("strategy, weight_filter", LABELS)
def test_first_half_checkpoint_resumes_without_a_kernel_call(monkeypatch, tmp_path, strategy, weight_filter):
    sizes = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes),
    )
    set_cpus(monkeypatch, 2)
    full = tmp_path / "full.ckpt"
    base = run_search(16, strategy, weight_filter=weight_filter, checkpoint=str(full))
    lines = full.read_bytes().splitlines(True)
    head, shards = lines[:4], lines[4:]
    calls = counting_kernels(monkeypatch)

    def resume(cp):
        return run_search(16, strategy, jobs=2, weight_filter=weight_filter, checkpoint=str(cp))

    # The header and the first half: every shard left is a mirror.
    cp = tmp_path / "first.ckpt"
    cp.write_bytes(b"".join(head + shards[:128]))
    assert same_but_elapsed(resume(cp), base)
    assert (calls, sizes) == ([], [])
    assert masked_bytes(cp) == masked_bytes(full)

    # The second half alone: the first half is filled in from it.
    cp = tmp_path / "second.ckpt"
    cp.write_bytes(b"".join(head + shards[128:]))
    assert same_but_elapsed(resume(cp), base)
    assert (calls, sizes) == ([], [])
    assert [masked_line(l) for l in shard_lines(cp)] == [
        masked_line(l.decode().rstrip("\n")) for l in shards[128:] + shards[:128]
    ]

    # A crash mid-fill: the computed shards, part of the filled-in ones and a
    # torn line.  The rest are filled in again from their listed orbit members.
    cp = tmp_path / "mid_fill.ckpt"
    cp.write_bytes(b"".join(head + shards[:150]) + shards[150][:20])
    assert same_but_elapsed(resume(cp), base)
    assert (calls, sizes) == ([], [])
    assert masked_bytes(cp) == masked_bytes(full)

    # The header and the first quarter: every orbit of an unweighted label
    # has a member there, so nothing runs; a weighted one runs the second quarter.
    weighted = search._LABELS[search._label(strategy, weight_filter)].weighted
    cp = tmp_path / "quarter.ckpt"
    cp.write_bytes(b"".join(head + shards[:64]))
    assert same_but_elapsed(resume(cp), base)
    assert [call[1] for call in calls] == (list(range(64, 128)) if weighted else [])
    assert sizes == ([2] if weighted else [])
    assert masked_bytes(cp) == masked_bytes(full)
    calls.clear()
    sizes.clear()

    # The wrapped kernels are the ones a run calls: a fresh run records every
    # shard it runs, the first half for a weighted label, else the first quarter.
    assert same_but_elapsed(resume(tmp_path / "fresh.ckpt"), base)
    assert len(calls) == (128 if weighted else 64) and sizes == [2]


def test_tampered_first_half_line_is_refused_through_its_mirror(monkeypatch, tmp_path):
    # A raised count would be copied to its mirror; the line is refused
    # as it is read instead, before any shard runs or any line is appended.
    cp = tmp_path / "cp.ckpt"
    run_search(12, STRATEGY_EXHAUSTIVE, checkpoint=str(cp))
    lines = cp.read_text().splitlines(True)[: 4 + 128]  # the header and the first half
    lines[4 + 5] = re.sub(
        r"nodes_explored=([0-9]+)", lambda m: f"nodes_explored={int(m.group(1)) + 1}", lines[4 + 5]
    )
    cp.write_text("".join(lines))
    before = cp.read_bytes()
    calls = counting_kernels(monkeypatch)
    message = (f"checkpoint {cp}: shard 10100000: nodes_explored 17 is not the number of rows"
               " every exhaustive run of order 12 visits on this shard")
    with pytest.raises(ValueError, match=re.escape(message)):
        run_search(12, STRATEGY_EXHAUSTIVE, checkpoint=str(cp))
    assert cp.read_bytes() == before
    assert calls == []


# ---------------------------------------------------------------------------
# report wire format

def test_report_round_trip():
    rep = run_search(4, STRATEGY_EXHAUSTIVE)
    assert report_from_dict(report_to_dict(rep)) == rep
    assert revalidate_report(rep) == []


def test_report_missing_fields_rejected():
    data = report_to_dict(run_search(4, STRATEGY_EXHAUSTIVE))
    del data["raw_count"]
    with pytest.raises(ValueError):
        report_from_dict(data)


def test_report_solutions_must_be_a_list():
    data = report_to_dict(run_search(4, STRATEGY_EXHAUSTIVE))
    data["solutions"] = "-+++"
    with pytest.raises(ValueError):
        report_from_dict(data)


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("raw_count", 8.9, "an integer"),
        ("schema_version", 1.7, "an integer"),
        ("schema_version", 1.0, "an integer"),
        ("cap", True, "an integer"),
        ("n", "4", "an integer"),
        ("nodes_explored", None, "an integer"),
        ("elapsed_ms", [0], "an integer"),
        ("canonical_count", False, "an integer"),
        ("strategy", 3, "a string"),
        ("strategy", ["exhaustive"], "a string"),
        ("solutions", "-+++", "a list of strings"),
        ("solutions", ["-+++", 1], "a list of strings"),
        ("solutions", {"-+++": 1}, "a list of strings"),
    ],
    ids=["float_raw_count", "float_schema_version", "integral_float", "bool_cap", "string_n",
         "null_nodes", "list_elapsed", "bool_canonical_count", "number_strategy",
         "list_strategy", "string_solutions", "non_string_row", "object_solutions"],
)
def test_report_fields_must_have_their_json_type(key, value, kind):
    data = report_to_dict(run_search(4, STRATEGY_EXHAUSTIVE))
    data[key] = value
    with pytest.raises(ValueError, match=f"report field '{key}' must be {kind}"):
        report_from_dict(data)


@pytest.mark.parametrize("data", ([], "report", 4, None), ids=["list", "string", "number", "null"])
def test_report_must_be_an_object(data):
    with pytest.raises(ValueError, match="JSON object"):
        report_from_dict(data)


def test_revalidate_flags_tampering():
    rep = run_search(4, STRATEGY_EXHAUSTIVE)
    data = report_to_dict(rep)
    data["solutions"][0] = "++++"
    problems = revalidate_report(report_from_dict(data))
    assert any("autocorrelation" in p for p in problems)
    data = report_to_dict(rep)
    data["raw_count"] = 9
    problems = revalidate_report(report_from_dict(data))
    assert any("raw_count" in p for p in problems)


def test_revalidate_flags_a_non_row_by_the_matrix_product_alone(monkeypatch):
    # The two row tests are redundant: each must still fire without the other.
    data = report_to_dict(run_search(4, STRATEGY_EXHAUSTIVE))
    data["solutions"][0] = "++++"
    monkeypatch.setattr(search, "is_circulant_hadamard", lambda seq: True)
    problems = revalidate_report(report_from_dict(data))
    assert "solution '++++' fails the exact matrix product test" in problems
    assert not any("autocorrelation" in p for p in problems)


@pytest.mark.parametrize("strategy, weight_filter", LABELS)
def test_run_search_reverifies_every_row_a_kernel_emits(monkeypatch, strategy, weight_filter):
    def with_a_non_row(real):
        def kernel(*task):
            nodes, rows = real(*task)
            return nodes, rows + [0]  # the all-+ row
        return kernel

    for real in (search._walk_shard, search._dfs_shard):
        patch_kernel(monkeypatch, real, with_a_non_row(real))
    with pytest.raises(RuntimeError, match=re.escape("internal error: emitted row ++++ failed exact re-verification")):
        run_search(4, strategy, weight_filter=weight_filter)


@pytest.mark.parametrize("strategy, weight_filter", LABELS)
def test_run_search_refuses_rows_not_closed_under_rotation_and_negation(monkeypatch, tmp_path, strategy,
                                                                       weight_filter):
    # A kernel that drops -+++ wherever it would emit it; the checkpointed
    # run splits order 4 into its 16 rows, so some shard that runs holds it.
    def without_row(real):
        def kernel(*task):
            nodes, rows = real(*task)
            return nodes, [bits for bits in rows if bits != 1]  # 1 is -+++
        return kernel

    for real in (search._walk_shard, search._dfs_shard):
        patch_kernel(monkeypatch, real, without_row(real))
    message = "internal error: the rows are not closed under rotation and negation: "
    with pytest.raises(RuntimeError, match=re.escape(message)):
        run_search(4, strategy, weight_filter=weight_filter, checkpoint=str(tmp_path / "cp.txt"))


def test_resume_refuses_a_checkpoint_whose_rows_are_not_closed(tmp_path):
    # The four lines of one orbit claim no rows: each line holds, and each
    # is the others' image, so only the closure of the merged rows fails.
    cp = tmp_path / "cp.txt"
    cp.write_text(search._HEADER.format(n=4, strategy=STRATEGY_EXHAUSTIVE, prefix_bits=4) + "".join(
        f"prefix={bits} raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=\n"
        for bits in ("1000", "0111", "1101", "0010")  # -+++, +---, --+- and ++-+
    ))
    message = f"checkpoint {cp}: the rows are not closed under rotation and negation: ++-+ is missing"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_search(4, STRATEGY_EXHAUSTIVE, checkpoint=str(cp))


# ---------------------------------------------------------------------------
# cross-validation

def test_cross_validate_order_four():
    cv = cross_validate(4)
    assert cv.passed
    assert cv.raw_count == 8
    assert cv.canonical_count == 1
    assert set(cv.strategies) == {STRATEGY_EXHAUSTIVE, STRATEGY_DFS, STRATEGY_WEIGHT, STRATEGY_DFS + "+weight"}


def test_cross_validate_reports_a_strategy_that_disagrees(monkeypatch):
    # A DFS shard that drops its rows (jobs = 1 runs shards in process).
    real_shard = search._dfs_shard
    patch_kernel(monkeypatch, real_shard, lambda *args: (real_shard(*args)[0], []))
    cv = cross_validate(4)
    assert not cv.passed and cv.raw_count == 8
    assert "strategy pruned-dfs found 0 rows, exhaustive found 8" in cv.problems


def test_cross_validate_odd_square():
    cv = cross_validate(9)
    assert cv.passed
    assert cv.raw_count == 0


def test_cross_validate_trivial_order():
    cv = cross_validate(1)
    assert cv.passed and cv.raw_count == 2


def test_cross_validate_refuses_past_cap():
    # It writes no checkpoint, so the 2^25-row exhaustive run is refused.
    with pytest.raises(CapExceeded, match="a walk of more than 2\\^24 rows needs a checkpoint"):
        cross_validate(25)


def order_four_report_data():
    return report_to_dict(run_search(4, STRATEGY_EXHAUSTIVE))


def tampered(**changes):
    data = order_four_report_data()
    data.update(changes)
    return data


@pytest.mark.parametrize(
    "data, problem",
    [
        (tampered(solutions=["-+++", "-+++"], raw_count=2), "strictly ascending"),
        (tampered(solutions=sorted(order_four_report_data()["solutions"], reverse=True)),
         "strictly ascending"),
        (tampered(strategy="bogus"), "unknown strategy"),
        (tampered(raw_count=-1), "raw_count is negative"),
        (tampered(canonical_count=-1), "canonical_count is negative"),
        (tampered(nodes_explored=-1), "nodes_explored is negative"),
        (tampered(cap=-1), "cap is negative"),
        (tampered(cap=3), "8 rows listed, not min(raw_count, cap) = 3"),
        (tampered(n=-5, solutions=[], raw_count=0, canonical_count=0), "order must be positive"),
        (tampered(n=0, solutions=[], raw_count=0, canonical_count=0), "order must be positive"),
        (tampered(elapsed_ms=-7), "elapsed_ms is negative"),
        (tampered(n=16, solutions=[], raw_count=0, canonical_count=0, nodes_explored=5),
         "nodes_explored 5 is not the number of rows every exhaustive run of order 16 visits"),
        (tampered(nodes_explored=15), "nodes_explored 15 is not"),
        (tampered(nodes_explored=17), "nodes_explored 17 is not"),
        (tampered(strategy="weight-constrained", n=9, solutions=[], raw_count=0,
                  canonical_count=0, nodes_explored=0),
         "nodes_explored 0 is not the number of rows every weight-constrained run of order 9 visits"),
        (tampered(strategy="weight-constrained", nodes_explored=7), "nodes_explored 7 is not"),
        (tampered(strategy="weight-constrained", n=8, solutions=[], raw_count=0,
                  canonical_count=0, nodes_explored=112), "needs a perfect-square order, got 8"),
        (tampered(strategy="pruned-dfs+weight", n=8, solutions=[], raw_count=0,
                  canonical_count=0), "weight-constrained enumeration needs a perfect-square order, got 8"),
        (tampered(strategy="pruned-dfs+weight", n=12, solutions=[], raw_count=0,
                  canonical_count=0), "weight-constrained enumeration needs a perfect-square order, got 12"),
        (tampered(n=10**9, solutions=[], raw_count=0, canonical_count=0, nodes_explored=2**4000),
         "order 1000000000 exceeds the order cap 36"),
        (tampered(strategy="weight-constrained", n=10**18, solutions=[], raw_count=0,
                  canonical_count=0), "order 1000000000000000000 exceeds the order cap 36"),
        (tampered(strategy="pruned-dfs", n=1000, solutions=[], raw_count=0, canonical_count=0),
         "order 1000 exceeds the order cap 36"),
        (tampered(strategy="pruned-dfs+weight", n=1024, solutions=[], raw_count=0,
                  canonical_count=0), "order 1024 exceeds the order cap 36"),
        (tampered(n=37, solutions=[], raw_count=0, canonical_count=0, nodes_explored=2**37),
         "order 37 exceeds the order cap 36"),
        (tampered(strategy="weight-constrained", n=49, solutions=[], raw_count=0,
                  canonical_count=0, nodes_explored=2 * math.comb(49, 21)),
         "order 49 exceeds the order cap 36"),
        (tampered(cap=5, solutions=order_four_report_data()["solutions"][:3]),
         "3 rows listed, not min(raw_count, cap) = 5"),
        (tampered(cap=5, solutions=order_four_report_data()["solutions"][:5], canonical_count=9),
         "canonical_count 9 is more than raw_count"),
        (tampered(strategy="pruned-dfs", nodes_explored=65),
         "nodes_explored 65 is more than the 64 nodes any pruned-dfs run of order 4 visits"),
        (tampered(strategy="pruned-dfs+weight", nodes_explored=65),
         "nodes_explored 65 is more than the 64 nodes any pruned-dfs+weight run of order 4 visits"),
    ],
    ids=["duplicate", "descending", "strategy", "raw_count", "canonical_count",
         "nodes_explored", "cap", "over_cap", "n_negative", "n_zero", "elapsed_ms",
         "exhaustive_truncated", "exhaustive_short", "exhaustive_long", "weight_truncated",
         "weight_short", "weight_non_square", "dfs_weight_non_square_8", "dfs_weight_non_square_12",
         "exhaustive_huge_order", "weight_huge_order", "dfs_past_cap", "dfs_weight_past_cap",
         "exhaustive_past_cap", "weight_past_cap",
         "short_listing", "canonical_over_raw", "dfs_over_bound", "dfs_weight_over_bound"],
)
def test_revalidate_flags_malformed_reports(data, problem):
    problems = revalidate_report(report_from_dict(data))
    assert any(problem in p for p in problems), problems


@pytest.mark.parametrize(
    "changes",
    [
        dict(strategy="s" * 5000),
        dict(solutions=["-+++", "x" * 5000]),
        dict(solutions=["-+++", "+" * 5000]),
        dict(schema_version=10**4000),
        dict(n=10**4000),
        dict(n=10**4000, nodes_explored=5),
        dict(strategy="pruned-dfs", n=10**4000),
        dict(raw_count=10**4000, cap=10**4000, canonical_count=10**4000 + 1),
    ],
    ids=["strategy", "bad_sign_row", "long_row", "schema_version", "order",
         "order_and_short_count", "dfs_order", "counts"],
)
def test_revalidate_cuts_quoted_report_values(changes):
    problems = revalidate_report(report_from_dict(tampered(**changes)))
    assert problems and all(len(p) < 200 for p in problems), [len(p) for p in problems]


def test_run_search_refuses_exactly_what_revalidate_flags(monkeypatch):
    # Admitted runs return at once, so every (label, order) pair costs only
    # its admission; the checkpoint rule bounds one run's work, not which
    # reports are valid, so it is lifted for the comparison.
    patch_kernel(monkeypatch, search._walk_shard, lambda *task: (0, []))
    patch_kernel(monkeypatch, search._dfs_shard, lambda *task: (0, []))
    monkeypatch.setattr(search, "MAX_UNCHECKPOINTED_ROWS", 1 << 36)
    for strategy, weight_filter in LABELS:
        label = search._label(strategy, weight_filter)
        for n in [*range(51), 1000, 1024]:
            try:
                run_search(n, strategy, weight_filter=weight_filter)
                refusal = None
            except (ValueError, CapExceeded) as exc:
                refusal = str(exc)
            # The node count an admitted full enumeration visits, counted
            # here apart from search.py; any count passes for the DFS.
            weights = expected_minus_counts(n) if n >= 1 else None
            nodes = {
                STRATEGY_EXHAUSTIVE: 1 << max(n, 0),
                STRATEGY_WEIGHT: sum(math.comb(n, w) for w in set(weights or ())),
            }.get(label, 0)
            report = search.SearchReport(search.SCHEMA_VERSION, n, label, 0, 0, (), nodes, 0, 1)
            assert revalidate_report(report) == ([] if refusal is None else [refusal]), (label, n)
    # A report label, but not a strategy: the filter is asked for by weight_filter.
    with pytest.raises(ValueError, match="unknown strategy 'pruned-dfs\\+weight'"):
        run_search(4, "pruned-dfs+weight")


def test_revalidate_accepts_every_strategy_label():
    # Every run cross_validate makes up to order 16: each listing is whole
    # and closed under rotation and negation.
    for n in range(1, 17):
        for strategy, weight_filter in LABELS:
            if search._LABELS[search._label(strategy, weight_filter)].weighted and not expected_minus_counts(n):
                continue
            rep = run_search(n, strategy, weight_filter=weight_filter)
            assert revalidate_report(rep) == [], (n, strategy, weight_filter)
