"""Enumeration strategies, canonical forms, checkpoints, cross-validation."""

import dataclasses
import itertools
import math
import os
import random
import re
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
        assert canonicalize(s.rotated(r)) == canon
        assert canonicalize(s.rotated(r).negated()) == canon
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

def reference_walk_shard(n, prefix, plen, weights):
    """The full enumeration written row by row, one rotated-XOR popcount per shift.

    Rows come in the walker's order: those with a -1 at the first free
    position, then those without, each half in that order on the rest
    (for a fixed -1 count, ``itertools.combinations`` order).
    """
    free = range(plen, n)
    if weights is None:
        rows = [prefix]
        for i in reversed(free):
            rows = [bits | 1 << i for bits in rows] + rows
    else:
        needs = [w - prefix.bit_count() for w in sorted(set(weights))]
        needs = [k for k in needs if 0 <= k <= len(free)]
        rows = [
            prefix | sum(1 << i for i in combo)
            for k in needs for combo in itertools.combinations(free, k)
        ]
    nodes = len(rows)
    mask = (1 << n) - 1
    sols = []
    for bits in rows:
        for t in range(1, n // 2 + 1):
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
    # (1, 0) with the first position slowest, filtered by -1 count.
    every = [sum(bit << m for m, bit in enumerate(signs)) for signs in itertools.product((1, 0), repeat=b)]
    for k in (None, *range(b + 1)):
        expected = [row for row in every if k is None or row.bit_count() == k]
        planes = search._planes(b, k)
        assert len(planes) == b
        assert all(plane >> len(expected) == 0 for plane in planes), k
        assert [_decode(planes, j) for j in range(len(expected))] == expected, k


def _shift_masks(n, a, fixed, free, full):
    """The walker's zero-shift mask at each t = 1..n/2, free counter built afresh."""
    return {
        pairs.t: search._zero_shift_mask(n, pairs, fixed, free, full, search._free_counter(n, pairs, free))
        for pairs in search._pair_classes(n, a)
    }


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
            masks = _shift_masks(n, a, fixed, free, full)
            assert sorted(masks) == list(range(1, n // 2 + 1))
            for t, mask in masks.items():
                expected = sum(1 << j for j, bits in enumerate(rows) if correlations[bits][t] == 0)
                assert mask == expected, (a, fixed, t)


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
            assert _shift_masks(n, a, fixed, free, full) == expected, a


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
    real = search._free_counter
    built = []

    def recording(n, pairs, free):
        built.append((n, pairs, free))
        return real(n, pairs, free)

    monkeypatch.setattr(search, "_free_counter", recording)
    for n, plen, weights in ((16, 2, None), (16, 2, (6, 10)), (12, 0, (4, 5, 6))):
        for prefix in range(1 << plen):
            for _ in range(2):
                built.clear()
                assert search._walk_shard(n, prefix, plen, weights) == reference_walk_shard(
                    n, prefix, plen, weights
                )
                # Each (free planes, shift) once per call, built afresh by
                # the next call.
                assert built and len(set(built)) == len(built), (n, prefix, weights)
    built.clear()
    for n, plen in ((3, 2), (9, 2), (15, 4), (25, 14)):
        for weights in (None, expected_minus_counts(n)):
            assert search._walk_shard(n, 1, plen, weights) == reference_walk_shard(n, 1, plen, weights)
    assert built == []


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
    assert report.nodes_explored == (1 << 20) - (1 << search._BLOCK_BITS)
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


def test_packed_fields_decode_to_the_partial_autocorrelations():
    for n in (35, 36):  # at odd n the table fails every node once h[1] is assigned
        start, guard, steps = search._packed_tables(n)
        rng = random.Random(n)
        for _ in range(20):
            h = [rng.choice((1, -1)) for _ in range(n)]
            packed, near, wrap = start, 0, 0
            for d, step in enumerate(steps):
                # near and wrap hold the -1s among the assigned partners h[d-t] and h[d+t-n] of h[d].
                assert near == sum(1 << (8 * t) for t in range(1, d + 1) if h[d - t] == -1), d
                assert wrap == sum(1 << (8 * t) for t in range(n - d, n) if h[d + t - n] == -1), d
                delta = step.ones - 2 * (near + wrap)
                if h[d] == 1:
                    packed += delta
                    near, wrap = near << 8, wrap >> 8
                else:
                    packed -= delta
                    near, wrap = near << 8 | 1 << 8, wrap >> 8 | 1 << (8 * (n - 1))
                within = True
                for t in range(1, n):
                    pairs = [i for i in range(n) if i <= d and (i + t) % n <= d]
                    partial = sum(h[i] * h[(i + t) % n] for i in pairs)
                    assert ((packed >> (8 * t)) & 0xFF) - 64 == partial, (d, t)
                    open_terms = n - len(pairs)
                    if pairs:  # the reference's magnitude and parity clauses, on the touched fields
                        within = within and abs(partial) <= open_terms and (partial + open_terms) % 2 == 0
                passes = ((packed + step.lo) & (step.hi - packed) & guard) == guard
                assert passes == within, d
            # at the leaf, wrap is the row
            assert wrap == sum(1 << (8 * j) for j in range(n) if h[j] == -1)


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


def test_full_enumeration_past_2_24_rows_needs_a_checkpoint(monkeypatch, tmp_path):
    with pytest.raises(CapExceeded, match="exhaustive at order 25 walks 33554432 rows"):
        run_search(25, STRATEGY_EXHAUSTIVE)
    # At odd order no row qualifies, so the walk only counts its rows.
    report = run_search(25, STRATEGY_EXHAUSTIVE, checkpoint=str(tmp_path / "e25.ckpt"))
    assert (report.nodes_explored, report.raw_count) == (1 << 25, 0)
    assert revalidate_report(report) == []
    # The DFS is bounded by the order cap alone.
    report = run_search(25, STRATEGY_DFS)
    assert report.raw_count == 0 and revalidate_report(report) == []
    # Exactly 2^24 rows need no checkpoint (the shards are stubbed: only admission is tested).
    monkeypatch.setattr(search, "_walk_shard", lambda *task: (0, []))
    assert run_search(24, STRATEGY_EXHAUSTIVE).raw_count == 0


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


def order_four_checkpoint(tmp_path, prefix, line):
    """An order-4 exhaustive checkpoint (one row per shard) with one shard line replaced."""
    cp = tmp_path / "cp.txt"
    run_search(4, STRATEGY_EXHAUSTIVE, checkpoint=str(cp))
    lines = cp.read_text().splitlines()
    assert sum(l.startswith(f"prefix={prefix} ") for l in lines) == 1
    cp.write_text("".join(
        (line if l.startswith(f"prefix={prefix} ") else l) + "\n" for l in lines
    ))
    return str(cp)


@pytest.mark.parametrize(
    "prefix, line, problem",
    [
        ("0000", "prefix=0000 nodes_explored=3", "does not read"),
        ("0000", "prefix=0000 raw_count=0 nodes_explored=x elapsed_ms=0 solutions=",
         "does not read"),
        ("0000", "prefix=0000 raw_count=0 nodes_explored=1 solutions=", "does not read"),
        ("0000", "prefix=0000 raw_count=-5 nodes_explored=1 elapsed_ms=0 solutions=",
         "does not read"),
        ("0000", "prefix=0000 raw_count=0 nodes_explored=-1 elapsed_ms=0 solutions=",
         "does not read"),
        ("1000", "prefix=1000 raw_count=2 nodes_explored=1 elapsed_ms=0 solutions=-+++",
         "raw_count 2 but 1 rows listed"),
        ("1000", "prefix=1000 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=-++",
         "is not 4 signs"),
        ("1000", "prefix=1000 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=+-++",
         "starting '-+++'"),
        ("0000", "prefix=0000 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions=++++",
         "not a Hadamard row"),
        ("0000", "prefix=00x0 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=",
         "does not read"),
        ("0000", f"prefix=0000 raw_count=0 nodes_explored={'9' * 5000} elapsed_ms=0 solutions=",
         "does not read"),
        ("0000", "prefix=000 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=",
         "prefix width 3 does not match its header (4)"),
        ("0000", "prefix=00000 raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=",
         "prefix width 5 does not match its header (4)"),
    ],
    ids=["missing_raw_count", "non_integer_nodes", "missing_elapsed", "negative_raw_count",
         "negative_nodes", "count_disagrees_with_rows", "row_not_n_signs",
         "row_off_prefix", "row_not_hadamard", "prefix_not_bits", "nodes_past_int_digit_limit",
         "prefix_too_short", "prefix_too_long"],
)
def test_checkpoint_shard_line_is_validated(tmp_path, prefix, line, problem):
    cp = order_four_checkpoint(tmp_path, prefix, line)
    with pytest.raises(ValueError, match=re.escape(problem)):
        run_search(4, STRATEGY_EXHAUSTIVE, checkpoint=cp)


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


def test_pool_is_clamped_to_cores_and_pending_shards(monkeypatch, tmp_path):
    sizes = []
    monkeypatch.setattr(
        search.concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes),
    )
    # jobs=64 and a checkpointed run both split into 2^8 shards, so even
    # nodes_explored must agree.
    cp = str(tmp_path / "cp.txt")
    base = run_search(12, STRATEGY_DFS, checkpoint=cp)
    set_cpus(monkeypatch, 3)
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, jobs=64), base)
    # Without an affinity mask the CPU count decides; when it is unknown
    # there is one worker, and a one-worker pool is not built.
    monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, jobs=64), base)
    assert sizes == [3]

    # Two shards left to run: two workers, however many jobs and cores.
    lines = open(cp).read().splitlines(True)
    with open(cp, "w") as f:
        f.writelines(lines[:-2])
    set_cpus(monkeypatch, 16)
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, jobs=8, checkpoint=cp), base)
    assert sizes == [3, 2]


def test_pool_counts_the_cpus_this_process_may_run_on(monkeypatch):
    sizes = []
    monkeypatch.setattr(
        search.concurrent.futures, "ProcessPoolExecutor",
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
        search.concurrent.futures, "ProcessPoolExecutor",
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


def test_shard_split_is_bounded_whatever_jobs(monkeypatch):
    sizes, tasks = [], []
    monkeypatch.setattr(
        search.concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes, tasks),
    )
    base = run_search(16, STRATEGY_EXHAUSTIVE, jobs=1)
    assert same_but_elapsed(run_search(16, STRATEGY_EXHAUSTIVE, jobs=100000), base)
    assert len(sizes) == 1 and 0 < len(tasks) <= 256


def test_pool_takes_about_eight_batches_per_worker(monkeypatch, tmp_path):
    sizes, chunksizes = [], []
    monkeypatch.setattr(
        search.concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes, chunksizes=chunksizes),
    )
    set_cpus(monkeypatch, 2)
    cp = str(tmp_path / "cp.txt")
    base = run_search(12, STRATEGY_DFS, jobs=2, checkpoint=cp)  # a new file: 256 shards
    lines = open(cp).read().splitlines(True)
    with open(cp, "w") as f:
        f.writelines(lines[: 4 + 128])  # the header and half the shards
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, jobs=2, checkpoint=cp), base)
    set_cpus(monkeypatch, 3)
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, jobs=64), base)  # 256 shards, 3 workers
    serial = run_search(12, STRATEGY_EXHAUSTIVE)
    assert same_but_elapsed(run_search(12, STRATEGY_EXHAUSTIVE, jobs=2), serial)  # 8 shards
    assert (sizes, chunksizes) == ([2, 2, 3, 2], [16, 8, 10, 1])

    # A finished checkpoint leaves nothing to run, so no pool is built.
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, jobs=2, checkpoint=cp), base)
    assert len(sizes) == 4


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
    monkeypatch.setattr(search, "_dfs_shard", lambda *args: (real_shard(*args)[0], []))
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
    monkeypatch.setattr(search, "_walk_shard", lambda *task: (0, []))
    monkeypatch.setattr(search, "_dfs_shard", lambda *task: (0, []))
    monkeypatch.setattr(search, "MAX_UNCHECKPOINTED_ROWS", 1 << 36)
    for label in search._REPORT_STRATEGIES:
        strategy, _, weight = label.partition("+")
        for n in [*range(51), 1000, 1024]:
            try:
                run_search(n, strategy, weight_filter=bool(weight))
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
    for rep in (
        run_search(4, STRATEGY_WEIGHT),
        run_search(4, STRATEGY_DFS),
        run_search(4, STRATEGY_DFS, weight_filter=True),
    ):
        assert revalidate_report(rep) == []
