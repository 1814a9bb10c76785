"""Enumeration strategies, canonical forms, checkpoints, cross-validation."""

import dataclasses
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


def test_dfs_kernel_matches_reference_on_order_36_shards():
    weights = expected_minus_counts(36)
    rng = random.Random(0)
    for prefix in (rng.getrandbits(20), rng.getrandbits(20)):
        expected = reference_dfs_shard(36, prefix, 20, weights)
        assert expected[1] > 1000  # shards that get well past the prefix
        nodes, rows = search._dfs_shard(36, prefix, 20, weights)
        assert (len(rows), nodes, rows) == expected, prefix


# ---------------------------------------------------------------------------
# the full-enumeration walker against a naive filter

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


def test_packed_fields_decode_to_the_partial_autocorrelations():
    n = 36
    start, guard, steps = search._packed_tables(n)
    rng = random.Random(36)
    for _ in range(20):
        h = [rng.choice((1, -1)) for _ in range(n)]
        packed, fwd, rev = start, 0, 0
        for d, step in enumerate(steps):
            delta = step.ones - 2 * ((fwd << step.shift_fwd) + (rev >> step.shift_rev))
            if h[d] == 1:
                packed += delta
            else:
                packed -= delta
                fwd |= step.bit_fwd
                rev |= step.bit_rev
            within = True
            for t in range(1, n):
                pairs = [i for i in range(n) if i <= d and (i + t) % n <= d]
                partial = sum(h[i] * h[(i + t) % n] for i in pairs)
                assert ((packed >> (8 * t)) & 0xFF) - 64 == partial, (d, t)
                within = within and abs(partial) <= n - len(pairs)
            passes = ((packed + step.lo) & (step.hi - packed) & guard) == guard
            assert passes == within, d
        assert sum(1 << j for j in range(n) if h[j] == -1) == sum(
            1 << j for j in range(n) if (fwd >> (8 * j)) & 1
        )


# ---------------------------------------------------------------------------
# caps

def test_exhaustive_cap_env_is_honored(monkeypatch):
    monkeypatch.setenv("CHM_MAX_EXHAUSTIVE_N", "8")
    with pytest.raises(CapExceeded):
        run_search(9, STRATEGY_EXHAUSTIVE)
    monkeypatch.delenv("CHM_MAX_EXHAUSTIVE_N")
    with pytest.raises(CapExceeded):
        run_search(25, STRATEGY_EXHAUSTIVE)  # default cap 24
    with pytest.raises(CapExceeded):
        run_search(25, STRATEGY_WEIGHT)  # shares the full-enumeration cap
    with pytest.raises(CapExceeded):
        run_search(40, STRATEGY_DFS)  # DFS cap 36


@pytest.mark.parametrize(
    "value", ("abc", "-1", "", " 8", "8.0", "\u00b2"),
    ids=["letters", "negative", "empty", "leading_space", "decimal_point", "superscript_two"],
)
def test_exhaustive_cap_env_must_be_a_non_negative_integer(monkeypatch, value):
    monkeypatch.setenv("CHM_MAX_EXHAUSTIVE_N", value)
    with pytest.raises(ValueError, match="CHM_MAX_EXHAUSTIVE_N must be a non-negative decimal integer"):
        run_search(1, STRATEGY_EXHAUSTIVE)


def test_exhaustive_cap_env_zero_refuses_every_order(monkeypatch):
    monkeypatch.setenv("CHM_MAX_EXHAUSTIVE_N", "0")
    with pytest.raises(CapExceeded):
        run_search(1, STRATEGY_EXHAUSTIVE)
    assert run_search(1, STRATEGY_DFS).raw_count == 2  # the DFS has its own cap


def test_explicit_cap_argument_overrides_env(monkeypatch):
    monkeypatch.setenv("CHM_MAX_EXHAUSTIVE_N", "4")
    assert run_search(8, STRATEGY_EXHAUSTIVE, exhaustive_cap=8).raw_count == 0


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


def test_checkpoint_resume_takes_prefix_width_from_header(tmp_path):
    cp = str(tmp_path / "cp.txt")
    base = run_search(12, STRATEGY_DFS, checkpoint=cp)
    lines = open(cp).read().splitlines(True)
    with open(cp, "w") as f:
        f.writelines(lines[:-2])
    # jobs=128 alone would pick 9 prefix bits; the header says 8.
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, jobs=128, checkpoint=cp), base)
    assert "prefix_bits=8\n" in open(cp).read()
    assert len(shard_lines(cp)) == 256
    assert {len(l.split()[0]) for l in shard_lines(cp)} == {len("prefix=") + 8}


@pytest.mark.parametrize("width", ("13", "-1", "x", None))
def test_checkpoint_header_prefix_width_outside_the_order_is_rejected(tmp_path, width):
    cp = tmp_path / "cp.txt"
    run_search(12, STRATEGY_DFS, checkpoint=str(cp))
    text = cp.read_text()
    replacement = "" if width is None else f"prefix_bits={width}\n"
    cp.write_text(text.replace("prefix_bits=8\n", replacement))
    with pytest.raises(ValueError, match="prefix_bits"):
        run_search(12, STRATEGY_DFS, checkpoint=str(cp))


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
    ],
    ids=["missing_raw_count", "non_integer_nodes", "missing_elapsed", "negative_raw_count",
         "negative_nodes", "count_disagrees_with_rows", "row_not_n_signs",
         "row_off_prefix", "row_not_hadamard", "prefix_not_bits"],
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
    cp.write_text("# circhad search chec")
    assert same_but_elapsed(run_search(4, STRATEGY_EXHAUSTIVE, checkpoint=str(cp)), full)
    assert cp.read_text().startswith("# circhad search checkpoint v1\nn=4\n")


# ---------------------------------------------------------------------------
# bounded process pool

class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and maps serially."""

    def __init__(self, max_workers, sizes):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


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
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, jobs=64), base)
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, jobs=64), base)
    assert sizes == [3, 1]

    # Two shards left to run: two workers, however many jobs and cores.
    lines = open(cp).read().splitlines(True)
    with open(cp, "w") as f:
        f.writelines(lines[:-2])
    monkeypatch.setattr(search.os, "cpu_count", lambda: 16)
    assert same_but_elapsed(run_search(12, STRATEGY_DFS, jobs=8, checkpoint=cp), base)
    assert sizes == [3, 1, 2]


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
    assert set(cv.strategies) == {STRATEGY_EXHAUSTIVE, STRATEGY_DFS, STRATEGY_WEIGHT}


def test_cross_validate_odd_square():
    cv = cross_validate(9)
    assert cv.passed
    assert cv.raw_count == 0


def test_cross_validate_trivial_order():
    cv = cross_validate(1)
    assert cv.passed and cv.raw_count == 2


def test_cross_validate_refuses_past_cap(monkeypatch):
    monkeypatch.setenv("CHM_MAX_EXHAUSTIVE_N", "8")
    with pytest.raises(CapExceeded):
        cross_validate(12)


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
        (tampered(cap=3), "more than the cap"),
    ],
    ids=["duplicate", "descending", "strategy", "raw_count", "canonical_count",
         "nodes_explored", "cap", "over_cap"],
)
def test_revalidate_flags_malformed_reports(data, problem):
    problems = revalidate_report(report_from_dict(data))
    assert any(problem in p for p in problems), problems


def test_revalidate_accepts_every_strategy_label():
    for rep in (
        run_search(4, STRATEGY_WEIGHT),
        run_search(4, STRATEGY_DFS),
        run_search(4, STRATEGY_DFS, weight_filter=True),
    ):
        assert revalidate_report(rep) == []
