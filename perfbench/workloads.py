"""The four workloads: generated inputs, one pass's operation list, known answers.

A pass is a fixed list of operations run back to back by one client
(closed loop).  Each operation is one call into circhad's public API or
one in-process ``circhad.cli.main`` request; its result is checked
against an answer known independently of the code under test.  In a
traced pass each operation is also replayed afterwards as its public
building blocks on the same input, so the layers below it get their own
spans without any instrumentation inside ``src/``.

Inputs come from ``pass_rng(workload, seed, index)``: the same seed gives
the same inputs, and every pass draws fresh rows, so a cache keyed on
the input cannot turn repeated passes into a fake speed-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

from circhad import cli, congruences, cyclotomic, search, sequences, spectra

# ---------------------------------------------------------------------------
# Known answers.  None of these is computed by the code under test.

# The eight circulant Hadamard rows of order 4: rotations of -+++ and of
# its negation.
ORDER4_ROWS = ("-+++", "+-++", "++-+", "+++-", "+---", "-+--", "--+-", "---+")

# No circulant Hadamard row exists at orders 16, 20 and 22 (and none at
# 36 <= n <= 144, Turyn), so every search finds nothing.
EXHAUSTIVE22_NODES = 2 ** 22
WEIGHT16_NODES = math.comb(16, 6) + math.comb(16, 10)

# basis-rank: (basis size n/4, rank phi(n)/2) at each order used.
KNOWN_BASIS_RANK = {4: (1, 1), 36: (9, 6), 64: (16, 16), 100: (25, 20), 144: (36, 24)}

# lemma check 3: k*j = n/2 (mod n) at k = n/4 - 1 is solvable exactly when
# t = sqrt(n/4) is even (k = 0 at n = 4 is the degenerate unsolvable case).
KNOWN_HALF_PERIOD_SOLVABLE = {4: False, 36: False, 64: True, 100: False, 144: True}

# Descending, so the first call of the spectral workload meets the
# largest order with cold cyclotomic caches.
SPECTRAL_ORDERS = (144, 100, 64, 36)
ROWS_PER_ORDER = 2


def analyze_passes(row: str) -> bool:
    """Known ``analyze`` verdict: Hadamard rows pass unless the k = 0 convention bites.

    Mode 0 is evaluated with the pair-sum form, which passes only when
    4*|J|^2 = n (see ``circhad.spectra``); at order 4 that holds for the
    four rows with one -1 and fails for the four with three.
    """
    return len(row) == 4 and row.count("-") == 1


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def random_row(rng: random.Random, n: int) -> str:
    """A row of admissible weight: (n - sqrt(n))/2 entries are -1."""
    minus = set(rng.sample(range(n), (n - math.isqrt(n)) // 2))
    return "".join("-" if i in minus else "+" for i in range(n))


# ---------------------------------------------------------------------------
# Operations and passes.

@dataclass
class Op:
    """One request of a pass.

    ``run`` makes the call (given the tracer, for spans inside the
    request); ``check`` lists disagreements with the known answer;
    ``replay`` times the building blocks of a traced request on the same
    input and lists disagreements there; ``after`` runs right after the
    call, outside its latency but inside the pass; ``rows`` is how many
    rows the call settles (2^n for a search, 1 for a row verdict).
    """

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], list[str]]
    rows: int = 0
    after: Callable[[], None] | None = None
    replay: Callable[[Any, int, Any], list[str]] | None = None


@dataclass
class Pass:
    ops: list[Op]
    cleanup: Callable[[], None] = lambda: None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build_pass: Callable[[random.Random, str], Pass]
    nominal_pass_s: float  # pass wall time at the reference host speed
    min_passes: int
    max_passes: int
    warmup: bool  # whether a first pass fills caches the timed passes would otherwise pay for

    def passes(self, seconds: int) -> int:
        """Passes to time: about ``seconds`` worth, clamped for a usable sample."""
        return max(self.min_passes, min(self.max_passes, round(seconds / self.nominal_pass_s)))


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _same_but_elapsed(a: search.SearchReport, b: search.SearchReport) -> bool:
    return dataclasses.replace(a, elapsed_ms=0) == dataclasses.replace(b, elapsed_ms=0)


# ---------------------------------------------------------------------------
# walk and dfs: one search call per operation.

def _search_op(name: str, n: int, strategy: str, nodes: int | None = None, **kwargs) -> Op:
    def run(tr):
        return search.run_search(n, strategy, **kwargs)

    def check(rep):
        problems = []
        _expect(problems, rep.raw_count == 0 and rep.canonical_count == 0 and not rep.solutions,
                f"{name} n={n}: found {rep.raw_count} rows, expected none")
        if nodes is not None:
            _expect(problems, rep.nodes_explored == nodes,
                    f"{name} n={n}: explored {rep.nodes_explored} nodes, expected {nodes}")
        return problems

    def replay(tr, parent, rep):
        tr.count(f"{name}.nodes", rep.nodes_explored)
        tr.count(f"{name}.rows", 2 ** n)
        return []

    return Op(name, run, check, rows=2 ** n, replay=replay)


def _walk_pass(rng, scratch) -> Pass:
    return Pass([
        _search_op("search.weight", 16, search.STRATEGY_WEIGHT, nodes=WEIGHT16_NODES),
        _search_op("search.exhaustive", 22, search.STRATEGY_EXHAUSTIVE, nodes=EXHAUSTIVE22_NODES),
    ])


def _dfs_pass(rng, scratch) -> Pass:
    return Pass([
        _search_op("search.dfs_weight", 16, search.STRATEGY_DFS, weight_filter=True),
        _search_op("search.dfs", 20, search.STRATEGY_DFS),
    ])


# ---------------------------------------------------------------------------
# resume: checkpointed pool run, simulated interruption, resume, reload,
# report round trips.

def _roundtrip_op(get_report: Callable[[], search.SearchReport], path: str, order4: bool) -> Op:
    def run(tr):
        with tr.span("search.report_to_dict"):
            data = search.report_to_dict(get_report())
        with open(path, "w", encoding="ascii") as f:
            json.dump(data, f)
        with open(path, encoding="ascii") as f:
            loaded = search.report_from_dict(json.load(f))
        with tr.span("search.revalidate_report"):
            problems = search.revalidate_report(loaded)
        return loaded, problems

    def check(result):
        loaded, problems = result
        out = [f"revalidate_report: {p}" for p in problems]
        _expect(out, loaded == get_report(), f"report n={loaded.n} changed in the JSON round trip")
        if order4:
            _expect(out, loaded.raw_count == 8 and loaded.canonical_count == 1
                    and sorted(loaded.solutions) == sorted(ORDER4_ROWS),
                    "order-4 report does not list exactly the eight known rows")
        return out

    def replay(tr, parent, result):
        out = []
        for text in result[0].solutions:
            seq = sequences.Sequence.from_string(text)
            with tr.span("sequences.is_circulant_hadamard", parent):
                hadamard = sequences.is_circulant_hadamard(seq)
            with tr.span("sequences.has_orthogonal_rows", parent):
                orthogonal = sequences.has_orthogonal_rows(seq)
            with tr.span("search.canonicalize", parent):
                canonical = search.canonicalize(seq).to_string()
            _expect(out, hadamard and orthogonal and canonical == "-+++",
                    f"order-4 row {text}: building blocks disagree with the known answer")
        return out

    return Op("search.report.roundtrip", run, check, replay=replay)


def _resume_pass(rng, scratch) -> Pass:
    workdir = tempfile.mkdtemp(dir=scratch)
    ckpt = os.path.join(workdir, "run.ckpt")
    kwargs = dict(jobs=2, weight_filter=True, checkpoint=ckpt)
    box: dict[str, Any] = {"order4": search.run_search(4, search.STRATEGY_EXHAUSTIVE)}

    def write(tr):
        box["full"] = search.run_search(16, search.STRATEGY_DFS, **kwargs)
        return box["full"]

    def check_write(rep):
        problems = []
        _expect(problems, rep.raw_count == 0, f"checkpointed n=16 run found {rep.raw_count} rows")
        return problems

    def record_counts(tr, parent, rep):
        tr.count("search.dfs_weight.nodes", rep.nodes_explored)
        for key in ("shards", "checkpoint.lines", "checkpoint.bytes"):
            tr.count(f"search.{key}", box[key])
        return []

    def interrupt():
        # Keep the header and half the shard lines, as if the run had
        # been killed half way.
        with open(ckpt, encoding="ascii") as f:
            lines = f.readlines()
        shard = [i for i, line in enumerate(lines) if line.startswith("prefix=")]
        box["shards"] = len(shard)
        box["checkpoint.lines"] = len(lines)
        box["checkpoint.bytes"] = os.path.getsize(ckpt)
        keep = lines[: shard[0]] + [lines[i] for i in shard[: len(shard) // 2]] if shard else lines
        with open(ckpt, "w", encoding="ascii") as f:
            f.writelines(keep)

    def rerun(tr):
        return search.run_search(16, search.STRATEGY_DFS, **kwargs)

    def check_rerun(rep):
        problems = []
        _expect(problems, "full" in box and _same_but_elapsed(rep, box["full"]),
                "resumed or reloaded report differs from the uninterrupted one")
        return problems

    rows = 2 ** 16
    return Pass(
        [
            Op("search.checkpoint.write_pass", write, check_write, rows=rows,
               after=interrupt, replay=record_counts),
            Op("search.checkpoint.resume", rerun, check_rerun, rows=rows),
            Op("search.checkpoint.load", rerun, check_rerun, rows=rows),
            _roundtrip_op(lambda: box["full"], os.path.join(workdir, "n16.json"), order4=False),
            _roundtrip_op(lambda: box["order4"], os.path.join(workdir, "n4.json"), order4=True),
        ],
        cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True),
    )


# ---------------------------------------------------------------------------
# spectral: in-process CLI requests.

def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _modes(n: int) -> tuple[int, ...]:
    return tuple(sorted({0, 1, n // 4 - 1, n // 2 - 1, n // 2}))


def _verify_op(row: str, hadamard: bool) -> Op:
    n = len(row)

    def run(tr):
        return _cli(["verify", "--seq", row, "--format", "json"])

    def check(result):
        code, text = result
        payload = json.loads(text)
        problems = []
        _expect(problems, code == (0 if hadamard else 1), f"verify n={n}: exit {code}")
        _expect(problems, payload["passed"] == payload["is_circulant_hadamard"]
                == payload["matrix_identity"] == hadamard,
                f"verify n={n} {row}: verdicts disagree with the known answer {hadamard}")
        return problems

    def replay(tr, parent, result):
        seq = sequences.Sequence.from_string(row)
        with tr.span("cli.wrapped.verify", parent, wrapped=True):
            sequences.even_order_check(n)
            sequences.square_weight_check(seq)
            sequences.is_circulant_hadamard(seq)
            sequences.has_orthogonal_rows(seq)
        with tr.span("sequences.is_circulant_hadamard", parent):
            a = sequences.is_circulant_hadamard(seq)
        with tr.span("sequences.has_orthogonal_rows", parent):
            b = sequences.has_orthogonal_rows(seq)
        with tr.span("sequences.has_flat_spectrum", parent):
            c = sequences.has_flat_spectrum(seq)
        with tr.span("sequences.autocorrelation", parent):
            r = sequences.autocorrelation(seq)
        with tr.span("search.canonicalize", parent):
            canonical = search.canonicalize(seq)
        problems = []
        _expect(problems, a == b == c == (not any(r[1:])) == hadamard,
                f"{row}: row checks disagree with the known answer {hadamard}")
        _expect(problems, canonical.entries.count(-1) == min(row.count("-"), row.count("+")),
                f"{row}: canonical form is not the -1-minority class member")
        return problems

    return Op("cli.main.verify", run, check, rows=1, replay=replay)


def _analyze_op(row: str) -> Op:
    n = len(row)
    expected = analyze_passes(row)

    def run(tr):
        return _cli(["analyze", "--seq", row])

    def check(result):
        code, text = result
        payload = json.loads(text)
        problems = []
        _expect(problems, code == (0 if expected else 1) and payload["overall"] == expected
                and len(payload["perK"]) == n,
                f"analyze n={n} {row}: overall {payload['overall']}, expected {expected}")
        return problems

    def replay(tr, parent, result):
        index_set = sequences.minus_indices(sequences.Sequence.from_string(row))
        with tr.span(f"spectra.spectral_verdict.n{n}", parent, wrapped=True):
            verdict = spectra.spectral_verdict(index_set)
        problems = []
        _expect(problems, verdict.overall == expected, f"spectral_verdict n={n} {row}: {verdict.overall}")
        target = cyclotomic.from_integer(n, n)
        for k in _modes(n):
            with tr.span("spectra.difference_counts", parent):
                table = spectra.difference_counts(index_set, k)
            with tr.span("spectra.basis_coefficients", parent):
                spectra.basis_coefficients(table)
            element = cyclotomic.CycloElement(n, table.counts) * 4 - target
            with tr.span("cyclotomic.is_zero", parent):
                flat = element.is_zero()
            _expect(problems, flat == verdict.per_mode[k].mag_sq_equals_order,
                    f"n={n} k={k}: is_zero disagrees with spectral_verdict")
        return problems

    return Op("cli.main.analyze", run, check, rows=1, replay=replay)


def _lemma_op(n: int) -> Op:
    solvable = KNOWN_HALF_PERIOD_SOLVABLE[n]

    def run(tr):
        return _cli(["lemma", "--n", str(n), "--format", "json"])

    def check(result):
        code, text = result
        payload = json.loads(text)
        problems = []
        _expect(problems, code == 0 and payload["check1"]["passed"] and payload["check2"]["passed"]
                and payload["check3"]["solvable"] == solvable,
                f"lemma n={n}: check 3 solvable {payload['check3']['solvable']}, expected {solvable}")
        return problems

    def replay(tr, parent, result):
        with tr.span("cli.wrapped.lemma", parent, wrapped=True):
            sequences.even_order_check(n)
            sequences.expected_minus_counts(n)
            congruences.half_period_report(n)
        with tr.span("congruences.half_period_report", parent):
            report = congruences.half_period_report(n)
        with tr.span("congruences.solve_linear_congruence", parent):
            sol = congruences.solve_linear_congruence(n // 4 - 1, n // 2, n)
        problems = []
        _expect(problems, report.solvable == sol.solvable == solvable,
                f"n={n}: half-period congruence solvable {sol.solvable}, expected {solvable}")
        return problems

    return Op("cli.main.lemma", run, check, replay=replay)


def _basis_rank_op(n: int) -> Op:
    size, rank = KNOWN_BASIS_RANK[n]

    def run(tr):
        return _cli(["basis-rank", "--n", str(n)])

    def check(result):
        code, text = result
        fields = text.splitlines()[1].split(",")
        problems = []
        _expect(problems, code == 0 and fields[:4] == [str(n), str(size), str(rank), str(rank)],
                f"basis-rank n={n}: {fields}, expected basis {size} rank {rank}")
        return problems

    def replay(tr, parent, result):
        with tr.span("cyclotomic.real_basis_rank", parent, wrapped=True):
            report = cyclotomic.real_basis_rank(n)
        problems = []
        _expect(problems, (report.basis_size, report.rank) == (size, rank),
                f"real_basis_rank n={n}: {report.basis_size}/{report.rank}")
        return problems

    return Op("cli.main.basis-rank", run, check, replay=replay)


def _spectral_pass(rng, scratch) -> Pass:
    ops = []
    for n in SPECTRAL_ORDERS:
        for _ in range(ROWS_PER_ORDER):
            row = random_row(rng, n)
            ops += [_analyze_op(row), _verify_op(row, hadamard=False)]
        ops += [_lemma_op(n), _basis_rank_op(n)]
    for row in ORDER4_ROWS:
        ops += [_analyze_op(row), _verify_op(row, hadamard=True)]
    ops += [_lemma_op(4), _basis_rank_op(4)]
    return Pass(ops)


# walk and dfs make two calls per pass, one about a hundred times slower
# than the other.  With P passes (2P samples) the op_ms_tail sample, the
# eleventh largest, sits among the slow calls when P >= 11; with P <= 5
# no sample has ten beyond it and the maximum, a slow call, is reported;
# in between it would fall among the fast calls.  walk times at least 11
# passes; dfs, at about four seconds a pass, exactly 5.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "walk",
            "exhaustive 2^22 and weight-constrained n=16 walks: the bit-mask row check does the work, spectra and cyclotomic idle",
            _walk_pass, nominal_pass_s=2.2, min_passes=11, max_passes=30, warmup=False,
        ),
        Workload(
            "dfs",
            "pruned-dfs at n=20 and weighted n=16: the assign/retract kernel dominates; desk-scale stand-in for the order-36 run",
            _dfs_pass, nominal_pass_s=3.6, min_passes=5, max_passes=5, warmup=False,
        ),
        Workload(
            "resume",
            "jobs=2 checkpointed n=16 run, interrupted, resumed, reloaded, reports round-tripped: pool start and checkpoint I/O",
            _resume_pass, nominal_pass_s=0.32, min_passes=5, max_passes=200, warmup=True,
        ),
        Workload(
            "spectral",
            "CLI verify/analyze/lemma/basis-rank on seeded rows at n=36..144 and order 4: spectra, cyclotomic, cli; search idle",
            _spectral_pass, nominal_pass_s=0.4, min_passes=5, max_passes=500, warmup=True,
        ),
    )
}
